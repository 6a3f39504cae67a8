//! The listener: a thread-per-core accept pool over
//! `std::net::TcpListener`, routing its paths onto the dispatcher.
//!
//! Each accept thread owns the connection it accepted end-to-end
//! (parse → dispatch → respond, with HTTP/1.1 keep-alive), and runs the
//! audits its connection asks for itself: [`Dispatcher::submit`] serves
//! on the calling thread, with a backend taken from the tool's lane. So
//! an audit that finds an idle backend crosses no thread at all; one
//! that finds every backend busy waits in the lane's bounded queue on
//! this thread, or is shed or degraded when the queue is full. A slow
//! audit occupies its accept thread and one of its lane's backends.
//!
//! Shutdown is a two-phase drain, in this order:
//!
//! 1. the gateway stops taking *new* connections: the drain flag flips,
//!    one wake-up connection per accept thread unblocks `accept()`, and
//!    each accept thread switches the listener to non-blocking and
//!    serves out whatever the kernel already queued in the accept
//!    backlog — every connection (in-flight or backlogged) finishes its
//!    current request with `Connection: close`;
//! 2. the dispatcher refuses new admissions and waits until every lane
//!    holds all its backends again, then flushes the history writer.
//!
//! Because every queued audit waits inside an accept thread, phase 1
//! completing implies the queues are empty and every backend is home by
//! the time phase 2 runs — no request that reached the listener before
//! shutdown is ever dropped by a clean drain.

use crate::dispatch::{Dispatcher, JobEvent, Rejection, ToolPool};
use crate::http::{self, ChunkedBody, Limits, Parse};
use crate::wire;
use fakeaudit_detectors::ToolId;
use fakeaudit_server::{writer_health, writer_view, ServerConfig, ServerReport};
use fakeaudit_store::queries::{self, QueryKind, QueryOptions};
use fakeaudit_store::{open_shared_with, FsyncPolicy, SharedWriter, StoreHealth};
use fakeaudit_telemetry::{Clock, MonitorConfig, SelfTimeProfile, SloMonitor, Telemetry};
use fakeaudit_twittersim::{AccountId, Platform};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resolves a tool abbreviation (`FC`, `TA`, `SP`, `SB`), case-insensitively.
pub fn tool_from_abbrev(s: &str) -> Option<ToolId> {
    ToolId::ALL
        .iter()
        .copied()
        .find(|t| t.abbrev().eq_ignore_ascii_case(s))
}

/// Listener-level configuration. Admission and backend knobs live in
/// [`ServerConfig`] — the same struct the simulator takes.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 for ephemeral).
    pub addr: String,
    /// Accept/connection threads. Defaults to available parallelism.
    pub accept_threads: usize,
    /// Admission-control and per-lane backend knobs (shared with the sim).
    pub server: ServerConfig,
    /// HTTP parse limits.
    pub limits: Limits,
    /// Tool used when a request has no `?tool=` parameter.
    pub default_tool: ToolId,
    /// Per-read socket timeout; an idle keep-alive connection is closed
    /// after this. It also bounds each request from its first byte to its
    /// last: a client slower than that gets 408 and the connection closes.
    pub read_timeout: Duration,
    /// Directory for the columnar audit-history store. `None` (the
    /// default) disables persistence and the `/query/:kind` routes.
    pub persist: Option<PathBuf>,
    /// Ack-time durability floor for the history store's write-ahead
    /// log (`--fsync never|on-flush|on-append`). Ignored without
    /// `persist`.
    pub fsync: FsyncPolicy,
    /// Streaming SLO monitor configuration. `None` (the default)
    /// disables the monitor, the background tick thread, and the
    /// `/alerts` + `/metrics/history` routes.
    pub slo: Option<MonitorConfig>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            accept_threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            server: ServerConfig::default(),
            limits: Limits::default(),
            default_tool: ToolId::Twitteraudit,
            read_timeout: Duration::from_secs(10),
            persist: None,
            fsync: FsyncPolicy::default(),
            slo: None,
        }
    }
}

struct Shared {
    dispatcher: Arc<Dispatcher>,
    telemetry: Telemetry,
    clock: Arc<dyn Clock>,
    limits: Limits,
    default_tool: ToolId,
    read_timeout: Duration,
    started_at: f64,
    shutdown: AtomicBool,
    active_connections: AtomicI64,
    persist: Option<SharedWriter>,
    monitor: Option<SloMonitor>,
}

thread_local! {
    /// The status code the current request's handler reported via
    /// [`Shared::count_request`]. Connections are handled end-to-end on
    /// one accept thread, so the per-thread cell is per-request state:
    /// [`route`] resets it before dispatch and reads it after, to feed
    /// the SLO monitor an ok/error verdict without threading a status
    /// return through every handler.
    static LAST_STATUS: std::cell::Cell<u16> = const { std::cell::Cell::new(200) };
}

impl Shared {
    fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn store_health(&self) -> Option<StoreHealth> {
        self.persist.as_ref().map(writer_health)
    }

    fn count_request(&self, route: &'static str, status: u16) {
        LAST_STATUS.with(|cell| cell.set(status));
        self.telemetry.counter_add(
            "gateway.http_requests",
            &[("route", route), ("status", &http::status_text(status))],
            1,
        );
        if status >= 400 {
            self.telemetry
                .counter_add("gateway.http_errors", &[("route", route)], 1);
        }
    }
}

/// A running wall-clock audit gateway.
///
/// Construct with [`Gateway::bind`]; stop with [`Gateway::shutdown`],
/// which drains in-flight requests and returns the final
/// [`ServerReport`] — the same report type the simulator produces.
pub struct Gateway {
    shared: Arc<Shared>,
    dispatcher: Arc<Dispatcher>,
    listener: Arc<TcpListener>,
    acceptors: Vec<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("addr", &self.addr)
            .field("acceptors", &self.acceptors.len())
            .finish()
    }
}

impl Gateway {
    /// Binds the listener, builds the dispatcher's lanes, boots the
    /// accept threads, and returns the serving gateway.
    ///
    /// # Errors
    ///
    /// The bind error, untouched — callers (the CLI) turn it into a
    /// clear message plus a nonzero exit.
    pub fn bind(
        config: GatewayConfig,
        platform: Arc<Platform>,
        pools: Vec<ToolPool>,
        clock: Arc<dyn Clock>,
        telemetry: Telemetry,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let persist = match &config.persist {
            Some(dir) => Some(open_shared_with(dir, config.fsync)?),
            None => None,
        };
        let dispatcher = Arc::new(Dispatcher::start_with_persist(
            platform,
            pools,
            config.server,
            Arc::clone(&clock),
            telemetry.clone(),
            persist.as_ref().map(Arc::clone),
        ));
        let monitor = config
            .slo
            .map(|slo| SloMonitor::new(slo, telemetry.clone()));
        let shared = Arc::new(Shared {
            dispatcher: Arc::clone(&dispatcher),
            telemetry,
            started_at: clock.now_secs(),
            clock,
            limits: config.limits,
            default_tool: config.default_tool,
            read_timeout: config.read_timeout,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicI64::new(0),
            persist,
            monitor,
        });
        // The monitor's tick thread: evaluates the alert rules every
        // bucket on the gateway's clock, polling the drain flag often
        // enough that shutdown never waits a full bucket.
        let ticker = shared.monitor.clone().map(|monitor| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gw-slo-tick".to_owned())
                .spawn(move || {
                    let step = monitor.config().bucket_secs.max(0.01);
                    let mut next = shared.clock.now_secs() + step;
                    while !shared.is_draining() {
                        std::thread::sleep(Duration::from_millis(20));
                        let now = shared.clock.now_secs();
                        if now >= next {
                            monitor.tick(now);
                            next = now + step;
                        }
                    }
                    // One final evaluation so the tail of the run is
                    // reflected in the last /alerts state.
                    monitor.tick(shared.clock.now_secs());
                })
                .expect("spawn slo tick thread")
        });
        let listener = Arc::new(listener);
        let acceptors = (0..config.accept_threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let listener = Arc::clone(&listener);
                std::thread::Builder::new()
                    .name(format!("gw-accept-{i}"))
                    .spawn(move || accept_loop(&shared, &listener))
                    .expect("spawn accept thread")
            })
            .collect();
        Ok(Self {
            shared,
            dispatcher,
            listener,
            acceptors,
            ticker,
            addr,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time report over every request served so far.
    pub fn report(&self) -> ServerReport {
        self.dispatcher.report()
    }

    /// The telemetry handle the gateway records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// The streaming SLO monitor, when the gateway runs one (`slo` set
    /// in [`GatewayConfig`]).
    pub fn monitor(&self) -> Option<&SloMonitor> {
        self.shared.monitor.as_ref()
    }

    /// Stops accepting, drains in-flight requests and queued audits,
    /// joins every thread, and returns the final report.
    pub fn shutdown(self) -> ServerReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Flip the listener non-blocking first so no accept parked
        // *after* this point can block again, then poke each accept
        // thread until it actually exits — a single wake-up connection
        // per thread is not enough, because a thread already in its
        // drain loop can consume a wake-up meant for one still parked
        // in blocking `accept()`.
        let _ = self.listener.set_nonblocking(true);
        for handle in self.acceptors {
            while !handle.is_finished() {
                let _ = TcpStream::connect(self.addr);
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = handle.join();
        }
        if let Some(ticker) = self.ticker {
            let _ = ticker.join();
        }
        self.dispatcher.shutdown();
        self.dispatcher.report()
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        if shared.is_draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                shared.active_connections.fetch_add(1, Ordering::Relaxed);
                handle_connection(shared, stream);
                shared.active_connections.fetch_sub(1, Ordering::Relaxed);
            }
            Err(_) => {
                if shared.is_draining() {
                    break;
                }
            }
        }
    }
    // Drain: connections already sitting in the kernel's accept backlog
    // reached the listener before shutdown, so they still get served —
    // with `Connection: close`. The non-blocking flip also bounds the
    // drain: once `accept` reports WouldBlock the backlog is empty and
    // the thread exits. (The flag is per-listener, so the first thread
    // to get here flips it for every accept thread.)
    let _ = listener.set_nonblocking(true);
    while let Ok((stream, _)) = listener.accept() {
        shared.active_connections.fetch_add(1, Ordering::Relaxed);
        handle_connection(shared, stream);
        shared.active_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    // Not inherited from the listener on Linux, but is on some
    // platforms — the listener goes non-blocking during drain.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let mut timeout = shared.read_timeout;
    let _ = stream.set_read_timeout(Some(timeout));
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut tmp = [0u8; 8192];
    // When the pending request was first seen incomplete. `read_timeout`
    // is per read, so on its own a client trickling one byte per read
    // could pin this accept thread indefinitely; a request that spans
    // reads must also complete within `read_timeout`. (A request that
    // arrives in one read never starts the clock.)
    let mut started: Option<Instant> = None;
    loop {
        match http::parse_request(&buf, &shared.limits) {
            Ok(Parse::Complete(request, consumed)) => {
                buf.drain(..consumed);
                started = None;
                match route(shared, &request, &mut stream) {
                    Ok(true) if !shared.is_draining() => continue,
                    _ => return,
                }
            }
            Ok(Parse::Partial) => {
                if !buf.is_empty() {
                    started.get_or_insert_with(Instant::now);
                }
                let left = started.map_or(shared.read_timeout, |t0| {
                    shared.read_timeout.saturating_sub(t0.elapsed())
                });
                if left.is_zero() {
                    return request_timeout(shared, &mut stream);
                }
                if left != timeout {
                    timeout = left;
                    let _ = stream.set_read_timeout(Some(timeout));
                }
                match stream.read(&mut tmp) {
                    Ok(0) => return,
                    Ok(n) => buf.extend_from_slice(&tmp[..n]),
                    Err(e)
                        if started.is_some()
                            && matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                            ) =>
                    {
                        return request_timeout(shared, &mut stream);
                    }
                    Err(_) => return,
                }
            }
            Err(e) => return reject(shared, &mut stream, e.status(), e.message()),
        }
    }
}

/// Answers 408 to a request that did not arrive within `read_timeout` of
/// its first byte, and closes.
fn request_timeout(shared: &Shared, stream: &mut TcpStream) {
    reject(
        shared,
        stream,
        408,
        "request not received within the read timeout",
    );
}

/// Answers an error the connection cannot recover from, and closes.
fn reject(shared: &Shared, stream: &mut TcpStream, status: u16, message: &str) {
    shared.count_request("error", status);
    let body = wire::error_json(message);
    let _ = http::write_response(
        stream,
        status,
        "application/json",
        &[],
        body.as_bytes(),
        false,
    );
}

/// Routes one parsed request with RED accounting around it: every
/// request records a `gateway.request` span plus a per-route duration
/// observation whose exemplar carries the span id, so a hot `/metrics`
/// line links straight to the worst trace. Returns whether the
/// connection may be kept alive.
fn route(shared: &Shared, request: &http::Request, stream: &mut TcpStream) -> io::Result<bool> {
    LAST_STATUS.with(|cell| cell.set(200));
    let t0 = shared.clock.now_secs();
    let (label, result) = dispatch_route(shared, request, stream);
    let t1 = shared.clock.now_secs();
    let span = shared.telemetry.root_context().child();
    span.record("gateway.request", t0, t1, &[("route", label)]);
    match span.span_id() {
        Some(id) => shared.telemetry.observe_with_exemplar(
            "gateway.request_secs",
            &[("route", label)],
            t1 - t0,
            &id.to_string(),
        ),
        None => shared
            .telemetry
            .observe("gateway.request_secs", &[("route", label)], t1 - t0),
    }
    if let Some(monitor) = &shared.monitor {
        // The handler reported its status through count_request on this
        // thread; 5xx is the server's failure, 4xx the client's.
        let status = LAST_STATUS.with(std::cell::Cell::get);
        monitor.observe_request(label, t1, Some(t1 - t0), status < 500, span.span_id());
    }
    result
}

/// The route table proper (see [`route`] for the RED wrapper). Returns
/// the route label it matched — the `route` dimension on
/// `gateway.http_requests` / `gateway.http_errors` /
/// `gateway.request_secs` — with the handler's result.
fn dispatch_route(
    shared: &Shared,
    request: &http::Request,
    stream: &mut TcpStream,
) -> (&'static str, io::Result<bool>) {
    const JSON: &str = "application/json";
    let keep = request.keep_alive() && !shared.is_draining();
    let path = request.path();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let monitor_json = |render: fn(&SloMonitor) -> String| match &shared.monitor {
        Some(monitor) => (200, render(monitor)),
        None => (
            404,
            wire::error_json("no slo monitor (start the gateway with --slo)"),
        ),
    };
    // The audit and query routes answer for themselves; every other
    // route is one whole response, counted and written below.
    let (label, status, content_type, body) = match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let slo = shared.monitor.as_ref().map(|m| m.route_status());
            let body = wire::health_json(
                &shared.dispatcher.lane_status(),
                shared.clock.now_secs() - shared.started_at,
                shared.is_draining(),
                shared.store_health().as_ref(),
                slo.as_deref(),
            );
            ("healthz", 200, JSON, body)
        }
        ("GET", ["alerts"]) => {
            let (status, body) = monitor_json(SloMonitor::alerts_json);
            ("alerts", status, JSON, body)
        }
        ("GET", ["metrics", "history"]) => {
            let (status, body) = monitor_json(SloMonitor::history_json);
            ("metrics_history", status, JSON, body)
        }
        ("GET", ["debug", "profile"]) => {
            // Fold the bounded in-memory trace buffer into self-time
            // stacks. The buffer holds whatever the retention bound kept;
            // for a seeded sim run the folded bytes are deterministic.
            let profile = SelfTimeProfile::from_events(&shared.telemetry.events());
            let body = profile.folded();
            ("debug_profile", 200, "text/plain; charset=utf-8", body)
        }
        ("GET", ["debug", "vars"]) => {
            let counts = shared.monitor.as_ref().map(|m| m.counts());
            let monitor = counts
                .as_ref()
                .map(|c| (c, shared.telemetry.retention_stats()));
            let body = wire::debug_vars_json(&wire::DebugVars {
                version: option_env!("CARGO_PKG_VERSION").unwrap_or("dev"),
                uptime_secs: shared.clock.now_secs() - shared.started_at,
                draining: shared.is_draining(),
                active_connections: shared.active_connections.load(Ordering::Relaxed),
                dropped_trace_events: shared.telemetry.dropped_events(),
                lanes: &shared.dispatcher.lane_status(),
                store: shared.store_health().as_ref(),
                monitor,
            });
            ("debug_vars", 200, JSON, body)
        }
        ("GET", ["metrics"]) => {
            let body = wire::prometheus_text(&shared.telemetry.snapshot());
            ("metrics", 200, "text/plain; version=0.0.4", body)
        }
        ("POST", ["audit", id]) => {
            return ("audit", handle_audit(shared, request, id, stream, keep))
        }
        ("GET", ["audit", id, "stream"]) => {
            return (
                "audit_stream",
                handle_audit_stream(shared, request, id, stream),
            )
        }
        ("GET", ["query", kind]) => {
            return ("query", handle_query(shared, request, kind, stream, keep))
        }
        (_, ["healthz"])
        | (_, ["metrics"])
        | (_, ["metrics", "history"])
        | (_, ["alerts"])
        | (_, ["debug", ..])
        | (_, ["audit", ..])
        | (_, ["query", ..]) => ("other", 405, JSON, wire::error_json("method not allowed")),
        _ => ("other", 404, JSON, wire::error_json("no such route")),
    };
    shared.count_request(label, status);
    let written = http::write_response(stream, status, content_type, &[], body.as_bytes(), keep);
    (label, written.map(|()| keep))
}

/// Parses the `:target` path segment (`123` or the display form `u123`)
/// and the optional `?tool=` parameter.
fn parse_audit_params(
    shared: &Shared,
    request: &http::Request,
    id: &str,
) -> Result<(ToolId, AccountId), (u16, String)> {
    let raw = id.strip_prefix('u').unwrap_or(id);
    let target = raw
        .parse::<u64>()
        .map(AccountId)
        .map_err(|_| (400, wire::error_json(&format!("bad target id '{id}'"))))?;
    let tool = match request.query_param("tool") {
        None => shared.default_tool,
        Some(abbrev) => tool_from_abbrev(abbrev)
            .ok_or_else(|| (404, wire::error_json(&format!("unknown tool '{abbrev}'"))))?,
    };
    Ok((tool, target))
}

/// `POST /audit/:target` — runs the audit on this thread and answers
/// with its verdict or refusal.
fn handle_audit(
    shared: &Shared,
    request: &http::Request,
    id: &str,
    stream: &mut TcpStream,
    keep: bool,
) -> io::Result<bool> {
    let (tool, target) = match parse_audit_params(shared, request, id) {
        Ok(pair) => pair,
        Err((status, body)) => {
            shared.count_request("audit", status);
            http::write_response(
                stream,
                status,
                "application/json",
                &[],
                body.as_bytes(),
                keep,
            )?;
            return Ok(keep);
        }
    };
    match shared.dispatcher.submit(tool, target, |_| {}) {
        Ok(answer) => {
            let body = wire::verdict_json(tool, target, &answer);
            shared.count_request("audit", 200);
            http::write_response(stream, 200, "application/json", &[], body.as_bytes(), keep)?;
        }
        Err(rejection) => {
            let (status, body) = wire::rejection_status_and_json(&rejection);
            let retry_after;
            let mut extra: Vec<(&str, &str)> = Vec::new();
            if let Rejection::BreakerOpen { retry_in_secs } = &rejection {
                retry_after = format!("{}", retry_in_secs.ceil().max(1.0) as u64);
                extra.push(("Retry-After", &retry_after));
            }
            shared.count_request("audit", status);
            http::write_response(
                stream,
                status,
                "application/json",
                &extra,
                body.as_bytes(),
                keep,
            )?;
        }
    }
    Ok(keep)
}

/// Writes one NDJSON line to a progress stream, and drops the stream on
/// its first failed write: a client that hung up loses the rest of its
/// lines, not its audit.
fn send_line<W: Write>(body: &mut Option<ChunkedBody<W>>, line: &str) {
    if body
        .as_mut()
        .is_some_and(|b| b.chunk(line.as_bytes()).is_err())
    {
        *body = None;
    }
}

/// `GET /audit/:target/stream` — the chunked progress stream: one NDJSON
/// line per [`JobEvent`] as it happens, one for the verdict or refusal,
/// then the terminator. Streaming responses always close the connection.
/// The audit runs to its end and the request is counted under its
/// terminal status whatever the writes did.
fn handle_audit_stream(
    shared: &Shared,
    request: &http::Request,
    id: &str,
    stream: &mut TcpStream,
) -> io::Result<bool> {
    let (tool, target) = match parse_audit_params(shared, request, id) {
        Ok(pair) => pair,
        Err((status, body)) => {
            shared.count_request("audit_stream", status);
            http::write_response(
                stream,
                status,
                "application/json",
                &[],
                body.as_bytes(),
                false,
            )?;
            return Ok(false);
        }
    };
    let mut body = ChunkedBody::start(&mut *stream, 200, "application/x-ndjson", &[]).ok();
    let result = shared.dispatcher.submit(tool, target, |event| {
        let line = match event {
            JobEvent::Queued { depth } => {
                wire::stream_event_json("queued", &[("depth", depth.to_string())])
            }
            JobEvent::Started => wire::stream_event_json("started", &[]),
        };
        send_line(&mut body, &line);
    });
    let (status, line) = match result {
        Ok(answer) => {
            let verdict = wire::verdict_json(tool, target, &answer);
            (
                200,
                wire::stream_event_json("done", &[("verdict", verdict)]),
            )
        }
        Err(rejection) => {
            let (code, error) = wire::rejection_status_and_json(&rejection);
            let fields = [("status", code.to_string()), ("error", error)];
            (code, wire::stream_event_json("rejected", &fields))
        }
    };
    send_line(&mut body, &line);
    if let Some(body) = body {
        let _ = body.finish();
    }
    shared.count_request("audit_stream", status);
    Ok(false)
}

/// `GET /query/:kind` — the analytics surface over the history store.
/// Reads the writer's live view: its in-memory segments plus its
/// buffered rows, so every persisted audit is visible without a flush or
/// a reopen of the directory. The writer lock is held only to copy the
/// segment list and the buffered rows.
fn handle_query(
    shared: &Shared,
    request: &http::Request,
    kind: &str,
    stream: &mut TcpStream,
    keep: bool,
) -> io::Result<bool> {
    let respond = |shared: &Shared, stream: &mut TcpStream, status: u16, body: &str| {
        shared.count_request("query", status);
        http::write_response(
            stream,
            status,
            "application/json",
            &[],
            body.as_bytes(),
            keep,
        )
        .map(|()| keep)
    };
    let Some(writer) = shared.persist.as_ref() else {
        let body = wire::error_json("no history store (start the gateway with --persist DIR)");
        return respond(shared, stream, 404, &body);
    };
    let kind: QueryKind = match kind.parse() {
        Ok(kind) => kind,
        Err(msg) => {
            return respond(shared, stream, 404, &wire::error_json(&msg));
        }
    };
    let opts = match QueryOptions::from_params(|key| request.query_param(key)) {
        Ok(opts) => opts,
        Err(msg) => {
            return respond(shared, stream, 400, &wire::error_json(&msg));
        }
    };
    let store = writer_view(writer).into_store();
    match queries::run(&store, kind, &opts) {
        Ok(report) => {
            shared
                .telemetry
                .counter_add("store.queries", &[("kind", kind.as_str())], 1);
            shared.telemetry.counter_add(
                "store.query_rows_scanned",
                &[("kind", kind.as_str())],
                report.stats.rows_scanned,
            );
            shared.telemetry.counter_add(
                "store.query_rows_pruned",
                &[("kind", kind.as_str())],
                report.stats.rows_pruned,
            );
            respond(shared, stream, 200, &report.to_json())
        }
        Err(err) => respond(
            shared,
            stream,
            500,
            &wire::error_json(&format!("query failed: {err}")),
        ),
    }
}
