//! End-to-end gateway tests over real sockets: boot on an ephemeral
//! port, speak actual HTTP/1.1 at it, assert the audit/health/metrics
//! contract — plus the two load-bearing behaviours a wall-clock server
//! must not get wrong: overload shedding and drain-on-shutdown.

use fakeaudit_analytics::{ServiceError, ServiceResponse};
use fakeaudit_detectors::{AuditOutcome, ToolId, VerdictCounts};
use fakeaudit_gateway::{Gateway, GatewayConfig, ToolPool};
use fakeaudit_server::{OverloadPolicy, ServerConfig};
use fakeaudit_telemetry::{Telemetry, TraceContext, WallClock};
use fakeaudit_twittersim::{AccountId, Platform, SimTime};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A backend with a scripted verdict and an optional real service
/// delay; `serve_stale` answers only for pre-known targets.
struct TestBackend {
    tool: ToolId,
    delay: Duration,
    stale_known: Vec<AccountId>,
}

impl TestBackend {
    fn new(tool: ToolId) -> Self {
        Self {
            tool,
            delay: Duration::ZERO,
            stale_known: Vec::new(),
        }
    }

    fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    fn with_stale(mut self, known: &[u64]) -> Self {
        self.stale_known = known.iter().copied().map(AccountId).collect();
        self
    }

    fn response(&self, target: AccountId, cached: bool) -> ServiceResponse {
        ServiceResponse {
            outcome: AuditOutcome {
                tool_name: self.tool.abbrev().into(),
                target,
                assessed: vec![],
                counts: VerdictCounts {
                    inactive: 1,
                    fake: 2,
                    genuine: 7,
                },
                audited_at: SimTime::EPOCH,
                api_elapsed_secs: 0.5,
                api_calls: 3,
            },
            response_secs: 0.5,
            served_from_cache: cached,
            assessed_at: SimTime::EPOCH,
        }
    }
}

impl fakeaudit_server::AuditBackend for TestBackend {
    fn tool(&self) -> ToolId {
        self.tool
    }

    fn serve(
        &mut self,
        _platform: &Platform,
        target: AccountId,
        _ctx: &TraceContext,
        _now_secs: f64,
    ) -> Result<ServiceResponse, ServiceError> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        Ok(self.response(target, false))
    }

    fn serve_stale(&self, target: AccountId) -> Option<ServiceResponse> {
        self.stale_known
            .contains(&target)
            .then(|| self.response(target, true))
    }
}

fn pool(tool: ToolId, workers: usize, delay: Duration, stale: &[u64]) -> ToolPool {
    ToolPool {
        tool,
        workers: (0..workers)
            .map(|_| Box::new(TestBackend::new(tool).with_delay(delay)) as _)
            .collect(),
        stale: Box::new(TestBackend::new(tool).with_stale(stale)),
    }
}

fn boot(server: ServerConfig, pools: Vec<ToolPool>) -> Gateway {
    let config = GatewayConfig {
        accept_threads: 4,
        server,
        default_tool: ToolId::Twitteraudit,
        read_timeout: Duration::from_secs(5),
        ..GatewayConfig::default()
    };
    Gateway::bind(
        config,
        Arc::new(Platform::new()),
        pools,
        Arc::new(WallClock::new()),
        Telemetry::enabled(),
    )
    .expect("bind ephemeral port")
}

/// One-shot HTTP exchange: sends `head`, reads to EOF, returns the raw
/// response text.
fn exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

fn post_audit(addr: SocketAddr, path: &str) -> String {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> String {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

/// The body of a one-shot response (everything after the head).
fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").expect("head").1
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line")
}

#[test]
fn health_audit_and_metrics_roundtrip() {
    let gateway = boot(
        ServerConfig::default(),
        vec![pool(ToolId::Twitteraudit, 2, Duration::ZERO, &[])],
    );
    let addr = gateway.local_addr();

    let health = get(addr, "/healthz");
    assert_eq!(status_of(&health), 200);
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    // Per-tool operational detail: queue depth plus breaker state (the
    // scripted test backends run no breaker, hence null).
    assert!(
        health.contains("\"tools\":[{\"tool\":\"TA\",\"queue_depth\":0,\"breaker\":null}]"),
        "{health}"
    );

    let verdict = post_audit(addr, "/audit/42");
    assert_eq!(status_of(&verdict), 200, "{verdict}");
    assert!(verdict.contains("\"target\":42"));
    assert!(verdict.contains("\"tool\":\"TA\""));
    assert!(verdict.contains("\"source\":\"fresh\""));
    assert!(verdict.contains("\"fake_pct\":20"));
    assert!(verdict.contains("\"counts\":{\"inactive\":1,\"fake\":2,\"genuine\":7,\"total\":10}"));

    // The display form of an account id is accepted too.
    assert_eq!(status_of(&post_audit(addr, "/audit/u42")), 200);

    let metrics = get(addr, "/metrics");
    assert_eq!(status_of(&metrics), 200);
    assert!(
        metrics.contains("server_requests{outcome=\"completed\",tool=\"TA\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("# TYPE server_latency_secs histogram"));
    assert!(metrics.contains("gateway_http_requests"));

    // Unknown routes, bad methods, bad ids, unknown tools: each refusal
    // is one JSON object.
    for (response, status, body) in [
        (get(addr, "/nope"), 404, r#"{"error":"no such route"}"#),
        (
            get(addr, "/audit/42"),
            405,
            r#"{"error":"method not allowed"}"#,
        ),
        (
            post_audit(addr, "/audit/notanumber"),
            400,
            r#"{"error":"bad target id 'notanumber'"}"#,
        ),
        (
            post_audit(addr, "/audit/42?tool=XX"),
            404,
            r#"{"error":"unknown tool 'XX'"}"#,
        ),
    ] {
        assert_eq!(status_of(&response), status, "{response}");
        assert_eq!(body_of(&response), body);
    }

    let report = gateway.shutdown();
    assert_eq!(report.completed(), 2);
    assert_eq!(report.shed(), 0);
}

#[test]
fn metrics_exposition_carries_help_type_and_exemplars() {
    let gateway = boot(
        ServerConfig::default(),
        vec![pool(ToolId::Twitteraudit, 1, Duration::ZERO, &[])],
    );
    let addr = gateway.local_addr();
    assert_eq!(status_of(&post_audit(addr, "/audit/11")), 200);
    let metrics = get(addr, "/metrics");
    assert_eq!(status_of(&metrics), 200);
    // The Prometheus text content-type, version pinned.
    assert!(
        metrics.contains("Content-Type: text/plain; version=0.0.4"),
        "{metrics}"
    );
    // Every family leads with # HELP + # TYPE, histograms included.
    assert!(
        metrics.contains("# HELP gateway_http_requests "),
        "{metrics}"
    );
    assert!(metrics.contains("# TYPE gateway_http_requests counter"));
    assert!(
        metrics.contains("# HELP gateway_request_secs "),
        "{metrics}"
    );
    assert!(metrics.contains("# TYPE gateway_request_secs histogram"));
    assert!(metrics.contains("# TYPE server_latency_secs histogram"));
    // The audit route's duration histogram carries an exemplar linking
    // to the gateway.request span of its worst request.
    assert!(
        metrics.contains("gateway_request_secs_bucket{route=\"audit\""),
        "{metrics}"
    );
    assert!(metrics.contains("trace_id=\"span#"), "{metrics}");
    gateway.shutdown();
}

#[test]
fn debug_profile_returns_folded_stacks() {
    let gateway = boot(
        ServerConfig::default(),
        vec![pool(ToolId::Twitteraudit, 1, Duration::ZERO, &[])],
    );
    let addr = gateway.local_addr();
    assert_eq!(status_of(&post_audit(addr, "/audit/3")), 200);
    let profile = get(addr, "/debug/profile");
    assert_eq!(status_of(&profile), 200);
    // Folded-stack lines: `root;child value`, aggregated self time.
    assert!(
        profile.contains("server.request;server.service "),
        "{profile}"
    );
    assert!(
        profile.contains("server.request;server.queue_wait "),
        "{profile}"
    );
    // Each folded line is `stack <integer-micros>`.
    let body = profile.split("\r\n\r\n").nth(1).expect("body");
    for line in body.lines().filter(|l| !l.is_empty()) {
        let (stack, value) = line.rsplit_once(' ').expect("stack value");
        assert!(!stack.is_empty());
        value.parse::<u64>().expect("integer self-time micros");
    }
    gateway.shutdown();
}

#[test]
fn debug_vars_reports_build_and_lane_state() {
    let gateway = boot(
        ServerConfig::default(),
        vec![pool(ToolId::Twitteraudit, 1, Duration::ZERO, &[])],
    );
    let addr = gateway.local_addr();
    let vars = get(addr, "/debug/vars");
    assert_eq!(status_of(&vars), 200);
    assert!(vars.contains("\"version\":"), "{vars}");
    assert!(vars.contains("\"draining\":false"), "{vars}");
    assert!(vars.contains("\"dropped_trace_events\":0"), "{vars}");
    assert!(
        vars.contains("{\"tool\":\"TA\",\"queue_depth\":0,\"breaker\":null}"),
        "{vars}"
    );
    // Wrong method on a debug path is a 405, like the other known routes.
    assert_eq!(status_of(&post_audit(addr, "/debug/vars")), 405);
    gateway.shutdown();
}

#[test]
fn keep_alive_serves_sequential_requests() {
    let gateway = boot(
        ServerConfig::default(),
        vec![pool(ToolId::Twitteraudit, 1, Duration::ZERO, &[])],
    );
    let addr = gateway.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    for _ in 0..2 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        // Read until this response's body has arrived (both fit easily
        // in one read each; loop for safety).
        let target_bodies = 1;
        let mut bodies = 0;
        while bodies < target_bodies {
            let n = stream.read(&mut tmp).unwrap();
            assert!(n > 0, "server closed a keep-alive connection");
            buf.extend_from_slice(&tmp[..n]);
            bodies = buf
                .windows(b"\"status\":\"ok\"".len())
                .filter(|w| w == b"\"status\":\"ok\"")
                .count();
        }
        buf.clear();
    }
    drop(stream);
    gateway.shutdown();
}

#[test]
fn stream_endpoint_emits_progress_then_verdict() {
    let gateway = boot(
        ServerConfig::default(),
        vec![pool(
            ToolId::Twitteraudit,
            1,
            Duration::from_millis(20),
            &[],
        )],
    );
    let addr = gateway.local_addr();
    let body = get(addr, "/audit/7/stream");
    assert_eq!(status_of(&body), 200);
    assert!(body.contains("Transfer-Encoding: chunked"), "{body}");
    assert!(body.contains("{\"event\":\"queued\""), "{body}");
    assert!(body.contains("{\"event\":\"started\"}"), "{body}");
    assert!(body.contains("{\"event\":\"done\",\"verdict\":{"), "{body}");
    assert!(body.contains("\"target\":7"));
    // Chunked terminator present.
    assert!(body.ends_with("0\r\n\r\n"), "{body:?}");
    gateway.shutdown();
}

#[test]
fn stream_client_that_hangs_up_is_still_counted() {
    // One slow backend: the stream's progress lines go to a client that
    // already closed. The audit must still run to its end, be counted
    // under its terminal status, and hand its backend back.
    let gateway = boot(
        ServerConfig::default(),
        vec![pool(
            ToolId::Twitteraudit,
            1,
            Duration::from_millis(100),
            &[],
        )],
    );
    let addr = gateway.local_addr();
    let telemetry = gateway.telemetry().clone();
    let counted = || {
        telemetry.snapshot().counter(
            "gateway.http_requests",
            &[("route", "audit_stream"), ("status", "200")],
        )
    };
    let mut client = TcpStream::connect(addr).expect("connect");
    client
        .write_all(b"GET /audit/7/stream HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    drop(client);
    let start = std::time::Instant::now();
    while counted().is_none() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the hung-up stream request was never counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(gateway.report().completed(), 1);
    // The backend came home: a following audit is served.
    assert_eq!(status_of(&post_audit(addr, "/audit/8")), 200);
    let report = gateway.shutdown();
    assert_eq!(report.completed(), 2);
    assert_eq!(counted(), Some(1));
}

#[test]
fn overload_sheds_with_503_and_counts_it() {
    // One slow worker, queue of 1, shed policy: concurrent burst must
    // produce both 200s and 503s.
    let gateway = boot(
        ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 1,
            policy: OverloadPolicy::Shed,
            ..ServerConfig::default()
        },
        vec![pool(
            ToolId::Twitteraudit,
            1,
            Duration::from_millis(80),
            &[],
        )],
    );
    let addr = gateway.local_addr();
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || status_of(&post_audit(addr, &format!("/audit/{}", 100 + i))))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 503).count();
    assert_eq!(ok + shed, 8, "unexpected statuses: {statuses:?}");
    assert!(ok >= 1, "at least the first request must complete");
    assert!(shed >= 1, "burst of 8 into capacity 2 must shed");
    let report = gateway.shutdown();
    assert_eq!(report.offered(), 8);
    assert_eq!(report.shed() as usize, shed);
    assert_eq!(report.completed() as usize, ok);
}

#[test]
fn degrade_policy_serves_stale_when_overloaded() {
    let gateway = boot(
        ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 1,
            policy: OverloadPolicy::DegradeStale,
            ..ServerConfig::default()
        },
        vec![pool(
            ToolId::Twitteraudit,
            1,
            Duration::from_millis(80),
            &[7, 8, 9, 10, 11, 12, 13, 14],
        )],
    );
    let addr = gateway.local_addr();
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| scope.spawn(move || post_audit(addr, &format!("/audit/{}", 7 + i))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        bodies.iter().all(|b| status_of(b) == 200),
        "every request must be answered under degrade with warm stale cache"
    );
    let stale = bodies
        .iter()
        .filter(|b| b.contains("\"source\":\"stale\""))
        .count();
    assert!(stale >= 1, "burst must degrade at least one answer");
    let report = gateway.shutdown();
    assert_eq!(report.degraded() as usize, stale);
    assert_eq!(report.shed(), 0);
}

#[test]
fn shutdown_drains_queued_requests() {
    // Slow workers + deep queue: pile up in-flight requests, then shut
    // down while they are queued. Every client must still get its 200 —
    // a clean drain loses nothing.
    let gateway = boot(
        ServerConfig {
            workers_per_tool: 2,
            queue_capacity: 16,
            policy: OverloadPolicy::Shed,
            ..ServerConfig::default()
        },
        vec![pool(
            ToolId::Twitteraudit,
            2,
            Duration::from_millis(40),
            &[],
        )],
    );
    let addr = gateway.local_addr();
    let (statuses, report) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..10)
            .map(|i| scope.spawn(move || status_of(&post_audit(addr, &format!("/audit/{i}")))))
            .collect();
        // Let the burst reach the queues, then drain.
        std::thread::sleep(Duration::from_millis(30));
        let report = gateway.shutdown();
        let statuses: Vec<u16> = clients.into_iter().map(|h| h.join().unwrap()).collect();
        (statuses, report)
    });
    assert!(
        statuses.iter().all(|&s| s == 200),
        "drain must answer every accepted request: {statuses:?}"
    );
    assert_eq!(report.completed(), 10);
    assert_eq!(report.shed(), 0);
    // After shutdown the port refuses (or resets) new connections —
    // nothing is still listening.
    let refused = TcpStream::connect_timeout(
        &addr.to_string().parse().unwrap(),
        Duration::from_millis(200),
    );
    if let Ok(mut s) = refused {
        // Accept race: a dangling backlog connection may connect but
        // must deliver no HTTP response.
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        let mut out = String::new();
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let _ = s.read_to_string(&mut out);
        assert!(!out.contains("\"status\":\"ok\""), "listener still serving");
    }
}

#[test]
fn bind_failure_is_a_clean_error() {
    let occupied = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = occupied.local_addr().unwrap();
    let config = GatewayConfig {
        addr: addr.to_string(),
        ..GatewayConfig::default()
    };
    let result = Gateway::bind(
        config,
        Arc::new(Platform::new()),
        vec![pool(ToolId::Twitteraudit, 1, Duration::ZERO, &[])],
        Arc::new(WallClock::new()),
        Telemetry::disabled(),
    );
    assert!(result.is_err(), "binding an occupied port must fail");
}

#[test]
fn query_surface_over_persisted_audits() {
    let dir = std::env::temp_dir().join(format!("fakeaudit-gw-query-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = GatewayConfig {
        accept_threads: 2,
        persist: Some(dir.clone()),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind(
        config,
        Arc::new(Platform::new()),
        vec![pool(ToolId::Twitteraudit, 2, Duration::ZERO, &[])],
        Arc::new(WallClock::new()),
        Telemetry::enabled(),
    )
    .expect("bind with persist dir");
    let addr = gateway.local_addr();
    for i in 0..5 {
        assert_eq!(
            status_of(&post_audit(addr, &format!("/audit/{}", 40 + i))),
            200
        );
    }

    // /healthz and /debug/vars report live store state.
    let health = get(addr, "/healthz");
    assert!(health.contains("\"store\":{\"segments\":"), "{health}");
    assert!(health.contains("\"buffered_rows\":"), "{health}");
    let vars = get(addr, "/debug/vars");
    assert!(vars.contains("\"store\":{\"segments\":"), "{vars}");

    // Queries read the writer's live view, buffered rows included, so
    // every completed audit is visible — even below the flush threshold.
    let ts = get(addr, "/query/timeseries");
    assert_eq!(status_of(&ts), 200, "{ts}");
    assert!(ts.contains("\"kind\":\"timeseries\""), "{ts}");
    assert!(ts.contains("\"target\":40"), "{ts}");
    let topk = get(addr, "/query/topk?k=3&by=cost");
    assert_eq!(status_of(&topk), 200, "{topk}");
    assert!(topk.contains("\"rank\":1"), "{topk}");

    // Unknown kinds and malformed parameters fail loudly, in JSON: a raw
    // control byte in the kind comes back as a JSON escape.
    let expected = "(expected timeseries|drift|retention|topk)";
    for (response, status, body) in [
        (
            get(addr, "/query/nope"),
            404,
            format!(r#"{{"error":"unknown query kind 'nope' {expected}"}}"#),
        ),
        (
            get(addr, "/query/a\u{1}b"),
            404,
            format!(r#"{{"error":"unknown query kind 'a\u0001b' {expected}"}}"#),
        ),
        (
            get(addr, "/query/timeseries?bucket=0"),
            400,
            r#"{"error":"bad bucket \"0\" (want positive integer seconds)"}"#.to_owned(),
        ),
        (
            get(addr, "/query/timeseries?since=abc"),
            400,
            r#"{"error":"bad since \"abc\" (want integer seconds)"}"#.to_owned(),
        ),
        (
            get(addr, "/query/topk?by=magic"),
            400,
            r#"{"error":"unknown topk key 'magic' (expected ratio|cost)"}"#.to_owned(),
        ),
        (
            post_audit(addr, "/query/timeseries"),
            405,
            r#"{"error":"method not allowed"}"#.to_owned(),
        ),
    ] {
        assert_eq!(status_of(&response), status, "{response}");
        assert_eq!(body_of(&response), body);
    }

    // Queries flush nothing: all six audits sit in the write buffer
    // until shutdown's drain makes them durable.
    assert_eq!(status_of(&post_audit(addr, "/audit/99")), 200);
    let health = get(addr, "/healthz");
    assert!(
        health.contains("\"store\":{\"segments\":0,"),
        "a query must not cut a segment: {health}"
    );
    gateway.shutdown();
    let store = fakeaudit_store::Store::open(&dir).expect("open persisted store");
    assert_eq!(
        store.total_rows(),
        6,
        "shutdown must flush the buffered rows"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn queries_racing_audits_never_break_a_flush() {
    // Queries interleaved with audits from several connections: no
    // query may disturb an append or a flush, and every answered audit
    // must reach the store.
    let dir = std::env::temp_dir().join(format!("fakeaudit-gw-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = GatewayConfig {
        accept_threads: 4,
        persist: Some(dir.clone()),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind(
        config,
        Arc::new(Platform::new()),
        vec![pool(ToolId::Twitteraudit, 2, Duration::ZERO, &[])],
        Arc::new(WallClock::new()),
        Telemetry::enabled(),
    )
    .expect("bind with persist dir");
    let addr = gateway.local_addr();
    let (clients, rounds) = (4u64, 30u64);
    let answered: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut answered = 0;
                    for r in 0..rounds {
                        let audit = post_audit(addr, &format!("/audit/{}", 1_000 + c * rounds + r));
                        assert_eq!(status_of(&audit), 200, "{audit}");
                        answered += 1;
                        let query = get(addr, "/query/timeseries");
                        assert_eq!(status_of(&query), 200, "{query}");
                    }
                    answered
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let snapshot = gateway.telemetry().snapshot();
    assert_eq!(snapshot.counter_total("store.append_errors"), 0);
    assert_eq!(snapshot.counter_total("store.rows_dropped"), 0);
    gateway.shutdown();
    let store = fakeaudit_store::Store::open(&dir).expect("open persisted store");
    assert_eq!(store.total_rows(), answered, "persisted rows = answered");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trickling_client_is_cut_off_and_frees_its_accept_thread() {
    // One accept thread, and a client that sends a byte every 100 ms and
    // never finishes its head: each read succeeds well within the
    // per-read timeout, but the request as a whole must arrive within
    // that timeout. The trickler gets 408; the request queued behind it
    // is served as soon as the thread is free.
    let read_timeout = Duration::from_millis(800);
    let config = GatewayConfig {
        accept_threads: 1,
        read_timeout,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind(
        config,
        Arc::new(Platform::new()),
        vec![pool(ToolId::Twitteraudit, 1, Duration::ZERO, &[])],
        Arc::new(WallClock::new()),
        Telemetry::enabled(),
    )
    .expect("bind ephemeral port");
    let addr = gateway.local_addr();
    let started = std::time::Instant::now();
    let (connected_tx, connected) = std::sync::mpsc::channel();
    let trickler = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        connected_tx.send(()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        // A head that never ends: one more header byte at a time.
        let head = b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Slow: ";
        let mut out = Vec::new();
        let mut tmp = [0u8; 1024];
        for &byte in head.iter().chain(std::iter::repeat(&b'z')).take(100) {
            if stream.write_all(&[byte]).is_err() {
                break;
            }
            // Waiting for the answer doubles as the pause between bytes.
            match stream.read(&mut tmp) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => continue,
                Err(_) => break,
            }
        }
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = stream.read_to_end(&mut out);
        (
            String::from_utf8_lossy(&out).into_owned(),
            started.elapsed(),
        )
    });
    // Queue a normal request behind the trickler: the backlog hands
    // connections to the only accept thread in arrival order.
    connected.recv().unwrap();
    let health = get(addr, "/healthz");
    let served_after = started.elapsed();
    let (trickled, cut_after) = trickler.join().unwrap();
    assert_eq!(status_of(&trickled), 408, "{trickled}");
    assert!(
        cut_after < read_timeout * 3,
        "trickler held on for {cut_after:?}"
    );
    assert_eq!(status_of(&health), 200, "{health}");
    assert!(
        served_after >= read_timeout / 2 && served_after < read_timeout * 3,
        "normal request served after {served_after:?}"
    );
    // A request split across reads is still served when it completes in
    // time.
    let mut split = TcpStream::connect(addr).expect("connect");
    split
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
        .unwrap();
    std::thread::sleep(read_timeout / 4);
    split.write_all(b"Connection: close\r\n\r\n").unwrap();
    let mut out = String::new();
    split.read_to_string(&mut out).expect("read response");
    assert_eq!(status_of(&out), 200, "{out}");
    let snapshot = gateway.telemetry().snapshot();
    assert_eq!(
        snapshot.counter(
            "gateway.http_requests",
            &[("route", "error"), ("status", "408")]
        ),
        Some(1)
    );
    gateway.shutdown();
}

#[test]
fn query_without_persist_is_404() {
    let gateway = boot(
        ServerConfig::default(),
        vec![pool(ToolId::Twitteraudit, 1, Duration::ZERO, &[])],
    );
    let addr = gateway.local_addr();
    let resp = get(addr, "/query/timeseries");
    assert_eq!(status_of(&resp), 404);
    assert!(resp.contains("no history store"), "{resp}");
    let health = get(addr, "/healthz");
    assert!(health.contains("\"store\":null"), "{health}");
    gateway.shutdown();
}

#[test]
fn slo_monitor_fires_on_burst_then_resolves() {
    use fakeaudit_telemetry::{BurnRule, MonitorConfig};
    // Sub-second windows so a shed burst walks the full
    // Pending → Firing → Resolved arc inside the test.
    let slo = MonitorConfig {
        bucket_secs: 0.05,
        availability_objective: 0.99,
        latency_quantile: 0.95,
        latency_objective_secs: 10.0,
        rules: vec![BurnRule::new("fast", 0.5, 2.0, 2.0, 0.1, 0.3)],
        history_capacity: 32,
        history_interval_secs: 0.2,
        sample_keep: 1.0,
        parked_capacity: 1024,
        seed: 7,
    };
    let config = GatewayConfig {
        accept_threads: 4,
        server: ServerConfig {
            workers_per_tool: 1,
            queue_capacity: 1,
            policy: OverloadPolicy::Shed,
            ..ServerConfig::default()
        },
        default_tool: ToolId::Twitteraudit,
        read_timeout: Duration::from_secs(5),
        slo: Some(slo),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind(
        config,
        Arc::new(Platform::new()),
        vec![pool(
            ToolId::Twitteraudit,
            1,
            Duration::from_millis(80),
            &[],
        )],
        Arc::new(WallClock::new()),
        Telemetry::enabled(),
    )
    .expect("bind ephemeral port");
    let addr = gateway.local_addr();

    // Before any monitor-visible traffic the surfaces are wired but
    // quiet: /healthz carries an slo array, /debug/vars a monitor block.
    assert!(get(addr, "/healthz").contains("\"slo\":["));
    assert!(get(addr, "/debug/vars").contains("\"monitor\":{\"alerts_pending\":"));

    // A 5xx burst: 8 concurrent audits into capacity 2 must shed.
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || status_of(&post_audit(addr, &format!("/audit/{}", 300 + i))))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(statuses.contains(&503), "{statuses:?}");

    let poll = |needle: &str, deadline: Duration| -> String {
        let start = std::time::Instant::now();
        loop {
            let body = get(addr, "/alerts");
            if body.contains(needle) {
                return body;
            }
            assert!(
                start.elapsed() < deadline,
                "no {needle:?} within {deadline:?}; last body: {body}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    // The alert must fire on the audit route, then — with the burst
    // over and the windows drained — resolve on its own.
    let firing = poll("\"to\":\"firing\"", Duration::from_secs(10));
    assert!(firing.contains("\"route\":\"audit\""), "{firing}");
    assert!(
        firing.contains("\"exemplar\":\"span#"),
        "firing alert must carry an exemplar: {firing}"
    );
    poll("\"to\":\"resolved\"", Duration::from_secs(15));

    // The exemplar tree is pinned: its span id is still in the buffer.
    let resolved = get(addr, "/alerts");
    let vars = get(addr, "/debug/vars");
    assert!(vars.contains("\"traces_kept\":"), "{vars}");
    let history = get(addr, "/metrics/history");
    assert!(history.contains("\"frames\":[{"), "{history}");
    assert!(history.contains("\"counter_deltas\""), "{history}");
    let report = gateway.shutdown();
    assert!(report.shed() >= 1);
    drop(resolved);
}

#[test]
fn slo_routes_404_without_monitor() {
    let gateway = boot(
        ServerConfig::default(),
        vec![pool(ToolId::Twitteraudit, 1, Duration::ZERO, &[])],
    );
    let addr = gateway.local_addr();
    let alerts = get(addr, "/alerts");
    assert_eq!(status_of(&alerts), 404);
    assert!(alerts.contains("no slo monitor"), "{alerts}");
    assert_eq!(status_of(&get(addr, "/metrics/history")), 404);
    assert!(get(addr, "/healthz").contains("\"slo\":null"));
    assert!(get(addr, "/debug/vars").contains("\"monitor\":null"));
    gateway.shutdown();
}

#[test]
fn breaker_telemetry_flows_through_shared_names() {
    // The gateway records through the same metric vocabulary as the
    // simulator; a served request must show up under server.* names.
    let gateway = boot(
        ServerConfig::default(),
        vec![pool(ToolId::Twitteraudit, 1, Duration::ZERO, &[])],
    );
    let addr = gateway.local_addr();
    assert_eq!(status_of(&post_audit(addr, "/audit/5")), 200);
    let snapshot = gateway.telemetry().snapshot();
    assert_eq!(snapshot.counter_total("server.requests"), 1);
    let report = gateway.shutdown();
    assert_eq!(report.offered(), 1);
    assert!(report.latency_percentile(0.5) >= 0.0);
}
