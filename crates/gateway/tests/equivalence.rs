//! The gateway's dispatcher and the simulator keep the same books.
//!
//! One arrival script from `server::workload::generate` runs through
//! [`ServerSim`] and through [`Dispatcher`] on a [`ManualClock`], with one
//! scripted backend per tool. Each target has a fixed service time and a
//! fixed cache flag, some targets' audits fail, and a stale reader knows
//! a fixed third of the targets. A stale answer takes no clock time under
//! `ManualClock`, so the simulator runs with `degraded_secs = 0`.
//!
//! The dispatcher is driven as an event loop. The next event is the next
//! arrival or the earliest finish of an audit in service. The loop sets
//! the clock, lets the event happen (it starts the arrival's caller, or
//! releases the finishing audit), then waits until every caller it
//! started is in service, parked or answered. Ties go in the order the
//! simulator's heap uses: arrivals first, then finishes in the order
//! their service started.
//!
//! Both sides must then hold, request by request, the same record; per
//! tool, the same summary; the same `server.requests` counters, store
//! rows and `server.*` trace events. A dispatcher that strands a caller
//! fails the test when it does not settle in time, instead of hanging it.

use fakeaudit_analytics::quota::QuotaExceeded;
use fakeaudit_analytics::{ServiceError, ServiceResponse};
use fakeaudit_detectors::{AuditOutcome, ToolId, VerdictCounts};
use fakeaudit_gateway::{BoxedBackend, Dispatcher, JobEvent, ToolPool};
use fakeaudit_server::{
    generate, writer_view, ArrivalProcess, AuditBackend, LoadSpec, OverloadPolicy, Request,
    RequestRecord, ServerConfig, ServerReport, ServerSim, ToolSummary,
};
use fakeaudit_store::{FsyncPolicy, MemIo, Projection, ScanOptions, SharedWriter, StoreWriter};
use fakeaudit_telemetry::{Clock, ManualClock, Telemetry, TraceContext};
use fakeaudit_twittersim::{AccountId, Platform, SimTime};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

const TOOLS: [ToolId; 4] = ToolId::ALL;

/// How long the dispatcher may take to settle after one event.
const SETTLE: Duration = Duration::from_secs(20);

fn tool_index(tool: ToolId) -> usize {
    TOOLS
        .iter()
        .position(|&t| t == tool)
        .expect("a scripted tool")
}

/// The scripted audit of `target`: every seventh target fails, the rest
/// take a fixed 0.3–1.15 s and come from the cache one time in four.
fn audit(tool: ToolId, target: AccountId) -> Result<ServiceResponse, ServiceError> {
    if target.0 % 7 == 3 {
        return Err(ServiceError::Quota(QuotaExceeded { limit: 0, day: 0 }));
    }
    let secs = 0.3 + 0.17 * (target.0 % 6) as f64;
    Ok(response(tool, target, secs, target.0 % 4 == 1))
}

fn response(tool: ToolId, target: AccountId, secs: f64, cached: bool) -> ServiceResponse {
    let t = target.0;
    ServiceResponse {
        outcome: AuditOutcome {
            tool_name: tool.abbrev().into(),
            target,
            assessed: vec![],
            counts: VerdictCounts {
                inactive: t % 5,
                fake: t % 11,
                genuine: 20,
            },
            audited_at: SimTime::EPOCH,
            api_elapsed_secs: secs,
            api_calls: 1 + t % 3,
        },
        response_secs: secs,
        served_from_cache: cached,
        assessed_at: SimTime::EPOCH,
    }
}

/// Where one of the dispatcher's callers is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Started by the loop; has not reached admission yet.
    Submitted,
    /// Took an idle backend at once; has not started serving yet.
    Admitted,
    /// In the lane's queue, or granted a backend and not yet awake.
    Parked,
    /// Serving: inside its backend, or on the way in or out.
    Started,
    /// `submit` returned.
    Answered,
}

/// An audit a gated backend is serving.
#[derive(Debug, Clone, Copy)]
struct Audit {
    finish: f64,
    /// The order service started in: the tie-break between finishes.
    start_seq: u64,
    released: bool,
}

#[derive(Debug, Default)]
struct State {
    /// By request id: the caller's tool index and phase.
    callers: Vec<(usize, Phase)>,
    /// By tool index: the audit its one backend is serving.
    serving: [Option<Audit>; TOOLS.len()],
    starts: u64,
}

impl State {
    /// Every caller is parked, in service or answered, and no backend is
    /// on its way from one caller to the next.
    fn settled(&self) -> bool {
        (0..TOOLS.len()).all(|i| {
            let busy = self.serving[i].is_some_and(|a| !a.released);
            let (mut started, mut parked) = (0, 0);
            for &(_, phase) in self.callers.iter().filter(|(tool, _)| *tool == i) {
                match phase {
                    Phase::Submitted | Phase::Admitted => return false,
                    Phase::Parked => parked += 1,
                    Phase::Started => started += 1,
                    Phase::Answered => {}
                }
            }
            started == usize::from(busy) && (parked == 0 || busy)
        })
    }

    fn parked(&self) -> usize {
        self.callers
            .iter()
            .filter(|(_, phase)| *phase == Phase::Parked)
            .count()
    }
}

/// Shared by the event loop, the callers and the gated backends.
#[derive(Default)]
struct Harness {
    state: Mutex<State>,
    changed: Condvar,
}

impl Harness {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("a caller panicked")
    }

    fn set(&self, id: u64, phase: Phase) {
        self.lock().callers[id as usize].1 = phase;
        self.changed.notify_all();
    }

    /// Waits until the dispatcher has settled, or fails.
    fn settle(&self) -> MutexGuard<'_, State> {
        let (st, wait) = self
            .changed
            .wait_timeout_while(self.lock(), SETTLE, |st| !st.settled())
            .expect("a caller panicked");
        assert!(!wait.timed_out(), "the dispatcher never settled: {st:?}");
        st
    }
}

/// One tool's scripted backend. With a harness it holds each audit until
/// the event loop releases it at its finish time; without one (the
/// simulator's backends and the stale reader) it answers at once.
struct Scripted {
    tool: ToolId,
    harness: Option<Arc<Harness>>,
}

impl AuditBackend for Scripted {
    fn tool(&self) -> ToolId {
        self.tool
    }

    fn serve(
        &mut self,
        _platform: &Platform,
        target: AccountId,
        _ctx: &TraceContext,
        now_secs: f64,
    ) -> Result<ServiceResponse, ServiceError> {
        let result = audit(self.tool, target);
        if let (Some(h), Ok(resp)) = (&self.harness, &result) {
            let i = tool_index(self.tool);
            let mut st = h.lock();
            assert!(st.serving[i].is_none(), "{:?} serves two audits", self.tool);
            st.serving[i] = Some(Audit {
                finish: now_secs + resp.response_secs,
                start_seq: st.starts,
                released: false,
            });
            st.starts += 1;
            h.changed.notify_all();
            let mut st = h
                .changed
                .wait_while(st, |st| !st.serving[i].is_some_and(|a| a.released))
                .expect("the event loop panicked");
            st.serving[i] = None;
            h.changed.notify_all();
        }
        result
    }

    fn serve_stale(&self, target: AccountId) -> Option<ServiceResponse> {
        target
            .0
            .is_multiple_of(3)
            .then(|| response(self.tool, target, 0.0, true))
    }
}

/// What one side's run left behind.
struct Side {
    report: ServerReport,
    /// `server.requests{tool,outcome}`, in key order.
    requests: Vec<(Vec<(String, String)>, u64)>,
    /// Store rows, sorted by trace id.
    rows: Vec<String>,
    /// Every trace event with its parent's name, sorted: all `server.*`,
    /// since the scripted backends trace nothing.
    events: Vec<String>,
}

fn store() -> SharedWriter {
    let io = Arc::new(MemIo::new());
    let writer = StoreWriter::open_with(io, "/store", 64, FsyncPolicy::default());
    Arc::new(Mutex::new(writer.expect("an in-memory store opens")))
}

fn side(report: ServerReport, telemetry: &Telemetry, writer: &SharedWriter) -> Side {
    let requests = telemetry
        .snapshot()
        .counters
        .into_iter()
        .filter(|(key, _)| key.name == "server.requests")
        .map(|(key, n)| (key.labels, n))
        .collect();
    let store = writer_view(writer).into_store();
    let scan = store
        .scan(&ScanOptions {
            projection: Projection::all(),
            ..ScanOptions::default()
        })
        .expect("an in-memory store scans");
    let mut rows = scan.rows;
    rows.sort_by_key(|row| row.trace_id);
    let rows = rows.iter().map(|row| format!("{row:?}")).collect();
    let trace = telemetry.events();
    let names: BTreeMap<_, _> = trace
        .iter()
        .filter_map(|e| Some((e.id?, e.name.as_str())))
        .collect();
    let mut events: Vec<String> = trace
        .iter()
        .map(|e| {
            let parent = e.parent.and_then(|p| names.get(&p).copied());
            format!(
                "{} {} {:?} {:?} {:?} in {parent:?}",
                e.kind, e.name, e.t0, e.t1, e.attrs
            )
        })
        .collect();
    events.sort();
    Side {
        report,
        requests,
        rows,
        events,
    }
}

fn simulate(config: ServerConfig, script: &[Request]) -> Side {
    let platform = Platform::new();
    let telemetry = Telemetry::enabled();
    let writer = store();
    let mut sim = ServerSim::with_telemetry(&platform, config, telemetry.clone());
    for tool in TOOLS {
        sim.register(Box::new(Scripted {
            tool,
            harness: None,
        }));
    }
    sim.persist_into(Arc::clone(&writer));
    let report = sim.run(script);
    side(report, &telemetry, &writer)
}

/// Starts the caller of `req` on a thread of its own. The thread is
/// joined only once every caller has answered: a caller the dispatcher
/// strands must fail the test, not hang it.
fn spawn_caller(d: &Arc<Dispatcher>, h: &Arc<Harness>, req: Request) -> JoinHandle<()> {
    let (d, h) = (Arc::clone(d), Arc::clone(h));
    thread::spawn(move || {
        let _ = d.submit(req.tool, req.target, |event| {
            let phase = match event {
                JobEvent::Queued { depth: 0 } => Phase::Admitted,
                JobEvent::Queued { .. } => Phase::Parked,
                JobEvent::Started => Phase::Started,
            };
            h.set(req.id, phase);
        });
        h.set(req.id, Phase::Answered);
    })
}

/// Runs `script` through the dispatcher one event at a time; returns its
/// books and the most callers that were parked at once.
fn dispatch(config: ServerConfig, script: &[Request]) -> (Side, usize) {
    let telemetry = Telemetry::enabled();
    let writer = store();
    let harness = Arc::new(Harness::default());
    let clock = Arc::new(ManualClock::new(0.0));
    let pools = TOOLS
        .iter()
        .map(|&tool| {
            let backend = |harness| -> BoxedBackend { Box::new(Scripted { tool, harness }) };
            ToolPool {
                tool,
                workers: vec![backend(Some(Arc::clone(&harness)))],
                stale: backend(None),
            }
        })
        .collect();
    let d = Arc::new(Dispatcher::start_with_persist(
        Arc::new(Platform::new()),
        pools,
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
        telemetry.clone(),
        Some(Arc::clone(&writer)),
    ));
    let mut arrivals = script.iter().peekable();
    let mut callers = Vec::new();
    let mut most_parked = 0;
    loop {
        let mut st = harness.settle();
        most_parked = most_parked.max(st.parked());
        let finish = (0..TOOLS.len())
            .filter_map(|i| {
                let audit = st.serving[i].filter(|a| !a.released)?;
                Some((audit.finish, audit.start_seq, i))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Arrivals go before finishes at the same time.
        let arrival = arrivals
            .peek()
            .filter(|req| finish.is_none_or(|(t, ..)| req.at <= t));
        match (arrival, finish) {
            (Some(&&req), _) => {
                assert_eq!(st.callers.len() as u64, req.id, "ids follow arrival order");
                clock.set(req.at);
                st.callers.push((tool_index(req.tool), Phase::Submitted));
                drop(st);
                callers.push(spawn_caller(&d, &harness, req));
                arrivals.next();
            }
            (None, Some((t, _, i))) => {
                clock.set(t);
                st.serving[i].as_mut().expect("in service").released = true;
                harness.changed.notify_all();
            }
            (None, None) => break,
        }
    }
    for caller in callers {
        caller.join().expect("a caller panicked");
    }
    (side(d.report(), &telemetry, &writer), most_parked)
}

fn summary(report: &ServerReport, tool: ToolId) -> ToolSummary {
    report
        .per_tool
        .iter()
        .find(|s| s.tool == Some(tool))
        .copied()
        .unwrap_or(ToolSummary {
            tool: Some(tool),
            ..ToolSummary::default()
        })
}

fn sorted(report: &ServerReport) -> Vec<RequestRecord> {
    let mut records = report.records.clone();
    records.sort_by_key(|r| r.id);
    records
}

fn assert_twins(label: &str, sim: &Side, gateway: &Side) {
    let (s, g) = (sorted(&sim.report), sorted(&gateway.report));
    assert_eq!(s.len(), g.len(), "{label}: record counts");
    for (s, g) in s.iter().zip(&g) {
        assert_eq!(s, g, "{label}: request {} differs", s.id);
    }
    for tool in TOOLS {
        let (s, g) = (summary(&sim.report, tool), summary(&gateway.report, tool));
        assert!(
            (s.busy_secs - g.busy_secs).abs() < 1e-9,
            "{label}: {tool:?} busy {} vs {}",
            s.busy_secs,
            g.busy_secs
        );
        let exact = |t: ToolSummary| ToolSummary {
            busy_secs: 0.0,
            ..t
        };
        assert_eq!(exact(s), exact(g), "{label}: {tool:?} summary");
    }
    for (name, side) in [("simulator", sim), ("gateway", gateway)] {
        let r = &side.report;
        let ended = r.completed() + r.degraded() + r.shed() + r.expired() + r.failed();
        assert_eq!(ended, r.offered(), "{label}: {name} loses requests");
    }
    assert_eq!(sim.requests, gateway.requests, "{label}: server.requests");
    assert_eq!(sim.rows, gateway.rows, "{label}: store rows");
    assert_eq!(sim.events, gateway.events, "{label}: trace events");
}

#[test]
fn the_dispatcher_keeps_the_simulators_books() {
    let targets: Vec<AccountId> = (0..40).map(AccountId).collect();
    let spec = LoadSpec {
        process: ArrivalProcess::FlashCrowd {
            base_rate: 2.0,
            burst_start: 20.0,
            burst_secs: 15.0,
            burst_rate: 10.0,
        },
        duration_secs: 100.0,
        zipf_exponent: 1.1,
        tools: TOOLS.to_vec(),
    };
    let script = generate(&spec, &targets, 27);
    assert!(script.len() >= 200, "{} requests", script.len());
    let config = ServerConfig {
        workers_per_tool: 1,
        queue_capacity: 4,
        policy: OverloadPolicy::Block,
        degraded_secs: 0.0,
        deadline_secs: None,
    };
    let runs = [
        ("block", config),
        (
            "shed",
            ServerConfig {
                policy: OverloadPolicy::Shed,
                ..config
            },
        ),
        (
            "degrade",
            ServerConfig {
                policy: OverloadPolicy::DegradeStale,
                ..config
            },
        ),
        (
            "block with a deadline",
            ServerConfig {
                deadline_secs: Some(1.5),
                ..config
            },
        ),
    ];
    for (label, config) in runs {
        let sim = simulate(config, &script);
        let (gateway, most_parked) = dispatch(config, &script);
        assert_twins(label, &sim, &gateway);
        let r = &sim.report;
        println!(
            "{label}: {} requests, {} completed, {} degraded, {} shed, {} expired, \
             {} failed, {most_parked} parked at most",
            r.offered(),
            r.completed(),
            r.degraded(),
            r.shed(),
            r.expired(),
            r.failed()
        );
        // Each run reaches the paths it is meant to compare.
        assert!(r.failed() > 0 && r.completed() > 0, "{label}");
        assert!(r.per_tool.iter().any(|t| t.max_queue_depth > 1), "{label}");
        assert!(most_parked < 100, "{label}: {most_parked} callers parked");
        match (config.policy, config.deadline_secs) {
            (OverloadPolicy::Shed, _) => assert!(r.shed() > 0, "{label}"),
            (OverloadPolicy::DegradeStale, _) => {
                assert!(r.degraded() > 0 && r.shed() > 0, "{label}")
            }
            (OverloadPolicy::Block, Some(_)) => assert!(r.expired() > 0, "{label}"),
            (OverloadPolicy::Block, None) => {
                assert!(r.per_tool.iter().any(|t| t.max_blocked > 0), "{label}")
            }
        }
    }
}
