//! Property tests for admission control and the event loop: the
//! invariants ISSUE 3 pins down — bounded queues stay bounded, per-tool
//! service order is FIFO, and no request is ever lost or double-counted,
//! whatever the policy — plus the live-tracing invariants of ISSUE 4
//! (every offered request is trace-accounted exactly once, and request
//! trees are well-formed) and the SLO-monitor invariants of ISSUE 9:
//! the alert state machine never skips a state, the alert log is a
//! deterministic function of the observation stream, and histogram
//! snapshots merge losslessly.

use fakeaudit_analytics::{ServiceError, ServiceResponse};
use fakeaudit_check::{check, Rng};
use fakeaudit_detectors::{AuditOutcome, ToolId, VerdictCounts};
use fakeaudit_server::{
    Admission, AdmissionQueue, AuditBackend, OverloadPolicy, Request, RequestOutcome, ServerConfig,
    ServerSim,
};
use fakeaudit_telemetry::analyze::names;
use fakeaudit_telemetry::{
    BurnRule, MonitorConfig, SloMonitor, Telemetry, TraceContext, TraceEvent, TraceTree,
    TransitionKind,
};
use fakeaudit_twittersim::{AccountId, Platform, SimTime};

/// A backend with a scripted constant service time; `serve_stale` only
/// knows targets it has already served fresh, so `degrade` can go cold.
struct ScriptedBackend {
    tool: ToolId,
    service_secs: f64,
    known: Vec<AccountId>,
}

impl ScriptedBackend {
    fn response(&self, target: AccountId, cached: bool) -> ServiceResponse {
        ServiceResponse {
            outcome: AuditOutcome {
                tool_name: self.tool.abbrev().into(),
                target,
                assessed: vec![],
                counts: VerdictCounts::default(),
                audited_at: SimTime::EPOCH,
                api_elapsed_secs: self.service_secs,
                api_calls: 1,
            },
            response_secs: self.service_secs,
            served_from_cache: cached,
            assessed_at: SimTime::EPOCH,
        }
    }
}

impl AuditBackend for ScriptedBackend {
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
        self.known.push(target);
        Ok(self.response(target, false))
    }

    fn serve_stale(&self, target: AccountId) -> Option<ServiceResponse> {
        self.known
            .contains(&target)
            .then(|| self.response(target, true))
    }
}

/// Cases per property.
const CASES: u64 = 256;

fn policy(rng: &mut Rng) -> OverloadPolicy {
    rng.pick(&[
        OverloadPolicy::Block,
        OverloadPolicy::Shed,
        OverloadPolicy::DegradeStale,
    ])
}

/// Up to 79 `(inter-arrival, tool, target)` draws become a trace with
/// strictly increasing arrival times.
fn trace(rng: &mut Rng) -> Vec<Request> {
    let mut now = 0.0;
    let steps = rng.range(0..80usize);
    (0..steps)
        .map(|i| {
            now += rng.range(0.001..3.0);
            Request {
                id: i as u64,
                at: now,
                tool: ToolId::ALL[rng.range(0..4usize)],
                target: AccountId(rng.range(0..5u64)),
            }
        })
        .collect()
}

/// A run of the event loop: a trace and the server shape it meets.
#[derive(Debug)]
struct Run {
    trace: Vec<Request>,
    policy: OverloadPolicy,
    workers: usize,
    capacity: usize,
    service_secs: f64,
}

fn run(rng: &mut Rng) -> Run {
    Run {
        trace: trace(rng),
        policy: policy(rng),
        workers: rng.range(1..3),
        capacity: rng.range(1..5),
        service_secs: rng.range(0.25..4.0),
    }
}

fn run_trace(
    trace: &[Request],
    policy: OverloadPolicy,
    workers: usize,
    capacity: usize,
    service_secs: f64,
) -> fakeaudit_server::ServerReport {
    run_traced(trace, policy, workers, capacity, service_secs).0
}

/// Like [`run_trace`] but with live tracing enabled, returning the trace
/// alongside the report.
fn run_traced(
    trace: &[Request],
    policy: OverloadPolicy,
    workers: usize,
    capacity: usize,
    service_secs: f64,
) -> (fakeaudit_server::ServerReport, Vec<TraceEvent>) {
    let platform = Platform::new();
    let telemetry = Telemetry::enabled();
    let mut sim = ServerSim::with_telemetry(
        &platform,
        ServerConfig {
            workers_per_tool: workers,
            queue_capacity: capacity,
            policy,
            degraded_secs: 0.25,
            deadline_secs: None,
        },
        telemetry.clone(),
    );
    for tool in ToolId::ALL {
        sim.register(Box::new(ScriptedBackend {
            tool,
            service_secs,
            known: Vec::new(),
        }));
    }
    let report = sim.run(trace);
    (report, telemetry.events())
}

/// A tight monitor config for property runs: 1 s buckets, two burn
/// rules with different dwell geometry so rule interleavings are
/// exercised, both signals live.
fn monitor_config(seed: u64) -> MonitorConfig {
    MonitorConfig {
        bucket_secs: 1.0,
        availability_objective: 0.99,
        latency_quantile: 0.95,
        latency_objective_secs: 1.0,
        rules: vec![
            BurnRule::new("fast", 3.0, 9.0, 2.0, 2.0, 3.0),
            BurnRule::new("slow", 6.0, 18.0, 1.5, 4.0, 6.0),
        ],
        history_capacity: 8,
        history_interval_secs: 16.0,
        sample_keep: 0.5,
        parked_capacity: 64,
        seed,
    }
}

/// Replays `stream` (one request per second; `(ok, slow)` per request)
/// through a fresh monitor, ticking every bucket and draining past the
/// end so every raised alert can resolve.
fn run_monitor(seed: u64, stream: &[(bool, bool)]) -> SloMonitor {
    let config = monitor_config(seed);
    let monitor = SloMonitor::new(config, Telemetry::enabled());
    let mut next_tick = 1.0f64;
    for (i, &(ok, slow)) in stream.iter().enumerate() {
        let t = i as f64 + 0.5;
        while next_tick <= t {
            monitor.tick(next_tick);
            next_tick += 1.0;
        }
        let latency = if slow { 2.0 } else { 0.1 };
        monitor.observe_request("R", t, Some(latency), ok, None);
    }
    let drain = stream.len() as f64 + 18.0 + 4.0 + 6.0 + 1.0;
    while next_tick <= drain {
        monitor.tick(next_tick);
        next_tick += 1.0;
    }
    monitor
}

/// The bounded queue never holds more than `capacity` items, no
/// matter how offers and pops interleave; only `block` may park the
/// overflow elsewhere.
#[test]
fn admission_queue_never_exceeds_capacity() {
    check(
        "admission_queue_never_exceeds_capacity",
        CASES,
        |rng| {
            (
                rng.range(1..8usize),
                policy(rng),
                rng.vec(0..200, |rng| rng.coin()),
            )
        },
        |(capacity, policy, ops)| {
            let (capacity, policy) = (*capacity, *policy);
            let mut queue = AdmissionQueue::new(capacity, policy);
            let mut next = 0u64;
            for &is_offer in ops {
                if is_offer {
                    let admission = queue.offer(next);
                    next += 1;
                    if policy != OverloadPolicy::Block {
                        assert_ne!(admission, Admission::Blocked);
                    }
                } else {
                    queue.pop();
                }
                assert!(queue.len() <= capacity);
                if policy != OverloadPolicy::Block {
                    assert_eq!(queue.blocked(), 0);
                }
            }
            assert!(queue.max_depth() <= capacity);
        },
    );
}

/// The queue (including block-policy promotion from the overflow
/// lane) hands items back in exactly the order they were offered.
#[test]
fn admission_queue_preserves_fifo() {
    check(
        "admission_queue_preserves_fifo",
        CASES,
        |rng| {
            (
                rng.range(1..6usize),
                policy(rng),
                rng.vec(0..200, |rng| rng.coin()),
            )
        },
        |(capacity, policy, ops)| {
            let mut queue = AdmissionQueue::new(*capacity, *policy);
            let mut next = 0u64;
            let mut last_popped = None;
            for &is_offer in ops {
                if is_offer {
                    queue.offer(next);
                    next += 1;
                } else if let Some(item) = queue.pop() {
                    if let Some(prev) = last_popped {
                        assert!(item > prev, "popped {item} after {prev}");
                    }
                    last_popped = Some(item);
                }
            }
        },
    );
}

/// Worker-served requests start in arrival order within each tool —
/// FIFO survives the event loop, not just the queue.
#[test]
fn per_tool_service_order_is_fifo() {
    check("per_tool_service_order_is_fifo", CASES, run, |r| {
        let report = run_trace(&r.trace, r.policy, r.workers, r.capacity, r.service_secs);
        for tool in ToolId::ALL {
            let mut last_start = f64::NEG_INFINITY;
            let mut last_arrival = f64::NEG_INFINITY;
            for rec in report
                .records
                .iter()
                .filter(|r| r.tool == tool && matches!(r.outcome, RequestOutcome::Completed { .. }))
            {
                let started = rec.started.expect("completed requests started");
                assert!(rec.arrived > last_arrival, "records must keep trace order");
                assert!(
                    started >= last_start,
                    "{:?} started {started} before predecessor {last_start}",
                    tool
                );
                assert!(started >= rec.arrived);
                last_start = started;
                last_arrival = rec.arrived;
            }
        }
    });
}

/// Nothing is lost: every offered request is accounted for exactly
/// once, under every policy — and each policy's signature holds
/// (block never sheds, scripted backends never fail).
#[test]
fn offered_requests_are_conserved() {
    check("offered_requests_are_conserved", CASES, run, |r| {
        let report = run_trace(&r.trace, r.policy, r.workers, r.capacity, r.service_secs);
        assert_eq!(report.offered(), r.trace.len() as u64);
        assert_eq!(report.records.len(), r.trace.len());
        assert_eq!(
            report.completed() + report.degraded() + report.shed() + report.failed(),
            report.offered()
        );
        assert_eq!(report.failed(), 0);
        for t in &report.per_tool {
            assert_eq!(t.completed + t.degraded + t.shed + t.failed, t.offered);
            assert!(t.max_queue_depth <= r.capacity);
        }
        match r.policy {
            OverloadPolicy::Block => {
                assert_eq!(report.shed(), 0);
                assert_eq!(report.completed(), report.offered());
            }
            OverloadPolicy::Shed => assert_eq!(report.degraded(), 0),
            OverloadPolicy::DegradeStale => {}
        }
    });
}

/// Live tracing accounts for every offered request exactly once:
/// answered requests become `server.request` spans, refusals become
/// `server.shed` / `server.failed` points.
#[test]
fn offered_requests_match_trace_accounting() {
    check("offered_requests_match_trace_accounting", CASES, run, |r| {
        let (report, events) =
            run_traced(&r.trace, r.policy, r.workers, r.capacity, r.service_secs);
        let spans = events
            .iter()
            .filter(|e| e.name == names::SERVER_REQUEST)
            .count() as u64;
        let shed = events
            .iter()
            .filter(|e| e.name == names::SERVER_SHED)
            .count() as u64;
        let failed = events
            .iter()
            .filter(|e| e.name == names::SERVER_FAILED)
            .count() as u64;
        assert_eq!(spans, report.completed() + report.degraded());
        assert_eq!(shed, report.shed());
        assert_eq!(failed, report.failed());
        assert_eq!(spans + shed + failed, report.offered());
    });
}

/// Request trees are well formed: every recorded parent id resolves,
/// every tree root is a whole-request span, no point floats without
/// its parent, and child intervals nest within their parent's.
#[test]
fn trace_trees_are_well_formed() {
    check("trace_trees_are_well_formed", CASES, run, |r| {
        let (_, events) = run_traced(&r.trace, r.policy, r.workers, r.capacity, r.service_secs);
        let tree = TraceTree::build(&events);
        for e in &events {
            if let Some(p) = e.parent {
                assert!(
                    tree.span(p).is_some(),
                    "parent {:?} of {} missing",
                    p,
                    e.name
                );
            }
        }
        assert!(tree.floating().is_empty());
        for &root in tree.roots() {
            assert_eq!(tree.event(root).name.as_str(), names::SERVER_REQUEST);
            for i in tree.descendants(root) {
                let e = tree.event(i);
                let Some(pid) = e.parent else { continue };
                let parent = tree.span(pid).expect("parent resolves");
                assert!(
                    e.t0 >= parent.t0 - 1e-9 && e.t1 <= parent.t1 + 1e-9,
                    "{} [{}, {}] escapes parent {} [{}, {}]",
                    e.name,
                    e.t0,
                    e.t1,
                    parent.name,
                    parent.t0,
                    parent.t1
                );
            }
        }
    });
}

/// Whatever the observation stream, every alert machine walks
/// `pending → firing → resolved` without skipping a state: the
/// per-(rule, signal) transition sequence starts at `pending`,
/// `firing` only follows `pending`, and a new `pending` only follows
/// `resolved` — and after the drain no alert is left open.
#[test]
fn alert_machine_never_skips_states() {
    check(
        "alert_machine_never_skips_states",
        CASES,
        |rng| {
            (
                rng.next_u64(),
                rng.vec(1..120, |rng| (rng.coin(), rng.coin())),
            )
        },
        |(seed, stream)| {
            let monitor = run_monitor(*seed, stream);
            let log = monitor.transitions();
            let mut machines: std::collections::BTreeMap<String, Option<TransitionKind>> =
                std::collections::BTreeMap::new();
            let mut last_at = f64::NEG_INFINITY;
            for t in &log {
                assert!(t.at_secs >= last_at, "log must be time-ordered");
                last_at = t.at_secs;
                let key = format!("{}/{}/{}", t.route, t.rule, t.signal);
                let prev = machines.entry(key.clone()).or_default();
                let legal = matches!(
                    (*prev, t.to),
                    (
                        None | Some(TransitionKind::Resolved),
                        TransitionKind::Pending
                    ) | (Some(TransitionKind::Pending), TransitionKind::Firing)
                        | (
                            Some(TransitionKind::Pending) | Some(TransitionKind::Firing),
                            TransitionKind::Resolved,
                        )
                );
                assert!(legal, "{key}: {:?} -> {:?}", prev, t.to);
                *prev = Some(t.to);
            }
            for (key, last) in &machines {
                assert!(
                    matches!(last, Some(TransitionKind::Resolved)),
                    "{key} left open after drain: {last:?}"
                );
            }
            let counts = monitor.counts();
            assert_eq!(counts.active_firing, 0);
            assert_eq!(counts.active_pending, 0);
            assert_eq!(counts.pending, counts.resolved);
            assert!(counts.firing <= counts.pending);
        },
    );
}

/// The alert log is a pure function of (seed, observation stream):
/// two replays render byte-identical logs and identical counters.
#[test]
fn alert_log_is_deterministic() {
    check(
        "alert_log_is_deterministic",
        CASES,
        |rng| {
            (
                rng.next_u64(),
                rng.vec(1..80, |rng| (rng.coin(), rng.coin())),
            )
        },
        |(seed, stream)| {
            let a = run_monitor(*seed, stream);
            let b = run_monitor(*seed, stream);
            assert_eq!(a.render_alert_log(), b.render_alert_log());
            assert_eq!(a.counts(), b.counts());
            assert_eq!(a.alerts_json(), b.alerts_json());
        },
    );
}

/// Merging histogram snapshots whose observations landed in disjoint
/// bucket ranges is lossless: counts and sums add, min/max span both
/// sides, and every merged bucket carries exactly the side that
/// populated it.
#[test]
fn histogram_merge_is_lossless_on_disjoint_buckets() {
    check(
        "histogram_merge_is_lossless_on_disjoint_buckets",
        CASES,
        |rng| {
            (
                rng.vec(1..40, |rng| rng.range(0.0015..0.009)),
                rng.vec(1..40, |rng| rng.range(15.0..55.0)),
            )
        },
        |(lows, highs)| {
            let t_low = Telemetry::enabled();
            let t_high = Telemetry::enabled();
            for &v in lows {
                t_low.observe("m", &[], v);
            }
            for &v in highs {
                t_high.observe("m", &[], v);
            }
            let a = t_low
                .snapshot()
                .histogram("m", &[])
                .expect("low histogram")
                .clone();
            let b = t_high
                .snapshot()
                .histogram("m", &[])
                .expect("high histogram")
                .clone();
            let mut merged = a.clone();
            merged.merge(&b);

            assert_eq!(merged.count, a.count + b.count);
            assert!((merged.sum - (a.sum + b.sum)).abs() < 1e-9);
            assert_eq!(merged.min, a.min);
            assert_eq!(merged.max, b.max);
            assert_eq!(merged.buckets.len(), a.buckets.len());
            for (i, &(bound, count)) in merged.buckets.iter().enumerate() {
                assert_eq!(bound, a.buckets[i].0);
                assert_eq!(count, a.buckets[i].1 + b.buckets[i].1);
                // Disjoint ranges: no bucket is populated by both sides.
                assert!(a.buckets[i].1 == 0 || b.buckets[i].1 == 0);
            }
            // The merged quantiles stay inside the observed range and
            // straddle the gap: the median of a lopsided merge lands on the
            // heavier side's bucket.
            let q50 = merged.quantile(0.5);
            assert!(q50 >= merged.min && q50 <= merged.max);
        },
    );
}
