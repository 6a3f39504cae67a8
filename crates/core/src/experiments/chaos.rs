//! E10 — the audit service under an unreliable API (extension).
//!
//! Every earlier driver assumes the platform API answers; the paper's
//! §IV-C response-time bands were measured against vendors who clearly
//! could not always count on that. This driver asks the production
//! question: *when the upstream API starts failing, what does each
//! resilience layer buy?* It sweeps an injected per-call fault rate
//! against three service arms — no retries, capped-backoff retries, and
//! retries behind a per-tool circuit breaker that degrades to the last
//! cached report — and reports goodput (answered ÷ offered), tail
//! latency, the stale-served fraction and how long the circuit spent
//! open.
//!
//! Construction: every target is prewarmed once (so a stale answer
//! always exists) and the caches run with a **zero TTL** — entries are
//! stored but never fresh, forcing one cold audit per request so each
//! request is fully exposed to the injected faults. Only the two
//! profile-only tools (StatusPeople, Twitteraudit) are driven: their
//! per-audit call counts are fixed by the sample frame alone, so the
//! fault/failure pattern is a pure function of the seeded fault stream.
//! Arrivals are an arithmetic round-robin trace — no randomness — and
//! the three arms at a given fault rate clone the same prewarmed
//! services, so they face the same upstream fault sequence.
//!
//! Determinism: same seed ⇒ byte-identical tables, same argument as E8
//! (single-threaded event loop per cell, scoped-thread fan-out collected
//! in grid order).

use fakeaudit_analytics::{BreakerConfig, OnlineService, ServiceProfile};
use fakeaudit_detectors::engine::FollowerAuditor;
use fakeaudit_detectors::{StatusPeople, ToolId, Twitteraudit};
use fakeaudit_server::{OverloadPolicy, Request, ServerConfig, ServerSim};
use fakeaudit_stats::rng::derive_seed;
use fakeaudit_store::SharedWriter;
use fakeaudit_telemetry::Telemetry;
use fakeaudit_twitter_api::fault::{FaultPlan, RetryPolicy};
use fakeaudit_twittersim::AccountId;
use std::fmt::Write as _;

use super::service_load::build_targets;
use super::Scale;

/// One `(arm, fault rate)` cell of the chaos sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Resilience arm label (`no-retry` / `retry` / `retry+breaker`).
    pub arm: String,
    /// Injected per-call fault rate (before burst correlation).
    pub fault_rate: f64,
    /// Requests that arrived within the window.
    pub offered: u64,
    /// Requests answered by a worker (fresh audit or breaker-stale).
    pub completed: u64,
    /// Requests answered from stale cache by the breaker while open.
    pub stale_served: u64,
    /// Requests whose audit failed (retry budget exhausted).
    pub failed: u64,
    /// Requests dropped at the deadline (the client hung up).
    pub expired: u64,
    /// Requests refused at admission.
    pub shed: u64,
    /// Answered requests ÷ offered requests.
    pub goodput: f64,
    /// Median end-to-end latency (simulated seconds).
    pub p50: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Total API retry attempts across the cell.
    pub retries: u64,
    /// Injected faults ÷ API call attempts actually observed.
    pub observed_fault_rate: f64,
    /// Total simulated seconds the circuit spent open (both tools).
    pub breaker_open_secs: f64,
    /// Times the circuit tripped closed → open.
    pub breaker_trips: u64,
}

/// Outcome of the chaos sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosResult {
    /// Rows grouped by arm, then ascending fault rate.
    pub rows: Vec<ChaosRow>,
    /// The swept per-call fault rates.
    pub rates: Vec<f64>,
    /// Arm labels in sweep order.
    pub arms: Vec<String>,
    /// Trace window in simulated seconds.
    pub duration_secs: f64,
    /// Targets in the round-robin set.
    pub targets: usize,
    /// Workers per tool.
    pub workers_per_tool: usize,
    /// End-to-end request deadline (simulated seconds).
    pub deadline_secs: f64,
}

/// One resilience arm: a retry policy and an optional breaker.
#[derive(Clone, Copy)]
struct Arm {
    label: &'static str,
    retry: RetryPolicy,
    breaker: Option<BreakerConfig>,
}

/// The three arms the acceptance story compares, in increasing order of
/// resilience machinery.
fn arms() -> [Arm; 3] {
    let retry = RetryPolicy::standard();
    // Trigger-happier than `BreakerConfig::standard()`: the sweep's
    // audits fail in single-digit percents once retries absorb most
    // faults, and the circuit must still trip on the clusters the bursty
    // plan produces within a ~90-request window.
    let breaker = BreakerConfig {
        window: 8,
        failure_threshold: 0.25,
        min_samples: 2,
        open_secs: 600.0,
        half_open_probes: 1,
    };
    [
        Arm {
            label: "no-retry",
            retry: RetryPolicy::none(),
            breaker: None,
        },
        Arm {
            label: "retry",
            retry,
            breaker: None,
        },
        Arm {
            label: "retry+breaker",
            retry,
            breaker: Some(breaker),
        },
    ]
}

/// The two profile-only services, quota-free, store-only caches (zero
/// TTL), prewarmed for every target so the breaker always has a stale
/// answer to degrade to.
fn build_chaos_services(
    seed: u64,
    platform: &fakeaudit_twittersim::Platform,
    targets: &[fakeaudit_population::BuiltTarget],
) -> (OnlineService<StatusPeople>, OnlineService<Twitteraudit>) {
    let chaos_profile = |p: ServiceProfile| ServiceProfile {
        daily_quota: None,
        cache_ttl_days: Some(0),
        ..p
    };
    let mut sp = OnlineService::new(
        StatusPeople::new(),
        chaos_profile(ServiceProfile::statuspeople()),
        derive_seed(seed, "e10-svc-sp"),
    );
    let mut ta = OnlineService::new(
        Twitteraudit::new(),
        chaos_profile(ServiceProfile::twitteraudit()),
        derive_seed(seed, "e10-svc-ta"),
    );
    for t in targets {
        sp.prewarm(platform, t.target).expect("sp prewarm");
        ta.prewarm(platform, t.target).expect("ta prewarm");
    }
    (sp, ta)
}

/// The deterministic arrival trace: strict round-robin over the two
/// tools and the target set at a fixed inter-arrival gap. No randomness
/// — the fault plan is the only source of variation in the sweep.
fn chaos_trace(duration_secs: f64, step_secs: f64, targets: &[AccountId]) -> Vec<Request> {
    let tools = [ToolId::StatusPeople, ToolId::Twitteraudit];
    let mut out = Vec::new();
    let mut i = 0u64;
    loop {
        let at = step_secs * (i + 1) as f64;
        if at > duration_secs {
            break;
        }
        out.push(Request {
            id: i,
            at,
            tool: tools[(i % 2) as usize],
            target: targets[(i as usize / 2) % targets.len()],
        });
        i += 1;
    }
    out
}

/// Arms one cloned service for a sweep cell.
fn armed<A: FollowerAuditor + Clone>(
    svc: &OnlineService<A>,
    plan: FaultPlan,
    arm: Arm,
    telemetry: &Telemetry,
) -> OnlineService<A> {
    let mut s = svc.clone().with_telemetry(telemetry.clone());
    if !plan.is_none() {
        s = s.with_fault_plan(plan, arm.retry);
    }
    if let Some(cfg) = arm.breaker {
        s = s.with_breaker(cfg);
    }
    s
}

/// The inputs every sweep cell shares: the prewarmed world, the trace,
/// the seed/config, and the history writer when the sweep persists.
struct CellContext<'a> {
    platform: &'a fakeaudit_twittersim::Platform,
    base: &'a (OnlineService<StatusPeople>, OnlineService<Twitteraudit>),
    trace: &'a [Request],
    seed: u64,
    config: ServerConfig,
    persist: Option<SharedWriter>,
}

/// Runs one sweep cell: fresh clones, one deterministic event loop, one
/// bounded telemetry buffer harvested into the row.
fn run_cell(ctx: &CellContext<'_>, arm: Arm, rate: f64) -> ChaosRow {
    // Bounded event buffer: a chaos cell emits an unbounded stream of
    // fault/retry spans under high rates; the metrics the row needs
    // survive dropping old trace events.
    let telemetry = Telemetry::with_event_capacity(4_096);
    let plan = FaultPlan::bursty(derive_seed(ctx.seed, "e10-plan"), rate, 6.0);
    let mut sim = ServerSim::with_telemetry(ctx.platform, ctx.config, telemetry.clone());
    if let Some(writer) = &ctx.persist {
        sim.persist_into(writer.clone());
    }
    sim.register(Box::new(armed(&ctx.base.0, plan, arm, &telemetry)));
    sim.register(Box::new(armed(&ctx.base.1, plan, arm, &telemetry)));
    let report = sim.run(ctx.trace);
    let snap = telemetry.snapshot();
    let calls = snap.counter_total("api.calls");
    let faults = snap.counter_total("api.faults");
    // `0.0.max(..)` also normalises the `-0.0` an empty sum yields.
    let breaker_open_secs = 0.0f64.max(
        ["SP", "TA"]
            .iter()
            .filter_map(|tool| snap.gauge("breaker.open_secs", &[("tool", tool)]))
            .sum(),
    );
    let breaker_trips = ["SP", "TA"]
        .iter()
        .filter_map(|tool| snap.counter("breaker.transitions", &[("tool", tool), ("to", "open")]))
        .sum();
    let offered = report.offered();
    let answered = report.completed() + report.degraded();
    ChaosRow {
        arm: arm.label.to_string(),
        fault_rate: rate,
        offered,
        completed: report.completed(),
        stale_served: snap.counter_total("service.stale_served"),
        failed: report.failed(),
        expired: report.expired(),
        shed: report.shed(),
        goodput: if offered > 0 {
            answered as f64 / offered as f64
        } else {
            0.0
        },
        p50: report.latency_percentile(0.5),
        p99: report.latency_percentile(0.99),
        retries: snap.counter_total("api.retries"),
        observed_fault_rate: if calls > 0 {
            faults as f64 / calls as f64
        } else {
            0.0
        },
        breaker_open_secs,
        breaker_trips,
    }
}

/// Runs the E10 chaos sweep, optionally appending every answered audit
/// to a shared history-store writer.
///
/// With a writer the cells run serially in grid order so the persisted
/// segment stream is byte-deterministic; without one the sweep keeps the
/// scoped-thread fan-out.
///
/// # Panics
///
/// Panics on internal inconsistencies only (scenario build, prewarm).
pub fn run_chaos_persisted(scale: Scale, seed: u64, persist: Option<SharedWriter>) -> ChaosResult {
    const TARGETS: usize = 4;
    let quick = scale.materialize_cap < 10_000;
    let rates: Vec<f64> = if quick {
        vec![0.0, 0.10]
    } else {
        vec![0.0, 0.05, 0.10, 0.20]
    };
    let duration_secs = if quick { 3_000.0 } else { 9_000.0 };
    let step_secs = 16.0;
    let config = ServerConfig {
        workers_per_tool: 2,
        queue_capacity: 8,
        policy: OverloadPolicy::Shed,
        degraded_secs: 0.5,
        deadline_secs: Some(240.0),
    };

    let (platform, targets) = build_targets(scale, seed, TARGETS);
    let base = build_chaos_services(seed, &platform, &targets);
    let ranked: Vec<AccountId> = targets.iter().map(|t| t.target).collect();
    let trace = chaos_trace(duration_secs, step_secs, &ranked);

    let arm_list = arms();
    let cells: Vec<(usize, usize)> = (0..arm_list.len())
        .flat_map(|a| (0..rates.len()).map(move |r| (a, r)))
        .collect();
    let ctx = CellContext {
        platform: &platform,
        base: &base,
        trace: &trace,
        seed,
        config,
        persist,
    };
    let rows: Vec<ChaosRow> = if ctx.persist.is_some() {
        cells
            .iter()
            .map(|&(a, r)| run_cell(&ctx, arm_list[a], rates[r]))
            .collect()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = cells
                .iter()
                .map(|&(a, r)| {
                    let ctx = &ctx;
                    let (arm, rate) = (arm_list[a], rates[r]);
                    s.spawn(move || run_cell(ctx, arm, rate))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep cell panicked"))
                .collect()
        })
    };

    ChaosResult {
        rows,
        rates,
        arms: arm_list.iter().map(|a| a.label.to_string()).collect(),
        duration_secs,
        targets: TARGETS,
        workers_per_tool: config.workers_per_tool,
        deadline_secs: config.deadline_secs.expect("chaos sweep sets a deadline"),
    }
}

/// Renders the sweep table.
pub fn render(r: &ChaosResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E10: audit under an unreliable API ({} targets, {} workers/tool, \
         {:.0}s deadline, {:.0}s window)",
        r.targets, r.workers_per_tool, r.deadline_secs, r.duration_secs
    );
    let _ = writeln!(
        out,
        "{:<15}{:>6}{:>9}{:>8}{:>7}{:>7}{:>7}{:>9}{:>9}{:>9}{:>9}{:>7}",
        "arm",
        "rate",
        "offered",
        "answrd",
        "stale",
        "fail",
        "expd",
        "goodput",
        "p50 (s)",
        "p99 (s)",
        "open(s)",
        "trips"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "{:<15}{:>5.0}%{:>9}{:>8}{:>7}{:>7}{:>7}{:>8.0}%{:>9.1}{:>9.1}{:>9.0}{:>7}",
            row.arm,
            row.fault_rate * 100.0,
            row.offered,
            row.completed,
            row.stale_served,
            row.failed,
            row.expired,
            row.goodput * 100.0,
            row.p50,
            row.p99,
            row.breaker_open_secs,
            row.breaker_trips,
        );
    }
    let _ = writeln!(
        out,
        "reading order: at a given fault rate, retries convert most failed\n\
         calls into slower successes, and the breaker converts the failure\n\
         clusters that exhaust retries into instant stale answers — goodput\n\
         climbs arm over arm while p99 stays bounded by the deadline."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> &'static ChaosResult {
        static R: std::sync::OnceLock<ChaosResult> = std::sync::OnceLock::new();
        R.get_or_init(|| run_chaos_persisted(Scale::quick(), 7, None))
    }

    fn row<'a>(r: &'a ChaosResult, arm: &str, rate: f64) -> &'a ChaosRow {
        r.rows
            .iter()
            .find(|row| row.arm == arm && row.fault_rate == rate)
            .expect("cell exists")
    }

    #[test]
    fn grid_covers_arms_by_rates() {
        let r = result();
        assert_eq!(r.rows.len(), r.arms.len() * r.rates.len());
        for arm in &r.arms {
            assert_eq!(
                r.rows.iter().filter(|row| &row.arm == arm).count(),
                r.rates.len(),
                "{arm}"
            );
        }
    }

    #[test]
    fn same_seed_same_table() {
        let again = run_chaos_persisted(Scale::quick(), 7, None);
        assert_eq!(result(), &again);
        assert_eq!(render(result()), render(&again));
    }

    #[test]
    fn conservation_holds_in_every_cell() {
        for row in &result().rows {
            assert_eq!(
                row.completed + row.shed + row.failed + row.expired,
                row.offered,
                "{} @ {}",
                row.arm,
                row.fault_rate
            );
        }
    }

    #[test]
    fn fault_free_arms_are_identical_and_lossless() {
        let r = result();
        let rows: Vec<_> = r.rows.iter().filter(|row| row.fault_rate == 0.0).collect();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(
                row.goodput, 1.0,
                "{}: fault-free arm must answer all",
                row.arm
            );
            assert_eq!(row.failed, 0);
            assert_eq!(row.stale_served, 0);
            assert_eq!(row.retries, 0);
            assert_eq!(row.observed_fault_rate, 0.0);
            assert_eq!(row.breaker_trips, 0);
        }
        // The resilience machinery is pure overhead when nothing fails:
        // all three arms must produce the same service numbers.
        for later in &rows[1..] {
            assert_eq!(rows[0].completed, later.completed);
            assert_eq!(rows[0].p50, later.p50);
            assert_eq!(rows[0].p99, later.p99);
        }
    }

    #[test]
    fn goodput_strictly_improves_with_each_resilience_layer() {
        let r = result();
        let rate = 0.10;
        let none = row(r, "no-retry", rate);
        let retry = row(r, "retry", rate);
        let breaker = row(r, "retry+breaker", rate);
        assert!(
            none.goodput < retry.goodput,
            "retries must beat bare failures: {} vs {}",
            none.goodput,
            retry.goodput
        );
        assert!(
            retry.goodput < breaker.goodput,
            "the breaker must beat bare retries: {} vs {}",
            retry.goodput,
            breaker.goodput
        );
    }

    #[test]
    fn faulty_cells_show_the_machinery_working() {
        let r = result();
        let rate = 0.10;
        let none = row(r, "no-retry", rate);
        let retry = row(r, "retry", rate);
        let breaker = row(r, "retry+breaker", rate);
        assert_eq!(none.retries, 0, "no-retry arm must never retry");
        assert!(retry.retries > 0, "retry arm must retry");
        assert!(none.observed_fault_rate > 0.05, "faults must actually fire");
        assert!(none.failed > retry.failed, "retries must absorb failures");
        assert!(breaker.breaker_trips > 0, "circuit must trip at 10%");
        assert!(breaker.breaker_open_secs > 0.0);
        assert!(breaker.stale_served > 0, "open circuit must serve stale");
        assert_eq!(none.breaker_trips, 0);
        assert_eq!(retry.breaker_trips, 0);
    }

    #[test]
    fn render_lists_every_arm() {
        let text = render(result());
        for arm in ["no-retry", "retry", "retry+breaker"] {
            assert!(text.contains(arm), "{arm} missing:\n{text}");
        }
        assert!(text.contains("goodput"));
    }
}
