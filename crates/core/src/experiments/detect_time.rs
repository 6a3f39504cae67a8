//! E14 — fault-burst detection time across alert window configs
//! (extension).
//!
//! E10 measured what resilience machinery buys *the request path* when
//! the upstream API misbehaves; this driver measures what the window
//! geometry of the SLO monitor buys *the operator*. It replays the
//! PR-5 [`FaultPlan`] burst process as a request-completion stream —
//! one request every `step_secs`, each one failed iff the seeded
//! [`FaultInjector`] draws a fault — and feeds the identical stream to
//! one [`SloMonitor`] per window config. Ground truth falls out of the
//! injector itself: fault draws closer together than `gap_secs` form a
//! cluster, and clusters of at least `min_faults` faults are the
//! incidents an on-call human would want paged about.
//!
//! Per config the driver reports **time-to-detect** (first `firing`
//! transition covering a burst, minus the burst's first fault),
//! **time-to-resolve** (the covering alert's `resolved` transition,
//! minus the burst's last fault), the miss count (incidents that never
//! fired) and the false count (firings covering no incident). The sweep
//! makes the Google-SRE trade concrete: short windows detect in seconds
//! but page on blips; long windows never false-page but sit on small
//! incidents — which is why production configs run both rules at once.
//!
//! Determinism: the stream is one seeded draw per request, the monitor
//! ticks on exact bucket multiples of the simulated clock, and every
//! config replays the same stream — same seed ⇒ byte-identical tables.

use fakeaudit_stats::rng::derive_seed;
use fakeaudit_telemetry::json::{bench_json, bench_rows, Num, Quoted};
use fakeaudit_telemetry::{
    AlertTransition, BurnRule, MonitorConfig, Signal, SloMonitor, Telemetry, TransitionKind,
};
use fakeaudit_twitter_api::fault::{FaultInjector, FaultPlan};
use fakeaudit_twitter_api::Endpoint;
use std::fmt::Write as _;

use super::Scale;

/// The route label the replayed stream observes under.
const ROUTE: &str = "api";

/// Inter-fault gap (seconds) below which two faults belong to the same
/// ground-truth cluster.
const GAP_SECS: f64 = 60.0;

/// Minimum faults for a cluster to count as a pageable incident.
const MIN_FAULTS: usize = 5;

/// One ground-truth fault burst derived from the injector's own draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstTruth {
    /// Time of the burst's first fault (simulated seconds).
    pub start_secs: f64,
    /// Time of the burst's last fault.
    pub end_secs: f64,
    /// Faults in the cluster.
    pub faults: usize,
}

/// One window config of the sweep: a single named burn rule.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowConfig {
    /// Config label (`fast` / `balanced` / `conservative`).
    pub name: String,
    /// Short (fast) burn window, seconds.
    pub short_secs: f64,
    /// Long (slow) burn window, seconds.
    pub long_secs: f64,
    /// Burn-rate threshold both windows must clear.
    pub burn_threshold: f64,
    /// Dwell before `pending` escalates to `firing`, seconds.
    pub pending_secs: f64,
    /// Healthy dwell before `firing` resolves, seconds.
    pub clear_secs: f64,
}

/// Detection outcomes for one window config over the whole stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectRow {
    /// The window config this row measured.
    pub config: WindowConfig,
    /// Ground-truth incidents in the stream (same for every row).
    pub bursts: usize,
    /// Incidents covered by at least one firing alert.
    pub detected: usize,
    /// Detected incidents whose alert *fired for them* (the interval
    /// began at or after the burst started) — the TTD population.
    pub fresh: usize,
    /// Detected incidents covered by an alert still firing from an
    /// earlier burst: the config cannot tell adjacent incidents apart.
    pub carryover: usize,
    /// Incidents that never fired.
    pub missed: usize,
    /// Firing intervals covering no incident (pages on blips).
    pub false_firings: usize,
    /// Mean time-to-detect over fresh detections, seconds.
    pub mean_ttd_secs: f64,
    /// Worst time-to-detect over fresh detections, seconds.
    pub max_ttd_secs: f64,
    /// Mean time-to-resolve, per firing interval against the last
    /// incident it covers, seconds.
    pub mean_ttr_secs: f64,
    /// Alert-log transitions the config emitted (pending+firing+resolved).
    pub transitions: u64,
}

/// Outcome of the E14 detection-time sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectTimeResult {
    /// One row per window config, in sweep order.
    pub rows: Vec<DetectRow>,
    /// The ground-truth incidents every config was measured against.
    pub bursts: Vec<BurstTruth>,
    /// Stream length, simulated seconds.
    pub duration_secs: f64,
    /// Inter-request gap, simulated seconds.
    pub step_secs: f64,
    /// Base per-request fault probability of the plan.
    pub fault_rate: f64,
    /// Burst correlation factor of the plan.
    pub burst_factor: f64,
    /// Requests replayed.
    pub requests: u64,
    /// Faults the injector drew (in and out of clusters).
    pub faults: u64,
}

/// The three window geometries the sweep compares — the `sim_default`
/// page/ticket pair plus a deliberately twitchy fast config.
fn window_configs() -> Vec<WindowConfig> {
    let mk = |name: &str, short, long, burn, pending, clear| WindowConfig {
        name: name.to_string(),
        short_secs: short,
        long_secs: long,
        burn_threshold: burn,
        pending_secs: pending,
        clear_secs: clear,
    };
    vec![
        mk("fast", 30.0, 120.0, 4.0, 10.0, 30.0),
        mk("balanced", 60.0, 300.0, 8.0, 30.0, 60.0),
        mk("conservative", 300.0, 1200.0, 2.0, 60.0, 120.0),
    ]
}

/// One request-completion observation of the replayed stream.
struct Obs {
    at_secs: f64,
    ok: bool,
}

/// Replays the fault plan into a completion stream: one request per
/// `step_secs`, failed iff the injector draws a fault for that attempt.
fn fault_stream(
    seed: u64,
    rate: f64,
    burst_factor: f64,
    duration_secs: f64,
    step: f64,
) -> Vec<Obs> {
    let plan = FaultPlan::bursty(derive_seed(seed, "e14-plan"), rate, burst_factor);
    let mut injector = FaultInjector::new(plan);
    let mut out = Vec::new();
    let mut i = 0u64;
    loop {
        let at = step * (i + 1) as f64;
        if at > duration_secs {
            break;
        }
        out.push(Obs {
            at_secs: at,
            ok: injector.draw(Endpoint::ALL[0]).is_none(),
        });
        i += 1;
    }
    out
}

/// Clusters the stream's fault times into ground-truth incidents.
fn ground_truth(stream: &[Obs]) -> Vec<BurstTruth> {
    let mut bursts = Vec::new();
    let mut open: Option<BurstTruth> = None;
    for obs in stream.iter().filter(|o| !o.ok) {
        match &mut open {
            Some(b) if obs.at_secs - b.end_secs <= GAP_SECS => {
                b.end_secs = obs.at_secs;
                b.faults += 1;
            }
            _ => {
                if let Some(b) = open.take() {
                    bursts.push(b);
                }
                open = Some(BurstTruth {
                    start_secs: obs.at_secs,
                    end_secs: obs.at_secs,
                    faults: 1,
                });
            }
        }
    }
    bursts.extend(open);
    bursts.retain(|b| b.faults >= MIN_FAULTS);
    bursts
}

/// A fired availability alert's lifetime, from the transition log.
#[derive(Debug, Clone, Copy)]
struct FiringInterval {
    fire_at: f64,
    resolve_at: Option<f64>,
}

/// Folds the transition log into firing intervals (availability only —
/// the replay holds latency fixed so the latency machines stay idle).
fn firing_intervals(log: &[AlertTransition]) -> Vec<FiringInterval> {
    let mut out: Vec<FiringInterval> = Vec::new();
    for t in log.iter().filter(|t| t.signal == Signal::Availability) {
        match t.to {
            TransitionKind::Firing => out.push(FiringInterval {
                fire_at: t.at_secs,
                resolve_at: None,
            }),
            TransitionKind::Resolved => {
                if let Some(open) = out.iter_mut().rev().find(|i| i.resolve_at.is_none()) {
                    open.resolve_at = Some(t.at_secs);
                }
            }
            TransitionKind::Pending => {}
        }
    }
    out
}

/// Runs one window config over the shared stream and scores it.
fn run_config(cfg: &WindowConfig, stream: &[Obs], bursts: &[BurstTruth], seed: u64) -> DetectRow {
    let bucket_secs = 10.0;
    let monitor = SloMonitor::new(
        MonitorConfig {
            bucket_secs,
            availability_objective: 0.99,
            latency_quantile: 0.95,
            // The replay's latency is constant and far below this, so
            // only the availability machines ever move.
            latency_objective_secs: f64::INFINITY,
            rules: vec![BurnRule::new(
                &cfg.name,
                cfg.short_secs,
                cfg.long_secs,
                cfg.burn_threshold,
                cfg.pending_secs,
                cfg.clear_secs,
            )],
            history_capacity: 8,
            history_interval_secs: f64::INFINITY,
            sample_keep: 0.0,
            parked_capacity: 64,
            seed: derive_seed(seed, "e14-monitor"),
        },
        Telemetry::with_event_capacity(256),
    );
    // Interleave observations with bucket-aligned ticks, exactly as
    // `ServerSim` does, then drain past the end so trailing alerts
    // resolve deterministically.
    let mut next_tick = bucket_secs;
    for obs in stream {
        while next_tick <= obs.at_secs {
            monitor.tick(next_tick);
            next_tick += bucket_secs;
        }
        monitor.observe_request(ROUTE, obs.at_secs, Some(1.0), obs.ok, None);
    }
    let drain = stream.last().map_or(0.0, |o| o.at_secs)
        + cfg.long_secs
        + cfg.pending_secs
        + cfg.clear_secs;
    while next_tick <= drain + bucket_secs {
        monitor.tick(next_tick);
        next_tick += bucket_secs;
    }

    let log = monitor.transitions();
    let intervals = firing_intervals(&log);
    // An alert may legitimately fire slightly after a burst's last fault
    // (the windows still see it); anything later than the short window
    // plus the pending dwell is no longer "detecting" that burst.
    let slack = cfg.short_secs + cfg.pending_secs + bucket_secs;
    let covers = |i: &FiringInterval, b: &BurstTruth| {
        i.fire_at <= b.end_secs + slack && i.resolve_at.is_none_or(|r| r >= b.start_secs)
    };

    let mut ttds = Vec::new();
    let mut carryover = 0usize;
    let mut missed = 0usize;
    for b in bursts {
        match intervals.iter().find(|i| covers(i, b)) {
            // A covering interval that began before the burst is an
            // alert still firing from an earlier incident — "covered",
            // but its fire time says nothing about *this* burst.
            Some(i) if i.fire_at < b.start_secs => carryover += 1,
            Some(i) => ttds.push(i.fire_at - b.start_secs),
            None => missed += 1,
        }
    }
    // TTR is a property of the firing interval: how long after the last
    // incident it covered truly ended did the alert clear? (An interval
    // spanning several adjacent bursts is measured against the last.)
    let ttrs: Vec<f64> = intervals
        .iter()
        .filter_map(|i| {
            let last_end = bursts
                .iter()
                .filter(|b| covers(i, b))
                .map(|b| b.end_secs)
                .fold(f64::NEG_INFINITY, f64::max);
            match i.resolve_at {
                Some(r) if last_end.is_finite() => Some((r - last_end).max(0.0)),
                _ => None,
            }
        })
        .collect();
    let false_firings = intervals
        .iter()
        .filter(|i| !bursts.iter().any(|b| covers(i, b)))
        .count();
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    DetectRow {
        config: cfg.clone(),
        bursts: bursts.len(),
        detected: bursts.len() - missed,
        fresh: ttds.len(),
        carryover,
        missed,
        false_firings,
        mean_ttd_secs: mean(&ttds),
        max_ttd_secs: ttds.iter().copied().fold(0.0, f64::max),
        mean_ttr_secs: mean(&ttrs),
        transitions: log.len() as u64,
    }
}

/// Runs the E14 detection-time sweep.
///
/// # Panics
///
/// Panics on internal inconsistencies only (an invalid fault plan or
/// monitor config).
pub fn run_detect_time(scale: Scale, seed: u64) -> DetectTimeResult {
    let quick = scale.materialize_cap < 10_000;
    let duration_secs = if quick { 3_600.0 } else { 14_400.0 };
    let step_secs = 2.0;
    // A fault every ~100 draws, each igniting a hot streak that keeps
    // burning with probability rate × factor ≈ 0.95 per draw: incidents
    // of ~40 s (geometric tail into minutes) every few minutes, against
    // a burn-1.0 background — exactly the regime burn-rate alerting is
    // tuned for.
    let fault_rate = 0.01;
    let burst_factor = 95.0;

    let stream = fault_stream(seed, fault_rate, burst_factor, duration_secs, step_secs);
    let bursts = ground_truth(&stream);
    let rows = window_configs()
        .iter()
        .map(|cfg| run_config(cfg, &stream, &bursts, seed))
        .collect();

    DetectTimeResult {
        rows,
        faults: stream.iter().filter(|o| !o.ok).count() as u64,
        requests: stream.len() as u64,
        bursts,
        duration_secs,
        step_secs,
        fault_rate,
        burst_factor,
    }
}

/// Renders the sweep table.
pub fn render(r: &DetectTimeResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E14: fault-burst detection time ({:.0}s stream, {} requests, {} faults, \
         {} incidents ≥{} faults)",
        r.duration_secs,
        r.requests,
        r.faults,
        r.bursts.len(),
        MIN_FAULTS
    );
    let _ = writeln!(
        out,
        "{:<14}{:>12}{:>7}{:>8}{:>7}{:>7}{:>7}{:>7}{:>10}{:>10}{:>10}",
        "config",
        "windows",
        "burn",
        "detect",
        "fresh",
        "carry",
        "miss",
        "false",
        "ttd (s)",
        "max (s)",
        "ttr (s)"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "{:<14}{:>12}{:>6.1}x{:>8}{:>7}{:>7}{:>7}{:>7}{:>10.1}{:>10.1}{:>10.1}",
            row.config.name,
            format!("{:.0}/{:.0}", row.config.short_secs, row.config.long_secs),
            row.config.burn_threshold,
            row.detected,
            row.fresh,
            row.carryover,
            row.missed,
            row.false_firings,
            row.mean_ttd_secs,
            row.max_ttd_secs,
            row.mean_ttr_secs,
        );
    }
    let _ = writeln!(
        out,
        "reading order: tighter windows fire fresh on each incident in tens\n\
         of seconds and clear between them, at the cost of paging on blips;\n\
         the conservative pair never false-pages but smears adjacent bursts\n\
         into one long alert (carry) and resolves long after the incident —\n\
         run a fast rule for paging and a slow one for ticketing, as the\n\
         monitor defaults do."
    );
    out
}

/// Refuses a sweep that measured nothing: a fault stream with no
/// ground-truth incident, or a monitor that detected none of them.
///
/// # Errors
///
/// Says which of the two it was.
pub fn check(r: &DetectTimeResult) -> Result<(), String> {
    if r.bursts.is_empty() {
        return Err("fault stream produced no ground-truth incidents — nothing measured".into());
    }
    if r.rows.iter().all(|row| row.detected == 0) {
        return Err("no window config detected any incident — the monitor is blind".into());
    }
    Ok(())
}

/// Renders the sweep as `results/BENCH_monitor.json`.
pub fn render_json(seed: u64, r: &DetectTimeResult) -> String {
    let config = [
        ("seed", seed.to_string()),
        ("duration_secs", format!("{:.1}", r.duration_secs)),
        ("step_secs", format!("{:.1}", r.step_secs)),
        ("fault_rate", Num(r.fault_rate).to_string()),
        ("burst_factor", format!("{:.1}", r.burst_factor)),
        ("requests", r.requests.to_string()),
        ("faults", r.faults.to_string()),
        ("incidents", r.bursts.len().to_string()),
    ];
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            format!(
                "{{\"name\": {}, \"short_secs\": {:.1}, \"long_secs\": {:.1}, \
                 \"burn_threshold\": {:.1}, \"pending_secs\": {:.1}, \"clear_secs\": {:.1}, \
                 \"bursts\": {}, \"detected\": {}, \"fresh\": {}, \"carryover\": {}, \
                 \"missed\": {}, \"false_firings\": {}, \"mean_ttd_secs\": {:.1}, \
                 \"max_ttd_secs\": {:.1}, \"mean_ttr_secs\": {:.1}, \"transitions\": {}}}",
                Quoted(&row.config.name),
                row.config.short_secs,
                row.config.long_secs,
                row.config.burn_threshold,
                row.config.pending_secs,
                row.config.clear_secs,
                row.bursts,
                row.detected,
                row.fresh,
                row.carryover,
                row.missed,
                row.false_firings,
                row.mean_ttd_secs,
                row.max_ttd_secs,
                row.mean_ttr_secs,
                row.transitions,
            )
        })
        .collect();
    bench_json("monitor", &config, &[("scenarios", bench_rows(&rows))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> &'static DetectTimeResult {
        static R: std::sync::OnceLock<DetectTimeResult> = std::sync::OnceLock::new();
        R.get_or_init(|| run_detect_time(Scale::quick(), 7))
    }

    #[test]
    fn stream_has_incidents_to_detect() {
        let r = result();
        assert!(r.faults > 0, "plan must inject faults");
        assert!(
            r.bursts.len() >= 3,
            "stream must contain clustered incidents: {:?}",
            r.bursts
        );
        for b in &r.bursts {
            assert!(b.faults >= MIN_FAULTS);
            assert!(b.end_secs >= b.start_secs);
        }
        // Bursts are disjoint and ordered.
        for w in r.bursts.windows(2) {
            assert!(w[0].end_secs + GAP_SECS < w[1].start_secs);
        }
    }

    #[test]
    fn same_seed_same_table() {
        let again = run_detect_time(Scale::quick(), 7);
        assert_eq!(result(), &again);
        assert_eq!(render(result()), render(&again));
    }

    #[test]
    fn every_config_scores_every_burst() {
        let r = result();
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert_eq!(row.bursts, r.bursts.len(), "{}", row.config.name);
            assert_eq!(row.detected + row.missed, row.bursts, "{}", row.config.name);
            assert_eq!(
                row.fresh + row.carryover,
                row.detected,
                "{}",
                row.config.name
            );
        }
    }

    #[test]
    fn fast_config_detects_most_and_quickest() {
        let r = result();
        let fast = &r.rows[0];
        let conservative = &r.rows[2];
        assert!(fast.fresh > 0, "fast config must fire fresh on real bursts");
        assert!(
            fast.detected >= conservative.detected,
            "shorter windows must not detect fewer incidents: {} vs {}",
            fast.detected,
            conservative.detected
        );
        assert!(
            fast.fresh > conservative.fresh,
            "short windows must fire fresh per incident where long ones smear: \
             {} vs {}",
            fast.fresh,
            conservative.fresh
        );
        assert!(
            conservative.carryover > 0,
            "long windows must smear adjacent bursts into one alert"
        );
        if conservative.fresh > 0 {
            assert!(
                fast.mean_ttd_secs <= conservative.mean_ttd_secs,
                "shorter windows must detect sooner: {} vs {}",
                fast.mean_ttd_secs,
                conservative.mean_ttd_secs
            );
        }
        assert!(
            fast.mean_ttr_secs < conservative.mean_ttr_secs,
            "shorter windows must clear sooner: {} vs {}",
            fast.mean_ttr_secs,
            conservative.mean_ttr_secs
        );
    }

    #[test]
    fn detected_bursts_resolve() {
        // The drain runs past every window + dwell, so each detected
        // burst's covering alert must have resolved (ttr measured).
        for row in &result().rows {
            if row.detected > 0 {
                assert!(
                    row.mean_ttr_secs > 0.0,
                    "{}: detections must resolve after the drain",
                    row.config.name
                );
            }
        }
    }

    #[test]
    fn render_lists_every_config() {
        let text = render(result());
        for name in ["fast", "balanced", "conservative"] {
            assert!(text.contains(name), "{name} missing:\n{text}");
        }
        assert!(text.contains("ttd (s)"));
    }

    #[test]
    fn check_refuses_a_sweep_that_measured_nothing() {
        assert_eq!(check(result()), Ok(()));
        let mut quiet = result().clone();
        quiet.bursts.clear();
        assert!(check(&quiet)
            .unwrap_err()
            .contains("no ground-truth incidents"));
        let mut blind = result().clone();
        for row in &mut blind.rows {
            row.detected = 0;
        }
        assert!(check(&blind).unwrap_err().contains("the monitor is blind"));
    }
}
