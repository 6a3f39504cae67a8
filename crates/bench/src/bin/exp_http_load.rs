//! E11 — the gateway under wall-clock HTTP load.
//!
//! Boots the real `fakeaudit-gateway` listener on an ephemeral port over
//! the same prewarmed world as the E8 sweep, then drives it with the E8
//! workload shapes at wall speed:
//!
//! 1. `closed_loop` — keep-alive workers hammering back-to-back, the
//!    peak-throughput measurement;
//! 2. `poisson_open` — open-loop Poisson arrivals at a fixed rate, the
//!    steady-state latency measurement;
//! 3. `flash_crowd` — open-loop with an 8× burst, the overload/shedding
//!    measurement.
//!
//! Prints a human table and, with `--out PATH`, writes the bench JSON
//! (schema in EXPERIMENTS.md, E11) to PATH. Unlike the sim experiments
//! these numbers are *hardware-dependent* — the JSON is a trajectory
//! artifact, not a golden fixture, so it is uploaded from CI rather than
//! committed.
//!
//! Usage: `exp_http_load [--quick] [--seed N] [--secs S] [--out PATH]
//! [--profile-out PATH] [--slo]` (`--quick` shrinks the world and halves
//! the open-loop windows; `--profile-out` writes the run's folded
//! self-time stacks in flamegraph-collapsed format; `--slo` arms the
//! PR-9 burn-rate monitor so the ledger can price its overhead — compare
//! a `--slo` run against a plain one with `fakeaudit bench compare`).
//!
//! The run checks its books before it writes anything: the load
//! generators' offered, answered, shed/expired and error totals must
//! match the gateway's own `ServerReport`, or it exits 2 naming each
//! total that disagrees — a lost or double-counted request fails CI.
//!
//! Built with `--features alloc-profile`, the process heap routes
//! through the telemetry counting allocator and the JSON's `config`
//! gains `allocs_per_req` — the bench ledger then tracks allocation
//! regressions alongside latency ones.

use fakeaudit_analytics::BreakerConfig;
use fakeaudit_bench::{fail, parse_args, RunOptions};
use fakeaudit_core::experiments::service_load::ServingWorld;
use fakeaudit_detectors::ToolId;
use fakeaudit_gateway::{
    render_bench_json, run_closed_loop, run_open_loop, Gateway, GatewayConfig, LoadSummary,
    ToolPool,
};
use fakeaudit_server::workload::{generate, ArrivalProcess, LoadSpec, Request};
use fakeaudit_server::{OverloadPolicy, ServerConfig, ServerReport};
use fakeaudit_stats::rng::derive_seed;
use fakeaudit_telemetry::json::Quoted;
use fakeaudit_telemetry::{AllocScope, MonitorConfig, SelfTimeProfile, Telemetry, WallClock};
use std::sync::Arc;

// With the alloc-profile feature every heap operation of the whole
// process (gateway, workers and load generators alike) is counted; the
// per-request figure is therefore an upper bound on the serving path,
// deliberately — a regression anywhere in the process shows up.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: fakeaudit_telemetry::profile::CountingAllocator<std::alloc::System> =
    fakeaudit_telemetry::profile::CountingAllocator::new(std::alloc::System);

const TARGETS: usize = 4;
const WORKERS_PER_TOOL: usize = 2;
const QUEUE_CAPACITY: usize = 8;
/// One accept thread per load-generator connection: a keep-alive
/// connection occupies its accept thread for its whole lifetime, so a
/// sender pool larger than the accept pool would be *serialized* (later
/// connections starve until earlier ones close), not queued. Accept
/// threads park in blocking reads, so overcommitting the core count is
/// cheap. Audits run on the accept threads themselves, and each lane's
/// backends (`WORKERS_PER_TOOL`) still bound a tool's concurrent audits;
/// the rest wait in its admission queue.
const SENDERS: usize = 64;

struct HttpLoadOptions {
    run: RunOptions,
    secs: f64,
    out: Option<String>,
    profile_out: Option<String>,
    slo: bool,
}

/// Splits `--secs` / `--out` off and hands the rest to the shared
/// bench-arg parser.
fn options() -> HttpLoadOptions {
    let mut rest = Vec::new();
    let mut secs = None;
    let mut out = None;
    let mut profile_out = None;
    let mut slo = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--secs" => match args.next().map(|v| v.parse::<f64>()) {
                Some(Ok(v)) if v > 0.0 => secs = Some(v),
                _ => fail("--secs needs a positive number"),
            },
            "--out" => match args.next() {
                Some(v) => out = Some(v),
                None => fail("--out needs a path"),
            },
            "--profile-out" => match args.next() {
                Some(v) => profile_out = Some(v),
                None => fail("--profile-out needs a path"),
            },
            "--slo" => slo = true,
            _ => rest.push(arg),
        }
    }
    let run = match parse_args(rest.into_iter()) {
        Ok(opts) => opts,
        Err(msg) => fail(&format!(
            "{msg} (also: --secs S, --out PATH, --profile-out PATH, --slo)"
        )),
    };
    let quick = run.scale != fakeaudit_core::experiments::Scale::full();
    HttpLoadOptions {
        run,
        secs: secs.unwrap_or(if quick { 5.0 } else { 10.0 }),
        out,
        profile_out,
        slo,
    }
}

/// A fixed-size closed-loop work list cycling tools over Zipf targets.
fn closed_work(world: &ServingWorld, seed: u64, count: usize) -> Vec<Request> {
    // Reuse the workload generator for its Zipf target draw: a dense
    // Poisson schedule, then ignore the arrival times.
    let spec = LoadSpec {
        process: ArrivalProcess::Poisson { rate: 1.0 },
        duration_secs: count as f64,
        zipf_exponent: 1.1,
        tools: ToolId::ALL.to_vec(),
    };
    let mut work = generate(&spec, &world.targets, derive_seed(seed, "e11-closed"));
    work.truncate(count);
    work
}

/// The load generators' totals against the gateway's own books: every
/// request a sender offered must appear in the gateway's report exactly
/// once, under the matching outcome (a breaker-open 503 is a `Failed`
/// record). Names each total that disagrees.
fn check_books(scenarios: &[LoadSummary], report: &ServerReport) -> Result<(), String> {
    let sum = |f: fn(&LoadSummary) -> u64| scenarios.iter().map(f).sum::<u64>();
    let totals = [
        ("offered", sum(|s| s.offered), report.offered()),
        (
            "answered vs completed + degraded",
            sum(|s| s.answered),
            report.completed() + report.degraded(),
        ),
        (
            "shed + expired vs shed + expired + failed",
            sum(|s| s.shed) + sum(|s| s.expired),
            report.shed() + report.expired() + report.failed(),
        ),
        ("errors", sum(|s| s.errors), 0),
    ];
    let mismatches: Vec<String> = totals
        .iter()
        .filter(|(_, senders, gateway)| senders != gateway)
        .map(|(what, senders, gateway)| format!("{what}: senders {senders}, gateway {gateway}"))
        .collect();
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(mismatches.join("; "))
    }
}

fn print_row(s: &LoadSummary) {
    println!(
        "{:<13}{:>7}{:>9}{:>7}{:>8}{:>8}{:>11.1}{:>10.1}{:>10.1}{:>10.1}{:>8.1}%",
        s.name,
        s.offered,
        s.answered,
        s.shed,
        s.expired,
        s.errors,
        s.requests_per_sec(),
        s.latency_percentile(0.50) * 1e3,
        s.latency_percentile(0.95) * 1e3,
        s.latency_percentile(0.99) * 1e3,
        s.shed_rate() * 100.0,
    );
}

fn main() {
    let opts = options();
    let seed = opts.run.seed;
    eprintln!("building the prewarmed world ({TARGETS} targets) ...");
    let world = ServingWorld::build(opts.run.scale, seed, TARGETS);
    let telemetry = Telemetry::enabled();
    let pools: Vec<ToolPool> = ToolId::ALL
        .iter()
        .map(|&tool| {
            let mut backends = world.armed_backends(
                tool,
                WORKERS_PER_TOOL + 1,
                &telemetry,
                Some(BreakerConfig::standard()),
            );
            let stale = backends.pop().expect("workers + 1 clones");
            ToolPool {
                tool,
                workers: backends,
                stale,
            }
        })
        .collect();

    let config = GatewayConfig {
        accept_threads: SENDERS,
        server: ServerConfig {
            workers_per_tool: WORKERS_PER_TOOL,
            queue_capacity: QUEUE_CAPACITY,
            policy: OverloadPolicy::Shed,
            degraded_secs: 0.5,
            deadline_secs: None,
        },
        slo: opts.slo.then(|| MonitorConfig::wall_default(seed)),
        ..GatewayConfig::default()
    };
    let platform = Arc::new(world.platform.clone());
    let gateway = Gateway::bind(
        config,
        platform,
        pools,
        Arc::new(WallClock::new()),
        telemetry.clone(),
    )
    .expect("bind ephemeral port");
    let addr = gateway.local_addr();
    eprintln!("gateway listening on {addr}");

    let alloc_scope = AllocScope::start();

    // 1. Closed loop: peak sustainable throughput over keep-alive
    //    connections (offered load adapts to service rate).
    let work = closed_work(&world, seed, if opts.secs < 8.0 { 2_000 } else { 8_000 });
    eprintln!("closed loop: {} requests, 8 connections ...", work.len());
    let closed = run_closed_loop(addr, "closed_loop", &work, 8);

    // Rates for the open-loop scenarios sit relative to the measured
    // capacity so the poisson run stays below the knee and the flash
    // crowd bursts well past it, whatever this machine's speed.
    let capacity = closed.requests_per_sec().max(50.0);
    let poisson_rate = capacity * 0.5;
    let burst_base = capacity * 0.3;

    // 2. Open-loop Poisson below the knee.
    let spec = LoadSpec {
        process: ArrivalProcess::Poisson { rate: poisson_rate },
        duration_secs: opts.secs,
        zipf_exponent: 1.1,
        tools: ToolId::ALL.to_vec(),
    };
    let schedule = generate(&spec, &world.targets, derive_seed(seed, "e11-poisson"));
    eprintln!(
        "poisson open loop: {:.0} req/s for {:.0}s ({} arrivals) ...",
        poisson_rate,
        opts.secs,
        schedule.len()
    );
    let poisson = run_open_loop(addr, "poisson_open", &schedule, 1.0, SENDERS);

    // 3. Flash crowd: an 8x burst in the middle of the window.
    let spec = LoadSpec {
        process: ArrivalProcess::FlashCrowd {
            base_rate: burst_base,
            burst_start: opts.secs * 0.25,
            burst_secs: opts.secs * 0.10,
            burst_rate: burst_base * 8.0,
        },
        duration_secs: opts.secs,
        zipf_exponent: 1.1,
        tools: ToolId::ALL.to_vec(),
    };
    let schedule = generate(&spec, &world.targets, derive_seed(seed, "e11-flash"));
    eprintln!(
        "flash crowd: base {:.0} req/s, burst {:.0} req/s ({} arrivals) ...",
        burst_base,
        burst_base * 8.0,
        schedule.len()
    );
    let flash = run_open_loop(addr, "flash_crowd", &schedule, 1.0, SENDERS);

    let alloc_delta = alloc_scope.delta();
    let monitor_counts = gateway.monitor().map(|m| m.counts());
    let report = gateway.shutdown();
    let breaker_trips: u64 = telemetry
        .snapshot()
        .counters
        .iter()
        .filter(|(k, _)| {
            k.name == "breaker.transitions"
                && k.labels.iter().any(|(l, v)| l == "to" && v == "open")
        })
        .map(|&(_, v)| v)
        .sum();

    let scenarios = [closed, poisson, flash];
    println!(
        "E11: gateway under wall-clock HTTP load ({WORKERS_PER_TOOL} workers/tool, queue {QUEUE_CAPACITY}, policy shed)"
    );
    println!(
        "{:<13}{:>7}{:>9}{:>7}{:>8}{:>8}{:>11}{:>10}{:>10}{:>10}{:>9}",
        "scenario",
        "offered",
        "answered",
        "shed",
        "expired",
        "errors",
        "thru (r/s)",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "shed"
    );
    for s in &scenarios {
        print_row(s);
    }
    println!(
        "gateway totals: {} offered, {} completed, {} shed, {} breaker trips",
        report.offered(),
        report.completed(),
        report.shed(),
        breaker_trips
    );
    if let Some(c) = monitor_counts {
        println!(
            "SLO monitor: {} pending, {} fired, {} resolved, {} traces kept",
            c.pending,
            c.firing,
            c.resolved,
            c.traces_kept + c.traces_sampled
        );
    }
    if let Err(mismatch) = check_books(&scenarios, &report) {
        fail(&format!("E11 books do not balance: {mismatch}"));
    }

    let mut config = vec![
        ("seed", seed.to_string()),
        ("targets", TARGETS.to_string()),
        ("workers_per_tool", WORKERS_PER_TOOL.to_string()),
        ("queue_capacity", QUEUE_CAPACITY.to_string()),
        ("accept_threads", SENDERS.to_string()),
        ("open_loop_senders", SENDERS.to_string()),
        ("policy", Quoted("shed").to_string()),
        ("open_loop_secs", format!("{:.1}", opts.secs)),
        ("slo", opts.slo.to_string()),
    ];
    let answered: u64 = scenarios.iter().map(|s| s.answered).sum();
    // This crate's own feature, which installs `ALLOC`: the telemetry
    // crate's `alloc-profile` is also on whenever this crate's tests are
    // built, without the allocator.
    if cfg!(feature = "alloc-profile") && answered > 0 {
        let allocs_per_req = alloc_delta.allocs as f64 / answered as f64;
        println!(
            "allocations: {} total ({} bytes), {:.1} allocs/answered request",
            alloc_delta.allocs, alloc_delta.bytes, allocs_per_req
        );
        config.push(("allocs_per_req", format!("{allocs_per_req:.1}")));
    }

    if let Some(path) = &opts.out {
        let json = render_bench_json(&config, breaker_trips, &scenarios);
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &opts.profile_out {
        let profile = SelfTimeProfile::from_events(&telemetry.events());
        match std::fs::write(path, profile.folded()) {
            Ok(()) => println!(
                "wrote {path} ({} folded stacks, {} us self time)",
                profile.len(),
                profile.total_micros()
            ),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
