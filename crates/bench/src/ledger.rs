//! The bench ledger: committed history of headline bench numbers plus
//! the regression comparator behind `fakeaudit bench record|compare`.
//!
//! `results/BENCH_*.json` artifacts are point-in-time; nothing in the
//! repo compared them across commits, so a perf regression only showed
//! up when someone eyeballed two CI artifacts. The ledger closes that
//! loop with a committed `results/ledger.jsonl`: one line per recorded
//! run, each carrying the headline numbers (throughput, p50/p95/p99,
//! shed rate, allocations/request) of every scenario in a bench JSON.
//! `record` appends a line; `compare` checks a fresh bench JSON against
//! the most recent ledger line and flags any metric that moved past a
//! noise tolerance — the CLI exits nonzero on a regression, which is
//! what lets CI refuse a perf-regressing PR instead of archiving it.
//!
//! Bench files and ledger lines are read with `telemetry::json`'s
//! reader, and ledger lines are written through its [`Quoted`] and
//! [`Num`], so a label escapes as every other JSON string does.

use fakeaudit_telemetry::json::{self, Num, OrNull, Quoted, Value};
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Ledger schema
// ---------------------------------------------------------------------

/// One scenario's headline numbers, as recorded in a ledger line.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioNumbers {
    /// Scenario name (e.g. `closed_loop`, `poisson_open`, `flash_crowd`).
    pub name: String,
    /// Answered requests per wall second.
    pub requests_per_sec: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Fraction of offered load shed.
    pub shed_rate: f64,
    /// Allocations per answered request, when the run carried the
    /// counting allocator (`--features alloc-profile`); `None` otherwise.
    pub allocs_per_req: Option<f64>,
}

/// One recorded ledger line: a labelled set of scenario numbers taken
/// from one bench JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Caller-supplied label (a commit, a PR, "baseline", …).
    pub label: String,
    /// Which bench produced the numbers (`gateway` for E11).
    pub bench: String,
    /// Per-scenario headline numbers, in bench-file order.
    pub scenarios: Vec<ScenarioNumbers>,
}

fn num_field(obj: &Value, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

impl LedgerEntry {
    /// Extracts the headline numbers from a `BENCH_*.json` document
    /// (the `render_bench_json` schema: top-level `bench`, `config`,
    /// `scenarios`). `allocs_per_req` is read from `config` when the
    /// run recorded it.
    ///
    /// # Errors
    ///
    /// A message naming what failed to parse or which field is missing.
    pub fn from_bench_json(label: &str, text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let bench = doc
            .get("bench")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_owned();
        let allocs_per_req = doc
            .get("config")
            .and_then(|c| c.get("allocs_per_req"))
            .and_then(Value::as_f64);
        let raw = doc
            .get("scenarios")
            .and_then(Value::as_arr)
            .ok_or("bench json has no scenarios array")?;
        let mut scenarios = Vec::with_capacity(raw.len());
        for s in raw {
            scenarios.push(ScenarioNumbers {
                name: s
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("scenario without name")?
                    .to_owned(),
                requests_per_sec: num_field(s, "requests_per_sec")?,
                p50_ms: num_field(s, "p50_ms")?,
                p95_ms: num_field(s, "p95_ms")?,
                p99_ms: num_field(s, "p99_ms")?,
                shed_rate: num_field(s, "shed_rate")?,
                allocs_per_req,
            });
        }
        if scenarios.is_empty() {
            return Err("bench json has no scenarios".to_owned());
        }
        Ok(Self {
            label: label.to_owned(),
            bench,
            scenarios,
        })
    }

    /// Renders this entry as one ledger JSONL line (newline-terminated,
    /// fixed key order — byte-deterministic for identical numbers).
    pub fn to_jsonl_line(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"schema_version\":1,\"label\":{},\"bench\":{},\"scenarios\":[",
            Quoted(&self.label),
            Quoted(&self.bench)
        );
        for (i, s) in self.scenarios.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"name\":{},\"requests_per_sec\":{},\"p50_ms\":{},\"p95_ms\":{},\
                 \"p99_ms\":{},\"shed_rate\":{},\"allocs_per_req\":{}}}",
                Quoted(&s.name),
                Num(s.requests_per_sec),
                Num(s.p50_ms),
                Num(s.p95_ms),
                Num(s.p99_ms),
                Num(s.shed_rate),
                OrNull(s.allocs_per_req.map(Num)),
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Parses one ledger JSONL line.
    ///
    /// # Errors
    ///
    /// As [`json::parse`], plus missing-field messages.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let doc = json::parse(line)?;
        let raw = doc
            .get("scenarios")
            .and_then(Value::as_arr)
            .ok_or("ledger line has no scenarios array")?;
        let mut scenarios = Vec::with_capacity(raw.len());
        for s in raw {
            scenarios.push(ScenarioNumbers {
                name: s
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("scenario without name")?
                    .to_owned(),
                requests_per_sec: num_field(s, "requests_per_sec")?,
                p50_ms: num_field(s, "p50_ms")?,
                p95_ms: num_field(s, "p95_ms")?,
                p99_ms: num_field(s, "p99_ms")?,
                shed_rate: num_field(s, "shed_rate")?,
                allocs_per_req: s.get("allocs_per_req").and_then(Value::as_f64),
            });
        }
        Ok(Self {
            label: doc
                .get("label")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned(),
            bench: doc
                .get("bench")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_owned(),
            scenarios,
        })
    }
}

/// Parses a whole `ledger.jsonl` file (blank lines skipped), oldest
/// first.
///
/// # Errors
///
/// The first bad line's error, prefixed with its line number.
pub fn parse_ledger(text: &str) -> Result<Vec<LedgerEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        entries.push(LedgerEntry::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(entries)
}

/// Parses a tolerance argument: `15%` or `0.15` both mean ±15 %.
///
/// # Errors
///
/// Rejects non-numbers, negatives and NaN.
pub fn parse_tolerance(s: &str) -> Result<f64, String> {
    let (raw, percent) = match s.strip_suffix('%') {
        Some(stripped) => (stripped, true),
        None => (s, false),
    };
    let v: f64 = raw
        .trim()
        .parse()
        .map_err(|_| format!("bad tolerance {s:?} (use e.g. 15% or 0.15)"))?;
    let v = if percent { v / 100.0 } else { v };
    if !v.is_finite() || v < 0.0 {
        return Err(format!("bad tolerance {s:?} (must be >= 0)"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// `scenario/metric`, e.g. `closed_loop/p99_ms`.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Whether the move past tolerance is in the bad direction.
    pub regressed: bool,
}

impl Delta {
    fn relative_change(&self) -> f64 {
        if self.baseline.abs() < 1e-12 {
            if self.current.abs() < 1e-12 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.current - self.baseline) / self.baseline
        }
    }
}

/// The outcome of `bench compare`: every metric's delta plus the
/// regression verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Baseline entry label.
    pub baseline_label: String,
    /// Tolerance used (fraction).
    pub tolerance: f64,
    /// Every compared metric, in scenario order.
    pub deltas: Vec<Delta>,
    /// Scenarios present in exactly one side (compared as nothing,
    /// reported so a silently-dropped scenario is visible).
    pub unmatched: Vec<String>,
}

impl CompareReport {
    /// Whether any metric regressed past tolerance.
    pub fn regressed(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed)
    }

    /// A human-readable table: one line per metric, regressions marked.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(
            out,
            "bench compare vs {:?} (tolerance {:.0}%)",
            self.baseline_label,
            self.tolerance * 100.0
        );
        for d in &self.deltas {
            let change = d.relative_change();
            let pct = if change.is_finite() {
                format!("{:+.1}%", change * 100.0)
            } else {
                "new".to_owned()
            };
            let mark = if d.regressed { "  REGRESSED" } else { "" };
            let _ = writeln!(
                out,
                "  {:<28} {:>12.3} -> {:>12.3}  {pct}{mark}",
                d.metric, d.baseline, d.current
            );
        }
        for name in &self.unmatched {
            let _ = writeln!(out, "  {name:<28} (present in only one side)");
        }
        let _ = writeln!(
            out,
            "result: {}",
            if self.regressed() { "REGRESSION" } else { "ok" }
        );
        out
    }
}

/// Compares `current` against `baseline` with a relative `tolerance`.
///
/// Directionality per metric: latency (`p50/p95/p99`), shed rate and
/// allocations/request regress when they *rise* past tolerance;
/// throughput regresses when it *falls* past tolerance. Improvements
/// are never regressions. A shed rate whose baseline is 0 uses an
/// absolute floor of `tolerance` (e.g. 15% tolerance tolerates a shed
/// rate up to 0.15 from a clean baseline) — a relative threshold on a
/// zero baseline would flag any single shed request.
pub fn compare(baseline: &LedgerEntry, current: &LedgerEntry, tolerance: f64) -> CompareReport {
    let mut deltas = Vec::new();
    let mut unmatched = Vec::new();
    for b in &baseline.scenarios {
        let Some(c) = current.scenarios.iter().find(|c| c.name == b.name) else {
            unmatched.push(b.name.clone());
            continue;
        };
        let higher_is_worse = |metric: &str, base: f64, cur: f64| Delta {
            metric: format!("{}/{metric}", b.name),
            baseline: base,
            current: cur,
            regressed: cur > base * (1.0 + tolerance) + 1e-12
                && (base.abs() > 1e-12 || cur > tolerance),
        };
        deltas.push(Delta {
            metric: format!("{}/requests_per_sec", b.name),
            baseline: b.requests_per_sec,
            current: c.requests_per_sec,
            regressed: c.requests_per_sec < b.requests_per_sec * (1.0 - tolerance) - 1e-12,
        });
        deltas.push(higher_is_worse("p50_ms", b.p50_ms, c.p50_ms));
        deltas.push(higher_is_worse("p95_ms", b.p95_ms, c.p95_ms));
        deltas.push(higher_is_worse("p99_ms", b.p99_ms, c.p99_ms));
        deltas.push(higher_is_worse("shed_rate", b.shed_rate, c.shed_rate));
        if let (Some(ba), Some(ca)) = (b.allocs_per_req, c.allocs_per_req) {
            deltas.push(higher_is_worse("allocs_per_req", ba, ca));
        }
    }
    for c in &current.scenarios {
        if !baseline.scenarios.iter().any(|b| b.name == c.name) {
            unmatched.push(c.name.clone());
        }
    }
    CompareReport {
        baseline_label: baseline.label.clone(),
        tolerance,
        deltas,
        unmatched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bench JSON in the `render_bench_json` shape with adjustable
    /// latency scale.
    fn bench_json(latency_scale: f64, rps: f64) -> String {
        format!(
            "{{\n  \"schema_version\": 1,\n  \"bench\": \"gateway\",\n  \"config\": {{\n    \
             \"seed\": 7,\n    \"allocs_per_req\": 120.5\n  }},\n  \"breaker_trips\": 0,\n  \
             \"scenarios\": [\n    {{\"name\": \"closed_loop\", \"mode\": \"closed\", \
             \"offered\": 100, \"answered\": 100, \"shed\": 0, \"expired\": 0, \"errors\": 0, \
             \"wall_secs\": 1.0, \"requests_per_sec\": {rps:.2}, \"p50_ms\": {:.3}, \
             \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"shed_rate\": 0.0}}\n  ]\n}}\n",
            1.0 * latency_scale,
            2.0 * latency_scale,
            3.0 * latency_scale,
        )
    }

    #[test]
    fn ledger_lines_round_trip() {
        let entry = LedgerEntry::from_bench_json("baseline", &bench_json(1.0, 100.0)).unwrap();
        assert_eq!(entry.bench, "gateway");
        assert_eq!(entry.scenarios[0].allocs_per_req, Some(120.5));
        let line = entry.to_jsonl_line();
        assert!(line.ends_with('\n'));
        let back = LedgerEntry::parse_line(line.trim_end()).unwrap();
        assert_eq!(back, entry);
        // Two lines make a ledger; order is preserved.
        let two = format!("{line}{line}");
        assert_eq!(parse_ledger(&two).unwrap().len(), 2);
        // Byte determinism: same numbers, same line.
        let again = LedgerEntry::from_bench_json("baseline", &bench_json(1.0, 100.0)).unwrap();
        assert_eq!(again.to_jsonl_line(), line);
    }

    #[test]
    fn committed_ledger_lines_round_trip_byte_for_byte() {
        let text = include_str!("../../../results/ledger.jsonl");
        for line in text.lines().filter(|line| !line.trim().is_empty()) {
            let entry = LedgerEntry::parse_line(line).unwrap();
            assert_eq!(entry.to_jsonl_line(), format!("{line}\n"));
        }
    }

    #[test]
    fn labels_escape_as_every_json_string_does() {
        let mut entry = LedgerEntry::from_bench_json("x", &bench_json(1.0, 100.0)).unwrap();
        entry.label = "a\r\tb\"\u{1}".to_owned();
        let line = entry.to_jsonl_line();
        assert!(line.contains("\"label\":\"a\\r\\tb\\\"\\u0001\""), "{line}");
        assert_eq!(LedgerEntry::parse_line(line.trim_end()).unwrap(), entry);
    }

    #[test]
    fn tolerance_parses_percent_and_fraction() {
        assert_eq!(parse_tolerance("15%").unwrap(), 0.15);
        assert_eq!(parse_tolerance("0.15").unwrap(), 0.15);
        assert_eq!(parse_tolerance("0").unwrap(), 0.0);
        assert!(parse_tolerance("-5%").is_err());
        assert!(parse_tolerance("lots").is_err());
    }

    #[test]
    fn detects_injected_2x_latency_regression() {
        // The acceptance scenario: record a baseline, then hand compare a
        // run whose latencies doubled. 15% tolerance must flag it.
        let baseline = LedgerEntry::from_bench_json("baseline", &bench_json(1.0, 100.0)).unwrap();
        let slow = LedgerEntry::from_bench_json("candidate", &bench_json(2.0, 100.0)).unwrap();
        let report = compare(&baseline, &slow, 0.15);
        assert!(report.regressed());
        let bad: Vec<&str> = report
            .deltas
            .iter()
            .filter(|d| d.regressed)
            .map(|d| d.metric.as_str())
            .collect();
        assert_eq!(
            bad,
            vec![
                "closed_loop/p50_ms",
                "closed_loop/p95_ms",
                "closed_loop/p99_ms"
            ]
        );
        assert!(report.render().contains("REGRESSED"));
        assert!(report.render().contains("result: REGRESSION"));
    }

    #[test]
    fn tolerates_noise_within_band() {
        let baseline = LedgerEntry::from_bench_json("baseline", &bench_json(1.0, 100.0)).unwrap();
        let noisy = LedgerEntry::from_bench_json("candidate", &bench_json(1.1, 92.0)).unwrap();
        let report = compare(&baseline, &noisy, 0.15);
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.render().contains("result: ok"));
    }

    #[test]
    fn throughput_drop_regresses_but_rise_does_not() {
        let baseline = LedgerEntry::from_bench_json("baseline", &bench_json(1.0, 100.0)).unwrap();
        let slower = LedgerEntry::from_bench_json("c", &bench_json(1.0, 70.0)).unwrap();
        let report = compare(&baseline, &slower, 0.15);
        assert!(report.regressed());
        assert!(report
            .deltas
            .iter()
            .any(|d| d.metric == "closed_loop/requests_per_sec" && d.regressed));
        // Faster and lower-latency is never a regression.
        let faster = LedgerEntry::from_bench_json("c", &bench_json(0.5, 150.0)).unwrap();
        assert!(!compare(&baseline, &faster, 0.15).regressed());
    }

    #[test]
    fn zero_baseline_shed_rate_uses_absolute_floor() {
        let baseline = LedgerEntry::from_bench_json("baseline", &bench_json(1.0, 100.0)).unwrap();
        let mut small_shed = baseline.clone();
        small_shed.scenarios[0].shed_rate = 0.05;
        assert!(!compare(&baseline, &small_shed, 0.15).regressed());
        let mut big_shed = baseline.clone();
        big_shed.scenarios[0].shed_rate = 0.4;
        let report = compare(&baseline, &big_shed, 0.15);
        assert!(report
            .deltas
            .iter()
            .any(|d| d.metric == "closed_loop/shed_rate" && d.regressed));
    }

    #[test]
    fn unmatched_scenarios_are_reported_not_ignored() {
        let baseline = LedgerEntry::from_bench_json("baseline", &bench_json(1.0, 100.0)).unwrap();
        let mut renamed = baseline.clone();
        renamed.scenarios[0].name = "open_loop".to_owned();
        let report = compare(&baseline, &renamed, 0.15);
        assert!(!report.regressed());
        assert_eq!(report.unmatched, vec!["closed_loop", "open_loop"]);
        assert!(report.render().contains("only one side"));
    }

    #[test]
    fn missing_fields_error_cleanly() {
        assert!(LedgerEntry::from_bench_json("x", "{}").is_err());
        assert!(LedgerEntry::from_bench_json("x", "{\"scenarios\":[{\"name\":\"a\"}]}").is_err());
        assert!(LedgerEntry::parse_line("{\"scenarios\":\"nope\"}").is_err());
        assert!(parse_ledger("{}\n").is_err());
    }
}
