//! E15 — crash recovery under fault injection (extension).
//!
//! The durability counterpart to E10's request-path chaos: instead of
//! an unreliable upstream API, the *disk* misbehaves. Every run drives
//! the PR-10 [`StoreWriter`] over the fault-injecting [`MemIo`] — a
//! POSIX-pessimistic in-memory filesystem where unsynced bytes die on
//! reboot — kills it at a seeded I/O-operation index (before the op, a
//! torn write, or just after), reboots the disk, and reopens with
//! [`Store::open_with`]. The sweep crosses those seeded crash points
//! with every [`FsyncPolicy`] × crash-mode cell and scores what the
//! ack meant: rows acked vs rows recovered, acked rows lost, WAL rows
//! replayed, segments quarantined.
//!
//! The headline numbers are the durability floors the store promises:
//! `on-append` must lose **zero** acked rows at any crash point,
//! `on-flush` must keep every row whose segment flush was acked, and
//! even `never` must recover an ordered prefix of the appended stream
//! — recovery may shorten history but can never reorder or fabricate
//! it (the driver panics on a prefix violation rather than scoring
//! it). A separate corruption arm writes clean multi-segment stores,
//! flips one seeded bit per store, and checks the degrade contract:
//! `verify` flags the damage, `open` quarantines the bad segment and
//! serves the rest — never a failed open, never silently wrong rows.
//!
//! Determinism: the fault script is keyed on the mutating-op counter
//! and the workload performs the identical op sequence every run, so
//! the crash-point space is measured by a fault-free dry run and the
//! seeded points always land inside the append/flush path. Same seed
//! ⇒ byte-identical tables.

use fakeaudit_stats::rng::{derive_seed, splitmix64};
use fakeaudit_store::{
    verify_with, AuditRecord, CrashMode, FaultScript, FsyncPolicy, MemIo, Projection, ScanOptions,
    Store, StoreIo, StoreWriter,
};
use fakeaudit_telemetry::json::{bench_json, bench_rows, Quoted};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use super::Scale;

/// Store directory inside the simulated filesystem.
const DIR: &str = "/history";

/// Rows per flushed segment; small enough that every run crosses
/// several flush boundaries.
const THRESHOLD: usize = 5;

/// Segments per store in the corruption arm.
const CORRUPT_SEGMENTS: u64 = 6;

/// One `fsync policy × crash mode` cell of the sweep, aggregated over
/// every seeded crash point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCell {
    /// Fsync policy label (`never` / `on-flush` / `on-append`).
    pub fsync: String,
    /// Crash mode label (`before` / `torn` / `after`).
    pub mode: String,
    /// Crash points swept (one crashed run each).
    pub runs: u64,
    /// Mutating I/O ops a fault-free run performs — the space the
    /// seeded crash points are drawn from.
    pub op_space: u64,
    /// Appends acked across all runs (the writer returned `Ok`).
    pub rows_acked: u64,
    /// Rows covered by acked segment flushes across all runs.
    pub rows_flush_acked: u64,
    /// Rows present after reboot + recovery across all runs.
    pub rows_recovered: u64,
    /// Σ max(0, acked − recovered): acked rows the crash destroyed.
    pub acked_rows_lost: u64,
    /// Worst single-run acked loss.
    pub max_acked_lost: u64,
    /// Σ max(0, flush-acked − recovered): flushed rows destroyed.
    pub flushed_rows_lost: u64,
    /// Acked rows replayed from WAL tails during recovery.
    pub wal_rows_recovered: u64,
    /// Segments quarantined during recovery (torn flushes land as
    /// `.tmp` removals, not quarantines, so this stays 0 here).
    pub quarantined_segments: u64,
}

/// The corruption arm: one seeded bit flip per clean multi-segment
/// store, then verify + reopen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionSummary {
    /// Stores written and flipped (one bit each).
    pub flips: u64,
    /// Rows each store held before the flip.
    pub rows_per_store: u64,
    /// Flips `verify` reported as corruption before any repair.
    pub verify_flagged: u64,
    /// `Store::open` calls that failed (the contract demands 0).
    pub opens_failed: u64,
    /// Segments quarantined across all reopens.
    pub quarantined_segments: u64,
    /// Rows still served across all reopens (around the quarantine).
    pub rows_served: u64,
    /// Rows expected if every flip costs exactly its one segment.
    pub rows_expected: u64,
}

/// Outcome of the E15 crash-recovery sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashRecoveryResult {
    /// One row per `fsync × mode` cell, in sweep order.
    pub cells: Vec<CrashCell>,
    /// The seeded-bit-flip corruption arm.
    pub corruption: CorruptionSummary,
    /// Crash points sampled per cell.
    pub crash_points: u64,
    /// Rows each crashed run tries to append.
    pub rows_per_run: u64,
    /// Flush threshold (rows per segment).
    pub flush_threshold: u64,
}

/// A distinct, recognisable row: `trace_id` carries the append index,
/// which is how recovery's prefix property is checked.
fn row(i: u64) -> AuditRecord {
    AuditRecord {
        target: 100 + i % 5,
        ts_micros: i as i64 * 45_000_000,
        tool: ["FC", "TA", "SP", "SB"][(i % 4) as usize].to_string(),
        verdict: ["fake", "inactive", "genuine"][(i % 3) as usize].to_string(),
        outcome: "completed".to_string(),
        fake_ratio: i as f64,
        fake_count: i * 3,
        sample_size: 900,
        api_calls: 4,
        trace_id: i,
    }
}

/// Appends `rows` rows (or as many as the injected fault allows) and
/// returns (acked appends, rows covered by acked flushes).
fn drive_writer(io: &Arc<MemIo>, fsync: FsyncPolicy, rows: u64) -> (u64, u64) {
    let mut writer =
        StoreWriter::open_with(Arc::clone(io) as Arc<dyn StoreIo>, DIR, THRESHOLD, fsync)
            .expect("open on pristine dir performs no mutating I/O");
    let mut acked = 0u64;
    let mut flush_acked = 0u64;
    for i in 0..rows {
        match writer.append(row(i)) {
            Ok(flush) => {
                acked += 1;
                if let Some(info) = flush {
                    flush_acked += info.rows as u64;
                }
            }
            Err(_) => break,
        }
    }
    (acked, flush_acked)
}

/// What one reboot + recovery yielded.
struct Recovered {
    rows: u64,
    wal_rows: u64,
    quarantined: u64,
}

/// Reopens the rebooted disk and enforces the prefix property: the
/// recovered `trace_id`s must be exactly `0..n` in order.
fn recover(io: &MemIo, label: &str) -> Recovered {
    let store = Store::open_with(io, Path::new(DIR))
        .unwrap_or_else(|e| panic!("{label}: recovery must never fail open: {e}"));
    let scan = store
        .scan(&ScanOptions {
            projection: Projection::all(),
            ..ScanOptions::default()
        })
        .expect("scan after recovery");
    for (pos, r) in scan.rows.iter().enumerate() {
        assert_eq!(
            r.trace_id, pos as u64,
            "{label}: recovered rows must be the appended prefix"
        );
    }
    let rec = store.recovery();
    Recovered {
        rows: scan.rows.len() as u64,
        wal_rows: rec.wal_rows_recovered,
        quarantined: rec.quarantined.len() as u64,
    }
}

/// Sweeps one `fsync × mode` cell over `points` seeded crash ops.
fn run_cell(
    seed: u64,
    fsync: FsyncPolicy,
    mode: CrashMode,
    mode_label: &str,
    rows: u64,
    points: u64,
) -> CrashCell {
    // Fault-free dry run: how many mutating ops does the full workload
    // perform under this policy? Crash points land inside that space.
    let dry = MemIo::shared(FaultScript::default());
    let (dry_acked, _) = drive_writer(&dry, fsync, rows);
    assert_eq!(dry_acked, rows, "fault-free run must ack every row");
    let op_space = dry.op_count();
    assert!(op_space > 0);

    let cell_seed = derive_seed(seed, &format!("e15-{}-{mode_label}", fsync.as_str()));
    let mut cell = CrashCell {
        fsync: fsync.as_str().to_string(),
        mode: mode_label.to_string(),
        runs: points,
        op_space,
        rows_acked: 0,
        rows_flush_acked: 0,
        rows_recovered: 0,
        acked_rows_lost: 0,
        max_acked_lost: 0,
        flushed_rows_lost: 0,
        wal_rows_recovered: 0,
        quarantined_segments: 0,
    };
    for k in 0..points {
        let mut state = cell_seed.wrapping_add(k);
        let crash_at = 1 + splitmix64(&mut state) % op_space;
        let io = MemIo::shared(FaultScript {
            crash_at_op: Some(crash_at),
            crash_mode: Some(mode),
            ..FaultScript::default()
        });
        let (acked, flush_acked) = drive_writer(&io, fsync, rows);
        io.reboot();
        let label = format!(
            "fsync={} mode={mode_label} crash_at={crash_at}",
            fsync.as_str()
        );
        let rec = recover(io.as_ref(), &label);
        cell.rows_acked += acked;
        cell.rows_flush_acked += flush_acked;
        cell.rows_recovered += rec.rows;
        let lost = acked.saturating_sub(rec.rows);
        cell.acked_rows_lost += lost;
        cell.max_acked_lost = cell.max_acked_lost.max(lost);
        cell.flushed_rows_lost += flush_acked.saturating_sub(rec.rows);
        cell.wal_rows_recovered += rec.wal_rows;
        cell.quarantined_segments += rec.quarantined;
    }
    cell
}

/// The corruption arm: clean store, one seeded bit flip in one segment,
/// then `verify` (must flag it) and `open` (must quarantine and serve).
fn run_corruption(seed: u64, flips: u64) -> CorruptionSummary {
    let rows = CORRUPT_SEGMENTS * THRESHOLD as u64;
    let arm_seed = derive_seed(seed, "e15-corruption");
    let mut summary = CorruptionSummary {
        flips,
        rows_per_store: rows,
        verify_flagged: 0,
        opens_failed: 0,
        quarantined_segments: 0,
        rows_served: 0,
        rows_expected: flips * (rows - THRESHOLD as u64),
    };
    for k in 0..flips {
        let io = MemIo::shared(FaultScript::default());
        let (acked, flushed) = drive_writer(&io, FsyncPolicy::OnFlush, rows);
        assert_eq!(
            (acked, flushed),
            (rows, rows),
            "clean store must flush fully"
        );

        let mut segments: Vec<String> = io
            .list(Path::new(DIR))
            .expect("list store dir")
            .into_iter()
            .filter(|n| n.ends_with(".fas"))
            .collect();
        segments.sort();
        assert_eq!(segments.len() as u64, CORRUPT_SEGMENTS);
        let mut state = arm_seed.wrapping_add(k);
        let r = splitmix64(&mut state);
        let victim = Path::new(DIR).join(&segments[(r % CORRUPT_SEGMENTS) as usize]);
        let len = io.read(&victim).expect("read victim").len();
        let mut state = r;
        io.flip_bit(
            &victim,
            (splitmix64(&mut state) % len as u64) as usize,
            (r % 8) as u8,
        );

        let report = verify_with(io.as_ref(), Path::new(DIR)).expect("verify walks the dir");
        if !report.issues.is_empty() {
            summary.verify_flagged += 1;
        }
        match Store::open_with(io.as_ref(), Path::new(DIR)) {
            Ok(store) => {
                summary.quarantined_segments += store.recovery().quarantined.len() as u64;
                summary.rows_served += store.total_rows();
            }
            Err(_) => summary.opens_failed += 1,
        }
    }
    summary
}

/// Runs the E15 crash-recovery sweep.
///
/// # Panics
///
/// Panics if recovery ever fails to open or yields anything other than
/// an ordered prefix of the appended stream — those are store bugs, not
/// outcomes to score.
pub fn run_crash_recovery(scale: Scale, seed: u64) -> CrashRecoveryResult {
    let quick = scale.materialize_cap < 10_000;
    let rows_per_run: u64 = if quick { 32 } else { 96 };
    let crash_points: u64 = if quick { 10 } else { 24 };
    let flips: u64 = if quick { 8 } else { 24 };

    let modes = [
        (CrashMode::Before, "before"),
        (CrashMode::Torn(0.5), "torn"),
        (CrashMode::After, "after"),
    ];
    let mut cells = Vec::new();
    for fsync in [
        FsyncPolicy::Never,
        FsyncPolicy::OnFlush,
        FsyncPolicy::OnAppend,
    ] {
        for (mode, label) in modes {
            cells.push(run_cell(
                seed,
                fsync,
                mode,
                label,
                rows_per_run,
                crash_points,
            ));
        }
    }

    CrashRecoveryResult {
        cells,
        corruption: run_corruption(seed, flips),
        crash_points,
        rows_per_run,
        flush_threshold: THRESHOLD as u64,
    }
}

/// Renders the sweep table.
pub fn render(r: &CrashRecoveryResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E15: crash recovery under fault injection ({} seeded crash points per cell, \
         {} rows/run, flush threshold {})",
        r.crash_points, r.rows_per_run, r.flush_threshold
    );
    let _ = writeln!(
        out,
        "{:<11}{:<8}{:>6}{:>6}{:>8}{:>9}{:>10}{:>6}{:>9}{:>9}{:>9}",
        "fsync",
        "mode",
        "runs",
        "ops",
        "acked",
        "flushed",
        "recovered",
        "lost",
        "maxlost",
        "flshlost",
        "walrows"
    );
    for c in &r.cells {
        let _ = writeln!(
            out,
            "{:<11}{:<8}{:>6}{:>6}{:>8}{:>9}{:>10}{:>6}{:>9}{:>9}{:>9}",
            c.fsync,
            c.mode,
            c.runs,
            c.op_space,
            c.rows_acked,
            c.rows_flush_acked,
            c.rows_recovered,
            c.acked_rows_lost,
            c.max_acked_lost,
            c.flushed_rows_lost,
            c.wal_rows_recovered,
        );
    }
    let cr = &r.corruption;
    let _ = writeln!(
        out,
        "corruption: {} seeded bit flips over {}-row stores — verify flagged {}, \
         opens failed {}, quarantined {}, rows served {}/{}",
        cr.flips,
        cr.rows_per_store,
        cr.verify_flagged,
        cr.opens_failed,
        cr.quarantined_segments,
        cr.rows_served,
        cr.flips * cr.rows_per_store,
    );
    let _ = writeln!(
        out,
        "reading order: `lost` is the durability headline — it must be 0 on every \
         on-append row (the ack was a promise) and `flshlost` 0 on every on-flush row; \
         `never` rows show what skipping fsync costs at the worst crash point. `walrows` \
         is recovery doing its job: acked-but-unflushed rows replayed from the journal. \
         The corruption line is the degrade contract: flips are detected by verify and \
         quarantined at open — never a failed open."
    );
    out
}

/// Refuses a sweep that documents a broken durability promise: an
/// `on-append` acked-row loss, a flush-acked loss under a syncing
/// policy, a corrupted segment that failed an open, or a seeded bit
/// flip `verify` missed.
///
/// # Errors
///
/// Names the first broken promise.
pub fn check(r: &CrashRecoveryResult) -> Result<(), String> {
    for c in &r.cells {
        if c.fsync == "on-append" && c.acked_rows_lost != 0 {
            return Err(format!(
                "{}/{}: on-append lost {} acked rows — the ack is broken",
                c.fsync, c.mode, c.acked_rows_lost
            ));
        }
        if c.fsync != "never" && c.flushed_rows_lost != 0 {
            return Err(format!(
                "{}/{}: lost {} rows whose flush was acked",
                c.fsync, c.mode, c.flushed_rows_lost
            ));
        }
    }
    let cr = &r.corruption;
    if cr.opens_failed != 0 {
        return Err("a corrupted segment failed Store::open instead of degrading".into());
    }
    if cr.verify_flagged != cr.flips {
        return Err("verify missed a seeded bit flip".into());
    }
    Ok(())
}

/// Renders the sweep as `results/BENCH_recovery.json`.
pub fn render_json(seed: u64, r: &CrashRecoveryResult) -> String {
    let config = [
        ("seed", seed.to_string()),
        ("crash_points", r.crash_points.to_string()),
        ("rows_per_run", r.rows_per_run.to_string()),
        ("flush_threshold", r.flush_threshold.to_string()),
    ];
    let rows: Vec<String> = r
        .cells
        .iter()
        .map(|c| {
            format!(
                "{{\"fsync\": {}, \"mode\": {}, \"runs\": {}, \"op_space\": {}, \
                 \"rows_acked\": {}, \"rows_flush_acked\": {}, \"rows_recovered\": {}, \
                 \"acked_rows_lost\": {}, \"max_acked_lost\": {}, \"flushed_rows_lost\": {}, \
                 \"wal_rows_recovered\": {}, \"quarantined_segments\": {}}}",
                Quoted(&c.fsync),
                Quoted(&c.mode),
                c.runs,
                c.op_space,
                c.rows_acked,
                c.rows_flush_acked,
                c.rows_recovered,
                c.acked_rows_lost,
                c.max_acked_lost,
                c.flushed_rows_lost,
                c.wal_rows_recovered,
                c.quarantined_segments,
            )
        })
        .collect();
    let cr = &r.corruption;
    let corruption = format!(
        "{{\"flips\": {}, \"rows_per_store\": {}, \"verify_flagged\": {}, \
         \"opens_failed\": {}, \"quarantined_segments\": {}, \"rows_served\": {}, \
         \"rows_expected\": {}}}",
        cr.flips,
        cr.rows_per_store,
        cr.verify_flagged,
        cr.opens_failed,
        cr.quarantined_segments,
        cr.rows_served,
        cr.rows_expected,
    );
    bench_json(
        "recovery",
        &config,
        &[("scenarios", bench_rows(&rows)), ("corruption", corruption)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn result() -> &'static CrashRecoveryResult {
        static RESULT: OnceLock<CrashRecoveryResult> = OnceLock::new();
        RESULT.get_or_init(|| run_crash_recovery(Scale::quick(), 42))
    }

    #[test]
    fn sweep_covers_every_policy_and_mode() {
        let r = result();
        assert_eq!(r.cells.len(), 9);
        for fsync in ["never", "on-flush", "on-append"] {
            for mode in ["before", "torn", "after"] {
                assert!(
                    r.cells.iter().any(|c| c.fsync == fsync && c.mode == mode),
                    "missing cell {fsync}/{mode}"
                );
            }
        }
        assert!(r.cells.iter().all(|c| c.runs == r.crash_points));
    }

    #[test]
    fn on_append_never_loses_acked_rows() {
        for c in result().cells.iter().filter(|c| c.fsync == "on-append") {
            assert_eq!(
                c.acked_rows_lost, 0,
                "{}/{}: on-append lost acked rows",
                c.fsync, c.mode
            );
            assert_eq!(c.max_acked_lost, 0);
        }
    }

    #[test]
    fn on_flush_never_loses_flush_acked_rows() {
        for c in result().cells.iter().filter(|c| c.fsync != "never") {
            assert_eq!(
                c.flushed_rows_lost, 0,
                "{}/{}: lost rows whose flush was acked",
                c.fsync, c.mode
            );
        }
    }

    #[test]
    fn corruption_degrades_instead_of_failing_open() {
        let cr = &result().corruption;
        assert_eq!(cr.opens_failed, 0, "a bit flip must never fail Store::open");
        assert_eq!(cr.verify_flagged, cr.flips, "verify must flag every flip");
        assert_eq!(cr.quarantined_segments, cr.flips, "one quarantine per flip");
        assert_eq!(cr.rows_served, cr.rows_expected, "serve everything else");
    }

    #[test]
    fn same_seed_same_table() {
        let again = run_crash_recovery(Scale::quick(), 42);
        assert_eq!(&again, result());
        assert_eq!(render(&again), render(result()));
    }

    #[test]
    fn check_refuses_every_broken_promise() {
        fn cell<'a>(r: &'a mut CrashRecoveryResult, fsync: &str) -> &'a mut CrashCell {
            r.cells.iter_mut().find(|c| c.fsync == fsync).unwrap()
        }
        assert_eq!(check(result()), Ok(()));
        let mut lossy_never = result().clone();
        cell(&mut lossy_never, "never").flushed_rows_lost += 1;
        assert_eq!(check(&lossy_never), Ok(()), "never promises nothing");

        type Break = fn(&mut CrashRecoveryResult);
        let broken: [(Break, &str); 4] = [
            (
                |r| cell(r, "on-append").acked_rows_lost = 1,
                "the ack is broken",
            ),
            (
                |r| cell(r, "on-flush").flushed_rows_lost = 1,
                "whose flush was acked",
            ),
            (|r| r.corruption.opens_failed = 1, "failed Store::open"),
            (
                |r| r.corruption.verify_flagged -= 1,
                "missed a seeded bit flip",
            ),
        ];
        for (breaks, says) in broken {
            let mut r = result().clone();
            breaks(&mut r);
            let err = check(&r).unwrap_err();
            assert!(err.contains(says), "{err:?} should say {says:?}");
        }
    }
}
