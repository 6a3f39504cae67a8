//! Property tests for the columnar store: whatever the record stream and
//! flush cadence, (1) reading a store back yields exactly the appended
//! records in append order, (2) a time/target-windowed scan returns
//! exactly what filtering a full scan would — zone-map pruning may skip
//! work but never rows — (3) identical record streams produce
//! byte-identical segment files, (4) any prefix truncation or single
//! bit flip of a segment is rejected at parse with a `DecodeError` —
//! never a panic, never silently wrong rows — (5) WAL replay is
//! idempotent under arbitrary tail damage, (6) every query kind,
//! folded over segment batches, renders the same JSON and table bytes
//! as a row-at-a-time oracle over `Store::scan`, (7) so does every
//! kind answered from cached per-segment partials: cold, warm, after
//! other widths evicted them, and over the same rows compacted into one
//! segment, with each segment's cached bytes within its encoded bytes,
//! and (8) so does every kind over windows that cut sealed segments,
//! before their timestamps are cached, once they are, and after
//! partials evicted them.
//!
//! Each property runs on `fakeaudit_check`'s seeded runner: case `i`
//! draws its input from seed `i`, and a failing case prints the
//! property, the case, the seed and the input it drew.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fakeaudit_check::{check, Rng};
use fakeaudit_store::queries::{
    self, Cell, ExactSum, QueryKind, QueryOptions, QueryReport, TopkBy,
};
use fakeaudit_store::{
    bucket_of, compact_with, encode_segment, wal, AuditRecord, FsyncPolicy, MemIo, Projection,
    ScanOptions, ScanStats, Segment, SharedIo, Store, StoreWriter,
};

/// Cases per property.
const CASES: u64 = 64;

/// Between `lo` and `hi - 1` records.
fn records(rng: &mut Rng, lo: usize, hi: usize) -> Vec<AuditRecord> {
    let n = rng.range(lo..hi);
    (0..n).map(|_| record(rng)).collect()
}

/// A plausible audit row: small target/label spaces so dictionaries
/// and zone maps actually get exercised, timestamps wide enough to
/// cover both sim (epoch-relative) and wall clocks.
fn record(rng: &mut Rng) -> AuditRecord {
    AuditRecord {
        target: rng.below(40),
        ts_micros: rng.range(-1_000_000_000..1_000_000_000_000_000),
        tool: rng.pick(&["FC", "TA", "SP", "SB"]).to_string(),
        verdict: rng.pick(&["fake", "inactive", "genuine"]).to_string(),
        outcome: rng.pick(&["completed", "degraded_stale"]).to_string(),
        fake_ratio: rng.unit() * 100.0,
        fake_count: rng.below(10_000),
        sample_size: rng.range(1..10_000),
        api_calls: rng.below(500),
        trace_id: rng.below(1_000_000),
    }
}

/// A fresh scratch directory per case.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "fakeaudit-store-prop-{}-{tag}-{n}",
        std::process::id()
    ))
}

/// Writes `records` at the given flush threshold and closes the writer
/// with a final flush.
fn write_store(dir: &Path, records: &[AuditRecord], threshold: usize) {
    let mut writer = StoreWriter::open(dir, threshold).expect("open writer");
    for r in records {
        writer.append(r.clone()).expect("append");
    }
    if !records.is_empty() {
        writer.flush().expect("final flush");
    }
}

/// Every column of the rows `opts` selects, with the scan's accounting.
fn scan_records(store: &Store, opts: ScanOptions) -> (Vec<AuditRecord>, ScanStats) {
    let scan = store
        .scan(&ScanOptions {
            projection: Projection::all(),
            ..opts
        })
        .expect("scan");
    let records = scan
        .rows
        .iter()
        .map(|row| AuditRecord {
            target: row.target,
            ts_micros: row.ts_micros,
            tool: row.tool.to_owned(),
            verdict: row.verdict.to_owned(),
            outcome: row.outcome.to_owned(),
            fake_ratio: row.fake_ratio,
            fake_count: row.fake_count,
            sample_size: row.sample_size,
            api_calls: row.api_calls,
            trace_id: row.trace_id,
        })
        .collect();
    (records, scan.stats)
}

#[test]
fn round_trips_any_flush_cadence() {
    check(
        "round_trips_any_flush_cadence",
        CASES,
        |rng| (records(rng, 0, 160), rng.range(1..64usize)),
        |(records, threshold)| {
            let dir = scratch_dir("roundtrip");
            write_store(&dir, records, *threshold);
            let store = Store::open(&dir).expect("open store");
            assert_eq!(store.total_rows(), records.len() as u64);
            assert_eq!(&scan_records(&store, ScanOptions::default()).0, records);
            std::fs::remove_dir_all(&dir).ok();
        },
    );
}

#[test]
fn windowed_scan_equals_filtered_full_scan() {
    check(
        "windowed_scan_equals_filtered_full_scan",
        CASES,
        |rng| {
            let records = records(rng, 1, 160);
            let threshold = rng.range(1..48usize);
            let a = rng.range(-1_000_000_000..1_000_000_000_000_000i64);
            let b = rng.range(-1_000_000_000..1_000_000_000_000_000i64);
            let target = rng.coin().then(|| rng.below(40));
            (records, threshold, (a.min(b), a.max(b)), target)
        },
        |(records, threshold, (since, until), target)| {
            let dir = scratch_dir("window");
            write_store(&dir, records, *threshold);
            let store = Store::open(&dir).expect("open store");

            let (got, stats) = scan_records(
                &store,
                ScanOptions {
                    since_micros: Some(*since),
                    until_micros: Some(*until),
                    target: *target,
                    ..ScanOptions::default()
                },
            );
            let expected: Vec<AuditRecord> = records
                .iter()
                .filter(|r| {
                    r.ts_micros >= *since
                        && r.ts_micros <= *until
                        && target.is_none_or(|t| r.target == t)
                })
                .cloned()
                .collect();

            // Pruning may skip whole segments but must never change results.
            assert_eq!(got, expected);

            // Work accounting conserves rows: every stored row is either
            // scanned or pruned, and selections come only from scanned ones.
            assert_eq!(stats.rows_scanned + stats.rows_pruned, records.len() as u64);
            assert_eq!(stats.rows_selected, got.len() as u64);
            assert!(stats.rows_selected <= stats.rows_scanned);
            assert!(stats.segments_pruned <= stats.segments_total);
            std::fs::remove_dir_all(&dir).ok();
        },
    );
}

#[test]
fn identical_streams_write_identical_bytes() {
    check(
        "identical_streams_write_identical_bytes",
        CASES,
        |rng| (records(rng, 1, 100), rng.range(1..32usize)),
        |(records, threshold)| {
            let (dir_a, dir_b) = (scratch_dir("bytes-a"), scratch_dir("bytes-b"));
            write_store(&dir_a, records, *threshold);
            write_store(&dir_b, records, *threshold);
            let mut names: Vec<String> = std::fs::read_dir(&dir_a)
                .expect("read dir")
                .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
                .collect();
            names.sort();
            assert!(!names.is_empty());
            for name in &names {
                let a = std::fs::read(dir_a.join(name)).expect("read a");
                let b = std::fs::read(dir_b.join(name)).expect("read b");
                assert_eq!(a, b, "{name} differs between identical streams");
            }
            std::fs::remove_dir_all(&dir_a).ok();
            std::fs::remove_dir_all(&dir_b).ok();
        },
    );
}

#[test]
fn truncated_segments_are_rejected_not_misread() {
    check(
        "truncated_segments_are_rejected_not_misread",
        CASES,
        |rng| (records(rng, 1, 60), rng.unit()),
        |(records, cut)| {
            let bytes = encode_segment(records);
            // Any strict prefix, from empty to one-byte-short.
            let keep = ((bytes.len() - 1) as f64 * cut) as usize;
            assert!(
                Segment::parse(bytes[..keep].to_vec()).is_err(),
                "a {keep}-byte prefix of a {}-byte segment parsed",
                bytes.len()
            );
        },
    );
}

#[test]
fn bit_flipped_segments_are_rejected_not_misread() {
    check(
        "bit_flipped_segments_are_rejected_not_misread",
        CASES,
        |rng| (records(rng, 1, 60), rng.unit(), rng.below(8) as u8),
        |(records, pos, bit)| {
            let mut bytes = encode_segment(records);
            let offset = ((bytes.len() - 1) as f64 * pos) as usize;
            bytes[offset] ^= 1 << bit;
            // The footer CRC covers every byte before it and is itself the
            // final word, so any single flipped bit must fail the parse.
            assert!(
                Segment::parse(bytes).is_err(),
                "flipping bit {bit} at offset {offset} went undetected"
            );
        },
    );
}

#[test]
fn wal_replay_is_idempotent_under_tail_damage() {
    check(
        "wal_replay_is_idempotent_under_tail_damage",
        CASES,
        |rng| {
            let records = records(rng, 0, 40);
            // `cut` spans 0..=1; about one case in ten keeps the whole
            // journal.
            let cut = if rng.below(10) == 0 { 1.0 } else { rng.unit() };
            let flip = rng.coin().then(|| (rng.unit(), rng.below(8) as u8));
            (records, cut, flip)
        },
        |(records, cut, flip)| {
            let mut buf = wal::encode_entries(records);
            let keep = (buf.len() as f64 * cut) as usize;
            buf.truncate(keep);
            if let (Some((pos, bit)), false) = (flip, buf.is_empty()) {
                let offset = ((buf.len() - 1) as f64 * pos) as usize;
                buf[offset] ^= 1 << bit;
            }
            let once = wal::replay(&buf);
            // Pure replay: a second pass agrees exactly.
            assert_eq!(wal::replay(&buf), once);
            // Consolidation round-trip: re-journaling the recovered prefix
            // and replaying it recovers the same rows with nothing torn —
            // so recovery-after-recovery never changes the store.
            let rewritten = wal::encode_entries(&once.records);
            let twice = wal::replay(&rewritten);
            assert_eq!(twice.records, once.records);
            assert_eq!(twice.discarded_bytes, 0);
            // And the recovered rows are a prefix of what was journaled.
            assert_eq!(once.records.as_slice(), &records[..once.records.len()]);
        },
    );
}

/// The four kinds as they were computed before the batch fold: each
/// materializes its rows with [`Store::scan`] and aggregates one row at
/// a time into ordered maps. Ratio sums add into an [`ExactSum`] and
/// round once per mean, as the queries do.
mod oracle {
    use super::*;

    fn scan_opts(opts: &QueryOptions, projection: Projection) -> ScanOptions {
        ScanOptions {
            since_micros: opts.since_secs.map(|s| s.saturating_mul(1_000_000)),
            until_micros: opts
                .until_secs
                .map(|s| s.saturating_mul(1_000_000).saturating_add(999_999)),
            target: None,
            projection,
        }
    }

    pub fn run(store: &Store, kind: QueryKind, opts: &QueryOptions) -> io::Result<QueryReport> {
        match kind {
            QueryKind::Timeseries => timeseries(store, opts),
            QueryKind::Drift => drift(store, opts),
            QueryKind::Retention => retention(store, opts),
            QueryKind::Topk => topk(store, opts),
        }
    }

    fn timeseries(store: &Store, opts: &QueryOptions) -> io::Result<QueryReport> {
        let scan = store.scan(&scan_opts(
            opts,
            Projection {
                ts: true,
                target: true,
                fake_ratio: true,
                ..Projection::none()
            },
        ))?;
        let mut groups: BTreeMap<(i64, u64), (ExactSum, u64)> = BTreeMap::new();
        for row in &scan.rows {
            let bucket = bucket_of(row.ts_micros, opts.bucket_secs);
            let entry = groups.entry((bucket, row.target)).or_default();
            entry.0.add(row.fake_ratio);
            entry.1 += 1;
        }
        let bucket_secs = opts.bucket_secs.max(1);
        let rows = groups
            .into_iter()
            .map(|((bucket, target), (sum, count))| {
                vec![
                    Cell::Int(bucket * bucket_secs),
                    Cell::UInt(target),
                    Cell::UInt(count),
                    Cell::Float(sum.value() / count as f64),
                ]
            })
            .collect();
        Ok(QueryReport {
            kind: QueryKind::Timeseries,
            columns: vec!["bucket_start_secs", "target", "audits", "mean_fake_ratio"],
            rows,
            stats: scan.stats,
        })
    }

    fn drift(store: &Store, opts: &QueryOptions) -> io::Result<QueryReport> {
        let scan = store.scan(&scan_opts(
            opts,
            Projection {
                ts: true,
                target: true,
                tool: true,
                verdict: true,
                ..Projection::none()
            },
        ))?;
        let mut group_of: BTreeMap<(i64, u64), usize> = BTreeMap::new();
        let mut tallies: Vec<Vec<(&str, &str, u64)>> = Vec::new();
        for row in &scan.rows {
            let bucket = bucket_of(row.ts_micros, opts.bucket_secs);
            let group = *group_of.entry((bucket, row.target)).or_insert_with(|| {
                tallies.push(Vec::new());
                tallies.len() - 1
            });
            let tally = &mut tallies[group];
            match tally
                .iter_mut()
                .find(|(tool, verdict, _)| *tool == row.tool && *verdict == row.verdict)
            {
                Some((_, _, audits)) => *audits += 1,
                None => tally.push((row.tool, row.verdict, 1)),
            }
        }
        let mut per_tool: BTreeMap<(i64, &str), (u64, u64)> = BTreeMap::new();
        for (&(bucket, _), &group) in &group_of {
            let tally = &tallies[group];
            let mut votes: BTreeMap<&str, u64> = BTreeMap::new();
            for &(_, verdict, audits) in tally {
                *votes.entry(verdict).or_insert(0) += audits;
            }
            let mut majority = ("", 0u64);
            for (&verdict, &count) in &votes {
                if count > majority.1 {
                    majority = (verdict, count);
                }
            }
            for &(tool, verdict, audits) in tally {
                let entry = per_tool.entry((bucket, tool)).or_insert((0, 0));
                entry.0 += audits;
                if verdict != majority.0 {
                    entry.1 += audits;
                }
            }
        }
        let bucket_secs = opts.bucket_secs.max(1);
        let rows = per_tool
            .into_iter()
            .map(|((bucket, tool), (audits, disagreements))| {
                vec![
                    Cell::Int(bucket * bucket_secs),
                    Cell::Str(tool.to_owned()),
                    Cell::UInt(audits),
                    Cell::Float(disagreements as f64 / audits as f64),
                ]
            })
            .collect();
        Ok(QueryReport {
            kind: QueryKind::Drift,
            columns: vec!["bucket_start_secs", "tool", "audits", "disagree_ratio"],
            rows,
            stats: scan.stats,
        })
    }

    fn retention(store: &Store, opts: &QueryOptions) -> io::Result<QueryReport> {
        let scan = store.scan(&scan_opts(
            opts,
            Projection {
                ts: true,
                target: true,
                fake_count: true,
                ..Projection::none()
            },
        ))?;
        let mut flagged_in: BTreeMap<u64, BTreeSet<i64>> = BTreeMap::new();
        let mut first_seen: BTreeMap<u64, i64> = BTreeMap::new();
        let mut max_bucket = i64::MIN;
        for row in &scan.rows {
            let bucket = bucket_of(row.ts_micros, opts.bucket_secs);
            max_bucket = max_bucket.max(bucket);
            first_seen
                .entry(row.target)
                .and_modify(|b| *b = (*b).min(bucket))
                .or_insert(bucket);
            if row.fake_count > 0 {
                flagged_in.entry(row.target).or_default().insert(bucket);
            }
        }
        let mut cohorts: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
        for (&target, &bucket) in &first_seen {
            if flagged_in.get(&target).is_some_and(|b| b.contains(&bucket)) {
                cohorts.entry(bucket).or_default().push(target);
            }
        }
        let bucket_secs = opts.bucket_secs.max(1);
        let max_steps = i64::try_from(opts.k.max(1)).unwrap_or(i64::MAX);
        let mut rows = Vec::new();
        for (cohort_bucket, members) in &cohorts {
            let size = members.len() as u64;
            let horizon = (max_bucket - cohort_bucket).min(max_steps);
            for step in 0..=horizon {
                let at = cohort_bucket + step;
                let still = members
                    .iter()
                    .filter(|t| flagged_in.get(t).is_some_and(|b| b.contains(&at)))
                    .count() as u64;
                rows.push(vec![
                    Cell::Int(cohort_bucket * bucket_secs),
                    Cell::UInt(size),
                    Cell::Int(step),
                    Cell::UInt(still),
                    Cell::Float(still as f64 / size as f64),
                ]);
            }
        }
        Ok(QueryReport {
            kind: QueryKind::Retention,
            columns: vec![
                "cohort_start_secs",
                "cohort_size",
                "step",
                "still_flagged",
                "retained_ratio",
            ],
            rows,
            stats: scan.stats,
        })
    }

    fn topk(store: &Store, opts: &QueryOptions) -> io::Result<QueryReport> {
        let scan = store.scan(&scan_opts(
            opts,
            Projection {
                ts: true,
                target: true,
                fake_ratio: true,
                api_calls: true,
                ..Projection::none()
            },
        ))?;
        let mut per_target: BTreeMap<u64, (ExactSum, u64, u64)> = BTreeMap::new();
        for row in &scan.rows {
            let entry = per_target.entry(row.target).or_default();
            entry.0.add(row.fake_ratio);
            entry.1 += 1;
            entry.2 += row.api_calls;
        }
        let mut ranked: Vec<(u64, f64, u64, u64)> = per_target
            .into_iter()
            .map(|(target, (sum, audits, cost))| {
                (target, sum.value() / audits as f64, audits, cost)
            })
            .collect();
        ranked.sort_by(|a, b| {
            let key = match opts.by {
                TopkBy::Ratio => b.1.total_cmp(&a.1),
                TopkBy::Cost => b.3.cmp(&a.3),
            };
            key.then(a.0.cmp(&b.0))
        });
        ranked.truncate(opts.k.max(1));
        let rows = ranked
            .into_iter()
            .enumerate()
            .map(|(i, (target, mean, audits, cost))| {
                vec![
                    Cell::UInt(i as u64 + 1),
                    Cell::UInt(target),
                    Cell::UInt(audits),
                    Cell::Float(mean),
                    Cell::UInt(cost),
                ]
            })
            .collect();
        Ok(QueryReport {
            kind: QueryKind::Topk,
            columns: vec![
                "rank",
                "target",
                "audits",
                "mean_fake_ratio",
                "total_api_calls",
            ],
            rows,
            stats: scan.stats,
        })
    }
}

/// `n` rows over 12 targets starting 200 s before the epoch, so buckets
/// straddle zero. Each row steps -3 s to +9 s from the last, so about a
/// quarter of adjacent rows go back in time, within a segment as well
/// as across one. About a third of the rows are unflagged
/// (`fake_count` 0), which `retention` needs to see drop-offs.
fn history(rng: &mut Rng, n: usize) -> Vec<AuditRecord> {
    let mut ts = -200_000_000i64;
    (0..n)
        .map(|i| {
            ts += rng.range(-3_000_000..9_000_000i64);
            AuditRecord {
                target: 1 + rng.below(12),
                ts_micros: ts,
                tool: rng.pick(&["FC", "TA", "SP", "SB"]).to_owned(),
                verdict: rng.pick(&["fake", "inactive", "genuine"]).to_owned(),
                outcome: rng.pick(&["completed", "degraded_stale"]).to_owned(),
                fake_ratio: rng.below(10_000) as f64 / 100.0,
                fake_count: rng.below(3).min(1) * rng.below(400),
                sample_size: 500,
                api_calls: 1 + rng.below(20),
                trace_id: i as u64,
            }
        })
        .collect()
}

/// The grid bucket {1, 7, 60, 300, 100 000} × five windows ×
/// k {1, 3, 10, `usize::MAX`} × both `by`, over the options each kind
/// reads: `timeseries` and `drift` the bucket, `retention` the bucket
/// and k, `topk` k and `by`. The windows are the whole history, an
/// open end, an open start, the middle half, and one past the last row.
fn query_grid(store: &Store) -> Vec<(QueryKind, QueryOptions)> {
    let (lo, hi) = store.ts_bounds().expect("a non-empty history");
    let (lo, hi) = (lo.div_euclid(1_000_000), hi.div_euclid(1_000_000));
    let span = hi - lo;
    let windows = [
        (None, None),
        (Some(lo + span / 3), None),
        (None, Some(lo + span / 2)),
        (Some(lo + span / 4), Some(lo + 3 * span / 4)),
        (Some(hi + 1), Some(hi + 600)),
    ];
    let mut grid = Vec::new();
    for (since_secs, until_secs) in windows {
        let window = QueryOptions {
            since_secs,
            until_secs,
            ..QueryOptions::default()
        };
        for bucket_secs in [1, 7, 60, 300, 100_000] {
            let bucketed = QueryOptions {
                bucket_secs,
                ..window
            };
            grid.push((QueryKind::Timeseries, bucketed));
            grid.push((QueryKind::Drift, bucketed));
            for k in [1, 3, 10, usize::MAX] {
                grid.push((QueryKind::Retention, QueryOptions { k, ..bucketed }));
            }
        }
        for k in [1, 3, 10, usize::MAX] {
            for by in [TopkBy::Ratio, TopkBy::Cost] {
                grid.push((QueryKind::Topk, QueryOptions { k, by, ..window }));
            }
        }
    }
    grid
}

#[test]
fn folded_queries_equal_the_row_oracle() {
    // Three histories per threshold: 1 flushes every row, 7 leaves a
    // buffered tail of 1–5 rows (162–166 rows), 1 024 keeps every row in
    // the tail. The snapshot serves the tail as a trailing segment.
    for threshold in [1, 7, 1024] {
        for round in 0..3u64 {
            let seed = round * 1_000 + threshold as u64;
            let rng = &mut Rng::new(seed);
            let n = 162 + rng.below(5) as usize;
            let rows = history(rng, n);
            let mut writer = StoreWriter::open_with(
                Arc::new(MemIo::new()) as SharedIo,
                "/history",
                threshold,
                FsyncPolicy::OnFlush,
            )
            .expect("open on a fresh disk");
            for row in &rows {
                writer.append(row.clone()).expect("fault-free append");
            }
            assert_eq!(writer.health().buffered_rows > 0, threshold > 1);
            let store = writer.snapshot();
            for (kind, opts) in query_grid(&store) {
                let folded = queries::run(&store, kind, &opts).expect("folded query");
                let oracle = oracle::run(&store, kind, &opts).expect("oracle query");
                let label = format!("threshold {threshold}, seed {seed}, {kind} {opts:?}");
                assert_eq!(folded.to_json(), oracle.to_json(), "{label}");
                assert_eq!(folded.to_table(), oracle.to_table(), "{label}");
            }
        }
    }
}

/// [`history`] with about one ratio in five far outside 0–100: a
/// multiple of 1e17 of either sign, next to which a rounded sum loses
/// the ordinary ratios, or a tiny one below 1e-6. Any sum that rounds
/// before the exact total shows in the 4-decimal means.
fn history_with_outliers(rng: &mut Rng, n: usize) -> Vec<AuditRecord> {
    let mut rows = history(rng, n);
    for row in &mut rows {
        match rng.below(10) {
            0 => row.fake_ratio = rng.range(-3..4i64) as f64 * 1e17,
            1 => row.fake_ratio = rng.range(1..1_000u64) as f64 * 1e-9,
            _ => {}
        }
    }
    rows
}

/// A query's JSON, its table, and its rows.
fn answer(store: &Store, kind: QueryKind, opts: &QueryOptions) -> (String, String, Vec<Vec<Cell>>) {
    let report = queries::run(store, kind, opts).expect("query");
    (report.to_json(), report.to_table(), report.rows)
}

/// The oracle's JSON and table for the same query.
fn oracle_answer(store: &Store, kind: QueryKind, opts: &QueryOptions) -> (String, String) {
    let report = oracle::run(store, kind, opts).expect("oracle query");
    (report.to_json(), report.to_table())
}

/// Every segment's cached bytes, partials and timestamps together, are
/// within its encoded bytes.
fn assert_within_bound(store: &Store, label: &str) {
    for (seq, cached, encoded) in store.partial_cache_bytes() {
        assert!(
            cached <= encoded,
            "{label}: segment {seq} caches {cached} B of partials and timestamps over its {encoded} B"
        );
    }
}

/// Appends `rows` at `threshold` to a writer on a fresh simulated disk.
fn writer_with(io: &Arc<MemIo>, rows: &[AuditRecord], threshold: usize) -> StoreWriter {
    let mut writer = StoreWriter::open_with(
        Arc::clone(io) as SharedIo,
        "/history",
        threshold,
        FsyncPolicy::OnFlush,
    )
    .expect("open on a fresh disk");
    for row in rows {
        writer.append(row.clone()).expect("fault-free append");
    }
    writer
}

#[test]
fn cached_partials_answer_as_the_exact_oracle() {
    // Threshold 1 seals every row in its own segment, whose budget holds
    // one small partial, so every new width evicts the last; 7 leaves a
    // short tail; 1 024 seals two segments and leaves a tail.
    let dir = Path::new("/history");
    for (threshold, n) in [(1, 120), (7, 160), (1024, 2_300)] {
        let seed = 7_000 + threshold as u64;
        let rows = history_with_outliers(&mut Rng::new(seed), n);
        let io = Arc::new(MemIo::new());
        let writer = writer_with(&io, &rows, threshold);
        let warm = writer.snapshot();
        let grid = query_grid(&warm);
        let mut fresh_answers = Vec::new();
        for (kind, opts) in &grid {
            let label = format!("threshold {threshold}, seed {seed}, {kind} {opts:?}");
            // A fresh open caches nothing until this query.
            let fresh_store = Store::open_with(&*io, dir).expect("fresh open");
            let fresh = answer(&fresh_store, *kind, opts);
            let (json, table) = oracle_answer(&fresh_store, *kind, opts);
            assert_eq!(fresh.0, json, "{label}");
            assert_eq!(fresh.1, table, "{label}");
            // The writer's segments build their partials, then serve them.
            assert_eq!(answer(&warm, *kind, opts), fresh, "{label}, cold snapshot");
            assert_eq!(answer(&warm, *kind, opts), fresh, "{label}, warm snapshot");
            fresh_answers.push(fresh);
        }
        assert_within_bound(&warm, &format!("threshold {threshold}"));
        // Backwards, each query finds the partials the widths after it
        // evicted. A new snapshot shares the writer's caches.
        let again = writer.snapshot();
        for ((kind, opts), fresh) in grid.iter().zip(&fresh_answers).rev() {
            let label = format!("threshold {threshold}, seed {seed}, {kind} {opts:?}");
            assert_eq!(
                answer(&again, *kind, opts),
                *fresh,
                "{label}, after eviction"
            );
        }
        assert_within_bound(&again, &format!("threshold {threshold}"));

        // The same rows in one compacted segment: the same rows out, and
        // the oracle's bytes, stats included, over that store.
        drop((writer, warm, again));
        compact_with(&*io, dir).expect("compact");
        let compacted = Store::open_with(&*io, dir).expect("open the compacted store");
        assert_eq!(compacted.segment_count(), 1);
        for ((kind, opts), fresh) in grid.iter().zip(&fresh_answers) {
            let label = format!("threshold {threshold}, seed {seed}, {kind} {opts:?}");
            let (json, table, rows) = answer(&compacted, *kind, opts);
            assert_eq!(
                (json, table),
                oracle_answer(&compacted, *kind, opts),
                "{label}"
            );
            assert_eq!(rows, fresh.2, "{label}, compacted");
        }
        assert_within_bound(&compacted, &format!("threshold {threshold}, compacted"));
    }
}

/// Whether the window of whole seconds `since..=until` reaches `rows`'
/// segment without covering it: the segment a query selects rows from
/// by its timestamps.
fn cuts(rows: &[AuditRecord], (since, until): (i64, i64)) -> bool {
    let ts = rows.iter().map(|r| r.ts_micros);
    let (lo, hi) = (ts.clone().min().unwrap(), ts.max().unwrap());
    let (since, until) = (since * 1_000_000, until * 1_000_000 + 999_999);
    lo <= until && hi >= since && (lo < since || hi > until)
}

/// The bytes each segment caches after `kind` runs over a fresh open.
fn cached_after(io: &MemIo, kind: QueryKind, opts: &QueryOptions) -> Vec<usize> {
    let store = Store::open_with(io, Path::new("/history")).expect("fresh open");
    answer(&store, kind, opts);
    let cached = store.partial_cache_bytes();
    cached.iter().map(|&(_, bytes, _)| bytes).collect()
}

#[test]
fn cached_timestamps_answer_as_the_exact_oracle() {
    // Each window runs from one second past a sealed segment's earliest
    // row to its latest, so it cuts that segment, whose rows step back
    // in time. A one-row segment is covered or pruned whole, so
    // threshold 2 writes the smallest segments a window can cut; their
    // budget cannot hold the timestamps beside a `retention` partial,
    // so each evicts the other. 7 and 128 leave a tail as well.
    let dir = Path::new("/history");
    for (threshold, n) in [(2, 120), (7, 160), (128, 700)] {
        let seed = 9_000 + threshold as u64;
        let rows = history_with_outliers(&mut Rng::new(seed), n);
        let io = Arc::new(MemIo::new());
        let writer = writer_with(&io, &rows, threshold);
        let segments: Vec<&[AuditRecord]> = rows.chunks(threshold).collect();
        let sealed = &segments[..rows.len() / threshold];
        let secs = |row: &AuditRecord| row.ts_micros.div_euclid(1_000_000);
        let windows: Vec<(i64, i64)> = sealed
            .iter()
            .filter(|seg| seg.windows(2).any(|w| w[1].ts_micros < w[0].ts_micros))
            .map(|seg| {
                let lo = seg.iter().map(secs).min().unwrap();
                (lo + 1, seg.iter().map(secs).max().unwrap())
            })
            .filter(|&(since, until)| since <= until)
            .take(8)
            .collect();
        assert!(windows.len() >= 4, "threshold {threshold}: {windows:?}");
        let queries: Vec<(QueryKind, QueryOptions)> = windows
            .iter()
            .flat_map(|&(since, until)| {
                let window = QueryOptions {
                    since_secs: Some(since),
                    until_secs: Some(until),
                    ..QueryOptions::default()
                };
                [
                    (QueryKind::Timeseries, 1, 10, TopkBy::Ratio),
                    (QueryKind::Timeseries, 60, 10, TopkBy::Ratio),
                    (QueryKind::Drift, 7, 10, TopkBy::Ratio),
                    (QueryKind::Retention, 60, 3, TopkBy::Ratio),
                    (QueryKind::Topk, 60, 3, TopkBy::Cost),
                ]
                .map(|(kind, bucket_secs, k, by)| {
                    let opts = QueryOptions {
                        bucket_secs,
                        k,
                        by,
                        ..window
                    };
                    (kind, opts)
                })
            })
            .collect();

        // What a whole-history `retention` partial costs each segment.
        let retention = cached_after(&io, QueryKind::Retention, &QueryOptions::default());
        let warm = writer.snapshot();
        let mut fresh_answers = Vec::new();
        for (kind, opts) in &queries {
            let label = format!("threshold {threshold}, seed {seed}, {kind} {opts:?}");
            let window = (opts.since_secs.unwrap(), opts.until_secs.unwrap());
            // Opening decodes nothing. The first answer caches each cut
            // sealed segment's timestamps, which the bound counts; the
            // tail segment caches nothing.
            let fresh_store = Store::open_with(&*io, dir).expect("fresh open");
            let cached = fresh_store.partial_cache_bytes();
            assert!(cached.iter().all(|&(_, bytes, _)| bytes == 0), "{label}");
            let fresh = answer(&fresh_store, *kind, opts);
            let cached = fresh_store.partial_cache_bytes();
            for (i, (segment, &(seq, bytes, encoded))) in segments.iter().zip(&cached).enumerate() {
                if segment.len() < threshold {
                    assert_eq!(bytes, 0, "{label}: the tail segment {seq} caches");
                } else if cuts(segment, window) {
                    let column = size_of::<Vec<i64>>() + segment.len() * size_of::<i64>();
                    assert!(bytes > column, "{label}: segment {seq} caches {bytes} B");
                    assert!(
                        threshold > 2 || (retention[i] > 0 && bytes + retention[i] > encoded),
                        "{label}: segment {seq} holds {bytes} B of timestamps and {} B of \
                         partials in {encoded} B",
                        retention[i]
                    );
                }
            }
            assert_within_bound(&fresh_store, &label);
            let (json, table) = oracle_answer(&fresh_store, *kind, opts);
            assert_eq!(fresh.0, json, "{label}");
            assert_eq!(fresh.1, table, "{label}");
            // The writer's snapshot caches the timestamps, then selects
            // from them.
            assert_eq!(answer(&warm, *kind, opts), fresh, "{label}, cold snapshot");
            assert_eq!(answer(&warm, *kind, opts), fresh, "{label}, warm snapshot");
            assert_within_bound(&warm, &label);
            fresh_answers.push(fresh);
        }

        // Partials of the whole history at every width land in every
        // segment, evicting timestamps where the budget is short: at
        // threshold 2, always.
        for bucket_secs in [1, 7, 60, 300, 100_000] {
            for kind in [QueryKind::Retention, QueryKind::Timeseries] {
                let opts = QueryOptions {
                    bucket_secs,
                    ..QueryOptions::default()
                };
                answer(&warm, kind, &opts);
            }
        }
        assert_within_bound(&warm, &format!("threshold {threshold}"));
        let again = writer.snapshot();
        for ((kind, opts), fresh) in queries.iter().zip(&fresh_answers).rev() {
            let label = format!("threshold {threshold}, seed {seed}, {kind} {opts:?}");
            assert_eq!(
                answer(&again, *kind, opts),
                *fresh,
                "{label}, after eviction"
            );
            assert_within_bound(&again, &label);
        }
    }
}

#[test]
fn a_thousand_widths_keep_each_segment_within_its_bytes() {
    // As a client can with `?bucket=`: every width from 1 to 1 000, over
    // five sealed segments of 128 rows and a tail.
    let rows = history_with_outliers(&mut Rng::new(1_000), 700);
    let io = Arc::new(MemIo::new());
    let writer = writer_with(&io, &rows, 128);
    let snapshot = writer.snapshot();
    let kinds = [
        QueryKind::Timeseries,
        QueryKind::Drift,
        QueryKind::Retention,
    ];
    for bucket_secs in 1..=1_000i64 {
        let kind = kinds[bucket_secs as usize % kinds.len()];
        let opts = QueryOptions {
            bucket_secs,
            ..QueryOptions::default()
        };
        let (json, table, _) = answer(&snapshot, kind, &opts);
        let label = format!("{kind} at bucket {bucket_secs}");
        assert_eq!(
            (json, table),
            oracle_answer(&snapshot, kind, &opts),
            "{label}"
        );
        assert_within_bound(&snapshot, &label);
    }
    assert!(
        snapshot
            .partial_cache_bytes()
            .iter()
            .any(|&(_, cached, _)| cached > 0),
        "some partials fit their segment's budget"
    );
}

#[test]
fn one_row_groups_keep_each_segment_within_its_bytes() {
    // Every row its own target and second: at any width each row is its
    // own (bucket, target) group, and its own topk target.
    let rows: Vec<AuditRecord> = history(&mut Rng::new(2_000), 300)
        .into_iter()
        .enumerate()
        .map(|(i, row)| AuditRecord {
            target: i as u64,
            ts_micros: i as i64 * 1_000_000,
            ..row
        })
        .collect();
    let io = Arc::new(MemIo::new());
    let writer = writer_with(&io, &rows, 64);
    let snapshot = writer.snapshot();
    for (kind, opts) in query_grid(&snapshot) {
        let label = format!("{kind} {opts:?}");
        for _ in 0..2 {
            let (json, table, _) = answer(&snapshot, kind, &opts);
            assert_eq!(
                (json, table),
                oracle_answer(&snapshot, kind, &opts),
                "{label}"
            );
            assert_within_bound(&snapshot, &label);
        }
    }
}
