//! Analytical queries over a [`Store`](crate::Store).
//!
//! Each kind lives in its own module as one fold from a segment's
//! selected rows into a mergeable partial, plus a render of the merged
//! partials. A query merges the partials of every segment its window
//! reaches, in segment order ([`partial`] says which come from a cache
//! and which are folded afresh). A fold decodes only the columns it
//! reads and keys per-target state by the segment's target codes, so
//! its ordered group map is consulted once per (segment, group) rather
//! than once per row.
//!
//! Ratio sums are [`ExactSum`]s, rounded once when a mean is formed, so
//! an answer does not depend on how rows fell into segments, on what is
//! cached, or on `store compact`. Results are deterministic: group keys
//! are ordered and every tie-break is explicit, so a fixed store yields
//! byte-identical JSON and table renderings.

mod drift;
mod exact;
mod partial;
mod retention;
mod timeseries;
mod topk;

use fakeaudit_telemetry::json::Quoted;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io;
use std::str::FromStr;

pub use exact::ExactSum;
pub(crate) use partial::PartialCache;

use crate::store::{bucket_of, ScanOptions, ScanStats, SegmentBatch, Store};

/// The available query kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Mean fake-ratio per target over time buckets.
    Timeseries,
    /// Per-tool disagreement with the per-target majority verdict.
    Drift,
    /// Cohorts of flagged targets still flagged N buckets later.
    Retention,
    /// Targets ranked by fake ratio or crawl cost.
    Topk,
}

impl QueryKind {
    /// Every kind, in CLI listing order.
    pub const ALL: [QueryKind; 4] = [
        QueryKind::Timeseries,
        QueryKind::Drift,
        QueryKind::Retention,
        QueryKind::Topk,
    ];

    /// The CLI / URL name.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryKind::Timeseries => "timeseries",
            QueryKind::Drift => "drift",
            QueryKind::Retention => "retention",
            QueryKind::Topk => "topk",
        }
    }
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for QueryKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "timeseries" => Ok(QueryKind::Timeseries),
            "drift" => Ok(QueryKind::Drift),
            "retention" => Ok(QueryKind::Retention),
            "topk" => Ok(QueryKind::Topk),
            other => Err(format!(
                "unknown query kind '{other}' (expected timeseries|drift|retention|topk)"
            )),
        }
    }
}

/// Ranking key for [`QueryKind::Topk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopkBy {
    /// Mean fake-follower ratio (default).
    #[default]
    Ratio,
    /// Total crawl cost in API calls.
    Cost,
}

impl FromStr for TopkBy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ratio" => Ok(TopkBy::Ratio),
            "cost" => Ok(TopkBy::Cost),
            other => Err(format!("unknown topk key '{other}' (expected ratio|cost)")),
        }
    }
}

/// Shared query parameters. Time bounds are inclusive whole seconds on
/// the store clock.
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// Keep rows at or after this second.
    pub since_secs: Option<i64>,
    /// Keep rows at or before this second.
    pub until_secs: Option<i64>,
    /// Time-bucket width in seconds for timeseries/drift/retention.
    pub bucket_secs: i64,
    /// Result cap for topk; maximum cohort steps for retention.
    pub k: usize,
    /// Ranking key for topk.
    pub by: TopkBy,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            since_secs: None,
            until_secs: None,
            bucket_secs: 60,
            k: 10,
            by: TopkBy::Ratio,
        }
    }
}

impl QueryOptions {
    /// Reads `since`, `until`, `bucket`, `k` and `by` through `param`:
    /// `/query`'s URL parameters or `fakeaudit query`'s flags. An absent
    /// one keeps its default.
    ///
    /// # Errors
    ///
    /// Names the first value that does not parse, or a `bucket` or `k`
    /// that is not positive.
    pub fn from_params<'a>(param: impl Fn(&str) -> Option<&'a str>) -> Result<Self, String> {
        fn read<T: FromStr>(
            raw: Option<&str>,
            key: &str,
            want: &str,
            valid: impl Fn(&T) -> bool,
        ) -> Result<Option<T>, String> {
            raw.map(|raw| {
                raw.parse()
                    .ok()
                    .filter(&valid)
                    .ok_or_else(|| format!("bad {key} {raw:?} (want {want})"))
            })
            .transpose()
        }
        let defaults = Self::default();
        Ok(Self {
            since_secs: read(param("since"), "since", "integer seconds", |_| true)?,
            until_secs: read(param("until"), "until", "integer seconds", |_| true)?,
            bucket_secs: read(
                param("bucket"),
                "bucket",
                "positive integer seconds",
                |&b| b > 0,
            )?
            .unwrap_or(defaults.bucket_secs),
            k: read(param("k"), "k", "positive integer", |&k| k > 0)?.unwrap_or(defaults.k),
            by: param("by")
                .map(str::parse)
                .transpose()?
                .unwrap_or(defaults.by),
        })
    }

    pub(crate) fn since_micros(&self) -> Option<i64> {
        self.since_secs.map(|s| s.saturating_mul(1_000_000))
    }

    pub(crate) fn until_micros(&self) -> Option<i64> {
        // Inclusive second bound => include every micro inside it.
        self.until_secs
            .map(|s| s.saturating_mul(1_000_000).saturating_add(999_999))
    }

    /// The scan every kind runs: the query's window, every target.
    fn scan_options(&self) -> ScanOptions {
        ScanOptions {
            since_micros: self.since_micros(),
            until_micros: self.until_micros(),
            ..ScanOptions::default()
        }
    }
}

/// Accumulators under ordered group keys. Rows fold into a dense `Vec`
/// by slot; the ordered index is touched only to resolve a key's slot,
/// and gives the output its key order.
#[derive(Debug, Default)]
struct Groups<K, V> {
    index: BTreeMap<K, usize>,
    values: Vec<V>,
}

impl<K: Ord + Copy, V: Default> Groups<K, V> {
    /// The slot of `key`, with a default accumulator if `key` is new.
    fn slot(&mut self, key: K) -> usize {
        let next = self.values.len();
        let slot = *self.index.entry(key).or_insert(next);
        if slot == next {
            self.values.push(V::default());
        }
        slot
    }

    /// The accumulator in `slot`.
    fn get_mut(&mut self, slot: usize) -> &mut V {
        &mut self.values[slot]
    }

    /// The `(key, accumulator)` pairs in key order.
    fn into_sorted(mut self) -> Vec<(K, V)> {
        self.index
            .iter()
            .map(|(&key, &slot)| (key, std::mem::take(&mut self.values[slot])))
            .collect()
    }
}

/// The bucket of a target's latest row, with the microsecond span the
/// bucket covers, so a later row inside the span needs no division.
#[derive(Debug, Clone, Copy)]
struct BucketMemo {
    start: i64,
    end: i64,
    bucket: i64,
}

impl BucketMemo {
    /// Remembers no bucket: every timestamp falls outside its span.
    const EMPTY: Self = Self {
        start: 0,
        end: 0,
        bucket: 0,
    };

    /// Moves the memo to the bucket of `ts`. Returns whether it had to
    /// compute that bucket, which may be the one it held before.
    #[inline]
    fn update(&mut self, ts: i64, bucket_secs: i64) -> bool {
        if self.start <= ts && ts < self.end {
            return false;
        }
        let bucket = bucket_of(ts, bucket_secs);
        // Bucket b covers [b * w, (b + 1) * w) seconds. A span past the
        // i64 range stays empty, so each row recomputes its bucket.
        let width = bucket_secs.max(1).checked_mul(1_000_000);
        let start = width.and_then(|w| bucket.checked_mul(w));
        let end = start.zip(width).and_then(|(s, w)| s.checked_add(w));
        *self = match start.zip(end) {
            Some((start, end)) => Self { start, end, bucket },
            None => Self {
                bucket,
                ..Self::EMPTY
            },
        };
        true
    }
}

/// Folds each selected row of `batch`, in row order, into the
/// accumulator of its `(bucket, target)` group, and returns the groups
/// in key order. A table indexed by target code remembers the bucket
/// and slot of that code's previous row, so the ordered index is
/// consulted only when a target's bucket changes: about once per group,
/// not once per row.
fn fold_buckets<V: Default>(
    batch: &SegmentBatch<'_>,
    bucket_secs: i64,
    mut fold: impl FnMut(&mut V, usize),
) -> io::Result<Vec<((i64, u64), V)>> {
    let (targets, codes) = batch.targets()?;
    let ts = batch.ts()?;
    let mut groups = Groups::default();
    let mut last = vec![(BucketMemo::EMPTY, 0); targets.len()];
    for &row in batch.selected() {
        let code = codes[row] as usize;
        let (memo, slot) = &mut last[code];
        if memo.update(ts[row], bucket_secs) {
            *slot = groups.slot((memo.bucket, targets[code]));
        }
        fold(groups.get_mut(*slot), row);
    }
    Ok(groups.into_sorted())
}

/// Merges per-segment entry lists, each sorted by key, into one list
/// sorted by key, combining the values of equal keys. The sort is
/// stable and finds the runs a time-ordered history already has.
fn merge_sorted<'p, K: Ord + Copy + 'p, V: Clone + 'p>(
    parts: impl IntoIterator<Item = &'p [(K, V)]>,
    mut combine: impl FnMut(&mut V, &V),
) -> Vec<(K, V)> {
    let mut all: Vec<&(K, V)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|entry| entry.0);
    let mut merged: Vec<(K, V)> = Vec::with_capacity(all.len());
    for (key, value) in all {
        match merged.last_mut() {
            Some((last, acc)) if last == key => combine(acc, value),
            _ => merged.push((*key, value.clone())),
        }
    }
    merged
}

/// One typed cell of a query result, with a deterministic rendering
/// shared by the JSON and table outputs (floats fixed to 4 decimals).
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A signed integer (bucket starts, cohort ids).
    Int(i64),
    /// An unsigned integer (targets, counts).
    UInt(u64),
    /// A ratio or mean, rendered `%.4f`.
    Float(f64),
    /// A label.
    Str(String),
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::UInt(v) => v.to_string(),
            Cell::Float(v) => {
                let mut out = String::new();
                write_fixed4(&mut out, *v);
                out
            }
            Cell::Str(s) => s.clone(),
        }
    }

    /// Appends the cell's JSON value to `out`. Writing into a `String`
    /// never fails, so the `fmt::Result`s are dropped.
    fn write_json(&self, out: &mut String) {
        match self {
            Cell::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Cell::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Cell::Float(v) if v.is_finite() => write_fixed4(out, *v),
            Cell::Float(_) => out.push_str("null"),
            Cell::Str(s) => {
                let _ = write!(out, "{}", Quoted(s));
            }
        }
    }
}

/// Appends `v` exactly as `format!("{v:.4}")` would: the exact decimal
/// value of the binary `v`, rounded half to even at the fourth decimal,
/// with the `-` of a negative that rounds to zero kept. Values outside
/// [`scaled_by_10k`]'s range go through `core::fmt` itself.
fn write_fixed4(out: &mut String, v: f64) {
    let Some(scaled) = scaled_by_10k(v) else {
        let _ = write!(out, "{v:.4}");
        return;
    };
    // Filled from the end: four decimals, the point, then at most 20
    // integer digits and the sign.
    let mut buf = [0u8; 26];
    let mut at = buf.len();
    let (mut int, mut frac) = (scaled / 10_000, scaled % 10_000);
    for _ in 0..4 {
        at -= 1;
        buf[at] = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    at -= 1;
    buf[at] = b'.';
    loop {
        at -= 1;
        buf[at] = b'0' + (int % 10) as u8;
        int /= 10;
        if int == 0 {
            break;
        }
    }
    if v.is_sign_negative() {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// |v| · 10⁴, rounded half to even, when `v` is finite and that fits a
/// `u64`. `v` is m · 2^e for a 53-bit m, so the product m · 10⁴ fits a
/// `u128` and shifting it right by −e gives the quotient and the exact
/// remainder the rounding reads. Any e ≥ 0 has |v| ≥ 2^52, past the
/// range.
fn scaled_by_10k(v: f64) -> Option<u64> {
    if !v.is_finite() {
        return None;
    }
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (mantissa, exp) = match biased {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, biased - 1075),
    };
    if exp >= 0 {
        return None;
    }
    let product = u128::from(mantissa) * 10_000;
    let shift = exp.unsigned_abs();
    if shift >= 128 {
        // The product is below 2^67, so under half of 2^shift.
        return Some(0);
    }
    let quotient = product >> shift;
    let rest = product & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    let up = rest > half || (rest == half && quotient & 1 == 1);
    u64::try_from(quotient + u128::from(up)).ok()
}

/// A finished query: column names, rows of cells, and the scan work it
/// took to produce them.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Which query ran.
    pub kind: QueryKind,
    /// Column names, in row-cell order.
    pub columns: Vec<&'static str>,
    /// Result rows.
    pub rows: Vec<Vec<Cell>>,
    /// Scan accounting (segments pruned, rows scanned, ...).
    pub stats: ScanStats,
}

impl QueryReport {
    /// Renders the report as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        // Room for each cell's name and a typical value, so the buffer
        // rarely grows.
        let per_row: usize = self.columns.iter().map(|c| c.len() + 16).sum();
        let mut out = String::with_capacity(160 + self.rows.len() * per_row);
        out.push_str("{\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"rows\":[");
        for (ri, row) in self.rows.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            out.push('{');
            for (ci, cell) in row.iter().enumerate() {
                if ci > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(self.columns[ci]);
                out.push_str("\":");
                cell.write_json(&mut out);
            }
            out.push('}');
        }
        let s = &self.stats;
        let _ = write!(
            out,
            "],\"stats\":{{\"segments_total\":{},\"segments_pruned\":{},\"rows_scanned\":{},\"rows_pruned\":{},\"rows_selected\":{}}}}}",
            s.segments_total, s.segments_pruned, s.rows_scanned, s.rows_pruned, s.rows_selected
        );
        out
    }

    /// Renders the report as an aligned plain-text table followed by a
    /// one-line scan summary.
    pub fn to_table(&self) -> String {
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::render).collect())
            .collect();
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, col) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{col:>width$}", width = widths[i]));
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "# {} rows · scanned {} rows in {}/{} segments ({} rows pruned)\n",
            self.rows.len(),
            self.stats.rows_scanned,
            self.stats.segments_total - self.stats.segments_pruned,
            self.stats.segments_total,
            self.stats.rows_pruned
        ));
        out
    }
}

/// Runs `kind` against `store` with `opts`.
///
/// # Errors
///
/// I/O or `InvalidData` errors from the underlying scan.
pub fn run(store: &Store, kind: QueryKind, opts: &QueryOptions) -> io::Result<QueryReport> {
    match kind {
        QueryKind::Timeseries => timeseries::run(store, opts),
        QueryKind::Drift => drift::run(store, opts),
        QueryKind::Retention => retention::run(store, opts),
        QueryKind::Topk => topk::run(store, opts),
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::record::AuditRecord;
    use crate::store::{Store, StoreWriter};
    use std::path::PathBuf;

    /// Writes `records` into a throwaway store dir with the given flush
    /// threshold and opens it for reading. Caller removes the dir.
    pub fn store_with(records: &[AuditRecord], threshold: usize, tag: &str) -> (Store, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("fakeaudit-query-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = StoreWriter::open(&dir, threshold).unwrap();
        for r in records {
            w.append(r.clone()).unwrap();
        }
        w.flush().unwrap();
        (Store::open(&dir).unwrap(), dir)
    }

    /// A small mixed-history fixture: two targets, two tools, three time
    /// buckets at 60 s width.
    pub fn mixed_records() -> Vec<AuditRecord> {
        let mut out = Vec::new();
        // bucket 0 (0..60 s): both targets flagged.
        for (target, tool, verdict, ratio, fakes) in [
            (1u64, "FC", "fake", 80.0, 400u64),
            (1, "TA", "fake", 70.0, 350),
            (2, "FC", "genuine", 10.0, 50),
            (2, "TA", "fake", 60.0, 300),
        ] {
            out.push(AuditRecord {
                target,
                ts_micros: (out.len() as i64) * 1_000_000,
                tool: tool.into(),
                verdict: verdict.into(),
                outcome: "completed".into(),
                fake_ratio: ratio,
                fake_count: fakes,
                sample_size: 500,
                api_calls: 3,
                trace_id: out.len() as u64,
            });
        }
        // bucket 1 (60..120 s): target 1 still flagged, target 2 clean.
        for (target, tool, verdict, ratio, fakes) in [
            (1u64, "FC", "fake", 75.0, 375u64),
            (2, "FC", "genuine", 5.0, 0),
        ] {
            out.push(AuditRecord {
                target,
                ts_micros: 60_000_000 + (out.len() as i64) * 1_000_000,
                tool: tool.into(),
                verdict: verdict.into(),
                outcome: "completed".into(),
                fake_ratio: ratio,
                fake_count: fakes,
                sample_size: 500,
                api_calls: 2,
                trace_id: out.len() as u64,
            });
        }
        // bucket 2 (120..180 s): only target 1, ratio decayed.
        out.push(AuditRecord {
            target: 1,
            ts_micros: 121_000_000,
            tool: "TA".into(),
            verdict: "inactive".into(),
            outcome: "completed".into(),
            fake_ratio: 40.0,
            fake_count: 200,
            sample_size: 500,
            api_calls: 2,
            trace_id: 99,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fakeaudit_check::{check, Rng};

    #[test]
    fn kind_parses_and_rejects() {
        assert_eq!(
            "timeseries".parse::<QueryKind>().unwrap(),
            QueryKind::Timeseries
        );
        assert_eq!("topk".parse::<QueryKind>().unwrap(), QueryKind::Topk);
        assert!("bogus".parse::<QueryKind>().is_err());
    }

    #[test]
    fn json_escapes_strings() {
        let mut out = String::new();
        Cell::Str("a\"b\\c\nd\u{1}".into()).write_json(&mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    /// `v` through the cell writer.
    fn fixed4(v: f64) -> String {
        let mut out = String::new();
        write_fixed4(&mut out, v);
        out
    }

    #[test]
    fn fixed_point_cells_pin_the_edge_cases() {
        for (v, want) in [
            (0.0, "0.0000"),
            (-0.0, "-0.0000"),
            (-0.00001, "-0.0000"),
            (0.03125, "0.0312"),
            (0.09375, "0.0938"),
            (-0.09375, "-0.0938"),
            (87.5, "87.5000"),
            (12.25, "12.2500"),
            (99.99995, "99.9999"),
            (5e-324, "0.0000"),
            (1_844_674_407_370_955.0, "1844674407370955.0000"),
            (1e300, &format!("{:.4}", 1e300)),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ] {
            assert_eq!(fixed4(v), want, "{v:e}");
        }
        let mut json = String::new();
        Cell::Float(f64::NAN).write_json(&mut json);
        Cell::Float(-0.0).write_json(&mut json);
        assert_eq!(json, "null-0.0000");
    }

    /// `v` or `-v`, by a coin.
    fn signed(v: f64, rng: &mut Rng) -> f64 {
        if rng.coin() {
            -v
        } else {
            v
        }
    }

    #[test]
    fn fixed_point_cells_match_core_fmt() {
        // Where |v| · 10⁴ passes `u64::MAX`, the fast range ends.
        const EDGE: f64 = u64::MAX as f64 / 10_000.0;
        const CASES: u64 = 20_000;
        type Draw = fn(&mut Rng) -> f64;
        let families: [(&str, Draw); 7] = [
            ("finite bit patterns", |rng| loop {
                let v = f64::from_bits(rng.next_u64());
                if v.is_finite() {
                    break v;
                }
            }),
            ("uniform in [0, 1]", |rng| rng.unit()),
            ("uniform in [0, 100]", |rng| rng.range(0.0..100.0)),
            // Every exact tie at four decimals is an odd multiple of
            // 1/32: (2j + 1) / 20 000 is binary only when 625 divides
            // 2j + 1.
            ("halfway cases", |rng| {
                signed((2 * rng.below(1 << 40) + 1) as f64 / 32.0, rng)
            }),
            ("negatives that round to zero", |rng| {
                -rng.range(0.0..0.00005)
            }),
            ("subnormals", |rng| {
                signed(f64::from_bits(rng.below(1 << 52)), rng)
            }),
            ("the fast range's edge", |rng| {
                let bits = EDGE.to_bits() - 2_000 + rng.below(4_000);
                signed(f64::from_bits(bits), rng)
            }),
        ];
        let fast = std::cell::Cell::new(0);
        for (name, draw) in families {
            check(name, CASES, draw, |&v| {
                fast.set(fast.get() + u64::from(scaled_by_10k(v).is_some()));
                assert_eq!(fixed4(v), format!("{v:.4}"), "{v:e} = {:#x}", v.to_bits());
            });
        }
        // Both the exact path and the `core::fmt` fallback ran often.
        let slow = families.len() as u64 * CASES - fast.get();
        assert!(fast.get() > 100_000 && slow > 10_000, "{fast:?}, {slow}");
    }

    #[test]
    fn report_renders_json_and_table_deterministically() {
        let report = QueryReport {
            kind: QueryKind::Topk,
            columns: vec!["rank", "target", "mean_fake_ratio"],
            rows: vec![
                vec![Cell::UInt(1), Cell::UInt(42), Cell::Float(87.5)],
                vec![Cell::UInt(2), Cell::UInt(7), Cell::Float(12.25)],
            ],
            stats: ScanStats {
                segments_total: 4,
                segments_pruned: 1,
                rows_scanned: 30,
                rows_pruned: 10,
                rows_selected: 25,
            },
        };
        assert_eq!(
            report.to_json(),
            "{\"kind\":\"topk\",\"rows\":[{\"rank\":1,\"target\":42,\"mean_fake_ratio\":87.5000},{\"rank\":2,\"target\":7,\"mean_fake_ratio\":12.2500}],\"stats\":{\"segments_total\":4,\"segments_pruned\":1,\"rows_scanned\":30,\"rows_pruned\":10,\"rows_selected\":25}}"
        );
        let table = report.to_table();
        assert!(table.contains("rank"));
        assert!(table.ends_with("# 2 rows · scanned 30 rows in 3/4 segments (10 rows pruned)\n"));
        assert_eq!(report.to_table(), table);
    }

    #[test]
    fn params_parse_with_defaults_and_name_the_bad_one() {
        let params = |pairs: &'static [(&'static str, &'static str)]| {
            QueryOptions::from_params(|key| pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v))
        };
        let opts = params(&[("since", "-5"), ("bucket", "30"), ("by", "cost")]).unwrap();
        assert_eq!(opts.since_secs, Some(-5));
        assert_eq!(opts.until_secs, None);
        assert_eq!((opts.bucket_secs, opts.k, opts.by), (30, 10, TopkBy::Cost));
        for (pairs, message) in [
            (
                &[("since", "abc")][..],
                "bad since \"abc\" (want integer seconds)",
            ),
            (
                &[("until", "1.5")],
                "bad until \"1.5\" (want integer seconds)",
            ),
            (
                &[("bucket", "0")],
                "bad bucket \"0\" (want positive integer seconds)",
            ),
            (&[("k", "-1")], "bad k \"-1\" (want positive integer)"),
            (
                &[("k", "0"), ("since", "x")],
                "bad since \"x\" (want integer seconds)",
            ),
        ] {
            assert_eq!(params(pairs).unwrap_err(), message);
        }
        assert!(params(&[("by", "speed")])
            .unwrap_err()
            .contains("unknown topk key"));
    }

    #[test]
    fn until_bound_is_inclusive_to_the_second() {
        let opts = QueryOptions {
            until_secs: Some(10),
            ..Default::default()
        };
        assert_eq!(opts.until_micros(), Some(10_999_999));
    }
}
