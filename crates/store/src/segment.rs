//! Immutable columnar segment files.
//!
//! Layout — v2, checksummed (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"FAKSEG2\n"
//!      8     4  row_count                u32
//!     12    48  zone map: ts_min/ts_max  i64 ×2
//!               target_min/target_max    u64 ×2
//!               ratio_min/ratio_max      f64 ×2 (bit pattern)
//!     60   120  directory: 10 × (offset u32, len u32, crc32 u32),
//!               offsets relative to the data area at byte 180
//!    180     —  column blocks, contiguous, in directory order
//!   last     4  footer: CRC-32 of every preceding byte
//! ```
//!
//! [`Segment::parse`] verifies the footer CRC and requires the
//! directory to tile the data area exactly (contiguous, no gaps), so
//! any single flipped bit or truncated tail is a [`DecodeError`] —
//! never a panic, never silently wrong rows. The per-column CRCs are
//! re-checked lazily when a column is decoded, which localizes damage
//! for `store verify` diagnostics. Only v2 is readable: a file with the
//! retired v1 magic (`FAKSEG1\n`) fails to parse like any other bad
//! magic, so recovery quarantines it.
//!
//! Column order: `0 ts` (zigzag-varint deltas off ts_min), `1 target`
//! (u64 dict), `2 tool` / `3 verdict` / `4 outcome` (string dicts),
//! `5 fake_ratio` (raw f64), `6 fake_count` / `7 sample_size` /
//! `8 api_calls` / `9 trace_id` (varints).
//!
//! Encoding is a pure function of the record slice, so a fixed record
//! stream produces byte-identical segments — the determinism invariant
//! the golden fixture and the CI double-run `cmp` pin.

use crate::encode::{
    crc32, put_f64, put_str_dict, put_u32, put_u64, put_u64_dict, put_varint, put_zigzag,
    read_str_dict, read_u64_dict, DecodeError, Reader,
};
use crate::queries::PartialCache;
use crate::record::AuditRecord;

/// File magic for the segment format (v2).
pub const MAGIC: &[u8; 8] = b"FAKSEG2\n";
/// Number of column blocks in a segment.
pub const COLUMN_COUNT: usize = 10;
/// Byte offset where column data begins.
pub const DATA_START: usize = 180;
/// Size of the trailing whole-file CRC.
pub const FOOTER_LEN: usize = 4;

/// Columns a scan can project. Decoding is per-column, so asking for
/// fewer columns skips real work (late materialization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// Timestamp in microseconds.
    Ts,
    /// Target account id.
    Target,
    /// Tool label.
    Tool,
    /// Verdict label.
    Verdict,
    /// Request outcome label.
    Outcome,
    /// Fake-follower percentage.
    FakeRatio,
    /// Fake-follower count.
    FakeCount,
    /// Assessed sample size.
    SampleSize,
    /// Crawl cost in API calls.
    ApiCalls,
    /// Serving trace id.
    TraceId,
}

impl Column {
    fn slot(self) -> usize {
        match self {
            Column::Ts => 0,
            Column::Target => 1,
            Column::Tool => 2,
            Column::Verdict => 3,
            Column::Outcome => 4,
            Column::FakeRatio => 5,
            Column::FakeCount => 6,
            Column::SampleSize => 7,
            Column::ApiCalls => 8,
            Column::TraceId => 9,
        }
    }
}

/// Min/max footer used to skip whole segments without decoding columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneMap {
    /// Smallest timestamp in the segment (micros).
    pub ts_min: i64,
    /// Largest timestamp in the segment (micros).
    pub ts_max: i64,
    /// Smallest target id.
    pub target_min: u64,
    /// Largest target id.
    pub target_max: u64,
    /// Smallest fake ratio.
    pub ratio_min: f64,
    /// Largest fake ratio.
    pub ratio_max: f64,
}

impl ZoneMap {
    fn from_records(records: &[AuditRecord]) -> Self {
        let mut zm = ZoneMap {
            ts_min: i64::MAX,
            ts_max: i64::MIN,
            target_min: u64::MAX,
            target_max: u64::MIN,
            ratio_min: f64::INFINITY,
            ratio_max: f64::NEG_INFINITY,
        };
        for r in records {
            zm.ts_min = zm.ts_min.min(r.ts_micros);
            zm.ts_max = zm.ts_max.max(r.ts_micros);
            zm.target_min = zm.target_min.min(r.target);
            zm.target_max = zm.target_max.max(r.target);
            zm.ratio_min = zm.ratio_min.min(r.fake_ratio);
            zm.ratio_max = zm.ratio_max.max(r.fake_ratio);
        }
        zm
    }

    /// Whether any row could fall inside `[since, until]` (inclusive,
    /// micros). `None` bounds are open.
    pub fn overlaps_window(&self, since: Option<i64>, until: Option<i64>) -> bool {
        if let Some(s) = since {
            if self.ts_max < s {
                return false;
            }
        }
        if let Some(u) = until {
            if self.ts_min > u {
                return false;
            }
        }
        true
    }

    /// Whether the segment could contain `target`.
    pub fn may_contain_target(&self, target: u64) -> bool {
        target >= self.target_min && target <= self.target_max
    }
}

/// Encodes a non-empty record slice into one segment file image.
///
/// # Panics
///
/// Panics if `records` is empty — the writer never flushes an empty
/// buffer, and an empty segment would have no defined zone map.
pub fn encode_segment(records: &[AuditRecord]) -> Vec<u8> {
    assert!(!records.is_empty(), "segments must hold at least one row");
    let zm = ZoneMap::from_records(records);

    let mut blocks: [Vec<u8>; COLUMN_COUNT] = Default::default();
    for r in records {
        put_zigzag(&mut blocks[0], r.ts_micros - zm.ts_min);
    }
    put_u64_dict(
        &mut blocks[1],
        &records.iter().map(|r| r.target).collect::<Vec<_>>(),
    );
    put_str_dict(
        &mut blocks[2],
        &records.iter().map(|r| r.tool.as_str()).collect::<Vec<_>>(),
    );
    put_str_dict(
        &mut blocks[3],
        &records
            .iter()
            .map(|r| r.verdict.as_str())
            .collect::<Vec<_>>(),
    );
    put_str_dict(
        &mut blocks[4],
        &records
            .iter()
            .map(|r| r.outcome.as_str())
            .collect::<Vec<_>>(),
    );
    for r in records {
        put_f64(&mut blocks[5], r.fake_ratio);
    }
    for r in records {
        put_varint(&mut blocks[6], r.fake_count);
    }
    for r in records {
        put_varint(&mut blocks[7], r.sample_size);
    }
    for r in records {
        put_varint(&mut blocks[8], r.api_calls);
    }
    for r in records {
        put_varint(&mut blocks[9], r.trace_id);
    }

    let mut out =
        Vec::with_capacity(DATA_START + blocks.iter().map(Vec::len).sum::<usize>() + FOOTER_LEN);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, records.len() as u32);
    out.extend_from_slice(&zm.ts_min.to_le_bytes());
    out.extend_from_slice(&zm.ts_max.to_le_bytes());
    put_u64(&mut out, zm.target_min);
    put_u64(&mut out, zm.target_max);
    put_f64(&mut out, zm.ratio_min);
    put_f64(&mut out, zm.ratio_max);
    let mut offset = 0u32;
    for block in &blocks {
        put_u32(&mut out, offset);
        put_u32(&mut out, block.len() as u32);
        put_u32(&mut out, crc32(block));
        offset += block.len() as u32;
    }
    debug_assert_eq!(out.len(), DATA_START);
    for block in &blocks {
        out.extend_from_slice(block);
    }
    let footer = crc32(&out);
    put_u32(&mut out, footer);
    out
}

/// A parsed segment: header and zone map decoded eagerly, column blocks
/// decoded on demand (their CRCs re-checked at every decode). It also
/// carries the query partials and decoded timestamps cached with it,
/// which the format code never reads.
#[derive(Debug)]
pub struct Segment {
    buf: Vec<u8>,
    rows: usize,
    zone: ZoneMap,
    directory: [(u32, u32); COLUMN_COUNT],
    column_crcs: [u32; COLUMN_COUNT],
    partials: PartialCache,
}

impl Segment {
    /// Parses a segment file image, validating magic, header, directory
    /// tiling, and the trailing whole-file CRC. Any truncation or bit
    /// flip is reported here, before a single column is decoded.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for a bad magic (the retired v1 one included), a
    /// truncated header, a directory that does not exactly tile the data
    /// area, or a footer CRC mismatch.
    pub fn parse(buf: Vec<u8>) -> Result<Self, DecodeError> {
        let mut r = Reader::new(&buf);
        if r.bytes(8, "segment magic")? != MAGIC {
            return Err(DecodeError {
                context: "segment magic",
                offset: 0,
            });
        }
        if buf.len() < DATA_START + FOOTER_LEN {
            return Err(DecodeError {
                context: "segment footer crc",
                offset: buf.len(),
            });
        }
        let body = &buf[..buf.len() - FOOTER_LEN];
        let stored = u32::from_le_bytes(buf[buf.len() - FOOTER_LEN..].try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(DecodeError {
                context: "segment footer crc",
                offset: buf.len() - FOOTER_LEN,
            });
        }
        let rows = r.u32("segment row count")? as usize;
        if rows == 0 {
            return Err(DecodeError {
                context: "segment row count",
                offset: 8,
            });
        }
        let zone = ZoneMap {
            ts_min: r.u64("zone map")? as i64,
            ts_max: r.u64("zone map")? as i64,
            target_min: r.u64("zone map")?,
            target_max: r.u64("zone map")?,
            ratio_min: r.f64("zone map")?,
            ratio_max: r.f64("zone map")?,
        };
        let mut directory = [(0u32, 0u32); COLUMN_COUNT];
        let mut column_crcs = [0u32; COLUMN_COUNT];
        for (entry, crc) in directory.iter_mut().zip(column_crcs.iter_mut()) {
            *entry = (r.u32("directory")?, r.u32("directory")?);
            *crc = r.u32("directory")?;
        }
        // The directory must tile the data area exactly: any gap,
        // overlap, or over/under-run (e.g. truncation) is structural
        // corruption, independent of the CRCs.
        let data_len = buf.len() - DATA_START - FOOTER_LEN;
        let mut expected = 0usize;
        for &(off, len) in &directory {
            if off as usize != expected {
                return Err(DecodeError {
                    context: "directory",
                    offset: DATA_START,
                });
            }
            expected += len as usize;
        }
        if expected != data_len {
            return Err(DecodeError {
                context: "directory",
                offset: DATA_START,
            });
        }
        Ok(Self {
            partials: PartialCache::new(buf.len()),
            buf,
            rows,
            zone,
            directory,
            column_crcs,
        })
    }

    /// Number of rows in the segment.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The segment's min/max footer.
    pub fn zone(&self) -> &ZoneMap {
        &self.zone
    }

    /// Total encoded size in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// The query partials and decoded timestamps cached with this
    /// segment, bounded by its encoded size.
    pub(crate) fn partials(&self) -> &PartialCache {
        &self.partials
    }

    /// Encoded size of one column block in bytes.
    pub fn column_bytes(&self, col: Column) -> usize {
        self.directory[col.slot()].1 as usize
    }

    /// A column block with its CRC re-verified, localizing any damage
    /// for diagnostics.
    fn checked_block(&self, slot: usize, context: &'static str) -> Result<&[u8], DecodeError> {
        let (off, len) = self.directory[slot];
        let block = &self.buf[DATA_START + off as usize..DATA_START + (off + len) as usize];
        if crc32(block) != self.column_crcs[slot] {
            return Err(DecodeError { context, offset: 0 });
        }
        Ok(block)
    }

    /// Re-verifies every column CRC without decoding. Used by `store verify` to localize corruption.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] naming the first column whose block bytes do not
    /// match their directory CRC.
    pub fn verify_columns(&self) -> Result<(), DecodeError> {
        const CONTEXTS: [&str; COLUMN_COUNT] = [
            "ts column",
            "target column",
            "tool column",
            "verdict column",
            "outcome column",
            "fake_ratio column",
            "fake_count column",
            "sample_size column",
            "api_calls column",
            "trace_id column",
        ];
        for (slot, context) in CONTEXTS.iter().enumerate() {
            self.checked_block(slot, context)?;
        }
        Ok(())
    }

    /// Decodes the timestamp column (micros).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on a malformed block.
    pub fn decode_ts(&self) -> Result<Vec<i64>, DecodeError> {
        let mut r = Reader::new(self.checked_block(0, "ts column")?);
        let mut out = Vec::with_capacity(self.rows);
        for _ in 0..self.rows {
            out.push(self.zone.ts_min + r.zigzag("ts column")?);
        }
        Ok(out)
    }

    /// Decodes the target column as its dictionary (distinct ids in
    /// first-seen order) and per-row codes into it, so callers can key
    /// per-target state by code instead of looking up every row's id.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on a malformed block.
    pub fn decode_targets(&self) -> Result<(Vec<u64>, Vec<u32>), DecodeError> {
        let mut r = Reader::new(self.checked_block(1, "target column")?);
        read_u64_dict(&mut r, self.rows, "target column")
    }

    /// Decodes one of the string columns (tool / verdict / outcome),
    /// returning the dictionary (borrowed from the segment's bytes) and
    /// per-row indices, so callers can group without materializing one
    /// `String` per row.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on a malformed block, or if `col` is not a string
    /// column (reported as that block's context).
    pub fn decode_strings(&self, col: Column) -> Result<(Vec<&str>, Vec<u32>), DecodeError> {
        let (slot, context) = match col {
            Column::Tool => (2, "tool column"),
            Column::Verdict => (3, "verdict column"),
            Column::Outcome => (4, "outcome column"),
            _ => {
                return Err(DecodeError {
                    context: "string column selector",
                    offset: 0,
                })
            }
        };
        let mut r = Reader::new(self.checked_block(slot, context)?);
        read_str_dict(&mut r, self.rows, context)
    }

    /// Decodes the fake-ratio column.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on a malformed block.
    pub fn decode_ratios(&self) -> Result<Vec<f64>, DecodeError> {
        let block = self.checked_block(5, "fake_ratio column")?;
        let Some(raw) = block.get(..self.rows * 8) else {
            return Err(DecodeError {
                context: "fake_ratio column",
                offset: block.len() / 8 * 8,
            });
        };
        Ok(raw
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Decodes one of the varint count columns (fake_count, sample_size,
    /// api_calls, trace_id).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on a malformed block, or if `col` is not a count
    /// column.
    pub fn decode_counts(&self, col: Column) -> Result<Vec<u64>, DecodeError> {
        let (slot, context) = match col {
            Column::FakeCount => (6, "fake_count column"),
            Column::SampleSize => (7, "sample_size column"),
            Column::ApiCalls => (8, "api_calls column"),
            Column::TraceId => (9, "trace_id column"),
            _ => {
                return Err(DecodeError {
                    context: "count column selector",
                    offset: 0,
                })
            }
        };
        let mut r = Reader::new(self.checked_block(slot, context)?);
        let mut out = Vec::with_capacity(self.rows);
        for _ in 0..self.rows {
            out.push(r.varint(context)?);
        }
        Ok(out)
    }

    /// Fully materializes every row — the round-trip inverse of
    /// [`encode_segment`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on any malformed column block.
    pub fn decode_all(&self) -> Result<Vec<AuditRecord>, DecodeError> {
        let ts = self.decode_ts()?;
        let (target_dict, target_idx) = self.decode_targets()?;
        let (tool_dict, tool_idx) = self.decode_strings(Column::Tool)?;
        let (verdict_dict, verdict_idx) = self.decode_strings(Column::Verdict)?;
        let (outcome_dict, outcome_idx) = self.decode_strings(Column::Outcome)?;
        let ratios = self.decode_ratios()?;
        let fake_counts = self.decode_counts(Column::FakeCount)?;
        let samples = self.decode_counts(Column::SampleSize)?;
        let api_calls = self.decode_counts(Column::ApiCalls)?;
        let trace_ids = self.decode_counts(Column::TraceId)?;
        let mut out = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            out.push(AuditRecord {
                target: target_dict[target_idx[i] as usize],
                ts_micros: ts[i],
                tool: tool_dict[tool_idx[i] as usize].to_owned(),
                verdict: verdict_dict[verdict_idx[i] as usize].to_owned(),
                outcome: outcome_dict[outcome_idx[i] as usize].to_owned(),
                fake_ratio: ratios[i],
                fake_count: fake_counts[i],
                sample_size: samples[i],
                api_calls: api_calls[i],
                trace_id: trace_ids[i],
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<AuditRecord> {
        let tools = ["FC", "TA", "SP", "SB"];
        let verdicts = ["fake", "inactive", "genuine"];
        (0..25)
            .map(|i: usize| AuditRecord {
                target: 100 + (i as u64 % 5),
                ts_micros: 1_000_000 * i as i64 + (i as i64 * 137) % 999,
                tool: tools[i % 4].to_string(),
                verdict: verdicts[i % 3].to_string(),
                outcome: if i.is_multiple_of(7) {
                    "degraded_stale"
                } else {
                    "completed"
                }
                .to_string(),
                fake_ratio: (i as f64 * 3.7) % 100.0,
                fake_count: (i as u64 * 13) % 500,
                sample_size: 500,
                api_calls: 1 + (i as u64 % 6),
                trace_id: i as u64 * 31,
            })
            .collect()
    }

    #[test]
    fn encode_decode_round_trips() {
        let records = sample_records();
        let seg = Segment::parse(encode_segment(&records)).unwrap();
        assert_eq!(seg.rows(), records.len());
        assert_eq!(seg.decode_all().unwrap(), records);
    }

    #[test]
    fn encoding_is_deterministic() {
        let records = sample_records();
        assert_eq!(encode_segment(&records), encode_segment(&records));
    }

    #[test]
    fn zone_map_matches_extremes() {
        let records = sample_records();
        let seg = Segment::parse(encode_segment(&records)).unwrap();
        let zm = seg.zone();
        let ts: Vec<i64> = records.iter().map(|r| r.ts_micros).collect();
        assert_eq!(zm.ts_min, *ts.iter().min().unwrap());
        assert_eq!(zm.ts_max, *ts.iter().max().unwrap());
        assert_eq!(zm.target_min, 100);
        assert_eq!(zm.target_max, 104);
    }

    #[test]
    fn zone_map_window_overlap() {
        let zm = ZoneMap {
            ts_min: 10,
            ts_max: 20,
            target_min: 0,
            target_max: 0,
            ratio_min: 0.0,
            ratio_max: 0.0,
        };
        assert!(zm.overlaps_window(None, None));
        assert!(zm.overlaps_window(Some(20), None));
        assert!(zm.overlaps_window(None, Some(10)));
        assert!(!zm.overlaps_window(Some(21), None));
        assert!(!zm.overlaps_window(None, Some(9)));
        assert!(zm.overlaps_window(Some(5), Some(15)));
    }

    #[test]
    fn bad_magic_rejected() {
        let records = sample_records();
        let mut buf = encode_segment(&records);
        buf[0] = b'X';
        assert!(Segment::parse(buf).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let records = sample_records();
        let buf = encode_segment(&records);
        assert!(Segment::parse(buf[..DATA_START + 3].to_vec()).is_err());
    }

    #[test]
    fn single_row_segment_round_trips() {
        let records = vec![sample_records().remove(0)];
        let seg = Segment::parse(encode_segment(&records)).unwrap();
        assert_eq!(seg.decode_all().unwrap(), records);
    }

    #[test]
    fn any_single_bit_flip_is_rejected_at_parse() {
        let buf = encode_segment(&sample_records()[..4]);
        for offset in 0..buf.len() {
            for bit in 0..8u8 {
                let mut copy = buf.clone();
                copy[offset] ^= 1 << bit;
                assert!(
                    Segment::parse(copy).is_err(),
                    "flip at {offset}:{bit} parsed cleanly"
                );
            }
        }
    }

    #[test]
    fn every_prefix_truncation_is_rejected() {
        let buf = encode_segment(&sample_records()[..4]);
        for k in 0..buf.len() {
            assert!(
                Segment::parse(buf[..k].to_vec()).is_err(),
                "prefix of {k} bytes parsed cleanly"
            );
        }
    }

    #[test]
    fn verify_columns_passes_on_sound_segment() {
        let seg = Segment::parse(encode_segment(&sample_records())).unwrap();
        seg.verify_columns().unwrap();
    }

    #[test]
    fn column_bytes_reflect_projection_savings() {
        let records = sample_records();
        let seg = Segment::parse(encode_segment(&records)).unwrap();
        let ts_bytes = seg.column_bytes(Column::Ts);
        assert!(ts_bytes > 0);
        assert!(ts_bytes < seg.byte_len());
    }
}
