//! Directory-level store: the WAL-backed segment writer, startup
//! recovery with quarantine, crash-safe compaction, and the reader that
//! visits segments one batch at a time, with zone-map pruning and
//! columns decoded only when read.
//!
//! Every byte that reaches disk goes through the [`StoreIo`] seam, so
//! the whole durability protocol is exercised under deterministic
//! fault injection (see `crates/store/src/io.rs`).

use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::encode::crc32;
use crate::io::{AppendFile, RealIo, SharedIo, StoreIo};
use crate::queries::PartialCache;
use crate::record::AuditRecord;
use crate::segment::{encode_segment, Column, Segment};
use crate::wal;

/// Marker file carrying a CRC'd plan of an in-flight compaction.
const COMPACT_INTENT: &str = "compact.intent";
/// Staging file a compaction writes before renaming into place.
const COMPACT_TMP: &str = "seg-compact.tmp";
/// Staging file recovery uses to rewrite a torn WAL atomically.
const WAL_CONSOLIDATE_TMP: &str = "wal-consolidate.tmp";
/// Suffix appended when recovery quarantines a corrupt segment.
const QUARANTINE_SUFFIX: &str = ".bad";

/// File name of segment `seq` (1-based).
fn segment_name(seq: u64) -> String {
    format!("seg-{seq:08}.fas")
}

/// Parses `seg-%08d.fas`; `None` for anything else in the directory.
fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".fas")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn data_err(err: impl std::error::Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}

/// When the writer calls fsync — the durability/latency trade the
/// operator picks (`--fsync`).
///
/// | policy      | guaranteed after a crash                         |
/// |-------------|--------------------------------------------------|
/// | `on-append` | every acked row (WAL entry synced before ack)    |
/// | `on-flush`  | every flushed segment; buffered rows best-effort |
/// | `never`     | nothing — whatever the OS happened to write back |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// No fsync at all: fastest, no durability floor.
    Never,
    /// Fsync segment data + directory at flush; WAL appends unsynced.
    #[default]
    OnFlush,
    /// Additionally fsync the WAL on every append, before acking.
    OnAppend,
}

impl FsyncPolicy {
    /// Parses the CLI spelling (`never` / `on-flush` / `on-append`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "never" => Some(Self::Never),
            "on-flush" => Some(Self::OnFlush),
            "on-append" => Some(Self::OnAppend),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Never => "never",
            Self::OnFlush => "on-flush",
            Self::OnAppend => "on-append",
        }
    }
}

/// One segment set aside by recovery instead of failing the open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedSegment {
    /// Original file name (now renamed with a `.bad` suffix).
    pub name: String,
    /// Why it failed to parse.
    pub error: String,
}

/// What startup recovery found and did. Surfaced through
/// [`StoreHealth`], `/healthz`, `/debug/vars`, and `store verify`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Segments that parsed cleanly.
    pub segments_ok: u64,
    /// Segments quarantined (renamed `*.bad`, skipped, still served
    /// around).
    pub quarantined: Vec<QuarantinedSegment>,
    /// Acked rows replayed from the WAL tail.
    pub wal_rows_recovered: u64,
    /// Torn-tail WAL bytes discarded during replay.
    pub wal_bytes_discarded: u64,
    /// WALs whose segment already existed (deleted as stale).
    pub stale_wals_removed: u64,
    /// Leftover `*.tmp` staging files deleted.
    pub tmp_files_removed: u64,
    /// Whether an interrupted compaction was completed or rolled back.
    pub compact_resumed: bool,
}

impl RecoveryReport {
    /// True when recovery found a pristine directory: nothing
    /// quarantined, replayed, discarded, or cleaned up.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.wal_rows_recovered == 0
            && self.wal_bytes_discarded == 0
            && self.stale_wals_removed == 0
            && self.tmp_files_removed == 0
            && !self.compact_resumed
    }
}

/// Serializes a compaction plan: CRC32 header, then `dest <name>` and
/// one `rm <name>` per victim. The CRC makes a torn intent detectably
/// invalid, which recovery treats as "the compact never committed".
fn intent_payload(dest: &str, victims: &[String]) -> Vec<u8> {
    let mut text = String::new();
    text.push_str("dest ");
    text.push_str(dest);
    text.push('\n');
    for v in victims {
        text.push_str("rm ");
        text.push_str(v);
        text.push('\n');
    }
    let mut out = Vec::with_capacity(4 + text.len());
    out.extend_from_slice(&crc32(text.as_bytes()).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
    out
}

fn parse_intent(buf: &[u8]) -> Option<(String, Vec<String>)> {
    if buf.len() < 4 {
        return None;
    }
    let stored = u32::from_le_bytes(buf[..4].try_into().ok()?);
    let text = std::str::from_utf8(&buf[4..]).ok()?;
    if crc32(text.as_bytes()) != stored {
        return None;
    }
    let mut dest = None;
    let mut victims = Vec::new();
    for line in text.lines() {
        if let Some(d) = line.strip_prefix("dest ") {
            dest = Some(d.to_owned());
        } else if let Some(v) = line.strip_prefix("rm ") {
            victims.push(v.to_owned());
        } else if !line.is_empty() {
            return None;
        }
    }
    Some((dest?, victims))
}

/// Settles an interrupted compaction, idempotently. A valid durable
/// intent means the merged segment was already fully written and
/// synced, so the compact is rolled *forward* (rename if still staged,
/// then delete victims). A torn or missing-output intent rolls back —
/// every victim is still intact because victims are only deleted after
/// the destination is durable.
fn resume_compact(io: &dyn StoreIo, dir: &Path) -> io::Result<()> {
    let intent_path = dir.join(COMPACT_INTENT);
    let tmp = dir.join(COMPACT_TMP);
    match io.read(&intent_path).ok().and_then(|b| parse_intent(&b)) {
        None => {
            let _ = io.remove(&intent_path);
            if io.exists(&tmp) {
                let _ = io.remove(&tmp);
            }
        }
        Some((dest, victims)) => {
            let dest_path = dir.join(&dest);
            if io.exists(&tmp) {
                io.rename(&tmp, &dest_path)?;
            }
            if io.exists(&dest_path) {
                for v in &victims {
                    if *v == dest {
                        continue;
                    }
                    let p = dir.join(v);
                    if io.exists(&p) {
                        io.remove(&p)?;
                    }
                }
            }
            io.remove(&intent_path)?;
        }
    }
    io.sync_dir(dir)
}

/// Everything startup recovery hands back to an opener.
struct Recovered {
    report: RecoveryReport,
    /// Healthy segments, sorted by sequence.
    healthy: Vec<(u64, Arc<Segment>)>,
    /// Acked rows replayed from live WALs, in append order.
    wal_records: Vec<AuditRecord>,
    /// Sequence numbers of the live WAL files those rows came from.
    live_wals: Vec<u64>,
    /// One past the highest segment name seen (healthy or quarantined).
    next_seq: u64,
}

/// The shared startup recovery routine: resume/roll back compaction,
/// sweep staging files, quarantine corrupt segments, drop stale WALs,
/// and replay the live WAL tail. Never fails because of corruption —
/// only on real I/O errors.
fn recover_dir(io: &dyn StoreIo, dir: &Path) -> io::Result<Recovered> {
    let mut report = RecoveryReport::default();
    let mut names = io.list(dir)?;
    if names.iter().any(|n| n == COMPACT_INTENT) {
        resume_compact(io, dir)?;
        report.compact_resumed = true;
        names = io.list(dir)?;
    }
    let mut dirty = false;
    for name in names.iter().filter(|n| n.ends_with(".tmp")) {
        if io.remove(&dir.join(name)).is_ok() {
            report.tmp_files_removed += 1;
            dirty = true;
        }
    }

    let mut seg_names: Vec<(u64, String)> = names
        .iter()
        .filter_map(|n| parse_segment_name(n).map(|s| (s, n.clone())))
        .collect();
    seg_names.sort();
    let mut wal_names: Vec<(u64, String)> = names
        .iter()
        .filter_map(|n| wal::parse_wal_name(n).map(|s| (s, n.clone())))
        .collect();
    wal_names.sort();

    let mut max_seg_seq = 0u64;
    let mut healthy = Vec::new();
    let mut healthy_seqs = BTreeSet::new();
    for (seq, name) in seg_names {
        max_seg_seq = max_seg_seq.max(seq);
        let path = dir.join(&name);
        match Segment::parse(io.read(&path)?) {
            Ok(seg) => {
                healthy.push((seq, Arc::new(seg)));
                healthy_seqs.insert(seq);
                report.segments_ok += 1;
            }
            Err(err) => {
                // Quarantine instead of failing open: move the corpse
                // aside (best effort) and serve everything else.
                let bad = dir.join(format!("{name}{QUARANTINE_SUFFIX}"));
                let _ = io.remove(&bad);
                let _ = io.rename(&path, &bad);
                dirty = true;
                report.quarantined.push(QuarantinedSegment {
                    name,
                    error: err.to_string(),
                });
            }
        }
    }

    let mut wal_records = Vec::new();
    let mut live_wals = Vec::new();
    for (seq, name) in wal_names {
        let path = dir.join(&name);
        if healthy_seqs.contains(&seq) {
            // Its segment landed durably: every row is already in the
            // segment, so the journal is stale by construction.
            if io.remove(&path).is_ok() {
                report.stale_wals_removed += 1;
                dirty = true;
            }
        } else {
            let replayed = wal::replay(&io.read(&path)?);
            report.wal_rows_recovered += replayed.records.len() as u64;
            report.wal_bytes_discarded += replayed.discarded_bytes;
            wal_records.extend(replayed.records);
            live_wals.push(seq);
        }
    }

    if dirty {
        let _ = io.sync_dir(dir);
    }
    Ok(Recovered {
        report,
        healthy,
        wal_records,
        live_wals,
        next_seq: max_seg_seq + 1,
    })
}

/// Summary of one buffer flush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushInfo {
    /// Path of the segment just written.
    pub path: PathBuf,
    /// Its 1-based sequence number.
    pub seq: u64,
    /// Rows it holds.
    pub rows: usize,
    /// Its encoded size in bytes.
    pub bytes: usize,
}

/// Writer-side view of store state, for health endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreHealth {
    /// Segments written by this writer plus any found at open.
    pub segments: u64,
    /// Rows sitting in the in-memory buffer, journaled but not yet in
    /// a segment.
    pub buffered_rows: u64,
    /// Rows flushed into segments over this writer's lifetime.
    pub flushed_rows: u64,
    /// Sequence number of the most recent flush (0 = none yet).
    pub last_flush_seq: u64,
    /// Whether persistence gave up after repeated I/O errors. The
    /// writer keeps accepting (and dropping) rows so serving survives
    /// a sick disk. It journals every
    /// [`StoreWriter::MAX_CONSECUTIVE_IO_ERRORS`]-th row as a probe, and
    /// the first probe (or flush) that succeeds revives it.
    pub degraded: bool,
    /// Rows dropped to errors or degraded mode, never journaled.
    pub dropped_rows: u64,
    /// Corrupt segments quarantined at open.
    pub quarantined_segments: u64,
    /// Acked rows recovered from the WAL at open.
    pub wal_recovered_rows: u64,
}

/// Appends audit records: each row is journaled to the write-ahead log
/// before it is acked, buffered in memory, and flushed into an
/// immutable columnar segment once the buffer reaches the threshold.
///
/// Flushes are atomic and (per [`FsyncPolicy`]) durable: the segment
/// is staged as `<name>.tmp`, synced, renamed into place, and the
/// directory synced before the journal is discarded. Opening runs the
/// shared recovery routine, so a writer pointed at a crashed directory
/// starts with every acked row back in its buffer.
///
/// The current generation's journal stays open between appends, so a
/// row costs one write; the writer closes it before a flush removes it
/// and after any failed append, so the next append reopens it.
///
/// The writer keeps every segment it parsed at open or flushed since,
/// so [`StoreWriter::snapshot`] reads its rows without touching the
/// disk. It assumes it is the directory's only mutator while open.
#[derive(Debug)]
pub struct StoreWriter {
    io: SharedIo,
    dir: PathBuf,
    flush_threshold: usize,
    fsync: FsyncPolicy,
    buffer: Vec<AuditRecord>,
    next_seq: u64,
    /// `wal-<next_seq>.log`: the journal of the buffered rows.
    wal_path: PathBuf,
    /// The journal, held open between appends.
    wal_file: AppendFile,
    /// Scratch for framing one journal entry.
    entry: Vec<u8>,
    /// Every segment in the directory, in sequence order: the healthy
    /// ones recovery parsed at open, then each flush.
    segments: Vec<(u64, Arc<Segment>)>,
    flushed_rows: u64,
    last_flush_seq: u64,
    /// Whether the current WAL file's *name* has been made durable via
    /// a directory sync (needed once per generation under `on-append`).
    wal_name_durable: bool,
    recovery: RecoveryReport,
    consecutive_io_errors: u32,
    degraded: bool,
    /// Rows dropped since the degraded writer last probed the journal.
    drops_since_probe: u32,
    dropped_rows: u64,
}

impl StoreWriter {
    /// Default rows-per-segment flush threshold.
    pub const DEFAULT_FLUSH_THRESHOLD: usize = 1024;

    /// Consecutive I/O failures before the writer degrades (stops
    /// persisting, keeps serving); also how many rows a degraded writer
    /// drops between two probes of the journal.
    pub const MAX_CONSECUTIVE_IO_ERRORS: u32 = 8;

    /// Opens (creating if needed) a store directory for appending,
    /// with the real filesystem and the default fsync policy.
    ///
    /// # Errors
    ///
    /// As [`StoreWriter::open_with`].
    pub fn open(dir: impl Into<PathBuf>, flush_threshold: usize) -> io::Result<Self> {
        Self::open_with(
            RealIo::shared(),
            dir,
            flush_threshold,
            FsyncPolicy::default(),
        )
    }

    /// Opens a store directory over an explicit [`StoreIo`] with an
    /// explicit fsync policy. Runs startup recovery: an interrupted
    /// compaction is settled, corrupt segments are quarantined,
    /// leftover staging files are swept, and acked rows are replayed
    /// from the WAL into the buffer (flushing immediately if they
    /// already exceed the threshold). Numbering continues after any
    /// existing segments.
    ///
    /// # Errors
    ///
    /// I/O errors creating, listing, or reading the directory — never
    /// corruption, which is quarantined instead.
    pub fn open_with(
        io: SharedIo,
        dir: impl Into<PathBuf>,
        flush_threshold: usize,
        fsync: FsyncPolicy,
    ) -> io::Result<Self> {
        let dir = dir.into();
        io.create_dir_all(&dir)?;
        let rec = recover_dir(io.as_ref(), &dir)?;
        let next_seq = rec.next_seq;

        // Consolidate the recovered tail into this writer's journal.
        // Fast path: the one live WAL is already ours and intact.
        let aligned = rec.live_wals == [next_seq] && rec.report.wal_bytes_discarded == 0;
        let mut wal_name_durable = false;
        if aligned {
            wal_name_durable = true; // it was listed, so its name survived
        } else if !rec.wal_records.is_empty() {
            // Rewrite atomically: torn tails must not be appended past.
            let tmp = dir.join(WAL_CONSOLIDATE_TMP);
            io.write(&tmp, &wal::encode_entries(&rec.wal_records))?;
            io.sync_file(&tmp)?;
            io.rename(&tmp, &dir.join(wal::wal_name(next_seq)))?;
            for &seq in &rec.live_wals {
                if seq != next_seq {
                    let _ = io.remove(&dir.join(wal::wal_name(seq)));
                }
            }
            io.sync_dir(&dir)?;
            wal_name_durable = true;
        } else if !rec.live_wals.is_empty() {
            // Live WALs that replayed to nothing: just garbage tails.
            for &seq in &rec.live_wals {
                let _ = io.remove(&dir.join(wal::wal_name(seq)));
            }
            let _ = io.sync_dir(&dir);
        }

        let mut writer = Self {
            io,
            wal_path: dir.join(wal::wal_name(next_seq)),
            dir,
            flush_threshold: flush_threshold.max(1),
            fsync,
            buffer: rec.wal_records,
            next_seq,
            wal_file: AppendFile::default(),
            entry: Vec::new(),
            segments: rec.healthy,
            flushed_rows: 0,
            last_flush_seq: 0,
            wal_name_durable,
            recovery: rec.report,
            consecutive_io_errors: 0,
            degraded: false,
            drops_since_probe: 0,
            dropped_rows: 0,
        };
        if writer.buffer.len() >= writer.flush_threshold {
            writer.flush()?;
        }
        Ok(writer)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fsync policy this writer runs under.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// What startup recovery found when this writer opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Journals one record ahead of the ack. Under `on-append` this
    /// syncs the WAL (and, once per generation, the directory) before
    /// returning — the row is crash-durable when this returns `Ok`.
    fn wal_append(&mut self, record: &AuditRecord) -> io::Result<()> {
        self.entry.clear();
        wal::encode_entry_into(&mut self.entry, record);
        self.io
            .append(&mut self.wal_file, &self.wal_path, &self.entry)?;
        if self.fsync == FsyncPolicy::OnAppend {
            self.io.sync_file(&self.wal_path)?;
            if !self.wal_name_durable {
                self.io.sync_dir(&self.dir)?;
                self.wal_name_durable = true;
            }
        }
        Ok(())
    }

    fn note_io_error(&mut self) {
        self.consecutive_io_errors += 1;
        if self.consecutive_io_errors >= Self::MAX_CONSECUTIVE_IO_ERRORS {
            self.degraded = true;
        }
    }

    /// Appends one record; flushes a segment when the buffer reaches
    /// the threshold, returning its [`FlushInfo`]. While degraded the
    /// row is counted as dropped and `Ok(None)` is returned so serving
    /// continues, except that after every
    /// [`MAX_CONSECUTIVE_IO_ERRORS`](Self::MAX_CONSECUTIVE_IO_ERRORS)
    /// dropped rows the next row is journaled as a probe; if that
    /// succeeds the writer is no longer degraded.
    ///
    /// # Errors
    ///
    /// I/O errors journaling or flushing. A journaling error means the
    /// row was dropped; a flush error means it is buffered and
    /// journaled, and the flush will be retried.
    pub fn append(&mut self, record: AuditRecord) -> io::Result<Option<FlushInfo>> {
        if self.degraded {
            if self.drops_since_probe < Self::MAX_CONSECUTIVE_IO_ERRORS {
                self.drops_since_probe += 1;
                self.dropped_rows += 1;
                return Ok(None);
            }
            self.drops_since_probe = 0;
        }
        if let Err(err) = self.wal_append(&record) {
            self.wal_file.close();
            self.dropped_rows += 1;
            self.note_io_error();
            return Err(err);
        }
        self.degraded = false;
        self.buffer.push(record);
        if self.buffer.len() >= self.flush_threshold {
            return self.flush().map(Some);
        }
        self.consecutive_io_errors = 0;
        Ok(None)
    }

    /// Flushes the buffer into one segment, atomically and durably per
    /// the fsync policy. No-op result when empty. A successful flush
    /// also revives a degraded writer.
    ///
    /// # Errors
    ///
    /// I/O errors staging, syncing, or renaming the segment; the
    /// buffer is kept so the flush can be retried.
    pub fn flush(&mut self) -> io::Result<FlushInfo> {
        if self.buffer.is_empty() {
            return Ok(FlushInfo {
                path: self.dir.clone(),
                seq: self.last_flush_seq,
                rows: 0,
                bytes: 0,
            });
        }
        match self.flush_inner() {
            Ok(info) => {
                self.degraded = false;
                self.consecutive_io_errors = 0;
                Ok(info)
            }
            Err(err) => {
                self.note_io_error();
                Err(err)
            }
        }
    }

    fn flush_inner(&mut self) -> io::Result<FlushInfo> {
        let bytes = encode_segment(&self.buffer);
        let seq = self.next_seq;
        let name = segment_name(seq);
        let path = self.dir.join(&name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        self.io.write(&tmp, &bytes)?;
        if self.fsync != FsyncPolicy::Never {
            self.io.sync_file(&tmp)?;
        }
        self.io.rename(&tmp, &path)?;
        if self.fsync != FsyncPolicy::Never {
            self.io.sync_dir(&self.dir)?;
        }
        // The segment is in place: the journal is now stale by the
        // naming rule, so even a failed delete here is harmless.
        self.wal_file.close();
        if self.io.exists(&self.wal_path) {
            let _ = self.io.remove(&self.wal_path);
        }
        let rows = self.buffer.len();
        let byte_len = bytes.len();
        let segment = Segment::parse(bytes).expect("fresh encoding always parses");
        self.segments.push((seq, Arc::new(segment)));
        self.buffer.clear();
        self.next_seq += 1;
        self.wal_path = self.dir.join(wal::wal_name(self.next_seq));
        self.flushed_rows += rows as u64;
        self.last_flush_seq = seq;
        self.wal_name_durable = false;
        Ok(FlushInfo {
            path,
            seq,
            rows,
            bytes: byte_len,
        })
    }

    /// Copies what a read of this writer's rows needs: the segment list
    /// (shared, no bytes copied) and the buffered rows. Meant to be
    /// taken under a [`SharedWriter`]'s lock, which can then be released
    /// before [`WriterView::into_store`] encodes the buffered rows.
    pub fn view(&self) -> WriterView {
        WriterView {
            segments: self.segments.clone(),
            buffered: self.buffer.clone(),
            tail_seq: self.next_seq,
            recovery: self.recovery.clone(),
        }
    }

    /// A read-side [`Store`] over every row this writer holds, with no
    /// I/O: `self.view().into_store()`.
    pub fn snapshot(&self) -> Store {
        self.view().into_store()
    }

    /// Current writer-side health counters.
    pub fn health(&self) -> StoreHealth {
        StoreHealth {
            segments: self.segments.len() as u64,
            buffered_rows: self.buffer.len() as u64,
            flushed_rows: self.flushed_rows,
            last_flush_seq: self.last_flush_seq,
            degraded: self.degraded,
            dropped_rows: self.dropped_rows,
            quarantined_segments: self.recovery.quarantined.len() as u64,
            wal_recovered_rows: self.recovery.wal_rows_recovered,
        }
    }
}

/// A writer's rows at one instant, as [`StoreWriter::view`] copied them.
#[derive(Debug)]
pub struct WriterView {
    segments: Vec<(u64, Arc<Segment>)>,
    buffered: Vec<AuditRecord>,
    /// The sequence number the buffered rows will flush under.
    tail_seq: u64,
    recovery: RecoveryReport,
}

impl WriterView {
    /// A read-side [`Store`] over the view. The buffered rows become a
    /// synthetic trailing segment, as a WAL tail does in
    /// [`Store::open_with`], so a query answers the same bytes as over a
    /// fresh open of the directory — as long as the disk still holds
    /// what the writer wrote. Corruption that reaches a segment file
    /// after the writer opened is found by [`verify`], not here.
    pub fn into_store(self) -> Store {
        Store::assemble(self.segments, &self.buffered, self.tail_seq, self.recovery)
    }
}

/// A writer handle shareable across gateway worker threads.
pub type SharedWriter = Arc<Mutex<StoreWriter>>;

/// Creates a [`SharedWriter`] with the default flush threshold and
/// fsync policy.
///
/// # Errors
///
/// As [`StoreWriter::open`].
pub fn open_shared(dir: impl Into<PathBuf>) -> io::Result<SharedWriter> {
    open_shared_with(dir, FsyncPolicy::default())
}

/// Creates a [`SharedWriter`] with the default flush threshold and an
/// explicit fsync policy.
///
/// # Errors
///
/// As [`StoreWriter::open_with`].
pub fn open_shared_with(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> io::Result<SharedWriter> {
    Ok(Arc::new(Mutex::new(StoreWriter::open_with(
        RealIo::shared(),
        dir,
        StoreWriter::DEFAULT_FLUSH_THRESHOLD,
        fsync,
    )?)))
}

/// Which columns a scan materializes. Start from [`Projection::none`]
/// and enable only what the query consumes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Projection {
    /// Materialize timestamps.
    pub ts: bool,
    /// Materialize target ids.
    pub target: bool,
    /// Materialize tool labels.
    pub tool: bool,
    /// Materialize verdict labels.
    pub verdict: bool,
    /// Materialize outcome labels.
    pub outcome: bool,
    /// Materialize fake ratios.
    pub fake_ratio: bool,
    /// Materialize fake counts.
    pub fake_count: bool,
    /// Materialize sample sizes.
    pub sample_size: bool,
    /// Materialize API-call counts.
    pub api_calls: bool,
    /// Materialize trace ids.
    pub trace_id: bool,
}

impl Projection {
    /// Nothing projected (row selection only).
    pub fn none() -> Self {
        Self::default()
    }

    /// Every column projected.
    pub fn all() -> Self {
        Self {
            ts: true,
            target: true,
            tool: true,
            verdict: true,
            outcome: true,
            fake_ratio: true,
            fake_count: true,
            sample_size: true,
            api_calls: true,
            trace_id: true,
        }
    }
}

/// Scan filter + projection. Bounds are inclusive microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanOptions {
    /// Keep rows with `ts >= since_micros`.
    pub since_micros: Option<i64>,
    /// Keep rows with `ts <= until_micros`.
    pub until_micros: Option<i64>,
    /// Keep rows for exactly this target.
    pub target: Option<u64>,
    /// Columns [`Store::scan`] materializes for selected rows. The
    /// queries ignore it: they decode exactly the columns they fold.
    pub projection: Projection,
}

/// One materialized row. Unprojected columns hold defaults — callers
/// read only what they projected. Labels borrow from the dictionary
/// their segment decoded once for the whole scan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanRow<'a> {
    /// Timestamp (micros) when projected.
    pub ts_micros: i64,
    /// Target id when projected.
    pub target: u64,
    /// Tool label when projected.
    pub tool: &'a str,
    /// Verdict label when projected.
    pub verdict: &'a str,
    /// Outcome label when projected.
    pub outcome: &'a str,
    /// Fake ratio when projected.
    pub fake_ratio: f64,
    /// Fake count when projected.
    pub fake_count: u64,
    /// Sample size when projected.
    pub sample_size: u64,
    /// API calls when projected.
    pub api_calls: u64,
    /// Trace id when projected.
    pub trace_id: u64,
}

/// Work accounting for one scan — the numbers E13 plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Segments in the store.
    pub segments_total: u64,
    /// Segments skipped entirely via zone maps.
    pub segments_pruned: u64,
    /// Rows of the segments the zone maps kept, whether their columns
    /// were decoded or a query served them from a cached partial.
    pub rows_scanned: u64,
    /// Rows of the segments the zone maps pruned.
    pub rows_pruned: u64,
    /// Rows that passed the filters.
    pub rows_selected: u64,
}

/// Rows plus the work it took to find them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanResult<'a> {
    /// Selected rows in `(segment, row)` order: append order, which is
    /// not time order.
    pub rows: Vec<ScanRow<'a>>,
    /// Scan work accounting.
    pub stats: ScanStats,
}

/// The selected rows of one segment, as [`Store::batches`] hands them
/// to its visitor. Every column decodes when asked for, with its CRC
/// checked on each call, so a visitor pays only for the columns it
/// reads. A segment the selection had to cut arrives with its
/// timestamps already decoded: a sealed one's come from its cache,
/// where they were decoded and CRC-checked once, on first use. Column
/// accessors return whole columns, indexed by row;
/// [`SegmentBatch::selected`] says which rows to read.
#[derive(Debug)]
pub(crate) struct SegmentBatch<'a> {
    segment: &'a Segment,
    /// The partial cache of a sealed segment the window covers whole.
    cache: Option<&'a PartialCache>,
    ts: OnceCell<Arc<Vec<i64>>>,
    selected: OnceCell<Vec<usize>>,
}

impl<'a> SegmentBatch<'a> {
    /// Rows that passed the filters, ascending: the segment's append
    /// order.
    pub(crate) fn selected(&self) -> &[usize] {
        self.selected
            .get_or_init(|| (0..self.segment.rows()).collect())
    }

    /// The query partials cached with this segment, when it is sealed
    /// and the window covers it whole, so that a partial of all its
    /// rows is a partial of the selected rows.
    pub(crate) fn cache(&self) -> Option<&'a PartialCache> {
        self.cache
    }

    /// The timestamp column (micros).
    pub(crate) fn ts(&self) -> io::Result<&[i64]> {
        if let Some(ts) = self.ts.get() {
            return Ok(ts);
        }
        let ts = self.segment.decode_ts().map_err(data_err)?;
        Ok(self.ts.get_or_init(|| Arc::new(ts)))
    }

    /// The target column as its dictionary plus one code per row.
    pub(crate) fn targets(&self) -> io::Result<(Vec<u64>, Vec<u32>)> {
        self.segment.decode_targets().map_err(data_err)
    }

    /// A label column (tool, verdict or outcome) as its dictionary,
    /// borrowed from the segment's bytes, plus one code per row.
    pub(crate) fn labels(&self, col: Column) -> io::Result<(Vec<&'a str>, Vec<u32>)> {
        self.segment.decode_strings(col).map_err(data_err)
    }

    /// The fake-ratio column.
    pub(crate) fn ratios(&self) -> io::Result<Vec<f64>> {
        self.segment.decode_ratios().map_err(data_err)
    }

    /// A count column (fake count, sample size, API calls or trace id).
    pub(crate) fn counts(&self, col: Column) -> io::Result<Vec<u64>> {
        self.segment.decode_counts(col).map_err(data_err)
    }
}

/// Row `i` of a decoded column, or the default when it was not
/// projected.
fn pick<T: Copy + Default>(col: &Option<Vec<T>>, i: usize) -> T {
    col.as_ref().map_or_else(T::default, |c| c[i])
}

/// [`pick`] for a dictionary-coded column.
fn pick_coded<T: Copy + Default>(col: &Option<(Vec<T>, Vec<u32>)>, i: usize) -> T {
    col.as_ref()
        .map_or_else(T::default, |(dict, codes)| dict[codes[i] as usize])
}

/// Store-wide size summary (`fakeaudit store stats`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Segment count.
    pub segments: u64,
    /// Total rows across segments.
    pub rows: u64,
    /// Total encoded bytes.
    pub bytes: u64,
    /// Per-segment `(seq, rows, bytes)` in sequence order.
    pub per_segment: Vec<(u64, u64, u64)>,
}

/// Read-side handle over a store directory. Opening runs startup
/// recovery — corrupt segments are quarantined rather than failing the
/// open, and acked rows in the WAL tail are materialized as an
/// in-memory segment so scans see them. [`StoreWriter::snapshot`]
/// builds one over a live writer's rows instead, with no I/O.
#[derive(Debug)]
pub struct Store {
    segments: Vec<(u64, Arc<Segment>)>,
    /// How many of `segments`, from the front, are sealed; the rest is
    /// the transient tail segment, if any.
    sealed: usize,
    recovery: RecoveryReport,
}

impl Store {
    /// Opens every segment in `dir` on the real filesystem.
    ///
    /// # Errors
    ///
    /// As [`Store::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(&RealIo, dir.as_ref())
    }

    /// Opens every segment in `dir` over an explicit [`StoreIo`],
    /// running the shared recovery routine first.
    ///
    /// # Errors
    ///
    /// `NotFound` when the directory does not exist; other I/O errors
    /// reading files. Corruption never fails the open — it is
    /// quarantined and reported via [`Store::recovery`].
    pub fn open_with(io: &dyn StoreIo, dir: &Path) -> io::Result<Self> {
        if !io.dir_exists(dir) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("store directory not found: {}", dir.display()),
            ));
        }
        let rec = recover_dir(io, dir)?;
        Ok(Self::assemble(
            rec.healthy,
            &rec.wal_records,
            rec.next_seq,
            rec.report,
        ))
    }

    /// A store over `segments` plus, when `tail` is non-empty, a
    /// synthetic trailing segment numbered `tail_seq` holding it, so
    /// every scan path (pruning, projection) applies to unflushed rows.
    fn assemble(
        mut segments: Vec<(u64, Arc<Segment>)>,
        tail: &[AuditRecord],
        tail_seq: u64,
        recovery: RecoveryReport,
    ) -> Self {
        let sealed = segments.len();
        if !tail.is_empty() {
            let seg = Segment::parse(encode_segment(tail)).expect("fresh encoding always parses");
            segments.push((tail_seq, Arc::new(seg)));
        }
        Self {
            segments,
            sealed,
            recovery,
        }
    }

    /// What startup recovery found when this store opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total rows across all segments.
    pub fn total_rows(&self) -> u64 {
        self.segments.iter().map(|(_, s)| s.rows() as u64).sum()
    }

    /// Timestamp span `(min, max)` in microseconds across every
    /// segment's zone map, or `None` for an empty store. Header-only —
    /// no column block is decoded.
    pub fn ts_bounds(&self) -> Option<(i64, i64)> {
        self.segments
            .iter()
            .map(|(_, s)| (s.zone().ts_min, s.zone().ts_max))
            .reduce(|(lo, hi), (a, b)| (lo.min(a), hi.max(b)))
    }

    /// Size summary for `store stats`.
    pub fn stats(&self) -> StoreStats {
        let per_segment: Vec<(u64, u64, u64)> = self
            .segments
            .iter()
            .map(|(seq, s)| (*seq, s.rows() as u64, s.byte_len() as u64))
            .collect();
        StoreStats {
            segments: per_segment.len() as u64,
            rows: per_segment.iter().map(|&(_, r, _)| r).sum(),
            bytes: per_segment.iter().map(|&(_, _, b)| b).sum(),
            per_segment,
        }
    }

    /// Per segment, in sequence order: its number, the bytes of the query
    /// partials and timestamps cached with it, and its encoded bytes,
    /// which bound the former.
    pub fn partial_cache_bytes(&self) -> Vec<(u64, usize, usize)> {
        self.segments
            .iter()
            .map(|(seq, s)| (*seq, s.partials().bytes(), s.byte_len()))
            .collect()
    }

    /// Visits the store one segment at a time. Zone maps prune whole
    /// segments first. A segment the window covers whole has every row
    /// selected without a decode. Each other segment selects rows by its
    /// timestamps, which a sealed segment takes from its cache (decoding
    /// them on first use), and by its targets, if filtered, which decode.
    /// A segment with any selected row is handed to `visit` as a
    /// [`SegmentBatch`], in sequence order, with its partial cache when
    /// it is sealed and covered. `opts.projection` is ignored.
    ///
    /// # Errors
    ///
    /// `InvalidData` for malformed column blocks, and any error `visit`
    /// returns, which ends the scan.
    pub(crate) fn batches<'a>(
        &'a self,
        opts: &ScanOptions,
        mut visit: impl FnMut(&SegmentBatch<'a>) -> io::Result<()>,
    ) -> io::Result<ScanStats> {
        let mut stats = ScanStats {
            segments_total: self.segments.len() as u64,
            ..ScanStats::default()
        };
        for (index, (_, seg)) in self.segments.iter().enumerate() {
            let zone = seg.zone();
            if !zone.overlaps_window(opts.since_micros, opts.until_micros)
                || opts.target.is_some_and(|t| !zone.may_contain_target(t))
            {
                stats.segments_pruned += 1;
                stats.rows_pruned += seg.rows() as u64;
                continue;
            }
            stats.rows_scanned += seg.rows() as u64;

            let covered = opts.target.is_none()
                && opts.since_micros.is_none_or(|s| zone.ts_min >= s)
                && opts.until_micros.is_none_or(|u| zone.ts_max <= u);
            let batch = if covered {
                stats.rows_selected += seg.rows() as u64;
                SegmentBatch {
                    segment: seg,
                    cache: (index < self.sealed).then(|| seg.partials()),
                    ts: OnceCell::new(),
                    selected: OnceCell::new(),
                }
            } else {
                let decode = || seg.decode_ts().map_err(data_err);
                let ts = if index < self.sealed {
                    seg.partials().timestamps(decode)?
                } else {
                    Arc::new(decode()?)
                };
                let in_window = |i: usize| {
                    opts.since_micros.is_none_or(|s| ts[i] >= s)
                        && opts.until_micros.is_none_or(|u| ts[i] <= u)
                };
                let selected: Vec<usize> = match opts.target {
                    None => (0..seg.rows()).filter(|&i| in_window(i)).collect(),
                    Some(target) => {
                        let (dict, codes) = seg.decode_targets().map_err(data_err)?;
                        match dict.iter().position(|&t| t == target) {
                            Some(code) => (0..seg.rows())
                                .filter(|&i| codes[i] as usize == code && in_window(i))
                                .collect(),
                            None => Vec::new(),
                        }
                    }
                };
                if selected.is_empty() {
                    continue;
                }
                stats.rows_selected += selected.len() as u64;
                SegmentBatch {
                    segment: seg,
                    cache: None,
                    ts: OnceCell::from(ts),
                    selected: OnceCell::from(selected),
                }
            };
            visit(&batch)?;
        }
        Ok(stats)
    }

    /// Scans the store through the same batch visitor the queries fold,
    /// materializing the projected columns of every selected row in
    /// `(segment, row)` order. No column outside the projection is decoded, apart from
    /// the timestamps the selection reads.
    ///
    /// # Errors
    ///
    /// `InvalidData` for malformed column blocks.
    pub fn scan(&self, opts: &ScanOptions) -> io::Result<ScanResult<'_>> {
        let p = opts.projection;
        let mut rows = Vec::new();
        let stats = self.batches(opts, |batch| {
            let labels = |on: bool, col| on.then(|| batch.labels(col)).transpose();
            let counts = |on: bool, col| on.then(|| batch.counts(col)).transpose();
            let targets = p.target.then(|| batch.targets()).transpose()?;
            let tools = labels(p.tool, Column::Tool)?;
            let verdicts = labels(p.verdict, Column::Verdict)?;
            let outcomes = labels(p.outcome, Column::Outcome)?;
            let ratios = p.fake_ratio.then(|| batch.ratios()).transpose()?;
            let fake_counts = counts(p.fake_count, Column::FakeCount)?;
            let samples = counts(p.sample_size, Column::SampleSize)?;
            let api_calls = counts(p.api_calls, Column::ApiCalls)?;
            let trace_ids = counts(p.trace_id, Column::TraceId)?;
            let ts = p.ts.then(|| batch.ts()).transpose()?;
            for &i in batch.selected() {
                rows.push(ScanRow {
                    ts_micros: ts.map_or(0, |ts| ts[i]),
                    target: pick_coded(&targets, i),
                    tool: pick_coded(&tools, i),
                    verdict: pick_coded(&verdicts, i),
                    outcome: pick_coded(&outcomes, i),
                    fake_ratio: pick(&ratios, i),
                    fake_count: pick(&fake_counts, i),
                    sample_size: pick(&samples, i),
                    api_calls: pick(&api_calls, i),
                    trace_id: pick(&trace_ids, i),
                });
            }
            Ok(())
        })?;
        Ok(ScanResult { rows, stats })
    }
}

/// Merges every healthy segment in `dir` (plus any live WAL tail) into
/// a single segment numbered 1, in `(seq, row)` order — deterministic
/// for a fixed store. Returns `(segments_before, rows)`.
///
/// Crash-safe via an intent file: the merged segment is staged and
/// synced, a CRC'd `compact.intent` naming the destination and every
/// victim is made durable, and only then is the staging file renamed
/// and the victims deleted. Recovery rolls an interrupted compact
/// forward (intent durable) or back (intent torn) — never losing rows
/// and never leaving duplicates.
///
/// # Errors
///
/// I/O errors, or `InvalidData` if a healthy-looking segment fails to
/// decode.
pub fn compact(dir: impl AsRef<Path>) -> io::Result<(u64, u64)> {
    compact_with(&RealIo, dir.as_ref())
}

/// [`compact`] over an explicit [`StoreIo`].
///
/// # Errors
///
/// As [`compact`].
pub fn compact_with(io: &dyn StoreIo, dir: &Path) -> io::Result<(u64, u64)> {
    // Settle any interrupted prior compact and quarantine corruption
    // first, so the merge only sees healthy rows.
    let rec = recover_dir(io, dir)?;
    let segments_before = rec.healthy.len() as u64;
    let mut all: Vec<AuditRecord> = Vec::new();
    let mut victims: Vec<String> = Vec::new();
    let dest = segment_name(1);
    for (seq, seg) in &rec.healthy {
        all.extend(seg.decode_all().map_err(data_err)?);
        let name = segment_name(*seq);
        if name != dest {
            victims.push(name);
        }
    }
    all.extend(rec.wal_records);
    for &seq in &rec.live_wals {
        victims.push(wal::wal_name(seq));
    }
    if all.is_empty() {
        return Ok((segments_before, 0));
    }

    let bytes = encode_segment(&all);
    let tmp = dir.join(COMPACT_TMP);
    io.write(&tmp, &bytes)?;
    io.sync_file(&tmp)?;
    let intent = dir.join(COMPACT_INTENT);
    io.write(&intent, &intent_payload(&dest, &victims))?;
    io.sync_file(&intent)?;
    io.sync_dir(dir)?; // commit point: staged bytes + plan are durable
    io.rename(&tmp, &dir.join(&dest))?;
    io.sync_dir(dir)?;
    for v in &victims {
        let p = dir.join(v);
        if io.exists(&p) {
            io.remove(&p)?;
        }
    }
    io.remove(&intent)?;
    io.sync_dir(dir)?;
    Ok((segments_before, all.len() as u64))
}

/// Read-only integrity check of a store directory — what `fakeaudit
/// store verify` prints. Unlike opening, this mutates nothing: it
/// deep-verifies every segment (footer, per-column CRCs, full decode)
/// and classifies WALs and recovery leftovers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Segments that deep-verified cleanly.
    pub segments_ok: u64,
    /// Rows across healthy segments.
    pub segment_rows: u64,
    /// Acked rows waiting in live WALs.
    pub wal_rows: u64,
    /// Hard problems: corrupt segments. Non-empty ⇒ verification
    /// fails (the CLI exits nonzero).
    pub issues: Vec<String>,
    /// Recoverable leftovers (stale WALs, torn tails, staging files,
    /// an interrupted compact, quarantined corpses) that the next open
    /// will settle.
    pub notes: Vec<String>,
}

impl VerifyReport {
    /// Whether every segment verified cleanly.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Deep-verifies `dir` on the real filesystem without mutating it.
///
/// # Errors
///
/// `NotFound` when the directory does not exist; other I/O errors
/// reading files.
pub fn verify(dir: impl AsRef<Path>) -> io::Result<VerifyReport> {
    verify_with(&RealIo, dir.as_ref())
}

/// [`verify`] over an explicit [`StoreIo`].
///
/// # Errors
///
/// As [`verify`].
pub fn verify_with(io: &dyn StoreIo, dir: &Path) -> io::Result<VerifyReport> {
    if !io.dir_exists(dir) {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("store directory not found: {}", dir.display()),
        ));
    }
    let names = io.list(dir)?;
    let mut report = VerifyReport::default();
    let mut healthy_seqs = BTreeSet::new();
    for name in &names {
        let Some(seq) = parse_segment_name(name) else {
            continue;
        };
        let deep = Segment::parse(io.read(&dir.join(name))?)
            .and_then(|seg| seg.verify_columns().and_then(|()| seg.decode_all()));
        match deep {
            Ok(rows) => {
                report.segments_ok += 1;
                report.segment_rows += rows.len() as u64;
                healthy_seqs.insert(seq);
            }
            Err(err) => report.issues.push(format!("{name}: {err}")),
        }
    }
    for name in &names {
        if let Some(seq) = wal::parse_wal_name(name) {
            let replayed = wal::replay(&io.read(&dir.join(name))?);
            if healthy_seqs.contains(&seq) {
                report.notes.push(format!(
                    "{name}: stale (segment {seq} exists); removed on next open"
                ));
            } else {
                report.wal_rows += replayed.records.len() as u64;
                if replayed.discarded_bytes > 0 {
                    report.notes.push(format!(
                        "{name}: torn tail, {} byte(s) discarded on replay",
                        replayed.discarded_bytes
                    ));
                }
            }
        } else if name.ends_with(".tmp") {
            report.notes.push(format!(
                "{name}: leftover staging file; removed on next open"
            ));
        } else if name == COMPACT_INTENT {
            report.notes.push(format!(
                "{name}: interrupted compaction; settled on next open"
            ));
        } else if name.ends_with(QUARANTINE_SUFFIX) {
            report
                .notes
                .push(format!("{name}: quarantined by an earlier recovery"));
        }
    }
    Ok(report)
}

/// Runs startup recovery on `dir` without keeping the store open —
/// what `fakeaudit store repair` does: settles interrupted compacts,
/// quarantines corrupt segments, sweeps staging files and stale WALs.
/// The WAL tail itself is left in place for the next writer.
///
/// # Errors
///
/// `NotFound` when the directory does not exist; other I/O errors.
pub fn repair(dir: impl AsRef<Path>) -> io::Result<RecoveryReport> {
    repair_with(&RealIo, dir.as_ref())
}

/// [`repair`] over an explicit [`StoreIo`].
///
/// # Errors
///
/// As [`repair`].
pub fn repair_with(io: &dyn StoreIo, dir: &Path) -> io::Result<RecoveryReport> {
    if !io.dir_exists(dir) {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("store directory not found: {}", dir.display()),
        ));
    }
    Ok(recover_dir(io, dir)?.report)
}

/// Groups rows into fixed-width time buckets keyed by floor-division of
/// the row's whole-second timestamp — shared by the query kinds.
pub fn bucket_of(ts_micros: i64, bucket_secs: i64) -> i64 {
    ts_micros
        .div_euclid(1_000_000)
        .div_euclid(bucket_secs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// Sorted segment sequence numbers on the real filesystem.
    fn seg_seqs(dir: &Path) -> Vec<u64> {
        let mut out: Vec<u64> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().to_str().and_then(parse_segment_name))
            .collect();
        out.sort_unstable();
        out
    }

    fn records(n: usize, base_target: u64) -> Vec<AuditRecord> {
        (0..n)
            .map(|i| AuditRecord {
                target: base_target + (i as u64 % 3),
                ts_micros: i as i64 * 2_000_000,
                tool: ["FC", "TA"][i % 2].to_string(),
                verdict: "fake".to_string(),
                outcome: "completed".to_string(),
                fake_ratio: i as f64,
                fake_count: i as u64,
                sample_size: 100,
                api_calls: 2,
                trace_id: i as u64,
            })
            .collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fakeaudit-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writer_flushes_at_threshold_and_reader_round_trips() {
        let dir = temp_dir("rt");
        let mut w = StoreWriter::open(&dir, 4).unwrap();
        let recs = records(10, 100);
        let mut flushes = 0;
        for r in &recs {
            if w.append(r.clone()).unwrap().is_some() {
                flushes += 1;
            }
        }
        assert_eq!(flushes, 2); // 10 rows / threshold 4 => 2 full segments
        let tail = w.flush().unwrap();
        assert_eq!(tail.rows, 2);
        assert_eq!(w.health().segments, 3);
        assert_eq!(w.health().buffered_rows, 0);
        assert_eq!(w.health().flushed_rows, 10);

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.segment_count(), 3);
        let result = store
            .scan(&ScanOptions {
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(result.rows.len(), 10);
        // Scan order is (segment, row) order == append order here.
        for (i, row) in result.rows.iter().enumerate() {
            assert_eq!(row.ts_micros, recs[i].ts_micros);
            assert_eq!(row.target, recs[i].target);
            assert_eq!(row.tool, recs[i].tool);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_writer_continues_numbering() {
        let dir = temp_dir("reopen");
        let mut w = StoreWriter::open(&dir, 2).unwrap();
        for r in records(2, 1) {
            w.append(r).unwrap();
        }
        drop(w);
        let mut w2 = StoreWriter::open(&dir, 2).unwrap();
        assert_eq!(w2.health().segments, 1);
        for r in records(2, 1) {
            w2.append(r).unwrap();
        }
        assert_eq!(seg_seqs(&dir), vec![1, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_rows_survive_writer_drop_via_wal() {
        let dir = temp_dir("waltail");
        let recs = records(7, 9);
        {
            let mut w = StoreWriter::open(&dir, 100).unwrap();
            for r in &recs {
                w.append(r.clone()).unwrap();
            }
            // No flush: the writer dies with everything buffered.
        }
        assert_eq!(seg_seqs(&dir), Vec::<u64>::new());

        // A reader sees the journaled tail as a synthetic segment.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().wal_rows_recovered, 7);
        let rows = store
            .scan(&ScanOptions {
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap()
            .rows;
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[3].ts_micros, recs[3].ts_micros);

        // A reopened writer gets the rows back in its buffer and a
        // flush makes them a real segment, discarding the journal.
        let mut w = StoreWriter::open(&dir, 100).unwrap();
        assert_eq!(w.health().wal_recovered_rows, 7);
        assert_eq!(w.health().buffered_rows, 7);
        let info = w.flush().unwrap();
        assert_eq!(info.rows, 7);
        assert!(!fs::read_dir(&dir).unwrap().any(|e| {
            e.unwrap()
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("wal-"))
        }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_lives_exactly_one_generation() {
        let dir = temp_dir("walgen");
        let recs = records(7, 5);
        let mut w = StoreWriter::open(&dir, 4).unwrap();
        let k = w.next_seq;
        let wal_k = dir.join(wal::wal_name(k));
        let wal_next = dir.join(wal::wal_name(k + 1));
        for r in &recs[..3] {
            w.append(r.clone()).unwrap();
        }
        assert!(w.wal_file.is_open());
        assert_eq!(wal::replay(&fs::read(&wal_k).unwrap()).records, recs[..3]);
        // The fourth row reaches the threshold: seg-K takes all four
        // and the journal of generation K goes with the flush.
        assert!(w.append(recs[3].clone()).unwrap().is_some());
        assert!(!wal_k.exists());
        assert!(!w.wal_file.is_open());
        for r in &recs[4..] {
            w.append(r.clone()).unwrap();
        }
        assert_eq!(
            wal::replay(&fs::read(&wal_next).unwrap()).records,
            recs[4..]
        );
        // Dropped with the journal open and unflushed: every acked row
        // comes back.
        drop(w);
        let w = StoreWriter::open(&dir, 4).unwrap();
        assert_eq!(w.health().wal_recovered_rows, 3);
        let rows: Vec<u64> = w
            .snapshot()
            .scan(&ScanOptions {
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap()
            .rows
            .iter()
            .map(|r| r.trace_id)
            .collect();
        assert_eq!(rows, recs.iter().map(|r| r.trace_id).collect::<Vec<_>>());
        drop(w);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_is_quarantined_not_fatal() {
        let dir = temp_dir("quarantine");
        let mut w = StoreWriter::open(&dir, 3).unwrap();
        for r in records(9, 5) {
            w.append(r).unwrap();
        }
        w.flush().unwrap();
        drop(w);

        // Flip one bit in the middle of segment 2.
        let victim = dir.join(segment_name(2));
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&victim, &bytes).unwrap();

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().quarantined.len(), 1);
        assert_eq!(store.recovery().quarantined[0].name, segment_name(2));
        assert_eq!(store.segment_count(), 2);
        assert_eq!(store.total_rows(), 6);
        assert!(dir.join(format!("{}.bad", segment_name(2))).exists());
        assert!(!victim.exists());

        // The writer skips the freed number: new data never collides
        // with the quarantined corpse.
        let mut w = StoreWriter::open(&dir, 3).unwrap();
        assert_eq!(w.health().quarantined_segments, 0); // already moved
        for r in records(3, 5) {
            w.append(r).unwrap();
        }
        assert_eq!(seg_seqs(&dir), vec![1, 3, 4]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cut_segments_cache_only_timestamps_that_pass_their_crc() {
        use crate::segment::{DATA_START, FOOTER_LEN};
        // Rows every 2 s: 0–4 s sound, 6–10 s with a damaged timestamp
        // column under a resealed footer, 12–16 s the tail.
        let recs = records(9, 5);
        let mut damaged = encode_segment(&recs[3..6]);
        damaged[DATA_START] ^= 0x01;
        let footer = damaged.len() - FOOTER_LEN;
        let crc = crc32(&damaged[..footer]);
        damaged[footer..].copy_from_slice(&crc.to_le_bytes());
        let segments = [encode_segment(&recs[..3]), damaged]
            .into_iter()
            .zip(1..)
            .map(|(bytes, seq)| (seq, Arc::new(Segment::parse(bytes).unwrap())))
            .collect();
        let store = Store::assemble(segments, &recs[6..], 3, RecoveryReport::default());
        let window = |since: i64, until: i64| ScanOptions {
            since_micros: Some(since * 1_000_000),
            until_micros: Some(until * 1_000_000),
            ..ScanOptions::default()
        };
        for _ in 0..2 {
            let err = store.scan(&window(2, 8)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        assert_eq!(store.scan(&window(14, 20)).unwrap().stats.rows_selected, 2);
        let cached: Vec<usize> = store
            .partial_cache_bytes()
            .iter()
            .map(|&(_, bytes, _)| bytes)
            .collect();
        assert!(
            cached[0] > 3 * 8,
            "the sound segment's timestamps: {cached:?}"
        );
        assert_eq!(
            cached[1..],
            [0, 0],
            "a failed decode and the tail cache nothing"
        );
    }

    #[test]
    fn retired_v1_segment_is_quarantined_not_read() {
        use crate::segment::{COLUMN_COUNT, DATA_START, FOOTER_LEN};

        let dir = temp_dir("v1");
        let recs = records(6, 5);
        let mut w = StoreWriter::open(&dir, 3).unwrap();
        for r in &recs {
            w.append(r.clone()).unwrap();
        }
        drop(w);

        // Segment 3 in the retired v1 layout: `FAKSEG1\n`, 8-byte
        // directory entries without CRCs, data at byte 140, no footer.
        let v2 = encode_segment(&records(3, 7));
        let mut v1 = b"FAKSEG1\n".to_vec();
        v1.extend_from_slice(&v2[8..60]); // row count + zone map
        for slot in 0..COLUMN_COUNT {
            let entry = 60 + slot * 12;
            v1.extend_from_slice(&v2[entry..entry + 8]); // offset + len
        }
        v1.extend_from_slice(&v2[DATA_START..v2.len() - FOOTER_LEN]);
        fs::write(dir.join(segment_name(3)), &v1).unwrap();

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().segments_ok, 2);
        assert_eq!(
            store.recovery().quarantined,
            vec![QuarantinedSegment {
                name: segment_name(3),
                error: "malformed segment magic at byte 0".to_string(),
            }]
        );
        assert!(dir.join(format!("{}.bad", segment_name(3))).exists());
        let rows = store
            .scan(&ScanOptions {
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap()
            .rows;
        let got: Vec<(i64, u64, &str, u64)> = rows
            .iter()
            .map(|r| (r.ts_micros, r.target, r.tool, r.trace_id))
            .collect();
        let want: Vec<(i64, u64, &str, u64)> = recs
            .iter()
            .map(|r| (r.ts_micros, r.target, r.tool.as_str(), r.trace_id))
            .collect();
        assert_eq!(got, want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_leaves_no_staging_or_intent_files() {
        let dir = temp_dir("compactclean");
        let mut w = StoreWriter::open(&dir, 2).unwrap();
        for r in records(5, 3) {
            w.append(r).unwrap();
        }
        drop(w); // one row still journaled

        let (was, rows) = compact(&dir).unwrap();
        assert_eq!(was, 2);
        assert_eq!(rows, 5); // the WAL tail row is folded in
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![segment_name(1)]);
        assert_eq!(Store::open(&dir).unwrap().total_rows(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_flags_corruption_and_stays_read_only() {
        let dir = temp_dir("verify");
        let mut w = StoreWriter::open(&dir, 2).unwrap();
        for r in records(5, 3) {
            w.append(r).unwrap();
        }
        drop(w);

        let clean = verify(&dir).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.segments_ok, 2);
        assert_eq!(clean.segment_rows, 4);
        assert_eq!(clean.wal_rows, 1);

        let victim = dir.join(segment_name(1));
        let mut bytes = fs::read(&victim).unwrap();
        bytes[200] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();
        let dirty = verify(&dir).unwrap();
        assert!(!dirty.is_clean());
        assert_eq!(dirty.issues.len(), 1);
        // verify must not have touched the corrupt file.
        assert!(victim.exists());

        // repair quarantines it.
        let report = repair(&dir).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert!(!victim.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("on-flush"), Some(FsyncPolicy::OnFlush));
        assert_eq!(FsyncPolicy::parse("on-append"), Some(FsyncPolicy::OnAppend));
        assert_eq!(FsyncPolicy::parse("always"), None);
        assert_eq!(FsyncPolicy::OnAppend.as_str(), "on-append");
    }

    #[test]
    fn time_window_prunes_segments_and_matches_full_scan() {
        let dir = temp_dir("prune");
        let mut w = StoreWriter::open(&dir, 5).unwrap();
        for r in records(20, 7) {
            w.append(r).unwrap();
        }
        w.flush().unwrap();
        let store = Store::open(&dir).unwrap();

        // Window covering rows 0..=4 (ts 0..=8s) hits only segment 1.
        let windowed = store
            .scan(&ScanOptions {
                since_micros: Some(0),
                until_micros: Some(8_000_000),
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap();
        assert!(windowed.stats.segments_pruned >= 3);
        assert!(windowed.stats.rows_pruned > 0);

        // Pruned scan must equal a brute-force filter of the full scan.
        let full = store
            .scan(&ScanOptions {
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap();
        let expected: Vec<&ScanRow> = full
            .rows
            .iter()
            .filter(|r| r.ts_micros <= 8_000_000)
            .collect();
        assert_eq!(windowed.rows.len(), expected.len());
        for (got, want) in windowed.rows.iter().zip(expected) {
            assert_eq!(got, want);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn target_filter_uses_zone_map() {
        let dir = temp_dir("target");
        let mut w = StoreWriter::open(&dir, 5).unwrap();
        for r in records(5, 10) {
            w.append(r).unwrap();
        }
        for r in records(5, 500) {
            w.append(r).unwrap();
        }
        w.flush().unwrap();
        let store = Store::open(&dir).unwrap();
        let result = store
            .scan(&ScanOptions {
                target: Some(501),
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(result.stats.segments_pruned, 1);
        assert!(result.rows.iter().all(|r| r.target == 501));
        assert!(!result.rows.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_merges_to_one_segment_preserving_rows() {
        let dir = temp_dir("compact");
        let mut w = StoreWriter::open(&dir, 3).unwrap();
        for r in records(9, 42) {
            w.append(r).unwrap();
        }
        w.flush().unwrap();
        let before = Store::open(&dir).unwrap();
        let full_before = before
            .scan(&ScanOptions {
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap();
        let (was, rows) = compact(&dir).unwrap();
        assert_eq!(was, 3);
        assert_eq!(rows, 9);
        let after = Store::open(&dir).unwrap();
        assert_eq!(after.segment_count(), 1);
        let full_after = after
            .scan(&ScanOptions {
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(full_before.rows, full_after.rows);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_dir_is_not_found() {
        let err = Store::open("/nonexistent/fakeaudit-store-xyz").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    /// A [`MemIo`](crate::io::MemIo) whose every call fails while `sick`
    /// is set: a disk that goes bad and then heals.
    #[derive(Debug, Default)]
    struct FlakyIo {
        inner: crate::io::MemIo,
        sick: std::sync::atomic::AtomicBool,
    }

    impl FlakyIo {
        fn set_sick(&self, sick: bool) {
            self.sick.store(sick, std::sync::atomic::Ordering::SeqCst);
        }

        fn gate(&self) -> io::Result<()> {
            if self.sick.load(std::sync::atomic::Ordering::SeqCst) {
                Err(io::Error::other("sick disk"))
            } else {
                Ok(())
            }
        }
    }

    impl StoreIo for FlakyIo {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.gate()?;
            self.inner.create_dir_all(dir)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
            self.gate()?;
            self.inner.list(dir)
        }
        fn dir_exists(&self, dir: &Path) -> bool {
            self.gate().is_ok() && self.inner.dir_exists(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.gate().is_ok() && self.inner.exists(path)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.gate()?;
            self.inner.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.gate()?;
            self.inner.write(path, bytes)
        }
        fn append(&self, file: &mut AppendFile, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.gate()?;
            self.inner.append(file, path, bytes)
        }
        fn sync_file(&self, path: &Path) -> io::Result<()> {
            self.gate()?;
            self.inner.sync_file(path)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.gate()?;
            self.inner.sync_dir(dir)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.gate()?;
            self.inner.rename(from, to)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            self.gate()?;
            self.inner.remove(path)
        }
    }

    #[test]
    fn degraded_writer_recovers_without_a_flush() {
        let io = Arc::new(FlakyIo::default());
        let dir = Path::new("/flaky");
        let mut w = StoreWriter::open_with(
            Arc::clone(&io) as SharedIo,
            dir,
            StoreWriter::DEFAULT_FLUSH_THRESHOLD,
            FsyncPolicy::OnAppend,
        )
        .unwrap();
        let recs = records(40, 1);
        let max = StoreWriter::MAX_CONSECUTIVE_IO_ERRORS as usize;

        io.set_sick(true);
        for r in &recs[..20] {
            let _ = w.append(r.clone());
        }
        assert!(w.health().degraded, "8 journal failures degrade the writer");

        io.set_sick(false);
        let mut healed_at = None;
        for (i, r) in recs.iter().enumerate().skip(20) {
            let _ = w.append(r.clone());
            if healed_at.is_none() && !w.health().degraded {
                healed_at = Some(i);
            }
        }
        let healed_at = healed_at.expect("a probe must revive the writer without a flush");
        assert!(
            healed_at < 20 + max + 1,
            "the first probe after healing lands within {max} dropped rows (row {healed_at})"
        );

        // Every row from the successful probe on is journaled, with no
        // flush in between; every row before it was lost.
        let health = w.health();
        assert_eq!(health.buffered_rows as usize, recs.len() - healed_at);
        let on_disk = Store::open_with(io.as_ref(), dir).unwrap();
        let ids: Vec<u64> = on_disk
            .scan(&ScanOptions {
                projection: Projection::all(),
                ..Default::default()
            })
            .unwrap()
            .rows
            .iter()
            .map(|r| r.trace_id)
            .collect();
        assert_eq!(
            ids,
            (healed_at as u64..recs.len() as u64).collect::<Vec<_>>()
        );
        assert_eq!(
            health.dropped_rows,
            recs.len() as u64 - on_disk.total_rows()
        );
    }

    #[test]
    fn failed_append_closes_the_journal() {
        let io = Arc::new(FlakyIo::default());
        let dir = Path::new("/flaky");
        let mut w = StoreWriter::open_with(
            Arc::clone(&io) as SharedIo,
            dir,
            StoreWriter::DEFAULT_FLUSH_THRESHOLD,
            FsyncPolicy::Never,
        )
        .unwrap();
        let recs = records(3, 1);
        w.append(recs[0].clone()).unwrap();
        assert!(w.wal_file.is_open());
        io.set_sick(true);
        assert!(w.append(recs[1].clone()).is_err());
        assert!(!w.wal_file.is_open(), "a failed append closes the journal");
        io.set_sick(false);
        w.append(recs[2].clone()).unwrap();
        assert!(w.wal_file.is_open());
        let journal = wal::replay(&io.read(&w.wal_path).unwrap());
        assert_eq!(journal.records, [recs[0].clone(), recs[2].clone()]);
    }

    #[test]
    fn bucket_of_floors_negatives() {
        assert_eq!(bucket_of(0, 60), 0);
        assert_eq!(bucket_of(59_999_999, 60), 0);
        assert_eq!(bucket_of(60_000_000, 60), 1);
        assert_eq!(bucket_of(-1, 60), -1);
    }
}
