//! Embedded columnar audit-history store.
//!
//! The paper's verdict tables are one-shot snapshots; this crate keeps
//! the longitudinal record — every completed audit appended as an
//! [`AuditRecord`] through a [`StoreWriter`] that journals each row to
//! a checksummed write-ahead log before acking, then flushes immutable
//! columnar segments (dictionary-encoded labels and targets,
//! delta-encoded timestamps, zone-map min/max footers, per-column and
//! whole-file CRC32s), byte-deterministic for a fixed record stream.
//! Flushes and compactions are atomic and crash-safe (stage → sync →
//! rename → sync), the ack-time durability floor is an [`FsyncPolicy`]
//! knob, and opening either side runs a recovery routine that replays
//! the WAL tail and quarantines corrupt segments instead of failing —
//! all of it provable in-process against the deterministic
//! fault-injecting filesystem in [`io`]. The read side ([`Store`])
//! prunes segments on their zone maps and visits each remaining one as
//! a batch whose columns decode only when read. [`queries`] folds the
//! analytical kinds (`timeseries`, `drift`, `retention`, `topk`)
//! straight off those batches into per-segment partials, which a
//! sealed segment the query window covers keeps cached (as a sealed
//! segment a window cuts keeps its decoded timestamps), and
//! [`Store::scan`] materializes rows from them. A [`Store`] comes
//! either from opening a directory or, with no I/O, from a live
//! writer's in-memory segments ([`StoreWriter::snapshot`]).
//!
//! Std only, apart from `telemetry::json`, which writes the strings of
//! a query report; no allocator tricks — callers (server sim, gateway,
//! CLI, bench) wire the returned
//! [`FlushInfo`]/[`ScanStats`]/[`RecoveryReport`] into telemetry
//! themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
pub mod io;
pub mod queries;
mod record;
mod segment;
mod store;
pub mod wal;

pub use encode::{crc32, DecodeError};
pub use io::{AppendFile, CrashMode, FaultScript, MemIo, RealIo, SharedIo, StoreIo};
pub use record::{dominant_verdict, AuditRecord};
pub use segment::{
    encode_segment, Column, Segment, ZoneMap, COLUMN_COUNT, DATA_START, FOOTER_LEN, MAGIC,
};
pub use store::{
    bucket_of, compact, compact_with, open_shared, open_shared_with, repair, repair_with, verify,
    verify_with, FlushInfo, FsyncPolicy, Projection, QuarantinedSegment, RecoveryReport,
    ScanOptions, ScanResult, ScanRow, ScanStats, SharedWriter, Store, StoreHealth, StoreStats,
    StoreWriter, VerifyReport, WriterView,
};
