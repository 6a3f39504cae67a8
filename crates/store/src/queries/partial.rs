//! Per-segment partial aggregates, the key they are cached under, and
//! the bound on what a segment caches.
//!
//! Each query kind folds one segment's selected rows into a mergeable
//! partial ([`Partial::fold`]) and answers by merging the partials of
//! every segment its window reaches, in segment order. [`collect`] is
//! the one place that decides where a partial comes from:
//!
//! - a sealed segment the window covers whole serves the partial cached
//!   with it under (kind, bucket width), folding it on first use from
//!   the same CRC-checked column decodes a cut segment's fold reads;
//! - a segment a window boundary cuts, and the transient tail segment,
//!   fold their selected rows into a throwaway partial.
//!
//! Either way the rows go through the kind's one fold, and sums merge
//! exactly ([`super::ExactSum`]), so an answer does not depend on what
//! is cached.
//!
//! A sealed segment's decoded timestamp column is one more entry in the
//! same cache ([`PartialCache::timestamps`]): `Store::batches` selects
//! the rows of a sealed segment a window cuts from it, so a repeated
//! window decodes and CRC-checks that column once, not on every query.
//! A decode that fails is returned and caches nothing, and the tail
//! segment caches nothing.
//!
//! Per segment, the cached partials' and timestamps' bytes together
//! never exceed the segment's encoded bytes: the least recently used
//! entry is evicted to make room, and an entry larger than the whole
//! budget is not cached, so its segment keeps folding rows or decoding
//! timestamps.

use std::any::Any;
use std::fmt;
use std::io;
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use super::{QueryKind, QueryOptions};
use crate::store::{ScanStats, SegmentBatch, Store};

/// A query kind's aggregate over one segment's selected rows.
pub(super) trait Partial: Any + Send + Sync + Sized {
    /// The kind whose partial this is.
    const KIND: QueryKind;
    /// Whether the fold reads the bucket width. A kind that does not
    /// (`topk`) keys its partials without one.
    const BUCKETED: bool;

    /// Folds `batch`'s selected rows.
    fn fold(batch: &SegmentBatch<'_>, bucket_secs: i64) -> io::Result<Self>;

    /// Bytes the partial holds: its own size plus its heap allocations.
    fn bytes(&self) -> usize;
}

/// What a cache entry holds: one kind's partial, or the segment's
/// timestamps. A partial's window, k and `by` are never part of its key:
/// a covered segment's partial holds all its rows, and k and `by` apply
/// only when the merged answer is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PartialKey {
    /// A kind's partial over all of the segment's rows.
    Partial {
        kind: QueryKind,
        /// The bucket width the fold used, a width below 1 counting as 1
        /// (as `bucket_of` takes it), or 0 for a kind that does not
        /// bucket.
        bucket_secs: i64,
    },
    /// The segment's decoded timestamp column.
    Timestamps,
}

impl PartialKey {
    fn of<P: Partial>(bucket_secs: i64) -> Self {
        Self::Partial {
            kind: P::KIND,
            bucket_secs: if P::BUCKETED { bucket_secs.max(1) } else { 0 },
        }
    }
}

/// The partials and timestamps cached with one sealed segment, at most
/// `budget` bytes of them. Its lock is held only to look up, insert or
/// evict, never while an entry is built: two queries racing to build
/// the same entry both build it, and the identical second copy is
/// dropped.
pub(crate) struct PartialCache {
    budget: usize,
    state: Mutex<CacheState>,
}

#[derive(Default)]
struct CacheState {
    entries: Vec<Entry>,
    /// Sum of the entries' `bytes`.
    bytes: usize,
    /// Ticks once per lookup or insert; an entry's `used` is the tick of
    /// its last use.
    clock: u64,
}

struct Entry {
    key: PartialKey,
    value: Arc<dyn Any + Send + Sync>,
    /// The value's bytes plus this entry's own.
    bytes: usize,
    used: u64,
}

impl PartialCache {
    /// An empty cache that holds at most `budget` bytes.
    pub(crate) fn new(budget: usize) -> Self {
        Self {
            budget,
            state: Mutex::new(CacheState::default()),
        }
    }

    /// Bytes of the partials and timestamps cached now.
    pub(crate) fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// The segment's timestamp column, from the cache or else from
    /// `decode` (which checks the column's CRC), cached if it fits.
    ///
    /// # Errors
    ///
    /// Whatever `decode` returns; nothing is cached then.
    pub(crate) fn timestamps(
        &self,
        decode: impl FnOnce() -> io::Result<Vec<i64>>,
    ) -> io::Result<Arc<Vec<i64>>> {
        self.get_or_build(PartialKey::Timestamps, decode, |ts| {
            size_of::<Vec<i64>>() + vec_bytes(ts)
        })
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        // Every update leaves the state consistent, so a panic elsewhere
        // while the lock was held poisons nothing that matters.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value cached under `key`, or else `build`'s, which is cached
    /// if its `bytes` fit. A `build` error caches nothing.
    fn get_or_build<T: Any + Send + Sync>(
        &self,
        key: PartialKey,
        build: impl FnOnce() -> io::Result<T>,
        bytes: impl FnOnce(&T) -> usize,
    ) -> io::Result<Arc<T>> {
        if let Some(hit) = self.get(key) {
            return Ok(hit);
        }
        let built = Arc::new(build()?);
        self.insert(key, &built, bytes(&built));
        Ok(built)
    }

    fn get<T: Any + Send + Sync>(&self, key: PartialKey) -> Option<Arc<T>> {
        let mut state = self.lock();
        state.clock += 1;
        let now = state.clock;
        let entry = state.entries.iter_mut().find(|e| e.key == key)?;
        entry.used = now;
        Arc::clone(&entry.value).downcast().ok()
    }

    /// Caches `value`, which holds `bytes`, under `key`, evicting the
    /// least recently used entries until it fits, unless it alone
    /// exceeds the budget or a racing query cached the same key first.
    fn insert<T: Any + Send + Sync>(&self, key: PartialKey, value: &Arc<T>, bytes: usize) {
        let bytes = bytes + size_of::<Entry>();
        if bytes > self.budget {
            return;
        }
        let mut state = self.lock();
        state.clock += 1;
        if state.entries.iter().any(|e| e.key == key) {
            return;
        }
        while state.bytes + bytes > self.budget {
            let lru = (0..state.entries.len())
                .min_by_key(|&i| state.entries[i].used)
                .expect("entries hold the bytes over budget");
            let evicted = state.entries.swap_remove(lru);
            state.bytes -= evicted.bytes;
        }
        let used = state.clock;
        state.bytes += bytes;
        state.entries.push(Entry {
            key,
            value: Arc::clone(value) as Arc<dyn Any + Send + Sync>,
            bytes,
            used,
        });
    }
}

impl fmt::Debug for PartialCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.lock();
        f.debug_struct("PartialCache")
            .field("budget", &self.budget)
            .field("bytes", &state.bytes)
            .field(
                "keys",
                &state.entries.iter().map(|e| e.key).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Bytes of a `Vec`'s heap buffer.
pub(super) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// The partial of every segment `opts`' window reaches, in segment
/// order, and the scan accounting: cached partials for the sealed
/// segments the window covers whole, throwaway ones for the rest.
pub(super) fn collect<P: Partial>(
    store: &Store,
    opts: &QueryOptions,
) -> io::Result<(Vec<Arc<P>>, ScanStats)> {
    let key = PartialKey::of::<P>(opts.bucket_secs);
    let mut parts = Vec::new();
    let stats = store.batches(&opts.scan_options(), |batch| {
        let fold = || P::fold(batch, opts.bucket_secs);
        parts.push(match batch.cache() {
            Some(cache) => cache.get_or_build(key, fold, P::bytes)?,
            None => Arc::new(fold()?),
        });
        Ok(())
    })?;
    Ok((parts, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A stand-in partial of a chosen size.
    struct Blob(Vec<u8>);

    impl Partial for Blob {
        const KIND: QueryKind = QueryKind::Timeseries;
        const BUCKETED: bool = true;

        fn fold(_: &SegmentBatch<'_>, _: i64) -> io::Result<Self> {
            unreachable!("the cache tests insert blobs directly")
        }

        fn bytes(&self) -> usize {
            size_of::<Self>() + vec_bytes(&self.0)
        }
    }

    fn blob(len: usize) -> Arc<Blob> {
        Arc::new(Blob(vec![0; len]))
    }

    fn cost(len: usize) -> usize {
        blob(len).bytes() + size_of::<Entry>()
    }

    fn key(bucket_secs: i64) -> PartialKey {
        PartialKey::of::<Blob>(bucket_secs)
    }

    fn put(cache: &PartialCache, key: PartialKey, blob: &Arc<Blob>) {
        cache.insert(key, blob, blob.bytes());
    }

    /// What caching `len` timestamps costs.
    fn ts_cost(len: usize) -> usize {
        size_of::<Vec<i64>>() + len * size_of::<i64>() + size_of::<Entry>()
    }

    #[test]
    fn evicts_least_recently_used_within_the_budget() {
        let cache = PartialCache::new(3 * cost(100));
        for width in 1..=3 {
            put(&cache, key(width), &blob(100));
        }
        assert_eq!(cache.bytes(), 3 * cost(100));
        // Touch width 1, so width 2 is now the least recently used.
        assert!(cache.get::<Blob>(key(1)).is_some());
        put(&cache, key(4), &blob(100));
        assert!(cache.get::<Blob>(key(2)).is_none());
        for width in [1, 3, 4] {
            assert!(cache.get::<Blob>(key(width)).is_some(), "width {width}");
        }
        // A bigger partial evicts as many as it needs.
        put(&cache, key(5), &blob(250));
        assert!(cache.bytes() <= 3 * cost(100));
        assert!(cache.get::<Blob>(key(5)).is_some());
    }

    #[test]
    fn a_partial_over_the_budget_is_never_cached() {
        let cache = PartialCache::new(cost(100));
        put(&cache, key(1), &blob(100));
        put(&cache, key(2), &blob(101));
        assert!(cache.get::<Blob>(key(2)).is_none());
        assert!(cache.get::<Blob>(key(1)).is_some());
        assert_eq!(cache.bytes(), cost(100));
    }

    #[test]
    fn keys_normalize_widths_and_ignore_them_where_unread() {
        assert_eq!(key(0), key(1));
        assert_eq!(key(-5), key(1));
        assert_ne!(key(7), key(60));
        assert_ne!(key(1), PartialKey::Timestamps);
        assert_eq!(
            PartialKey::of::<crate::queries::topk::Targets>(7),
            PartialKey::of::<crate::queries::topk::Targets>(60)
        );
        let cache = PartialCache::new(cost(10) * 4);
        put(&cache, key(60), &blob(10));
        // A racing second insert of the same key keeps the first.
        put(&cache, key(60), &blob(10));
        assert_eq!(cache.bytes(), cost(10));
    }

    #[test]
    fn timestamps_decode_once_and_share_the_budget_and_the_lru() {
        let decodes = Cell::new(0);
        let decode = || {
            decodes.set(decodes.get() + 1);
            Ok((0..100).collect::<Vec<i64>>())
        };
        // Room for the timestamps or the partial, not both.
        let cache = PartialCache::new(ts_cost(100).max(cost(100)) + 1);
        let first = cache.timestamps(decode).unwrap();
        assert_eq!(*first, (0..100).collect::<Vec<i64>>());
        assert_eq!(cache.bytes(), ts_cost(100));
        assert!(Arc::ptr_eq(&cache.timestamps(decode).unwrap(), &first));
        assert_eq!(decodes.get(), 1, "the second call is a hit");
        // The partial evicts the timestamps, which then decode afresh
        // and evict the partial in turn.
        put(&cache, key(60), &blob(100));
        assert_eq!(cache.bytes(), cost(100));
        cache.timestamps(decode).unwrap();
        assert_eq!(decodes.get(), 2);
        assert!(cache.get::<Blob>(key(60)).is_none());
        assert_eq!(cache.bytes(), ts_cost(100));
    }

    #[test]
    fn a_failed_decode_caches_nothing_and_timestamps_over_the_budget_stay_out() {
        let cache = PartialCache::new(ts_cost(100));
        let bad = || Err(io::Error::new(io::ErrorKind::InvalidData, "ts column"));
        assert!(cache.timestamps(bad).is_err());
        assert!(cache.timestamps(bad).is_err(), "a failure is never cached");
        assert_eq!(cache.bytes(), 0);
        let long = cache.timestamps(|| Ok(vec![7; 101])).unwrap();
        assert_eq!(long.len(), 101);
        assert_eq!(cache.bytes(), 0, "101 timestamps exceed the budget");
        cache.timestamps(|| Ok(vec![7; 100])).unwrap();
        assert_eq!(cache.bytes(), ts_cost(100));
    }
}
