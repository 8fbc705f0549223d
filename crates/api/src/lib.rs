//! # `alex-api`: the index contract every backend and driver speaks
//!
//! The ALEX paper's headline claim is comparative — ALEX vs. B+Tree vs.
//! learned baselines across reads, writes, scans, and mixed YCSB
//! workloads. Making that comparison faithful requires every backend to
//! implement *one* precisely specified surface, and every driver
//! (single- and multi-threaded, benchmarks, consistency suites) to
//! consume only that surface. This crate is that boundary: it has no
//! dependencies, defines the trait family, the shared [`Entry`] and
//! [`InsertError`] types, a trivially correct reference implementation
//! ([`LockedBTreeMap`]), and a reusable [`conformance_suite!`] macro
//! that backends instantiate to prove they honour the contract.
//!
//! ## Which trait do I implement?
//!
//! | Your type is… | Implement | You get |
//! |---|---|---|
//! | a read-only index (static structure) | [`IndexRead`] | point/range reads, size accounting, the read side of every driver |
//! | a single-writer map (`&mut self` writes) | [`IndexRead`] + [`IndexWrite`] | the single-threaded workload driver and the conformance suite |
//! | a concurrent map (`&self` writes, internally synchronized) | [`IndexRead`] + [`ConcurrentIndex`], plus a 3-line [`IndexWrite`] delegation | the multi-threaded driver *and* everything above |
//! | any of the above with native batch paths | … + [`BatchOps`] overrides | sorted-batch `get_many` / `bulk_insert` (defaults fall back per key, so batch support is never optional for callers) |
//!
//! Coherence note: a blanket `impl<T: ConcurrentIndex> IndexWrite for T`
//! would be the obvious way to give every concurrent backend the
//! exclusive-access surface for free, but Rust's coherence rules forbid
//! downstream crates from adding direct `IndexWrite` impls alongside
//! such a blanket. Concurrent backends therefore write the (trivial)
//! delegation themselves — see [`LockedBTreeMap`]'s impl for the
//! pattern. Blanket impls over references (`&T`, `&mut T`) *are*
//! provided, so drivers can be generic over one read/write surface
//! without caring whether they hold the index by value or by reference.
//!
//! ## Contract
//!
//! - [`IndexRead::get`] returns the **value** (cloned out of the
//!   index), not a membership bool — consistency suites compare
//!   payloads, not presence.
//! - [`IndexRead::range_from`] yields real [`Entry`] items in strictly
//!   increasing key order; [`IndexRead::scan_from`] is the
//!   allocation-free callback twin benchmarks use.
//! - [`IndexWrite::insert`] rejects duplicates with
//!   [`InsertError::DuplicateKey`] and must leave the stored value
//!   unchanged (ALEX does not support duplicate keys, §7 of the paper).
//! - Every write entry point (`insert`, `bulk_load`, `bulk_insert`)
//!   rejects the reserved [`SentinelKey::MAX_KEY`] sentinel with
//!   [`InsertError::UnsupportedKey`] — gapped backends use that value
//!   internally as gap fill, so storing it would be indistinguishable
//!   from an empty slot. The conformance suite checks all backends
//!   agree. Batch entry points refuse a batch with such a key (or a
//!   NaN) anywhere in it through [`check_batch_keys`].
//! - [`IndexWrite::remove`] returns the evicted value.
//! - [`BatchOps`] methods must be observationally equivalent to their
//!   per-key counterparts on sorted input.
//!
//! ```
//! use alex_api::{ConcurrentIndex, IndexRead, IndexWrite, LockedBTreeMap};
//!
//! let mut index = LockedBTreeMap::from_pairs(&[(1u64, 10u64), (2, 20)]);
//! assert_eq!(index.get(&2), Some(20));
//! IndexWrite::insert(&mut index, 3, 30).unwrap();
//! assert!(IndexWrite::insert(&mut index, 3, 31).is_err(), "duplicates rejected");
//! assert_eq!(IndexWrite::remove(&mut index, &1), Some(10), "remove evicts the value");
//! let keys: Vec<u64> = index.range_from(&0, 10).map(|e| e.key).collect();
//! assert_eq!(keys, vec![2, 3]);
//! ```

mod baseline;
pub mod conformance;
pub mod keys;

pub use baseline::LockedBTreeMap;
pub use keys::{composite_projection, Composite, FixedStr, SentinelKey};

/// One key/value pair yielded by [`IndexRead::range_from`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry<K, V> {
    /// The entry's key.
    pub key: K,
    /// The entry's payload.
    pub value: V,
}

impl<K, V> Entry<K, V> {
    /// Construct an entry.
    pub fn new(key: K, value: V) -> Self {
        Self { key, value }
    }
}

impl<K, V> From<(K, V)> for Entry<K, V> {
    fn from((key, value): (K, V)) -> Self {
        Self { key, value }
    }
}

/// Why an insert was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InsertError {
    /// The key is already present; the stored value was left unchanged.
    DuplicateKey,
    /// The key is the reserved [`SentinelKey::MAX_KEY`] sentinel, which
    /// backends use internally (gap fill) and therefore cannot store.
    UnsupportedKey,
}

impl core::fmt::Display for InsertError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InsertError::DuplicateKey => {
                write!(f, "key already present (duplicate keys are not supported)")
            }
            InsertError::UnsupportedKey => {
                write!(f, "key is the reserved MAX_KEY sentinel (not storable)")
            }
        }
    }
}

impl std::error::Error for InsertError {}

/// Refuse a write batch that holds a key no index can store: the
/// reserved [`SentinelKey::MAX_KEY`] sentinel, or a key unequal to
/// itself (a NaN). Every batch write entry point calls this before it
/// checks the batch's order or applies or logs any pair, so a refused
/// batch leaves the index unchanged.
pub fn check_batch_keys<K: SentinelKey, V>(pairs: &[(K, V)]) -> Result<(), InsertError> {
    if pairs.iter().any(|(k, _)| k.is_sentinel()) {
        Err(InsertError::UnsupportedKey)
    } else {
        Ok(())
    }
}

/// Whether a batch read's keys are sorted non-decreasing once keys
/// unequal to themselves (NaN) are skipped. A NaN has no place in any
/// order and every lookup answers it absent, so a sorted batch read
/// may hold one anywhere; every `get_many` order assert calls this.
pub fn is_sorted_ignoring_nan<K: PartialOrd>(keys: &[K]) -> bool {
    keys.iter().filter(|k| k.partial_cmp(k).is_some()).is_sorted()
}

/// The entry iterator returned by [`IndexRead::range_from`].
///
/// Entries are materialized once up front (values are cloned out of the
/// index), so the iterator never holds a lock or borrow on the backend
/// — crucial for concurrent backends whose reads take shard locks. The
/// zero-allocation alternative for hot paths is
/// [`IndexRead::scan_from`].
#[derive(Debug, Clone)]
pub struct RangeScan<K, V> {
    entries: std::vec::IntoIter<Entry<K, V>>,
}

impl<K, V> RangeScan<K, V> {
    /// Build from already-collected entries (backends overriding
    /// [`IndexRead::range_from`] use this).
    pub fn from_entries(entries: Vec<Entry<K, V>>) -> Self {
        Self {
            entries: entries.into_iter(),
        }
    }
}

impl<K, V> Iterator for RangeScan<K, V> {
    type Item = Entry<K, V>;

    fn next(&mut self) -> Option<Entry<K, V>> {
        self.entries.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl<K, V> ExactSizeIterator for RangeScan<K, V> {}

impl<K, V> DoubleEndedIterator for RangeScan<K, V> {
    fn next_back(&mut self) -> Option<Entry<K, V>> {
        self.entries.next_back()
    }
}

/// The read surface: value-returning point lookups, ordered range
/// scans, and the paper's §5.1 size accounting.
///
/// Object-safe; all methods take `&self`.
pub trait IndexRead<K, V> {
    /// Look up `key`, returning a clone of its payload.
    fn get(&self, key: &K) -> Option<V>;

    /// Whether `key` is present. Backends should override this with
    /// their native membership test so hot read loops never clone
    /// payloads.
    fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Visit up to `limit` entries with key `>= key` in strictly
    /// increasing key order; returns the number visited. This is the
    /// allocation-free fast path the benchmarks drive.
    fn scan_from(&self, key: &K, limit: usize, visit: &mut dyn FnMut(&K, &V)) -> usize;

    /// Iterate up to `limit` entries with key `>= key` in strictly
    /// increasing key order. The default collects via
    /// [`IndexRead::scan_from`].
    fn range_from(&self, key: &K, limit: usize) -> RangeScan<K, V>
    where
        K: Clone,
        V: Clone,
    {
        let mut entries = Vec::new();
        self.scan_from(key, limit, &mut |k, v| {
            entries.push(Entry::new(k.clone(), v.clone()));
        });
        RangeScan::from_entries(entries)
    }

    /// Number of stored entries.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The paper's *index size* (models/inner nodes + pointers +
    /// metadata), §5.1.
    fn index_size_bytes(&self) -> usize;

    /// The paper's *data size* (leaf/data storage including gaps),
    /// §5.1.
    fn data_size_bytes(&self) -> usize;

    /// Display name for reports.
    fn label(&self) -> String;
}

/// The exclusive-access write surface (`&mut self`).
pub trait IndexWrite<K, V>: IndexRead<K, V> {
    /// Insert a pair. Fails with [`InsertError::DuplicateKey`] when the
    /// key is already present, leaving the stored value unchanged, and
    /// with [`InsertError::UnsupportedKey`] for the reserved
    /// [`SentinelKey::MAX_KEY`] sentinel.
    fn insert(&mut self, key: K, value: V) -> Result<(), InsertError>;

    /// Remove `key`, returning the evicted value.
    fn remove(&mut self, key: &K) -> Option<V>;

    /// Load sorted, strictly-increasing `pairs` into an **empty**
    /// index, returning the number loaded. Backends with a native
    /// bulk-build path (e.g. ALEX's Algorithm 4) override this with a
    /// rebuild; the default inserts per pair.
    ///
    /// A batch containing [`SentinelKey::MAX_KEY`] or a NaN anywhere is
    /// rejected with [`InsertError::UnsupportedKey`] and nothing is
    /// loaded (see [`check_batch_keys`]).
    fn bulk_load(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError>
    where
        K: SentinelKey + Clone,
        V: Clone,
    {
        debug_assert!(self.is_empty(), "bulk_load expects an empty index");
        check_batch_keys(pairs)?;
        let mut loaded = 0usize;
        for (k, v) in pairs {
            match self.insert(k.clone(), v.clone()) {
                Ok(()) => loaded += 1,
                Err(InsertError::DuplicateKey) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(loaded)
    }
}

/// The shared-access write surface: operations take `&self` and are
/// safe under concurrent callers (implementations provide their own
/// synchronization — per-shard locks, or lock-free schemes like
/// `alex-core`'s epoch-based `EpochAlex`).
///
/// ## The `Sync` bound
///
/// `Sync` is the *whole* concurrency contract on the read side: the
/// multi-threaded driver shares one `&I` across scoped workers and
/// calls [`IndexRead`] methods plus these `&self` writes with no
/// external locking. Nothing in this trait requires reads to block —
/// an implementation may serve [`IndexRead::get`]/
/// [`IndexRead::scan_from`] wait-free (epoch-pinned snapshot reads)
/// while only writers serialize among themselves. Callers therefore
/// must not assume reads and writes are mutually atomic beyond the
/// per-operation guarantees: a scan concurrent with writes may observe
/// different leaves/shards at different instants, but every observed
/// entry must have been live at some point, and quiescent state must
/// equal a sequential replay (the `concurrent` section of
/// [`conformance_suite!`] checks exactly this).
///
/// Concurrent backends should also implement [`IndexWrite`] by
/// delegating `&mut self` calls to these `&self` methods, so the
/// single-threaded driver and the conformance suite can exercise them
/// too (coherence forbids the crate doing it with a blanket impl — see
/// the crate docs).
pub trait ConcurrentIndex<K, V>: IndexRead<K, V> + Sync {
    /// Insert a pair; [`InsertError::DuplicateKey`] when present,
    /// [`InsertError::UnsupportedKey`] for the reserved sentinel.
    fn insert(&self, key: K, value: V) -> Result<(), InsertError>;

    /// Remove `key`, returning the evicted value.
    fn remove(&self, key: &K) -> Option<V>;

    /// Insert a sorted (non-decreasing by key) batch of pairs through
    /// `&self`, skipping duplicates; returns the number inserted.
    ///
    /// Must be observationally equivalent to per-key
    /// [`ConcurrentIndex::insert`] calls at quiescence (the concurrent
    /// conformance arm checks this under racing readers). Backends
    /// with a native batch write path — e.g. run-level copy-on-write
    /// publication that makes each leaf's portion of the batch visible
    /// atomically — override the per-key default.
    ///
    /// A batch containing [`SentinelKey::MAX_KEY`] or a NaN anywhere is
    /// rejected with [`InsertError::UnsupportedKey`] and nothing is
    /// applied (see [`check_batch_keys`]).
    fn bulk_insert(&self, pairs: &[(K, V)]) -> Result<usize, InsertError>
    where
        K: SentinelKey + Clone,
        V: Clone,
    {
        check_batch_keys(pairs)?;
        let mut inserted = 0usize;
        for (k, v) in pairs {
            match self.insert(k.clone(), v.clone()) {
                Ok(()) => inserted += 1,
                Err(InsertError::DuplicateKey) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(inserted)
    }
}

/// Sorted-batch operations, with per-key defaults so every
/// [`IndexWrite`] backend supports batching; backends with native batch
/// routing (sorted-run reuse, one lock acquisition per shard run)
/// override them.
///
/// Batch methods must be observationally equivalent to their per-key
/// counterparts; the conformance suite checks this.
pub trait BatchOps<K, V>: IndexWrite<K, V> {
    /// Look up a sorted (non-decreasing) batch of keys; one
    /// `Option<V>` per input key, in input order.
    fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// Insert a sorted (non-decreasing by key) batch of pairs,
    /// skipping duplicates; returns the number inserted.
    ///
    /// A batch containing [`SentinelKey::MAX_KEY`] or a NaN anywhere is
    /// rejected with [`InsertError::UnsupportedKey`] and nothing is
    /// applied (see [`check_batch_keys`]).
    fn bulk_insert(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError>
    where
        K: SentinelKey + Clone,
        V: Clone,
    {
        check_batch_keys(pairs)?;
        let mut inserted = 0usize;
        for (k, v) in pairs {
            match self.insert(k.clone(), v.clone()) {
                Ok(()) => inserted += 1,
                Err(InsertError::DuplicateKey) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(inserted)
    }
}

// ----------------------------------------------------------------------
// Blanket impls over references: drivers stay generic over one
// read/write surface regardless of how they hold the index.
// ----------------------------------------------------------------------

macro_rules! delegate_index_read {
    () => {
        fn get(&self, key: &K) -> Option<V> {
            (**self).get(key)
        }

        fn contains(&self, key: &K) -> bool {
            (**self).contains(key)
        }

        fn scan_from(&self, key: &K, limit: usize, visit: &mut dyn FnMut(&K, &V)) -> usize {
            (**self).scan_from(key, limit, visit)
        }

        fn range_from(&self, key: &K, limit: usize) -> RangeScan<K, V>
        where
            K: Clone,
            V: Clone,
        {
            (**self).range_from(key, limit)
        }

        fn len(&self) -> usize {
            (**self).len()
        }

        fn is_empty(&self) -> bool {
            (**self).is_empty()
        }

        fn index_size_bytes(&self) -> usize {
            (**self).index_size_bytes()
        }

        fn data_size_bytes(&self) -> usize {
            (**self).data_size_bytes()
        }

        fn label(&self) -> String {
            (**self).label()
        }
    };
}

impl<K, V, T: IndexRead<K, V> + ?Sized> IndexRead<K, V> for &T {
    delegate_index_read!();
}

impl<K, V, T: IndexRead<K, V> + ?Sized> IndexRead<K, V> for &mut T {
    delegate_index_read!();
}

impl<K, V, T: IndexWrite<K, V> + ?Sized> IndexWrite<K, V> for &mut T {
    fn insert(&mut self, key: K, value: V) -> Result<(), InsertError> {
        (**self).insert(key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        (**self).remove(key)
    }

    fn bulk_load(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError>
    where
        K: SentinelKey + Clone,
        V: Clone,
    {
        (**self).bulk_load(pairs)
    }
}

impl<K, V, T: ConcurrentIndex<K, V> + ?Sized> ConcurrentIndex<K, V> for &T {
    fn insert(&self, key: K, value: V) -> Result<(), InsertError> {
        (**self).insert(key, value)
    }

    fn remove(&self, key: &K) -> Option<V> {
        (**self).remove(key)
    }

    fn bulk_insert(&self, pairs: &[(K, V)]) -> Result<usize, InsertError>
    where
        K: SentinelKey + Clone,
        V: Clone,
    {
        (**self).bulk_insert(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The reference baseline must itself pass the conformance suite.
    crate::conformance_suite!(locked_btreemap, |pairs: &[(u64, u64)]| {
        LockedBTreeMap::from_pairs(pairs)
    });

    #[test]
    fn entry_conversions() {
        let e: Entry<u64, u64> = (1, 2).into();
        assert_eq!(e, Entry::new(1, 2));
    }

    #[test]
    fn insert_error_displays() {
        let msg = InsertError::DuplicateKey.to_string();
        assert!(msg.contains("already present"), "{msg}");
    }

    #[test]
    fn range_scan_is_exact_size_and_double_ended() {
        let mut scan =
            RangeScan::from_entries(vec![Entry::new(1u64, 1u64), Entry::new(2, 2), Entry::new(3, 3)]);
        assert_eq!(scan.len(), 3);
        assert_eq!(scan.next_back().map(|e| e.key), Some(3));
        assert_eq!(scan.next().map(|e| e.key), Some(1));
        assert_eq!(scan.len(), 1);
    }

    #[test]
    fn reference_blankets_delegate() {
        let mut index = LockedBTreeMap::from_pairs(&[(1u64, 10u64), (2, 20)]);
        {
            let by_ref = &index;
            assert_eq!(IndexRead::get(&by_ref, &1), Some(10));
            assert_eq!(ConcurrentIndex::insert(&by_ref, 3, 30), Ok(()));
        }
        {
            let mut by_mut = &mut index;
            assert_eq!(IndexWrite::remove(&mut by_mut, &3), Some(30));
            assert_eq!(IndexRead::len(&by_mut), 2);
        }
    }
}
