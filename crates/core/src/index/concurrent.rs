//! [`EpochAlex`]: an internally synchronized ALEX whose readers never
//! block.
//!
//! The wrapper holds an [`AlexIndex`] on the [`Epoch`] store — nodes
//! behind epoch-protected atomic slots ([`crate::epoch`]) — and is the
//! only holder of one:
//!
//! - **Reads** (`get`, `get_many`, `scan_from`, stats) pin an epoch
//!   and descend the RMI on loaded snapshots. They take no lock, are
//!   wait-free with respect to splits, and return **owned** values
//!   (cloned out while pinned — a reference must never outlive its
//!   guard). Each loaded leaf snapshot is read through the *merged
//!   view*: its immutable base array plus the delta buffer published
//!   with it (see [`super::delta`]).
//! - **Writes** (`insert`, `remove`, `update`, `bulk_insert`)
//!   serialize on an internal mutex — mutual exclusion among writers
//!   only — and never mutate a reachable node: every change *publishes*
//!   a replacement leaf at the same id, retiring the old node to the
//!   epoch garbage list. Splits publish a routing inner node at the old
//!   leaf's id as a single atomic step (see [`super::split`]).
//!
//! ## Write amortization (the PR-4 cost note, resolved)
//!
//! The original epoch write path cloned the whole owning leaf per
//! write. Two mechanisms amortize that:
//!
//! 1. **Per-leaf delta buffers.** `insert`, `update` and `remove` all
//!    go through one copy-on-write edit, `EpochAlex::edit`, that puts
//!    or removes one key. It republishes a *shallow* leaf copy: the
//!    base gapped array is shared through an `Arc`, and the edit lands
//!    in a bounded sorted side-array ([`super::delta::DeltaBuf`])
//!    published alongside it, when the key already has an entry there
//!    or the buffer is below [`crate::AlexConfig::delta_buffer`].
//!    Readers merge the two on the fly. Otherwise the writer
//!    *flushes* — folds the buffer into one fresh base array, which
//!    takes the edit — so each write costs `O(delta)` with one
//!    `O(leaf)` clone every `capacity` writes. A split folds the
//!    buffer into the new leaves too.
//! 2. **Run-level CoW in [`EpochAlex::bulk_insert`].** A sorted batch
//!    is grouped into maximal per-leaf runs by the router the
//!    exclusive batch path uses ([`AlexIndex::leaf_run`]), cut at the
//!    leaf's split room ([`AlexIndex::split_room`]) like that path's;
//!    each touched leaf is cloned and published **once per run**, not
//!    once per key.
//!
//! [`EpochAlex::write_stats`] counts `leaf_clones` (full base-array
//! copies), `delta_hits` (writes absorbed by a buffer), and `flushes`
//! (non-empty buffers folded in) so tests and the `fig_write_amp`
//! bench can assert the amortization actually happened.
//!
//! ## Why a pinned reader can never observe a freed node
//!
//! A reader pins the global epoch `e` before loading any pointer, and
//! every pointer it loads was reachable at some instant while pinned.
//! A writer retires a node at the epoch current at replacement, and
//! the node is freed only once the global epoch has advanced **two**
//! steps past that — each advance requiring every pinned reader to
//! have observed the epoch being left. Any reader that could have
//! loaded the pointer is therefore unpinned before the free; any
//! reader pinned later can only load the replacement. The full
//! argument lives in the [`crate::epoch`] module docs; the
//! `tests/epoch_concurrency.rs` suite stresses it and checks that the
//! retire lists drain to zero at quiescence.
//!
//! ## Consistency model
//!
//! Point reads are atomic (a leaf snapshot — base *and* delta — is
//! immutable once published). Scans walk one leaf snapshot at a time,
//! so a scan concurrent with writes sees each leaf at a possibly
//! different instant — keys stay strictly increasing, and every
//! observed payload was live at some point. Each `bulk_insert` run
//! chunk lands through a **single publication**, so its keys become
//! visible atomically — never a torn prefix interleaved with an older
//! generation of the same slot. (With split-on-insert, a run that
//! overflows the leaf is chunked at `max_node_keys` boundaries; each
//! chunk is atomic, but a reader between chunk publications can see
//! an earlier chunk without the later ones.) This is the same
//! relaxation `ShardedAlex` already documents across shards.
//!
//! ```
//! use alex_core::{AlexConfig, EpochAlex};
//!
//! let data: Vec<(u64, u64)> = (0..10_000).map(|k| (k * 2, k)).collect();
//! let index = EpochAlex::bulk_load(&data, AlexConfig::ga_armi().with_splitting());
//!
//! // Reads and writes both take &self: share freely across threads.
//! std::thread::scope(|s| {
//!     s.spawn(|| assert_eq!(index.get(&4000), Some(2000)));
//!     s.spawn(|| assert!(index.insert(4001, 99).is_ok()));
//! });
//! assert_eq!(index.get(&4001), Some(99));
//! // Point writes are absorbed by delta buffers, not full leaf clones.
//! assert!(index.write_stats().delta_hits >= 1);
//! // At quiescence every retired node can be reclaimed.
//! assert_eq!(index.flush_retired(), 0);
//! ```

use std::sync::{Arc, Mutex, MutexGuard};

use alex_api::{check_batch_keys, BatchOps, ConcurrentIndex, IndexRead, IndexWrite, InsertError};

use crate::config::AlexConfig;
use crate::data_node::InsertOutcome;
use crate::key::AlexKey;
use crate::stats::SizeReport;

use super::delta::DeltaOp;
use super::ops::{insert_run, present_prefix};
use super::store::{Dense, Epoch, LeafNode, Node, NodeId};
use super::AlexIndex;
use core::sync::atomic::{AtomicU64, Ordering};

/// An [`AlexIndex`] with lock-free, epoch-protected readers and
/// mutex-serialized, delta-buffered copy-on-write writers. The
/// protocol, the amortization scheme, and the consistency model are
/// documented on this type's source module and in [`crate::epoch`].
///
/// The wrapped index is never exposed by reference: unprotected
/// `&AlexIndex` reads racing this type's writers would be unsound.
/// Use [`EpochAlex::into_inner`] to get the index back once
/// concurrency is over.
#[derive(Debug)]
pub struct EpochAlex<K, V> {
    index: AlexIndex<K, V, Epoch<K, V>>,
    /// Mutual exclusion among writers only; readers never touch it.
    writer: Mutex<()>,
    /// Write-amplification counters (see [`EpochWriteStats`]).
    writes: WriteAmp,
}

/// Reclamation diagnostics for one [`EpochAlex`] (or one shard).
///
/// At quiescence, after [`EpochAlex::flush_retired`], `pending == 0`
/// and `retired_total == freed_total`: every retired node was freed
/// exactly once (no leak, no double-retire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Current global epoch of the index's collector.
    pub global_epoch: u64,
    /// Retired-but-not-yet-freed nodes.
    pub pending: usize,
    /// Nodes ever retired.
    pub retired_total: u64,
    /// Nodes ever freed.
    pub freed_total: u64,
}

/// Write-amplification counters for one [`EpochAlex`] (or summed over
/// epoch shards), exposed by [`EpochAlex::write_stats`].
///
/// Every point write is either a `delta_hit` (absorbed by the owning
/// leaf's delta buffer — an `O(delta)` shallow publish) or part of a
/// `leaf_clone` (a full `O(leaf)` base-array copy). Amortization
/// means `delta_hits` dominates and `leaf_clones` stays far below the
/// write count; the write-path test suite asserts exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochWriteStats {
    /// Full base-array copies made by the write path (delta flushes
    /// and `bulk_insert` run publications; split redistributions are
    /// counted by `WriteStats::splits`, not here).
    pub leaf_clones: u64,
    /// Point writes absorbed by a delta buffer without copying the
    /// base array.
    pub delta_hits: u64,
    /// Non-empty delta buffers folded into a fresh base array (each
    /// flush is also one `leaf_clone`).
    pub flushes: u64,
}

#[derive(Debug, Default)]
struct WriteAmp {
    leaf_clones: AtomicU64,
    delta_hits: AtomicU64,
    flushes: AtomicU64,
}

impl WriteAmp {
    fn delta_hit(&self) {
        self.delta_hits.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> EpochWriteStats {
        EpochWriteStats {
            leaf_clones: self.leaf_clones.load(Ordering::Relaxed),
            delta_hits: self.delta_hits.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

impl<K: AlexKey, V: Clone + Default> EpochAlex<K, V> {
    /// An empty index (cold start; grows by inserts/splits).
    pub fn new(config: AlexConfig) -> Self {
        Self::from_index(AlexIndex::new(config))
    }

    /// Bulk-load from sorted, strictly-increasing pairs.
    pub fn bulk_load(pairs: &[(K, V)], config: AlexConfig) -> Self {
        Self::from_index(AlexIndex::bulk_load(pairs, config))
    }

    /// Wrap an existing index (built exclusively, e.g. by
    /// [`AlexIndex::bulk_load`]) for shared use, moving its nodes from
    /// the [`Dense`] store to the [`Epoch`] store. This is the one way
    /// onto the epoch store, and every `EpochAlex` construction
    /// funnels through it. It is the bulk-load → serve bridge: build
    /// dense (fastest), then wrap to go concurrent.
    pub fn from_index(index: AlexIndex<K, V>) -> Self {
        Self {
            index: index.rehouse(Dense::into_epoch),
            writer: Mutex::new(()),
            writes: WriteAmp::default(),
        }
    }

    /// Unwrap back into the exclusive index (consumes `self`, so no
    /// reader or writer can still be active). The nodes move back to
    /// the dense store, which frees the epoch arena and its retire
    /// list, and then every pending delta buffer is flushed, so the
    /// returned index is delta-free — making [`EpochAlex::from_index`]
    /// then `into_inner` a lossless round trip.
    pub fn into_inner(self) -> AlexIndex<K, V> {
        let mut index = self.index.rehouse(Epoch::into_dense);
        index.flush_deltas();
        index
    }

    /// Acquire the writer mutex, **recovering from poisoning**.
    ///
    /// A writer that panics (e.g. a payload `Clone` unwinding inside
    /// `remove`) poisons the mutex, and propagating that poison would
    /// permanently brick every later write to this index — and, once
    /// WAL appends run under this lock, every durable write to the
    /// shard. Recovery is sound here because writers are
    /// copy-on-write: a mutation becomes visible only through the
    /// single atomic `publish` of a replacement node, so at every
    /// unwind point the published tree is a consistent state (either
    /// the write landed in full or not at all). The guard protects
    /// *mutual exclusion*, not data invariants, so the poison flag
    /// carries no information worth dying for. Contrast the
    /// `LockedBTreeMap` baseline, which mutates in place under an
    /// `RwLock` and correctly keeps propagating poison.
    fn write_lock(&self) -> MutexGuard<'_, ()> {
        self.writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    // ------------------------------------------------------------------
    // Lock-free reads
    // ------------------------------------------------------------------

    /// Look up `key`, cloning the payload out while pinned. Never
    /// blocks, even while a writer splits the owning leaf.
    pub fn get(&self, key: &K) -> Option<V> {
        let _guard = self.index.store.pin();
        self.index.get(key).cloned()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        let _guard = self.index.store.pin();
        self.index.get(key).is_some()
    }

    /// Visit up to `limit` entries with key `>= key` in order. The
    /// walk reads one leaf snapshot at a time (see the module docs'
    /// consistency model). Returns the number of entries visited.
    pub fn scan_from(&self, key: &K, limit: usize, f: impl FnMut(&K, &V)) -> usize {
        let _guard = self.index.store.pin();
        self.index.scan_from(key, limit, f)
    }

    /// Sorted-batch lookup (one epoch pin for the whole batch),
    /// cloning payloads out. Keys answered by the same leaf run are
    /// served from a single snapshot.
    ///
    /// # Panics
    /// Panics (debug builds) if `keys` is not sorted non-decreasing,
    /// apart from NaN keys, which may sit anywhere and answer `None`.
    pub fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        let _guard = self.index.store.pin();
        self.index.get_many(keys).into_iter().map(|v| v.cloned()).collect()
    }

    /// Visit every leaf's **merged live pairs** in key order under a
    /// single epoch pin — the serialization hook the `alex-wal`
    /// snapshotter drives. Writers are never stopped: the walk reads
    /// published (immutable) leaf snapshots one at a time, so each
    /// leaf is observed at a possibly different instant while keys
    /// stay strictly increasing across the whole walk — exactly the
    /// consistency model scans already document. Each callback slice
    /// is one leaf's base array with its delta buffer folded in.
    ///
    /// This is a durability flush boundary, so it *always* (release
    /// builds included) cross-checks each leaf's cached `delta_net`
    /// against a recount: a drifted count would silently corrupt the
    /// snapshot's recorded population.
    ///
    /// # Panics
    /// Panics if a leaf's `delta_net` bookkeeping has drifted — index
    /// corruption a snapshot must not persist.
    pub fn leaf_snapshots(&self, mut f: impl FnMut(&[(K, V)])) {
        let _guard = self.index.store.pin();
        let (_, mut leaf) = self.index.descend_first_leaf(self.index.root);
        loop {
            leaf.assert_delta_net_coherent();
            f(&leaf.to_pairs_merged());
            // A `next` pointer may name a slot a concurrent split just
            // replaced with a routing node; descending normalizes it.
            match leaf.next {
                Some(next) => leaf = self.index.descend_first_leaf(next).1,
                None => break,
            }
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configuration the wrapped index was built with.
    pub fn config(&self) -> &AlexConfig {
        self.index.config()
    }

    /// §5.1 size accounting. Pinned like any other read; counts may be
    /// transiently off by one node while a concurrent split publishes.
    pub fn size_report(&self) -> SizeReport {
        let _guard = self.index.store.pin();
        self.index.size_report()
    }

    /// Aggregated read counters `(lookups, comparisons, direct_hits)`
    /// summed over the current leaf snapshots. Counters ride the leaf
    /// snapshots, so a concurrent flush (which rebuilds the base array)
    /// may fold a leaf's tallies — treat the numbers as advisory load
    /// signals, which is all the shard rebalancer needs.
    pub fn read_stats(&self) -> (u64, u64, u64) {
        let _guard = self.index.store.pin();
        self.index.read_stats()
    }

    // ------------------------------------------------------------------
    // Serialized delta-buffered copy-on-write writes
    // ------------------------------------------------------------------

    /// Insert a pair. Errors on duplicates (stored value left
    /// unchanged), on the reserved sentinel key, and on a NaN key.
    pub fn insert(&self, key: K, value: V) -> Result<(), InsertError> {
        if key.is_sentinel() {
            return Err(InsertError::UnsupportedKey);
        }
        let _writer = self.write_lock();
        let _guard = self.index.store.pin();
        loop {
            let (id, leaf) = self.index.route_to_leaf(&key);
            if leaf.live_peek(&key).is_some() {
                return Err(InsertError::DuplicateKey);
            }
            // Split-on-insert on the merged live count, published
            // atomically (the delta folds into the children); re-route
            // after.
            if self.index.split_room(leaf) == 0 && self.index.split_leaf_shared(id) {
                continue;
            }
            self.edit(id, leaf, key, DeltaOp::Put(value), 1);
            return Ok(());
        }
    }

    /// Remove `key`, returning its payload.
    pub fn remove(&self, key: &K) -> Option<V> {
        let _writer = self.write_lock();
        let _guard = self.index.store.pin();
        let (id, leaf) = self.index.route_to_leaf(key);
        // Absent keys need no publication round trip.
        let evicted = leaf.live_peek(key)?.clone();
        self.edit(id, leaf, *key, DeltaOp::Tombstone, -1);
        Some(evicted)
    }

    /// Replace the payload of an existing key, returning the old
    /// value.
    pub fn update(&self, key: &K, value: V) -> Option<V> {
        let _writer = self.write_lock();
        let _guard = self.index.store.pin();
        let (id, leaf) = self.index.route_to_leaf(key);
        let old = leaf.live_peek(key)?.clone();
        self.edit(id, leaf, *key, DeltaOp::Put(value), 0);
        Some(old)
    }

    /// Sorted-batch insert: one writer-lock acquisition, and **one
    /// leaf clone + publication per leaf run** — the batch is grouped
    /// by owning leaf through the router the exclusive batch path uses
    /// (`AlexIndex::leaf_run`), so a run of `r` keys landing in one
    /// leaf costs `O(leaf + r)` instead of `r` full clones. Duplicates
    /// are skipped; returns the number inserted, or
    /// [`InsertError::UnsupportedKey`] — with nothing applied — if any
    /// key in the batch is the reserved sentinel or a NaN
    /// ([`check_batch_keys`], which runs before the debug-build order
    /// check).
    ///
    /// Readers see each run chunk atomically (a single publication
    /// per chunk; a run is split into chunks only when it overflows a
    /// leaf under split-on-insert), interleaved with other leaves'
    /// state per the module-level consistency model.
    ///
    /// # Panics
    /// Panics (debug builds) if `pairs` is not sorted by key.
    pub fn bulk_insert(&self, pairs: &[(K, V)]) -> Result<usize, InsertError> {
        self.bulk_insert_with(pairs, |_| {})
    }

    /// [`EpochAlex::bulk_insert`], handing each pair that landed to
    /// `landed`, in key order: a repeat of a key within the batch
    /// lands only the first time. `DurableAlex` logs exactly these.
    ///
    /// # Panics
    /// Panics (debug builds) if `pairs` is not sorted by key.
    pub fn bulk_insert_with(
        &self,
        pairs: &[(K, V)],
        mut landed: impl FnMut(&(K, V)),
    ) -> Result<usize, InsertError> {
        check_batch_keys(pairs)?;
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_insert input must be sorted by key"
        );
        let _writer = self.write_lock();
        let _guard = self.index.store.pin();
        let mut inserted = 0usize;
        let mut rest = pairs;
        while let Some((key, _)) = rest.first() {
            let (id, leaf) = self.index.route_to_leaf(key);
            let (len, _) = self.index.leaf_run((id, leaf), rest, |(k, _)| k);
            // A run is cut at the leaf's split room, as the exclusive
            // batch path cuts it; a full leaf splits only before a
            // fresh key, and one no model can split (the split fails)
            // takes that key alone, as a per-key insert would.
            let room = match self.index.split_room(leaf) {
                0 => match present_prefix(leaf, &rest[..len]) {
                    // The slot became a routing node: re-route.
                    0 if self.index.split_leaf_shared(id) => continue,
                    0 => 1,
                    present => {
                        rest = &rest[present..];
                        continue;
                    }
                },
                room => room,
            };
            let (run, tail) = rest.split_at(len.min(room));
            rest = tail;
            // An all-duplicate run with no pending delta would publish
            // an identical leaf: skip the clone and retirement outright
            // (short-circuits at the first fresh key, so fresh-heavy
            // batches pay one probe).
            if leaf.delta.is_empty() && run.iter().all(|(k, _)| leaf.live_peek(k).is_some()) {
                continue;
            }
            // One clone + one publication for the whole run.
            let mut fresh = leaf.clone();
            self.flush_clone(&mut fresh);
            let count = insert_run(Arc::make_mut(&mut fresh.data), run, &mut landed);
            self.index.store.publish(id, Node::Leaf(fresh));
            self.index.len.fetch_add(count, Ordering::Relaxed);
            inserted += count;
        }
        Ok(inserted)
    }

    /// The one copy-on-write point edit: put `key`
    /// ([`DeltaOp::Put`]) or remove it ([`DeltaOp::Tombstone`]) in the
    /// leaf snapshot `leaf` loaded from `id`, then publish the copy.
    /// `net` is the edit's change to the key count: `1` for an insert,
    /// `0` for an update, `-1` for a removal. The caller holds the
    /// writer mutex and a pin, and has checked the key: absent for an
    /// insert, live otherwise.
    ///
    /// The edit lands in the copy's delta buffer — a shallow copy, the
    /// base array shared — when the key already has an entry there
    /// (replacing it never grows the buffer) or the buffer is below
    /// [`AlexConfig::delta_buffer`]. Otherwise the buffer folds into a
    /// fresh base array ([`EpochAlex::flush_clone`]), which takes the
    /// edit directly. Readers see the old snapshot or the new one,
    /// never an intermediate state.
    fn edit(&self, id: NodeId, leaf: &LeafNode<K, V>, key: K, op: DeltaOp<V>, net: isize) {
        let mut fresh = leaf.clone();
        if fresh.delta.contains(&key) || fresh.delta.len() < self.index.config().delta_buffer {
            fresh.buffer(key, op);
            fresh.delta_net += net;
            self.writes.delta_hit();
        } else {
            self.flush_clone(&mut fresh);
            let data = Arc::make_mut(&mut fresh.data);
            match op {
                DeltaOp::Put(value) if net == 0 => {
                    *data.get_mut(&key).expect("an update names a live key") = value;
                }
                DeltaOp::Put(value) => {
                    let outcome = data.insert(key, value);
                    assert!(
                        matches!(outcome, InsertOutcome::Inserted { .. }),
                        "an insert names an absent key"
                    );
                }
                DeltaOp::Tombstone => {
                    data.remove(&key);
                }
            }
        }
        self.index.store.publish(id, Node::Leaf(fresh));
        if net < 0 {
            self.index.len.fetch_sub(net.unsigned_abs(), Ordering::Relaxed);
        } else {
            self.index.len.fetch_add(net.unsigned_abs(), Ordering::Relaxed);
        }
    }

    /// Account for (and perform) the full-leaf copy a non-buffered
    /// write pays: folds any pending delta into an unshared base
    /// array. The subsequent `Arc::make_mut` by the caller is then
    /// in place.
    fn flush_clone(&self, fresh: &mut LeafNode<K, V>) {
        // Flush boundary: the cached net delta is about to be folded
        // into a fresh base array, so verify it against a recount even
        // in release builds — cheap (`O(delta · log leaf)`) next to
        // the `O(leaf)` copy this path already pays, and the last
        // moment a drift is caught before it corrupts the new base.
        fresh.assert_delta_net_coherent();
        if !fresh.delta.is_empty() {
            self.writes.flushes.fetch_add(1, Ordering::Relaxed);
        }
        fresh.flush_delta();
        // `flush_delta` unshared the base only if a delta existed;
        // force the copy now either way so the caller's edit never
        // touches the published snapshot.
        let _ = Arc::make_mut(&mut fresh.data);
        self.writes.leaf_clones.fetch_add(1, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Diagnostics
    // ------------------------------------------------------------------

    /// Current reclamation counters (see [`EpochStats`]).
    pub fn epoch_stats(&self) -> EpochStats {
        let (retired_total, freed_total) = self.index.store.reclamation_totals();
        EpochStats {
            global_epoch: self.index.store.collector().global_epoch(),
            pending: self.index.store.retired(),
            retired_total,
            freed_total,
        }
    }

    /// Write-amplification counters (see [`EpochWriteStats`]): how
    /// many writes the delta buffers absorbed versus how many full
    /// leaf copies the path paid.
    pub fn write_stats(&self) -> EpochWriteStats {
        self.writes.snapshot()
    }

    /// Drive epochs forward until the retire list drains (or a pinned
    /// reader blocks progress); returns the nodes still pending. At
    /// quiescence this reaches 0 — asserted by the concurrency suite.
    pub fn flush_retired(&self) -> usize {
        let _writer = self.write_lock();
        self.index.store.flush()
    }
}

// ----------------------------------------------------------------------
// alex-api surface
// ----------------------------------------------------------------------

impl<K: AlexKey, V: Clone + Default> IndexRead<K, V> for EpochAlex<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        EpochAlex::get(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        EpochAlex::contains(self, key)
    }

    fn scan_from(&self, key: &K, limit: usize, visit: &mut dyn FnMut(&K, &V)) -> usize {
        EpochAlex::scan_from(self, key, limit, |k, v| visit(k, v))
    }

    fn len(&self) -> usize {
        EpochAlex::len(self)
    }

    fn index_size_bytes(&self) -> usize {
        self.size_report().index_bytes
    }

    fn data_size_bytes(&self) -> usize {
        self.size_report().data_bytes
    }

    fn label(&self) -> String {
        format!("{}+epoch", self.config().variant_name())
    }
}

impl<K, V> ConcurrentIndex<K, V> for EpochAlex<K, V>
where
    K: AlexKey + Send + Sync,
    V: Clone + Default + Send + Sync,
{
    fn insert(&self, key: K, value: V) -> Result<(), InsertError> {
        EpochAlex::insert(self, key, value)
    }

    fn remove(&self, key: &K) -> Option<V> {
        EpochAlex::remove(self, key)
    }

    fn bulk_insert(&self, pairs: &[(K, V)]) -> Result<usize, InsertError>
    where
        K: Clone,
        V: Clone,
    {
        // Native run-level path: one clone + publication per leaf run.
        EpochAlex::bulk_insert(self, pairs)
    }
}

// Exclusive-access delegation (see `alex-api`'s crate docs for why a
// blanket impl cannot provide this).
impl<K, V> IndexWrite<K, V> for EpochAlex<K, V>
where
    K: AlexKey + Send + Sync,
    V: Clone + Default + Send + Sync,
{
    fn insert(&mut self, key: K, value: V) -> Result<(), InsertError> {
        ConcurrentIndex::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        ConcurrentIndex::remove(self, key)
    }

    fn bulk_load(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError> {
        debug_assert!(self.is_empty(), "bulk_load expects an empty index");
        check_batch_keys(pairs)?;
        // Exclusive access: rebuild via Algorithm 4 with the same
        // config (fresh arena, empty retire list). The rebuild lands on
        // the dense store, so move it to the epoch store before it
        // becomes shared again.
        self.index = AlexIndex::bulk_load(pairs, *self.index.config()).rehouse(Dense::into_epoch);
        Ok(pairs.len())
    }
}

impl<K, V> BatchOps<K, V> for EpochAlex<K, V>
where
    K: AlexKey + Send + Sync,
    V: Clone + Default + Send + Sync,
{
    fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        EpochAlex::get_many(self, keys)
    }

    fn bulk_insert(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError> {
        // Exclusive access still routes through the shared run-level
        // path (it is equivalent and keeps the counters meaningful).
        EpochAlex::bulk_insert(self, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: u64, stride: u64) -> Vec<(u64, u64)> {
        (0..n).map(|k| (k * stride, k)).collect()
    }

    fn splitting_config() -> AlexConfig {
        AlexConfig::ga_armi().with_max_node_keys(128).with_splitting()
    }

    #[test]
    fn shared_writes_round_trip() {
        let index = EpochAlex::bulk_load(&pairs(2000, 2), splitting_config());
        assert_eq!(index.get(&200), Some(100));
        assert!(index.insert(201, 7).is_ok());
        assert!(index.insert(201, 8).is_err(), "duplicate must be rejected");
        assert_eq!(index.get(&201), Some(7));
        assert_eq!(index.update(&201, 9), Some(7));
        assert_eq!(index.remove(&201), Some(9));
        assert_eq!(index.remove(&201), None);
        assert_eq!(index.len(), 2000);
        assert_eq!(index.flush_retired(), 0);
    }

    #[test]
    fn shared_inserts_trigger_published_splits() {
        let index: EpochAlex<u64, u64> = EpochAlex::new(splitting_config());
        for k in 0..5000u64 {
            index.insert(k, k * 3).unwrap();
        }
        assert_eq!(index.len(), 5000);
        for k in (0..5000u64).step_by(13) {
            assert_eq!(index.get(&k), Some(k * 3), "key {k}");
        }
        let mut seen = Vec::new();
        index.scan_from(&0, usize::MAX, |k, _| seen.push(*k));
        assert_eq!(seen, (0..5000).collect::<Vec<_>>());
        let stats = index.epoch_stats();
        assert!(stats.retired_total > 0, "splits must retire replaced nodes");
        assert_eq!(index.flush_retired(), 0);
        let stats = index.epoch_stats();
        assert_eq!(stats.retired_total, stats.freed_total);
    }

    #[test]
    fn sentinel_rejected_on_shared_paths() {
        let index = EpochAlex::bulk_load(&pairs(100, 2), AlexConfig::ga_armi());
        assert_eq!(index.insert(u64::MAX, 1), Err(InsertError::UnsupportedKey));
        assert_eq!(
            index.bulk_insert(&[(7, 7), (u64::MAX, 1)]),
            Err(InsertError::UnsupportedKey)
        );
        assert_eq!(index.get(&7), None, "rejected batch must apply nothing");
        assert_eq!(index.len(), 100);
    }

    #[test]
    fn point_inserts_are_delta_buffered() {
        let n = 8192u64;
        let index = EpochAlex::bulk_load(&pairs(n, 2), AlexConfig::ga_armi());
        for k in 0..n {
            index.insert(2 * k + 1, k).unwrap();
        }
        let stats = index.write_stats();
        assert_eq!(
            stats.delta_hits + stats.leaf_clones,
            n,
            "every point insert is a delta hit or part of a clone"
        );
        assert!(
            stats.delta_hits > stats.flushes,
            "buffers must absorb more writes than they flush: {stats:?}"
        );
        assert!(
            stats.leaf_clones * 8 < n,
            "amortization: clones ({}) must be far below inserts ({n})",
            stats.leaf_clones
        );
        for k in (0..2 * n).step_by(97) {
            assert_eq!(index.get(&k), Some(if k % 2 == 0 { k / 2 } else { (k - 1) / 2 }));
        }
    }

    #[test]
    fn capacity_zero_disables_buffering() {
        let index = EpochAlex::bulk_load(&pairs(512, 2), AlexConfig::ga_armi().with_delta_buffer(0));
        for k in 0..256u64 {
            index.insert(2 * k + 1, k).unwrap();
        }
        let stats = index.write_stats();
        assert_eq!(stats.delta_hits, 0);
        assert_eq!(stats.flushes, 0);
        assert_eq!(stats.leaf_clones, 256, "cap 0: every write clones the leaf");
        assert_eq!(index.len(), 768);
    }

    #[test]
    fn bulk_insert_clones_once_per_run() {
        let n = 4096u64;
        let index = EpochAlex::bulk_load(&pairs(n, 2), AlexConfig::ga_armi());
        let batch: Vec<(u64, u64)> = (0..n).map(|k| (2 * k + 1, k)).collect();
        assert_eq!(index.bulk_insert(&batch), Ok(n as usize));
        let stats = index.write_stats();
        let leaves = index.size_report().num_data_nodes as u64;
        assert!(
            stats.leaf_clones <= leaves,
            "run-level CoW: clones ({}) bounded by leaf count ({leaves}), not keys ({n})",
            stats.leaf_clones
        );
        assert_eq!(index.len(), 2 * n as usize);
        assert_eq!(index.get_many(&batch.iter().map(|p| p.0).collect::<Vec<_>>()),
            batch.iter().map(|p| Some(p.1)).collect::<Vec<_>>());
    }

    #[test]
    fn all_duplicate_runs_publish_nothing() {
        let index = EpochAlex::bulk_load(&pairs(4096, 2), AlexConfig::ga_armi());
        let batch: Vec<(u64, u64)> = (0..4096).map(|k| (2 * k + 1, k)).collect();
        assert_eq!(index.bulk_insert(&batch), Ok(4096));
        let clones = index.write_stats().leaf_clones;
        let retired = index.epoch_stats().retired_total;
        // Replaying the identical batch is a no-op: no clones, no
        // publications, no retirements.
        assert_eq!(index.bulk_insert(&batch), Ok(0));
        assert_eq!(index.write_stats().leaf_clones, clones);
        assert_eq!(index.epoch_stats().retired_total, retired);
        assert_eq!(index.len(), 8192);
    }

    #[test]
    fn bulk_insert_folds_pending_deltas() {
        let index = EpochAlex::bulk_load(&pairs(1024, 4), AlexConfig::ga_armi());
        // Seed some buffered state first.
        for k in 0..8u64 {
            index.insert(4 * k + 1, k).unwrap();
        }
        index.remove(&0).unwrap();
        let batch: Vec<(u64, u64)> = (0..1024).map(|k| (4 * k + 2, k)).collect();
        assert_eq!(index.bulk_insert(&batch), Ok(1024));
        assert_eq!(index.get(&0), None, "buffered remove survives the batch");
        assert_eq!(index.get(&1), Some(0), "buffered insert survives the batch");
        assert_eq!(index.get(&2), Some(0));
        assert_eq!(index.len(), 1024 + 8 - 1 + 1024);
        assert_eq!(index.flush_retired(), 0);
    }

    #[test]
    fn readers_race_split_inducing_writers() {
        let index = EpochAlex::bulk_load(&pairs(8000, 2), splitting_config());
        std::thread::scope(|s| {
            let idx = &index;
            s.spawn(move || {
                for k in 0..8000u64 {
                    idx.insert(k * 2 + 1, k).unwrap();
                }
            });
            for _ in 0..2 {
                s.spawn(move || {
                    for round in 0..3 {
                        for k in (0..8000u64).step_by(7) {
                            assert_eq!(idx.get(&(k * 2)), Some(k), "stable key {k} round {round}");
                        }
                        let mut last = None;
                        idx.scan_from(&4000, 300, |k, _| {
                            assert!(last.is_none_or(|p| p < *k), "scan out of order");
                            last = Some(*k);
                        });
                    }
                });
            }
        });
        assert_eq!(index.len(), 16_000);
        assert_eq!(index.flush_retired(), 0, "retire lists must drain at quiescence");
        let stats = index.epoch_stats();
        assert_eq!(stats.retired_total, stats.freed_total);
    }

    #[test]
    fn get_many_matches_point_gets_under_shared_use() {
        let index = EpochAlex::bulk_load(&pairs(3000, 3), splitting_config());
        let queries: Vec<u64> = (0..9000u64).step_by(2).collect();
        let batch = index.get_many(&queries);
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(*got, index.get(q), "key {q}");
        }
    }

    #[test]
    fn into_inner_flushes_deltas() {
        let index = EpochAlex::bulk_load(&pairs(1000, 2), AlexConfig::ga_armi());
        for k in 0..100u64 {
            index.insert(2 * k + 1, k).unwrap();
        }
        index.remove(&0).unwrap();
        index.update(&2, 999).unwrap();
        assert!(index.write_stats().delta_hits > 0, "test needs buffered state");
        let inner = index.into_inner();
        assert_eq!(inner.len(), 1099);
        assert_eq!(inner.get(&0), None);
        assert_eq!(inner.get(&2), Some(&999));
        assert_eq!(inner.get(&1), Some(&0));
        inner.debug_assert_invariants();
    }

    /// A payload whose `Clone` panics while armed — lets a test unwind
    /// inside a writer at a controlled point.
    #[derive(Debug, Default)]
    struct Grenade {
        armed: Arc<core::sync::atomic::AtomicBool>,
    }

    impl Clone for Grenade {
        fn clone(&self) -> Self {
            assert!(
                !self.armed.load(Ordering::SeqCst),
                "armed payload cloned inside a writer (intentional test panic)"
            );
            Self { armed: Arc::clone(&self.armed) }
        }
    }

    #[test]
    fn poisoned_writer_mutex_does_not_wedge_later_writes() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let index: EpochAlex<u64, Grenade> = EpochAlex::new(AlexConfig::ga_armi());
        let armed = Arc::new(core::sync::atomic::AtomicBool::new(false));
        index.insert(1, Grenade { armed: Arc::clone(&armed) }).unwrap();
        // `remove` clones the evicted payload while holding the writer
        // mutex; arming the grenade makes that clone unwind, poisoning
        // the mutex before any mutation is published.
        armed.store(true, Ordering::SeqCst);
        let unwound = catch_unwind(AssertUnwindSafe(|| index.remove(&1))).is_err();
        assert!(unwound, "the armed payload must panic inside the writer");
        armed.store(false, Ordering::SeqCst);
        // The panic hit before publication, so the tree is unchanged…
        assert!(index.contains(&1), "unwound remove must not have landed");
        // …and, the regression: writes after the poisoning still work.
        index.insert(2, Grenade::default()).unwrap();
        assert!(index.contains(&2));
        assert!(index.remove(&1).is_some());
        assert!(!index.contains(&1));
        assert_eq!(index.len(), 1);
        assert_eq!(index.flush_retired(), 0);
    }

    #[test]
    fn from_index_round_trip_restores_dense_arena() {
        let index = AlexIndex::bulk_load(&pairs(2000, 2), splitting_config());
        let shared = EpochAlex::from_index(index);
        std::thread::scope(|s| {
            let idx = &shared;
            s.spawn(move || {
                for k in 0..500u64 {
                    idx.insert(2 * k + 1, k).unwrap();
                }
            });
            s.spawn(move || {
                for k in (0..2000u64).step_by(11) {
                    assert_eq!(idx.get(&(2 * k)), Some(k));
                }
            });
        });
        let mut back = shared.into_inner();
        assert_eq!(back.len(), 2500);
        assert_eq!(back.get(&1), Some(&0));
        back.insert(999_999, 42).unwrap();
        assert_eq!(back.get(&999_999), Some(&42));
        back.debug_assert_invariants();
    }

    #[test]
    fn index_write_bulk_load_stays_epoch() {
        let mut index: EpochAlex<u64, u64> = EpochAlex::new(AlexConfig::ga_armi());
        let data = pairs(1000, 2);
        assert_eq!(IndexWrite::bulk_load(&mut index, &data), Ok(1000));
        // The shared read/write paths (pin + publish) must still work.
        assert_eq!(index.get(&200), Some(100));
        index.insert(201, 7).unwrap();
        assert_eq!(index.get(&201), Some(7));
        assert_eq!(index.flush_retired(), 0);
    }

    #[test]
    fn leaf_snapshots_yield_merged_state_in_key_order() {
        let index = EpochAlex::bulk_load(&pairs(2000, 2), splitting_config());
        for k in 0..200u64 {
            index.insert(2 * k + 1, k).unwrap();
        }
        index.remove(&0).unwrap();
        index.update(&2, 999).unwrap();
        let mut all = Vec::new();
        let mut leaves = 0usize;
        index.leaf_snapshots(|leaf| {
            leaves += 1;
            all.extend_from_slice(leaf);
        });
        assert!(leaves > 1, "splitting config must produce a leaf chain");
        assert!(
            all.windows(2).all(|w| w[0].0 < w[1].0),
            "keys must stay strictly increasing across the whole walk"
        );
        assert_eq!(all.len(), index.len());
        assert_eq!(all.iter().find(|(k, _)| *k == 2).map(|(_, v)| *v), Some(999));
        assert!(!all.iter().any(|(k, _)| *k == 0), "removed key must not appear");
        for (k, v) in all.iter().step_by(37) {
            assert_eq!(index.get(k), Some(*v), "key {k}");
        }
    }

    #[test]
    fn writes_never_count_as_reads() {
        let index = EpochAlex::bulk_load(&pairs(10_000, 10), AlexConfig::ga_armi());
        let fresh: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * 70 + 5, i)).collect();
        for &(k, v) in &fresh {
            index.insert(k, v).unwrap();
        }
        assert_eq!(index.read_stats(), (0, 0, 0), "inserts recorded reads");
        assert_eq!(index.insert(fresh[0].0, 0), Err(InsertError::DuplicateKey));
        assert_eq!(index.bulk_insert(&fresh[..100]), Ok(0));
        for &(k, v) in &fresh[..100] {
            assert_eq!(index.update(&k, v + 1), Some(v));
        }
        for &(k, _) in &fresh {
            assert!(index.remove(&k).is_some());
        }
        // A batch that lands after the flushes and tombstones above.
        let more: Vec<(u64, u64)> = (0..500u64).map(|i| (i * 20 + 3, i)).collect();
        assert_eq!(index.bulk_insert(&more), Ok(500));
        assert_eq!(index.read_stats(), (0, 0, 0), "writes recorded reads");
        for k in 0..100u64 {
            assert_eq!(index.get(&(k * 10)), Some(k));
        }
        assert_eq!(index.read_stats().0, 100, "one lookup per get");
        assert!(index.contains(&0));
        assert_eq!(index.get_many(&[10, 20, 30]), vec![Some(1), Some(2), Some(3)]);
        assert_eq!(index.read_stats().0, 104);
    }

    #[test]
    fn gets_the_delta_buffer_answers_count_as_reads() {
        let index = EpochAlex::bulk_load(&pairs(10_000, 10), AlexConfig::ga_armi());
        index.insert(5, 50).unwrap();
        assert_eq!(index.write_stats().delta_hits, 1, "the insert was buffered");
        for _ in 0..100 {
            assert_eq!(index.get(&5), Some(50));
        }
        // One probe of a one-entry buffer per get, never a direct hit.
        assert_eq!(index.read_stats(), (100, 100, 0));
        // A buffered tombstone answers too.
        assert_eq!(index.remove(&10), Some(1));
        assert_eq!(index.get(&10), None);
        assert_eq!(index.read_stats().0, 101);
    }

    #[test]
    fn an_unsplittable_full_leaf_retries_its_split_once_it_doubles() {
        // Past 2^53 neighbouring u64 keys share an f64, so no model
        // separates them and every split of their leaf fails.
        let cfg = AlexConfig::ga_armi().with_max_node_keys(256).with_splitting();
        let keys: Vec<(u64, u64)> = (0..2000).map(|i| ((1u64 << 60) + i, i)).collect();
        let first = &keys[..257];

        let mut dense = AlexIndex::new(cfg);
        let epoch = EpochAlex::new(cfg);
        for &(k, v) in first {
            dense.insert(k, v).unwrap();
            epoch.insert(k, v).unwrap();
        }
        // The last insert found 256 keys and no split: the leaf takes
        // keys until it holds 513, the next retry point.
        assert_eq!(dense.split_room(dense.route_to_leaf(&keys[0].0).1), 256);
        {
            let _guard = epoch.index.store.pin();
            assert_eq!(epoch.index.split_room(epoch.index.route_to_leaf(&keys[0].0).1), 256);
        }

        // Batch and per-key inserts try (and fail) the same splits at
        // the same moments, and so build the same leaf.
        for &(k, v) in &keys[257..] {
            dense.insert(k, v).unwrap();
            epoch.insert(k, v).unwrap();
        }
        let mut batch = AlexIndex::new(cfg);
        assert_eq!(batch.bulk_insert(&keys), Ok(2000));
        let epoch_batch = EpochAlex::new(cfg);
        assert_eq!(epoch_batch.bulk_insert(&keys), Ok(2000));
        let epoch = epoch.into_inner();
        let epoch_batch = epoch_batch.into_inner();
        for index in [&batch, &epoch, &epoch_batch] {
            assert_eq!(index.write_stats(), dense.write_stats());
            assert_eq!(index.size_report(), dense.size_report());
            // Failed at 256, 513 and 1027 keys; next at 2055.
            assert_eq!(index.split_room(index.route_to_leaf(&keys[0].0).1), 55);
            index.debug_assert_invariants();
        }
        assert_eq!((dense.write_stats().splits, dense.num_data_nodes()), (0, 1));
    }
}
