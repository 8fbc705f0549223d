//! Point, range, and sorted-batch operations.
//!
//! Routing (§3.2: model predictions only, no comparisons until the
//! leaf) lives here; storage access goes through the store types of
//! [`super::store`]. The batch operations ([`AlexIndex::get_many`],
//! [`AlexIndex::bulk_insert`]) exploit sorted input to route through
//! the RMI once per *leaf run* instead of once per key.
//!
//! The descent and the snapshot reads (`get`, `get_many`,
//! `scan_from`) are written once over [`NodeStore`] and read each
//! node exactly once, so they are sound on the epoch store under a
//! pin: that is how [`super::EpochAlex`], and through it every
//! `alex-sharded` shard, serves lock-free readers. The writes and the
//! borrowing iterators (`range_from`, `iter`) are dense-only.

use core::sync::atomic::Ordering;

use alex_api::{check_batch_keys, is_sorted_ignoring_nan, InsertError};

use crate::config::RmiMode;
use crate::data_node::InsertOutcome;
use crate::iter::RangeIter;
use crate::key::AlexKey;

use super::store::{LeafNode, Node, NodeId, NodeStore};
use super::AlexIndex;

/// Cached routing target for a run of ascending keys: a leaf plus the
/// largest key it is known to own. Valid while `key <= max_key` (or
/// unconditionally for the tail leaf): routing is monotone, so any key
/// between two keys routed to the same leaf routes there too.
struct LeafRun<K> {
    id: NodeId,
    /// Largest key stored in the leaf (`None` for an empty leaf — no
    /// ownership claim can be made, so every key re-routes).
    max_key: Option<K>,
    /// The tail leaf owns everything from its region upward.
    is_tail: bool,
}

impl<K: AlexKey> LeafRun<K> {
    /// Whether `key` is guaranteed to route to this cached leaf.
    #[inline]
    fn owns(&self, key: &K) -> bool {
        if self.is_tail {
            return true;
        }
        self.max_key.as_ref().is_some_and(|max| key <= max)
    }
}

/// Snapshot flavour of [`LeafRun`] for the read-only batch path: the
/// loaded leaf reference itself is cached, so the run survives a
/// concurrent republication of the slot (shared regime).
struct LeafRunRef<'a, K, V> {
    leaf: &'a LeafNode<K, V>,
    max_key: Option<K>,
    is_tail: bool,
}

impl<'a, K: AlexKey, V> LeafRunRef<'a, K, V> {
    fn new(leaf: &'a LeafNode<K, V>) -> Self
    where
        V: Clone + Default,
    {
        Self {
            leaf,
            max_key: leaf.routing_max_key(),
            is_tail: leaf.next.is_none(),
        }
    }

    #[inline]
    fn owns(&self, key: &K) -> bool {
        self.is_tail || self.max_key.as_ref().is_some_and(|max| key <= max)
    }
}

impl<K: AlexKey, V: Clone + Default, S: NodeStore<K, V>> AlexIndex<K, V, S> {
    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Descend by model prediction to the leaf owning `key` (§3.2:
    /// multiplications and additions only, no comparisons).
    #[inline]
    pub(crate) fn find_leaf(&self, key: &K) -> NodeId {
        self.route_to_leaf(key).0
    }

    /// Descend to the leaf owning `key`, returning the id **and the
    /// loaded leaf snapshot**. Every node along the path is loaded
    /// exactly once, so under the shared regime (pinned readers racing
    /// a publishing writer) the returned reference is a consistent
    /// snapshot even if the slot is republished immediately after —
    /// callers must never re-load the id and assume it is still a
    /// leaf.
    #[inline]
    pub(crate) fn route_to_leaf(&self, key: &K) -> (NodeId, &LeafNode<K, V>) {
        let x = key.as_f64();
        let mut id = self.root;
        loop {
            match self.store.node(id) {
                Node::Inner(inner) => {
                    let idx = inner.model.predict_clamped(x, inner.children.len());
                    id = inner.children[idx];
                }
                Node::Leaf(l) => return (id, l),
            }
        }
    }

    /// Normalize a chain pointer: if the slot at `id` has been
    /// replaced by a split's routing inner node, descend to its
    /// leftmost leaf. The replacement covers exactly the old leaf's
    /// key range, so the leftmost leaf is the correct continuation of
    /// any forward walk that was about to enter `id`.
    #[inline]
    pub(crate) fn descend_first_leaf(&self, mut id: NodeId) -> (NodeId, &LeafNode<K, V>) {
        loop {
            match self.store.node(id) {
                Node::Inner(inner) => id = inner.children[0],
                Node::Leaf(l) => return (id, l),
            }
        }
    }

    /// Mirror of [`AlexIndex::descend_first_leaf`] for the write-side
    /// chain heal: the rightmost leaf under `id`, i.e. the live chain
    /// predecessor of whatever `id`'s old occupant pointed at.
    #[inline]
    pub(crate) fn descend_last_leaf(&self, mut id: NodeId) -> (NodeId, &LeafNode<K, V>) {
        loop {
            match self.store.node(id) {
                Node::Inner(inner) => {
                    id = *inner.children.last().expect("inner nodes always have children");
                }
                Node::Leaf(l) => return (id, l),
            }
        }
    }

    // ------------------------------------------------------------------
    // Point operations
    // ------------------------------------------------------------------

    /// Look up `key` (through the merged base + delta view; the delta
    /// is empty outside the shared write path).
    pub fn get(&self, key: &K) -> Option<&V> {
        self.route_to_leaf(key).1.live_get(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    // ------------------------------------------------------------------
    // Sorted-batch operations
    // ------------------------------------------------------------------

    /// Look up a sorted (non-decreasing) batch of keys, routing through
    /// the RMI once per leaf run instead of once per key.
    ///
    /// Returns one `Option<&V>` per input key, in input order.
    ///
    /// # Panics
    /// Panics (debug builds) if `keys` is not sorted non-decreasing,
    /// apart from NaN keys, which may sit anywhere and answer `None`.
    pub fn get_many(&self, keys: &[K]) -> Vec<Option<&V>> {
        debug_assert!(is_sorted_ignoring_nan(keys), "get_many input must be sorted");
        let mut out = Vec::with_capacity(keys.len());
        let mut run: Option<LeafRunRef<'_, K, V>> = None;
        for key in keys {
            let leaf = match &run {
                Some(r) if r.owns(key) => r.leaf,
                _ => {
                    let fresh = LeafRunRef::new(self.route_to_leaf(key).1);
                    let leaf = fresh.leaf;
                    run = Some(fresh);
                    leaf
                }
            };
            out.push(leaf.live_get(key));
        }
        out
    }

    // ------------------------------------------------------------------
    // Range operations
    // ------------------------------------------------------------------

    /// Visit up to `limit` entries with key `>= key` in order via a
    /// callback — the fast path for range scans (avoids per-item
    /// iterator dispatch; used by the Figure 4d/4h benchmarks). Returns
    /// the number of entries visited.
    ///
    /// The walk works on loaded snapshots: each leaf is read once, and
    /// a `next` pointer landing on a slot that a concurrent split has
    /// replaced with an inner node is normalized by descending to its
    /// leftmost leaf. Keys therefore stay strictly increasing even
    /// while writers publish.
    pub fn scan_from(&self, key: &K, limit: usize, mut f: impl FnMut(&K, &V)) -> usize {
        let (_, mut leaf) = self.route_to_leaf(key);
        let mut visited = leaf.scan_merged(Some(key), limit, &mut f);
        loop {
            if visited >= limit {
                return visited;
            }
            match leaf.next {
                Some(next) => {
                    leaf = self.descend_first_leaf(next).1;
                    visited += leaf.scan_merged(None, limit - visited, &mut f);
                }
                None => return visited,
            }
        }
    }
}

impl<K: AlexKey, V: Clone + Default> AlexIndex<K, V> {
    /// Route `key` and capture the run cache for subsequent keys.
    fn start_run(&self, key: &K) -> LeafRun<K> {
        let id = self.find_leaf(key);
        let leaf = self.store.leaf(id);
        LeafRun {
            id,
            max_key: leaf.routing_max_key(),
            is_tail: leaf.next.is_none(),
        }
    }

    // ------------------------------------------------------------------
    // Point writes
    // ------------------------------------------------------------------

    /// Look up `key` and return a mutable reference to its payload
    /// (payload updates, §3.2). Flushes the leaf's delta buffer first
    /// so the in-place edit and the merged view stay coherent.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let leaf = self.find_leaf(key);
        self.store.leaf_data_mut(leaf).get_mut(key)
    }

    /// Insert a pair. Errors on duplicates (ALEX does not support
    /// duplicate keys, §7), on the reserved
    /// [`alex_api::SentinelKey::MAX_KEY`] sentinel (gapped storage uses
    /// it to fill empty slots, so storing it would be indistinguishable
    /// from a gap), and on a NaN key (see the [`crate::key`] docs).
    pub fn insert(&mut self, key: K, value: V) -> Result<(), InsertError> {
        if key.is_sentinel() {
            return Err(InsertError::UnsupportedKey);
        }
        let leaf = self.find_leaf(&key);
        if self.maybe_split(leaf) {
            return self.insert(key, value);
        }
        match self.store.leaf_data_mut(leaf).insert(key, value) {
            InsertOutcome::Inserted { .. } => {
                self.len.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            InsertOutcome::Duplicate => Err(InsertError::DuplicateKey),
        }
    }

    /// Split `leaf` if the config calls for split-on-insert and the
    /// next insert would overflow it. Returns whether a split happened
    /// (routing must then restart — the leaf became an inner node).
    fn maybe_split(&mut self, leaf: NodeId) -> bool {
        if let RmiMode::Adaptive {
            max_node_keys,
            split_on_insert: true,
        } = self.config.rmi
        {
            self.store.leaf(leaf).live_keys() + 1 > max_node_keys && self.split_leaf(leaf)
        } else {
            false
        }
    }

    /// Remove `key`, returning its payload.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let leaf = self.find_leaf(key);
        let v = self.store.leaf_data_mut(leaf).remove(key)?;
        self.len.fetch_sub(1, Ordering::Relaxed);
        Some(v)
    }

    /// Update the payload of an existing key, returning the old value.
    pub fn update(&mut self, key: &K, value: V) -> Option<V> {
        self.get_mut(key).map(|slot| core::mem::replace(slot, value))
    }

    // ------------------------------------------------------------------
    // Sorted-batch insert
    // ------------------------------------------------------------------

    /// Insert a sorted (strictly increasing) batch of pairs, routing
    /// through the RMI once per leaf run instead of once per key.
    /// Duplicates (against the index *or* repeated within the batch)
    /// are skipped. Returns the number of pairs actually inserted, or
    /// [`InsertError::UnsupportedKey`] — with nothing applied — if any
    /// key in the batch is the reserved sentinel or a NaN
    /// ([`check_batch_keys`], which runs before the debug-build order
    /// check).
    ///
    /// Equivalent to calling [`AlexIndex::insert`] per pair, including
    /// split-on-insert behaviour.
    ///
    /// # Panics
    /// Panics (debug builds) if `pairs` is not sorted non-decreasing by
    /// key.
    pub fn bulk_insert(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError> {
        check_batch_keys(pairs)?;
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_insert input must be sorted by key"
        );
        let mut inserted = 0usize;
        let mut run: Option<LeafRun<K>> = None;
        for (key, value) in pairs {
            let id = match &run {
                Some(r) if r.owns(key) => r.id,
                _ => {
                    let fresh = self.start_run(key);
                    let id = fresh.id;
                    run = Some(fresh);
                    id
                }
            };
            if self.maybe_split(id) {
                // The cached leaf became an inner node: re-route.
                run = None;
                if self.insert(*key, value.clone()).is_ok() {
                    inserted += 1;
                }
                continue;
            }
            match self.store.leaf_data_mut(id).insert(*key, value.clone()) {
                InsertOutcome::Inserted { .. } => {
                    self.len.fetch_add(1, Ordering::Relaxed);
                    inserted += 1;
                }
                InsertOutcome::Duplicate => {}
            }
        }
        Ok(inserted)
    }

    // ------------------------------------------------------------------
    // Borrowing iterators
    // ------------------------------------------------------------------

    /// Iterate entries with key `>= key` in order, across leaves, at
    /// most `limit` of them.
    pub fn range_from<'a>(&'a self, key: &K, limit: usize) -> RangeIter<'a, K, V> {
        let (id, leaf) = self.route_to_leaf(key);
        let slot = leaf.data.lower_bound_slot(key);
        let didx = leaf.delta.lower_bound(key);
        RangeIter::new(self, id, slot, didx, limit)
    }

    /// Iterate all entries in key order.
    pub fn iter(&self) -> RangeIter<'_, K, V> {
        // The stored head may predate a head split: normalize.
        let (head, _) = self.descend_first_leaf(self.store.head_leaf());
        RangeIter::new(self, head, 0, 0, usize::MAX)
    }
}
