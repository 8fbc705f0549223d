//! Point, range, and sorted-batch operations.
//!
//! Routing (§3.2: model predictions only, no comparisons until the
//! leaf) lives here; storage access goes through the store types of
//! [`super::store`]. The sorted-batch operations exploit monotone
//! routing through one router, [`AlexIndex::leaf_run`]: given the leaf
//! the first key of a sorted slice routes to, it returns how many
//! leading keys that leaf owns. [`AlexIndex::get_many`], the dense
//! [`AlexIndex::bulk_insert`] and [`super::EpochAlex::bulk_insert`]
//! all loop over it, so each touches a leaf once per run instead of
//! once per key.
//!
//! The descent and the snapshot reads (`get`, `get_many`,
//! `scan_from`, the router) are written once over [`NodeStore`] and
//! read each node exactly once, so they are sound on the epoch store
//! under a pin: that is how [`super::EpochAlex`], and through it every
//! `alex-sharded` shard, serves lock-free readers. The writes and the
//! borrowing iterators (`range_from`, `iter`) are dense-only.

use core::sync::atomic::Ordering;

use alex_api::{check_batch_keys, is_sorted_ignoring_nan, InsertError};

use crate::data_node::{DataNode, InsertOutcome};
use crate::iter::RangeIter;
use crate::key::AlexKey;

use super::store::{LeafNode, Node, NodeId, NodeStore};
use super::AlexIndex;

/// A leaf a descent found: its id and its loaded snapshot.
type Routed<'a, K, V> = (NodeId, &'a LeafNode<K, V>);

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
        let mut rest = keys;
        let mut head = keys.first().map(|k| self.route_to_leaf(k));
        while let Some((id, leaf)) = head {
            let (len, next) = self.leaf_run((id, leaf), rest, |k| k);
            let (run, tail) = rest.split_at(len);
            out.extend(run.iter().map(|k| leaf.live_get(k)));
            rest = tail;
            head = next;
        }
        out
    }

    /// The leaf run at the front of a sorted slice whose first item's
    /// key routes to the leaf at `id`, loaded as `leaf`: how many
    /// leading items route there too (at least one) and, when the slice
    /// goes on, the leaf the next item routes to.
    ///
    /// Routing is monotone (§3.2), so every key between two keys
    /// routed to a leaf routes there too: the leading keys up to the
    /// leaf's largest key join the run without a descent, and the tail
    /// leaf owns everything from `items[0]` on. Keys past the largest
    /// key extend the run one descent each until one routes elsewhere,
    /// so a sorted slice forms exactly one run per leaf it touches. That
    /// last descent is returned rather than repeated: a read batch
    /// starts its next run from it, while the write paths route each
    /// run afresh, since a write may split the leaf a descent found.
    ///
    /// A NaN key, which only reads may carry, compares false and so
    /// ends the bulk part; it joins whichever run routing or the tail
    /// gives it, and every leaf answers it absent.
    #[inline]
    pub(super) fn leaf_run<'a, T>(
        &'a self,
        (id, leaf): Routed<'a, K, V>,
        items: &[T],
        key_of: impl Fn(&T) -> &K,
    ) -> (usize, Option<Routed<'a, K, V>>) {
        if leaf.next.is_none() {
            return (items.len(), None);
        }
        let mut len = leaf
            .routing_max_key()
            .map_or(0, |max| items.iter().take_while(|t| *key_of(t) <= max).count())
            .max(1);
        while let Some(item) = items.get(len) {
            let next = self.route_to_leaf(key_of(item));
            if next.0 != id {
                return (len, Some(next));
            }
            len += 1;
        }
        (len, None)
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
    // ------------------------------------------------------------------
    // Point writes
    // ------------------------------------------------------------------

    /// Look up `key` and return a mutable reference to its payload
    /// (payload updates, §3.2). A write, so not counted in
    /// [`AlexIndex::read_stats`].
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
        let (id, leaf) = self.route_to_leaf(&key);
        // A duplicate never splits a full leaf; it falls through to
        // the leaf's own refusal.
        if self.split_room(leaf) == 0 && leaf.live_peek(&key).is_none() && self.split_leaf(id) {
            // The leaf became a routing node: re-route.
            return self.insert(key, value);
        }
        match self.store.leaf_data_mut(id).insert(key, value) {
            InsertOutcome::Inserted { .. } => {
                self.len.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            InsertOutcome::Duplicate => Err(InsertError::DuplicateKey),
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
    /// split-on-insert behaviour: a run is cut at the leaf's split
    /// room, so the leaf splits before the fresh key that finds it
    /// full, and a key already present never splits it. A full leaf
    /// no model can split takes that fresh key alone, as a per-key
    /// insert would, so both paths try it again at the same next retry
    /// point (see `split_room`).
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
        let mut rest = pairs;
        while let Some((key, _)) = rest.first() {
            let (id, leaf) = self.route_to_leaf(key);
            let (len, _) = self.leaf_run((id, leaf), rest, |(k, _)| k);
            let room = match self.split_room(leaf) {
                0 => match present_prefix(leaf, &rest[..len]) {
                    // The leaf became a routing node: re-route.
                    0 if self.split_leaf(id) => continue,
                    // No model separates its keys: the full leaf takes
                    // the fresh key, which moves its room on to the
                    // next retry point.
                    0 => 1,
                    present => {
                        rest = &rest[present..];
                        continue;
                    }
                },
                room => room,
            };
            let (run, tail) = rest.split_at(len.min(room));
            let landed = insert_run(self.store.leaf_data_mut(id), run, |_| {});
            self.len.fetch_add(landed, Ordering::Relaxed);
            inserted += landed;
            rest = tail;
        }
        Ok(inserted)
    }

    // ------------------------------------------------------------------
    // Borrowing iterators
    // ------------------------------------------------------------------

    /// Iterate entries with key `>= key` in order, across leaves, at
    /// most `limit` of them.
    pub fn range_from<'a>(&'a self, key: &K, limit: usize) -> RangeIter<'a, K, V> {
        let (_, leaf) = self.route_to_leaf(key);
        let slot = leaf.data.lower_bound_slot(key);
        RangeIter::new(self, leaf, (slot < leaf.data.capacity()).then_some(slot), limit)
    }

    /// Iterate all entries in key order.
    pub fn iter(&self) -> RangeIter<'_, K, V> {
        // Splits keep the root's id, and its leftmost descent always
        // ends at the leaf owning the lowest keys: the chain's head.
        let (_, head) = self.descend_first_leaf(self.root);
        RangeIter::new(self, head, head.data.first_occupied(), usize::MAX)
    }
}

/// How many leading pairs of the sorted `run` the leaf `leaf` already
/// holds. A duplicate never splits a leaf, so at split room zero both
/// batch inserts skip these pairs, as per-key inserts would refuse
/// them, and split only before a fresh key.
pub(super) fn present_prefix<K: AlexKey, V: Clone + Default>(
    leaf: &LeafNode<K, V>,
    run: &[(K, V)],
) -> usize {
    run.iter().take_while(|(k, _)| leaf.live_peek(k).is_some()).count()
}

/// Insert a sorted run of pairs into one leaf's base array, skipping
/// duplicates; hands each pair that landed to `landed`, in order, and
/// returns how many did. Both batch inserts apply their runs through
/// it.
pub(super) fn insert_run<K: AlexKey, V: Clone + Default>(
    data: &mut DataNode<K, V>,
    run: &[(K, V)],
    mut landed: impl FnMut(&(K, V)),
) -> usize {
    run.iter()
        .filter(|(k, v)| matches!(data.insert(*k, v.clone()), InsertOutcome::Inserted { .. }))
        .inspect(|&pair| landed(pair))
        .count()
}
