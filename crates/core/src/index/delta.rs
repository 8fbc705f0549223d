//! Per-leaf delta buffers and the merged read view.
//!
//! PR 4's epoch write path paid a full leaf clone per point write
//! (copy-on-write). The delta buffer amortizes that: a leaf snapshot is
//! published together with a small sorted side-array of pending edits
//! ([`DeltaBuf`]), and a point write republishes only a *shallow* copy
//! of the leaf — the gapped base array is shared through an `Arc`, the
//! delta gains one entry. Readers merge the two on the fly; when the
//! buffer reaches the configured capacity
//! (`AlexConfig::delta_buffer`) the writer folds it into a
//! fresh base array (one real leaf clone) and publishes that with an
//! empty buffer. A leaf write thus costs `O(delta)` instead of
//! `O(leaf)`, with one `O(leaf)` flush every `capacity` writes —
//! `O(leaf / capacity)` amortized.
//!
//! ## Entry invariants
//!
//! The buffer holds at most one entry per key, sorted by key:
//!
//! - [`DeltaOp::Tombstone`] ⇒ the key **is** occupied in the base
//!   array (a removed buffered insert is dropped outright, never
//!   tombstoned).
//! - [`DeltaOp::Put`] for a key in the base is a pending payload
//!   update (shadow); for a key absent from the base it is a pending
//!   insert.
//!
//! `debug_assert_delta_invariants` checks both, and the merged-view
//! helpers on [`LeafNode`] rely on them.
//!
//! ## Lifecycle
//!
//! Deltas are created only by the shared write path
//! ([`super::concurrent::EpochAlex`]); the exclusive (`&mut`) path
//! flushes a leaf's delta in place before touching its base array
//! ([`super::store::Dense::leaf_data_mut`]), so classic
//! single-threaded use never observes a non-empty buffer. A leaf split
//! folds the delta into the redistributed children (they start with
//! empty buffers), and `EpochAlex::into_inner` flushes every buffer so
//! the recovered [`super::AlexIndex`] is delta-free.

use crate::key::AlexKey;
use std::sync::Arc;

use super::store::LeafNode;

/// One pending edit riding alongside a leaf snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp<V> {
    /// Pending insert (key absent from the base) or payload update
    /// (key present — the delta value shadows the base value).
    Put(V),
    /// Pending removal of a key that is occupied in the base array.
    Tombstone,
}

/// A bounded, sorted buffer of pending edits for one leaf. At most one
/// entry per key; capacity is enforced by the writer (the buffer
/// itself only stores).
#[derive(Debug, Clone)]
pub struct DeltaBuf<K, V> {
    entries: Vec<(K, DeltaOp<V>)>,
}

impl<K, V> Default for DeltaBuf<K, V> {
    fn default() -> Self {
        Self { entries: Vec::new() }
    }
}

impl<K: AlexKey, V> DeltaBuf<K, V> {
    /// Number of buffered entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Binary search for `key`. A NaN probe, which writes refuse,
    /// compares above every entry and is never found.
    #[inline]
    fn idx(&self, key: &K) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|(k, _)| k.partial_cmp(key).unwrap_or(core::cmp::Ordering::Less))
    }

    /// The buffered op for `key`, if any.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&DeltaOp<V>> {
        self.idx(key).ok().map(|i| &self.entries[i].1)
    }

    /// Whether the buffer holds an entry (of either kind) for `key`.
    #[inline]
    pub fn contains(&self, key: &K) -> bool {
        self.idx(key).is_ok()
    }

    /// Upsert a pending insert/update. Replacing an existing entry
    /// (including a tombstone) never grows the buffer.
    pub fn put(&mut self, key: K, value: V) {
        match self.idx(&key) {
            Ok(i) => self.entries[i].1 = DeltaOp::Put(value),
            Err(i) => self.entries.insert(i, (key, DeltaOp::Put(value))),
        }
    }

    /// Upsert a pending removal. Callers must uphold the tombstone
    /// invariant (`key` occupied in the base array).
    pub fn tombstone(&mut self, key: K) {
        match self.idx(&key) {
            Ok(i) => self.entries[i].1 = DeltaOp::Tombstone,
            Err(i) => self.entries.insert(i, (key, DeltaOp::Tombstone)),
        }
    }

    /// Drop the entry for `key` (undoes a buffered insert).
    pub fn remove_entry(&mut self, key: &K) {
        if let Ok(i) = self.idx(key) {
            self.entries.remove(i);
        }
    }

    /// Index of the first entry with key `>= key`.
    #[inline]
    pub fn lower_bound(&self, key: &K) -> usize {
        self.entries.partition_point(|(k, _)| k < key)
    }

    /// The entry at `i` (callers keep `i < len()`).
    #[inline]
    pub fn entry(&self, i: usize) -> (&K, &DeltaOp<V>) {
        let (k, op) = &self.entries[i];
        (k, op)
    }

    /// Largest buffered key, if any.
    #[inline]
    pub fn max_key(&self) -> Option<&K> {
        self.entries.last().map(|(k, _)| k)
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &DeltaOp<V>)> {
        self.entries.iter().map(|(k, op)| (k, op))
    }

    /// Drain all entries in key order (flush).
    pub fn drain(&mut self) -> impl Iterator<Item = (K, DeltaOp<V>)> + '_ {
        self.entries.drain(..)
    }

    /// Heap bytes held by the buffer (size accounting).
    pub fn size_bytes(&self) -> usize {
        self.entries.capacity() * core::mem::size_of::<(K, DeltaOp<V>)>()
    }
}

// ----------------------------------------------------------------------
// Merged view: base array + delta, read as one ordered map.
// ----------------------------------------------------------------------

impl<K: AlexKey, V: Clone + Default> LeafNode<K, V> {
    /// Look up `key` through the merged view: the delta wins (a `Put`
    /// shadows the base payload, a tombstone hides it), the base
    /// answers otherwise.
    #[inline]
    pub fn live_get(&self, key: &K) -> Option<&V> {
        if self.delta.is_empty() {
            return self.data.get(key);
        }
        match self.delta.get(key) {
            Some(DeltaOp::Put(v)) => Some(v),
            Some(DeltaOp::Tombstone) => None,
            None => self.data.get(key),
        }
    }

    /// Number of live keys in the merged view (base plus pending
    /// inserts, minus tombstones). O(1): the delta's net contribution
    /// is maintained by the writers (`delta_net`); the debug
    /// invariants cross-check it against [`LeafNode::recount_delta_net`].
    #[inline]
    pub fn live_keys(&self) -> usize {
        debug_assert_eq!(self.delta_net, self.recount_delta_net(), "delta_net drifted");
        usize::try_from(self.data.num_keys() as isize + self.delta_net)
            .expect("net delta can never exceed the base population")
    }

    /// Always-on form of the `delta_net` cross-check: assert the
    /// cached net delta matches a recount, in release builds too.
    ///
    /// Called at the durability flush boundaries — epoch flush-clones
    /// and `leaf_snapshots` serialization — where a drifted cache
    /// would be *persisted* (a snapshot's recorded population and the
    /// split-threshold arithmetic both trust `delta_net`). The recount
    /// is `O(delta · log leaf)`, negligible next to the `O(leaf)`
    /// work both boundaries already do; the per-read hot path keeps
    /// the `debug_assert_eq!` in [`LeafNode::live_keys`] instead.
    pub(crate) fn assert_delta_net_coherent(&self) {
        assert_eq!(
            self.delta_net,
            self.recount_delta_net(),
            "delta_net drifted: cached net delta disagrees with a recount"
        );
    }

    /// Recount the delta's net live-key contribution from scratch
    /// (`O(delta · log leaf)`) — the ground truth `delta_net` caches.
    pub(crate) fn recount_delta_net(&self) -> isize {
        let mut n = 0isize;
        for (k, op) in self.delta.iter() {
            match op {
                DeltaOp::Put(_) => {
                    if self.data.get(k).is_none() {
                        n += 1;
                    }
                }
                // Tombstone invariant: the key is occupied in the base.
                DeltaOp::Tombstone => n -= 1,
            }
        }
        n
    }

    /// Largest key this leaf is known to own, for monotone run
    /// routing. May name a tombstoned key — still sound: routing is
    /// pure model arithmetic, so a key that once routed here keeps
    /// routing here whether or not it is still live.
    pub fn routing_max_key(&self) -> Option<K> {
        let base = self.data.max_key().copied();
        let buffered = self.delta.max_key().copied();
        match (base, buffered) {
            (Some(b), Some(d)) => Some(if d > b { d } else { b }),
            (some, None) => some,
            (None, some) => some,
        }
    }

    /// Next merged entry at or after positions `(slot, didx)`:
    /// `slot` is the next base slot to inspect (gaps are normalized),
    /// `didx` the next delta index. Returns the entry plus the
    /// positions to resume from. Tombstones and shadowed base entries
    /// are resolved here.
    pub(crate) fn merged_next(
        &self,
        mut slot: usize,
        mut didx: usize,
    ) -> Option<((&K, &V), usize, usize)> {
        loop {
            let base = if self.data.num_keys() > 0 && slot < self.data.capacity() {
                if slot == 0 {
                    self.data.first_occupied()
                } else {
                    self.data.next_occupied_after(slot - 1)
                }
            } else {
                None
            };
            let buffered = (didx < self.delta.len()).then(|| self.delta.entry(didx));
            match (base, buffered) {
                (None, None) => return None,
                (Some(s), None) => {
                    let (k, v) = self.data.entry_at(s);
                    return Some(((k, v), s + 1, didx));
                }
                (None, Some((dk, op))) => match op {
                    DeltaOp::Put(v) => return Some(((dk, v), slot, didx + 1)),
                    // Its base key lies before `slot` (already passed).
                    DeltaOp::Tombstone => didx += 1,
                },
                (Some(s), Some((dk, op))) => {
                    let (bk, bv) = self.data.entry_at(s);
                    if dk < bk {
                        match op {
                            DeltaOp::Put(v) => return Some(((dk, v), slot, didx + 1)),
                            DeltaOp::Tombstone => didx += 1,
                        }
                    } else if dk == bk {
                        match op {
                            // Shadow: the buffered payload wins.
                            DeltaOp::Put(v) => return Some(((dk, v), s + 1, didx + 1)),
                            DeltaOp::Tombstone => {
                                slot = s + 1;
                                didx += 1;
                            }
                        }
                    } else {
                        return Some(((bk, bv), s + 1, didx));
                    }
                }
            }
        }
    }

    /// Visit up to `limit` merged entries with key `>= start` (all
    /// entries when `start` is `None`) in key order; returns the
    /// number visited. Falls back to the raw base scan when the delta
    /// is empty (the common case on read-heavy leaves).
    ///
    /// One pass over the base's occupied slots: before each base key
    /// go the buffered entries that sort below it, and a buffered op
    /// on the key itself shadows (`Put`) or hides (`Tombstone`) the
    /// base entry. The `Put`s left past the base's last key go last.
    pub fn scan_merged(&self, start: Option<&K>, limit: usize, f: &mut impl FnMut(&K, &V)) -> usize {
        let slot = match start {
            Some(k) => self.data.lower_bound_slot(k),
            None => 0,
        };
        if self.delta.is_empty() {
            return self.data.scan_from_slot(slot, limit, f);
        }
        let didx = start.map_or(0, |k| self.delta.lower_bound(k));
        let mut delta = self.delta.iter().skip(didx).peekable();
        let mut visited = 0usize;
        // Visits one entry, or returns false once `limit` are visited.
        let mut emit = |k: &K, v: &V| {
            if visited == limit {
                return false;
            }
            f(k, v);
            visited += 1;
            true
        };
        for (bk, bv) in self.data.entries_from(slot) {
            let mut live = Some(bv);
            while let Some((dk, op)) = delta.next_if(|&(dk, _)| dk <= bk) {
                match op {
                    DeltaOp::Put(v) if dk == bk => live = Some(v),
                    DeltaOp::Tombstone if dk == bk => live = None,
                    DeltaOp::Put(v) => {
                        if !emit(dk, v) {
                            return limit;
                        }
                    }
                    // Never reached: a tombstone names a base key.
                    DeltaOp::Tombstone => {}
                }
            }
            if let Some(v) = live {
                if !emit(bk, v) {
                    return limit;
                }
            }
        }
        for (dk, op) in delta {
            if let DeltaOp::Put(v) = op {
                if !emit(dk, v) {
                    return limit;
                }
            }
        }
        visited
    }

    /// All live pairs of the merged view in key order (split planning,
    /// flush-by-rebuild).
    pub fn to_pairs_merged(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.live_keys());
        self.scan_merged(None, usize::MAX, &mut |k, v| out.push((*k, v.clone())));
        out
    }

    /// Fold the delta into the base array in place, leaving the buffer
    /// empty. Clones the base first if it is still shared with a
    /// published snapshot (`Arc::make_mut`); with a uniquely owned
    /// base (the exclusive regime) the fold is in place.
    pub fn flush_delta(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        self.delta_net = 0;
        let data = Arc::make_mut(&mut self.data);
        for (key, op) in self.delta.drain() {
            match op {
                DeltaOp::Put(value) => match data.get_mut(&key) {
                    Some(slot) => *slot = value,
                    None => {
                        let _ = data.insert(key, value);
                    }
                },
                DeltaOp::Tombstone => {
                    data.remove(&key);
                }
            }
        }
    }

    #[cfg(any(test, debug_assertions))]
    #[allow(dead_code)] // exercised by unit, integration, and property tests
    pub(crate) fn debug_assert_delta_invariants(&self) {
        assert_eq!(self.delta_net, self.recount_delta_net(), "cached delta_net drifted");
        let mut prev: Option<&K> = None;
        for (k, op) in self.delta.iter() {
            assert!(prev.is_none_or(|p| p < k), "delta buffer out of order at {k:?}");
            if matches!(op, DeltaOp::Tombstone) {
                assert!(
                    self.data.get(k).is_some(),
                    "tombstone for {k:?} without a base occupant"
                );
            }
            prev = Some(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::store::LeafNode;
    use super::*;
    use crate::config::{NodeLayout, NodeParams};
    use crate::data_node::DataNode;
    use std::collections::BTreeMap;

    fn leaf(pairs: &[(u64, u64)]) -> LeafNode<u64, u64> {
        LeafNode::new(
            DataNode::bulk_load(pairs, NodeLayout::Gapped, NodeParams::default()),
            None,
            None,
        )
    }

    fn collect(l: &LeafNode<u64, u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        l.scan_merged(None, usize::MAX, &mut |k, v| out.push((*k, *v)));
        out
    }

    #[test]
    fn merged_view_interleaves_puts_and_tombstones() {
        let mut l = leaf(&[(10, 1), (20, 2), (30, 3), (40, 4)]);
        l.delta.put(15, 100); // fresh insert between base keys
        l.delta.put(20, 200); // shadow update of a base key
        l.delta.tombstone(30); // pending removal
        l.delta.put(50, 500); // fresh insert past the base max
        l.delta_net = l.recount_delta_net();
        l.debug_assert_delta_invariants();

        assert_eq!(l.live_get(&15), Some(&100));
        assert_eq!(l.live_get(&20), Some(&200));
        assert_eq!(l.live_get(&30), None, "tombstone hides the base entry");
        assert_eq!(l.live_get(&40), Some(&4));
        assert_eq!(l.live_get(&50), Some(&500));
        assert_eq!(l.live_keys(), 5);
        assert_eq!(l.routing_max_key(), Some(50));
        let want = vec![(10, 1), (15, 100), (20, 200), (40, 4), (50, 500)];
        assert_eq!(collect(&l), want);
        assert_eq!(l.to_pairs_merged(), want);
    }

    #[test]
    fn scan_merged_honours_start_and_limit() {
        // Base keys 10..=80; buffered puts before, between, on and
        // after them, and tombstones on the first key and on two
        // neighbours.
        let base: Vec<(u64, u64)> = (1..=8).map(|i| (i * 10, i)).collect();
        let mut l = leaf(&base);
        let mut model: BTreeMap<u64, u64> = base.iter().copied().collect();
        for (k, v) in [(5, 500), (15, 150), (30, 300), (35, 350), (36, 360), (80, 800), (95, 950)] {
            l.delta.put(k, v);
            model.insert(k, v);
        }
        for k in [10, 50, 60] {
            l.delta.tombstone(k);
            model.remove(&k);
        }
        l.delta_net = l.recount_delta_net();
        l.debug_assert_delta_invariants();

        let starts = (0..=100).map(Some).chain([None]);
        for start in starts {
            for limit in 0..=model.len() + 1 {
                let from = start.unwrap_or(0);
                let want: Vec<(u64, u64)> =
                    model.range(from..).take(limit).map(|(k, v)| (*k, *v)).collect();
                let mut got = Vec::new();
                let visited = l.scan_merged(start.as_ref(), limit, &mut |k, v| got.push((*k, *v)));
                assert_eq!(got, want, "start {start:?}, limit {limit}");
                assert_eq!(visited, want.len(), "start {start:?}, limit {limit}");
            }
        }
    }

    #[test]
    fn flush_folds_delta_into_base() {
        let mut l = leaf(&[(10, 1), (20, 2), (30, 3)]);
        l.delta.put(15, 15);
        l.delta.tombstone(20);
        l.delta.put(30, 300);
        l.delta_net = l.recount_delta_net();
        let merged = collect(&l);
        l.flush_delta();
        assert!(l.delta.is_empty());
        assert_eq!(collect(&l), merged, "flush must preserve the merged view");
        assert_eq!(l.data.get(&30), Some(&300));
        assert_eq!(l.data.get(&20), None);
    }

    #[test]
    fn shallow_clone_shares_the_base_array() {
        let l = leaf(&[(1, 1), (2, 2)]);
        let copy = l.clone();
        assert!(Arc::ptr_eq(&l.data, &copy.data), "clone must not deep-copy the base");
    }

    #[test]
    fn removing_a_buffered_insert_drops_the_entry() {
        let mut l = leaf(&[(10, 1)]);
        l.delta.put(15, 15);
        l.delta_net += 1;
        assert_eq!(l.live_keys(), 2);
        l.delta.remove_entry(&15);
        l.delta_net -= 1;
        assert_eq!(l.live_keys(), 1);
        assert_eq!(l.live_get(&15), None);
    }

    #[test]
    fn empty_base_with_delta_only() {
        let mut l = leaf(&[]);
        l.delta.put(7, 70);
        l.delta.put(3, 30);
        l.delta_net = 2;
        assert_eq!(collect(&l), vec![(3, 30), (7, 70)]);
        assert_eq!(l.live_keys(), 2);
        assert_eq!(l.routing_max_key(), Some(7));
    }
}
