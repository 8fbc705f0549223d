//! The gapped slot array under every data node, in both layouts.
//!
//! Keys, values, and an occupancy bitmap over `capacity` slots. The key
//! array stays **non-decreasing across every slot**, including gaps:
//! a gap slot duplicates the key of the closest occupied slot to its
//! right (§3.3.1: "we fill the gaps with adjacent keys, specifically
//! the closest key to the right of the gap"), and trailing gaps hold
//! [`AlexKey::MAX_KEY`]. This keeps exponential search correct without
//! consulting the bitmap.
//!
//! Invariants (checked by `debug_assert_invariants`):
//! 1. `keys` is non-decreasing over all slots.
//! 2. Occupied slots hold their actual keys, strictly increasing.
//! 3. A gap slot's key is > the previous occupied key and <= the next
//!    occupied key (or `MAX_KEY` semantics at the tail).

use crate::bitmap::Bitmap;
use crate::key::AlexKey;
use crate::model::LinearModel;
use crate::search::{blockwise_search_lower_bound, SearchResult, PROBE_BLOCK};

/// Fixed-capacity gapped storage for one data node.
#[derive(Debug, Clone)]
pub(crate) struct SlotArray<K, V> {
    pub keys: Vec<K>,
    pub values: Vec<V>,
    pub bitmap: Bitmap,
    pub num_keys: usize,
}

/// Where an insert may go, as computed by [`SlotArray::plan_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InsertPlan {
    /// The key already exists at this slot.
    Duplicate(usize),
    /// A valid gap run `[start, end)` exists at the insertion point; any
    /// slot in it keeps order. `preferred` is the model-predicted slot
    /// clamped into the run (model-based insertion, §3.2).
    IntoGap { preferred: usize },
    /// The insertion point `at` is occupied (or one past the end); a gap
    /// must be created by shifting.
    NeedsShift { at: usize },
}

impl<K: AlexKey, V: Clone + Default> SlotArray<K, V> {
    /// An all-gap array of `capacity` slots.
    pub fn empty(capacity: usize) -> Self {
        Self {
            keys: vec![K::MAX_KEY; capacity],
            values: vec![V::default(); capacity],
            bitmap: Bitmap::new(capacity),
            num_keys: 0,
        }
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    pub fn density(&self) -> f64 {
        if self.capacity() == 0 {
            1.0
        } else {
            self.num_keys as f64 / self.capacity() as f64
        }
    }

    #[inline]
    pub fn is_occupied(&self, slot: usize) -> bool {
        self.bitmap.get(slot)
    }

    /// Lower bound (first slot with key `>= key`) via the block-wise
    /// branchless probe from `hint` (falls back to exponential search
    /// on large prediction errors).
    #[inline]
    pub fn lower_bound(&self, key: &K, hint: usize) -> SearchResult {
        blockwise_search_lower_bound(&self.keys, key, hint)
    }

    /// Exact lower bound by plain binary search over the gap-filled
    /// keys — the degraded-node hint path: O(log capacity) with no
    /// model involved. The result keeps the probe count so lookups can
    /// charge it.
    #[inline]
    pub fn binary_lower_bound(&self, key: &K) -> SearchResult {
        crate::search::bounded_binary_lower_bound(&self.keys, key, 0, self.keys.len())
    }

    /// Slot of `key` if present: the first *occupied* slot at or after
    /// the lower bound, when it holds exactly `key`.
    ///
    /// The hot path resolves occupancy block-wise too: an 8-lane
    /// key-equality mask ANDed with the bitmap window at the lower
    /// bound. The three cases are each proved by the gapped-array
    /// invariant (keys non-decreasing over all slots; a gap duplicates
    /// its right neighbour; occupied keys strictly increasing):
    ///
    /// - `eq & occ != 0` — the lowest set lane is the one occupied
    ///   slot holding `key` (every lane before it in the window is a
    ///   gap duplicating that same key, and at most one occupied slot
    ///   can hold `key`).
    /// - `eq & occ == 0` with some lane `≠ key` — the equal-run ends
    ///   inside the window with no occupied member, so `key` is
    ///   absent (slots past the run are `> key`).
    /// - all 8 lanes `== key`, none occupied — the run of gap
    ///   duplicates extends past the window; only then walk the bitmap.
    pub fn find_key(&self, key: &K, hint: usize) -> (Option<usize>, u32) {
        let r = self.lower_bound(key, hint);
        let pos = r.pos;
        if pos + PROBE_BLOCK <= self.capacity() {
            let block: &[K; PROBE_BLOCK] =
                self.keys[pos..pos + PROBE_BLOCK].try_into().expect("exact-size slice");
            let mut eq = 0u32;
            for (j, k) in block.iter().enumerate() {
                eq |= u32::from(*k == *key) << j;
            }
            let comparisons = r.comparisons + PROBE_BLOCK as u32;
            let hit = eq & u32::from(self.bitmap.window8(pos));
            if hit != 0 {
                return (Some(pos + hit.trailing_zeros() as usize), comparisons);
            }
            if eq != 0xFF {
                return (None, comparisons);
            }
            // Fall through: a >8-slot gap run duplicating `key`.
        }
        let slot = self.bitmap.next_occupied(pos);
        match slot {
            Some(s) if self.keys[s] == *key => (Some(s), r.comparisons),
            _ => (None, r.comparisons),
        }
    }

    /// Decide where `key` would be inserted, given the model-predicted
    /// slot `hint`.
    pub fn plan_insert(&self, key: &K, hint: usize) -> (InsertPlan, u32) {
        let r = self.lower_bound(key, hint);
        let lb = r.pos;
        if lb >= self.capacity() {
            return (InsertPlan::NeedsShift { at: self.capacity() }, r.comparisons);
        }
        // Duplicate check: first occupied slot at/after lb holds the
        // smallest occupied key >= key.
        if let Some(s) = self.bitmap.next_occupied(lb) {
            if self.keys[s] == *key {
                return (InsertPlan::Duplicate(s), r.comparisons);
            }
        }
        if self.is_occupied(lb) {
            (InsertPlan::NeedsShift { at: lb }, r.comparisons)
        } else {
            // Gap run [lb, next_occupied): every slot keeps order.
            let run_end = self.bitmap.next_occupied(lb).unwrap_or(self.capacity());
            let preferred = hint.clamp(lb, run_end - 1);
            let preferred = if self.is_occupied(preferred) { lb } else { preferred };
            (InsertPlan::IntoGap { preferred }, r.comparisons)
        }
    }

    /// Write `key`/`value` into the gap at `slot` and repair the
    /// duplicated gap keys immediately to its left.
    pub fn insert_into_gap(&mut self, slot: usize, key: K, value: V) {
        debug_assert!(!self.is_occupied(slot));
        self.keys[slot] = key;
        self.values[slot] = value;
        self.bitmap.set(slot);
        self.num_keys += 1;
        self.fix_gap_keys_left_of(slot, key);
    }

    /// Create a gap at insertion point `at` by shifting toward the
    /// nearest gap within `window` (usually the whole array; the PMA
    /// node restricts it to a segment), then insert. Returns the number
    /// of shifted elements, or `None` if `window` has no free slot.
    pub fn shift_insert(
        &mut self,
        at: usize,
        key: K,
        value: V,
        window: core::ops::Range<usize>,
    ) -> Option<u64> {
        debug_assert!(at >= window.start && at <= window.end);
        let right_gap = if at < window.end { self.bitmap.next_gap(at) } else { None }
            .filter(|&g| g < window.end);
        let left_gap = if at > window.start {
            self.bitmap.prev_gap(at - 1)
        } else {
            None
        }
        .filter(|&g| g >= window.start);
        let (slot, shifts) = match (left_gap, right_gap) {
            (Some(l), Some(r)) => {
                if at - l <= r - at + 1 {
                    (self.shift_left_into(l, at), (at - l - 1) as u64)
                } else {
                    (self.shift_right_into(at, r), (r - at) as u64)
                }
            }
            (Some(l), None) => (self.shift_left_into(l, at), (at - l - 1) as u64),
            (None, Some(r)) => (self.shift_right_into(at, r), (r - at) as u64),
            (None, None) => return None,
        };
        self.keys[slot] = key;
        self.values[slot] = value;
        self.bitmap.set(slot);
        self.num_keys += 1;
        self.fix_gap_keys_left_of(slot, key);
        Some(shifts)
    }

    /// Shift `[at, gap)` one slot right into the gap; the insertion slot
    /// becomes `at`.
    fn shift_right_into(&mut self, at: usize, gap: usize) -> usize {
        debug_assert!(!self.is_occupied(gap));
        for j in (at..gap).rev() {
            self.keys[j + 1] = self.keys[j];
            self.values[j + 1] = self.values[j].clone();
        }
        self.bitmap.set(gap); // [at..=gap] now all occupied once `at` is written
        at
    }

    /// Shift `(gap, at)` one slot left into the gap; the insertion slot
    /// becomes `at - 1`.
    fn shift_left_into(&mut self, gap: usize, at: usize) -> usize {
        debug_assert!(!self.is_occupied(gap));
        for j in gap + 1..at {
            self.keys[j - 1] = self.keys[j];
            self.values[j - 1] = self.values[j].clone();
        }
        self.bitmap.set(gap);
        at - 1
    }

    /// Walk left from `slot`, rewriting stale duplicated gap keys that
    /// now exceed the freshly inserted `key`.
    fn fix_gap_keys_left_of(&mut self, slot: usize, key: K) {
        let mut j = slot;
        while j > 0 {
            j -= 1;
            if self.bitmap.get(j) || self.keys[j] <= key {
                break;
            }
            self.keys[j] = key;
        }
    }

    /// Remove the key at occupied `slot`. The slot becomes a gap; its
    /// key value stays (it satisfies the gap-key invariant as-is), so
    /// deletion does no shifting (§3.2: deletes are "strictly simpler").
    pub fn remove_at(&mut self, slot: usize) -> V {
        debug_assert!(self.is_occupied(slot));
        self.bitmap.clear(slot);
        self.num_keys -= 1;
        core::mem::take(&mut self.values[slot])
    }

    /// Collect all `(key, value)` pairs in order.
    pub fn to_pairs(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.num_keys);
        let mut slot = self.bitmap.next_occupied(0);
        while let Some(s) = slot {
            out.push((self.keys[s], self.values[s].clone()));
            slot = self.bitmap.next_occupied(s + 1);
        }
        out
    }

    /// Rebuild as a fresh array of `capacity` slots, placing `pairs`
    /// (sorted) by model-based insertion: each key goes to its predicted
    /// slot, or the first gap to the right on collision (Algorithm 3,
    /// `ModelBasedInsert`). Reserves room so every remaining pair fits.
    pub fn rebuild_model_based(pairs: &[(K, V)], capacity: usize, model: &LinearModel) -> Self {
        debug_assert!(pairs.len() <= capacity);
        let mut arr = Self::empty(capacity);
        let slots = model_based_slots(pairs.iter().map(|p| &p.0), capacity, model);
        for ((k, v), slot) in pairs.iter().zip(slots) {
            arr.keys[slot] = *k;
            arr.values[slot] = v.clone();
            arr.bitmap.set(slot);
        }
        arr.num_keys = pairs.len();
        arr.fill_gap_keys();
        arr
    }

    /// Rebuild placing `pairs` uniformly spaced (classic PMA
    /// redistribution; also the `Placement::Uniform` ablation).
    pub fn rebuild_uniform(pairs: &[(K, V)], capacity: usize) -> Self {
        debug_assert!(pairs.len() <= capacity);
        let mut arr = Self::empty(capacity);
        let n = pairs.len();
        if n > 0 {
            let stride = capacity as f64 / n as f64;
            for (i, (k, v)) in pairs.iter().enumerate() {
                let slot = ((i as f64 * stride) as usize).min(capacity - 1);
                arr.keys[slot] = *k;
                arr.values[slot] = v.clone();
                arr.bitmap.set(slot);
            }
        }
        arr.num_keys = n;
        arr.fill_gap_keys();
        arr
    }

    /// Right-to-left pass setting every gap key to the key of the
    /// closest occupied slot to its right (or `MAX_KEY` at the tail).
    pub fn fill_gap_keys(&mut self) {
        let mut carry = K::MAX_KEY;
        for i in (0..self.capacity()).rev() {
            if self.bitmap.get(i) {
                carry = self.keys[i];
            } else {
                self.keys[i] = carry;
            }
        }
    }

    /// Re-fill gap keys within `window` only, using the first occupied
    /// slot at or after `window.end` as the initial carry, then repair
    /// the gap run immediately left of the window.
    pub fn fill_gap_keys_in(&mut self, window: core::ops::Range<usize>) {
        let mut carry = match self.bitmap.next_occupied(window.end) {
            Some(s) => self.keys[s],
            None => K::MAX_KEY,
        };
        for i in window.clone().rev() {
            if self.bitmap.get(i) {
                carry = self.keys[i];
            } else {
                self.keys[i] = carry;
            }
        }
        // `carry` is now the smallest key at/after window.start; gaps
        // left of the window may hold stale larger values.
        let mut j = window.start;
        while j > 0 {
            j -= 1;
            if self.bitmap.get(j) || self.keys[j] <= carry {
                break;
            }
            self.keys[j] = carry;
        }
    }

    /// Visit up to `limit` occupied entries starting at `slot`, in
    /// order, word-at-a-time over the bitmap. Returns the number
    /// visited.
    pub fn scan_from(&self, slot: usize, limit: usize, f: &mut impl FnMut(&K, &V)) -> usize {
        let mut visited = 0usize;
        for s in self.bitmap.ones_from(slot) {
            if visited == limit {
                break;
            }
            f(&self.keys[s], &self.values[s]);
            visited += 1;
        }
        visited
    }

    /// Heap bytes used by the slot arrays plus the bitmap (the paper's
    /// data-size accounting, §5.1: keys + payloads including gaps +
    /// bitmap).
    pub fn size_bytes(&self) -> usize {
        self.keys.capacity() * core::mem::size_of::<K>()
            + self.values.capacity() * core::mem::size_of::<V>()
            + self.bitmap.size_bytes()
    }

    /// Check structural invariants (debug builds only; used by tests).
    #[cfg(any(test, debug_assertions))]
    #[allow(dead_code)]
    pub fn debug_assert_invariants(&self) {
        assert_eq!(self.bitmap.count_ones(), self.num_keys, "bitmap count mismatch");
        let mut prev: Option<K> = None;
        for i in 0..self.capacity() {
            if let Some(p) = prev {
                assert!(
                    p <= self.keys[i],
                    "keys must be non-decreasing at slot {i}: {:?} > {:?}",
                    p,
                    self.keys[i]
                );
                if self.bitmap.get(i) {
                    if let Some(po) = self.bitmap.prev_occupied(i.saturating_sub(1)).filter(|_| i > 0) {
                        assert!(
                            self.keys[po] < self.keys[i],
                            "occupied keys must be strictly increasing at {i}"
                        );
                    }
                }
            }
            prev = Some(self.keys[i]);
        }
    }
}

/// The slot model-based placement gives each of the sorted `keys` in a
/// `capacity`-slot array: its predicted slot, or the first free slot
/// to the right on collision (Algorithm 3, `ModelBasedInsert`), never
/// so late that the remaining keys can't fit.
fn model_based_slots<'a, K: AlexKey + 'a>(
    keys: impl ExactSizeIterator<Item = &'a K> + 'a,
    capacity: usize,
    model: &LinearModel,
) -> impl Iterator<Item = usize> + 'a {
    let (n, model) = (keys.len(), *model);
    let mut next_free = 0usize;
    keys.enumerate().map(move |(i, k)| {
        let slot = model
            .predict_clamped(k.as_f64(), capacity)
            .max(next_free)
            .min(capacity - (n - i));
        next_free = slot + 1;
        slot
    })
}

/// Expected shifts per insert into the layout
/// [`SlotArray::rebuild_model_based`] would build, computed from the
/// slots alone: Σ L²/(4n) over its runs of L consecutive occupied
/// slots. An insert drawn from the keys' own distribution lands in a
/// run with probability L/n and shifts about L/4 of it to reach a gap.
pub(crate) fn model_based_shifts_per_insert<'a, K: AlexKey + 'a>(
    keys: impl ExactSizeIterator<Item = &'a K> + 'a,
    capacity: usize,
    model: &LinearModel,
) -> f64 {
    let n = keys.len();
    if n == 0 {
        return 0.0;
    }
    let (mut sum_sq, mut run, mut prev) = (0u64, 0u64, None);
    for slot in model_based_slots(keys, capacity, model) {
        if prev.is_some_and(|p: usize| slot == p + 1) {
            run += 1;
        } else {
            sum_sq += run * run;
            run = 1;
        }
        prev = Some(slot);
    }
    sum_sq += run * run;
    sum_sq as f64 / (4 * n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    type Arr = SlotArray<u64, u64>;

    fn insert(arr: &mut Arr, model: &LinearModel, key: u64, value: u64) -> bool {
        let hint = model.predict_clamped(key as f64, arr.capacity());
        match arr.plan_insert(&key, hint).0 {
            InsertPlan::Duplicate(_) => false,
            InsertPlan::IntoGap { preferred } => {
                arr.insert_into_gap(preferred, key, value);
                true
            }
            InsertPlan::NeedsShift { at } => {
                let cap = arr.capacity();
                arr.shift_insert(at.min(cap), key, value, 0..cap)
                    .expect("array is full");
                true
            }
        }
    }

    #[test]
    fn empty_array_all_sentinels() {
        let arr = Arr::empty(8);
        assert_eq!(arr.num_keys, 0);
        assert!(arr.keys.iter().all(|&k| k == u64::MAX));
        arr.debug_assert_invariants();
    }

    #[test]
    fn insert_into_empty() {
        let mut arr = Arr::empty(8);
        let model = LinearModel::default();
        assert!(insert(&mut arr, &model, 42, 1));
        assert_eq!(arr.num_keys, 1);
        let (slot, _) = arr.find_key(&42, 0);
        assert!(slot.is_some());
        arr.debug_assert_invariants();
    }

    #[test]
    fn inserts_maintain_order_and_gap_keys() {
        let mut arr = Arr::empty(32);
        let model = LinearModel {
            slope: 32.0 / 100.0,
            intercept: 0.0,
        };
        for k in [50u64, 10, 90, 30, 70, 20, 80, 40, 60, 0] {
            assert!(insert(&mut arr, &model, k, k));
            arr.debug_assert_invariants();
        }
        assert_eq!(arr.num_keys, 10);
        for k in [0u64, 10, 20, 30, 40, 50, 60, 70, 80, 90] {
            let hint = model.predict_clamped(k as f64, arr.capacity());
            assert!(arr.find_key(&k, hint).0.is_some(), "missing {k}");
        }
        assert!(arr.find_key(&55, 16).0.is_none());
    }

    #[test]
    fn duplicate_detected() {
        let mut arr = Arr::empty(16);
        let model = LinearModel::default();
        assert!(insert(&mut arr, &model, 5, 0));
        assert!(!insert(&mut arr, &model, 5, 1));
        assert_eq!(arr.num_keys, 1);
    }

    #[test]
    fn fill_to_capacity_with_shifts() {
        let mut arr = Arr::empty(16);
        let model = LinearModel::default(); // always predicts 0: worst case, all shifts
        for k in 0..16u64 {
            assert!(insert(&mut arr, &model, k, k), "insert {k}");
            arr.debug_assert_invariants();
        }
        assert_eq!(arr.num_keys, 16);
        for k in 0..16u64 {
            assert!(arr.find_key(&k, 0).0.is_some());
        }
    }

    #[test]
    fn descending_fill_exercises_left_gap_fix() {
        let mut arr = Arr::empty(16);
        let model = LinearModel {
            slope: 1.0,
            intercept: 0.0,
        };
        for k in (0..16u64).rev() {
            assert!(insert(&mut arr, &model, k, k));
            arr.debug_assert_invariants();
        }
        for k in 0..16u64 {
            assert!(arr.find_key(&k, k as usize).0.is_some(), "missing {k}");
        }
    }

    #[test]
    fn new_max_key_goes_past_all_slots() {
        let mut arr = Arr::empty(8);
        let model = LinearModel {
            slope: 0.0,
            intercept: 7.0, // always predicts the last slot
        };
        for k in [1u64, 2, 3] {
            assert!(insert(&mut arr, &model, k, k));
            arr.debug_assert_invariants();
        }
        // All three keys crowd the right end; new max forces the
        // NeedsShift-at-capacity path once slots 5..8 are full.
        for k in [4u64, 5, 6, 7, 8] {
            assert!(insert(&mut arr, &model, k, k));
            arr.debug_assert_invariants();
        }
        for k in 1..=8u64 {
            assert!(arr.find_key(&k, 7).0.is_some(), "missing {k}");
        }
    }

    #[test]
    fn remove_leaves_valid_gap() {
        let mut arr = Arr::empty(16);
        let model = LinearModel {
            slope: 1.6,
            intercept: 0.0,
        };
        for k in 0..10u64 {
            insert(&mut arr, &model, k, k * 100);
        }
        let (slot, _) = arr.find_key(&5, 8);
        let v = arr.remove_at(slot.unwrap());
        assert_eq!(v, 500);
        assert_eq!(arr.num_keys, 9);
        arr.debug_assert_invariants();
        assert!(arr.find_key(&5, 8).0.is_none());
        // Re-insert into the tombstone gap.
        assert!(insert(&mut arr, &model, 5, 501));
        let (slot, _) = arr.find_key(&5, 8);
        assert_eq!(arr.values[slot.unwrap()], 501);
        arr.debug_assert_invariants();
    }

    #[test]
    fn rebuild_model_based_places_predictably() {
        let pairs: Vec<(u64, u64)> = (0..50).map(|k| (k * 2, k)).collect();
        let model = LinearModel::fit_keys(&pairs.iter().map(|p| p.0).collect::<Vec<_>>()).scaled(2.0);
        let arr = SlotArray::rebuild_model_based(&pairs, 100, &model);
        assert_eq!(arr.num_keys, 50);
        arr.debug_assert_invariants();
        // Perfect linear data + 2x space: every key lands exactly at its
        // predicted slot => direct hits.
        let mut direct = 0;
        for (k, _) in &pairs {
            let hint = model.predict_clamped(*k as f64, 100);
            if arr.bitmap.get(hint) && arr.keys[hint] == *k {
                direct += 1;
            }
        }
        assert_eq!(direct, 50, "all keys should be direct hits");
    }

    #[test]
    fn rebuild_handles_collisions() {
        // Constant model: everything predicts slot 0; keys must cascade
        // right ("first gap to the right").
        let pairs: Vec<(u64, u64)> = (0..10).map(|k| (k, k)).collect();
        let arr = SlotArray::rebuild_model_based(&pairs, 10, &LinearModel::default());
        assert_eq!(arr.num_keys, 10);
        arr.debug_assert_invariants();
        for (i, (k, _)) in pairs.iter().enumerate() {
            assert_eq!(arr.keys[i], *k);
        }
    }

    #[test]
    fn rebuild_reserves_tail_room() {
        // Model predicting everything at the end: earlier keys must be
        // pulled left so later ones fit.
        let pairs: Vec<(u64, u64)> = (0..10).map(|k| (k, k)).collect();
        let model = LinearModel {
            slope: 0.0,
            intercept: 15.0,
        };
        let arr = SlotArray::rebuild_model_based(&pairs, 16, &model);
        assert_eq!(arr.num_keys, 10);
        arr.debug_assert_invariants();
        for (k, _) in &pairs {
            assert!(arr.find_key(k, 15).0.is_some(), "missing {k}");
        }
    }

    #[test]
    fn rebuild_uniform_spreads() {
        let pairs: Vec<(u64, u64)> = (0..8).map(|k| (k, k)).collect();
        let arr = SlotArray::rebuild_uniform(&pairs, 16);
        assert_eq!(arr.num_keys, 8);
        arr.debug_assert_invariants();
        // Evenly spaced: every other slot.
        for i in 0..8 {
            assert!(arr.bitmap.get(i * 2), "slot {} should be occupied", i * 2);
        }
    }

    #[test]
    fn to_pairs_round_trip() {
        let pairs: Vec<(u64, u64)> = (0..20).map(|k| (k * 3, k)).collect();
        let model = LinearModel::fit_keys(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let arr = SlotArray::rebuild_model_based(&pairs, 40, &model.scaled(2.0));
        assert_eq!(arr.to_pairs(), pairs);
    }

    #[test]
    fn fill_gap_keys_in_window_repairs_boundaries() {
        let pairs: Vec<(u64, u64)> = (0..8).map(|k| (k * 10, k)).collect();
        let mut arr = SlotArray::rebuild_uniform(&pairs, 16);
        // Manually clear a window and re-fill.
        arr.fill_gap_keys_in(4..12);
        arr.debug_assert_invariants();
    }
}
