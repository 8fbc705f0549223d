//! The Packed Memory Array (PMA) data node (§3.3.2, Algorithm 2).
//!
//! Same gapped slot array as the GA node, but with the PMA's
//! implicit-tree density bounds governing where inserts may land:
//! a violated segment bound triggers a *uniform* rebalance of the
//! smallest window that can absorb the insert (classic PMA behaviour),
//! while a violated root bound triggers a doubling expansion that
//! re-inserts **model-based** — ALEX's twist (§3.3.2: "ALEX uses
//! model-based inserts after every PMA expansion"). The node therefore
//! sits between the gapped array's search speed and the PMA's insert
//! robustness.

use alex_pma::layout::Geometry;

use crate::config::{NodeParams, Placement};
use crate::gapped::{model_degraded, InsertOutcome};
use crate::key::AlexKey;
use crate::model::LinearModel;
use crate::slots::{InsertPlan, SlotArray};
use crate::stats::{ReadStats, WriteStats};

/// A PMA-backed leaf node.
#[derive(Debug, Clone)]
pub struct PmaNode<K, V> {
    pub(crate) slots: SlotArray<K, V>,
    geometry: Geometry,
    pub(crate) model: LinearModel,
    params: NodeParams,
    /// Degradation guard — same semantics as the gapped node's field:
    /// set at (re)train time when the projection cannot separate this
    /// node's keys; forces uniform placement + binary-search hints.
    degraded: bool,
    pub(crate) writes: WriteStats,
    pub(crate) reads: ReadStats,
}

impl<K: AlexKey, V: Clone + Default> PmaNode<K, V> {
    /// An empty node.
    pub fn empty(params: NodeParams) -> Self {
        let geometry = Geometry::for_capacity(8);
        Self {
            slots: SlotArray::empty(geometry.capacity()),
            geometry,
            model: LinearModel::default(),
            params,
            degraded: false,
            writes: WriteStats::default(),
            reads: ReadStats::default(),
        }
    }

    /// Bulk-load from sorted pairs with model-based placement.
    pub fn bulk_load(pairs: &[(K, V)], params: NodeParams) -> Self {
        let n = pairs.len();
        let geometry = Geometry::for_capacity(((n as f64 / params.init_density).ceil() as usize).max(8));
        let (model, slots, degraded) = Self::train_and_place(pairs, geometry.capacity(), &params);
        Self {
            slots,
            geometry,
            model,
            params,
            degraded,
            writes: WriteStats::default(),
            reads: ReadStats::default(),
        }
    }

    fn train_and_place(
        pairs: &[(K, V)],
        capacity: usize,
        params: &NodeParams,
    ) -> (LinearModel, SlotArray<K, V>, bool) {
        let n = pairs.len();
        let base = LinearModel::fit(pairs.iter().enumerate().map(|(i, p)| (p.0.as_f64(), i as f64)));
        let model = if n == 0 {
            base
        } else {
            base.scaled(capacity as f64 / n as f64)
        };
        let degraded =
            n >= params.min_model_keys && model_degraded(pairs.iter().map(|p| &p.0), n, capacity, &model);
        let slots = if degraded {
            SlotArray::rebuild_uniform(pairs, capacity)
        } else {
            match params.placement {
                Placement::ModelBased => SlotArray::rebuild_model_based(pairs, capacity, &model),
                Placement::Uniform => SlotArray::rebuild_uniform(pairs, capacity),
            }
        };
        (model, slots, degraded)
    }

    /// Number of keys stored.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.slots.num_keys
    }

    /// Slot capacity (a power of two).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Current density.
    #[inline]
    pub fn density(&self) -> f64 {
        self.slots.density()
    }

    #[inline]
    fn uses_model(&self) -> bool {
        self.slots.num_keys >= self.params.min_model_keys
    }

    /// Model-predicted slot for `key`.
    #[inline]
    pub fn predict(&self, key: &K) -> usize {
        self.hint(key).0
    }

    /// Search hint for `key`, with the key comparisons spent finding
    /// it (only a degraded node's binary search spends any).
    #[inline]
    fn hint(&self, key: &K) -> (usize, u32) {
        if self.degraded {
            // Degraded model: exact binary lower bound, no model.
            let r = self.slots.binary_lower_bound(key);
            (r.pos, r.comparisons)
        } else if self.uses_model() {
            (self.model.predict_clamped(key.as_f64(), self.capacity()), 0)
        } else {
            (self.capacity() / 2, 0)
        }
    }

    /// Whether the last (re)train flagged the model as degraded and
    /// flipped this node to uniform placement + binary search.
    #[inline]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Look up `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).map(|s| &self.slots.values[s])
    }

    /// Look up `key` mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).map(|s| &mut self.slots.values[s])
    }

    /// Slot holding `key`, counted in the read stats like the gapped
    /// node's: hint probes included, no direct hits when degraded.
    #[inline]
    fn find(&self, key: &K) -> Option<usize> {
        let (hint, probes) = self.hint(key);
        let (slot, comparisons) = self.slots.find_key(key, hint);
        self.reads.record(probes + comparisons, !self.degraded && slot == Some(hint));
        slot
    }

    /// First occupied slot with key `>= key`, or `capacity()`.
    pub fn lower_bound_slot(&self, key: &K) -> usize {
        let r = self.slots.lower_bound(key, self.predict(key));
        self.slots
            .bitmap
            .next_occupied(r.pos)
            .unwrap_or(self.capacity())
    }

    /// Visit up to `limit` occupied entries starting at `slot` in key
    /// order; returns the number visited.
    pub fn scan_from_slot(&self, slot: usize, limit: usize, f: &mut impl FnMut(&K, &V)) -> usize {
        self.slots.scan_from(slot, limit, f)
    }

    /// Entry at an occupied slot.
    #[inline]
    pub(crate) fn entry_at(&self, slot: usize) -> (&K, &V) {
        debug_assert!(self.slots.is_occupied(slot));
        (&self.slots.keys[slot], &self.slots.values[slot])
    }

    /// Next occupied slot strictly after `slot`.
    #[inline]
    pub(crate) fn next_occupied_after(&self, slot: usize) -> Option<usize> {
        self.slots.bitmap.next_occupied(slot + 1)
    }

    /// First occupied slot.
    #[inline]
    pub(crate) fn first_occupied(&self) -> Option<usize> {
        self.slots.bitmap.next_occupied(0)
    }

    /// Last occupied slot.
    #[inline]
    pub(crate) fn last_occupied(&self) -> Option<usize> {
        self.slots.bitmap.prev_occupied(self.capacity().saturating_sub(1))
    }

    /// Insert with PMA density-bound logic (Algorithm 2).
    pub fn insert(&mut self, key: K, value: V) -> InsertOutcome {
        let (plan, _) = self.slots.plan_insert(&key, self.predict(&key));
        let height = self.geometry.height();
        match plan {
            InsertPlan::Duplicate(_) => InsertOutcome::Duplicate,
            InsertPlan::IntoGap { preferred } => {
                // Direct placement allowed if the target segment stays
                // within its (leaf-depth) density bound.
                let seg = self.geometry.window_at(preferred, height);
                let count = self.slots.bitmap.count_ones_in(seg.clone());
                let bound = self.params.pma_bounds.upper_at(height, height);
                if (count + 1) as f64 / seg.len() as f64 <= bound {
                    self.slots.insert_into_gap(preferred, key, value);
                    self.writes.inserts += 1;
                    return InsertOutcome::Inserted { shifts: 0 };
                }
                self.escalate_insert(preferred, key, value)
            }
            InsertPlan::NeedsShift { at } => {
                let anchor = at.min(self.capacity() - 1);
                // Local shift within the leaf segment if it has room.
                let seg = self.geometry.window_at(anchor, height);
                let count = self.slots.bitmap.count_ones_in(seg.clone());
                let bound = self.params.pma_bounds.upper_at(height, height);
                if (count + 1) as f64 / seg.len() as f64 <= bound && count < seg.len() {
                    if let Some(shifts) = self.slots.shift_insert(at, key, value.clone(), seg) {
                        self.writes.shifts += shifts;
                        self.writes.inserts += 1;
                        return InsertOutcome::Inserted { shifts };
                    }
                }
                self.escalate_insert(anchor, key, value)
            }
        }
    }

    /// Walk up the implicit tree to the smallest window that can absorb
    /// the insert, rebalance it uniformly, and place the key. Expands
    /// (doubling, model-based) when even the root window is over-dense.
    fn escalate_insert(&mut self, anchor: usize, key: K, value: V) -> InsertOutcome {
        let height = self.geometry.height();
        for depth in (0..height).rev() {
            let window = self.geometry.window_at(anchor, depth);
            let count = self.slots.bitmap.count_ones_in(window.clone());
            let bound = self.params.pma_bounds.upper_at(depth, height);
            if (count + 1) as f64 / window.len() as f64 <= bound {
                let moves = self.rebalance_with_insert(window, key, value);
                self.writes.rebalance_moves += moves;
                self.writes.inserts += 1;
                return InsertOutcome::Inserted { shifts: moves };
            }
        }
        // Root bound violated: double and re-insert model-based
        // (Algorithm 2's Expand + retry).
        self.expand();
        self.insert(key, value)
    }

    /// Uniformly respread `window`'s elements plus the new pair
    /// (classic PMA rebalance). Returns the number of elements moved.
    fn rebalance_with_insert(&mut self, window: core::ops::Range<usize>, key: K, value: V) -> u64 {
        let mut pairs: Vec<(K, V)> = Vec::with_capacity(window.len());
        for s in window.clone() {
            if self.slots.bitmap.get(s) {
                pairs.push((self.slots.keys[s], self.slots.values[s].clone()));
                self.slots.bitmap.clear(s);
            }
        }
        let pos = pairs.partition_point(|(k, _)| *k < key);
        debug_assert!(pos >= pairs.len() || pairs[pos].0 != key, "duplicate reached rebalance");
        pairs.insert(pos, (key, value));
        let stride = window.len() as f64 / pairs.len() as f64;
        debug_assert!(stride >= 1.0);
        for (i, (k, v)) in pairs.iter().enumerate() {
            let slot = window.start + ((i as f64 * stride) as usize).min(window.len() - 1);
            self.slots.keys[slot] = *k;
            self.slots.values[slot] = v.clone();
            self.slots.bitmap.set(slot);
        }
        self.slots.num_keys += 1;
        self.slots.fill_gap_keys_in(window);
        pairs.len() as u64
    }

    /// Double the capacity, retrain, and re-insert model-based.
    pub fn expand(&mut self) {
        self.rebuild(self.capacity() * 2);
        self.writes.expansions += 1;
    }

    /// Remove `key`; contracts (halving) when density drops below the
    /// lower limit.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (slot, _) = self.slots.find_key(key, self.predict(key));
        let v = self.slots.remove_at(slot?);
        self.writes.deletes += 1;
        if self.capacity() > 8 && self.density() < self.params.lower_density {
            self.rebuild(self.capacity() / 2);
            self.writes.contractions += 1;
        }
        Some(v)
    }

    fn rebuild(&mut self, min_capacity: usize) {
        let pairs = self.slots.to_pairs();
        self.geometry = Geometry::for_capacity(min_capacity.max(pairs.len() + 1).max(8));
        let (model, slots, degraded) = Self::train_and_place(&pairs, self.geometry.capacity(), &self.params);
        self.model = model;
        self.slots = slots;
        self.degraded = degraded;
        self.writes.retrains += 1;
    }

    /// All pairs in key order.
    pub fn to_pairs(&self) -> Vec<(K, V)> {
        self.slots.to_pairs()
    }

    /// |predicted − actual| for every stored key (Figure 7).
    pub fn prediction_errors(&self) -> Vec<usize> {
        let mut errs = Vec::with_capacity(self.slots.num_keys);
        let mut slot = self.slots.bitmap.next_occupied(0);
        while let Some(s) = slot {
            let predicted = self.model.predict_clamped(self.slots.keys[s].as_f64(), self.capacity());
            errs.push(predicted.abs_diff(s));
            slot = self.slots.bitmap.next_occupied(s + 1);
        }
        errs
    }

    /// Data bytes (arrays incl. gaps + bitmap).
    pub fn data_size_bytes(&self) -> usize {
        self.slots.size_bytes()
    }

    /// Write-side counters.
    pub fn write_stats(&self) -> &WriteStats {
        &self.writes
    }

    /// Read-side counters.
    pub fn read_stats(&self) -> &ReadStats {
        &self.reads
    }

    #[cfg(any(test, debug_assertions))]
    #[allow(dead_code)] // exercised by unit, integration, and property tests
    pub(crate) fn debug_assert_invariants(&self) {
        self.slots.debug_assert_invariants();
        assert!(self.capacity().is_power_of_two());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> NodeParams {
        NodeParams::default()
    }

    fn sorted_pairs(n: u64, stride: u64) -> Vec<(u64, u64)> {
        (0..n).map(|k| (k * stride, k)).collect()
    }

    #[test]
    fn bulk_load_and_get() {
        let node = PmaNode::bulk_load(&sorted_pairs(1000, 3), params());
        assert_eq!(node.num_keys(), 1000);
        assert!(node.capacity().is_power_of_two());
        for k in 0..1000u64 {
            assert_eq!(node.get(&(k * 3)), Some(&k));
        }
        assert_eq!(node.get(&1), None);
        node.debug_assert_invariants();
    }

    #[test]
    fn random_inserts() {
        let mut node: PmaNode<u64, u64> = PmaNode::empty(params());
        let mut x: u64 = 99;
        let mut keys = Vec::new();
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = x >> 20;
            if let InsertOutcome::Inserted { .. } = node.insert(k, k) {
                keys.push(k);
            }
        }
        assert_eq!(node.num_keys(), keys.len());
        for &k in &keys {
            assert_eq!(node.get(&k), Some(&k), "missing {k}");
        }
        node.debug_assert_invariants();
    }

    #[test]
    fn sequential_inserts_trigger_rebalances_not_huge_shifts() {
        let mut node: PmaNode<u64, u64> = PmaNode::empty(params());
        for k in 0..4000u64 {
            node.insert(k, k);
        }
        assert_eq!(node.num_keys(), 4000);
        let w = node.write_stats();
        assert!(w.rebalance_moves > 0, "sequential inserts must trigger rebalances");
        // The PMA's point: per-insert shift work stays bounded. With a
        // gapped array this pattern produces O(n) single-insert shifts.
        assert!(
            w.shifts_per_insert() < 3.0,
            "local shifts per insert should be small, got {}",
            w.shifts_per_insert()
        );
        for k in (0..4000u64).step_by(131) {
            assert_eq!(node.get(&k), Some(&k));
        }
        node.debug_assert_invariants();
    }

    #[test]
    fn duplicate_rejected() {
        let mut node = PmaNode::bulk_load(&sorted_pairs(100, 2), params());
        assert_eq!(node.insert(10, 0), InsertOutcome::Duplicate);
        assert_eq!(node.num_keys(), 100);
    }

    #[test]
    fn expansion_doubles() {
        let mut node: PmaNode<u64, u64> = PmaNode::empty(params());
        let caps: Vec<usize> = (0..2000u64)
            .map(|k| {
                node.insert(k * 7 % 65_536, k);
                node.capacity()
            })
            .collect();
        for w in caps.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] * 2, "capacity must double: {} -> {}", w[0], w[1]);
        }
        assert!(node.write_stats().expansions > 0);
    }

    #[test]
    fn remove_and_contract() {
        let mut node = PmaNode::bulk_load(&sorted_pairs(2048, 1), params());
        let cap = node.capacity();
        for k in 0..1900u64 {
            assert_eq!(node.remove(&k), Some(k), "remove {k}");
        }
        assert!(node.capacity() < cap, "should contract after mass deletes");
        for k in 1900..2048u64 {
            assert_eq!(node.get(&k), Some(&k));
        }
        node.debug_assert_invariants();
    }

    #[test]
    fn interleaved_insert_remove() {
        let mut node: PmaNode<u64, u64> = PmaNode::empty(params());
        for k in 0..1000u64 {
            node.insert(k * 2, k);
        }
        for k in 0..500u64 {
            assert!(node.remove(&(k * 4)).is_some());
        }
        for k in 0..500u64 {
            node.insert(k * 4 + 1, k);
        }
        assert_eq!(node.num_keys(), 1000);
        node.debug_assert_invariants();
    }

    #[test]
    fn prediction_errors_low_after_bulk_load() {
        let node = PmaNode::bulk_load(&sorted_pairs(2000, 5), params());
        let errs = node.prediction_errors();
        let zero = errs.iter().filter(|&&e| e == 0).count();
        assert!(
            zero as f64 > 0.9 * errs.len() as f64,
            "linear data should be mostly direct hits, got {zero}/{}",
            errs.len()
        );
    }

    #[test]
    fn lower_bound_slot_scan_entry() {
        let node = PmaNode::bulk_load(&sorted_pairs(100, 10), params());
        let slot = node.lower_bound_slot(&55);
        assert_eq!(*node.entry_at(slot).0, 60);
    }
}
