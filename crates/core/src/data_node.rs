//! The data node (§3.3): a leaf that keeps its keys in a gapped slot
//! array, places each key at the slot its linear model predicts
//! (*model-based inserts*, leaving the gaps where the model expects
//! future keys), and finds it again by searching from the predicted
//! slot. "ALEX can be configured to run with either node layout"; the
//! two layouts share all of that and differ only in how an insert
//! makes room:
//!
//! - **Gapped Array** (§3.3.1, Algorithm 1): an insert shifts to the
//!   nearest gap. When density would cross the upper limit `d` the
//!   node expands by `1/d` (bringing density back to `d²`), retrains,
//!   and re-inserts every key model-based (Algorithm 3).
//! - **Packed Memory Array** (§3.3.2, Algorithm 2): the PMA's
//!   implicit-tree density bounds govern where an insert may land. A
//!   violated segment bound uniformly rebalances the smallest window
//!   that can absorb the insert (classic PMA behaviour); a violated
//!   root bound doubles the node and re-inserts **model-based** —
//!   ALEX's twist ("ALEX uses model-based inserts after every PMA
//!   expansion"). Capacity stays a power of two.
//!
//! A node whose model cannot place its keys *degrades* to uniform
//! placement and exact binary-search hints: at any (re)train when the
//! model cannot separate the keys (`model_degraded`), and — gapped
//! layout only — at a rebuild brought on by writes (expansion or
//! contraction) when model-based placement would pack the keys into
//! runs whose expected shifts per insert exceed log2(capacity), the
//! probe count of the binary search. One line over a step-shaped CDF
//! piles most of a leaf into a single run that every insert shifts
//! through. Every rebuild decides afresh, so a node goes back to its
//! model once it fits.

use crate::config::{NodeLayout, NodeParams, Placement};
use crate::key::AlexKey;
use crate::model::LinearModel;
use crate::pma_layout::{upper_density_at, Geometry};
use crate::slots::{model_based_shifts_per_insert, InsertPlan, SlotArray};
use crate::stats::{ReadStats, WriteStats};

/// Outcome of a data-node insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Inserted; `shifts` elements were moved to make room.
    Inserted { shifts: u64 },
    /// The key was already present; nothing changed.
    Duplicate,
}

/// A leaf data node in either layout of §3.3.
#[derive(Debug, Clone)]
pub struct DataNode<K, V> {
    slots: SlotArray<K, V>,
    /// The node's linear model, mapping keys to slots.
    pub(crate) model: LinearModel,
    params: NodeParams,
    /// The PMA's implicit window tree over the slots: `Some` exactly
    /// for the PMA layout.
    pma: Option<Geometry>,
    /// Degradation guard, set at (re)train time when the model's
    /// `as_f64` projection cannot separate this node's keys (shared
    /// string prefixes, dense integers past 2⁵³) or, at a gapped
    /// rebuild brought on by writes, when model-based placement would
    /// pack the keys into runs that cost more shifts per insert than
    /// log2(capacity). A degraded node places uniformly and answers
    /// [`DataNode::predict`] with an exact binary lower bound, so
    /// inserts never pile into the few predicted slots and lookups
    /// stay O(log capacity). Re-evaluated at every retrain, so the
    /// node recovers as soon as its model fits again.
    degraded: bool,
    writes: WriteStats,
    reads: ReadStats,
}

/// Minimum slot capacity of any node.
const MIN_CAPACITY: usize = 8;

/// Density below which a node contracts after deletes (in either
/// layout).
const LOWER_DENSITY: f64 = 0.25;

/// Below this many keys a node skips its model and binary-searches
/// ("cold start", §3.3.3).
const MIN_MODEL_KEYS: usize = 24;

/// Degraded when fewer than `1/COLLAPSE_FACTOR` of a node's keys have
/// distinct projections…
const DEGRADE_COLLAPSE_FACTOR: usize = 4;
/// …or when the fit's mean absolute slot error exceeds this fraction
/// of the capacity (the model is noise even if the projection is
/// injective).
const DEGRADE_ERROR_FRACTION: f64 = 0.125;

/// The degradation detector of every (re)train: one pass over the
/// sorted keys counting distinct projections and summing
/// |predicted − uniform target| per key. Either criterion alone flips
/// the node — a collapsed projection (ties) even when the fit looks
/// plausible, and a garbage fit even when the projection is injective.
/// A gapped node rebuilt by writes has a second trigger, the packing
/// estimate in `train_and_place`: a fit can pass both criteria here
/// and still pile most keys into one run.
fn model_degraded<'a, K: AlexKey + 'a>(
    keys: impl Iterator<Item = &'a K>,
    n: usize,
    capacity: usize,
    model: &LinearModel,
) -> bool {
    if n == 0 {
        return false;
    }
    let mut distinct = 0usize;
    let mut prev: Option<f64> = None;
    let mut err_sum = 0u64;
    for (i, key) in keys.enumerate() {
        let x = key.as_f64();
        if prev.is_none_or(|p| p < x) {
            distinct += 1;
        }
        prev = Some(x);
        let target = i * capacity / n;
        err_sum += model.predict_clamped(x, capacity).abs_diff(target) as u64;
    }
    distinct * DEGRADE_COLLAPSE_FACTOR < n
        || err_sum as f64 > DEGRADE_ERROR_FRACTION * capacity as f64 * n as f64
}

impl<K: AlexKey, V: Clone + Default> DataNode<K, V> {
    /// An empty node of the given layout ("cold start", §3.3.3):
    /// `MIN_CAPACITY` gaps and an untrained model.
    pub fn empty(layout: NodeLayout, params: NodeParams) -> Self {
        Self::bulk_load(&[], layout, params)
    }

    /// Bulk-load sorted pairs into a node of the given layout: allocate
    /// `n / d²` slots (§3.3.1: expansion factor `c = 1/d²`; the PMA
    /// rounds up to a power of two), train the model, and model-based
    /// insert every key.
    pub fn bulk_load(pairs: &[(K, V)], layout: NodeLayout, params: NodeParams) -> Self {
        let capacity = Self::capacity_for(pairs.len(), &params);
        let pma = (layout == NodeLayout::Pma).then(|| Geometry::for_capacity(capacity));
        let capacity = pma.map_or(capacity, |g| g.capacity());
        let (model, slots, degraded) = Self::train_and_place(pairs, capacity, &params, false);
        Self {
            slots,
            model,
            params,
            pma,
            degraded,
            writes: WriteStats::default(),
            reads: ReadStats::default(),
        }
    }

    /// Slots that hold `n` keys at the bulk-load density.
    fn capacity_for(n: usize, params: &NodeParams) -> usize {
        ((n as f64 / params.init_density).ceil() as usize).max(MIN_CAPACITY)
    }

    /// Train the model over `capacity` slots, decide whether the node
    /// degrades, and place the keys. `packing_check` marks a gapped
    /// rebuild brought on by inserts or deletes; only those also
    /// degrade when model-based placement would pack the keys so
    /// densely that the expected shifts per insert exceed
    /// log2(capacity), the probe count of the binary search that
    /// replaces the model. Bulk load keeps its model: it has no writes
    /// to shift yet, and on large leaves an exponential search from
    /// the model's hint touches fewer cache lines than a binary search.
    fn train_and_place(
        pairs: &[(K, V)],
        capacity: usize,
        params: &NodeParams,
        packing_check: bool,
    ) -> (LinearModel, SlotArray<K, V>, bool) {
        let n = pairs.len();
        let base = LinearModel::fit(pairs.iter().enumerate().map(|(i, p)| (p.0.as_f64(), i as f64)));
        let model = if n == 0 {
            base
        } else {
            base.scaled(capacity as f64 / n as f64)
        };
        let keys = || pairs.iter().map(|p| &p.0);
        let packs = || model_based_shifts_per_insert(keys(), capacity, &model) > (capacity as f64).log2();
        let degraded = n >= MIN_MODEL_KEYS
            && (model_degraded(keys(), n, capacity, &model)
                || (packing_check && params.placement == Placement::ModelBased && packs()));
        let slots = if degraded {
            // Model placement would pile keys into the few predicted
            // slots; uniform spacing keeps the gaps spread for the
            // binary-search insert path.
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

    /// Slot capacity (a power of two in the PMA layout).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Current density (`num_keys / capacity`).
    #[inline]
    fn density(&self) -> f64 {
        self.slots.density()
    }

    /// Whether the node models lookups (below the threshold it binary
    /// searches, §3.3.3).
    #[inline]
    fn uses_model(&self) -> bool {
        self.slots.num_keys >= MIN_MODEL_KEYS
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
            // Degraded model: the hint is an exact binary lower bound
            // over the gap-filled keys — O(log capacity), no model.
            let r = self.slots.binary_lower_bound(key);
            (r.pos, r.comparisons)
        } else if self.uses_model() {
            (self.model.predict_clamped(key.as_f64(), self.capacity()), 0)
        } else {
            // Cold start: binary search (hint = middle is equivalent).
            (self.capacity() / 2, 0)
        }
    }

    /// Whether the last (re)train flagged this node's model as
    /// degraded (uniform placement + binary-search hints): the key
    /// projection collapsed or the fit is noise, or — for a gapped node
    /// rebuilt by writes — model-based placement would have packed the
    /// keys into runs costing more shifts per insert than
    /// log2(capacity).
    #[inline]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Look up `key`, counted in the read stats.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).map(|s| &self.slots.values[s])
    }

    /// Look up `key` without counting a read: the presence probe of a
    /// write, which must not make a write-hot leaf look read-hot.
    #[inline]
    pub(crate) fn peek(&self, key: &K) -> Option<&V> {
        self.slot_of(key).map(|s| &self.slots.values[s])
    }

    /// Look up `key` mutably. Only writes take a payload mutably, so
    /// this is not counted as a read either.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.slot_of(key).map(|s| &mut self.slots.values[s])
    }

    /// Slot holding `key`, counted in the read stats: the hint's own
    /// probes are comparisons too, and a degraded node never scores a
    /// direct hit (its hint is the exact lower bound, not a model
    /// prediction).
    ///
    /// Every `get`, `contains_key` and `get_many` key in both regimes
    /// reads through here. Before the search compares anything, it
    /// prefetches the payload and the bitmap word at the hint and the
    /// key lines one probe block to either side
    /// (`SlotArray::prefetch_read`). A hit reads all three arrays, and
    /// their addresses are known once the hint is, so their DRAM
    /// misses overlap instead of running one after another.
    #[inline]
    fn find(&self, key: &K) -> Option<usize> {
        let (hint, probes) = self.hint(key);
        self.slots.prefetch_read(hint);
        let (slot, comparisons) = self.slots.find_key(key, hint);
        self.reads.record(probes + comparisons, !self.degraded && slot == Some(hint));
        slot
    }

    /// Slot holding `key`, uncounted: the search of every write.
    #[inline]
    fn slot_of(&self, key: &K) -> Option<usize> {
        self.slots.find_key(key, self.predict(key)).0
    }

    /// First occupied slot with key `>= key` (for range scans), or
    /// `capacity()` if none. Prefetches at the hint first, as
    /// [`DataNode::get`] does: the scan goes on to read the bitmap
    /// and the payloads from there.
    #[inline]
    pub fn lower_bound_slot(&self, key: &K) -> usize {
        let hint = self.predict(key);
        self.slots.prefetch_read(hint);
        let r = self.slots.lower_bound(key, hint);
        self.slots
            .bitmap
            .next_occupied(r.pos)
            .unwrap_or(self.capacity())
    }

    /// Visit up to `limit` occupied entries starting at `slot` in key
    /// order; returns the number visited.
    #[inline]
    pub fn scan_from_slot(&self, slot: usize, limit: usize, f: &mut impl FnMut(&K, &V)) -> usize {
        let mut visited = 0usize;
        for (k, v) in self.entries_from(slot).take(limit) {
            f(k, v);
            visited += 1;
        }
        visited
    }

    /// Occupied entries from `slot` on, in key order, word-at-a-time
    /// over the bitmap.
    #[inline]
    pub fn entries_from(&self, slot: usize) -> impl Iterator<Item = (&K, &V)> {
        let slots = &self.slots;
        slots.bitmap.ones_from(slot).map(move |s| (&slots.keys[s], &slots.values[s]))
    }

    /// Entry at an occupied slot.
    #[inline]
    pub fn entry_at(&self, slot: usize) -> (&K, &V) {
        debug_assert!(self.slots.is_occupied(slot));
        (&self.slots.keys[slot], &self.slots.values[slot])
    }

    /// Next occupied slot strictly after `slot`.
    #[inline]
    pub fn next_occupied_after(&self, slot: usize) -> Option<usize> {
        self.slots.bitmap.next_occupied(slot + 1)
    }

    /// First occupied slot, if any.
    #[inline]
    pub fn first_occupied(&self) -> Option<usize> {
        self.slots.bitmap.next_occupied(0)
    }

    /// Last occupied slot, if any.
    #[inline]
    pub fn last_occupied(&self) -> Option<usize> {
        self.slots.bitmap.prev_occupied(self.capacity().saturating_sub(1))
    }

    /// Largest stored key, if any.
    #[inline]
    pub fn max_key(&self) -> Option<&K> {
        self.last_occupied().map(|s| self.entry_at(s).0)
    }

    /// Insert a pair: Algorithm 1 in the gapped layout, Algorithm 2 in
    /// the PMA layout.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> InsertOutcome {
        match self.pma {
            Some(geometry) => self.insert_pma(geometry, key, value),
            None => self.insert_gapped(key, value),
        }
    }

    /// Gapped-array insert, expanding first if the insert would cross
    /// the upper density limit `d` (Algorithm 1).
    fn insert_gapped(&mut self, key: K, value: V) -> InsertOutcome {
        if (self.slots.num_keys + 1) as f64 / self.capacity() as f64 > self.params.upper_density() {
            self.expand();
        }
        let (plan, _) = self.slots.plan_insert(&key, self.predict(&key));
        let outcome = match plan {
            InsertPlan::Duplicate(_) => return InsertOutcome::Duplicate,
            InsertPlan::IntoGap { preferred } => {
                self.slots.insert_into_gap(preferred, key, value);
                InsertOutcome::Inserted { shifts: 0 }
            }
            InsertPlan::NeedsShift { at } => {
                let cap = self.capacity();
                let shifts = self
                    .slots
                    .shift_insert(at, key, value, 0..cap)
                    .expect("density limit guarantees a free slot");
                self.writes.shifts += shifts;
                InsertOutcome::Inserted { shifts }
            }
        };
        self.writes.inserts += 1;
        outcome
    }

    /// PMA insert with density-bound logic (Algorithm 2).
    fn insert_pma(&mut self, geometry: Geometry, key: K, value: V) -> InsertOutcome {
        let (plan, _) = self.slots.plan_insert(&key, self.predict(&key));
        let height = geometry.height();
        match plan {
            InsertPlan::Duplicate(_) => InsertOutcome::Duplicate,
            InsertPlan::IntoGap { preferred } => {
                // Direct placement allowed if the target segment stays
                // within its (leaf-depth) density bound.
                let seg = geometry.window_at(preferred, height);
                let count = self.slots.bitmap.count_ones_in(seg.clone());
                let bound = upper_density_at(height, height);
                if (count + 1) as f64 / seg.len() as f64 <= bound {
                    self.slots.insert_into_gap(preferred, key, value);
                    self.writes.inserts += 1;
                    return InsertOutcome::Inserted { shifts: 0 };
                }
                self.escalate_insert(geometry, preferred, key, value)
            }
            InsertPlan::NeedsShift { at } => {
                let anchor = at.min(self.capacity() - 1);
                // Local shift within the leaf segment if it has room.
                let seg = geometry.window_at(anchor, height);
                let count = self.slots.bitmap.count_ones_in(seg.clone());
                let bound = upper_density_at(height, height);
                if (count + 1) as f64 / seg.len() as f64 <= bound && count < seg.len() {
                    if let Some(shifts) = self.slots.shift_insert(at, key, value.clone(), seg) {
                        self.writes.shifts += shifts;
                        self.writes.inserts += 1;
                        return InsertOutcome::Inserted { shifts };
                    }
                }
                self.escalate_insert(geometry, anchor, key, value)
            }
        }
    }

    /// Walk up the implicit tree to the smallest window that can absorb
    /// the insert, rebalance it uniformly, and place the key. Expands
    /// (doubling, model-based) when even the root window is over-dense.
    fn escalate_insert(&mut self, geometry: Geometry, anchor: usize, key: K, value: V) -> InsertOutcome {
        let height = geometry.height();
        for depth in (0..height).rev() {
            let window = geometry.window_at(anchor, depth);
            let count = self.slots.bitmap.count_ones_in(window.clone());
            let bound = upper_density_at(depth, height);
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

    /// Remove `key`, returning its value. The slot becomes a gap; the
    /// node contracts when density falls below the lower limit.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let v = self.slots.remove_at(self.slot_of(key)?);
        self.writes.deletes += 1;
        if self.capacity() > MIN_CAPACITY && self.density() < LOWER_DENSITY {
            self.contract();
        }
        Some(v)
    }

    /// Grow and re-insert model-based (Algorithm 3): by `1/d` in the
    /// gapped layout, doubling in the PMA layout.
    fn expand(&mut self) {
        let capacity = match self.pma {
            Some(_) => self.capacity() * 2,
            None => ((self.capacity() as f64 / self.params.upper_density()).ceil() as usize)
                .max(self.slots.num_keys + 1)
                .max(MIN_CAPACITY),
        };
        self.rebuild(capacity);
        self.writes.expansions += 1;
    }

    /// Shrink after deletes: back to the bulk-load density in the
    /// gapped layout, halving in the PMA layout.
    fn contract(&mut self) {
        let capacity = match self.pma {
            Some(_) => self.capacity() / 2,
            None => Self::capacity_for(self.slots.num_keys, &self.params),
        };
        if capacity < self.capacity() {
            self.rebuild(capacity);
            self.writes.contractions += 1;
        }
    }

    /// Retrain over `capacity` slots and re-place every key. The PMA
    /// layout rounds up to a power of two with room for one more key;
    /// only the gapped layout runs the packing check.
    fn rebuild(&mut self, capacity: usize) {
        let pairs = self.slots.to_pairs();
        let capacity = match &mut self.pma {
            Some(geometry) => {
                *geometry = Geometry::for_capacity(capacity.max(pairs.len() + 1));
                geometry.capacity()
            }
            None => capacity,
        };
        let (model, slots, degraded) = Self::train_and_place(&pairs, capacity, &self.params, self.pma.is_none());
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
        if let Some(geometry) = self.pma {
            assert!(self.capacity().is_power_of_two());
            assert_eq!(geometry.capacity(), self.capacity());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::PROBE_BLOCK;
    use alex_api::FixedStr;

    fn params() -> NodeParams {
        NodeParams::default()
    }

    fn sorted_pairs(n: u64, stride: u64) -> Vec<(u64, u64)> {
        (0..n).map(|k| (k * stride, k)).collect()
    }

    #[test]
    fn both_layouts_roundtrip() {
        let pairs: Vec<(u64, u64)> = (0..500).map(|k| (k * 2, k)).collect();
        for layout in [NodeLayout::Gapped, NodeLayout::Pma] {
            let mut node = DataNode::bulk_load(&pairs, layout, NodeParams::default());
            assert_eq!(node.num_keys(), 500);
            assert_eq!(node.get(&100), Some(&50));
            assert_eq!(node.insert(1001, 7), InsertOutcome::Inserted { shifts: 0 });
            assert_eq!(node.get(&1001), Some(&7));
            assert_eq!(node.remove(&1001), Some(7));
            assert_eq!(node.to_pairs(), pairs);
        }
    }

    #[test]
    fn degraded_lookups_count_probes_and_no_direct_hits() {
        // Dense keys past 2^53 collapse the projection, so both layouts
        // degrade at bulk load and hint with an exact binary search.
        let base = u64::MAX - 1_000_000;
        let pairs: Vec<(u64, u64)> = (0..4096).map(|i| (base + 2 * i, i)).collect();
        for layout in [NodeLayout::Gapped, NodeLayout::Pma] {
            let node = DataNode::bulk_load(&pairs, layout, NodeParams::default());
            assert!(node.is_degraded());
            for (k, v) in &pairs {
                assert_eq!(node.get(k), Some(v));
            }
            let stats = node.read_stats();
            assert_eq!(stats.lookups(), pairs.len() as u64);
            assert_eq!(stats.direct_hits(), 0, "{layout:?}: an exact hint is no direct hit");
            let min = u64::from(node.capacity().ilog2()) * stats.lookups();
            assert!(
                stats.comparisons() >= min,
                "{layout:?}: {} comparisons, want at least log2(capacity) per lookup ({min})",
                stats.comparisons()
            );
        }
    }

    /// `get` and `lower_bound_slot` answer every stored key and every
    /// probe as the sorted `pairs` say, in both layouts. Returns the
    /// nodes so callers can check which hints the probes took.
    fn assert_reads_match<K: AlexKey + core::fmt::Debug>(
        pairs: &[(K, u64)],
        probes: &[K],
    ) -> Vec<DataNode<K, u64>> {
        let mut nodes = Vec::new();
        for layout in [NodeLayout::Gapped, NodeLayout::Pma] {
            let node = DataNode::bulk_load(pairs, layout, params());
            for (k, v) in pairs {
                assert_eq!(node.get(k), Some(v), "{layout:?} get {k:?}");
                let slot = node.lower_bound_slot(k);
                assert_eq!(node.entry_at(slot).0, k, "{layout:?} lower bound {k:?}");
            }
            for probe in probes {
                let stored = pairs.iter().find(|(k, _)| k == probe).map(|(_, v)| v);
                assert_eq!(node.get(probe), stored, "{layout:?} get {probe:?}");
                let slot = node.lower_bound_slot(probe);
                let found = (slot < node.capacity()).then(|| node.entry_at(slot).0);
                let next = pairs.iter().map(|(k, _)| k).find(|&k| k >= probe);
                assert_eq!(found, next, "{layout:?} lower bound {probe:?}");
            }
            nodes.push(node);
        }
        nodes
    }

    /// A 32-byte key whose first eight bytes are `i` big-endian, so
    /// the model projects it onto `i` itself.
    fn wide(i: u64) -> FixedStr<32> {
        FixedStr::from_bytes(&i.to_be_bytes())
    }

    #[test]
    fn reads_answer_alike_where_the_prefetch_runs_off_the_array() {
        // Model nodes: a probe below the first key predicts slot 0 and
        // one above the last predicts `capacity - 1`, so `hint ±
        // PROBE_BLOCK` runs off one end or the other. With 32-byte
        // string keys the far key lines are four cache lines out.
        let ints: Vec<(u64, u64)> = (0..500).map(|i| (1000 + 3 * i, i)).collect();
        let strs: Vec<(FixedStr<32>, u64)> = (0..500).map(|i| (wide(1000 + 3 * i), i)).collect();
        for node in assert_reads_match(&ints, &[0, 1001, 2498, 2500, 1_000_000]) {
            assert!(!node.is_degraded());
            assert_eq!(node.predict(&0), 0);
            assert_eq!(node.predict(&1_000_000), node.capacity() - 1);
        }
        let probes = [wide(0), wide(1001), wide(2500), wide(99_999_999)];
        for node in assert_reads_match(&strs, &probes) {
            assert!(!node.is_degraded());
            assert_eq!(node.predict(&wide(0)), 0);
            assert_eq!(node.predict(&wide(99_999_999)), node.capacity() - 1);
        }
    }

    #[test]
    fn reads_answer_alike_on_cold_start_and_degraded_nodes() {
        // Cold start (fewer than MIN_MODEL_KEYS): the hint is the
        // middle slot of a node smaller than two probe blocks, so both
        // far key lines fall outside it.
        let ints: Vec<(u64, u64)> = (0..5).map(|i| (10 * i + 10, i)).collect();
        let strs: Vec<(FixedStr<32>, u64)> = (0..5).map(|i| (wide(10 * i + 10), i)).collect();
        for node in assert_reads_match(&ints, &[0, 15, 50, 51]) {
            assert!(node.capacity() < 2 * PROBE_BLOCK);
            assert_eq!(node.predict(&0), node.capacity() / 2);
        }
        for node in assert_reads_match(&strs, &[wide(0), wide(15), wide(51)]) {
            assert!(node.capacity() < 2 * PROBE_BLOCK);
            assert_eq!(node.predict(&wide(0)), node.capacity() / 2);
        }
        // Degraded: the hint is the exact lower bound, slot 0 below the
        // first key and the first trailing gap past the last.
        let base = u64::MAX - 1_000_000;
        let ints: Vec<(u64, u64)> = (0..4096).map(|i| (base + 2 * i, i)).collect();
        let strs: Vec<(FixedStr<32>, u64)> = (0..2000)
            .map(|i| (FixedStr::from(format!("https://example.com/{i:08}").as_str()), i))
            .collect();
        for node in assert_reads_match(&ints, &[0, base + 1, base + 8190, base + 8191]) {
            assert!(node.is_degraded());
            assert_eq!(node.predict(&0), 0);
            assert!(node.predict(&(base + 8191)) + PROBE_BLOCK > node.capacity());
        }
        let past = FixedStr::from("https://example.com/99999999");
        let probes = [FixedStr::from("a"), FixedStr::from("https://example.com/00000500x"), past];
        for node in assert_reads_match(&strs, &probes) {
            assert!(node.is_degraded());
            assert_eq!(node.predict(&FixedStr::from("a")), 0);
            assert!(node.predict(&past) + PROBE_BLOCK > node.capacity());
        }
    }

    #[test]
    fn empty_nodes() {
        for layout in [NodeLayout::Gapped, NodeLayout::Pma] {
            let node: DataNode<u64, u64> = DataNode::empty(layout, NodeParams::default());
            assert_eq!(node.num_keys(), 0);
            assert_eq!(node.first_occupied(), None);
        }
    }

    /// The gapped-array layout (Algorithm 1).
    mod gapped {
        use super::*;

        fn bulk_load<K: AlexKey>(pairs: &[(K, u64)]) -> DataNode<K, u64> {
            DataNode::bulk_load(pairs, NodeLayout::Gapped, params())
        }

        fn empty() -> DataNode<u64, u64> {
            DataNode::empty(NodeLayout::Gapped, params())
        }

        #[test]
        fn bulk_load_and_get() {
            let node = bulk_load(&sorted_pairs(1000, 3));
            assert_eq!(node.num_keys(), 1000);
            for k in 0..1000u64 {
                assert_eq!(node.get(&(k * 3)), Some(&k));
            }
            assert_eq!(node.get(&1), None);
            node.debug_assert_invariants();
        }

        #[test]
        fn bulk_load_density_matches_config() {
            let node = bulk_load(&sorted_pairs(1000, 1));
            let d = node.density();
            assert!(
                (d - params().init_density).abs() < 0.05,
                "density {d} should be near {}",
                params().init_density
            );
        }

        #[test]
        fn model_based_load_gives_direct_hits_on_linear_data() {
            let node = bulk_load(&sorted_pairs(1000, 7));
            let errs = node.prediction_errors();
            let zero = errs.iter().filter(|&&e| e == 0).count();
            assert!(
                zero as f64 > 0.9 * errs.len() as f64,
                "expected mostly direct hits on linear data, got {zero}/{}",
                errs.len()
            );
        }

        #[test]
        fn empty_node_cold_start() {
            let mut node = empty();
            assert_eq!(node.num_keys(), 0);
            assert_eq!(node.get(&5), None);
            for k in [5u64, 3, 9, 1, 7] {
                assert!(matches!(node.insert(k, k), InsertOutcome::Inserted { .. }));
            }
            // Below MIN_MODEL_KEYS the node still answers correctly.
            for k in [1u64, 3, 5, 7, 9] {
                assert_eq!(node.get(&k), Some(&k));
            }
            node.debug_assert_invariants();
        }

        #[test]
        fn inserts_trigger_expansion() {
            let mut node = empty();
            for k in 0..5000u64 {
                node.insert(k.wrapping_mul(2654435761) % 100_000, k);
            }
            assert!(node.write_stats().expansions > 0);
            assert!(node.density() <= node.params.upper_density() + 1e-9);
            node.debug_assert_invariants();
        }

        #[test]
        fn insert_then_get_random_order() {
            let mut node = empty();
            let mut x: u64 = 12345;
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
        fn duplicate_insert_rejected() {
            let mut node = bulk_load(&sorted_pairs(100, 1));
            assert_eq!(node.insert(50, 999), InsertOutcome::Duplicate);
            assert_eq!(node.get(&50), Some(&50));
            assert_eq!(node.num_keys(), 100);
        }

        #[test]
        fn remove_and_contract() {
            let mut node = bulk_load(&sorted_pairs(1000, 1));
            let cap_before = node.capacity();
            for k in 0..900u64 {
                assert_eq!(node.remove(&k), Some(k));
            }
            assert_eq!(node.num_keys(), 100);
            assert!(node.capacity() < cap_before, "node should contract");
            for k in 900..1000u64 {
                assert_eq!(node.get(&k), Some(&k));
            }
            assert_eq!(node.remove(&5), None);
            node.debug_assert_invariants();
        }

        #[test]
        fn mixed_insert_delete_cycle() {
            let mut node = empty();
            for round in 0..5u64 {
                for k in 0..500u64 {
                    node.insert(k * 10 + round, k);
                }
                for k in 0..250u64 {
                    assert!(node.remove(&(k * 10 + round)).is_some());
                }
                node.debug_assert_invariants();
            }
            // 5 rounds x 250 survivors.
            assert_eq!(node.num_keys(), 1250);
        }

        #[test]
        fn get_mut_writes_payload() {
            let mut node = bulk_load(&sorted_pairs(100, 2));
            *node.get_mut(&10).unwrap() = 777;
            assert_eq!(node.get(&10), Some(&777));
        }

        #[test]
        fn lower_bound_slot_for_scans() {
            let node = bulk_load(&sorted_pairs(100, 10));
            let slot = node.lower_bound_slot(&55);
            let (k, _) = node.entry_at(slot);
            assert_eq!(*k, 60, "first key >= 55 is 60");
            // Past the end.
            assert_eq!(node.lower_bound_slot(&100_000), node.capacity());
        }

        #[test]
        fn read_stats_count_direct_hits() {
            let node = bulk_load(&sorted_pairs(1000, 5));
            for k in 0..1000u64 {
                node.get(&(k * 5));
            }
            let stats = node.read_stats();
            assert_eq!(stats.lookups(), 1000);
            assert!(
                stats.direct_hits() > 800,
                "linear data should be mostly direct hits, got {}",
                stats.direct_hits()
            );
        }

        #[test]
        fn linear_data_does_not_degrade() {
            let node = bulk_load(&sorted_pairs(2000, 7));
            assert!(!node.is_degraded(), "separable keys must keep the model");
        }

        #[test]
        fn linear_keys_stay_model_placed_across_expansions() {
            // The packing trigger must not fire where the model fits: a
            // linear key set that fills in through several expansions keeps
            // model-based placement and its direct hits.
            let mut node = bulk_load(&sorted_pairs(2000, 8));
            let fill: Vec<u64> = (0..8000u64).map(|k| 2 * k).filter(|k| k % 8 != 0).collect();
            for i in 0..fill.len() {
                let k = fill[i * 2503 % fill.len()];
                assert!(matches!(node.insert(k, k), InsertOutcome::Inserted { .. }));
            }
            assert_eq!(node.num_keys(), 8000);
            assert!(node.write_stats().expansions >= 3, "expansions {}", node.write_stats().expansions);
            assert!(!node.is_degraded(), "a model that fits must keep model-based placement");
            let errs = node.prediction_errors();
            let direct = errs.iter().filter(|&&e| e == 0).count();
            assert!(
                direct * 5 >= errs.len() * 4,
                "expected at least 80% direct hits, got {direct}/{}",
                errs.len()
            );
            node.debug_assert_invariants();
        }

        #[test]
        fn packed_model_layout_degrades_on_expansion() {
            // A step CDF: two dense clusters far apart. One line through
            // both predicts most of each cluster into a few slots, so
            // model-based placement packs each cluster into one run. Bulk
            // load keeps the model; the first expansion sees the packing
            // and degrades to uniform placement.
            let mut keys: Vec<u64> = (0..1000u64).map(|k| k * 4).collect();
            keys.extend((0..1000u64).map(|k| (1 << 40) + k * 4));
            let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
            let mut node = bulk_load(&pairs);
            assert!(!node.is_degraded(), "bulk load keeps its model");
            let mut i = 0u64;
            while node.write_stats().expansions == 0 {
                let k = keys[(i * 997 % 2000) as usize] + 2;
                assert!(matches!(node.insert(k, k), InsertOutcome::Inserted { .. }));
                i += 1;
            }
            assert!(node.is_degraded(), "a packed layout must degrade on expansion");
            let before = *node.write_stats();
            for j in 0..200u64 {
                let k = keys[(j * 1009 % 2000) as usize] + 1;
                assert!(matches!(node.insert(k, k), InsertOutcome::Inserted { .. }));
            }
            let after = node.write_stats();
            let shifts = (after.shifts - before.shifts) as f64 / (after.inserts - before.inserts) as f64;
            assert!(shifts < 4.0, "uniform gaps must absorb inserts, got {shifts} shifts/insert");
            for &k in keys.iter().step_by(37) {
                assert_eq!(node.get(&k), Some(&k));
            }
            node.debug_assert_invariants();
        }

        #[test]
        fn dense_keys_past_2_53_degrade_to_binary_search() {
            // Near 2^63 the `as f64` projection quantizes to multiples of
            // 2^11, collapsing runs of ~2048 consecutive keys onto one
            // value. The guard must flip the node to uniform placement +
            // binary search rather than let placement pile up.
            let base = u64::MAX - 1_000_000;
            let pairs: Vec<(u64, u64)> = (0..4096).map(|i| (base + 2 * i, i)).collect();
            let mut node = bulk_load(&pairs);
            assert!(node.is_degraded(), "collapsed projection must degrade the node");
            for (k, v) in pairs.iter().step_by(97) {
                assert_eq!(node.get(k), Some(v), "key {k}");
            }
            // Fresh inserts interleaved among the loaded keys stay correct
            // and cheap: with a model the whole 2048-wide projection run
            // shares one predicted slot (a shift storm); with the guard the
            // binary hint is exact and uniform gaps are nearby.
            for i in 0..2000u64 {
                assert!(matches!(
                    node.insert(base + 2 * ((i * 37) % 4096) + 1, i),
                    InsertOutcome::Inserted { .. }
                ));
            }
            assert!(
                node.write_stats().shifts_per_insert() < 16.0,
                "degraded placement must not shift-storm, got {}",
                node.write_stats().shifts_per_insert()
            );
            for i in (0..2000u64).step_by(61) {
                assert_eq!(node.get(&(base + 2 * ((i * 37) % 4096) + 1)), Some(&i));
            }
            node.debug_assert_invariants();
        }

        #[test]
        fn shared_prefix_strings_degrade_to_binary_search() {
            use alex_api::FixedStr;
            // Every key shares a >8-byte prefix, so `prefix_u64` — and with
            // it `as_f64` — is a single constant across the node.
            let pairs: Vec<(FixedStr<40>, u64)> = (0..2000u64)
                .map(|i| (FixedStr::from(format!("https://example.com/item/{i:08}").as_str()), i))
                .collect();
            let node = bulk_load(&pairs);
            assert!(node.is_degraded(), "constant projection must degrade the node");
            for (k, v) in pairs.iter().step_by(53) {
                assert_eq!(node.get(k), Some(v), "{k:?}");
            }
            assert_eq!(node.get(&FixedStr::from("https://example.com/item/99999999")), None);
            node.debug_assert_invariants();
        }

        #[test]
        fn sequential_inserts_worst_case_still_correct() {
            // The adversarial pattern of Fig 5c: always inserting a new max.
            let mut node = empty();
            for k in 0..2000u64 {
                node.insert(k, k);
            }
            assert_eq!(node.num_keys(), 2000);
            for k in (0..2000u64).step_by(113) {
                assert_eq!(node.get(&k), Some(&k));
            }
            node.debug_assert_invariants();
        }
    }

    /// The PMA layout (Algorithm 2).
    mod pma {
        use super::*;

        fn bulk_load(pairs: &[(u64, u64)]) -> DataNode<u64, u64> {
            DataNode::bulk_load(pairs, NodeLayout::Pma, params())
        }

        fn empty() -> DataNode<u64, u64> {
            DataNode::empty(NodeLayout::Pma, params())
        }

        #[test]
        fn bulk_load_and_get() {
            let node = bulk_load(&sorted_pairs(1000, 3));
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
            let mut node = empty();
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
            let mut node = empty();
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
            let mut node = bulk_load(&sorted_pairs(100, 2));
            assert_eq!(node.insert(10, 0), InsertOutcome::Duplicate);
            assert_eq!(node.num_keys(), 100);
        }

        #[test]
        fn expansion_doubles() {
            let mut node = empty();
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
            let mut node = bulk_load(&sorted_pairs(2048, 1));
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
            let mut node = empty();
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
            let node = bulk_load(&sorted_pairs(2000, 5));
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
            let node = bulk_load(&sorted_pairs(100, 10));
            let slot = node.lower_bound_slot(&55);
            assert_eq!(*node.entry_at(slot).0, 60);
        }
    }
}
