//! A best-effort reimplementation of the static Learned Index of
//! Kraska et al., *The case for learned index structures* (SIGMOD 2018)
//! — the baseline the ALEX paper compares against (§5.1).
//!
//! Matching the paper's description of their own baseline: a **two-level
//! RMI with linear models at each node** over a **single dense sorted
//! array**, with per-leaf-model **error bounds** and **bounded binary
//! search** for lookups. Inserts use the naive strategy of §2.3: shift
//! the dense array (counting the shifts — Figure 8's "Learned Index"
//! bar) and widen the affected error bounds so lookups stay correct.
//!
//! The models are ALEX's own [`LinearModel`], fit by the same least
//! squares over the same [`AlexKey`] projection, so the two learned
//! indexes differ in structure, not in their models.
//!
//! Index size accounting follows §5.1: two `f64` model parameters plus
//! two error-bound integers per model, plus metadata.
//!
//! # Examples
//! ```
//! use alex_learned_index::LearnedIndex;
//!
//! let data: Vec<(u64, u64)> = (0..10_000).map(|k| (k * 2, k)).collect();
//! let idx = LearnedIndex::bulk_load(&data, 64);
//! assert_eq!(idx.get(&1000), Some(&500));
//! assert_eq!(idx.get(&1001), None);
//! ```

mod api;
mod delta;

pub use delta::DeltaLearnedIndex;

/// ALEX's key contract, which bounds both indexes here, under the
/// name downstream code imports it by.
pub use alex_core::AlexKey as Key;

use core::cmp::Ordering;
use core::mem::size_of;

use alex_core::{AlexKey, LinearModel};

/// Per-leaf-model metadata: the linear model plus its error bounds.
#[derive(Debug, Clone, Copy)]
struct LeafModel {
    model: LinearModel,
    /// Minimum of `actual - predicted` over the model's keys (<= 0).
    err_lo: i64,
    /// Maximum of `actual - predicted` over the model's keys (>= 0).
    err_hi: i64,
}

/// Counters describing work performed by the index.
#[derive(Debug, Default, Clone, Copy)]
pub struct LearnedIndexStats {
    /// Total element shifts performed by naive inserts.
    pub shifts: u64,
    /// Number of inserts.
    pub inserts: u64,
    /// Number of removes.
    pub removes: u64,
    /// Number of full model retrains.
    pub retrains: u64,
}

/// The static Learned Index: two-level linear RMI over a dense sorted
/// array.
#[derive(Debug, Clone)]
pub struct LearnedIndex<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
    root: LinearModel,
    leaves: Vec<LeafModel>,
    /// Extra slack added to `err_hi` by un-retrained inserts.
    staleness: i64,
    /// Extra slack subtracted from `err_lo` by un-retrained removes.
    removed_slack: i64,
    stats: LearnedIndexStats,
}

impl<K: AlexKey, V: Clone> LearnedIndex<K, V> {
    /// Build over a sorted, strictly-increasing array with `num_models`
    /// second-level models.
    ///
    /// # Panics
    /// Panics if `num_models == 0` or (debug builds) if `data` is not
    /// strictly increasing.
    pub fn bulk_load(data: &[(K, V)], num_models: usize) -> Self {
        assert!(num_models > 0, "need at least one leaf model");
        debug_assert!(
            data.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load input must be strictly increasing"
        );
        let keys: Vec<K> = data.iter().map(|(k, _)| *k).collect();
        let values: Vec<V> = data.iter().map(|(_, v)| v.clone()).collect();
        let mut idx = Self {
            keys,
            values,
            root: LinearModel::default(),
            leaves: Vec::new(),
            staleness: 0,
            removed_slack: 0,
            stats: LearnedIndexStats::default(),
        };
        idx.train(num_models);
        idx
    }

    /// (Re)train the RMI over the current array.
    pub fn train(&mut self, num_models: usize) {
        self.stats.retrains += 1;
        self.staleness = 0;
        self.removed_slack = 0;
        let n = self.keys.len();
        if n == 0 {
            self.root = LinearModel::default();
            self.leaves = vec![LeafModel {
                model: LinearModel::default(),
                err_lo: 0,
                err_hi: 0,
            }];
            return;
        }
        // Root: key -> leaf-model id, trained on (key, rank-scaled id).
        self.root = LinearModel::fit(self.keys.iter().enumerate().map(|(i, k)| {
            (k.as_f64(), (i as f64) * num_models as f64 / n as f64)
        }));
        // Assign keys to leaves by root prediction; keys are sorted so
        // assignments are contiguous ranges (root slope is
        // non-negative).
        let mut assignments: Vec<(usize, usize)> = vec![(usize::MAX, 0); num_models];
        for (i, k) in self.keys.iter().enumerate() {
            let m = (self.root.predict(k.as_f64()) as isize).clamp(0, num_models as isize - 1) as usize;
            let entry = &mut assignments[m];
            if entry.0 == usize::MAX {
                *entry = (i, i + 1);
            } else {
                entry.1 = i + 1;
            }
        }
        self.leaves = assignments
            .into_iter()
            .map(|(start, end)| {
                if start == usize::MAX {
                    return LeafModel {
                        model: LinearModel::default(),
                        err_lo: 0,
                        err_hi: 0,
                    };
                }
                let model = LinearModel::fit(
                    self.keys[start..end].iter().enumerate().map(|(j, k)| (k.as_f64(), (start + j) as f64)),
                );
                let mut err_lo = 0i64;
                let mut err_hi = 0i64;
                for (j, k) in self.keys[start..end].iter().enumerate() {
                    let predicted = model.predict_clamped(k.as_f64(), self.keys.len());
                    let diff = (start + j) as i64 - predicted as i64;
                    err_lo = err_lo.min(diff);
                    err_hi = err_hi.max(diff);
                }
                LeafModel { model, err_lo, err_hi }
            })
            .collect();
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Work counters.
    #[inline]
    pub fn stats(&self) -> LearnedIndexStats {
        self.stats
    }

    /// Number of second-level models.
    #[inline]
    pub fn num_models(&self) -> usize {
        self.leaves.len()
    }

    /// Predicted position for `key` (for prediction-error studies,
    /// Figure 7).
    pub fn predict(&self, key: &K) -> usize {
        let leaf = self.leaf_for(key);
        self.leaves[leaf].model.predict_clamped(key.as_f64(), self.keys.len())
    }

    /// Look up `key` with bounded binary search around the prediction.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.position_of(key).map(|pos| &self.values[pos])
    }

    /// Position of `key` in the dense array, if present.
    pub fn position_of(&self, key: &K) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let leaf = &self.leaves[self.leaf_for(key)];
        let predicted = leaf.model.predict_clamped(key.as_f64(), self.keys.len()) as i64;
        let lo = (predicted + leaf.err_lo - self.removed_slack).clamp(0, self.keys.len() as i64) as usize;
        let hi = (predicted + leaf.err_hi + self.staleness + 1).clamp(0, self.keys.len() as i64) as usize;
        let window = &self.keys[lo..hi];
        // A NaN compares below every key, so it is never found.
        match window.binary_search_by(|k| k.partial_cmp(key).unwrap_or(Ordering::Less)) {
            Ok(off) => Some(lo + off),
            Err(_) => None,
        }
    }

    /// Scan up to `limit` entries with key `>= key`.
    pub fn range_from(&self, key: &K, limit: usize) -> impl Iterator<Item = (&K, &V)> {
        let start = self.lower_bound(key);
        self.keys[start..]
            .iter()
            .zip(self.values[start..].iter())
            .take(limit)
    }

    /// Naive insert (§2.3): shift the dense array right of the insertion
    /// point, widen error bounds. Returns `false` on duplicate.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let pos = self.lower_bound(&key);
        if pos < self.keys.len() && self.keys[pos] == key {
            return false;
        }
        let shifted = self.keys.len() - pos;
        self.keys.insert(pos, key);
        self.values.insert(pos, value);
        self.stats.shifts += shifted as u64;
        self.stats.inserts += 1;
        // Every key at or right of `pos` moved one slot right; model
        // predictions are now stale by one more slot at the top end.
        self.staleness += 1;
        true
    }

    /// Naive remove, the mirror of [`LearnedIndex::insert`]: shift the
    /// dense array left over the removed slot (counting the shifts) and
    /// widen the low end of the affected search windows so lookups stay
    /// correct. Returns the evicted value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let pos = self.position_of(key)?;
        self.keys.remove(pos);
        let value = self.values.remove(pos);
        self.stats.shifts += (self.keys.len() - pos) as u64;
        self.stats.removes += 1;
        // Every key right of `pos` moved one slot left; predictions are
        // now stale by one more slot at the bottom end.
        self.removed_slack += 1;
        Some(value)
    }

    /// First position with key `>= key` (exact binary search; used for
    /// inserts and scans).
    fn lower_bound(&self, key: &K) -> usize {
        self.keys.partition_point(|k| k < key)
    }

    #[inline]
    fn leaf_for(&self, key: &K) -> usize {
        (self.root.predict(key.as_f64()) as isize).clamp(0, self.leaves.len() as isize - 1) as usize
    }

    /// Index size per §5.1: two `f64` parameters and two error-bound
    /// integers per model (root and leaves), plus per-model metadata.
    pub fn index_size_bytes(&self) -> usize {
        let per_model = 2 * size_of::<f64>() + 2 * size_of::<i64>();
        (1 + self.leaves.len()) * per_model
    }

    /// Data size: the dense key and value arrays.
    pub fn data_size_bytes(&self) -> usize {
        self.keys.capacity() * size_of::<K>() + self.values.capacity() * size_of::<V>()
    }

    /// All `(key, value)` pairs in key order (used by the delta-index
    /// merge).
    pub fn pairs(&self) -> Vec<(K, V)> {
        self.keys.iter().copied().zip(self.values.iter().cloned()).collect()
    }

    /// Prediction error (|predicted − actual|) for every stored key, for
    /// Figure 7.
    pub fn prediction_errors(&self) -> Vec<usize> {
        self.keys
            .iter()
            .enumerate()
            .map(|(actual, k)| self.predict(k).abs_diff(actual))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: u64, models: usize) -> LearnedIndex<u64, u64> {
        let data: Vec<(u64, u64)> = (0..n).map(|k| (k * 3, k)).collect();
        LearnedIndex::bulk_load(&data, models)
    }

    #[test]
    fn lookup_all_keys() {
        let idx = build(10_000, 100);
        for k in 0..10_000u64 {
            assert_eq!(idx.get(&(k * 3)), Some(&k), "key {}", k * 3);
        }
    }

    #[test]
    fn lookup_missing_keys() {
        let idx = build(1000, 16);
        assert_eq!(idx.get(&1), None);
        assert_eq!(idx.get(&(3 * 1000)), None);
    }

    #[test]
    fn single_model_still_correct() {
        let idx = build(1000, 1);
        for k in (0..1000u64).step_by(37) {
            assert_eq!(idx.get(&(k * 3)), Some(&k));
        }
    }

    #[test]
    fn empty_index() {
        let idx: LearnedIndex<u64, u64> = LearnedIndex::bulk_load(&[], 4);
        assert!(idx.is_empty());
        assert_eq!(idx.get(&5), None);
        assert_eq!(idx.range_from(&0, 10).count(), 0);
    }

    #[test]
    fn nonlinear_data_lookup() {
        // Quadratic key spacing stresses the linear models' error bounds.
        let data: Vec<(u64, u64)> = (0..5000u64).map(|k| (k * k, k)).collect();
        let idx = LearnedIndex::bulk_load(&data, 50);
        for k in (0..5000u64).step_by(13) {
            assert_eq!(idx.get(&(k * k)), Some(&k));
        }
        assert_eq!(idx.get(&2), None);
    }

    #[test]
    fn float_keys() {
        let data: Vec<(f64, u64)> = (0..2000u64).map(|k| (k as f64 * 0.5 - 300.0, k)).collect();
        let idx = LearnedIndex::bulk_load(&data, 32);
        for k in (0..2000u64).step_by(11) {
            assert_eq!(idx.get(&(k as f64 * 0.5 - 300.0)), Some(&k));
        }
    }

    #[test]
    fn insert_shifts_and_remains_correct() {
        let mut idx = build(1000, 16);
        let before = idx.stats().shifts;
        assert!(idx.insert(1, 9999)); // near the front: ~999 shifts
        assert!(idx.stats().shifts >= before + 999);
        assert_eq!(idx.get(&1), Some(&9999));
        // All old keys still findable despite stale models.
        for k in (0..1000u64).step_by(29) {
            assert_eq!(idx.get(&(k * 3)), Some(&k), "key {}", k * 3);
        }
    }

    #[test]
    fn insert_duplicate_rejected() {
        let mut idx = build(100, 4);
        assert!(!idx.insert(3, 0));
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn many_inserts_then_retrain() {
        let mut idx = build(1000, 16);
        for k in 0..500u64 {
            assert!(idx.insert(k * 3 + 1, k));
        }
        assert_eq!(idx.len(), 1500);
        for k in (0..500u64).step_by(7) {
            assert_eq!(idx.get(&(k * 3 + 1)), Some(&k));
        }
        idx.train(16);
        assert_eq!(idx.stats().retrains, 2);
        for k in (0..500u64).step_by(7) {
            assert_eq!(idx.get(&(k * 3 + 1)), Some(&k));
        }
    }

    #[test]
    fn range_scan() {
        let idx = build(1000, 16);
        let got: Vec<u64> = idx.range_from(&300, 5).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![300, 303, 306, 309, 312]);
        let from_missing: Vec<u64> = idx.range_from(&301, 2).map(|(k, _)| *k).collect();
        assert_eq!(from_missing, vec![303, 306]);
    }

    #[test]
    fn index_size_scales_with_models() {
        let small = build(10_000, 10);
        let large = build(10_000, 1000);
        assert!(large.index_size_bytes() > small.index_size_bytes());
        assert!(small.data_size_bytes() > 0);
    }

    #[test]
    fn prediction_errors_reasonable_on_linear_data() {
        let idx = build(10_000, 100);
        let errs = idx.prediction_errors();
        assert_eq!(errs.len(), 10_000);
        // Perfectly linear data: errors should be tiny.
        let max = errs.iter().copied().max().unwrap();
        assert!(max <= 2, "max error {max} on perfectly linear data");
    }
}
