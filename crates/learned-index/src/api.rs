//! [`alex_api`] trait impls for [`LearnedIndex`].
//!
//! The paper's baseline is read-optimized; inserts and removes go
//! through the naive dense-array shifting paths (the behaviour the
//! Figure 8 shift study measures), so write-heavy workloads are *meant*
//! to look bad here. [`IndexWrite::bulk_load`] retrains over the new
//! array with the current model count.

use alex_api::{check_batch_keys, BatchOps, IndexRead, IndexWrite, InsertError};
use alex_core::AlexKey;

use crate::LearnedIndex;

impl<K: AlexKey, V: Clone> IndexRead<K, V> for LearnedIndex<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        LearnedIndex::get(self, key).cloned()
    }

    fn contains(&self, key: &K) -> bool {
        self.position_of(key).is_some()
    }

    fn scan_from(&self, key: &K, limit: usize, visit: &mut dyn FnMut(&K, &V)) -> usize {
        let mut visited = 0usize;
        for (k, v) in LearnedIndex::range_from(self, key, limit) {
            visit(k, v);
            visited += 1;
        }
        visited
    }

    fn len(&self) -> usize {
        LearnedIndex::len(self)
    }

    fn index_size_bytes(&self) -> usize {
        LearnedIndex::index_size_bytes(self)
    }

    fn data_size_bytes(&self) -> usize {
        LearnedIndex::data_size_bytes(self)
    }

    fn label(&self) -> String {
        "Learned Index".to_string()
    }
}

impl<K: AlexKey, V: Clone> IndexWrite<K, V> for LearnedIndex<K, V> {
    fn insert(&mut self, key: K, value: V) -> Result<(), InsertError> {
        if key.is_sentinel() {
            return Err(InsertError::UnsupportedKey);
        }
        if LearnedIndex::insert(self, key, value) {
            Ok(())
        } else {
            Err(InsertError::DuplicateKey)
        }
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        LearnedIndex::remove(self, key)
    }

    fn bulk_load(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError>
    where
        K: Clone,
        V: Clone,
    {
        debug_assert!(self.is_empty(), "bulk_load expects an empty index");
        check_batch_keys(pairs)?;
        *self = LearnedIndex::bulk_load(pairs, self.num_models().max(1));
        Ok(pairs.len())
    }
}

impl<K: AlexKey, V: Clone> BatchOps<K, V> for LearnedIndex<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_shifts_and_lookups_stay_correct() {
        let data: Vec<(u64, u64)> = (0..2000).map(|k| (k * 2, k)).collect();
        let mut li = LearnedIndex::bulk_load(&data, 32);
        // Interleave removes and inserts without retraining; every
        // surviving key must stay findable through the widened windows.
        for k in (0..2000u64).step_by(3) {
            assert_eq!(li.remove(&(k * 2)), Some(k), "remove {}", k * 2);
            assert_eq!(li.remove(&(k * 2)), None, "double remove {}", k * 2);
        }
        for k in (0..500u64).step_by(2) {
            assert!(LearnedIndex::insert(&mut li, k * 2 + 1, k), "insert {}", k * 2 + 1);
        }
        for k in 0..2000u64 {
            let expect = (k % 3 != 0).then_some(k);
            assert_eq!(li.get(&(k * 2)).copied(), expect, "get {}", k * 2);
        }
        assert!(li.stats().removes > 0);
        assert!(li.stats().shifts > 0);
    }
}
