//! [`alex_api`] trait impls for [`AlexIndex`] — the surface the
//! workload drivers, benchmarks, and conformance suite drive.
//!
//! The inherent API stays reference-returning (`get -> Option<&V>`);
//! the trait impls clone values out, per the contract. Batch methods
//! route to the native sorted-run paths ([`AlexIndex::get_many`],
//! [`AlexIndex::bulk_insert`]), and [`IndexWrite::bulk_load`] rebuilds
//! via Algorithm 4 with the index's own config.

use alex_api::{check_batch_keys, BatchOps, IndexRead, IndexWrite, InsertError};

use crate::key::AlexKey;
use crate::AlexIndex;

impl<K: AlexKey, V: Clone + Default> IndexRead<K, V> for AlexIndex<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        AlexIndex::get(self, key).cloned()
    }

    fn contains(&self, key: &K) -> bool {
        self.contains_key(key)
    }

    fn scan_from(&self, key: &K, limit: usize, visit: &mut dyn FnMut(&K, &V)) -> usize {
        AlexIndex::scan_from(self, key, limit, |k, v| visit(k, v))
    }

    fn len(&self) -> usize {
        AlexIndex::len(self)
    }

    fn index_size_bytes(&self) -> usize {
        self.size_report().index_bytes
    }

    fn data_size_bytes(&self) -> usize {
        self.size_report().data_bytes
    }

    fn label(&self) -> String {
        self.config().variant_name()
    }
}

impl<K: AlexKey, V: Clone + Default> IndexWrite<K, V> for AlexIndex<K, V> {
    fn insert(&mut self, key: K, value: V) -> Result<(), InsertError> {
        AlexIndex::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        AlexIndex::remove(self, key)
    }

    fn bulk_load(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError> {
        debug_assert!(self.is_empty(), "bulk_load expects an empty index");
        check_batch_keys(pairs)?;
        *self = AlexIndex::bulk_load(pairs, *self.config());
        Ok(pairs.len())
    }
}

impl<K: AlexKey, V: Clone + Default> BatchOps<K, V> for AlexIndex<K, V> {
    fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        AlexIndex::get_many(self, keys).into_iter().map(|v| v.cloned()).collect()
    }

    fn bulk_insert(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError> {
        AlexIndex::bulk_insert(self, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlexConfig;

    #[test]
    fn trait_surface_round_trips_values() {
        let data: Vec<(u64, u64)> = (0..1000).map(|k| (k * 2, k + 5)).collect();
        let mut index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi());
        assert_eq!(IndexRead::get(&index, &10), Some(10));
        assert_eq!(IndexRead::get(&index, &11), None);
        assert_eq!(IndexWrite::insert(&mut index, 11, 99), Ok(()));
        assert_eq!(
            IndexWrite::insert(&mut index, 11, 100),
            Err(InsertError::DuplicateKey)
        );
        assert_eq!(IndexRead::get(&index, &11), Some(99), "duplicate left value");
        assert_eq!(IndexWrite::remove(&mut index, &11), Some(99));
        let entries: Vec<(u64, u64)> =
            IndexRead::range_from(&index, &4, 3).map(|e| (e.key, e.value)).collect();
        assert_eq!(entries, vec![(4, 7), (6, 8), (8, 9)]);
        assert_eq!(IndexRead::label(&index), "ALEX-GA-ARMI");
    }

    #[test]
    fn trait_bulk_load_rebuilds_with_same_config() {
        let cfg = AlexConfig::ga_srmi(8);
        let mut index: AlexIndex<u64, u64> = AlexIndex::new(cfg);
        let pairs: Vec<(u64, u64)> = (0..5000).map(|k| (k, k * 3)).collect();
        assert_eq!(IndexWrite::bulk_load(&mut index, &pairs), Ok(5000));
        assert_eq!(index.len(), 5000);
        assert_eq!(index.config().variant_name(), cfg.variant_name());
        assert_eq!(AlexIndex::get(&index, &4999), Some(&14997));
    }
}
