//! The trivially correct reference backend: one reader-writer lock
//! around a `std::collections::BTreeMap`.
//!
//! Every other backend is benchmarked *against* something; this one
//! exists to be obviously right, not fast. It is the executable
//! specification of the trait contract (the conformance suite runs
//! against it first), the sanity baseline in driver tests, and the
//! slowest-but-safest competitor in concurrency studies.

use std::collections::btree_map;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::RwLock;

use crate::{check_batch_keys, ConcurrentIndex, IndexRead, IndexWrite, InsertError, SentinelKey};

/// A `BTreeMap` behind a single `RwLock`, implementing the full trait
/// family: [`IndexRead`], [`ConcurrentIndex`] (the lock makes `&self`
/// writes safe), and [`IndexWrite`]/[`crate::BatchOps`] by delegation.
///
/// # Examples
/// ```
/// use alex_api::{ConcurrentIndex, IndexRead, LockedBTreeMap};
///
/// let index = LockedBTreeMap::from_pairs(&[(1u64, 10u64), (5, 50)]);
/// assert_eq!(index.get(&5), Some(50));
/// std::thread::scope(|s| {
///     s.spawn(|| assert!(index.insert(2, 20).is_ok()));
///     s.spawn(|| assert_eq!(index.remove(&1), Some(10)));
/// });
/// assert_eq!(index.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct LockedBTreeMap<K, V> {
    map: RwLock<BTreeMap<K, V>>,
}

impl<K: Ord + Clone, V: Clone> LockedBTreeMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// Build from key/value pairs (any order; later duplicates win, as
    /// with `BTreeMap::from_iter`).
    pub fn from_pairs(pairs: &[(K, V)]) -> Self {
        Self {
            map: RwLock::new(pairs.iter().cloned().collect()),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<K, V>> {
        self.map.read().expect("lock poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<K, V>> {
        self.map.write().expect("lock poisoned")
    }
}

impl<K: Ord + Clone, V: Clone> IndexRead<K, V> for LockedBTreeMap<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        self.read().get(key).cloned()
    }

    fn contains(&self, key: &K) -> bool {
        self.read().contains_key(key)
    }

    fn scan_from(&self, key: &K, limit: usize, visit: &mut dyn FnMut(&K, &V)) -> usize {
        let map = self.read();
        let mut visited = 0usize;
        for (k, v) in map.range((Bound::Included(key), Bound::Unbounded)).take(limit) {
            visit(k, v);
            visited += 1;
        }
        visited
    }

    fn len(&self) -> usize {
        self.read().len()
    }

    fn index_size_bytes(&self) -> usize {
        // The std B-tree's inner structure is opaque; report just the
        // handle so size comparisons never mistake this baseline for a
        // real competitor.
        core::mem::size_of::<Self>()
    }

    fn data_size_bytes(&self) -> usize {
        self.read().len() * (core::mem::size_of::<K>() + core::mem::size_of::<V>())
    }

    fn label(&self) -> String {
        "locked-btreemap".to_string()
    }
}

impl<K, V> ConcurrentIndex<K, V> for LockedBTreeMap<K, V>
where
    K: Ord + Clone + SentinelKey + Send + Sync,
    V: Clone + Send + Sync,
{
    fn insert(&self, key: K, value: V) -> Result<(), InsertError> {
        if key.is_sentinel() {
            return Err(InsertError::UnsupportedKey);
        }
        match self.write().entry(key) {
            btree_map::Entry::Occupied(_) => Err(InsertError::DuplicateKey),
            btree_map::Entry::Vacant(slot) => {
                slot.insert(value);
                Ok(())
            }
        }
    }

    fn remove(&self, key: &K) -> Option<V> {
        self.write().remove(key)
    }
}

// The delegation pattern concurrent backends follow: `&mut self` writes
// route through the `&self` surface (see the crate docs for why a
// blanket impl cannot do this).
impl<K, V> IndexWrite<K, V> for LockedBTreeMap<K, V>
where
    K: Ord + Clone + SentinelKey + Send + Sync,
    V: Clone + Send + Sync,
{
    fn insert(&mut self, key: K, value: V) -> Result<(), InsertError> {
        ConcurrentIndex::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        ConcurrentIndex::remove(self, key)
    }
}

impl<K, V> crate::BatchOps<K, V> for LockedBTreeMap<K, V>
where
    K: Ord + Clone + SentinelKey + Send + Sync,
    V: Clone + Send + Sync,
{
    fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        // One lock acquisition for the whole batch.
        let map = self.read();
        keys.iter().map(|k| map.get(k).cloned()).collect()
    }

    fn bulk_insert(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError> {
        check_batch_keys(pairs)?;
        let mut map = self.write();
        let mut inserted = 0usize;
        for (k, v) in pairs {
            if let btree_map::Entry::Vacant(slot) = map.entry(k.clone()) {
                slot.insert(v.clone());
                inserted += 1;
            }
        }
        Ok(inserted)
    }
}
