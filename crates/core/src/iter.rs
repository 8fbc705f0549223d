//! Range iteration across the leaf chain.
//!
//! Scans walk occupied slots within a leaf (skipping gaps via the
//! bitmap, §5.2.3) and follow the doubly-linked leaf chain to the next
//! data node.

use crate::index::{AlexIndex, LeafNode};
use crate::key::AlexKey;

/// Iterator over `(key, value)` pairs in key order, produced by
/// [`AlexIndex::range_from`] and [`AlexIndex::iter`].
///
/// It walks each leaf's occupied base slots. Only the dense index
/// iterates, and a dense leaf never holds a delta buffer: those exist
/// on the epoch store only, and `EpochAlex::into_inner` folds every one
/// into its base before handing the index back.
pub struct RangeIter<'a, K, V> {
    index: &'a AlexIndex<K, V>,
    /// The leaf being walked; `None` past the chain's tail.
    leaf: Option<&'a LeafNode<K, V>>,
    /// The next occupied slot to yield in `leaf`; `None` once the leaf
    /// is exhausted.
    slot: Option<usize>,
    remaining: usize,
}

impl<'a, K: AlexKey, V: Clone + Default> RangeIter<'a, K, V> {
    pub(crate) fn new(
        index: &'a AlexIndex<K, V>,
        leaf: &'a LeafNode<K, V>,
        slot: Option<usize>,
        remaining: usize,
    ) -> Self {
        Self {
            index,
            leaf: Some(leaf),
            slot,
            remaining,
        }
    }
}

impl<'a, K: AlexKey, V: Clone + Default> Iterator for RangeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            let leaf = self.leaf?;
            if let Some(slot) = self.slot {
                self.slot = leaf.data.next_occupied_after(slot);
                self.remaining -= 1;
                return Some(leaf.data.entry_at(slot));
            }
            // A split heals its predecessor's `next`, but descending
            // keeps the walk ordered even through a routing node.
            self.leaf = leaf.next.map(|next| self.index.descend_first_leaf(next).1);
            self.slot = self.leaf.and_then(|l| l.data.first_occupied());
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::AlexConfig;
    use crate::index::AlexIndex;

    #[test]
    fn iterates_across_leaf_boundaries() {
        let data: Vec<(u64, u64)> = (0..5000).map(|k| (k, k)).collect();
        let index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi().with_max_node_keys(256));
        assert!(index.num_data_nodes() > 1, "test requires multiple leaves");
        let all: Vec<u64> = index.iter().map(|(k, _)| *k).collect();
        assert_eq!(all, (0..5000).collect::<Vec<_>>());
    }

    #[test]
    fn range_iter_respects_limit_exactly() {
        let data: Vec<(u64, u64)> = (0..1000).map(|k| (k * 2, k)).collect();
        let index = AlexIndex::bulk_load(&data, AlexConfig::ga_srmi(16));
        for limit in [0usize, 1, 7, 999, 5000] {
            let n = index.range_from(&0, limit).count();
            assert_eq!(n, limit.min(1000), "limit {limit}");
        }
    }

    #[test]
    fn iter_skips_gaps_created_by_deletes() {
        let data: Vec<(u64, u64)> = (0..1000).map(|k| (k, k)).collect();
        let mut index = AlexIndex::bulk_load(&data, AlexConfig::pma_armi().with_max_node_keys(256));
        for k in (0..1000).step_by(2) {
            index.remove(&k);
        }
        let odds: Vec<u64> = index.iter().map(|(k, _)| *k).collect();
        assert_eq!(odds, (1..1000).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn range_from_key_beyond_max_is_empty() {
        let data: Vec<(u64, u64)> = (0..100).map(|k| (k, k)).collect();
        let index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi());
        assert_eq!(index.range_from(&1_000_000, 10).count(), 0);
    }

    #[test]
    fn values_travel_with_keys() {
        let data: Vec<(u64, u64)> = (0..500).map(|k| (k, k * 7)).collect();
        let index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi().with_max_node_keys(128));
        for (k, v) in index.iter() {
            assert_eq!(*v, *k * 7);
        }
    }
}
