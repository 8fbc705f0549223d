//! The B+Tree proper: bulk load, point ops, range scans, accounting.

use core::cmp::Ordering;
use core::mem::size_of;

use crate::node::{InnerNode, LeafNode, NodeRef};

/// An in-memory B+Tree with tunable leaf and inner capacities.
///
/// Keys must be unique; [`BPlusTree::insert`] on an existing key
/// overwrites the value (and reports it via the return value), matching
/// the upsert behaviour the workload driver expects.
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    inners: Vec<InnerNode<K>>,
    leaves: Vec<LeafNode<K, V>>,
    root: NodeRef,
    len: usize,
    leaf_capacity: usize,
    inner_capacity: usize,
}

impl<K: PartialOrd + Clone, V> BPlusTree<K, V> {
    /// Total-order comparison for inserts; keys must not be NaN.
    #[inline]
    fn cmp_key(a: &K, b: &K) -> Ordering {
        a.partial_cmp(b).expect("B+Tree keys must be totally ordered (no NaN)")
    }

    /// Create an empty tree. `leaf_capacity` is the maximum number of
    /// entries per leaf, `inner_capacity` the maximum number of children
    /// per inner node (the fanout).
    ///
    /// # Panics
    /// Panics if either capacity is below 4.
    pub fn new(leaf_capacity: usize, inner_capacity: usize) -> Self {
        assert!(leaf_capacity >= 4, "leaf capacity must be >= 4");
        assert!(inner_capacity >= 4, "inner fanout must be >= 4");
        let leaves = vec![LeafNode::new(leaf_capacity)];
        Self {
            inners: Vec::new(),
            leaves,
            root: NodeRef::Leaf(0),
            len: 0,
            leaf_capacity,
            inner_capacity,
        }
    }

    /// Bulk-load from a sorted, strictly-increasing slice, filling leaves
    /// to `fill` of capacity (e.g. `0.7` mimics a B+Tree after random
    /// inserts; `1.0` packs leaves full).
    ///
    /// # Panics
    /// Panics if `fill` is not in `(0, 1]` or (debug builds) if `data` is
    /// not strictly increasing.
    pub fn bulk_load(data: &[(K, V)], leaf_capacity: usize, inner_capacity: usize, fill: f64) -> Self
    where
        K: Clone,
        V: Clone,
    {
        assert!(fill > 0.0 && fill <= 1.0, "fill must be in (0, 1]");
        debug_assert!(data.windows(2).all(|w| w[0].0 < w[1].0), "bulk_load input must be strictly increasing");
        let mut tree = Self::new(leaf_capacity, inner_capacity);
        if data.is_empty() {
            return tree;
        }
        let per_leaf = ((leaf_capacity as f64 * fill) as usize).clamp(1, leaf_capacity);
        tree.leaves.clear();
        // Build the leaf level.
        let mut first_keys: Vec<K> = Vec::new();
        for chunk in data.chunks(per_leaf) {
            let mut leaf = LeafNode::new(leaf_capacity);
            leaf.keys.extend(chunk.iter().map(|(k, _)| k.clone()));
            leaf.values.extend(chunk.iter().map(|(_, v)| v.clone()));
            first_keys.push(chunk[0].0.clone());
            let id = tree.leaves.len() as u32;
            if id > 0 {
                tree.leaves[(id - 1) as usize].next = Some(id);
            }
            tree.leaves.push(leaf);
        }
        // Build inner levels bottom-up.
        let mut level: Vec<(K, NodeRef)> = first_keys
            .into_iter()
            .zip((0..tree.leaves.len() as u32).map(NodeRef::Leaf))
            .collect();
        let per_inner = inner_capacity.max(2);
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len() / per_inner + 1);
            for chunk in level.chunks(per_inner) {
                let mut inner = InnerNode {
                    keys: Vec::with_capacity(per_inner - 1),
                    children: Vec::with_capacity(per_inner),
                };
                inner.children.push(chunk[0].1);
                for (k, child) in &chunk[1..] {
                    inner.keys.push(k.clone());
                    inner.children.push(*child);
                }
                let id = tree.inners.len() as u32;
                tree.inners.push(inner);
                next_level.push((chunk[0].0.clone(), NodeRef::Inner(id)));
            }
            level = next_level;
        }
        tree.root = level[0].1;
        tree.len = data.len();
        tree
    }

    /// Number of entries stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (number of inner levels above the leaves).
    pub fn depth(&self) -> usize {
        let mut d = 0;
        let mut node = self.root;
        while let NodeRef::Inner(i) = node {
            node = self.inners[i as usize].children[0];
            d += 1;
        }
        d
    }

    /// The leaf that routes `key` and `key`'s position in it, if
    /// stored. A NaN compares below every key, so it is never found.
    fn locate(&self, key: &K) -> (usize, Option<usize>) {
        let leaf = self.find_leaf(key) as usize;
        let pos = self.leaves[leaf]
            .keys
            .binary_search_by(|k| k.partial_cmp(key).unwrap_or(Ordering::Less))
            .ok();
        (leaf, pos)
    }

    /// Look up `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let (leaf, pos) = self.locate(key);
        pos.map(|pos| &self.leaves[leaf].values[pos])
    }

    /// Look up `key`, returning a mutable reference to the value.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (leaf, pos) = self.locate(key);
        pos.map(|pos| &mut self.leaves[leaf].values[pos])
    }

    /// Insert or overwrite. Returns the previous value if `key` was
    /// already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.insert_rec(self.root, key, value) {
            InsertResult::Done(prev) => prev,
            InsertResult::Split(sep, right) => {
                let old_root = self.root;
                let new_root = InnerNode {
                    keys: vec![sep],
                    children: vec![old_root, right],
                };
                let id = self.inners.len() as u32;
                self.inners.push(new_root);
                self.root = NodeRef::Inner(id);
                None
            }
        }
    }

    /// Remove `key`, returning its value if present.
    ///
    /// Removal is *lazy*: leaves are allowed to underflow (they are never
    /// merged), which keeps deletion simple and matches how the paper
    /// treats deletes — "strictly easier than inserts" (§3.2). Inner
    /// separators are left untouched; they remain valid routing keys.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (leaf, pos) = self.locate(key);
        let pos = pos?;
        let leaf = &mut self.leaves[leaf];
        leaf.keys.remove(pos);
        let v = leaf.values.remove(pos);
        self.len -= 1;
        Some(v)
    }

    /// Iterate over entries with key `>= key`, in key order, at most
    /// `limit` of them.
    pub fn range_from<'a>(&'a self, key: &K, limit: usize) -> RangeFrom<'a, K, V> {
        let leaf_id = self.find_leaf(key);
        let pos = self.leaves[leaf_id as usize].keys.partition_point(|k| k < key);
        RangeFrom {
            tree: self,
            leaf: Some(leaf_id),
            pos,
            remaining: limit,
        }
    }

    /// Iterate over all entries in key order.
    pub fn iter(&self) -> RangeFrom<'_, K, V> {
        // Walk to the left-most leaf.
        let mut node = self.root;
        loop {
            match node {
                NodeRef::Inner(i) => node = self.inners[i as usize].children[0],
                NodeRef::Leaf(l) => {
                    return RangeFrom {
                        tree: self,
                        leaf: Some(l),
                        pos: 0,
                        remaining: usize::MAX,
                    }
                }
            }
        }
    }

    /// Bytes used by inner nodes (the paper's *index size*, §5.1).
    pub fn index_size_bytes(&self) -> usize {
        self.inners
            .iter()
            .map(|n| {
                n.keys.capacity() * size_of::<K>()
                    + n.children.capacity() * size_of::<NodeRef>()
                    + size_of::<InnerNode<K>>()
            })
            .sum()
    }

    /// Bytes used by leaf nodes (the paper's *data size*, §5.1).
    pub fn data_size_bytes(&self) -> usize {
        self.leaves
            .iter()
            .map(|n| {
                n.keys.capacity() * size_of::<K>()
                    + n.values.capacity() * size_of::<V>()
                    + size_of::<LeafNode<K, V>>()
            })
            .sum()
    }

    /// Descend to the leaf that owns `key`.
    #[inline]
    fn find_leaf(&self, key: &K) -> u32 {
        let mut node = self.root;
        loop {
            match node {
                NodeRef::Inner(i) => {
                    let inner = &self.inners[i as usize];
                    node = inner.children[inner.child_for(key)];
                }
                NodeRef::Leaf(l) => return l,
            }
        }
    }

    fn insert_rec(&mut self, node: NodeRef, key: K, value: V) -> InsertResult<K, V> {
        match node {
            NodeRef::Leaf(l) => self.insert_into_leaf(l, key, value),
            NodeRef::Inner(i) => {
                let idx = self.inners[i as usize].child_for(&key);
                let child = self.inners[i as usize].children[idx];
                match self.insert_rec(child, key, value) {
                    InsertResult::Done(prev) => InsertResult::Done(prev),
                    InsertResult::Split(sep, right) => {
                        let inner = &mut self.inners[i as usize];
                        inner.keys.insert(idx, sep);
                        inner.children.insert(idx + 1, right);
                        if inner.children.len() > self.inner_capacity {
                            self.split_inner(i)
                        } else {
                            InsertResult::Done(None)
                        }
                    }
                }
            }
        }
    }

    fn insert_into_leaf(&mut self, l: u32, key: K, value: V) -> InsertResult<K, V> {
        let leaf = &mut self.leaves[l as usize];
        match leaf.keys.binary_search_by(|k| Self::cmp_key(k, &key)) {
            Ok(pos) => {
                let prev = core::mem::replace(&mut leaf.values[pos], value);
                InsertResult::Done(Some(prev))
            }
            Err(pos) => {
                leaf.keys.insert(pos, key);
                leaf.values.insert(pos, value);
                self.len += 1;
                if leaf.keys.len() > self.leaf_capacity {
                    self.split_leaf(l)
                } else {
                    InsertResult::Done(None)
                }
            }
        }
    }

    fn split_leaf(&mut self, l: u32) -> InsertResult<K, V> {
        let new_id = self.leaves.len() as u32;
        let leaf = &mut self.leaves[l as usize];
        let mid = leaf.keys.len() / 2;
        let mut right = LeafNode::new(self.leaf_capacity);
        right.keys = leaf.keys.split_off(mid);
        right.values = leaf.values.split_off(mid);
        right.next = leaf.next;
        leaf.next = Some(new_id);
        let sep = right.keys[0].clone();
        self.leaves.push(right);
        InsertResult::Split(sep, NodeRef::Leaf(new_id))
    }

    fn split_inner(&mut self, i: u32) -> InsertResult<K, V> {
        let inner = &mut self.inners[i as usize];
        // Children split: left keeps ceil(n/2) children.
        let child_mid = inner.children.len().div_ceil(2);
        let right_children = inner.children.split_off(child_mid);
        // keys[child_mid - 1] becomes the separator pushed up.
        let mut right_keys = inner.keys.split_off(child_mid - 1);
        let sep = right_keys.remove(0);
        let right = InnerNode {
            keys: right_keys,
            children: right_children,
        };
        let id = self.inners.len() as u32;
        self.inners.push(right);
        InsertResult::Split(sep, NodeRef::Inner(id))
    }
}

enum InsertResult<K, V> {
    Done(Option<V>),
    Split(K, NodeRef),
}

/// Iterator over `(key, value)` pairs in key order, produced by
/// [`BPlusTree::range_from`] and [`BPlusTree::iter`].
pub struct RangeFrom<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: Option<u32>,
    pos: usize,
    remaining: usize,
}

impl<'a, K, V> Iterator for RangeFrom<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            let leaf_id = self.leaf?;
            let leaf = &self.tree.leaves[leaf_id as usize];
            if self.pos < leaf.keys.len() {
                let item = (&leaf.keys[self.pos], &leaf.values[self.pos]);
                self.pos += 1;
                self.remaining -= 1;
                return Some(item);
            }
            self.leaf = leaf.next;
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_order(tree: &BPlusTree<u64, u64>) {
        let keys: Vec<u64> = tree.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), tree.len());
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "iteration out of order: {} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn empty_tree() {
        let tree: BPlusTree<u64, u64> = BPlusTree::new(8, 8);
        assert!(tree.is_empty());
        assert_eq!(tree.get(&1), None);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.iter().count(), 0);
    }

    #[test]
    fn insert_and_get_small() {
        let mut tree = BPlusTree::new(4, 4);
        for k in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            assert_eq!(tree.insert(k, k * 10), None);
        }
        for k in 0..10u64 {
            assert_eq!(tree.get(&k), Some(&(k * 10)), "key {k}");
        }
        assert_eq!(tree.get(&10), None);
        check_order(&tree);
    }

    #[test]
    fn insert_overwrites() {
        let mut tree = BPlusTree::new(8, 8);
        assert_eq!(tree.insert(1u64, 10u64), None);
        assert_eq!(tree.insert(1, 20), Some(10));
        assert_eq!(tree.get(&1), Some(&20));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn many_random_inserts() {
        let mut tree = BPlusTree::new(16, 16);
        let mut x: u64 = 0xDEADBEEF;
        let mut keys = Vec::new();
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = x >> 16;
            if tree.insert(k, k).is_none() {
                keys.push(k);
            }
        }
        assert_eq!(tree.len(), keys.len());
        for &k in &keys {
            assert_eq!(tree.get(&k), Some(&k));
        }
        check_order(&tree);
        assert!(tree.depth() >= 2, "5000 keys with fanout 16 must be at least 2 levels");
    }

    #[test]
    fn sequential_inserts() {
        let mut tree = BPlusTree::new(8, 8);
        for k in 0..10_000u64 {
            tree.insert(k, k);
        }
        assert_eq!(tree.len(), 10_000);
        check_order(&tree);
        for k in (0..10_000u64).step_by(997) {
            assert_eq!(tree.get(&k), Some(&k));
        }
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let data: Vec<(u64, u64)> = (0..5000u64).map(|k| (k * 3, k)).collect();
        let tree = BPlusTree::bulk_load(&data, 32, 32, 0.7);
        assert_eq!(tree.len(), 5000);
        for (k, v) in &data {
            assert_eq!(tree.get(k), Some(v));
        }
        assert_eq!(tree.get(&1), None);
        check_order(&tree);
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let tree: BPlusTree<u64, u64> = BPlusTree::bulk_load(&[], 8, 8, 0.7);
        assert!(tree.is_empty());
        let tree = BPlusTree::bulk_load(&[(42u64, 1u64)], 8, 8, 0.7);
        assert_eq!(tree.get(&42), Some(&1));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn bulk_load_then_insert() {
        let data: Vec<(u64, u64)> = (0..1000u64).map(|k| (k * 2, k)).collect();
        let mut tree = BPlusTree::bulk_load(&data, 16, 16, 0.7);
        for k in 0..1000u64 {
            tree.insert(k * 2 + 1, k);
        }
        assert_eq!(tree.len(), 2000);
        check_order(&tree);
        assert_eq!(tree.get(&999), Some(&499));
    }

    #[test]
    fn range_scan_within_leaf_and_across_leaves() {
        let data: Vec<(u64, u64)> = (0..1000u64).map(|k| (k, k)).collect();
        let tree = BPlusTree::bulk_load(&data, 16, 16, 0.7);
        let got: Vec<u64> = tree.range_from(&123, 50).map(|(k, _)| *k).collect();
        assert_eq!(got, (123..173).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_from_missing_key() {
        let data: Vec<(u64, u64)> = (0..100u64).map(|k| (k * 10, k)).collect();
        let tree = BPlusTree::bulk_load(&data, 8, 8, 0.7);
        let got: Vec<u64> = tree.range_from(&15, 3).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![20, 30, 40]);
    }

    #[test]
    fn range_scan_past_end() {
        let data: Vec<(u64, u64)> = (0..10u64).map(|k| (k, k)).collect();
        let tree = BPlusTree::bulk_load(&data, 8, 8, 1.0);
        let got: Vec<u64> = tree.range_from(&8, 100).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![8, 9]);
    }

    #[test]
    fn remove_basic() {
        let mut tree = BPlusTree::new(8, 8);
        for k in 0..100u64 {
            tree.insert(k, k);
        }
        assert_eq!(tree.remove(&50), Some(50));
        assert_eq!(tree.remove(&50), None);
        assert_eq!(tree.get(&50), None);
        assert_eq!(tree.len(), 99);
        check_order(&tree);
    }

    #[test]
    fn remove_everything() {
        let mut tree = BPlusTree::new(4, 4);
        for k in 0..500u64 {
            tree.insert(k, k);
        }
        for k in 0..500u64 {
            assert_eq!(tree.remove(&k), Some(k));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.iter().count(), 0);
        // Tree still functions after emptying.
        tree.insert(7, 7);
        assert_eq!(tree.get(&7), Some(&7));
    }

    #[test]
    fn get_mut_updates_value() {
        let mut tree = BPlusTree::new(8, 8);
        tree.insert(1u64, 10u64);
        *tree.get_mut(&1).unwrap() = 99;
        assert_eq!(tree.get(&1), Some(&99));
    }

    #[test]
    fn size_accounting_positive_and_monotone() {
        let small: Vec<(u64, u64)> = (0..100u64).map(|k| (k, k)).collect();
        let big: Vec<(u64, u64)> = (0..10_000u64).map(|k| (k, k)).collect();
        let t1 = BPlusTree::bulk_load(&small, 16, 16, 0.7);
        let t2 = BPlusTree::bulk_load(&big, 16, 16, 0.7);
        assert!(t1.index_size_bytes() > 0);
        assert!(t2.index_size_bytes() > t1.index_size_bytes());
        assert!(t2.data_size_bytes() > t1.data_size_bytes());
        // Data dwarfs index, as in any B+Tree.
        assert!(t2.data_size_bytes() > t2.index_size_bytes());
    }

    #[test]
    fn depth_grows_logarithmically() {
        let data: Vec<(u64, u64)> = (0..4096u64).map(|k| (k, k)).collect();
        let tree = BPlusTree::bulk_load(&data, 16, 16, 1.0);
        // 4096 keys / 16 per leaf = 256 leaves; fanout 16 -> 16 inners -> 1 root.
        assert_eq!(tree.depth(), 2);
    }
}
