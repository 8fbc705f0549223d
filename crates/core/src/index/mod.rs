//! The ALEX index: an RMI of linear models over flexible data nodes.
//!
//! Inner nodes route purely by model prediction (no comparisons until
//! the leaf, §3.2); leaves are [`crate::data_node::DataNode`]s. The RMI
//! is built either statically (two levels, fixed leaf count) or
//! adaptively (Algorithm 4), and can optionally split leaves on inserts
//! (§3.4.2).
//!
//! [`AlexIndex`] is generic over its node store, and the store type
//! names the access regime: [`Dense`], the default, for exclusive
//! `&mut` ownership, and [`Epoch`] for lock-free readers beside one
//! serialized writer, which only [`EpochAlex`] holds. The read path is
//! written once over the sealed [`NodeStore`] trait; bulk load, the
//! `&mut` writes and the iterators exist on the dense index only, the
//! copy-on-write writes on the epoch one only.
//!
//! The implementation is stratified into submodules with a strict
//! layering — only `store` touches a node arena:
//!
//! - `store` — the two store types and their trait: arena storage,
//!   `NodeId` allocation, publication and retirement, and the
//!   doubly-linked leaf chain.
//! - `build` — static/adaptive RMI construction (Algorithm 4), dense
//!   only.
//! - `ops` — point, range, and sorted-batch operations, with the one
//!   leaf-run router every sorted batch loops over.
//! - `split` — node splitting on inserts (§3.4.2): the one split check
//!   every insert path asks, and one plan over either store, applied in
//!   place on the dense store or as a single atomic publication on the
//!   epoch store, so concurrent readers never block.
//! - `concurrent` — [`EpochAlex`], the internally synchronized wrapper
//!   whose readers pin an epoch instead of taking any lock.

mod build;
mod concurrent;
mod delta;
mod ops;
mod split;
mod store;

#[cfg(test)]
mod tests;

use core::marker::PhantomData;
use core::mem::size_of;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::config::AlexConfig;
use crate::data_node::DataNode;
use crate::key::AlexKey;
use crate::model::LsqSums;
use crate::stats::{SizeReport, WriteStats};

pub use concurrent::{EpochAlex, EpochStats, EpochWriteStats};
pub(crate) use store::{LeafNode, Node, NodeId};
pub use store::{Dense, Epoch, NodeStore};
use store::InnerNode;

/// An updatable adaptive learned index (the paper's contribution).
///
/// `S` is the node store and names the access regime. Every public
/// constructor builds on [`Dense`], the exclusive regime this type's
/// `&mut` API serves; [`EpochAlex::from_index`] is the one way onto
/// [`Epoch`], and the index it holds there is never exposed.
///
/// # Examples
/// ```
/// use alex_core::{AlexConfig, AlexIndex};
///
/// let data: Vec<(u64, u64)> = (0..10_000).map(|k| (k * 2, k)).collect();
/// let mut index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi());
/// assert_eq!(index.get(&4000), Some(&2000));
/// index.insert(4001, 99).unwrap();
/// assert_eq!(index.get(&4001), Some(&99));
/// let scan: Vec<u64> = index.range_from(&3999, 3).map(|(k, _)| *k).collect();
/// assert_eq!(scan, vec![4000, 4001, 4002]);
/// ```
#[derive(Debug)]
pub struct AlexIndex<K, V, S = Dense<K, V>> {
    /// Storage layer: node arena + leaf chain. Only `store.rs` indexes
    /// the arena directly.
    store: S,
    root: NodeId,
    config: AlexConfig,
    /// Entry count. Atomic so the shared-write path ([`EpochAlex`])
    /// can maintain it through `&self`; the exclusive path uses plain
    /// relaxed updates.
    len: AtomicUsize,
    /// Index-level write counters (splits; node counters are summed on
    /// demand).
    splits: AtomicU64,
    /// The store owns the pairs; the marker lets `S`'s default,
    /// `Dense<K, V>`, name their types.
    pairs: PhantomData<(K, V)>,
}

impl<K: Clone, V: Clone> Clone for AlexIndex<K, V> {
    /// Deep copy: no base array is shared with the original.
    fn clone(&self) -> Self {
        Self {
            store: self.store.clone(),
            root: self.root,
            config: self.config,
            len: AtomicUsize::new(self.len.load(Ordering::Relaxed)),
            splits: AtomicU64::new(self.splits.load(Ordering::Relaxed)),
            pairs: PhantomData,
        }
    }
}

impl<K: AlexKey, V: Clone + Default> AlexIndex<K, V> {
    /// An empty index ("cold start": a single empty data node that
    /// grows by splitting, §3.4.2).
    pub fn new(config: AlexConfig) -> Self {
        let mut store = Dense::new();
        store.push(Node::Leaf(LeafNode::new(
            DataNode::empty(config.layout, config.node),
            None,
            None,
        )));
        Self {
            store,
            root: 0,
            config,
            len: AtomicUsize::new(0),
            splits: AtomicU64::new(0),
            pairs: PhantomData,
        }
    }

    /// Bulk-load from sorted, strictly-increasing pairs.
    ///
    /// Beside the leaves it builds, the load holds no array
    /// proportional to `pairs.len()`: each inner node's routing model is
    /// fit from running least-squares sums taken at its range's two
    /// ends, and one pass over the keys folds the root's.
    ///
    /// # Panics
    /// Panics if `pairs` contains the reserved [`alex_api::SentinelKey::MAX_KEY`]
    /// sentinel (gapped storage uses it for empty slots) or a NaN
    /// anywhere, and (debug builds) if `pairs` is not strictly
    /// increasing by key.
    pub fn bulk_load(pairs: &[(K, V)], config: AlexConfig) -> Self {
        // One pass over every key refuses the keys no index can store
        // and folds the root's routing-fit sums.
        let mut sums = LsqSums::default();
        for (k, _) in pairs {
            assert!(
                !k.is_sentinel(),
                "bulk_load: a key is the reserved MAX_KEY sentinel or a NaN; neither can be stored"
            );
            sums.push(k.as_f64());
        }
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load input must be strictly increasing"
        );
        let mut index = Self {
            store: Dense::new(),
            root: 0,
            config,
            len: AtomicUsize::new(pairs.len()),
            splits: AtomicU64::new(0),
            pairs: PhantomData,
        };
        index.build(pairs, sums);
        index
    }

    /// Fold every leaf's pending delta buffer into its base array.
    /// Only the shared write path buffers, so [`EpochAlex::into_inner`]
    /// is the one caller: the index it returns is always delta-free.
    pub(super) fn flush_deltas(&mut self) {
        for id in 0..self.store.next_id() {
            if matches!(self.store.node(id), Node::Leaf(_)) {
                self.store.leaf_mut(id).flush_delta();
            }
        }
    }

    #[cfg(any(test, debug_assertions))]
    #[allow(dead_code)] // exercised by unit, integration, and property tests
    pub(crate) fn debug_assert_invariants(&self) {
        let mut total = 0;
        for leaf in self.store.leaves() {
            leaf.data.debug_assert_invariants();
            leaf.debug_assert_delta_invariants();
            total += leaf.live_keys();
        }
        assert_eq!(total, self.len(), "len must equal sum of leaf key counts");
        // The chain must visit every key in order.
        let visited: Vec<K> = self.iter().map(|(k, _)| *k).collect();
        assert_eq!(visited.len(), self.len(), "chain must cover all keys");
        for w in visited.windows(2) {
            assert!(w[0] < w[1], "chain out of order");
        }
    }
}

impl<K, V, S> AlexIndex<K, V, S> {
    /// The same index on another store, built from this one's by `f`
    /// (the regime bridge [`EpochAlex`] crosses both ways).
    pub(super) fn rehouse<T>(self, f: impl FnOnce(S) -> T) -> AlexIndex<K, V, T> {
        AlexIndex {
            store: f(self.store),
            root: self.root,
            config: self.config,
            len: self.len,
            splits: self.splits,
            pairs: PhantomData,
        }
    }
}

impl<K: AlexKey, V: Clone + Default, S: NodeStore<K, V>> AlexIndex<K, V, S> {
    /// Number of keys stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configuration this index was built with.
    #[inline]
    pub fn config(&self) -> &AlexConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Depth of the RMI (0 = root is a leaf).
    pub fn depth(&self) -> usize {
        let mut d = 0;
        let mut id = self.root;
        loop {
            match self.store.node(id) {
                Node::Inner(inner) => {
                    id = inner.children[0];
                    d += 1;
                }
                Node::Leaf(_) => return d,
            }
        }
    }

    /// Number of data (leaf) nodes.
    pub fn num_data_nodes(&self) -> usize {
        self.store.leaves().count()
    }

    /// Number of data nodes that fell back to uniform placement +
    /// binary search at their last (re)train: their model could not
    /// separate the keys (locally constant `as_f64` projection — shared
    /// string prefixes, dense `u64`s past 2⁵³ — or a noise fit), or, at
    /// a gapped leaf's expansion or contraction, model-based placement
    /// would have packed the keys into long runs (a step-shaped CDF
    /// such as `longlat`'s under one linear model).
    pub fn degraded_leaves(&self) -> usize {
        self.store.leaves().filter(|l| l.data.is_degraded()).count()
    }

    /// Key counts per data node in key order (Figure 12 / Appendix B).
    pub fn leaf_sizes(&self) -> Vec<usize> {
        let mut order = Vec::new();
        self.collect_leaves(self.root, &mut order);
        order.iter().map(|&id| self.store.leaf(id).live_keys()).collect()
    }

    /// Aggregated write counters across all data nodes plus index-level
    /// splits.
    pub fn write_stats(&self) -> WriteStats {
        let mut total = WriteStats::default();
        for leaf in self.store.leaves() {
            total.absorb(leaf.data.write_stats());
        }
        total.splits += self.splits.load(Ordering::Relaxed);
        total
    }

    /// Aggregated read counters: `(lookups, comparisons, direct_hits)`.
    /// Only reads count: `get`, `contains_key` and `get_many` record
    /// each key a base array answers, and a write's own probes record
    /// nothing.
    pub fn read_stats(&self) -> (u64, u64, u64) {
        let mut lookups = 0;
        let mut comparisons = 0;
        let mut hits = 0;
        for leaf in self.store.leaves() {
            let r = leaf.data.read_stats();
            lookups += r.lookups();
            comparisons += r.comparisons();
            hits += r.direct_hits();
        }
        (lookups, comparisons, hits)
    }

    /// |predicted − actual| for every stored key (Figure 7).
    pub fn prediction_errors(&self) -> Vec<usize> {
        let mut errs = Vec::with_capacity(self.len());
        for leaf in self.store.leaves() {
            errs.extend(leaf.data.prediction_errors());
        }
        errs
    }

    /// Memory accounting per §5.1: index = models + pointers +
    /// metadata; data = key/payload arrays incl. gaps + bitmaps.
    pub fn size_report(&self) -> SizeReport {
        let mut report = SizeReport::default();
        for id in 0..self.store.next_id() {
            match self.store.node(id) {
                Node::Inner(inner) => {
                    report.num_inner_nodes += 1;
                    report.index_bytes += 2 * size_of::<f64>()
                        + inner.children.capacity() * size_of::<NodeId>()
                        + size_of::<InnerNode>();
                }
                Node::Leaf(l) => {
                    report.num_data_nodes += 1;
                    // Leaf model + chain pointers.
                    report.index_bytes += 2 * size_of::<f64>() + 2 * size_of::<Option<NodeId>>();
                    report.data_bytes += l.data.data_size_bytes() + l.delta.size_bytes();
                }
            }
        }
        report
    }
}
