//! RMI construction: static two-level builds, adaptive initialization
//! (Algorithm 4), and the shared partition-model helpers.
//!
//! All node allocation goes through the store; this module owns the
//! *shape* of the tree (how partitions recurse, merge, and link into
//! the leaf chain) but never indexes the arena directly.
//!
//! Bulk builds are exclusive by definition, so they exist on the dense
//! index only and allocate with [`super::Dense::push`]; an index that
//! must serve shared readers is built here first and then moved onto
//! the epoch store by `EpochAlex::from_index`. Only the in-order leaf
//! walk ([`AlexIndex::collect_leaves`]) is written over either store.
//!
//! ## Cost-model caching
//!
//! Algorithm 4 fits a partition-routing model at every level of its
//! fanout recursion, and the naive formulation re-converts and re-sums
//! the same keys at each level — `O(n · depth)` float work. The build
//! instead computes one [`PrefixLsq`] cache up front (`O(n)`) and
//! threads global index *ranges* through the recursion: every
//! per-level model fit becomes an `O(1)` prefix-difference, and
//! partition boundary probing reuses the cached `f64` keys. The
//! `fig_probe` bench quantifies the resulting bulk-load speedup.

use core::ops::Range;

use crate::config::RmiMode;
use crate::data_node::DataNode;
use crate::key::AlexKey;
use crate::model::{LinearModel, PrefixLsq};

use super::store::{InnerNode, LeafNode, Node, NodeId, NodeStore};
use super::AlexIndex;

/// Partitions given to each non-root inner node of an adaptive RMI.
const INNER_FANOUT: usize = 16;

impl<K: AlexKey, V: Clone + Default> AlexIndex<K, V> {
    /// Build the RMI for `pairs`, whose keys `lsq` caches, according to
    /// the configured mode and wire the leaf chain. Called once from
    /// `bulk_load`.
    pub(super) fn build(&mut self, pairs: &[(K, V)], lsq: &PrefixLsq) {
        self.root = match self.config.rmi {
            RmiMode::Static { num_leaf_nodes } => {
                self.build_static(pairs, lsq, num_leaf_nodes.max(1))
            }
            RmiMode::Adaptive { max_node_keys, .. } => {
                self.build_adaptive(pairs, lsq, 0..pairs.len(), max_node_keys.max(64), true)
            }
        };
        self.link_leaves();
    }

    /// Allocate a fresh unlinked leaf bulk-loaded from `pairs`.
    pub(super) fn push_leaf(&mut self, pairs: &[(K, V)]) -> NodeId {
        self.store.push(Node::Leaf(LeafNode::new(
            DataNode::bulk_load(pairs, self.config.layout, self.config.node),
            None,
            None,
        )))
    }

    /// Two-level static RMI: a linear root over `num_leaf_nodes` data
    /// nodes.
    fn build_static(&mut self, pairs: &[(K, V)], lsq: &PrefixLsq, num_leaf_nodes: usize) -> NodeId {
        let model = cached_route(lsq, 0..pairs.len(), num_leaf_nodes);
        let parts = partition_by_cached_model(lsq, 0..pairs.len(), &model, num_leaf_nodes);
        let mut children = Vec::with_capacity(num_leaf_nodes);
        for range in parts {
            children.push(self.push_leaf(&pairs[range]));
        }
        self.store.push(Node::Inner(InnerNode { model, children }))
    }

    /// Adaptive RMI initialization (Algorithm 4) over the global index
    /// range `range` of `pairs`.
    ///
    /// The root gets `ceil(n / max_node_keys)` partitions (so each holds
    /// `max_node_keys` in expectation); non-root inner nodes get
    /// [`INNER_FANOUT`]. Oversized partitions recurse; undersized adjacent
    /// partitions merge into shared leaf children.
    fn build_adaptive(
        &mut self,
        pairs: &[(K, V)],
        lsq: &PrefixLsq,
        range: Range<usize>,
        max_node_keys: usize,
        is_root: bool,
    ) -> NodeId {
        let n = range.len();
        if n <= max_node_keys {
            return self.push_leaf(&pairs[range]);
        }
        let num_partitions = if is_root {
            n.div_ceil(max_node_keys).max(2)
        } else {
            INNER_FANOUT
        };
        let model = cached_route(lsq, range.clone(), num_partitions);
        let parts = partition_by_cached_model(lsq, range.clone(), &model, num_partitions);
        let mut children = Vec::with_capacity(num_partitions);
        let mut i = 0usize;
        while i < parts.len() {
            let part = parts[i].clone();
            if part.len() > max_node_keys && part.len() < n {
                let child = self.build_adaptive(pairs, lsq, part, max_node_keys, false);
                children.push(child);
                i += 1;
            } else if part.len() > max_node_keys {
                // Degenerate: the linear model routed every key to one
                // partition, so no linear refinement can make progress.
                // Accept an oversized leaf rather than recursing forever.
                let child = self.push_leaf(&pairs[part]);
                children.push(child);
                i += 1;
            } else {
                // Merge this partition with subsequent small partitions
                // until the accumulated size would exceed the bound.
                let begin = parts[i].start;
                let mut end = parts[i].end;
                let mut acc = part.len();
                let mut j = i + 1;
                while j < parts.len() && acc + parts[j].len() <= max_node_keys {
                    acc += parts[j].len();
                    end = parts[j].end;
                    j += 1;
                }
                let child = self.push_leaf(&pairs[begin..end]);
                for _ in i..j {
                    children.push(child);
                }
                i = j;
            }
        }
        self.store.push(Node::Inner(InnerNode { model, children }))
    }

    /// Wire the doubly-linked leaf chain in key order after a bulk
    /// build.
    fn link_leaves(&mut self) {
        let mut order = Vec::new();
        self.collect_leaves(self.root, &mut order);
        self.store.link_chain(&order);
    }
}

impl<K: AlexKey, V: Clone + Default, S: NodeStore<K, V>> AlexIndex<K, V, S> {
    /// In-order leaf ids (children slots may repeat a merged child).
    pub(super) fn collect_leaves(&self, id: NodeId, out: &mut Vec<NodeId>) {
        match self.store.node(id) {
            Node::Leaf(_) => out.push(id),
            Node::Inner(inner) => {
                let mut last: Option<NodeId> = None;
                for &c in &inner.children {
                    if last != Some(c) {
                        self.collect_leaves(c, out);
                        last = Some(c);
                    }
                }
            }
        }
    }
}

/// Make a routing model monotone. Partitions are cut with
/// `partition_point` and lookups route with the same model, so a
/// negative (or NaN) slope files keys under one child and looks them
/// up under another. The closed-form least-squares fit can produce one
/// for sorted keys: on keys packed close together far from zero,
/// `n·Σx² − (Σx)²` cancels to rounding noise. Such a model falls back
/// to the line through the first and last key of the range, `first`
/// and `last` as `f64`.
pub(super) fn monotone_route(model: LinearModel, first: f64, last: f64, parts: usize) -> LinearModel {
    if model.slope >= 0.0 {
        return model;
    }
    if last > first {
        let slope = parts as f64 / (last - first);
        LinearModel {
            slope,
            intercept: -slope * first,
        }
    } else {
        LinearModel::default()
    }
}

/// The monotone routing model over the global index range `range` of
/// the cached keys.
fn cached_route(lsq: &PrefixLsq, range: Range<usize>, parts: usize) -> LinearModel {
    let model = lsq.fit_partitions(range.clone(), parts);
    match &lsq.xs()[range] {
        [] => model,
        xs => monotone_route(model, xs[0], xs[xs.len() - 1], parts),
    }
}

/// Contiguous partition subranges of `range` under `model` routing,
/// probed against the cached `f64` keys (no per-key re-conversion).
/// Sorted input + clamping make the ranges contiguous even if the
/// fitted slope is degenerate.
fn partition_by_cached_model(
    lsq: &PrefixLsq,
    range: Range<usize>,
    model: &LinearModel,
    parts: usize,
) -> Vec<Range<usize>> {
    let xs = lsq.xs();
    let mut ranges = Vec::with_capacity(parts);
    let mut start = range.start;
    for p in 0..parts {
        // End of partition p: first key routed past p.
        let end = if p + 1 == parts {
            range.end
        } else {
            start
                + xs[start..range.end].partition_point(|&x| model.predict_clamped(x, parts) <= p)
        };
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Fit a root model mapping keys to partition indices `[0, parts)`.
/// The split path's one-shot equivalent of
/// [`PrefixLsq::fit_partitions`] — splits fit a single model over a
/// freshly merged pair list, so there is nothing to cache.
pub(super) fn root_partition_model<K: AlexKey, V>(pairs: &[(K, V)], parts: usize) -> LinearModel {
    let n = pairs.len();
    if n == 0 {
        return LinearModel::default();
    }
    LinearModel::fit(
        pairs
            .iter()
            .enumerate()
            .map(|(i, p)| (p.0.as_f64(), i as f64 * parts as f64 / n as f64)),
    )
}

/// Contiguous partition ranges of `pairs` under `model` routing
/// (`predict_clamped` into `[0, parts)`). Sorted input + clamping make
/// the ranges contiguous even if the fitted slope is degenerate.
pub(super) fn partition_by_model<K: AlexKey, V>(
    pairs: &[(K, V)],
    model: &LinearModel,
    parts: usize,
) -> Vec<core::ops::Range<usize>> {
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        // End of partition p: first pair routed past p.
        let end = if p + 1 == parts {
            pairs.len()
        } else {
            start
                + pairs[start..].partition_point(|(k, _)| model.predict_clamped(k.as_f64(), parts) <= p)
        };
        ranges.push(start..end);
        start = end;
    }
    ranges
}
