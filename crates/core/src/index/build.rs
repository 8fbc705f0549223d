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
//! ## Routing fits from running sums
//!
//! Algorithm 4 fits one partition-routing model per inner node, over
//! that node's range of the sorted keys. Each fit takes the
//! least-squares sums ([`LsqSums`]) at its range's two ends and costs
//! `O(1)`. `bulk_load`'s one pass over every key folds the root's end
//! sums, and the root's start sums are zero. A child range that
//! recurses gets its sums from a cursor that advances from its
//! parent's start sums, so each key is folded at most once per level
//! and the build holds no per-key array beside the leaves it builds.
//! Partitions are cut by [`partition_by_model`], the partitioner
//! splits use too.

use core::ops::Range;

use crate::config::RmiMode;
use crate::data_node::DataNode;
use crate::key::AlexKey;
use crate::model::{LinearModel, LsqSums};

use super::store::{InnerNode, LeafNode, Node, NodeId, NodeStore};
use super::AlexIndex;

/// Partitions given to each non-root inner node of an adaptive RMI.
const INNER_FANOUT: usize = 16;

impl<K: AlexKey, V: Clone + Default> AlexIndex<K, V> {
    /// Build the RMI for `pairs` according to the configured mode and
    /// wire the leaf chain. `sums` are the least-squares sums over all
    /// of `pairs`. Called once from `bulk_load`.
    pub(super) fn build(&mut self, pairs: &[(K, V)], sums: LsqSums) {
        self.root = match self.config.rmi {
            RmiMode::Static { num_leaf_nodes } => {
                self.build_static(pairs, &sums, num_leaf_nodes.max(1))
            }
            RmiMode::Adaptive { max_node_keys, .. } => {
                self.build_adaptive(pairs, LsqSums::default(), sums, max_node_keys.max(64), true)
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
    /// nodes. `sums` are the sums over all of `pairs`.
    fn build_static(&mut self, pairs: &[(K, V)], sums: &LsqSums, num_leaf_nodes: usize) -> NodeId {
        let fit = LsqSums::default().fit_partitions(sums, num_leaf_nodes);
        let model = monotone_route(fit, pairs, num_leaf_nodes);
        let parts = partition_by_model(pairs, &model, num_leaf_nodes);
        let mut children = Vec::with_capacity(num_leaf_nodes);
        for range in parts {
            children.push(self.push_leaf(&pairs[range]));
        }
        self.store.push(Node::Inner(InnerNode { model, children }))
    }

    /// Adaptive RMI initialization (Algorithm 4) over the global index
    /// range of `pairs` from `lo.end()` to `hi.end()`, the sums at its
    /// two ends.
    ///
    /// The root gets `ceil(n / max_node_keys)` partitions (so each holds
    /// `max_node_keys` in expectation); non-root inner nodes get
    /// [`INNER_FANOUT`]. Oversized partitions recurse; undersized adjacent
    /// partitions merge into shared leaf children.
    fn build_adaptive(
        &mut self,
        pairs: &[(K, V)],
        lo: LsqSums,
        hi: LsqSums,
        max_node_keys: usize,
        is_root: bool,
    ) -> NodeId {
        let offset = lo.end();
        let keys = &pairs[offset..hi.end()];
        let n = keys.len();
        if n <= max_node_keys {
            return self.push_leaf(keys);
        }
        let num_partitions = if is_root {
            n.div_ceil(max_node_keys).max(2)
        } else {
            INNER_FANOUT
        };
        let model = monotone_route(lo.fit_partitions(&hi, num_partitions), keys, num_partitions);
        // Partition ranges are relative to `keys`; `cursor` advances
        // from this range's start to the ends of each one that recurses.
        let parts = partition_by_model(keys, &model, num_partitions);
        let mut cursor = lo;
        let mut children = Vec::with_capacity(num_partitions);
        let mut i = 0usize;
        while i < parts.len() {
            let part = parts[i].clone();
            if part.len() > max_node_keys && part.len() < n {
                cursor.advance_to(pairs, offset + part.start);
                let start = cursor;
                cursor.advance_to(pairs, offset + part.end);
                let child = self.build_adaptive(pairs, start, cursor, max_node_keys, false);
                children.push(child);
                i += 1;
            } else if part.len() > max_node_keys {
                // Degenerate: the linear model routed every key to one
                // partition, so no linear refinement can make progress.
                // Accept an oversized leaf rather than recursing forever.
                let child = self.push_leaf(&keys[part]);
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
                let child = self.push_leaf(&keys[begin..end]);
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

/// Make a routing model over the sorted `pairs` monotone. Partitions
/// are cut with `partition_point` and lookups route with the same
/// model, so a negative (or NaN) slope files keys under one child and
/// looks them up under another. The closed-form least-squares fit can
/// produce one for sorted keys: on keys packed close together far from
/// zero, `n·Σx² − (Σx)²` cancels to rounding noise. Such a model falls
/// back to the line through the first and last key of `pairs`.
pub(super) fn monotone_route<K: AlexKey, V>(model: LinearModel, pairs: &[(K, V)], parts: usize) -> LinearModel {
    if model.slope >= 0.0 {
        return model;
    }
    let (first, last) = match (pairs.first(), pairs.last()) {
        (Some(a), Some(b)) => (a.0.as_f64(), b.0.as_f64()),
        _ => return LinearModel::default(),
    };
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

/// Fit a root model mapping keys to partition indices `[0, parts)`.
/// The split path's one-shot streaming fit over a freshly merged pair
/// list; bulk builds fit from [`LsqSums`] instead.
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
/// (`predict_clamped` into `[0, parts)`), relative to `pairs`. Sorted
/// input + clamping make the ranges contiguous even if the fitted slope
/// is degenerate. Bulk builds and splits both cut partitions here; the
/// binary search converts only the keys it probes.
pub(super) fn partition_by_model<K: AlexKey, V>(
    pairs: &[(K, V)],
    model: &LinearModel,
    parts: usize,
) -> Vec<Range<usize>> {
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
