//! Layout dispatch: a data node is either a Gapped Array or a PMA
//! (§3.3: "ALEX can be configured to run with either node layout").

use crate::config::{NodeLayout, NodeParams};
use crate::gapped::{GappedNode, InsertOutcome};
use crate::key::AlexKey;
use crate::pma_node::PmaNode;
use crate::stats::{ReadStats, WriteStats};

/// A leaf data node with one of the two flexible layouts.
#[derive(Debug, Clone)]
pub enum DataNode<K, V> {
    /// Gapped Array layout (§3.3.1).
    Gapped(GappedNode<K, V>),
    /// Packed Memory Array layout (§3.3.2).
    Pma(PmaNode<K, V>),
}

macro_rules! dispatch {
    ($self:expr, $node:ident => $body:expr) => {
        match $self {
            DataNode::Gapped($node) => $body,
            DataNode::Pma($node) => $body,
        }
    };
}

impl<K: AlexKey, V: Clone + Default> DataNode<K, V> {
    /// An empty node of the given layout.
    pub fn empty(layout: NodeLayout, params: NodeParams) -> Self {
        match layout {
            NodeLayout::Gapped => DataNode::Gapped(GappedNode::empty(params)),
            NodeLayout::Pma => DataNode::Pma(PmaNode::empty(params)),
        }
    }

    /// Bulk-load sorted pairs into a node of the given layout.
    pub fn bulk_load(pairs: &[(K, V)], layout: NodeLayout, params: NodeParams) -> Self {
        match layout {
            NodeLayout::Gapped => DataNode::Gapped(GappedNode::bulk_load(pairs, params)),
            NodeLayout::Pma => DataNode::Pma(PmaNode::bulk_load(pairs, params)),
        }
    }

    /// Number of keys stored.
    #[inline]
    pub fn num_keys(&self) -> usize {
        dispatch!(self, n => n.num_keys())
    }

    /// Slot capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        dispatch!(self, n => n.capacity())
    }

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        dispatch!(self, n => n.get(key))
    }

    /// Look up `key` mutably.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        dispatch!(self, n => n.get_mut(key))
    }

    /// Insert a pair.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> InsertOutcome {
        dispatch!(self, n => n.insert(key, value))
    }

    /// Remove `key`.
    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        dispatch!(self, n => n.remove(key))
    }

    /// First occupied slot with key `>= key`, or `capacity()`.
    #[inline]
    pub fn lower_bound_slot(&self, key: &K) -> usize {
        dispatch!(self, n => n.lower_bound_slot(key))
    }

    /// Visit up to `limit` occupied entries starting at `slot` in key
    /// order; returns the number visited.
    #[inline]
    pub fn scan_from_slot(&self, slot: usize, limit: usize, f: &mut impl FnMut(&K, &V)) -> usize {
        dispatch!(self, n => n.scan_from_slot(slot, limit, f))
    }

    /// Entry at an occupied slot.
    #[inline]
    pub fn entry_at(&self, slot: usize) -> (&K, &V) {
        dispatch!(self, n => n.entry_at(slot))
    }

    /// Next occupied slot strictly after `slot`.
    #[inline]
    pub fn next_occupied_after(&self, slot: usize) -> Option<usize> {
        dispatch!(self, n => n.next_occupied_after(slot))
    }

    /// First occupied slot, if any.
    #[inline]
    pub fn first_occupied(&self) -> Option<usize> {
        dispatch!(self, n => n.first_occupied())
    }

    /// Last occupied slot, if any.
    #[inline]
    pub fn last_occupied(&self) -> Option<usize> {
        dispatch!(self, n => n.last_occupied())
    }

    /// Largest stored key, if any.
    #[inline]
    pub fn max_key(&self) -> Option<&K> {
        self.last_occupied().map(|s| self.entry_at(s).0)
    }

    /// All pairs in key order.
    pub fn to_pairs(&self) -> Vec<(K, V)> {
        dispatch!(self, n => n.to_pairs())
    }

    /// |predicted − actual| per stored key.
    pub fn prediction_errors(&self) -> Vec<usize> {
        dispatch!(self, n => n.prediction_errors())
    }

    /// Whether the last (re)train flagged this node's model as
    /// degraded (uniform placement + binary-search hints): the key
    /// projection collapsed or the fit is noise, or — for a gapped node
    /// rebuilt by writes — model-based placement would have packed the
    /// keys into runs costing more shifts per insert than
    /// log2(capacity).
    #[inline]
    pub fn is_degraded(&self) -> bool {
        dispatch!(self, n => n.is_degraded())
    }

    /// The node's linear model (slope/intercept), for splitting.
    pub(crate) fn model(&self) -> crate::model::LinearModel {
        match self {
            DataNode::Gapped(n) => n.model,
            DataNode::Pma(n) => n.model,
        }
    }

    /// Data bytes (arrays incl. gaps + bitmap).
    pub fn data_size_bytes(&self) -> usize {
        dispatch!(self, n => n.data_size_bytes())
    }

    /// Write-side counters.
    pub fn write_stats(&self) -> &WriteStats {
        dispatch!(self, n => n.write_stats())
    }

    /// Read-side counters.
    pub fn read_stats(&self) -> &ReadStats {
        dispatch!(self, n => n.read_stats())
    }

    #[cfg(any(test, debug_assertions))]
    #[allow(dead_code)] // exercised by unit, integration, and property tests
    pub(crate) fn debug_assert_invariants(&self) {
        dispatch!(self, n => n.debug_assert_invariants())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    #[cfg(feature = "read-stats")]
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

    #[test]
    fn empty_nodes() {
        for layout in [NodeLayout::Gapped, NodeLayout::Pma] {
            let node: DataNode<u64, u64> = DataNode::empty(layout, NodeParams::default());
            assert_eq!(node.num_keys(), 0);
            assert_eq!(node.first_occupied(), None);
        }
    }
}
