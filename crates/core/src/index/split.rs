//! Node splitting on inserts (§3.4.2), planned once over either
//! store, applied per store type.
//!
//! Every insert path asks one question first,
//! [`AlexIndex::split_room`]: how many more keys the leaf can take
//! before split-on-insert must split it. At zero the leaf splits
//! before the insert; a batch run is cut at the room, so a batch
//! splits at the same moments as inserting key by key. A leaf no
//! model can split (its keys' `f64` projection is flat) takes the key
//! anyway, and the room then counts to its next retry point, so the
//! O(leaf) planning is paid once per doubling, not on every insert.
//!
//! A full leaf's model becomes an inner model routing to
//! [`SPLIT_FANOUT`] fresh leaves; data is redistributed by the
//! original model; no rebalancing. The split is factored into a
//! read-only **plan**, written once over [`NodeStore`], and an
//! **apply** per store type, so both regimes share the partitioning
//! logic:
//!
//! 1. [`AlexIndex::plan_split`] computes the routing model and builds
//!    the fresh leaves **fully linked** (their `prev`/`next` pointers
//!    are computed from pre-reserved ids before they enter the arena),
//!    so no node is ever mutated while reachable.
//! 2. The apply step pushes the children and then installs the routing
//!    inner node at the old leaf's id. On the epoch store this is
//!    [`Epoch::publish`] — the **single atomic publication point**:
//!    one atomic store flips every reader from the old leaf to the new
//!    subtree, and the old leaf is retired to the epoch garbage list.
//!    On the dense store it is a plain overwrite
//!    ([`super::Dense::publish`]), sound because `&mut self` proves no
//!    concurrent reader. The root keeps its id through every split,
//!    so the leftmost descent from it stays the chain's head.
//! 3. The predecessor's `next` is *healed* afterwards (in place on the
//!    dense store, copy-on-write on the epoch store). Readers that
//!    raced the heal and walked into the old id simply find the inner
//!    node and descend to its leftmost leaf — the replacement covers
//!    the same key range, so ordered scans stay ordered. The
//!    successor's `prev` is left stale: it is a write-side hint only,
//!    and planning corrects it by descending to the rightmost leaf
//!    under the id it names.

use core::sync::atomic::Ordering;

use crate::config::RmiMode;
use crate::data_node::DataNode;
use crate::key::AlexKey;
use crate::model::LinearModel;

use super::build::{monotone_route, partition_by_model, root_partition_model};
use super::store::{Epoch, InnerNode, LeafNode, Node, NodeId, NodeStore};
use super::AlexIndex;

/// Children created per split.
const SPLIT_FANOUT: usize = 4;

/// A fully-computed split, ready to apply: the routing model and the
/// fresh leaves, already chain-linked against the ids they will
/// receive (`base..base + children.len()`).
struct SplitPlan<K, V> {
    route: LinearModel,
    children: Vec<LeafNode<K, V>>,
    /// First child id — must equal `store.next_id()` at apply time
    /// (guaranteed: planning and applying happen under one writer).
    base: NodeId,
    /// The split leaf's chain predecessor, whose `next` the apply
    /// heals.
    prev: Option<NodeId>,
}

impl<K, V> SplitPlan<K, V> {
    /// The routing inner node that replaces the split leaf.
    fn routing_node(&self) -> Node<K, V> {
        Node::Inner(InnerNode {
            model: self.route,
            children: (0..self.children.len()).map(|i| self.base + i as NodeId).collect(),
        })
    }
}

impl<K: AlexKey, V: Clone + Default, S: NodeStore<K, V>> AlexIndex<K, V, S> {
    /// Plan a split of the leaf at `id`: partition its merged contents
    /// under a routing model and build the replacement leaves, linked
    /// against pre-reserved ids. Read-only on the arena — the caller
    /// must be the single writer so `next_id` stays stable until
    /// apply. Returns `None` if no model separates the keys.
    fn plan_split(&self, id: NodeId) -> Option<SplitPlan<K, V>> {
        let (pairs, old_model, capacity, prev, next) = {
            let l = self.store.leaf(id);
            // The *merged* view: any pending delta edits are folded
            // into the redistributed children, which start with empty
            // delta buffers.
            (
                l.to_pairs_merged(),
                l.data.model,
                l.data.capacity(),
                l.prev,
                l.next,
            )
        };
        // Rescale the leaf's slot-space model to child-index space.
        let scale = SPLIT_FANOUT as f64 / capacity.max(1) as f64;
        let mut route = monotone_route(old_model.scaled(scale), &pairs, SPLIT_FANOUT);
        let mut parts = partition_by_model(&pairs, &route, SPLIT_FANOUT);
        if parts.iter().any(|r| r.len() == pairs.len()) {
            // The inherited model routes everything to one child; retry
            // with a freshly fitted partition model before giving up.
            let fitted = root_partition_model(&pairs, SPLIT_FANOUT);
            route = monotone_route(fitted, &pairs, SPLIT_FANOUT);
            parts = partition_by_model(&pairs, &route, SPLIT_FANOUT);
            if parts.iter().any(|r| r.len() == pairs.len()) {
                return None;
            }
        }
        // Reserve ids so each child enters the arena already wired
        // into the chain (single writer ⇒ `next_id` is stable).
        let base = self.store.next_id();
        let count = parts.len();
        let child_id = |i: usize| base + i as NodeId;
        let children = parts
            .iter()
            .enumerate()
            .map(|(i, range)| {
                LeafNode::new(
                    DataNode::bulk_load(&pairs[range.clone()], self.config.layout, self.config.node),
                    if i == 0 { prev } else { Some(child_id(i - 1)) },
                    if i + 1 == count { next } else { Some(child_id(i + 1)) },
                )
            })
            .collect();
        Some(SplitPlan {
            route,
            children,
            base,
            prev,
        })
    }

    /// How many more keys the leaf `leaf` can take before
    /// split-on-insert must split it; zero means the next insert
    /// tries to split it first. Unbounded without split-on-insert.
    /// Counts the merged live keys, so a buffered edit counts like a
    /// stored one.
    ///
    /// A leaf grows past `max_node_keys` only when no model could
    /// split it. Its next try is then at the next retry point, each
    /// twice the last plus one (`m`, `2m + 1`, `4m + 3`, ...), so it
    /// is re-planned once per doubling. The points follow from the
    /// live count alone: nothing records the failure, and a leaf stays
    /// as small as before.
    pub(super) fn split_room(&self, leaf: &LeafNode<K, V>) -> usize {
        match self.config.rmi {
            RmiMode::Adaptive {
                max_node_keys,
                split_on_insert: true,
            } => {
                let live = leaf.live_keys();
                let mut retry_at = max_node_keys;
                while retry_at < live {
                    retry_at = retry_at.saturating_mul(2).saturating_add(1);
                }
                retry_at - live
            }
            _ => usize::MAX,
        }
    }
}

impl<K: AlexKey, V: Clone + Default> AlexIndex<K, V> {
    /// Split the leaf at `id` into [`SPLIT_FANOUT`] children in place.
    /// Returns `false` when no linear model can separate the keys (the
    /// split would make no progress).
    pub(super) fn split_leaf(&mut self, id: NodeId) -> bool {
        let Some(plan) = self.plan_split(id) else {
            return false;
        };
        debug_assert_eq!(plan.base, self.store.next_id(), "ids must not move between plan and apply");
        let inner = plan.routing_node();
        for child in plan.children {
            self.store.push(Node::Leaf(child));
        }
        self.store.publish(id, inner);
        self.splits.fetch_add(1, Ordering::Relaxed);
        // Heal the predecessor in place — exclusive access means no
        // reader can observe the intermediate state.
        if let Some(p) = plan.prev {
            let (pid, _) = self.descend_last_leaf(p);
            self.store.leaf_mut(pid).next = Some(plan.base);
        }
        true
    }
}

impl<K: AlexKey, V: Clone + Default> AlexIndex<K, V, Epoch<K, V>> {
    /// Split the leaf at `id` under the shared regime: the caller is
    /// the single serialized writer; readers may be descending
    /// concurrently. Chain healing goes copy-on-write.
    pub(crate) fn split_leaf_shared(&self, id: NodeId) -> bool {
        let Some(plan) = self.plan_split(id) else {
            return false;
        };
        debug_assert_eq!(plan.base, self.store.next_id(), "ids must not move between plan and apply");
        let inner = plan.routing_node();
        for child in plan.children {
            self.store.push(Node::Leaf(child));
        }
        // The publication point: one atomic store makes the whole
        // subtree visible and retires the old leaf.
        self.store.publish(id, inner);
        self.splits.fetch_add(1, Ordering::Relaxed);
        // Heal the predecessor's forward pointer so scans reach the
        // new leaves directly instead of descending through the
        // retired slot's inner node. Readers holding the old
        // predecessor snapshot still work: they walk into `id`, find
        // the inner node, and descend. The clone here is shallow (the
        // base array is `Arc`-shared with the retiring snapshot; only
        // the chain pointer changes).
        if let Some(p) = plan.prev {
            let (pid, pleaf) = self.descend_last_leaf(p);
            debug_assert_eq!(pleaf.next, Some(id), "chain predecessor must point at the split leaf");
            let mut healed = pleaf.clone();
            healed.next = Some(plan.base);
            self.store.publish(pid, Node::Leaf(healed));
        }
        true
    }
}
