//! The storage layer: an arena of RMI nodes plus the doubly-linked
//! leaf chain, in one store type per access regime.
//!
//! This is the *only* module that touches a node arena directly.
//! Everything above it — construction ([`super::build`]), point and
//! range operations ([`super::ops`]), and node splitting
//! ([`super::split`]) — goes through the store types, so storage
//! concerns (id allocation, publication, chain maintenance,
//! reclamation) stay in one place.
//!
//! The index is generic over its store, `AlexIndex<K, V, S>`, and the
//! store type *is* the regime:
//!
//! - **[`Dense`]** (the default, under every `AlexIndex<K, V>`): nodes
//!   packed in a plain `Vec` with sequential ids. Descents index the
//!   vector directly — no atomic pointer hop, no epoch bookkeeping.
//!   Every mutation takes `&mut self` ([`Dense::push`],
//!   [`Dense::publish`], [`Dense::leaf_mut`]), so the borrow checker
//!   proves no reader races a writer, and in-place edits and
//!   unguarded reads are sound.
//! - **[`Epoch`]** (under `EpochAlex`, hence every `ShardedAlex`
//!   shard): each node behind an atomic pointer in an [`AtomicSlots`]
//!   arena with its own epoch [`Collector`]. A reachable node is
//!   **never overwritten in place**: the mutex-serialized writer
//!   installs a replacement at the same id
//!   through `&self` ([`Epoch::publish`]) and the old node is retired
//!   to the arena's garbage list; readers pin an epoch
//!   ([`Epoch::pin`]) and descend wait-free. The slot at a given id
//!   only ever changes to a node covering the *same key range*
//!   (copy-on-write leaf, or the routing inner node a split leaves
//!   behind), so ids held in old snapshots always remain meaningful.
//!
//! The read path needs only what both stores share — node access by
//! id and the next id — which is the sealed [`NodeStore`] trait; the
//! read side of the index is written once over it. Neither store keeps
//! a chain head: splits keep the root's id and its first child always
//! owns the lowest keys, so the leftmost descent from the root is the
//! first leaf in key order. Writes are inherent methods of one store
//! type or the other, so a shared-regime write on a dense store, or an
//! in-place edit of an epoch arena, does not compile.
//!
//! [`Dense::into_epoch`] and [`Epoch::into_dense`] convert between the
//! two by re-housing every node in id order (ids are allocated
//! sequentially in both, so they are preserved). Leaf bases are
//! `Arc`-shared, making the conversion `O(nodes)` shallow moves or
//! clones — never a key-array copy.

use crate::data_node::DataNode;
use crate::epoch::{AtomicSlots, Collector, Guard};
use crate::key::AlexKey;
use crate::model::LinearModel;
use std::sync::Arc;

use super::delta::DeltaBuf;

/// Node id in the arena.
pub(crate) type NodeId = u32;

/// An RMI node: inner model node or leaf data node.
///
/// Leaves are much larger than inner nodes, but a leaf's bulk (the
/// gapped array) lives behind its own `Arc`, so the enum itself stays
/// small in both stores.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Node<K, V> {
    Inner(InnerNode),
    Leaf(LeafNode<K, V>),
}

/// An inner node routes a key to `children[model.predict(key)]`.
/// Adjacent child slots may point to the same node (merged partitions,
/// Algorithm 4).
#[derive(Debug, Clone)]
pub struct InnerNode {
    pub model: LinearModel,
    pub children: Vec<NodeId>,
}

/// A leaf: a data node plus its pending-edit delta buffer and its
/// position in the doubly-linked leaf chain used by range scans.
///
/// The base array sits behind an `Arc` so the shared write path can
/// publish a *shallow* leaf copy — new delta, same base — without
/// cloning the whole gapped array per write (`Clone` on this type is
/// therefore cheap by design; see [`super::delta`] for the merged-view
/// contract and lifecycle). Exclusive mutation goes through
/// [`Dense::leaf_data_mut`], which `Arc::make_mut`s the base; a dense
/// leaf never holds a delta.
///
/// Chain pointers may be *stale* after a concurrent split: the
/// forward walk handles a `next` id whose slot now holds an inner node
/// by descending to its leftmost leaf (same key range, so the walk
/// stays ordered). `prev` is a write-side hint only — no read path
/// follows it.
#[derive(Debug, Clone)]
pub struct LeafNode<K, V> {
    pub data: Arc<DataNode<K, V>>,
    pub delta: DeltaBuf<K, V>,
    /// Net live-key contribution of `delta` (+pending inserts,
    /// −tombstones), maintained by the writers so `live_keys` — the
    /// per-write split check — stays O(1) instead of re-walking the
    /// buffer. Cross-checked against a recount by the debug
    /// invariants.
    pub delta_net: isize,
    pub prev: Option<NodeId>,
    pub next: Option<NodeId>,
}

impl<K, V> LeafNode<K, V> {
    /// A leaf with an empty delta buffer owning `data` uniquely.
    pub fn new(data: DataNode<K, V>, prev: Option<NodeId>, next: Option<NodeId>) -> Self {
        Self {
            data: Arc::new(data),
            delta: DeltaBuf::default(),
            delta_net: 0,
            prev,
            next,
        }
    }
}

mod sealed {
    /// Closes [`super::NodeStore`] to the two store types of this
    /// module.
    pub trait Sealed {}

    impl<K, V> Sealed for super::Dense<K, V> {}
    impl<K, V> Sealed for super::Epoch<K, V> {}
}

/// The node store an [`AlexIndex`](super::AlexIndex) runs on, one type
/// per access regime: [`Dense`] for exclusive `&mut` ownership,
/// [`Epoch`] for lock-free readers beside one serialized writer (see
/// [`EpochAlex`](super::EpochAlex)).
///
/// The trait is sealed and carries only what the read path needs, so
/// the index's reads are written once over it; every write belongs to
/// one store type.
pub trait NodeStore<K, V>: sealed::Sealed {
    /// The node at `id`. Under the shared regime the caller must hold
    /// an epoch pin for as long as it uses the reference.
    fn node(&self, id: NodeId) -> &Node<K, V>;

    /// The id the next push will return; ids `0..next_id()` are
    /// occupied and never reused. With a single writer this lets
    /// splits pre-compute child ids so fresh leaves enter the store
    /// fully linked.
    fn next_id(&self) -> NodeId;

    /// The leaf at `id`.
    ///
    /// # Panics
    /// Panics if `id` holds an inner node — only call where the caller
    /// *knows* the slot holds a leaf (exclusive regime, or the shared
    /// writer that is the only one publishing).
    #[inline]
    fn leaf(&self, id: NodeId) -> &LeafNode<K, V> {
        match self.node(id) {
            Node::Leaf(l) => l,
            Node::Inner(_) => unreachable!("expected leaf node"),
        }
    }

    /// Every leaf in allocation order (*not* key order — use the chain
    /// for ordered traversal).
    fn leaves<'a>(&'a self) -> impl Iterator<Item = &'a LeafNode<K, V>>
    where
        K: 'a,
        V: 'a,
    {
        (0..self.next_id()).filter_map(move |id| match self.node(id) {
            Node::Leaf(l) => Some(l),
            Node::Inner(_) => None,
        })
    }
}

/// The exclusive-regime store under every `AlexIndex<K, V>`: nodes in
/// a plain vector, every write through `&mut`.
#[derive(Debug)]
pub struct Dense<K, V> {
    nodes: Vec<Node<K, V>>,
}

impl<K, V> NodeStore<K, V> for Dense<K, V> {
    #[inline]
    fn node(&self, id: NodeId) -> &Node<K, V> {
        &self.nodes[id as usize]
    }

    #[inline]
    fn next_id(&self) -> NodeId {
        self.nodes.len() as NodeId
    }
}

impl<K, V> Dense<K, V> {
    /// An empty store; callers push at least one leaf before reading.
    pub(crate) fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Allocate a node, returning its id.
    pub(crate) fn push(&mut self, node: Node<K, V>) -> NodeId {
        let id = self.next_id();
        self.nodes.push(node);
        id
    }

    /// Replace the node at `id` in place, dropping the old node at
    /// once — `&mut self` proves nothing can still observe it.
    pub(crate) fn publish(&mut self, id: NodeId, node: Node<K, V>) {
        self.nodes[id as usize] = node;
    }

    /// The leaf at `id`, mutably.
    ///
    /// # Panics
    /// Panics if `id` holds an inner node.
    #[inline]
    pub(crate) fn leaf_mut(&mut self, id: NodeId) -> &mut LeafNode<K, V> {
        match &mut self.nodes[id as usize] {
            Node::Leaf(l) => l,
            Node::Inner(_) => unreachable!("expected leaf node"),
        }
    }

    /// Wire the doubly-linked leaf chain through `order` (key order;
    /// bulk builds).
    pub(crate) fn link_chain(&mut self, order: &[NodeId]) {
        for (i, &id) in order.iter().enumerate() {
            let prev = (i > 0).then(|| order[i - 1]);
            let next = order.get(i + 1).copied();
            let leaf = self.leaf_mut(id);
            leaf.prev = prev;
            leaf.next = next;
        }
    }

    /// Move every node, in id order, into a fresh epoch arena with its
    /// own clock. Sequential allocation in both stores preserves every
    /// id, so the tree and the chain stay valid.
    pub(crate) fn into_epoch(self) -> Epoch<K, V> {
        let slots = AtomicSlots::new();
        for node in self.nodes {
            slots.push(node);
        }
        Epoch {
            slots,
            collector: Collector::new(),
        }
    }
}

impl<K: AlexKey, V: Clone + Default> Dense<K, V> {
    /// Exclusive mutable access to the *base array* of the leaf at
    /// `id`, unshared if anything else still holds it. A dense leaf
    /// never holds a delta (see [`super::delta`]'s lifecycle), so the
    /// base is the whole leaf.
    ///
    /// # Panics
    /// Panics if `id` holds an inner node, and (debug builds) if the
    /// leaf holds a delta.
    #[inline]
    pub(crate) fn leaf_data_mut(&mut self, id: NodeId) -> &mut DataNode<K, V> {
        let leaf = self.leaf_mut(id);
        debug_assert!(leaf.delta.is_empty(), "a dense leaf never holds a delta");
        Arc::make_mut(&mut leaf.data)
    }
}

impl<K: Clone, V: Clone> Clone for Dense<K, V> {
    /// Deep copy with unshared base arrays: the copy must never alias
    /// the original's data (read counters, `make_mut` behaviour).
    fn clone(&self) -> Self {
        let nodes = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Inner(inner) => Node::Inner(inner.clone()),
                Node::Leaf(l) => Node::Leaf(LeafNode {
                    data: Arc::new((*l.data).clone()),
                    delta: l.delta.clone(),
                    delta_net: l.delta_net,
                    prev: l.prev,
                    next: l.next,
                }),
            })
            .collect();
        Self { nodes }
    }
}

/// The shared-regime store under every [`EpochAlex`](super::EpochAlex):
/// nodes behind epoch-protected atomic slots, replaced only by
/// publication.
#[derive(Debug)]
pub struct Epoch<K, V> {
    slots: AtomicSlots<Node<K, V>>,
    /// Epoch clock for this arena's readers and retire list.
    collector: Collector,
}

impl<K, V> NodeStore<K, V> for Epoch<K, V> {
    #[inline]
    fn node(&self, id: NodeId) -> &Node<K, V> {
        self.slots.get(id)
    }

    #[inline]
    fn next_id(&self) -> NodeId {
        self.slots.len()
    }
}

impl<K, V> Epoch<K, V> {
    /// Pin the arena's epoch. Shared readers hold the returned guard
    /// across their whole descent; see the [`crate::epoch`] docs.
    #[inline]
    pub(crate) fn pin(&self) -> Guard<'_> {
        self.collector.pin()
    }

    /// The arena's epoch collector (diagnostics).
    #[inline]
    pub(crate) fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Allocate a node, returning its id. The caller holds the index's
    /// writer mutex.
    pub(crate) fn push(&self, node: Node<K, V>) -> NodeId {
        self.slots.push(node)
    }

    /// Replace the node at `id`, retiring the old node to the epoch
    /// garbage list. The caller holds the index's writer mutex. The
    /// single atomic publication point: a split becomes visible to
    /// readers exactly when the routing inner node lands here.
    pub(crate) fn publish(&self, id: NodeId, node: Node<K, V>) {
        self.slots.publish(id, node, &self.collector);
    }

    /// Retired-but-not-yet-freed node count.
    pub(crate) fn retired(&self) -> usize {
        self.slots.retired()
    }

    /// Drive epochs forward until the retire list drains (or a pinned
    /// reader blocks progress); returns the nodes still pending.
    pub(crate) fn flush(&self) -> usize {
        self.slots.flush(&self.collector)
    }

    /// Lifetime `(retired, freed)` counters.
    pub(crate) fn reclamation_totals(&self) -> (u64, u64) {
        self.slots.reclamation_totals()
    }
}

impl<K: Clone, V: Clone> Epoch<K, V> {
    /// Copy every node, in id order, into a dense store. The copies
    /// are shallow (leaf bases are `Arc`-shared); dropping the arena at
    /// the end of this call frees it and its retire list and releases
    /// their references, so the dense store owns every base uniquely
    /// again.
    pub(crate) fn into_dense(self) -> Dense<K, V> {
        Dense {
            nodes: self.slots.iter().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NodeLayout, NodeParams};

    fn leaf(pairs: &[(u64, u64)]) -> Node<u64, u64> {
        Node::Leaf(LeafNode::new(
            DataNode::bulk_load(pairs, NodeLayout::Gapped, NodeParams::default()),
            None,
            None,
        ))
    }

    #[test]
    fn push_allocates_sequential_ids_in_both_flavours() {
        let mut dense: Dense<u64, u64> = Dense::new();
        assert_eq!(dense.next_id(), 0);
        let a = dense.push(leaf(&[(1, 1)]));
        let b = dense.push(leaf(&[(2, 2)]));
        assert_eq!((a, b), (0, 1));
        assert_eq!(dense.next_id(), 2);
        assert_eq!(dense.leaves().count(), 2);

        let epoch: Epoch<u64, u64> = Dense::new().into_epoch();
        assert_eq!(epoch.next_id(), 0);
        let a = epoch.push(leaf(&[(1, 1)]));
        let b = epoch.push(leaf(&[(2, 2)]));
        assert_eq!((a, b), (0, 1));
        assert_eq!(epoch.next_id(), 2);
        assert_eq!(epoch.leaves().count(), 2);
    }

    #[test]
    fn link_chain_wires_prev_next_and_head() {
        let mut store: Dense<u64, u64> = Dense::new();
        let ids: Vec<NodeId> = (0..3).map(|i| store.push(leaf(&[(i, i)]))).collect();
        store.link_chain(&ids);
        // The head is the one leaf without a predecessor.
        assert_eq!(store.leaf(ids[0]).prev, None);
        assert_eq!(store.leaf(ids[0]).next, Some(ids[1]));
        assert_eq!(store.leaf(ids[1]).prev, Some(ids[0]));
        assert_eq!(store.leaf(ids[2]).next, None);
        // The epoch store serves the same chain.
        let store = store.into_epoch();
        assert_eq!(store.leaf(ids[0]).prev, None);
        assert_eq!(store.leaf(ids[0]).next, Some(ids[1]));
        assert_eq!(store.leaf(ids[1]).prev, Some(ids[0]));
        assert_eq!(store.leaf(ids[2]).next, None);
    }

    #[test]
    fn publish_replaces_node_and_retires_old() {
        let store: Epoch<u64, u64> = Dense::new().into_epoch();
        let id = store.push(leaf(&[(1, 1), (2, 2)]));
        store.publish(
            id,
            Node::Inner(InnerNode {
                model: LinearModel::default(),
                children: vec![7, 8],
            }),
        );
        match store.node(id) {
            Node::Inner(inner) => assert_eq!(inner.children, vec![7, 8]),
            Node::Leaf(_) => panic!("publication must be visible immediately"),
        }
        // The replaced leaf sits on the retire list until epochs turn.
        let (retired, _) = store.reclamation_totals();
        assert_eq!(retired, 1);
        assert_eq!(store.flush(), 0, "no pinned readers: retire list drains");
        let (retired, freed) = store.reclamation_totals();
        assert_eq!(retired, freed);
    }

    #[test]
    fn dense_publish_mut_replaces_in_place() {
        let mut store: Dense<u64, u64> = Dense::new();
        let id = store.push(leaf(&[(1, 1)]));
        store.publish(id, leaf(&[(1, 2)]));
        assert_eq!(store.leaf(id).data.get(&1), Some(&2));
    }

    #[test]
    fn pinned_reader_keeps_replaced_node_alive() {
        let store: Epoch<u64, u64> = Dense::new().into_epoch();
        let id = store.push(leaf(&[(10, 100)]));
        let guard = store.pin();
        let snapshot = store.leaf(id);
        store.publish(id, leaf(&[(10, 200)]));
        // The pre-publication snapshot still reads its own contents.
        assert_eq!(snapshot.data.get(&10), Some(&100));
        // And the slot already serves the replacement.
        assert_eq!(store.leaf(id).data.get(&10), Some(&200));
        assert!(store.flush() > 0, "guard must block reclamation");
        drop(guard);
        assert_eq!(store.flush(), 0);
    }

    #[test]
    fn clone_is_deep_preserves_mode_and_starts_clean() {
        let mut dense: Dense<u64, u64> = Dense::new();
        let id = dense.push(leaf(&[(3, 3)]));
        let copy = dense.clone();
        assert_eq!(copy.leaf(id).data.get(&3), Some(&3));
        assert_eq!(Arc::strong_count(&copy.leaf(id).data), 1, "the copy shares no base");
    }

    #[test]
    fn conversion_round_trip_preserves_ids_and_contents() {
        let mut store: Dense<u64, u64> = Dense::new();
        let ids: Vec<NodeId> = (0..5u64).map(|i| store.push(leaf(&[(i, i * 10)]))).collect();
        store.link_chain(&ids);
        let store = store.into_epoch();
        // The epoch store serves the same tree under a pin.
        {
            let _guard = store.pin();
            for &id in &ids {
                assert_eq!(store.leaf(id).data.get(&u64::from(id)), Some(&(u64::from(id) * 10)));
            }
        }
        // Shared-regime writes now work.
        store.publish(ids[0], leaf(&[(0, 99)]));
        store.flush();
        let store = store.into_dense();
        assert_eq!(store.leaf(ids[0]).data.get(&0), Some(&99));
        assert_eq!(store.leaf(ids[1]).next, Some(ids[2]));
        assert_eq!(store.leaf(ids[0]).prev, None);
        assert_eq!(store.next_id(), 5);
        // The dense store owns every base uniquely again.
        for leaf in store.leaves() {
            assert_eq!(Arc::strong_count(&leaf.data), 1);
        }
    }
}
