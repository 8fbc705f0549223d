//! The storage layer: an arena of RMI nodes plus the doubly-linked
//! leaf chain, in one of two flavours.
//!
//! [`NodeStore`] is the *only* module that touches the node arena
//! directly. Everything above it — construction ([`super::build`]),
//! point/range operations ([`super::ops`]), and node splitting
//! ([`super::split`]) — goes through this narrow API, so storage
//! concerns (id allocation, publication, chain maintenance,
//! reclamation) stay in one place.
//!
//! The arena comes in two flavours, one per access regime; the regime,
//! not a configuration field, picks it:
//!
//! - **Dense** ([`Arena::Dense`]): nodes packed in a plain
//!   `Vec<Node>` with non-atomic ids. Descents index the vector
//!   directly — no atomic pointer hop, no epoch bookkeeping, best
//!   cache adjacency. All mutation requires `&mut self`
//!   ([`NodeStore::push_mut`] / [`NodeStore::publish_mut`]), so the
//!   borrow checker itself proves no reader can race a writer. The
//!   shared-regime (`&self`) writer methods panic on this flavour.
//!   Every `AlexIndex` builds here.
//! - **Epoch** ([`Arena::Epoch`]): each node behind an atomic
//!   pointer in an [`AtomicSlots`] arena, **never overwritten in
//!   place** on the shared path: [`NodeStore::publish`] installs a
//!   replacement node at the same id and *retires* the old one to the
//!   arena's epoch garbage list. This is what `EpochAlex`'s lock-free
//!   pinned readers require.
//!
//! The two regimes:
//!
//! - **Exclusive** (`&mut AlexIndex`): the classic single-threaded
//!   index, on the dense flavour. In-place mutation
//!   ([`NodeStore::leaf_mut`]) and unguarded reads are sound because
//!   no concurrent writer can exist. The `&mut` methods also work on
//!   the epoch flavour: `EpochAlex::into_inner` flushes deltas through
//!   [`NodeStore::leaf_mut`] before converting back.
//! - **Shared** (`EpochAlex`, every `ShardedAlex` shard): the epoch
//!   flavour, installed by [`NodeStore::ensure_epoch`] at wrap time.
//!   Writers serialize on a mutex and replace nodes only via
//!   [`NodeStore::publish`]; readers pin an epoch
//!   ([`NodeStore::pin`]) and descend wait-free. The slot at a given
//!   id only ever changes to a node covering the *same key range*
//!   (copy-on-write leaf, or the routing inner node a split leaves
//!   behind), so ids held in old snapshots always remain meaningful.
//!
//! [`NodeStore::ensure_epoch`] / [`NodeStore::ensure_dense`] convert
//! between the flavours by re-housing every node in id order (ids are
//! allocated sequentially in both, so they are preserved). Leaf bases
//! are `Arc`-shared, making the conversion `O(nodes)` shallow moves or
//! clones — never a key-array copy.

use crate::data_node::DataNode;
use crate::epoch::{AtomicSlots, Collector, Guard};
use crate::key::AlexKey;
use crate::model::LinearModel;
use core::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use super::delta::DeltaBuf;

/// Node id in the arena.
pub(crate) type NodeId = u32;

/// An RMI node: inner model node or leaf data node.
///
/// Leaves are much larger than inner nodes, but a leaf's bulk (the
/// gapped array) lives behind its own `Arc`, so the enum itself stays
/// small in both arena flavours.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum Node<K, V> {
    Inner(InnerNode),
    Leaf(LeafNode<K, V>),
}

/// An inner node routes a key to `children[model.predict(key)]`.
/// Adjacent child slots may point to the same node (merged partitions,
/// Algorithm 4).
#[derive(Debug, Clone)]
pub(crate) struct InnerNode {
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
/// [`NodeStore::leaf_data_mut`], which flushes the delta and
/// `Arc::make_mut`s the base.
///
/// Chain pointers may be *stale* after a concurrent split: the
/// forward walk handles a `next` id whose slot now holds an inner node
/// by descending to its leftmost leaf (same key range, so the walk
/// stays ordered). `prev` is a write-side hint only — no read path
/// follows it.
#[derive(Debug, Clone)]
pub(crate) struct LeafNode<K, V> {
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

/// The two arena representations behind [`NodeStore`].
// A store holds exactly one `Arena` (never collections of them), so
// the Dense/Epoch size difference buys nothing — and boxing the epoch
// slots would put an extra pointer hop on the shared-regime read path.
#[allow(clippy::large_enum_variant)]
enum Arena<K, V> {
    /// Plain vector, exclusive regime only. Ids are indices.
    Dense(Vec<Node<K, V>>),
    /// Atomic-slot arena with its epoch clock, shared regime capable.
    Epoch {
        slots: AtomicSlots<Node<K, V>>,
        /// Epoch clock for this arena's readers and retire lists.
        collector: Collector,
    },
}

/// Arena storage for RMI nodes: id allocation, publication, the
/// doubly-linked leaf chain, and (epoch flavour) epoch-based
/// reclamation.
///
/// Exclusive writers allocate with [`NodeStore::push_mut`] and replace
/// with [`NodeStore::publish_mut`] (either flavour); shared writers —
/// mutex-serialized `&self`, epoch flavour only — use
/// [`NodeStore::push`] / [`NodeStore::publish`]. Ids are never reused,
/// and a published replacement always covers the same key range as its
/// predecessor.
pub(crate) struct NodeStore<K, V> {
    arena: Arena<K, V>,
    /// First leaf in key order (entry point for full iteration). May
    /// lag behind a head split; readers normalize by descending.
    /// Atomic in both flavours: it is a plain id, and keeping it
    /// atomic lets the shared regime move it through `&self`.
    head_leaf: AtomicU32,
}

impl<K, V> NodeStore<K, V> {
    /// An empty dense (exclusive-regime) store. The head leaf defaults
    /// to node 0; callers must push at least one leaf (or link a
    /// chain) before reading it.
    pub fn new_dense() -> Self {
        Self {
            arena: Arena::Dense(Vec::new()),
            head_leaf: AtomicU32::new(0),
        }
    }

    /// An empty epoch (shared-regime-capable) store.
    pub fn new_epoch() -> Self {
        Self {
            arena: Arena::Epoch {
                slots: AtomicSlots::new(),
                collector: Collector::new(),
            },
            head_leaf: AtomicU32::new(0),
        }
    }

    /// Whether this store is on the epoch arena (tests assert which
    /// arena a regime picked).
    #[cfg(test)]
    pub fn is_epoch(&self) -> bool {
        matches!(self.arena, Arena::Epoch { .. })
    }

    /// Convert a dense arena to the epoch flavour in place (no-op when
    /// already epoch). Nodes are *moved* in id order — sequential
    /// allocation in both flavours preserves every id, so the tree,
    /// the chain, and the head stay valid. Exclusive access required
    /// (`&mut self`), which is exactly the state the `EpochAlex`
    /// constructors have.
    pub fn ensure_epoch(&mut self) {
        if let Arena::Dense(nodes) = &mut self.arena {
            let drained = core::mem::take(nodes);
            let slots = AtomicSlots::new();
            for node in drained {
                slots.push(node);
            }
            self.arena = Arena::Epoch {
                slots,
                collector: Collector::new(),
            };
        }
    }
}

impl<K: Clone, V: Clone> NodeStore<K, V> {
    /// Convert an epoch arena to the dense flavour in place (no-op
    /// when already dense). Requires exclusive access with an empty
    /// retire list intent: callers (`EpochAlex::into_inner`) drain the
    /// retire list first. Nodes are shallow-cloned in id order (leaf
    /// bases are `Arc`-shared); dropping the old arena then releases
    /// its references, so the dense store ends up owning every base
    /// uniquely again.
    pub fn ensure_dense(&mut self) {
        if let Arena::Epoch { slots, .. } = &self.arena {
            let nodes: Vec<Node<K, V>> = slots.iter().cloned().collect();
            self.arena = Arena::Dense(nodes);
        }
    }
}

impl<K, V> NodeStore<K, V> {
    /// Pin the arena's epoch. Shared readers hold the returned guard
    /// across their whole descent; see the [`crate::epoch`] docs.
    ///
    /// # Panics
    /// Panics on a dense store — the dense flavour has no epoch clock
    /// and must never be read through the shared regime.
    #[inline]
    pub fn pin(&self) -> Guard<'_> {
        match &self.arena {
            Arena::Epoch { collector, .. } => collector.pin(),
            Arena::Dense(_) => unreachable!("dense arenas have no epoch clock to pin"),
        }
    }

    /// The arena's epoch collector (diagnostics; epoch flavour only).
    ///
    /// # Panics
    /// Panics on a dense store.
    #[inline]
    pub fn collector(&self) -> &Collector {
        match &self.arena {
            Arena::Epoch { collector, .. } => collector,
            Arena::Dense(_) => unreachable!("dense arenas have no epoch collector"),
        }
    }

    /// Allocate a node, returning its id (exclusive regime; either
    /// flavour).
    pub fn push_mut(&mut self, node: Node<K, V>) -> NodeId {
        match &mut self.arena {
            Arena::Dense(nodes) => {
                let id = nodes.len() as NodeId;
                nodes.push(node);
                id
            }
            Arena::Epoch { slots, .. } => slots.push(node),
        }
    }

    /// Allocate a node through `&self` (shared regime: the caller
    /// holds the index's writer mutex; epoch flavour only).
    ///
    /// # Panics
    /// Panics on a dense store — `&self` mutation of a plain `Vec`
    /// would be unsound; the exclusive regime uses
    /// [`NodeStore::push_mut`].
    pub fn push(&self, node: Node<K, V>) -> NodeId {
        match &self.arena {
            Arena::Epoch { slots, .. } => slots.push(node),
            Arena::Dense(_) => unreachable!("shared-regime push on a dense arena"),
        }
    }

    /// The id the next push will return. With a single writer this
    /// lets splits pre-compute child ids so fresh leaves can be pushed
    /// fully linked (no post-publication fix-up).
    #[inline]
    pub fn next_id(&self) -> NodeId {
        match &self.arena {
            Arena::Dense(nodes) => nodes.len() as NodeId,
            Arena::Epoch { slots, .. } => slots.len(),
        }
    }

    /// Replace the node at `id` (exclusive regime; either flavour).
    /// Dense stores overwrite in place and drop the old node
    /// immediately — `&mut self` proves nothing can still observe it.
    /// Epoch stores retire the old node exactly like
    /// [`NodeStore::publish`], keeping the reclamation counters
    /// meaningful across regimes.
    pub fn publish_mut(&mut self, id: NodeId, node: Node<K, V>) {
        match &mut self.arena {
            Arena::Dense(nodes) => nodes[id as usize] = node,
            Arena::Epoch { slots, collector } => slots.publish(id, node, collector),
        }
    }

    /// Replace the node at `id`, retiring the old node to the epoch
    /// garbage list (shared regime: the caller holds the index's
    /// writer mutex; epoch flavour only). The single atomic
    /// publication point: a split becomes visible to readers exactly
    /// when the routing inner node lands here.
    ///
    /// # Panics
    /// Panics on a dense store.
    pub fn publish(&self, id: NodeId, node: Node<K, V>) {
        match &self.arena {
            Arena::Epoch { slots, collector } => slots.publish(id, node, collector),
            Arena::Dense(_) => unreachable!("shared-regime publish on a dense arena"),
        }
    }

    /// Node access (shared regime: caller must be pinned; exclusive
    /// regime: always sound).
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node<K, V> {
        match &self.arena {
            Arena::Dense(nodes) => &nodes[id as usize],
            Arena::Epoch { slots, .. } => slots.get(id),
        }
    }

    /// Node access, mutably (exclusive regime only).
    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut Node<K, V> {
        match &mut self.arena {
            Arena::Dense(nodes) => &mut nodes[id as usize],
            Arena::Epoch { slots, .. } => slots.get_mut(id),
        }
    }

    /// The leaf at `id`.
    ///
    /// # Panics
    /// Panics if `id` refers to an inner node — only call where the
    /// caller *knows* the slot holds a leaf (exclusive regime, or the
    /// shared writer that is the only one publishing).
    #[inline]
    pub fn leaf(&self, id: NodeId) -> &LeafNode<K, V> {
        match self.node(id) {
            Node::Leaf(l) => l,
            Node::Inner(_) => unreachable!("expected leaf node"),
        }
    }

    /// The leaf at `id`, mutably (exclusive regime only — `&mut self`
    /// proves no concurrent reader or writer).
    ///
    /// # Panics
    /// Panics if `id` refers to an inner node.
    #[inline]
    pub fn leaf_mut(&mut self, id: NodeId) -> &mut LeafNode<K, V> {
        match self.node_mut(id) {
            Node::Leaf(l) => l,
            Node::Inner(_) => unreachable!("expected leaf node"),
        }
    }

    /// Number of allocated node slots (ids `0..node_count()` are
    /// occupied; ids are never reused).
    #[inline]
    pub fn node_count(&self) -> NodeId {
        self.next_id()
    }

    /// First leaf in key order. After a head split this may
    /// transiently (shared regime) name a slot that now holds an inner
    /// node; callers descend to its leftmost leaf.
    #[inline]
    pub fn head_leaf(&self) -> NodeId {
        self.head_leaf.load(Ordering::Acquire)
    }

    /// Move the chain head (writers only).
    #[inline]
    pub fn set_head(&self, id: NodeId) {
        self.head_leaf.store(id, Ordering::Release);
    }

    /// Iterate every node in the arena (allocation order).
    pub fn iter(&self) -> impl Iterator<Item = &Node<K, V>> {
        (0..self.node_count()).map(move |id| self.node(id))
    }

    /// Iterate every leaf in the arena (allocation order, *not* key
    /// order — use the chain for ordered traversal).
    pub fn leaves(&self) -> impl Iterator<Item = &LeafNode<K, V>> {
        self.iter().filter_map(|n| match n {
            Node::Leaf(l) => Some(l),
            Node::Inner(_) => None,
        })
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.leaves().count()
    }

    /// Wire the doubly-linked leaf chain through `order` (key order)
    /// and point the head at the first entry. Exclusive regime (bulk
    /// builds).
    ///
    /// # Panics
    /// Panics if `order` is empty.
    pub fn link_chain(&mut self, order: &[NodeId]) {
        for (i, &id) in order.iter().enumerate() {
            let prev = (i > 0).then(|| order[i - 1]);
            let next = order.get(i + 1).copied();
            let leaf = self.leaf_mut(id);
            leaf.prev = prev;
            leaf.next = next;
        }
        self.set_head(*order.first().expect("at least one leaf"));
    }

    // ------------------------------------------------------------------
    // Reclamation diagnostics (surfaced by `EpochAlex::epoch_stats`).
    // A dense arena frees replaced nodes immediately, so it reports a
    // permanently empty retire list rather than panicking — exclusive
    // tests and tooling may probe these on either flavour.
    // ------------------------------------------------------------------

    /// Retired-but-not-yet-freed node count (always 0 on dense).
    pub fn retired(&self) -> usize {
        match &self.arena {
            Arena::Dense(_) => 0,
            Arena::Epoch { slots, .. } => slots.retired(),
        }
    }

    /// Drive epochs forward until the retire list drains (or a pinned
    /// reader blocks progress); returns the nodes still pending
    /// (always 0 on dense — replacement drops are immediate).
    pub fn flush(&self) -> usize {
        match &self.arena {
            Arena::Dense(_) => 0,
            Arena::Epoch { slots, collector } => slots.flush(collector),
        }
    }

    /// Lifetime `(retired, freed)` counters (both 0 on dense).
    pub fn reclamation_totals(&self) -> (u64, u64) {
        match &self.arena {
            Arena::Dense(_) => (0, 0),
            Arena::Epoch { slots, .. } => slots.reclamation_totals(),
        }
    }
}

impl<K: AlexKey, V: Clone + Default> NodeStore<K, V> {
    /// Exclusive mutable access to the *base array* of the leaf at
    /// `id`: flushes any pending delta in place first (so in-place
    /// edits and the merged view stay coherent), then unshares the
    /// base if a published snapshot still holds it.
    ///
    /// # Panics
    /// Panics if `id` refers to an inner node.
    #[inline]
    pub fn leaf_data_mut(&mut self, id: NodeId) -> &mut DataNode<K, V> {
        let leaf = self.leaf_mut(id);
        leaf.flush_delta();
        Arc::make_mut(&mut leaf.data)
    }
}

impl<K: Clone, V: Clone> Clone for NodeStore<K, V> {
    /// Deep copy for the exclusive regime, preserving the arena
    /// flavour (a fresh arena — fresh epoch clock and empty retire
    /// list for the epoch flavour — with unshared base arrays). Must
    /// not race a writer — `Clone` on the shared wrapper is
    /// deliberately not provided.
    fn clone(&self) -> Self {
        let mut fresh = match self.arena {
            Arena::Dense(_) => Self::new_dense(),
            Arena::Epoch { .. } => Self::new_epoch(),
        };
        for node in self.iter() {
            fresh.push_mut(match node {
                Node::Inner(inner) => Node::Inner(inner.clone()),
                // Unshare the base array: the copy must never alias the
                // original's data (read counters, make_mut behaviour).
                Node::Leaf(l) => Node::Leaf(LeafNode {
                    data: Arc::new((*l.data).clone()),
                    delta: l.delta.clone(),
                    delta_net: l.delta_net,
                    prev: l.prev,
                    next: l.next,
                }),
            });
        }
        fresh.head_leaf.store(self.head_leaf(), Ordering::Relaxed);
        fresh
    }
}

impl<K, V> core::fmt::Debug for NodeStore<K, V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut s = f.debug_struct("NodeStore");
        match &self.arena {
            Arena::Dense(nodes) => s.field("mode", &"dense").field("nodes", &nodes.len()),
            Arena::Epoch { slots, collector } => s
                .field("mode", &"epoch")
                .field("nodes", &slots)
                .field("collector", &collector),
        }
        .field("head_leaf", &self.head_leaf())
        .finish()
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
        for mut store in [NodeStore::<u64, u64>::new_dense(), NodeStore::new_epoch()] {
            assert_eq!(store.next_id(), 0);
            let a = store.push_mut(leaf(&[(1, 1)]));
            let b = store.push_mut(leaf(&[(2, 2)]));
            assert_eq!((a, b), (0, 1));
            assert_eq!(store.next_id(), 2);
            assert_eq!(store.num_leaves(), 2);
        }
    }

    #[test]
    fn link_chain_wires_prev_next_and_head() {
        for mut store in [NodeStore::<u64, u64>::new_dense(), NodeStore::new_epoch()] {
            let ids: Vec<NodeId> = (0..3).map(|i| store.push_mut(leaf(&[(i, i)]))).collect();
            store.link_chain(&ids);
            assert_eq!(store.head_leaf(), ids[0]);
            assert_eq!(store.leaf(ids[0]).next, Some(ids[1]));
            assert_eq!(store.leaf(ids[1]).prev, Some(ids[0]));
            assert_eq!(store.leaf(ids[2]).next, None);
        }
    }

    #[test]
    fn publish_replaces_node_and_retires_old() {
        let store: NodeStore<u64, u64> = NodeStore::new_epoch();
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
        let mut store: NodeStore<u64, u64> = NodeStore::new_dense();
        let id = store.push_mut(leaf(&[(1, 1)]));
        store.publish_mut(id, leaf(&[(1, 2)]));
        assert_eq!(store.leaf(id).data.get(&1), Some(&2));
        // Dense replacement drops the old node immediately: the
        // diagnostics report a permanently clean arena.
        assert_eq!(store.retired(), 0);
        assert_eq!(store.flush(), 0);
        assert_eq!(store.reclamation_totals(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "shared-regime push on a dense arena")]
    fn dense_rejects_shared_push() {
        let store: NodeStore<u64, u64> = NodeStore::new_dense();
        store.push(leaf(&[(1, 1)]));
    }

    #[test]
    #[should_panic(expected = "dense arenas have no epoch clock")]
    fn dense_rejects_pin() {
        let store: NodeStore<u64, u64> = NodeStore::new_dense();
        let _ = store.pin();
    }

    #[test]
    fn pinned_reader_keeps_replaced_node_alive() {
        let store: NodeStore<u64, u64> = NodeStore::new_epoch();
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
        let store: NodeStore<u64, u64> = NodeStore::new_epoch();
        let id = store.push(leaf(&[(1, 1)]));
        store.publish(id, leaf(&[(1, 2)]));
        let copy = store.clone();
        assert!(copy.is_epoch());
        assert_eq!(copy.leaf(id).data.get(&1), Some(&2));
        assert_eq!(copy.retired(), 0, "clones start with an empty retire list");
        assert_eq!(copy.head_leaf(), store.head_leaf());

        let mut dense: NodeStore<u64, u64> = NodeStore::new_dense();
        let id = dense.push_mut(leaf(&[(3, 3)]));
        let copy = dense.clone();
        assert!(!copy.is_epoch());
        assert_eq!(copy.leaf(id).data.get(&3), Some(&3));
    }

    #[test]
    fn conversion_round_trip_preserves_ids_and_contents() {
        let mut store: NodeStore<u64, u64> = NodeStore::new_dense();
        let ids: Vec<NodeId> = (0..5u64).map(|i| store.push_mut(leaf(&[(i, i * 10)]))).collect();
        store.link_chain(&ids);
        store.ensure_epoch();
        assert!(store.is_epoch());
        // Epoch flavour serves the same tree under a pin.
        {
            let _guard = store.pin();
            for &id in &ids {
                assert_eq!(store.leaf(id).data.get(&u64::from(id)), Some(&(u64::from(id) * 10)));
            }
        }
        // Shared-regime writes now work.
        store.publish(ids[0], leaf(&[(0, 99)]));
        store.flush();
        store.ensure_dense();
        assert!(!store.is_epoch());
        assert_eq!(store.leaf(ids[0]).data.get(&0), Some(&99));
        assert_eq!(store.leaf(ids[1]).next, Some(ids[2]));
        assert_eq!(store.head_leaf(), ids[0]);
        assert_eq!(store.node_count(), 5);
        // The dense store owns every base uniquely again.
        for leaf in store.leaves() {
            assert_eq!(Arc::strong_count(&leaf.data), 1);
        }
    }

    #[test]
    fn ensure_is_idempotent() {
        let mut store: NodeStore<u64, u64> = NodeStore::new_dense();
        store.push_mut(leaf(&[(1, 1)]));
        store.ensure_dense();
        assert!(!store.is_epoch());
        store.ensure_epoch();
        store.ensure_epoch();
        assert!(store.is_epoch());
        assert_eq!(store.node_count(), 1);
    }
}
