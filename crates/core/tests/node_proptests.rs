//! Node-level property tests: random operation sequences against a
//! `BTreeMap` model directly on a `DataNode`, checking the slot-array
//! invariants after every mutation (via the index-free node API). These
//! hit the gap-key bookkeeping, shifting, expansion, and PMA rebalance
//! paths harder than the index-level tests because every operation
//! lands in the same node. Each property takes the node layout as an
//! input and runs on both: the `gapped_`/`pma_` test pairs fix it, and
//! the scan property checks both layouts in every case.

use std::collections::{BTreeMap, BTreeSet};

use alex_core::{DataNode, InsertOutcome, NodeLayout, NodeParams};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    Get(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let key = 0u64..500;
    prop::collection::vec(
        prop_oneof![
            5 => key.clone().prop_map(Op::Insert),
            2 => key.clone().prop_map(Op::Remove),
            3 => key.prop_map(Op::Get),
        ],
        1..600,
    )
}

/// A PMA node's capacity is a power of two after every operation.
fn capacity_ok(node: &DataNode<u64, u64>, layout: NodeLayout) -> bool {
    layout == NodeLayout::Gapped || node.capacity().is_power_of_two()
}

fn node_matches_btreemap(layout: NodeLayout, ops: &[Op]) -> TestCaseResult {
    let mut node: DataNode<u64, u64> = DataNode::empty(layout, NodeParams::default());
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k) => {
                let inserted = matches!(node.insert(k, k * 3), InsertOutcome::Inserted { .. });
                prop_assert_eq!(inserted, model.insert(k, k * 3).is_none());
            }
            Op::Remove(k) => {
                prop_assert_eq!(node.remove(&k), model.remove(&k));
            }
            Op::Get(k) => {
                prop_assert_eq!(node.get(&k), model.get(&k));
            }
        }
        prop_assert_eq!(node.num_keys(), model.len());
        prop_assert!(capacity_ok(&node, layout), "{:?} capacity {}", layout, node.capacity());
    }
    let pairs: Vec<(u64, u64)> = node.to_pairs();
    let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    prop_assert_eq!(pairs, expect);
    Ok(())
}

fn bulk_load_any_key_set(layout: NodeLayout, keys: &BTreeSet<u64>) -> TestCaseResult {
    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let node = DataNode::bulk_load(&pairs, layout, NodeParams::default());
    prop_assert_eq!(node.num_keys(), pairs.len());
    prop_assert!(capacity_ok(&node, layout), "{:?} capacity {}", layout, node.capacity());
    for &k in keys {
        prop_assert_eq!(node.get(&k), Some(&k));
    }
    prop_assert_eq!(node.to_pairs(), pairs);
    Ok(())
}

fn scan_matches_model(layout: NodeLayout, keys: &BTreeSet<u64>, start: u64, limit: usize) -> TestCaseResult {
    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let node = DataNode::bulk_load(&pairs, layout, NodeParams::default());
    let slot = node.lower_bound_slot(&start);
    let mut got = Vec::new();
    node.scan_from_slot(slot, limit, &mut |k, _| got.push(*k));
    let expect: Vec<u64> = keys.range(start..).take(limit).copied().collect();
    prop_assert_eq!(got, expect, "{:?}", layout);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gapped_node_matches_btreemap(ops in ops()) {
        node_matches_btreemap(NodeLayout::Gapped, &ops)?;
    }

    #[test]
    fn pma_node_matches_btreemap(ops in ops()) {
        node_matches_btreemap(NodeLayout::Pma, &ops)?;
    }

    #[test]
    fn gapped_bulk_load_any_key_set(keys in prop::collection::btree_set(0u64..1_000_000_000, 1..800)) {
        bulk_load_any_key_set(NodeLayout::Gapped, &keys)?;
    }

    #[test]
    fn pma_bulk_load_any_key_set(keys in prop::collection::btree_set(0u64..1_000_000_000, 1..800)) {
        bulk_load_any_key_set(NodeLayout::Pma, &keys)?;
    }

    #[test]
    fn gapped_scan_matches_model(
        keys in prop::collection::btree_set(0u64..10_000, 2..400),
        start in 0u64..10_000,
        limit in 0usize..50,
    ) {
        for layout in [NodeLayout::Gapped, NodeLayout::Pma] {
            scan_matches_model(layout, &keys, start, limit)?;
        }
    }
}
