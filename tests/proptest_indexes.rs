//! Property-based tests: random operation sequences against a
//! `BTreeMap` model, for every ALEX variant plus the B+Tree baseline,
//! and invariant checks on the §4 theory bounds.

use std::collections::BTreeMap;

use alex_repro::alex_btree::BPlusTree;
use alex_repro::alex_core::analysis::{
    base_slope, measure_direct_hits, theorem2_upper_bound, theorem3_lower_bound,
};
use alex_repro::alex_core::{AlexConfig, AlexIndex, EpochAlex};
use proptest::prelude::*;

/// A random index operation.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    Get(u64),
    Scan(u64, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Small key domain so operations collide often (duplicates, removes
    // of present keys, repeated inserts into the same region).
    let key = 0u64..2000;
    prop_oneof![
        4 => key.clone().prop_map(Op::Insert),
        2 => key.clone().prop_map(Op::Remove),
        3 => key.clone().prop_map(Op::Get),
        1 => (key, 1usize..50).prop_map(|(k, l)| Op::Scan(k, l)),
    ]
}

fn check_ops_against_model(cfg: AlexConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut alex: AlexIndex<u64, u64> = AlexIndex::new(cfg);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k) => {
                let inserted = alex.insert(k, k * 2).is_ok();
                let expected = model.insert(k, k * 2).is_none();
                prop_assert_eq!(inserted, expected, "insert {} ({})", k, cfg.variant_name());
            }
            Op::Remove(k) => {
                prop_assert_eq!(alex.remove(&k), model.remove(&k), "remove {}", k);
            }
            Op::Get(k) => {
                prop_assert_eq!(alex.get(&k), model.get(&k), "get {}", k);
            }
            Op::Scan(k, l) => {
                let got: Vec<u64> = alex.range_from(&k, l).map(|(k, _)| *k).collect();
                let expect: Vec<u64> = model.range(k..).take(l).map(|(k, _)| *k).collect();
                prop_assert_eq!(got, expect, "scan from {} limit {}", k, l);
            }
        }
        prop_assert_eq!(alex.len(), model.len());
    }
    // Final full iteration must match exactly.
    let got: Vec<(u64, u64)> = alex.iter().map(|(k, v)| (*k, *v)).collect();
    let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    prop_assert_eq!(got, expect);
    Ok(())
}

fn check_ops(cfg: AlexConfig, ops: Vec<Op>) -> Result<(), TestCaseError> {
    check_ops_against_model(cfg, &ops)
}

/// Drive [`EpochAlex`]'s shared (`&self`) write path — delta-buffered
/// copy-on-write with the given buffer capacity — against a `BTreeMap`
/// oracle. Tiny capacities (0, 1, 2) force a flush on almost every
/// write, so the buffer/flush boundary and tombstone re-insert paths
/// are crossed constantly. Every third scan issues inserts from inside
/// its own callback (into a reserved key band below the scanned
/// range), so later leaves are republished, flushed, and split while
/// the scan is mid-flight — its snapshot-based walk must not care.
/// Finally `into_inner` flushes all residue and the recovered
/// exclusive index must iterate (`range_from` order included) exactly
/// like the oracle.
fn check_epoch_ops(cap: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    /// Op keys live in `RESERVED..`; mid-scan inserts take keys below.
    const RESERVED: u64 = 4000;
    let cfg = AlexConfig::ga_armi()
        .with_max_node_keys(128)
        .with_splitting()
        .with_delta_buffer(cap);
    let index: EpochAlex<u64, u64> = EpochAlex::new(cfg);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut scans = 0u64;
    let mut next_reserved = 0u64;
    for op in ops {
        match *op {
            Op::Insert(k) => {
                let k = k + RESERVED;
                let inserted = index.insert(k, k * 2).is_ok();
                let expected = model.insert(k, k * 2).is_none();
                prop_assert_eq!(inserted, expected, "insert {} (cap {})", k, cap);
            }
            Op::Remove(k) => {
                let k = k + RESERVED;
                prop_assert_eq!(index.remove(&k), model.remove(&k), "remove {} (cap {})", k, cap);
            }
            Op::Get(k) => {
                let k = k + RESERVED;
                prop_assert_eq!(index.get(&k), model.get(&k).copied(), "get {} (cap {})", k, cap);
            }
            Op::Scan(k, l) => {
                let k = k + RESERVED;
                scans += 1;
                let inject = scans.is_multiple_of(3) && next_reserved < RESERVED;
                let expect: Vec<(u64, u64)> =
                    model.range(k..).take(l).map(|(k, v)| (*k, *v)).collect();
                let mut got = Vec::new();
                let mut injected: Option<u64> = None;
                index.scan_from(&k, l, |k, v| {
                    got.push((*k, *v));
                    if inject && injected.is_none() {
                        // Mid-scan write below the scanned range:
                        // forces flush/split churn under the scan.
                        index.insert(next_reserved, 7).unwrap();
                        injected = Some(next_reserved);
                    }
                });
                prop_assert_eq!(got, expect, "scan from {} limit {} (cap {})", k, l, cap);
                if let Some(res) = injected {
                    model.insert(res, 7);
                    next_reserved += 1;
                }
            }
        }
        prop_assert_eq!(index.len(), model.len());
    }
    // Recover the exclusive index: every pending buffer flushes; full
    // ordered iteration (RangeIter) must match the oracle exactly.
    let inner = index.into_inner();
    let got: Vec<(u64, u64)> = inner.iter().map(|(k, v)| (*k, *v)).collect();
    let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    prop_assert_eq!(got, expect, "recovered index diverged (cap {})", cap);
    if let Some((first, _)) = model.iter().next() {
        let tail: Vec<u64> = inner.range_from(first, 100).map(|(k, _)| *k).collect();
        let tail_expect: Vec<u64> = model.keys().take(100).copied().collect();
        prop_assert_eq!(tail, tail_expect);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alex_ga_armi_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_ops(AlexConfig::ga_armi().with_max_node_keys(256), ops)?;
    }

    #[test]
    fn alex_ga_armi_splitting_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_ops(AlexConfig::ga_armi().with_max_node_keys(128).with_splitting(), ops)?;
    }

    #[test]
    fn alex_pma_armi_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_ops(AlexConfig::pma_armi().with_max_node_keys(256), ops)?;
    }

    #[test]
    fn alex_ga_srmi_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_ops(AlexConfig::ga_srmi(8), ops)?;
    }

    #[test]
    fn alex_pma_srmi_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_ops(AlexConfig::pma_srmi(8), ops)?;
    }

    #[test]
    fn epoch_alex_tiny_delta_caps_match_btreemap(
        cap in 0usize..3,
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        // Capacities 0, 1, 2: near-constant flushes on the shared path.
        check_epoch_ops(cap, &ops)?;
    }

    #[test]
    fn epoch_alex_default_delta_cap_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_epoch_ops(32, &ops)?;
    }

    #[test]
    fn btree_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut tree: BPlusTree<u64, u64> = BPlusTree::new(8, 8);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k) => {
                    prop_assert_eq!(tree.insert(k, k), model.insert(k, k));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k), model.get(&k));
                }
                Op::Scan(k, l) => {
                    let got: Vec<u64> = tree.range_from(&k, l).map(|(k, _)| *k).collect();
                    let expect: Vec<u64> = model.range(k..).take(l).map(|(k, _)| *k).collect();
                    prop_assert_eq!(got, expect);
                }
            }
        }
    }

    #[test]
    fn bulk_load_then_lookup_everything(mut keys in prop::collection::btree_set(0u64..1_000_000, 1..2000)) {
        let data: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
        for cfg in [AlexConfig::ga_armi().with_max_node_keys(256), AlexConfig::pma_srmi(16)] {
            let index = AlexIndex::bulk_load(&data, cfg);
            for &k in keys.iter() {
                prop_assert_eq!(index.get(&k), Some(&k));
            }
            // One missing probe per present key's neighbourhood.
            if let Some(&max) = keys.iter().next_back() {
                if !keys.contains(&(max + 1)) {
                    prop_assert_eq!(index.get(&(max + 1)), None);
                }
            }
        }
        keys.clear();
    }

    #[test]
    fn theory_bounds_bracket_measurement(
        raw in prop::collection::btree_set(0u64..100_000, 3..300),
        c_idx in 0usize..4,
    ) {
        let keys: Vec<u64> = raw.into_iter().collect();
        let c = [1.0, 1.43, 2.0, 3.0][c_idx];
        let a = base_slope(&keys);
        prop_assume!(a > 0.0);
        let (hits, n) = measure_direct_hits(&keys, c);
        let upper = theorem2_upper_bound(&keys, a, c);
        let lower = theorem3_lower_bound(&keys, a, c).min(n);
        prop_assert!(hits <= upper, "hits {} > theorem-2 upper bound {}", hits, upper);
        prop_assert!(hits >= lower, "hits {} < theorem-3 lower bound {}", hits, lower);
    }
}

/// The `theory_bounds` bin's longitudes case at its documented size
/// (`--keys 20000`, seed 42): the least-squares fit sends the sparse
/// low tail below slot 0, where clamping piles it up, and both bounds
/// must still bracket the measured direct hits at every expansion
/// factor the bin sweeps.
#[test]
fn theory_bounds_bracket_longitudes_whose_fit_starts_below_slot_0() {
    use alex_repro::alex_core::LinearModel;
    use alex_repro::alex_datasets::{longitudes_keys, sorted};
    let keys = sorted(longitudes_keys(20_000, 42));
    let a = base_slope(&keys);
    let first = LinearModel::fit_keys(&keys).predict(keys[0]);
    assert!(first < 0.0, "the case needs a negative first prediction, got {first}");
    for c in [1.0, 1.43, 2.0, 4.0, 8.0] {
        let (hits, n) = measure_direct_hits(&keys, c);
        let upper = theorem2_upper_bound(&keys, a, c);
        let lower = theorem3_lower_bound(&keys, a, c).min(n);
        assert!(hits <= upper, "c={c}: hits {hits} > theorem-2 upper bound {upper}");
        assert!(hits >= lower, "c={c}: hits {hits} < theorem-3 lower bound {lower}");
    }
}
