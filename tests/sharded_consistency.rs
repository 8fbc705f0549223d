//! Consistency suite for the sharded concurrent front-end, whose
//! shards are lock-free `EpochAlex` indexes:
//!
//! 1. `ShardedAlex` must agree with `std::collections::BTreeMap` (and
//!    the other indexes, via the shared `alex-api` interface) on
//!    sequential workloads over the paper's datasets.
//! 2. Concurrent readers running against per-shard mutating writers
//!    must never observe a stable key missing, and the final state
//!    must match a `BTreeMap` that applied the same mutations.
//! 3. Property tests: the sorted-batch operations (`get_many`,
//!    `bulk_insert`) are observationally equivalent to their per-key
//!    counterparts, on both `AlexIndex` and `ShardedAlex`; and
//!    remove-then-reinsert of the same keys survives the leaf splits
//!    a burst of fresh inserts forces between the two.

use std::collections::BTreeMap;

use alex_repro::alex_core::{AlexConfig, AlexIndex};
use alex_repro::alex_datasets::{lognormal_keys, sorted, ycsb_keys};
use alex_repro::alex_api::{IndexRead, IndexWrite};
use alex_repro::alex_sharded::ShardedAlex;
use proptest::prelude::*;

// ----------------------------------------------------------------------
// 1. Sequential cross-checks via the alex-api write surface
// ----------------------------------------------------------------------

fn check_against_btreemap(keys: Vec<u64>, num_shards: usize, name: &str) {
    let init_sorted = sorted(keys);
    let (init, extra) = init_sorted.split_at(init_sorted.len() * 3 / 4);
    let data: Vec<(u64, u64)> = init.iter().map(|&k| (k, k ^ 0xF00D)).collect();
    let mut reference: BTreeMap<u64, u64> = data.iter().copied().collect();
    let mut index = ShardedAlex::bulk_load(&data, num_shards, AlexConfig::ga_armi());

    // Drive everything through the trait the workload driver uses —
    // value-returning `get`, not membership bools.
    let idx: &mut dyn IndexWrite<u64, u64> = &mut index;
    assert_eq!(idx.len(), reference.len(), "{name}");
    for (step, &k) in init.iter().enumerate().step_by(7) {
        assert_eq!(idx.get(&k), reference.get(&k).copied(), "{name} get {k}");
        let miss = k ^ 1;
        if !reference.contains_key(&miss) {
            assert_eq!(idx.get(&miss), None, "{name} phantom {miss}");
        }
        if step % 3 == 0 {
            let fresh = extra[(step / 3) % extra.len()];
            assert_eq!(
                idx.insert(fresh, fresh ^ 0xF00D).is_ok(),
                reference.insert(fresh, fresh ^ 0xF00D).is_none(),
                "{name} insert {fresh}"
            );
        }
        if step % 5 == 0 {
            let got: Vec<(u64, u64)> = idx.range_from(&k, 25).map(|e| (e.key, e.value)).collect();
            let expect: Vec<(u64, u64)> =
                reference.range(k..).take(25).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(got, expect, "{name} scan from {k}");
        }
        if step % 11 == 0 {
            // Removes through the trait return the evicted value.
            assert_eq!(idx.remove(&k), reference.remove(&k), "{name} remove {k}");
        }
    }
    assert_eq!(idx.len(), reference.len(), "{name} final len");
    assert!(idx.index_size_bytes() > 0, "{name}");
    assert!(idx.data_size_bytes() > 0, "{name}");
}

#[test]
fn sharded_matches_btreemap_on_lognormal() {
    for shards in [1, 3, 8] {
        check_against_btreemap(lognormal_keys(20_000, 21), shards, "lognormal");
    }
}

#[test]
fn sharded_matches_btreemap_on_ycsb() {
    for shards in [2, 5] {
        check_against_btreemap(ycsb_keys(20_000, 22), shards, "ycsb");
    }
}

#[test]
fn sharded_label_reports_shard_count() {
    let data: Vec<(u64, u64)> = (0..1000).map(|k| (k, k)).collect();
    let index = ShardedAlex::bulk_load(&data, 4, AlexConfig::ga_armi());
    assert_eq!(IndexRead::<u64, u64>::label(&index), "ShardedAlex[4]");
}

// ----------------------------------------------------------------------
// 2. Concurrent readers vs mutating writers
// ----------------------------------------------------------------------

#[test]
fn concurrent_readers_see_stable_keys_and_final_state_matches() {
    const N: u64 = 20_000;
    const WRITERS: u64 = 4;

    // Evens are loaded; writer t inserts odds with k % 4 == t and
    // removes evens with k % 8 == t — all write sets disjoint. Evens
    // with k % 8 >= 4 are never touched: readers assert on those.
    let data: Vec<(u64, u64)> = (0..N).map(|k| (k * 2, k)).collect();
    let index = ShardedAlex::bulk_load(&data, 4, AlexConfig::ga_armi());

    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let index = &index;
            s.spawn(move || {
                for k in 0..N {
                    if k % 4 == t {
                        assert!(index.insert(k * 2 + 1, k).is_ok(), "fresh odd {k}");
                    }
                    if k % 8 == t {
                        assert_eq!(index.remove(&(k * 2)), Some(k), "stable even {k}");
                    }
                }
            });
        }
        for _ in 0..2 {
            let index = &index;
            s.spawn(move || {
                for round in 0..3u64 {
                    for k in (0..N).filter(|k| k % 8 >= 4).step_by(13) {
                        assert_eq!(index.get(&(k * 2)), Some(k), "stable key {k} round {round}");
                    }
                    // Scans under mutation: results must stay sorted.
                    let mut last = None;
                    index.scan_from(&(N / 2), 200, |k, _| {
                        assert!(last.is_none_or(|p| p < *k), "scan out of order");
                        last = Some(*k);
                    });
                }
            });
        }
    });

    // Replay the same mutations on a BTreeMap and compare final state.
    let mut reference: BTreeMap<u64, u64> = data.iter().copied().collect();
    for k in 0..N {
        reference.insert(k * 2 + 1, k);
        if k % 8 < WRITERS {
            reference.remove(&(k * 2));
        }
    }
    assert_eq!(index.len(), reference.len());
    let mut got = Vec::with_capacity(reference.len());
    index.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
    let expect: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, expect, "final state diverged from the reference");
    assert_eq!(index.flush_retired(), 0, "retire lists drain at quiescence");
}

// ----------------------------------------------------------------------
// 3. Batch-op equivalence properties
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn get_many_equals_per_key_get(
        init in prop::collection::btree_set(0u64..5000, 1..400),
        queries in prop::collection::vec(0u64..6000, 0..300),
    ) {
        let data: Vec<(u64, u64)> = init.iter().map(|&k| (k, k * 3)).collect();
        let mut queries = queries;
        queries.sort_unstable();
        for cfg in [
            AlexConfig::ga_armi().with_max_node_keys(128),
            AlexConfig::pma_srmi(8),
        ] {
            let index = AlexIndex::bulk_load(&data, cfg);
            let batch = index.get_many(&queries);
            prop_assert_eq!(batch.len(), queries.len());
            for (q, got) in queries.iter().zip(&batch) {
                prop_assert_eq!(*got, index.get(q), "key {}", q);
            }
        }
    }

    #[test]
    fn bulk_insert_equals_per_key_insert(
        init in prop::collection::btree_set(0u64..4000, 1..300),
        incoming in prop::collection::btree_set(0u64..4000, 1..300),
    ) {
        let data: Vec<(u64, u64)> = init.iter().map(|&k| (k, k)).collect();
        let pairs: Vec<(u64, u64)> = incoming.iter().map(|&k| (k, k + 7)).collect();
        for cfg in [
            AlexConfig::ga_armi().with_max_node_keys(128),
            AlexConfig::ga_armi().with_max_node_keys(64).with_splitting(),
        ] {
            let mut batch = AlexIndex::bulk_load(&data, cfg);
            let mut serial = AlexIndex::bulk_load(&data, cfg);
            let n_batch = batch.bulk_insert(&pairs).expect("no sentinel in batch");
            let mut n_serial = 0;
            for (k, v) in &pairs {
                if serial.insert(*k, *v).is_ok() {
                    n_serial += 1;
                }
            }
            prop_assert_eq!(n_batch, n_serial);
            prop_assert_eq!(batch.len(), serial.len());
            let b: Vec<(u64, u64)> = batch.iter().map(|(k, v)| (*k, *v)).collect();
            let s: Vec<(u64, u64)> = serial.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(b, s);
        }
    }

    #[test]
    fn sharded_batch_ops_match_per_key(
        init in prop::collection::btree_set(0u64..4000, 2..300),
        incoming in prop::collection::btree_set(0u64..5000, 1..200),
        shards in 1usize..6,
    ) {
        let data: Vec<(u64, u64)> = init.iter().map(|&k| (k, k)).collect();
        let index = ShardedAlex::bulk_load(&data, shards, AlexConfig::ga_armi().with_max_node_keys(256));
        let queries: Vec<u64> = incoming.iter().copied().collect();
        for (q, got) in queries.iter().zip(index.get_many(&queries)) {
            prop_assert_eq!(got, index.get(q), "key {}", q);
        }
        let pairs: Vec<(u64, u64)> = incoming.iter().map(|&k| (k, k * 2)).collect();
        let inserted = index.bulk_insert(&pairs).expect("no sentinel in batch");
        let expect = incoming.iter().filter(|k| !init.contains(k)).count();
        prop_assert_eq!(inserted, expect);
        prop_assert_eq!(index.len(), init.union(&incoming).count());
    }

    /// Remove-then-reinsert of the same keys across a split boundary:
    /// between the remove and the reinsert, a burst of fresh inserts
    /// overfills the victims' leaves so split-on-insert replaces them
    /// (retire + publish). The reinserted keys must land with their
    /// *new* payloads and the whole state must match a `BTreeMap` that
    /// applied the same script.
    #[test]
    fn remove_then_reinsert_survives_split_boundary(
        init in prop::collection::btree_set(0u64..2000, 50..300),
        victims in prop::collection::vec(0usize..50, 1..20),
        shards in 1usize..5,
    ) {
        let data: Vec<(u64, u64)> = init.iter().map(|&k| (k * 8, k)).collect();
        let config = AlexConfig::ga_armi().with_max_node_keys(64).with_splitting();
        let index = ShardedAlex::bulk_load(&data, shards, config);
        let mut reference: BTreeMap<u64, u64> = data.iter().copied().collect();

        // Pick victim keys by rank (duplicates dedup via the map).
        let keys: Vec<u64> = data.iter().map(|(k, _)| *k).collect();
        let victim_keys: BTreeMap<u64, u64> = victims
            .iter()
            .map(|&r| keys[r % keys.len()])
            .map(|k| (k, k ^ 0xBEEF))
            .collect();

        // Phase 1: remove the victims.
        for &k in victim_keys.keys() {
            prop_assert_eq!(index.remove(&k), reference.remove(&k), "remove {}", k);
            prop_assert_eq!(index.get(&k), None, "removed key {} resurfaced", k);
        }

        // Phase 2: overfill the victims' neighbourhoods so their
        // leaves split (fresh keys interleave at +1..+7 offsets).
        for &k in victim_keys.keys() {
            for off in 1..8u64 {
                let fresh = k + off;
                let ok = index.insert(fresh, fresh).is_ok();
                prop_assert_eq!(ok, reference.insert(fresh, fresh).is_none(), "fresh {}", fresh);
            }
        }

        // Phase 3: reinsert the victims with new payloads — they
        // must route into the freshly split leaves.
        for (&k, &v) in &victim_keys {
            prop_assert!(index.insert(k, v).is_ok(), "reinsert {} after split", k);
            reference.insert(k, v);
            prop_assert_eq!(index.get(&k), Some(v), "reinserted payload {}", k);
        }

        prop_assert_eq!(index.len(), reference.len());
        let mut got = Vec::with_capacity(reference.len());
        index.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
        let expect: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, expect, "state diverged");
        prop_assert_eq!(index.flush_retired(), 0);
    }
}
