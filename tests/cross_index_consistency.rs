//! Cross-crate integration tests: every backend must agree with
//! `std::collections::BTreeMap` — on **values**, not just membership —
//! on every workload the paper runs. All backends are driven through
//! the shared `alex-api` surface, so this suite also pins down that the
//! trait impls (not just the inherent APIs) are consistent.

use std::collections::BTreeMap;

use alex_repro::alex_api::IndexRead;
use alex_repro::alex_btree::BPlusTree;
use alex_repro::alex_core::{AlexConfig, AlexIndex};
use alex_repro::alex_datasets::{
    lognormal_keys, longitudes_keys, longlat_keys, sorted, ycsb_keys,
};
use alex_repro::alex_learned_index::LearnedIndex;
use alex_repro::alex_sharded::ShardedAlex;
use alex_repro::alex_workloads::LockedBTreeMap;

fn alex_variants() -> Vec<AlexConfig> {
    vec![
        AlexConfig::ga_srmi(32),
        AlexConfig::ga_armi().with_max_node_keys(1024),
        AlexConfig::pma_srmi(32),
        AlexConfig::pma_armi().with_max_node_keys(1024),
        AlexConfig::ga_armi().with_max_node_keys(512).with_splitting(),
    ]
}

fn check_dataset_u64(keys: Vec<u64>, name: &str) {
    let init_sorted = sorted(keys.clone());
    let data: Vec<(u64, u64)> = init_sorted.iter().map(|&k| (k, k ^ 0xABCD)).collect();
    let reference: BTreeMap<u64, u64> = data.iter().copied().collect();

    // Every non-ALEX backend, driven through the shared trait surface.
    let baselines: Vec<Box<dyn IndexRead<u64, u64>>> = vec![
        Box::new(BPlusTree::bulk_load(&data, 64, 64, 0.7)),
        Box::new(LearnedIndex::bulk_load(&data, 64)),
        Box::new(ShardedAlex::bulk_load(&data, 4, AlexConfig::ga_armi())),
        Box::new(LockedBTreeMap::from_pairs(&data)),
    ];
    for cfg in alex_variants() {
        let alex = AlexIndex::bulk_load(&data, cfg);
        for (i, &k) in init_sorted.iter().enumerate().step_by(7) {
            // Values, not membership: the payload must round-trip
            // through every backend.
            let expect = reference.get(&k).copied();
            assert_eq!(
                IndexRead::get(&alex, &k),
                expect,
                "{name}/{} key {k} (#{i})",
                cfg.variant_name()
            );
            for b in &baselines {
                assert_eq!(b.get(&k), expect, "{name}/{} key {k}", b.label());
            }
            // A key absent from the dataset must be absent everywhere.
            let miss = k ^ 1;
            if !reference.contains_key(&miss) {
                assert_eq!(IndexRead::get(&alex, &miss), None, "{name}/{}", cfg.variant_name());
                for b in &baselines {
                    assert_eq!(b.get(&miss), None, "{name}/{} miss {miss}", b.label());
                }
            }
        }
        // Full iteration agrees with the reference, values included.
        let alex_pairs: Vec<(u64, u64)> = alex.iter().map(|(k, v)| (*k, *v)).collect();
        let ref_pairs: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(alex_pairs, ref_pairs, "{name}/{} iteration", cfg.variant_name());
    }
    // Trait range scans agree with the reference across all backends.
    for b in &baselines {
        for &start in init_sorted.iter().step_by(997) {
            let got: Vec<(u64, u64)> = b.range_from(&start, 25).map(|e| (e.key, e.value)).collect();
            let expect: Vec<(u64, u64)> =
                reference.range(start..).take(25).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(got, expect, "{name}/{} scan from {start}", b.label());
        }
    }
}

#[test]
fn lognormal_dataset_consistency() {
    check_dataset_u64(lognormal_keys(30_000, 11), "lognormal");
}

#[test]
fn ycsb_dataset_consistency() {
    check_dataset_u64(ycsb_keys(30_000, 12), "ycsb");
}

#[test]
fn longitudes_dataset_consistency() {
    let keys = sorted(longitudes_keys(30_000, 13));
    let data: Vec<(f64, u64)> = keys.iter().map(|&k| (k, k.to_bits())).collect();
    let btree = BPlusTree::bulk_load(&data, 64, 64, 0.7);
    for cfg in alex_variants() {
        let alex = AlexIndex::bulk_load(&data, cfg);
        for &k in keys.iter().step_by(11) {
            assert_eq!(alex.get(&k), Some(&k.to_bits()), "{}", cfg.variant_name());
            assert_eq!(btree.get(&k), Some(&k.to_bits()));
        }
    }
}

#[test]
fn longlat_dataset_consistency() {
    // The non-linear stepped CDF is the hard case for learned indexes.
    let keys = sorted(longlat_keys(30_000, 14));
    let data: Vec<(f64, u64)> = keys.iter().map(|&k| (k, 7u64)).collect();
    for cfg in alex_variants() {
        let alex = AlexIndex::bulk_load(&data, cfg);
        assert_eq!(alex.len(), data.len());
        for &k in keys.iter().step_by(23) {
            assert_eq!(alex.get(&k), Some(&7), "{} key {k}", cfg.variant_name());
        }
    }
}

#[test]
fn interleaved_workload_agreement() {
    // Simulate the write-heavy workload on ALEX, B+Tree, and BTreeMap
    // simultaneously and require identical observable behaviour.
    let all = ycsb_keys(20_000, 99);
    let (init, inserts) = all.split_at(10_000);
    let init_sorted = sorted(init.to_vec());
    let data: Vec<(u64, u64)> = init_sorted.iter().map(|&k| (k, k)).collect();

    let mut alex = AlexIndex::bulk_load(&data, AlexConfig::ga_armi().with_max_node_keys(1024));
    let mut btree = BPlusTree::bulk_load(&data, 64, 64, 0.7);
    let mut reference: BTreeMap<u64, u64> = data.iter().copied().collect();

    for (i, &k) in inserts.iter().enumerate() {
        assert!(alex.insert(k, k).is_ok(), "alex insert {k}");
        assert!(btree.insert(k, k).is_none());
        reference.insert(k, k);
        if i % 97 == 0 {
            // Point reads of an existing and a missing key — compared
            // by value, through the trait surface.
            let probe = inserts[i / 2];
            let expect = reference.get(&probe).copied();
            assert_eq!(IndexRead::get(&alex, &probe), expect);
            assert_eq!(IndexRead::get(&btree, &probe), expect);
            // Short range scan from a random spot, keys and values.
            let start = init_sorted[(i * 31) % init_sorted.len()];
            let a: Vec<(u64, u64)> =
                IndexRead::range_from(&alex, &start, 20).map(|e| (e.key, e.value)).collect();
            let b: Vec<(u64, u64)> =
                IndexRead::range_from(&btree, &start, 20).map(|e| (e.key, e.value)).collect();
            let r: Vec<(u64, u64)> =
                reference.range(start..).take(20).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(a, r, "alex scan from {start}");
            assert_eq!(b, r, "btree scan from {start}");
        }
    }
    assert_eq!(alex.len(), reference.len());
    assert_eq!(btree.len(), reference.len());
}

#[test]
fn deletes_agree_with_reference() {
    let keys = sorted(lognormal_keys(10_000, 5));
    let data: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let mut alex = AlexIndex::bulk_load(&data, AlexConfig::pma_armi().with_max_node_keys(1024));
    let mut btree = BPlusTree::bulk_load(&data, 32, 32, 0.7);
    let mut reference: BTreeMap<u64, u64> = data.iter().copied().collect();

    for (i, &k) in keys.iter().enumerate() {
        if i % 3 == 0 {
            // Removes must return the evicted value on every backend.
            assert_eq!(alex.remove(&k), Some(k));
            assert_eq!(btree.remove(&k), Some(k));
            reference.remove(&k);
        }
    }
    assert_eq!(alex.len(), reference.len());
    for &k in keys.iter().step_by(13) {
        assert_eq!(alex.get(&k).copied(), reference.get(&k).copied());
        assert_eq!(btree.get(&k).copied(), reference.get(&k).copied());
    }
    let alex_keys: Vec<u64> = alex.iter().map(|(k, _)| *k).collect();
    let ref_keys: Vec<u64> = reference.keys().copied().collect();
    assert_eq!(alex_keys, ref_keys);
}

#[test]
fn remove_heavy_mixed_workload_agrees_with_btreemap() {
    // A remove-heavy mix (50% removes / 30% inserts / 20% point reads,
    // with a short scan every 64 ops) over every ALEX variant,
    // cross-checked op-for-op against `std::collections::BTreeMap`.
    // Removes deliberately target both present keys (drawn from the
    // loaded dataset) and absent ones, and re-insert previously removed
    // keys, exercising gap reclamation and PMA contraction paths.
    let all = sorted(lognormal_keys(12_000, 77));
    let (init, extra) = all.split_at(8_000);
    let data: Vec<(u64, u64)> = init.iter().map(|&k| (k, k.rotate_left(17))).collect();

    for cfg in alex_variants() {
        let mut alex = AlexIndex::bulk_load(&data, cfg);
        let mut reference: BTreeMap<u64, u64> = data.iter().copied().collect();

        // Deterministic op stream: cycle through present keys, absent
        // keys, and the extra pool, weighting removes heaviest.
        let name = cfg.variant_name();
        for step in 0..20_000usize {
            let pick = init[(step * 31) % init.len()];
            let absent = pick ^ 1;
            match step % 10 {
                // 50%: removes — alternate present-ish and absent keys.
                0 | 2 | 4 => {
                    assert_eq!(alex.remove(&pick), reference.remove(&pick), "{name}: remove {pick}");
                }
                6 | 8 => {
                    assert_eq!(alex.remove(&absent), reference.remove(&absent), "{name}: remove absent {absent}");
                }
                // 30%: inserts — fresh keys from the extra pool plus
                // re-insertion of keys removed earlier in the stream.
                // The payload is a pure function of the key on both
                // sides: ALEX rejects duplicate inserts while
                // `BTreeMap::insert` overwrites, so identical values
                // keep the two models in sync on duplicates.
                1 | 5 => {
                    let k = extra[(step * 13) % extra.len()];
                    assert_eq!(
                        alex.insert(k, k.rotate_left(17)).is_ok(),
                        reference.insert(k, k.rotate_left(17)).is_none(),
                        "{name}: insert {k}"
                    );
                }
                7 => {
                    assert_eq!(
                        alex.insert(pick, pick.rotate_left(17)).is_ok(),
                        reference.insert(pick, pick.rotate_left(17)).is_none(),
                        "{name}: re-insert {pick}"
                    );
                }
                // 20%: point reads of present and absent keys.
                3 | 9 => {
                    assert_eq!(alex.get(&pick), reference.get(&pick), "{name}: get {pick}");
                    assert_eq!(alex.get(&absent), reference.get(&absent), "{name}: get absent {absent}");
                }
                _ => unreachable!(),
            }
            if step % 64 == 0 {
                let got: Vec<u64> = alex.range_from(&pick, 15).map(|(k, _)| *k).collect();
                let expect: Vec<u64> = reference.range(pick..).take(15).map(|(k, _)| *k).collect();
                assert_eq!(got, expect, "{name}: scan from {pick} at step {step}");
            }
            assert_eq!(alex.len(), reference.len(), "{name}: len after step {step}");
        }

        // The survivors must match exactly, in order.
        let got: Vec<(u64, u64)> = alex.iter().map(|(k, v)| (*k, *v)).collect();
        let expect: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, expect, "{}: final iteration", cfg.variant_name());
    }
}

#[test]
fn index_size_ordering_matches_paper() {
    // §5.2.1: ALEX index is orders of magnitude smaller than B+Tree's
    // inner nodes and smaller than the Learned Index at comparable
    // throughput settings.
    let keys = sorted(ycsb_keys(100_000, 1));
    let data: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let alex = AlexIndex::bulk_load(&data, AlexConfig::ga_armi().with_max_node_keys(8192));
    let btree = BPlusTree::bulk_load(&data, 128, 128, 0.7);
    let li = LearnedIndex::bulk_load(&data, 10_000);

    let alex_size = alex.size_report().index_bytes;
    assert!(
        alex_size * 10 < btree.index_size_bytes(),
        "ALEX {} should be far below B+Tree {}",
        alex_size,
        btree.index_size_bytes()
    );
    assert!(
        alex_size < li.index_size_bytes(),
        "ALEX {} should be below Learned Index {}",
        alex_size,
        li.index_size_bytes()
    );
}
