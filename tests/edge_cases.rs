//! Edge-case and stress tests: extreme configurations, degenerate
//! datasets, and failure-prone parameter corners.

use alex_repro::alex_api::{BatchOps, InsertError};
use alex_repro::alex_btree::BPlusTree;
use alex_repro::alex_core::{AlexConfig, AlexIndex, EpochAlex, NodeParams};
use alex_repro::alex_datasets::Payload;
use alex_repro::alex_learned_index::LearnedIndex;
use alex_repro::alex_sharded::ShardedAlex;
use alex_repro::alex_wal::tempdir::TempDir;
use alex_repro::alex_wal::{DurableAlex, WalOptions};

#[test]
fn single_key_index() {
    for cfg in [AlexConfig::ga_armi(), AlexConfig::pma_srmi(4)] {
        let mut index = AlexIndex::bulk_load(&[(42u64, 1u64)], cfg);
        assert_eq!(index.get(&42), Some(&1));
        assert_eq!(index.get(&41), None);
        assert_eq!(index.remove(&42), Some(1));
        assert!(index.is_empty());
        index.insert(42, 2).unwrap();
        assert_eq!(index.get(&42), Some(&2));
    }
}

#[test]
fn two_far_apart_keys() {
    // A huge key range with two keys: slopes near zero, heavy clamping.
    let data = vec![(0u64, 0u64), (u64::MAX / 2, 1u64)];
    let mut index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi());
    assert_eq!(index.get(&0), Some(&0));
    assert_eq!(index.get(&(u64::MAX / 2)), Some(&1));
    index.insert(u64::MAX / 4, 2).unwrap();
    assert_eq!(index.get(&(u64::MAX / 4)), Some(&2));
}

#[test]
fn adjacent_u64_keys_lose_f64_precision() {
    // Keys beyond 2^53 collide in f64 model space; correctness must
    // survive because search never trusts the conversion.
    let base = 1u64 << 60;
    let data: Vec<(u64, u64)> = (0..1000).map(|i| (base + i, i)).collect();
    for cfg in [AlexConfig::ga_armi().with_max_node_keys(128), AlexConfig::pma_armi()] {
        let index = AlexIndex::bulk_load(&data, cfg);
        for (k, v) in &data {
            assert_eq!(index.get(k), Some(v), "{} key {k}", cfg.variant_name());
        }
        assert_eq!(index.get(&(base + 1000)), None);
    }
}

#[test]
fn negative_float_keys() {
    let data: Vec<(f64, u64)> = (0..2000).map(|i| (i as f64 * 0.1 - 100.0, i)).collect();
    let mut index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi());
    assert_eq!(index.get(&-100.0), Some(&0));
    index.insert(-1e9, 777).unwrap();
    assert_eq!(index.get(&-1e9), Some(&777));
    let first: Vec<u64> = index.range_from(&f64::NEG_INFINITY, 1).map(|(_, v)| *v).collect();
    assert_eq!(first, vec![777]);
}

#[test]
fn extreme_density_params() {
    // Nearly-full nodes (tiny gaps) and nearly-empty nodes (huge gaps)
    // must both work.
    for overhead in [0.05, 10.0] {
        let cfg = AlexConfig::ga_armi()
            .with_max_node_keys(512)
            .with_node_params(NodeParams::with_space_overhead(overhead));
        let data: Vec<(u64, u64)> = (0..5000u64).map(|k| (k * 3, k)).collect();
        let mut index = AlexIndex::bulk_load(&data, cfg);
        for k in 0..2000u64 {
            index.insert(k * 3 + 1, k).unwrap();
        }
        assert_eq!(index.len(), 7000);
        for k in (0..2000u64).step_by(97) {
            assert_eq!(index.get(&(k * 3 + 1)), Some(&k));
        }
    }
}

#[test]
fn large_payloads() {
    // 80-byte YCSB payloads through every mutation path.
    type V = Payload<80>;
    let data: Vec<(u64, V)> = (0..3000u64).map(|k| (k * 2, V::from_seed(k))).collect();
    let mut index = AlexIndex::bulk_load(&data, AlexConfig::pma_armi().with_max_node_keys(512));
    for k in 0..3000u64 {
        index.insert(k * 2 + 1, V::from_seed(k + 1_000_000)).unwrap();
    }
    assert_eq!(index.get(&100), Some(&V::from_seed(50)));
    assert_eq!(index.get(&101), Some(&V::from_seed(1_000_050)));
    assert_eq!(index.remove(&101), Some(V::from_seed(1_000_050)));
    assert_eq!(index.update(&100, V::from_seed(9)), Some(V::from_seed(50)));
}

#[test]
fn duplicate_only_differs_by_payload() {
    let mut index = AlexIndex::bulk_load(&[(1u64, 1u64), (2, 2)], AlexConfig::ga_armi());
    assert!(index.insert(1, 999).is_err(), "duplicate key must be rejected regardless of payload");
    assert_eq!(index.get(&1), Some(&1));
}

#[test]
fn dense_then_sparse_key_regions() {
    // First half of keys densely packed (step 1), second half sparse
    // (step 1e12): one linear model cannot fit both regions.
    let mut keys: Vec<u64> = (0..5000u64).collect();
    keys.extend((1..5000u64).map(|i| 1_000_000 + i * 1_000_000_000_000));
    let data: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    for cfg in [
        AlexConfig::ga_armi().with_max_node_keys(512),
        AlexConfig::ga_srmi(64),
        AlexConfig::pma_armi().with_max_node_keys(512),
    ] {
        let index = AlexIndex::bulk_load(&data, cfg);
        for &k in keys.iter().step_by(37) {
            assert_eq!(index.get(&k), Some(&k), "{}", cfg.variant_name());
        }
    }
}

#[test]
fn repeated_insert_remove_same_key() {
    let mut index: AlexIndex<u64, u64> = AlexIndex::new(AlexConfig::ga_armi());
    for round in 0..200u64 {
        index.insert(7, round).unwrap();
        assert_eq!(index.get(&7), Some(&round));
        assert_eq!(index.remove(&7), Some(round));
        assert_eq!(index.get(&7), None);
    }
    assert!(index.is_empty());
}

#[test]
fn cold_start_all_four_variants() {
    for cfg in [
        AlexConfig::ga_armi().with_max_node_keys(256).with_splitting(),
        AlexConfig::pma_armi().with_max_node_keys(256).with_splitting(),
        AlexConfig::ga_srmi(4),
        AlexConfig::pma_srmi(4),
    ] {
        let mut index: AlexIndex<u64, u64> = AlexIndex::new(cfg);
        for k in 0..3000u64 {
            index
                .insert(k.wrapping_mul(0x9E3779B97F4A7C15) >> 16, k)
                .ok();
        }
        assert!(index.len() > 2900, "{}", cfg.variant_name());
        let keys: Vec<u64> = index.iter().map(|(k, _)| *k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{}", cfg.variant_name());
    }
}

#[test]
fn nan_keys_are_refused_by_every_backend() {
    // A NaN is unequal to every key, itself included, so no sorted
    // array has a place for it: every point or batch read answers it
    // absent, every point write refuses it like the reserved sentinel,
    // and every batch write refuses a batch with a NaN anywhere in it
    // whole, leaving `len` and the full scan untouched.
    let base: Vec<(f64, u64)> = (0..2000).map(|i| (i as f64 * 0.5 - 100.0, i)).collect();
    let base_keys: Vec<f64> = base.iter().map(|(k, _)| *k).collect();
    // Fresh keys around a NaN: sorted apart from the NaN itself.
    let batch = [(10.25, 1), (f64::NAN, 2), (20.25, 3)];

    fn check(mut index: impl BatchOps<f64, u64>, base_keys: &[f64], batch: &[(f64, u64)]) {
        let label = index.label();
        assert_eq!(index.get(&f64::NAN), None, "{label}: get");
        assert!(!index.contains(&f64::NAN), "{label}: contains");
        assert_eq!(index.remove(&f64::NAN), None, "{label}: remove");
        let (k10, k20) = (base_keys[10], base_keys[20]);
        assert_eq!(
            index.get_many(&[k10, f64::NAN, k20]),
            vec![Some(10), None, Some(20)],
            "{label}: get_many"
        );
        assert_eq!(index.insert(f64::NAN, 7), Err(InsertError::UnsupportedKey), "{label}");
        assert_eq!(index.bulk_insert(batch), Err(InsertError::UnsupportedKey), "{label}: batch");
        assert_eq!(index.len(), base_keys.len(), "{label}: a refused key is not counted");
        let mut keys = Vec::new();
        index.scan_from(&f64::NEG_INFINITY, usize::MAX, &mut |k, _| keys.push(*k));
        assert_eq!(keys, base_keys, "{label}: full scan");
    }
    let cfg = AlexConfig::ga_armi().with_max_node_keys(256).with_splitting();
    check(AlexIndex::bulk_load(&base, cfg), &base_keys, &batch);
    check(EpochAlex::bulk_load(&base, cfg), &base_keys, &batch);
    check(ShardedAlex::bulk_load(&base, 4, cfg), &base_keys, &batch);
    check(BPlusTree::bulk_load(&base, 16, 16, 0.7), &base_keys, &batch);
    check(LearnedIndex::bulk_load(&base, 20), &base_keys, &batch);

    // The durable index refuses before appending a WAL record.
    let dir = TempDir::new("edge-nan-durable");
    let durable = DurableAlex::create(dir.path(), &base, cfg, WalOptions::default()).unwrap();
    let lsn = durable.last_lsn();
    let err = durable.insert(f64::NAN, 7).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let err = durable.bulk_insert(&batch).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(durable.last_lsn(), lsn, "nothing logged");
    assert_eq!(durable.len(), base.len());
    let mut keys = Vec::new();
    durable.scan_from(&f64::NEG_INFINITY, usize::MAX, |k, _| keys.push(*k));
    assert_eq!(keys, base_keys);
}
