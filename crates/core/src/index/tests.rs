//! Unit tests for the index module tree (construction, point/range
//! ops, splitting, batch ops, introspection).

use alex_api::InsertError;

use crate::config::AlexConfig;

use super::AlexIndex;

fn pairs(n: u64, stride: u64) -> Vec<(u64, u64)> {
    (0..n).map(|k| (k * stride, k)).collect()
}

fn all_variants() -> Vec<AlexConfig> {
    vec![
        AlexConfig::ga_srmi(32),
        AlexConfig::ga_armi().with_max_node_keys(512),
        AlexConfig::pma_srmi(32),
        AlexConfig::pma_armi().with_max_node_keys(512),
    ]
}

/// The read path must be shareable across threads (the sharded
/// front-end serves `get`/`range_from`/stats from parallel readers).
#[test]
fn index_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AlexIndex<u64, u64>>();
    assert_send_sync::<AlexIndex<f64, u64>>();
}

#[test]
fn bulk_load_and_get_all_variants() {
    let data = pairs(10_000, 3);
    for cfg in all_variants() {
        let index = AlexIndex::bulk_load(&data, cfg);
        assert_eq!(index.len(), 10_000, "{}", cfg.variant_name());
        for k in (0..10_000u64).step_by(17) {
            assert_eq!(index.get(&(k * 3)), Some(&k), "{} key {}", cfg.variant_name(), k * 3);
        }
        assert_eq!(index.get(&1), None);
        assert_eq!(index.get(&(3 * 10_000)), None);
        index.debug_assert_invariants();
    }
}

#[test]
fn armi_respects_max_node_keys_at_init() {
    let data = pairs(20_000, 1);
    let cfg = AlexConfig::ga_armi().with_max_node_keys(1000);
    let index = AlexIndex::bulk_load(&data, cfg);
    for (i, size) in index.leaf_sizes().iter().enumerate() {
        assert!(*size <= 1000, "leaf {i} has {size} keys > 1000");
    }
    assert!(index.num_data_nodes() >= 20, "uniform data should need >= 20 leaves");
    index.debug_assert_invariants();
}

#[test]
fn srmi_has_exact_leaf_count() {
    let data = pairs(5000, 7);
    let index = AlexIndex::bulk_load(&data, AlexConfig::ga_srmi(64));
    assert_eq!(index.num_data_nodes(), 64);
    assert_eq!(index.depth(), 1);
}

#[test]
fn inserts_all_variants() {
    let data = pairs(2000, 4);
    for cfg in all_variants() {
        let mut index = AlexIndex::bulk_load(&data, cfg);
        for k in 0..2000u64 {
            index.insert(k * 4 + 1, k).unwrap_or_else(|_| panic!("{} insert {}", cfg.variant_name(), k * 4 + 1));
        }
        assert_eq!(index.len(), 4000);
        for k in (0..2000u64).step_by(13) {
            assert_eq!(index.get(&(k * 4 + 1)), Some(&k), "{}", cfg.variant_name());
            assert_eq!(index.get(&(k * 4)), Some(&k));
        }
        index.debug_assert_invariants();
    }
}

#[test]
fn duplicate_insert_errors() {
    let mut index = AlexIndex::bulk_load(&pairs(100, 2), AlexConfig::ga_armi());
    assert_eq!(index.insert(10, 999), Err(InsertError::DuplicateKey));
    assert_eq!(index.get(&10), Some(&5));
    assert_eq!(index.len(), 100);
}

#[test]
fn cold_start_grows_by_splitting() {
    let cfg = AlexConfig::ga_armi().with_max_node_keys(256).with_splitting();
    let mut index: AlexIndex<u64, u64> = AlexIndex::new(cfg);
    assert!(index.is_empty());
    for k in 0..5000u64 {
        index.insert(k.wrapping_mul(2654435761) % 1_000_000, k).ok();
    }
    assert!(index.write_stats().splits > 0, "cold start must split");
    assert!(index.depth() >= 1);
    for size in index.leaf_sizes() {
        assert!(size <= 256, "leaf exceeded max after splitting: {size}");
    }
    index.debug_assert_invariants();
}

#[test]
fn splitting_handles_distribution_shift() {
    // Initialize on the low half, insert the (disjoint) high half:
    // the Fig 5b scenario.
    let low = pairs(2000, 1);
    let cfg = AlexConfig::ga_armi().with_max_node_keys(512).with_splitting();
    let mut index = AlexIndex::bulk_load(&low, cfg);
    for k in 0..4000u64 {
        index.insert(1_000_000 + k, k).unwrap();
    }
    assert_eq!(index.len(), 6000);
    assert!(index.write_stats().splits > 0);
    for k in (0..4000u64).step_by(37) {
        assert_eq!(index.get(&(1_000_000 + k)), Some(&k));
    }
    index.debug_assert_invariants();
}

#[test]
fn range_scan_within_and_across_leaves() {
    let data = pairs(10_000, 2);
    for cfg in all_variants() {
        let index = AlexIndex::bulk_load(&data, cfg);
        let got: Vec<u64> = index.range_from(&5000, 100).map(|(k, _)| *k).collect();
        let expect: Vec<u64> = (2500..2600).map(|k| k * 2).collect();
        assert_eq!(got, expect, "{}", cfg.variant_name());
    }
}

#[test]
fn range_scan_from_missing_key_and_tail() {
    let index = AlexIndex::bulk_load(&pairs(1000, 10), AlexConfig::ga_armi());
    let got: Vec<u64> = index.range_from(&15, 3).map(|(k, _)| *k).collect();
    assert_eq!(got, vec![20, 30, 40]);
    let tail: Vec<u64> = index.range_from(&9985, 100).map(|(k, _)| *k).collect();
    assert_eq!(tail, vec![9990]);
    assert_eq!(index.range_from(&1_000_000, 5).count(), 0);
}

#[test]
fn iter_covers_everything_in_order() {
    let data = pairs(5000, 3);
    for cfg in all_variants() {
        let index = AlexIndex::bulk_load(&data, cfg);
        let keys: Vec<u64> = index.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), 5000, "{}", cfg.variant_name());
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}

#[test]
fn remove_and_update() {
    let mut index = AlexIndex::bulk_load(&pairs(1000, 2), AlexConfig::ga_armi());
    assert_eq!(index.remove(&500), Some(250));
    assert_eq!(index.remove(&500), None);
    assert_eq!(index.len(), 999);
    assert_eq!(index.get(&500), None);
    assert_eq!(index.update(&600, 9999), Some(300));
    assert_eq!(index.get(&600), Some(&9999));
    assert_eq!(index.update(&601, 1), None);
    index.debug_assert_invariants();
}

#[test]
fn mass_delete_then_reinsert() {
    let mut index = AlexIndex::bulk_load(&pairs(4000, 1), AlexConfig::pma_armi().with_max_node_keys(512));
    for k in 0..3000u64 {
        assert_eq!(index.remove(&k), Some(k));
    }
    assert_eq!(index.len(), 1000);
    for k in 0..3000u64 {
        index.insert(k, k + 1).unwrap();
    }
    assert_eq!(index.len(), 4000);
    assert_eq!(index.get(&100), Some(&101));
    assert_eq!(index.get(&3500), Some(&3500));
    index.debug_assert_invariants();
}

#[test]
fn empty_index_operations() {
    let cfg = AlexConfig::ga_armi();
    let index: AlexIndex<u64, u64> = AlexIndex::new(cfg);
    assert_eq!(index.get(&5), None);
    assert_eq!(index.range_from(&0, 10).count(), 0);
    assert_eq!(index.iter().count(), 0);
    let empty_bulk: AlexIndex<u64, u64> = AlexIndex::bulk_load(&[], cfg);
    assert_eq!(empty_bulk.get(&5), None);
    assert_eq!(empty_bulk.iter().count(), 0);
}

#[test]
fn float_keys_roundtrip() {
    let data: Vec<(f64, u64)> = (0..5000u64).map(|k| (k as f64 * 0.25 - 300.0, k)).collect();
    let mut index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi().with_max_node_keys(512));
    for k in (0..5000u64).step_by(43) {
        assert_eq!(index.get(&(k as f64 * 0.25 - 300.0)), Some(&k));
    }
    index.insert(-1000.5, 7).unwrap();
    assert_eq!(index.get(&(-1000.5)), Some(&7));
    let first: Vec<u64> = index.range_from(&f64::NEG_INFINITY, 2).map(|(_, v)| *v).collect();
    assert_eq!(first, vec![7, 0]);
}

#[test]
fn size_report_sane() {
    let data = pairs(50_000, 1);
    let index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi().with_max_node_keys(4096));
    let r = index.size_report();
    assert!(r.index_bytes > 0);
    assert!(r.data_bytes > 50_000 * 16, "data must hold all keys+values");
    assert!(
        r.index_bytes < r.data_bytes / 10,
        "index ({}) should be far smaller than data ({})",
        r.index_bytes,
        r.data_bytes
    );
    assert_eq!(r.num_data_nodes, index.num_data_nodes());
}

#[test]
fn prediction_errors_small_on_linear_data() {
    let index = AlexIndex::bulk_load(&pairs(20_000, 5), AlexConfig::ga_armi().with_max_node_keys(2048));
    let errs = index.prediction_errors();
    assert_eq!(errs.len(), 20_000);
    let zero = errs.iter().filter(|&&e| e == 0).count();
    assert!(zero as f64 > 0.9 * errs.len() as f64, "{zero}/20000 direct placements");
}

#[test]
fn read_stats_aggregate() {
    let index = AlexIndex::bulk_load(&pairs(1000, 3), AlexConfig::ga_srmi(8));
    for k in 0..1000u64 {
        index.get(&(k * 3));
    }
    let (lookups, comparisons, hits) = index.read_stats();
    assert_eq!(lookups, 1000);
    assert!(comparisons > 0);
    assert!(hits > 500, "linear data should yield many direct hits, got {hits}");
}

#[test]
fn sequential_inserts_pma_armi_survives() {
    // Fig 5c's adversarial pattern, small scale.
    let cfg = AlexConfig::pma_armi().with_max_node_keys(512).with_splitting();
    let mut index: AlexIndex<u64, u64> = AlexIndex::new(cfg);
    for k in 0..10_000u64 {
        index.insert(k, k).unwrap();
    }
    assert_eq!(index.len(), 10_000);
    for k in (0..10_000u64).step_by(997) {
        assert_eq!(index.get(&k), Some(&k));
    }
    index.debug_assert_invariants();
}

#[test]
fn skewed_lognormal_like_data() {
    // Heavy skew: many small keys, few huge ones.
    let mut keys: Vec<u64> = (0..5000u64).map(|i| i * i * i).collect();
    keys.dedup();
    let data: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    for cfg in [AlexConfig::ga_armi().with_max_node_keys(512), AlexConfig::ga_srmi(64)] {
        let index = AlexIndex::bulk_load(&data, cfg);
        for (k, v) in data.iter().step_by(31) {
            assert_eq!(index.get(k), Some(v), "{}", cfg.variant_name());
        }
        index.debug_assert_invariants();
    }
}

#[test]
fn uniform_placement_ablation_still_correct_but_less_direct() {
    // Non-linear key spacing: with uniform spreading the linear
    // model mispredicts, while model-based placement puts each key
    // where its (imperfect) model says.
    let data: Vec<(u64, u64)> = (0..20_000u64).map(|k| (k * k / 16 + k, k)).collect();
    let model_based = AlexIndex::bulk_load(&data, AlexConfig::ga_armi().with_max_node_keys(2048));
    let uniform = AlexIndex::bulk_load(
        &data,
        AlexConfig::ga_armi().with_max_node_keys(2048).without_model_based_inserts(),
    );
    // Both answer correctly…
    for (k, v) in data.iter().step_by(97) {
        assert_eq!(uniform.get(k), Some(v));
        assert_eq!(model_based.get(k), Some(v));
    }
    // …but model-based placement has far lower prediction error
    // (the §3.2 claim this ablation isolates).
    let mb_zero = model_based.prediction_errors().iter().filter(|&&e| e == 0).count();
    let un_zero = uniform.prediction_errors().iter().filter(|&&e| e == 0).count();
    assert!(
        mb_zero > un_zero * 2,
        "model-based zero-error keys {mb_zero} should dwarf uniform's {un_zero}"
    );
}

#[test]
fn scan_from_agrees_with_range_from() {
    let data = pairs(5000, 3);
    for cfg in all_variants() {
        let mut index = AlexIndex::bulk_load(&data, cfg);
        // Punch some holes so the scan must skip gaps.
        for k in (0..5000u64).step_by(5) {
            index.remove(&(k * 3));
        }
        for start in [0u64, 1, 299, 7500, 14999, 20000] {
            for limit in [0usize, 1, 10, 100] {
                let via_iter: Vec<u64> = index.range_from(&start, limit).map(|(k, _)| *k).collect();
                let mut via_scan = Vec::new();
                let visited = index.scan_from(&start, limit, |k, _| via_scan.push(*k));
                assert_eq!(via_scan, via_iter, "{} start={start} limit={limit}", cfg.variant_name());
                assert_eq!(visited, via_iter.len());
            }
        }
    }
}

#[test]
fn contains_key() {
    let index = AlexIndex::bulk_load(&pairs(100, 2), AlexConfig::ga_armi());
    assert!(index.contains_key(&0));
    assert!(index.contains_key(&198));
    assert!(!index.contains_key(&199));
}

#[test]
fn pma_layout_with_static_rmi_inserts() {
    let mut index = AlexIndex::bulk_load(&pairs(2000, 2), AlexConfig::pma_srmi(16));
    for k in 0..2000u64 {
        index.insert(k * 2 + 1, k).unwrap();
    }
    assert_eq!(index.len(), 4000);
    let keys: Vec<u64> = index.iter().map(|(k, _)| *k).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
    index.debug_assert_invariants();
}

// ----------------------------------------------------------------------
// Sorted-batch operations
// ----------------------------------------------------------------------

#[test]
fn get_many_agrees_with_get_all_variants() {
    let data = pairs(10_000, 3);
    for cfg in all_variants() {
        let index = AlexIndex::bulk_load(&data, cfg);
        // Mix of present keys, misses between keys, and out-of-range
        // probes, sorted ascending (with duplicates).
        let mut queries: Vec<u64> = (0..12_000u64).map(|k| k * 5 / 2).collect();
        queries.push(queries[queries.len() - 1]);
        queries.sort_unstable();
        let batch = index.get_many(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(*got, index.get(q), "{} key {q}", cfg.variant_name());
        }
    }
}

#[test]
fn get_many_after_removals_skips_emptied_leaves() {
    // Empty an entire leaf's worth of keys so the run cache must not
    // claim ownership through an empty leaf.
    let data = pairs(8000, 1);
    let mut index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi().with_max_node_keys(256));
    for k in 2000..4000u64 {
        index.remove(&k);
    }
    let queries: Vec<u64> = (0..8000).collect();
    let batch = index.get_many(&queries);
    for (q, got) in queries.iter().zip(&batch) {
        let expect = if (2000..4000).contains(q) { None } else { Some(q) };
        assert_eq!(got.copied(), expect.copied(), "key {q}");
    }
}

#[test]
fn get_many_on_empty_index() {
    let index: AlexIndex<u64, u64> = AlexIndex::new(AlexConfig::ga_armi());
    assert_eq!(index.get_many(&[1, 2, 3]), vec![None, None, None]);
    assert_eq!(index.get_many(&[]), Vec::<Option<&u64>>::new());
}

#[test]
fn bulk_insert_agrees_with_per_key_insert() {
    let init = pairs(4000, 4);
    for cfg in all_variants() {
        let mut batch_index = AlexIndex::bulk_load(&init, cfg);
        let mut serial_index = AlexIndex::bulk_load(&init, cfg);
        // Odd keys interleave with the loaded evens; every 7th repeats
        // an existing key (duplicate).
        let incoming: Vec<(u64, u64)> = (0..4000u64)
            .map(|k| if k % 7 == 0 { (k * 4, k) } else { (k * 4 + 1, k) })
            .collect();
        let mut sorted = incoming.clone();
        sorted.sort_by_key(|p| p.0);

        let inserted = batch_index.bulk_insert(&sorted).unwrap();
        let mut serial_inserted = 0;
        for (k, v) in &sorted {
            if serial_index.insert(*k, *v).is_ok() {
                serial_inserted += 1;
            }
        }
        assert_eq!(inserted, serial_inserted, "{}", cfg.variant_name());
        assert_eq!(batch_index.len(), serial_index.len());
        let batch_pairs: Vec<(u64, u64)> = batch_index.iter().map(|(k, v)| (*k, *v)).collect();
        let serial_pairs: Vec<(u64, u64)> = serial_index.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(batch_pairs, serial_pairs, "{}", cfg.variant_name());
        // Same leaves, same work: the batch is per-key insert at the
        // layout level, not just in content.
        assert_eq!(batch_index.write_stats(), serial_index.write_stats(), "{}", cfg.variant_name());
        assert_eq!(batch_index.size_report(), serial_index.size_report(), "{}", cfg.variant_name());
        batch_index.debug_assert_invariants();
    }
}

#[test]
fn bulk_insert_with_splitting_matches_serial() {
    let cfg = AlexConfig::ga_armi().with_max_node_keys(128).with_splitting();
    let init = pairs(1000, 8);
    let mut batch_index = AlexIndex::bulk_load(&init, cfg);
    let mut serial_index = AlexIndex::bulk_load(&init, cfg);
    let incoming: Vec<(u64, u64)> = (0..6000u64).map(|k| (k * 8 + 3, k)).collect();
    let inserted = batch_index.bulk_insert(&incoming).unwrap();
    for (k, v) in &incoming {
        serial_index.insert(*k, *v).unwrap();
    }
    assert_eq!(inserted, incoming.len());
    assert_eq!(batch_index.len(), serial_index.len());
    assert!(batch_index.write_stats().splits > 0, "small leaves must split");
    let batch_keys: Vec<u64> = batch_index.iter().map(|(k, _)| *k).collect();
    let serial_keys: Vec<u64> = serial_index.iter().map(|(k, _)| *k).collect();
    assert_eq!(batch_keys, serial_keys);
    // The batch splits at the same moments as per-key inserts, so the
    // two build the same leaves.
    assert_eq!(batch_index.write_stats(), serial_index.write_stats());
    assert_eq!(batch_index.size_report(), serial_index.size_report());
    batch_index.debug_assert_invariants();
}

#[test]
fn dense_high_range_keys_stay_correct_via_degradation_fallback() {
    // Past 2^53 the `u64 → f64` projection is locally constant (ulp is
    // 2048 near 2^63), so leaf models cannot separate dense keys. The
    // per-leaf degradation guard must engage and keep every operation
    // correct, with no quadratic placement blowup.
    let base = u64::MAX - 10_000_000;
    let data: Vec<(u64, u64)> = (0..30_000u64).map(|i| (base + i * 250, i)).collect();
    for cfg in [AlexConfig::ga_armi().with_max_node_keys(2048), AlexConfig::pma_armi().with_max_node_keys(2048)] {
        let mut index = AlexIndex::bulk_load(&data, cfg);
        assert!(
            index.degraded_leaves() > 0,
            "{}: collapsed projection must degrade leaves",
            cfg.variant_name()
        );
        for (k, v) in data.iter().step_by(373) {
            assert_eq!(index.get(k), Some(v), "{} key {k}", cfg.variant_name());
        }
        // Fresh inserts interleave with the loaded keys and stay correct.
        for i in 0..2000u64 {
            index.insert(base + i * 250 + 7, i).unwrap();
        }
        for i in (0..2000u64).step_by(41) {
            assert_eq!(index.get(&(base + i * 250 + 7)), Some(&i));
        }
        let mut last = None;
        let visited = index.scan_from(&base, 500, |k, _| {
            assert!(last.is_none_or(|p| p < *k), "scan out of order");
            last = Some(*k);
        });
        assert_eq!(visited, 500);
        index.debug_assert_invariants();
    }
}

#[test]
fn sentinel_key_rejected_at_every_entry_point() {
    let mut index = AlexIndex::bulk_load(&pairs(100, 2), AlexConfig::ga_armi());
    assert_eq!(index.insert(u64::MAX, 1), Err(InsertError::UnsupportedKey));
    assert_eq!(index.bulk_insert(&[(500, 1), (u64::MAX, 2)]), Err(InsertError::UnsupportedKey));
    assert_eq!(index.get(&500), None, "rejected batch must apply nothing");
    assert_eq!(index.len(), 100);
    assert_eq!(index.get(&u64::MAX), None);
}

#[test]
#[should_panic(expected = "sentinel")]
fn bulk_load_panics_on_sentinel() {
    let _ = AlexIndex::bulk_load(&[(1u64, 1u64), (u64::MAX, 2)], AlexConfig::ga_armi());
}

#[test]
#[should_panic(expected = "NaN")]
fn bulk_load_panics_on_a_nan_inside_the_batch() {
    let mut pairs: Vec<(f64, u64)> = (0..2000).map(|i| (i as f64, i)).collect();
    pairs[1000].0 = f64::NAN;
    let _ = AlexIndex::bulk_load(&pairs, AlexConfig::ga_armi());
}

#[test]
fn bulk_insert_into_empty_index() {
    let mut index: AlexIndex<u64, u64> = AlexIndex::new(AlexConfig::ga_armi());
    let data = pairs(500, 3);
    assert_eq!(index.bulk_insert(&data), Ok(500));
    assert_eq!(index.len(), 500);
    for (k, v) in &data {
        assert_eq!(index.get(k), Some(v));
    }
    index.debug_assert_invariants();
}

#[test]
fn duplicate_inserts_never_split_a_full_leaf_in_either_regime() {
    use super::EpochAlex;

    // No delta buffer, so the epoch index writes its base arrays as the
    // dense one does and the two layouts compare byte for byte.
    let cfg = AlexConfig::ga_armi().with_max_node_keys(128).with_splitting().with_delta_buffer(0);
    let full = pairs(128, 10);
    let duplicates = &full[..20];
    let mut dense = AlexIndex::bulk_load(&full, cfg);
    let epoch = EpochAlex::bulk_load(&full, cfg);
    assert_eq!(dense.num_data_nodes(), 1, "the loaded keys fill one leaf");

    assert_eq!(dense.insert(500, 0), Err(InsertError::DuplicateKey));
    assert_eq!(epoch.insert(500, 0), Err(InsertError::DuplicateKey));
    assert_eq!(dense.bulk_insert(duplicates), Ok(0));
    assert_eq!(epoch.bulk_insert(duplicates), Ok(0));
    assert_eq!(dense.num_data_nodes(), 1, "dense: a duplicate split the leaf");
    assert_eq!(dense.write_stats().splits, 0);
    assert_eq!(epoch.size_report().num_data_nodes, 1, "epoch: a duplicate split the leaf");

    // A batch splits before its first fresh key, past the present ones.
    let mut batch = AlexIndex::bulk_load(&full, cfg);
    assert_eq!(batch.bulk_insert(&[(0, 0), (10, 0), (505, 5)]), Ok(1));

    // The first fresh key splits both alike.
    dense.insert(505, 5).unwrap();
    epoch.insert(505, 5).unwrap();
    let epoch = epoch.into_inner();
    assert_eq!(dense.write_stats().splits, 1);
    assert_eq!(epoch.write_stats().splits, 1);
    assert_eq!(batch.write_stats().splits, 1);
    assert_eq!(epoch.size_report(), dense.size_report());
    assert_eq!(batch.size_report(), dense.size_report());
    dense.debug_assert_invariants();
    epoch.debug_assert_invariants();
}

#[test]
fn a_flushed_delta_buffer_gives_its_allocation_back() {
    use super::EpochAlex;

    // One fresh insert: the epoch index buffers it, `into_inner` folds
    // it, and the dense index takes it directly.
    let cfg = AlexConfig::ga_armi().with_max_node_keys(128).with_splitting();
    let full = pairs(128, 10);
    let mut dense = AlexIndex::bulk_load(&full, cfg);
    let epoch = EpochAlex::bulk_load(&full, cfg);
    dense.insert(505, 5).unwrap();
    epoch.insert(505, 5).unwrap();
    assert_eq!(epoch.write_stats().delta_hits, 1, "the insert was buffered");
    assert_eq!(epoch.into_inner().size_report(), dense.size_report());

    // A thousand, through many flushes of full buffers.
    let loaded = pairs(10_000, 10);
    let mut dense = AlexIndex::bulk_load(&loaded, AlexConfig::ga_armi());
    let epoch = EpochAlex::bulk_load(&loaded, AlexConfig::ga_armi());
    for i in 0..1000u64 {
        dense.insert(i * 70 + 5, i).unwrap();
        epoch.insert(i * 70 + 5, i).unwrap();
    }
    assert!(epoch.write_stats().flushes > 0);
    assert_eq!(epoch.into_inner().size_report(), dense.size_report());
}

#[test]
fn writes_never_count_as_reads() {
    let loaded = pairs(10_000, 10);
    let fresh: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * 70 + 5, i)).collect();
    let mut dense = AlexIndex::bulk_load(&loaded, AlexConfig::ga_armi().with_splitting());
    for &(k, v) in &fresh {
        dense.insert(k, v).unwrap();
    }
    assert_eq!(dense.insert(fresh[0].0, 0), Err(InsertError::DuplicateKey));
    assert_eq!(dense.bulk_insert(&fresh[..100]), Ok(0));
    for &(k, v) in &fresh[..100] {
        assert_eq!(dense.update(&k, v + 1), Some(v));
    }
    for &(k, _) in &fresh {
        assert!(dense.remove(&k).is_some());
    }
    assert_eq!(dense.read_stats(), (0, 0, 0), "writes recorded reads");
    for k in 0..100u64 {
        assert_eq!(dense.get(&(k * 10)), Some(&k));
    }
    assert_eq!(dense.read_stats().0, 100, "one lookup per get");
}
