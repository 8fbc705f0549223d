//! Write-path layout regressions.
//!
//! - On a step-shaped CDF (`longlat`) one linear model per leaf packs
//!   most of the leaf into a single run under model-based placement,
//!   and every insert then shifts to that run's end. A leaf that
//!   expands must notice and degrade to uniform placement, so inserts
//!   after the first expansions stay cheap.
//! - Every leaf layout decision of the four variants (GA/PMA ×
//!   SRMI/ARMI) is pinned to exact counters, so a drift in either
//!   layout's insert, expand, contract or degrade path fails here.

use alex_repro::alex_core::{AlexConfig, AlexIndex, WriteStats};
use alex_repro::alex_datasets::{longlat_keys, sorted};

#[test]
fn longlat_inserts_stop_shifting_once_leaves_expand() {
    let n = 50_000;
    let mut keys = longlat_keys(2 * n, 7);
    let held_out = keys.split_off(n);
    let data: Vec<(f64, u64)> = sorted(keys).into_iter().map(|k| (k, k.to_bits())).collect();
    let mut index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi());

    let (first_half, second_half) = held_out.split_at(n / 2);
    for &k in first_half {
        index.insert(k, k.to_bits()).unwrap();
    }
    let before = index.write_stats();
    for &k in second_half {
        index.insert(k, k.to_bits()).unwrap();
    }
    let after = index.write_stats();
    let shifts = (after.shifts - before.shifts) as f64 / (after.inserts - before.inserts) as f64;
    assert!(shifts < 16.0, "second-half inserts shift {shifts:.1} slots each");
    assert!(index.degraded_leaves() > 0, "packed longlat leaves must degrade");

    for &(k, v) in &data {
        assert_eq!(index.get(&k), Some(&v), "loaded key {k}");
    }
    for &k in &held_out {
        assert_eq!(index.get(&k), Some(&k.to_bits()), "inserted key {k}");
    }
    assert_eq!(index.len(), 2 * n);
}

/// The LCG step of Knuth's MMIX; the high bits are the well-mixed ones.
fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x >> 33
}

/// Distinct integer keys in two dense clusters 2⁴⁰ apart — a step CDF
/// that one linear model per leaf cannot follow — in LCG-shuffled order.
fn two_cluster_keys(n: u64) -> Vec<u64> {
    let mut x = 42;
    let mut keys: Vec<u64> = (0..n)
        .map(|_| {
            let r = lcg(&mut x);
            (r & 1) * (1 << 40) + (r >> 1) % (2 * n)
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    for i in (1..keys.len()).rev() {
        keys.swap(i, lcg(&mut x) as usize % (i + 1));
    }
    keys
}

/// Every `write_stats()` field, then the degraded leaves, the data
/// bytes and the data node count. The destructuring is exhaustive, so
/// a new counter must join the pinned set.
fn counters(index: &AlexIndex<u64, u64>) -> [u64; 11] {
    let WriteStats {
        inserts,
        shifts,
        rebalance_moves,
        expansions,
        contractions,
        retrains,
        splits,
        deletes,
    } = index.write_stats();
    let size = index.size_report();
    [
        inserts,
        shifts,
        rebalance_moves,
        expansions,
        contractions,
        retrains,
        splits,
        deletes,
        index.degraded_leaves() as u64,
        size.data_bytes as u64,
        size.num_data_nodes as u64,
    ]
}

/// Pins every leaf layout decision of the four variants to exact
/// counts: shifts, PMA window rebalances, expansions, contractions,
/// retrains, splits, degraded leaves and data bytes. Bulk-load half of
/// a two-cluster key set, insert the rest, then remove three quarters
/// of all keys so leaves contract. A change to the leaf layer that
/// keeps every number here made every insert, rebuild and degradation
/// decision the same way; a change that moves one must say why and
/// update the numbers.
#[test]
fn layout_decisions_are_pinned_for_all_four_variants() {
    let keys = two_cluster_keys(24_000);
    let (loaded, inserted) = keys.split_at(keys.len() / 2);
    let removed = &keys[..keys.len() * 3 / 4];
    let mut data: Vec<(u64, u64)> = loaded.iter().map(|&k| (k, k ^ 1)).collect();
    data.sort_unstable();
    // Per variant: the counters after the inserts, then after the
    // removes. Split leaves take their counters with them, so the
    // ARMI variants count fewer inserts than they made.
    let variants = [
        (
            "GA-SRMI",
            AlexConfig::ga_srmi(16),
            [10640, 33272, 0, 6, 0, 6, 0, 0, 1, 420448, 16],
            [10640, 33272, 0, 6, 2, 8, 0, 15959, 1, 151384, 16],
        ),
        (
            "GA-ARMI",
            AlexConfig::ga_armi().with_max_node_keys(2048).with_splitting(),
            [9072, 24710, 0, 47, 0, 47, 5, 0, 9, 432928, 24],
            [9072, 24710, 0, 47, 21, 68, 5, 15959, 9, 154720, 24],
        ),
        (
            "PMA-SRMI",
            AlexConfig::pma_srmi(16),
            [10640, 5653, 19815, 2, 0, 2, 0, 0, 1, 530288, 16],
            [10640, 5653, 19815, 2, 2, 4, 0, 15959, 1, 266096, 16],
        ),
        (
            "PMA-ARMI",
            AlexConfig::pma_armi().with_max_node_keys(2048).with_splitting(),
            [9072, 4000, 15157, 13, 0, 13, 5, 0, 9, 660888, 24],
            [9072, 4000, 15157, 13, 28, 41, 5, 15959, 9, 248088, 24],
        ),
    ];
    for (name, config, after_inserts, after_removes) in variants {
        let mut index = AlexIndex::bulk_load(&data, config);
        for &k in inserted {
            index.insert(k, k ^ 1).unwrap();
        }
        assert_eq!(counters(&index), after_inserts, "{name} after inserts");
        for &k in removed {
            assert_eq!(index.remove(&k), Some(k ^ 1), "{name}: remove {k}");
        }
        assert_eq!(counters(&index), after_removes, "{name} after removes");
        for &k in &keys[removed.len()..] {
            assert_eq!(index.get(&k), Some(&(k ^ 1)), "{name}: key {k}");
        }
        assert_eq!(index.len(), keys.len() - removed.len());
    }
}
