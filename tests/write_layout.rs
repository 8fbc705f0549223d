//! Write-path layout regression: on a step-shaped CDF (`longlat`) one
//! linear model per leaf packs most of the leaf into a single run under
//! model-based placement, and every insert then shifts to that run's
//! end. A leaf that expands must notice and degrade to uniform
//! placement, so inserts after the first expansions stay cheap.

use alex_repro::alex_core::{AlexConfig, AlexIndex};
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
