//! §4 / Theorems 1–3: measured direct hits vs. the analytical bounds as
//! the expansion factor `c` grows, on real generator output. (Not a
//! paper figure — the paper proves these bounds; this binary checks
//! them empirically, complementing the property tests.) Both bounds
//! are asserted on all four datasets at every `c`. Theorem 3 is
//! counted where its proof holds in a real leaf, whose predictions are
//! clamped into the array (see `analysis::theorem3_lower_bound`):
//! longitudes' fit sends its sparse low tail below slot 0.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin theory_bounds -- --keys 20000
//! ```

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, METRIC_CSV_HEADER};
use alex_bench::DEFAULT_SEED;
use alex_core::analysis::{
    base_slope, measure_direct_hits, theorem1_min_expansion, theorem2_upper_bound,
    theorem3_lower_bound,
};
use alex_datasets::{lognormal_keys, longitudes_keys, sorted, uniform_dense_keys, ycsb_keys};

fn main() {
    let args = Args::parse();
    let n = args.usize("keys", 20_000);
    let seed = args.u64("seed", DEFAULT_SEED);
    let csv = args.flag("csv");

    if csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!("Theorems 1-3 (§4): direct-hit bounds vs measured, per expansion factor c\n");
    }
    run_u64("uniform", uniform_dense_keys(n), csv);
    run_u64("lognormal", sorted(lognormal_keys(n, seed)), csv);
    run_u64("YCSB", sorted(ycsb_keys(n, seed)), csv);
    run_f64("longitudes", sorted(longitudes_keys(n, seed)), csv);
}

fn run_u64(name: &str, keys: Vec<u64>, csv: bool) {
    let a = base_slope(&keys);
    if !csv {
        println!("{name}: n={}, base slope a={a:.3e}", keys.len());
    }
    if let Some(c1) = theorem1_min_expansion(&keys, a) {
        if csv {
            emit_metric("theory", name, "thm1_min_expansion", format!("{c1:.3e}"));
        } else {
            println!("  Theorem 1 all-direct-hit threshold: c >= {c1:.3e}");
        }
    }
    print_sweep(name, &keys, a, csv);
}

fn run_f64(name: &str, keys: Vec<f64>, csv: bool) {
    let a = base_slope(&keys);
    if !csv {
        println!("{name}: n={}, base slope a={a:.3e}", keys.len());
    }
    if let Some(c1) = theorem1_min_expansion(&keys, a) {
        if csv {
            emit_metric("theory", name, "thm1_min_expansion", format!("{c1:.3e}"));
        } else {
            println!("  Theorem 1 all-direct-hit threshold: c >= {c1:.3e}");
        }
    }
    print_sweep(name, &keys, a, csv);
}

fn print_sweep<K: alex_core::AlexKey>(name: &str, keys: &[K], a: f64, csv: bool) {
    if !csv {
        println!(
            "  {:>6} {:>12} {:>12} {:>12} {:>10}",
            "c", "thm3 lower", "measured", "thm2 upper", "hit rate"
        );
    }
    for c in [1.0, 1.43, 2.0, 4.0, 8.0] {
        let (hits, n) = measure_direct_hits(keys, c);
        let upper = theorem2_upper_bound(keys, a, c);
        let lower = theorem3_lower_bound(keys, a, c).min(n);
        assert!(hits <= upper, "Theorem 2 violated: {hits} > {upper}");
        assert!(hits >= lower, "Theorem 3 violated: {hits} < {lower}");
        if csv {
            emit_metric("theory", name, &format!("thm3_lower@c{c}"), lower);
            emit_metric("theory", name, &format!("measured@c{c}"), hits);
            emit_metric("theory", name, &format!("thm2_upper@c{c}"), upper);
        } else {
            println!(
                "  {:>6.2} {:>12} {:>12} {:>12} {:>9.1}%",
                c,
                lower,
                hits,
                upper,
                100.0 * hits as f64 / n as f64
            );
        }
    }
    if !csv {
        println!();
    }
}
