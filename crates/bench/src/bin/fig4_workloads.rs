//! Figure 4 (a–h): throughput and index size for the four YCSB-style
//! workloads on all four datasets, comparing ALEX, the B+Tree, and (on
//! read-only) the Learned Index.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig4_workloads -- \
//!     --workload read-heavy --keys 1000000 --ops 500000
//! ```
//! `--workload all` runs the paper's four mixes, `--workload extended`
//! adds the remove-heavy mix; `--csv` emits machine-readable rows for
//! diffing across PRs.
//!
//! `--keys string` switches to the URL-shaped `FixedStr<32>` dataset
//! (`alex_datasets::url_keys`) instead of the paper's four numeric
//! ones; key count then comes from `--n`:
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig4_workloads -- \
//!     --keys string --n 200000 --workload read-heavy
//! ```

use alex_api::FixedStr;
use alex_bench::cli::Args;
use alex_bench::harness::{
    emit_rows, paper_alex_grid, run_alex_grid, run_btree_grid, run_learned_index_grid, split_init,
    ReportFormat, CSV_HEADER,
};
use alex_bench::{DEFAULT_INIT_KEYS, DEFAULT_OPS, DEFAULT_SEED};
use alex_core::AlexKey;
use alex_datasets::{lognormal_keys, longitudes_keys, longlat_keys, url_keys, ycsb_keys, Dataset, Payload};
use alex_workloads::WorkloadKind;

/// The string-key dataset width: wide enough that `url_keys`'s
/// host + syllables + digits never truncate into collisions.
type UrlKey = FixedStr<32>;

fn main() {
    let args = Args::parse();
    // `--keys` is either a count (the numeric datasets) or the literal
    // `string` (the FixedStr URL dataset, count via `--n`).
    let string_keys = args.string("keys", "") == "string";
    let n = if string_keys {
        args.usize("n", DEFAULT_INIT_KEYS)
    } else {
        args.usize("keys", DEFAULT_INIT_KEYS)
    };
    let ops = args.usize("ops", DEFAULT_OPS);
    let seed = args.u64("seed", DEFAULT_SEED);
    let workload = args.string("workload", "all");
    let format = ReportFormat::from_flag(args.flag("csv"));

    let kinds: Vec<WorkloadKind> = WorkloadKind::parse_selection(&workload);

    if format == ReportFormat::Csv {
        println!("{CSV_HEADER}");
    }
    for kind in kinds {
        if format == ReportFormat::Table {
            println!("\n#### Figure 4: {} workload ####", kind.name());
        }
        if string_keys {
            bench::<UrlKey, u64>("urls", url_keys::<32>(n, seed), kind, ops, format, |k| {
                k.prefix_u64()
            });
            continue;
        }
        for ds in Dataset::ALL {
            match ds {
                Dataset::Longitudes => bench::<f64, u64>(
                    ds.name(),
                    longitudes_keys(n, seed),
                    kind,
                    ops,
                    format,
                    |k| k.to_bits(),
                ),
                Dataset::Longlat => {
                    bench::<f64, u64>(ds.name(), longlat_keys(n, seed), kind, ops, format, |k| k.to_bits())
                }
                Dataset::Lognormal => {
                    bench::<u64, u64>(ds.name(), lognormal_keys(n, seed), kind, ops, format, |&k| k)
                }
                Dataset::Ycsb => {
                    bench::<u64, Payload<80>>(ds.name(), ycsb_keys(n, seed), kind, ops, format, |&k| {
                        Payload::from_seed(k)
                    })
                }
            }
        }
    }
}

fn bench<K, V>(
    ds: &str,
    keys: Vec<K>,
    kind: WorkloadKind,
    ops: usize,
    format: ReportFormat,
    mv: impl Fn(&K) -> V + Copy,
) where
    K: AlexKey,
    V: Clone + Default,
{
    // Read-only initializes with the full dataset; read-write with a
    // quarter, leaving the rest as the insert stream (Table 1).
    let total = keys.len();
    let init = if kind == WorkloadKind::ReadOnly {
        total
    } else {
        total / 4
    };
    let (init_keys, inserts) = split_init(keys, init);
    let data: Vec<(K, V)> = init_keys.iter().map(|k| (*k, mv(k))).collect();

    let mut rows = Vec::new();
    rows.push(run_alex_grid(
        &data,
        &init_keys,
        &inserts,
        &paper_alex_grid(kind, init),
        kind,
        ops,
        mv,
    ));
    rows.push(run_btree_grid(
        &data,
        &init_keys,
        &inserts,
        &[64, 128, 256],
        kind,
        ops,
        mv,
    ));
    if kind == WorkloadKind::ReadOnly {
        // Model-count grid, bounded by the paper's reported model sizes.
        let grid = [init / 10_000, init / 1000, init / 100]
            .into_iter()
            .map(|m| m.max(4))
            .collect::<Vec<_>>();
        rows.push(run_learned_index_grid::<K, V>(&data, &init_keys, &grid, ops));
    }
    let title = match format {
        ReportFormat::Table => format!("{} / {} ({} init keys, {} ops)", ds, kind.name(), init, ops),
        ReportFormat::Csv => format!("fig4/{}/{}", ds, kind.name()),
    };
    emit_rows(&title, &rows, "B+Tree", format);
}
