//! Thread scalability (the paper's §7 follow-up direction): aggregate
//! throughput of the YCSB mixes served by `ShardedAlex` as worker
//! threads grow. Two baselines are reported: the plain single-threaded
//! `AlexIndex` driver (`AlexIndex st` — no locks, no shard routing),
//! and `ShardedAlex` at 1 thread (`1 threads`, the speedup
//! denominator); the gap between those two is the locking/routing
//! overhead the sharding layer costs. Every shard is an `EpochAlex`,
//! so readers take no lock.
//!
//! `--arrival-rate <ops/sec>` switches to **open-loop** serving: the
//! mixes are driven through the `alex-server` worker pool at a fixed
//! Poisson arrival rate, sweeping client counts, and the output is
//! per-op latency percentiles (measured from scheduled arrival, so
//! queueing delay counts) instead of closed-loop throughput rows.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig5_threads -- \
//!     --max-threads 8 --keys 1000000 --ops 1000000 --workload read-only
//! # open-loop latency sweep at 50k ops/s:
//! cargo run -p alex-bench --release --bin fig5_threads -- \
//!     --arrival-rate 50000 --csv
//! # machine-readable, diffable across PRs:
//! cargo run -p alex-bench --release --bin fig5_threads -- --csv
//! ```

use std::sync::Arc;

use alex_bench::cli::Args;
use alex_bench::harness::{
    emit_latency_metrics, emit_metric, emit_rows, run_alex, split_init, ReportFormat, Row,
    CSV_HEADER, METRIC_CSV_HEADER,
};
use alex_bench::{DEFAULT_INIT_KEYS, DEFAULT_OPS, DEFAULT_SEED};
use alex_core::{ordered_bits, AlexConfig};
use alex_datasets::longitudes_keys;
use alex_server::{run_load, Arrival, LoadSpec, Server, ServerConfig};
use alex_sharded::ShardedAlex;
use alex_workloads::{run_workload_mt, WorkloadKind, WorkloadSpec};

/// The read percentage each YCSB-style mix offers the serving tier
/// (scans count as reads for the point-op load generator).
fn read_pct_of(kind: WorkloadKind) -> u32 {
    match kind {
        WorkloadKind::ReadOnly => 100,
        WorkloadKind::ReadHeavy | WorkloadKind::RangeScan => 95,
        WorkloadKind::WriteHeavy | WorkloadKind::RemoveHeavy => 50,
    }
}

/// Open-loop mode: sweep client counts against a fixed Poisson
/// arrival rate through the `alex-server` worker pool, reporting
/// scheduled-time latency percentiles per mix.
#[allow(clippy::too_many_arguments)]
fn open_loop_sweep(
    kinds: &[WorkloadKind],
    rate: u64,
    n: usize,
    ops: usize,
    seed: u64,
    max_threads: usize,
    shards: usize,
    format: ReportFormat,
) {
    if format == ReportFormat::Csv {
        println!("# one-core container: absolute latency is mostly scheduling; compare shapes");
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!(
            "Open-loop serving: {rate} ops/s Poisson arrivals, ShardedAlex[{shards}] behind \
             alex-server ({n} init keys, {ops} ops/run)"
        );
        println!("(one-core container: compare latency shapes, not absolute values)");
    }
    let mut keys: Vec<u64> = longitudes_keys(n, seed).into_iter().map(ordered_bits).collect();
    keys.sort_unstable();
    keys.dedup();
    let fresh_base = keys.last().expect("non-empty dataset") + 1;
    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let keys = Arc::new(keys);
    for &kind in kinds {
        let run = format!("fig5_threads/{}/open@{rate}", kind.name());
        let mut clients = 1usize;
        while clients <= max_threads {
            let index = ShardedAlex::bulk_load(&pairs, shards, AlexConfig::ga_armi());
            let server = Server::start(index, ServerConfig::default());
            let spec = LoadSpec {
                ops,
                clients,
                read_pct: read_pct_of(kind),
                arrival: Arrival::Open { rate_per_sec: rate as f64 },
                seed,
            };
            let report = run_load(&server.client(), &keys, fresh_base, &spec);
            let stats = server.stats().aggregate();
            server.shutdown();
            let label = format!("{clients} clients");
            match format {
                ReportFormat::Csv => {
                    emit_latency_metrics(&run, &label, &report.latency);
                    emit_metric(
                        &run,
                        &label,
                        "achieved_ops_per_sec",
                        format!("{:.0}", report.achieved_rate()),
                    );
                    emit_metric(
                        &run,
                        &label,
                        "batch_occupancy_mean",
                        format!("{:.3}", stats.batch_occupancy_mean()),
                    );
                }
                ReportFormat::Table => {
                    let lat = &report.latency;
                    println!(
                        "{:<14} {label:<12} p50 {:>9.1}us  p99 {:>9.1}us  p999 {:>9.1}us  \
                         ({:.0} ops/s achieved, {:.2} ops/batch)",
                        kind.name(),
                        lat.p50() as f64 / 1e3,
                        lat.p99() as f64 / 1e3,
                        lat.p999() as f64 / 1e3,
                        report.achieved_rate(),
                        stats.batch_occupancy_mean(),
                    );
                }
            }
            clients *= 2;
        }
    }
}

fn main() {
    let args = Args::parse();
    let n = args.usize("keys", DEFAULT_INIT_KEYS);
    let ops = args.usize("ops", DEFAULT_OPS);
    let seed = args.u64("seed", DEFAULT_SEED);
    let max_threads = args.usize("max-threads", 8);
    let shards = args.usize("shards", max_threads.max(2));
    let workload = args.string("workload", "read-only");
    let arrival_rate = args.u64("arrival-rate", 0); // ops/sec; 0 = closed loop
    let format = ReportFormat::from_flag(args.flag("csv"));

    let kinds: Vec<WorkloadKind> = WorkloadKind::parse_selection(&workload);

    if arrival_rate > 0 {
        open_loop_sweep(&kinds, arrival_rate, n, ops, seed, max_threads, shards, format);
        return;
    }

    if format == ReportFormat::Csv {
        println!("{CSV_HEADER}");
    } else {
        println!(
            "Thread scalability: ShardedAlex[{shards}] on longitudes ({n} init keys, {ops} ops/run)"
        );
    }

    for kind in kinds {
        // Read-only initializes with the full dataset; mixes with
        // inserts hold back a pool large enough for every thread.
        let total = if kind == WorkloadKind::ReadOnly { n } else { n + ops };
        let keys = longitudes_keys(total, seed);
        let (init_keys, inserts) = split_init(keys, n);
        let data: Vec<(f64, u64)> = init_keys.iter().map(|&k| (k, k.to_bits())).collect();

        let mut rows = Vec::new();
        // True single-threaded baseline: plain AlexIndex, no locks.
        let mut st = run_alex(
            &data,
            &init_keys,
            &inserts,
            AlexConfig::ga_armi(),
            kind,
            ops,
            |k| k.to_bits(),
        );
        st.label = "AlexIndex st".to_string();
        rows.push(st);
        let mut threads = 1usize;
        while threads <= max_threads {
            // Fresh index per run: insert-bearing mixes mutate it.
            let index = ShardedAlex::bulk_load(&data, shards, AlexConfig::ga_armi());
            let spec = WorkloadSpec::new(kind, ops);
            let report = run_workload_mt(&index, &init_keys, &inserts, &spec, threads, |k| {
                k.to_bits()
            });
            rows.push(Row::from_report(&report, Some(format!("{threads} threads"))));
            threads *= 2;
        }
        emit_rows(
            &format!("fig5_threads/{}", kind.name()),
            &rows,
            "1 threads",
            format,
        );
        if format == ReportFormat::Table {
            let base = rows
                .iter()
                .find(|r| r.label == "1 threads")
                .expect("1-thread run always present")
                .throughput;
            let best = rows.last().expect("at least one run");
            println!(
                "speedup at {}: {:.2}x over 1 thread ({})",
                best.label,
                best.throughput / base,
                kind.name()
            );
        }
    }
    if format == ReportFormat::Table {
        println!("\npaper shape: read-dominated mixes scale near-linearly until shards contend");
    }
}
