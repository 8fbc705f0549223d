//! Serving-tier load generator: drive a [`Server`] worker pool with
//! closed- or open-loop clients and report the latency distribution
//! plus the worker-side batching counters.
//!
//! This is the end-to-end harness for the `alex-server` stack: the
//! queue bound, batch cap, shard count, and arrival discipline are
//! all on the command line, so the batching-under-load behavior
//! (deeper backlog → larger coalesced runs) is directly observable
//! in the `batch_occupancy_mean` metric.
//!
//! ```sh
//! cargo run -p alex-bench --release --bin server_loadgen -- \
//!     --keys 1000000 --ops 200000 --clients 4 --shards 4 --read-pct 90
//! # open loop at 100k ops/s, machine-readable:
//! cargo run -p alex-bench --release --bin server_loadgen -- \
//!     --rate 100000 --csv
//! ```
//!
//! Caveat (see ROADMAP): in a one-core container the client threads,
//! workers, and timers all share a core, so absolute latencies mostly
//! measure scheduling; the *shape* (batching engagement, p50 vs p999
//! spread, open- vs closed-loop gap) is the reproducible signal.

use std::sync::Arc;

use alex_bench::cli::Args;
use alex_bench::harness::{emit_latency_metrics, emit_metric, ReportFormat, METRIC_CSV_HEADER};
use alex_bench::{DEFAULT_OPS, DEFAULT_SEED};
use alex_core::AlexConfig;
use alex_datasets::lognormal_keys;
use alex_server::{run_load, Arrival, LoadSpec, Server, ServerConfig};
use alex_sharded::ShardedAlex;

fn main() {
    let args = Args::parse();
    let n = args.usize("keys", 200_000);
    let ops = args.usize("ops", DEFAULT_OPS.min(100_000));
    let clients = args.usize("clients", 4);
    let shards = args.usize("shards", 4);
    let rate = args.u64("rate", 0); // ops/sec; 0 = closed loop
    let read_pct = args.u64("read-pct", 90) as u32;
    let queue_capacity = args.usize("queue-cap", 1024);
    let max_batch = args.usize("max-batch", 128);
    let seed = args.u64("seed", DEFAULT_SEED);
    let format = ReportFormat::from_flag(args.flag("csv"));

    let mut keys = lognormal_keys(n, seed);
    keys.sort_unstable();
    keys.dedup();
    let fresh_base = keys.last().expect("non-empty dataset") + 1;
    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 0xA5A5)).collect();
    let index = ShardedAlex::bulk_load(&pairs, shards, AlexConfig::ga_armi());

    let arrival = if rate == 0 { Arrival::Closed } else { Arrival::Open { rate_per_sec: rate as f64 } };
    let spec = LoadSpec { ops, clients, read_pct, arrival, seed };
    let mode = if rate == 0 { "closed".to_string() } else { format!("open@{rate}") };
    let label = format!("{mode}/c{clients}/s{shards}/r{read_pct}");
    let run = "server_loadgen";

    if format == ReportFormat::Csv {
        println!("# one-core container: absolute latency is mostly scheduling; compare shapes");
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!(
            "server_loadgen: {n} keys, {ops} ops, {clients} clients, {shards} shards, \
             {read_pct}% reads, {mode} arrivals"
        );
    }

    let server = Server::start(index, ServerConfig { queue_capacity, max_batch });
    let keys = Arc::new(keys);
    let report = run_load(&server.client(), &keys, fresh_base, &spec);
    let stats = server.stats().aggregate();
    server.shutdown();

    match format {
        ReportFormat::Csv => {
            emit_latency_metrics(run, &label, &report.latency);
            emit_metric(run, &label, "achieved_ops_per_sec", format!("{:.0}", report.achieved_rate()));
            if let Some(offered) = report.offered_rate {
                emit_metric(run, &label, "offered_ops_per_sec", format!("{offered:.0}"));
            }
            emit_metric(run, &label, "batches", stats.batches);
            emit_metric(
                run,
                &label,
                "batch_occupancy_mean",
                format!("{:.3}", stats.batch_occupancy_mean()),
            );
            emit_metric(run, &label, "queue_depth_mean", format!("{:.3}", stats.queue_depth_mean()));
            emit_metric(run, &label, "queue_depth_max", stats.queue_depth_max);
            emit_metric(run, &label, "get_run_ops", stats.get_run_ops);
            emit_metric(run, &label, "singletons", stats.singletons);
        }
        ReportFormat::Table => {
            let lat = &report.latency;
            println!(
                "latency us: p50 {:.1}  p99 {:.1}  p999 {:.1}  max {:.1}  mean {:.1}",
                lat.p50() as f64 / 1e3,
                lat.p99() as f64 / 1e3,
                lat.p999() as f64 / 1e3,
                lat.max() as f64 / 1e3,
                lat.mean() / 1e3,
            );
            println!(
                "throughput: {:.0} ops/s achieved{}",
                report.achieved_rate(),
                report
                    .offered_rate
                    .map(|r| format!(" ({r:.0} offered"))
                    .map(|s| s + ")")
                    .unwrap_or_default()
            );
            println!(
                "batching: {:.2} ops/batch over {} batches; {} coalesced lookup ops, \
                 {} singletons; queue depth mean {:.2} max {}",
                stats.batch_occupancy_mean(),
                stats.batches,
                stats.get_run_ops,
                stats.singletons,
                stats.queue_depth_mean(),
                stats.queue_depth_max,
            );
            println!("\npaper shape: backlog converts to batch occupancy, not dropped requests");
        }
    }
}
