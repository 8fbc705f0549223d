//! Write amplification of the concurrent write paths: how many full
//! leaf copies the epoch (copy-on-write) path pays per write, and what
//! that costs in throughput against an in-place writer.
//!
//! Three epoch flavours are measured — delta-buffered point inserts
//! (the default), buffering disabled (`--delta-cap 0`, the
//! clone-per-write behaviour), and the run-level `bulk_insert` batch
//! path — plus an exclusive `AlexIndex`, which edits leaves in place
//! with no lock, as the no-CoW reference (`in-place bulk`, `in-place
//! point`). Reported metrics per run: `ops_per_sec`, `leaf_clones`,
//! `clones_per_insert`, `delta_hits`, `flushes` (clone metrics are
//! structurally zero for the in-place rows).
//!
//! ```sh
//! cargo run -p alex-bench --release --bin fig_write_amp -- \
//!     --keys 1000000 --ops 200000 --delta-cap 32
//! # machine-readable, diffable across PRs:
//! cargo run -p alex-bench --release --bin fig_write_amp -- --csv
//! ```
//!
//! Expected shape: batch runs clone once per leaf run (clones/insert
//! ≈ leaves/keys ≪ 1); buffered point inserts clone once per
//! `delta-cap` writes; `--delta-cap 0` clones once per write and pays
//! for it in throughput.

use std::time::Instant;

use alex_bench::cli::Args;
use alex_bench::harness::{emit_metric, ReportFormat, METRIC_CSV_HEADER};
use alex_bench::DEFAULT_INIT_KEYS;
use alex_core::{AlexConfig, AlexIndex, EpochAlex, EpochWriteStats};

const RUN: &str = "fig_write_amp";

struct Measurement {
    label: String,
    ops: usize,
    secs: f64,
    stats: EpochWriteStats,
}

impl Measurement {
    fn report(&self, format: ReportFormat) {
        let throughput = self.ops as f64 / self.secs.max(1e-12);
        let clones_per_insert = self.stats.leaf_clones as f64 / self.ops.max(1) as f64;
        match format {
            ReportFormat::Csv => {
                emit_metric(RUN, &self.label, "ops_per_sec", format!("{throughput:.0}"));
                emit_metric(RUN, &self.label, "leaf_clones", self.stats.leaf_clones);
                emit_metric(RUN, &self.label, "clones_per_insert", format!("{clones_per_insert:.6}"));
                emit_metric(RUN, &self.label, "delta_hits", self.stats.delta_hits);
                emit_metric(RUN, &self.label, "flushes", self.stats.flushes);
            }
            ReportFormat::Table => {
                println!(
                    "{:<22} {:>12.0} {:>12} {:>14.4} {:>12} {:>9}",
                    self.label,
                    throughput,
                    self.stats.leaf_clones,
                    clones_per_insert,
                    self.stats.delta_hits,
                    self.stats.flushes
                );
            }
        }
    }
}

/// Insert keys spread over the loaded key space: evens are loaded,
/// odds get inserted. `shuffled` selects the point-workload order
/// (deterministic LCG Fisher–Yates) vs. the sorted batch order.
fn insert_stream(n: usize, ops: usize, shuffled: bool) -> Vec<(u64, u64)> {
    let stride = (n / ops).max(1) as u64;
    let mut pairs: Vec<(u64, u64)> = (0..ops as u64).map(|j| (2 * j * stride + 1, j)).collect();
    if shuffled {
        let mut x = 0x2545F4914F6CDD1Du64;
        for i in (1..pairs.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            pairs.swap(i, (x >> 33) as usize % (i + 1));
        }
    }
    pairs
}

fn main() {
    let args = Args::parse();
    let n = args.usize("keys", DEFAULT_INIT_KEYS);
    let ops = args.usize("ops", (n / 5).max(1));
    let cap = args.usize("delta-cap", 32);
    let format = ReportFormat::from_flag(args.flag("csv"));

    let config = AlexConfig::ga_armi().with_splitting().with_delta_buffer(cap);
    let init: Vec<(u64, u64)> = (0..n as u64).map(|k| (2 * k, k)).collect();
    let sorted = insert_stream(n, ops, false);
    let shuffled = insert_stream(n, ops, true);

    if format == ReportFormat::Csv {
        println!("{METRIC_CSV_HEADER}");
    } else {
        println!("Write amplification: {n} loaded keys, {ops} inserts, delta capacity {cap}");
        println!(
            "{:<22} {:>12} {:>12} {:>14} {:>12} {:>9}",
            "path", "ops/sec", "leaf_clones", "clones/insert", "delta_hits", "flushes"
        );
    }

    let mut results = Vec::new();

    // Epoch, batch path: one clone + publication per leaf run.
    {
        let index = EpochAlex::bulk_load(&init, config);
        let t = Instant::now();
        let landed = index.bulk_insert(&sorted);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(landed, Ok(ops), "batch inserts must all land");
        results.push(Measurement {
            label: "epoch bulk".into(),
            ops,
            secs,
            stats: index.write_stats(),
        });
    }

    // Epoch, delta-buffered point path.
    {
        let index = EpochAlex::bulk_load(&init, config);
        let t = Instant::now();
        for (k, v) in &shuffled {
            index.insert(*k, *v).expect("fresh key");
        }
        let secs = t.elapsed().as_secs_f64();
        results.push(Measurement {
            label: format!("epoch point cap={cap}"),
            ops,
            secs,
            stats: index.write_stats(),
        });
    }

    // Epoch, buffering disabled: the PR-4 clone-per-write baseline.
    {
        let index = EpochAlex::bulk_load(&init, config.with_delta_buffer(0));
        let t = Instant::now();
        for (k, v) in &shuffled {
            index.insert(*k, *v).expect("fresh key");
        }
        let secs = t.elapsed().as_secs_f64();
        results.push(Measurement {
            label: "epoch point cap=0".into(),
            ops,
            secs,
            stats: index.write_stats(),
        });
    }

    // In-place references (no CoW anywhere): the exclusive index
    // edits leaves in place, so its clone counters stay zero.
    {
        let mut index = AlexIndex::bulk_load(&init, config);
        let t = Instant::now();
        let landed = index.bulk_insert(&sorted);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(landed, Ok(ops));
        results.push(Measurement {
            label: "in-place bulk".into(),
            ops,
            secs,
            stats: EpochWriteStats::default(),
        });
    }
    {
        let mut index = AlexIndex::bulk_load(&init, config);
        let t = Instant::now();
        for (k, v) in &shuffled {
            assert!(index.insert(*k, *v).is_ok(), "fresh key");
        }
        let secs = t.elapsed().as_secs_f64();
        results.push(Measurement {
            label: "in-place point".into(),
            ops,
            secs,
            stats: EpochWriteStats::default(),
        });
    }

    for m in &results {
        m.report(format);
    }
    if format == ReportFormat::Table {
        println!("\nshape: batch clones once per leaf run; buffered points once per {cap} writes; cap=0 once per write");
    }
}
