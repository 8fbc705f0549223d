//! Competitor setup and result formatting shared by the figure
//! binaries.

use alex_btree::BPlusTree;
use alex_core::{AlexConfig, AlexIndex, AlexKey};
use alex_learned_index::LearnedIndex;
use alex_workloads::{run_workload, WorkloadKind, WorkloadSpec};

/// One result row: a competitor's throughput and sizes.
#[derive(Debug, Clone)]
pub struct Row {
    /// Competitor label.
    pub label: String,
    /// Operations per second.
    pub throughput: f64,
    /// Index size in bytes (§5.1 accounting).
    pub index_bytes: usize,
    /// Data size in bytes.
    pub data_bytes: usize,
}

impl Row {
    /// Build a row from a finished workload report, optionally
    /// overriding the label (e.g. to tag a thread count).
    pub fn from_report(report: &alex_workloads::WorkloadReport, label: Option<String>) -> Self {
        Self {
            label: label.unwrap_or_else(|| report.label.clone()),
            throughput: report.throughput(),
            index_bytes: report.index_size_bytes,
            data_bytes: report.data_size_bytes,
        }
    }
}

/// How result rows are emitted: human-readable table or
/// machine-readable CSV (for diffing bench runs across PRs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Aligned table with a normalized-throughput column.
    #[default]
    Table,
    /// One CSV line per row (`run,label,ops_per_sec,vs_baseline,index_bytes,data_bytes`).
    Csv,
}

impl ReportFormat {
    /// `Csv` when the `--csv` flag is present, `Table` otherwise.
    pub fn from_flag(csv: bool) -> Self {
        if csv {
            ReportFormat::Csv
        } else {
            ReportFormat::Table
        }
    }
}

/// The CSV column header matching [`emit_rows`]' CSV mode. Binaries
/// print it once before their first data line.
pub const CSV_HEADER: &str = "run,label,ops_per_sec,vs_baseline,index_bytes,data_bytes";

/// Header for the long-format metric CSV emitted by [`emit_metric`] —
/// the machine-readable mode of the figure binaries whose outputs are
/// not throughput rows (histograms, percentiles, counters). One metric
/// per line keeps whole-paper runs diffable with plain `diff`.
pub const METRIC_CSV_HEADER: &str = "run,label,metric,value";

/// Emit one long-format metric line (`--csv` mode of the non-throughput
/// figure binaries). Commas in identifiers are sanitized so the row
/// count always matches the header.
pub fn emit_metric(run: &str, label: &str, metric: &str, value: impl std::fmt::Display) {
    println!(
        "{},{},{},{value}",
        run.replace(',', ";"),
        label.replace(',', ";"),
        metric.replace(',', ";")
    );
}

/// Emit one latency distribution as long-format metric lines
/// (`p50_us` … `max_us`), the shared CSV shape for every binary that
/// measures per-op latency (`server_loadgen`). Nanosecond samples are
/// reported in microseconds so rows stay readable next to throughput
/// numbers.
pub fn emit_latency_metrics(run: &str, label: &str, latency: &alex_server::HistogramSnapshot) {
    emit_metric(run, label, "ops", latency.count());
    emit_metric(run, label, "p50_us", format!("{:.2}", latency.p50() as f64 / 1e3));
    emit_metric(run, label, "p99_us", format!("{:.2}", latency.p99() as f64 / 1e3));
    emit_metric(run, label, "p999_us", format!("{:.2}", latency.p999() as f64 / 1e3));
    emit_metric(run, label, "mean_us", format!("{:.2}", latency.mean() / 1e3));
    emit_metric(run, label, "max_us", format!("{:.2}", latency.max() as f64 / 1e3));
}

/// Emit rows in the requested format. `title` identifies the run (CSV
/// mode embeds it in the first column, with commas sanitized);
/// `baseline` names the row used for the normalized-throughput column.
pub fn emit_rows(title: &str, rows: &[Row], baseline: &str, format: ReportFormat) {
    match format {
        ReportFormat::Table => print_rows(title, rows, baseline),
        ReportFormat::Csv => {
            let run = title.replace(',', ";");
            let base = rows
                .iter()
                .find(|r| r.label == baseline)
                .map(|r| r.throughput)
                .unwrap_or(0.0);
            for r in rows {
                let rel = if base > 0.0 { r.throughput / base } else { 0.0 };
                println!(
                    "{run},{},{:.0},{:.4},{},{}",
                    r.label.replace(',', ";"),
                    r.throughput,
                    rel,
                    r.index_bytes,
                    r.data_bytes
                );
            }
        }
    }
}

/// Print rows as a table with a normalized-throughput column
/// (baseline = the `baseline`-labelled row, usually the B+Tree).
pub fn print_rows(title: &str, rows: &[Row], baseline: &str) {
    println!("\n== {title} ==");
    let base = rows
        .iter()
        .find(|r| r.label == baseline)
        .map(|r| r.throughput)
        .unwrap_or(0.0);
    println!(
        "{:<16} {:>12} {:>9} {:>14} {:>12}",
        "index", "ops/sec", "vs B+Tree", "index bytes", "data MiB"
    );
    for r in rows {
        let rel = if base > 0.0 { r.throughput / base } else { 0.0 };
        println!(
            "{:<16} {:>12.0} {:>8.2}x {:>14} {:>12.1}",
            r.label,
            r.throughput,
            rel,
            r.index_bytes,
            r.data_bytes as f64 / (1 << 20) as f64
        );
    }
}

/// Sort a key set and split it into `(sorted_init, insert_stream)`.
pub fn split_init<K: AlexKey>(mut keys: Vec<K>, init: usize) -> (Vec<K>, Vec<K>) {
    assert!(init <= keys.len());
    let inserts = keys.split_off(init);
    let mut init_keys = keys;
    init_keys.sort_by(|a, b| a.partial_cmp(b).expect("keys are totally ordered"));
    (init_keys, inserts)
}

/// Run one workload against a fresh ALEX configured with `cfg`.
pub fn run_alex<K, V>(
    data: &[(K, V)],
    init_keys: &[K],
    inserts: &[K],
    cfg: AlexConfig,
    kind: WorkloadKind,
    ops: usize,
    make_value: impl FnMut(&K) -> V,
) -> Row
where
    K: AlexKey,
    V: Clone + Default,
{
    let mut idx = AlexIndex::bulk_load(data, cfg);
    let spec = WorkloadSpec::new(kind, ops);
    let report = run_workload(&mut idx, init_keys, inserts, &spec, make_value);
    Row::from_report(&report, None)
}

/// Run one workload against a fresh B+Tree for each fanout in
/// `fanouts`, keeping the best throughput — the paper's grid search
/// over STX page sizes (§5.1).
pub fn run_btree_grid<K, V>(
    data: &[(K, V)],
    init_keys: &[K],
    inserts: &[K],
    fanouts: &[usize],
    kind: WorkloadKind,
    ops: usize,
    mut make_value: impl FnMut(&K) -> V,
) -> Row
where
    K: AlexKey,
    V: Clone,
{
    let mut best: Option<Row> = None;
    for &fanout in fanouts {
        let mut idx = BPlusTree::bulk_load(data, fanout, fanout, 0.7);
        let spec = WorkloadSpec::new(kind, ops);
        let report = run_workload(&mut idx, init_keys, inserts, &spec, &mut make_value);
        let row = Row::from_report(&report, Some("B+Tree".to_string()));
        if best.as_ref().is_none_or(|b| row.throughput > b.throughput) {
            best = Some(row);
        }
    }
    best.expect("at least one fanout")
}

/// Run one workload against a fresh Learned Index for each model count
/// in `model_counts`, keeping the best throughput. Only meaningful for
/// read-only workloads (the paper excludes LI from read-write runs).
pub fn run_learned_index_grid<K, V>(
    data: &[(K, V)],
    init_keys: &[K],
    model_counts: &[usize],
    ops: usize,
) -> Row
where
    K: AlexKey,
    V: Clone + Default,
{
    let mut best: Option<Row> = None;
    for &m in model_counts {
        let mut idx = LearnedIndex::bulk_load(data, m);
        let spec = WorkloadSpec::new(WorkloadKind::ReadOnly, ops);
        let report = run_workload(&mut idx, init_keys, &[], &spec, |_| V::default());
        let row = Row::from_report(&report, Some("Learned Index".to_string()));
        if best.as_ref().is_none_or(|b| row.throughput > b.throughput) {
            best = Some(row);
        }
    }
    best.expect("at least one model count")
}

/// The ALEX variant the paper reports per workload (§5.2.1–5.2.3):
/// GA-SRMI for read-only, GA-ARMI otherwise.
pub fn paper_alex_config(kind: WorkloadKind, init_keys: usize) -> AlexConfig {
    match kind {
        WorkloadKind::ReadOnly => AlexConfig::ga_srmi((init_keys / 8192).max(4)),
        _ => AlexConfig::ga_armi(),
    }
}

/// Grid of ALEX configs per workload, mirroring the paper's tuning
/// (§5.1: "The number of models for static RMI and the maximum bound
/// keys per leaf for adaptive RMI are tuned using grid search").
pub fn paper_alex_grid(kind: WorkloadKind, init_keys: usize) -> Vec<AlexConfig> {
    match kind {
        WorkloadKind::ReadOnly => [512usize, 2048, 8192]
            .into_iter()
            .map(|per_leaf| AlexConfig::ga_srmi((init_keys / per_leaf).max(4)))
            .collect(),
        _ => [1024usize, 4096, 16384]
            .into_iter()
            .map(|max| AlexConfig::ga_armi().with_max_node_keys(max))
            .collect(),
    }
}

/// Run every config in `grid` against a fresh ALEX; keep the best
/// throughput.
pub fn run_alex_grid<K, V>(
    data: &[(K, V)],
    init_keys: &[K],
    inserts: &[K],
    grid: &[AlexConfig],
    kind: WorkloadKind,
    ops: usize,
    mut make_value: impl FnMut(&K) -> V,
) -> Row
where
    K: AlexKey,
    V: Clone + Default,
{
    let mut best: Option<Row> = None;
    for &cfg in grid {
        let row = run_alex(data, init_keys, inserts, cfg, kind, ops, &mut make_value);
        if best.as_ref().is_none_or(|b| row.throughput > b.throughput) {
            best = Some(row);
        }
    }
    best.expect("at least one config")
}

/// Simple percentile over an unsorted sample (used by the latency
/// study, Figure 9).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[rank]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_init_sorts_prefix() {
        let (init, inserts) = split_init(vec![5u64, 1, 9, 3, 7], 3);
        assert_eq!(init, vec![1, 5, 9]);
        assert_eq!(inserts, vec![3, 7]);
    }

    #[test]
    fn percentile_basics() {
        let mut s = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut s, 0.5), 3.0);
        assert_eq!(percentile(&mut s, 1.0), 5.0);
    }

    #[test]
    fn paper_config_selection() {
        assert_eq!(
            paper_alex_config(WorkloadKind::ReadOnly, 100_000).variant_name(),
            "ALEX-GA-SRMI"
        );
        assert_eq!(
            paper_alex_config(WorkloadKind::WriteHeavy, 100_000).variant_name(),
            "ALEX-GA-ARMI"
        );
    }
}
