//! The metrics every workload reports, their units, and the result
//! line. The two lists here are the ones `BENCHMARK.json` declares; a
//! unit test keeps them in step.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): what a user of the index sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("scan_keys_per_s", "1/s"),
    ("setup_s", "s"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MB"),
    ("index_bytes", "B"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics (`--trace 1`), named by the module they measure.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.gen_s", "s"),
    ("core.bulk_load_s", "s"),
    ("core.get_ns", "ns"),
    ("core.get_p99_ns", "ns"),
    ("core.get_hot_ns", "ns"),
    ("core.insert_ns", "ns"),
    ("core.insert_p99_ns", "ns"),
    ("core.scan_ns_per_key", "ns"),
    ("core.comparisons_per_lookup", "count"),
    ("core.direct_hit_frac", "fraction"),
    ("core.leaves", "count"),
    ("core.inner_nodes", "count"),
    ("core.data_bytes", "B"),
    ("core.shifts_per_insert", "count"),
    ("core.expansions", "count"),
    ("core.splits", "count"),
    ("core.retrains", "count"),
    ("core.leaf_clones_per_write", "ratio"),
    ("core.delta_hit_frac", "fraction"),
    ("server.overhead_frac", "fraction"),
    ("server.max_rate_under_slo", "1/s"),
    ("server.batch_occupancy_mean", "count"),
    ("server.queue_depth_mean", "count"),
    ("server.queue_depth_max", "count"),
    ("server.get_run_frac", "fraction"),
    ("server.insert_run_frac", "fraction"),
    ("server.singleton_frac", "fraction"),
    ("loadgen.late_frac", "fraction"),
    ("wal.time_frac", "fraction"),
    ("wal.syncs_per_op", "ratio"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.snapshot_frac", "fraction"),
    ("wal.replayed", "count"),
    ("btree.get_ns", "ns"),
    ("btree.insert_ns", "ns"),
    ("learned_index.get_ns", "ns"),
    ("latency.p95_us", "us"),
    ("latency.p99_us", "us"),
    ("latency.p999_us", "us"),
    ("reference.speed", "ratio"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
];

/// Counts checked outputs and mismatches.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Check {
    /// Count one checked output.
    #[inline]
    pub fn expect(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count one checked output, with a message if it is wrong.
    pub fn expect_that(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.expect(ok);
        if !ok && self.messages.len() < 16 {
            self.messages.push(what());
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// Print every metric of `declared` found in `values` as one line, then
/// the result object as the last line. Returns the names missing from
/// `values` (a bug in the workload).
pub fn print_result(
    declared: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
    check: &Check,
) -> Vec<&'static str> {
    let mut missing = Vec::new();
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        match values.get(name) {
            Some(&value) if value.is_finite() => {
                println!("{name} {value} {unit}");
                fields.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            }
            _ => missing.push(name),
        }
    }
    let correct = check.failed == 0 && missing.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.attempted.max(1),
        check.failed,
        fields.join(", ")
    );
    missing
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both metric lists must match `BENCHMARK.json` exactly, name for
    /// name and unit for unit.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let rest = &json[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let text = section(key);
            let declared = text.matches("\"name\"").count();
            assert_eq!(
                declared,
                list.len(),
                "{key}: BENCHMARK.json declares {declared} metrics"
            );
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(
                    text.contains(&entry),
                    "{key}: {entry} missing from BENCHMARK.json"
                );
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        all.sort_unstable();
        let len = all.len();
        all.dedup();
        assert_eq!(all.len(), len);
    }

    #[test]
    fn check_counts_failures() {
        let mut check = Check::default();
        check.expect(true);
        check.expect_that(false, || "bad".into());
        assert_eq!((check.attempted, check.failed), (2, 1));
        assert_eq!(check.messages(), ["bad".to_string()]);
    }
}
