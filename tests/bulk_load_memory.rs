//! A bulk load holds no per-key transient beside the leaves it builds.
//!
//! `VmHWM`, the peak resident set, is one number per process, so this
//! file holds a single test: its process's peak is that test's.
#![cfg(target_os = "linux")]

use alex_repro::alex_core::{AlexConfig, AlexIndex};

/// A `/proc/self/status` field (`VmRSS`, `VmHWM`, ...) in bytes.
fn status_bytes(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: usize = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    kib * 1024
}

#[test]
fn bulk_load_peak_grows_by_the_index_it_builds() {
    let n = 1_000_000u64;
    // Collected straight into their one allocation, so building the
    // input leaves no freed peak above the resident set.
    let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i * 7 + 1, i)).collect();
    let before = status_bytes("VmRSS");
    let index = AlexIndex::bulk_load(&pairs, AlexConfig::ga_srmi(pairs.len() / 8192));
    let growth = status_bytes("VmHWM").saturating_sub(before);
    let report = index.size_report();
    let bound = report.data_bytes + report.index_bytes + (8 << 20);
    assert!(
        growth <= bound,
        "bulk load grew the peak resident set by {} MiB; the index it built is {} MiB of leaves \
         and {} KiB of routing, so the load held {} MiB more than the index plus 8 MiB",
        growth >> 20,
        report.data_bytes >> 20,
        report.index_bytes >> 10,
        (growth - bound) >> 20
    );
    assert_eq!(index.len(), pairs.len());
}
