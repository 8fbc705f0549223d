//! Multi-threaded workload execution.
//!
//! [`run_workload_mt`] serves the same mixes as [`crate::run_workload`]
//! — including the remove-heavy mix — but from `N` worker threads
//! inside a `std::thread::scope`, against any [`ConcurrentIndex`] — an
//! index whose operations (including inserts and removes) take `&self`
//! and are safe under concurrent callers. The flagship backend is
//! `alex_sharded::ShardedAlex`, whose shards are epoch-protected
//! (reads never take a lock; splits retire nodes through
//! `alex_core::epoch`), with the reference
//! [`LockedBTreeMap`](alex_api::LockedBTreeMap) as the blocking
//! baseline; `fig5_threads` sweeps thread counts over the sharded
//! index.
//!
//! The op budget is split evenly across threads; the insert-key pool is
//! partitioned so threads never race on the same key. Each thread draws
//! lookup keys Zipf-style from its own view of the key pool (the initial
//! keys plus the keys *it* inserted), so every lookup targets a key
//! guaranteed to be present — the same always-hit property the
//! single-threaded driver has. Removes likewise evict only keys the
//! same thread inserted, so no two threads ever contend on one key's
//! lifecycle and every remove must succeed.

use std::time::Instant;

use alex_api::ConcurrentIndex;

use crate::driver::{drive_mix, IndexOp, IndexOpResult};
use crate::{WorkloadReport, WorkloadSpec};

/// Per-thread slice of the run: the shared mix loop of
/// [`crate::run_workload`], executed through `&self` operations.
fn run_worker<K, V, I>(
    index: &I,
    existing_keys: &[K],
    insert_keys: &[K],
    spec: &WorkloadSpec,
    ops_budget: usize,
    thread_seed: u64,
    make_value: &(impl Fn(&K) -> V + Sync),
) -> WorkloadReport
where
    K: Copy,
    I: ConcurrentIndex<K, V> + ?Sized,
{
    drive_mix(
        existing_keys,
        insert_keys,
        spec,
        ops_budget,
        thread_seed,
        index.label(),
        |op| match op {
            IndexOp::Contains(k) => IndexOpResult::Hit(index.contains(k)),
            IndexOp::Scan(k, len) => IndexOpResult::Scanned(index.scan_from(k, len, &mut |k, v| {
                core::hint::black_box((k, v));
            })),
            IndexOp::Insert(k) => {
                IndexOpResult::Inserted(index.insert(k, make_value(&k)).is_ok())
            }
            IndexOp::Remove(k) => IndexOpResult::Removed(index.remove(k).is_some()),
        },
    )
}

/// Run `spec` against `index` from `threads` worker threads.
///
/// `existing_keys` must list the keys already loaded (in any order);
/// `insert_keys` is split into `threads` disjoint chunks. The combined
/// report sums per-thread op counts; `elapsed` is the wall-clock time
/// of the whole scope (so `throughput()` reflects aggregate ops/sec).
///
/// # Panics
/// Panics if `threads == 0` or `existing_keys` is empty.
pub fn run_workload_mt<K, V, I>(
    index: &I,
    existing_keys: &[K],
    insert_keys: &[K],
    spec: &WorkloadSpec,
    threads: usize,
    make_value: impl Fn(&K) -> V + Sync,
) -> WorkloadReport
where
    K: Copy + Sync,
    V: Send,
    I: ConcurrentIndex<K, V> + ?Sized,
{
    assert!(threads > 0, "need at least one worker thread");
    assert!(!existing_keys.is_empty(), "need at least one existing key");
    let ops_per_thread = spec.ops.div_ceil(threads);
    let chunk = insert_keys.len().div_ceil(threads).max(1);
    let make_value = &make_value;

    let start = Instant::now();
    let mut reports: Vec<WorkloadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let inserts = insert_keys.chunks(chunk).nth(t).unwrap_or(&[]);
                scope.spawn(move || {
                    run_worker(
                        index,
                        existing_keys,
                        inserts,
                        spec,
                        ops_per_thread,
                        spec.seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1)),
                        make_value,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();

    let mut total = reports.pop().expect("threads > 0");
    for r in reports {
        total.ops += r.ops;
        total.reads += r.reads;
        total.inserts += r.inserts;
        total.removes += r.removes;
        total.scanned += r.scanned;
        total.hits += r.hits;
        total.evictions += r.evictions;
    }
    total.elapsed = elapsed;
    total.index_size_bytes = index.index_size_bytes();
    total.data_size_bytes = index.data_size_bytes();
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadKind;
    use alex_api::{IndexRead, LockedBTreeMap};

    fn setup() -> (LockedBTreeMap<u64, u64>, Vec<u64>, Vec<u64>) {
        let existing: Vec<u64> = (0..2000u64).map(|k| k * 2).collect();
        let inserts: Vec<u64> = (0..2000u64).map(|k| k * 2 + 1).collect();
        let pairs: Vec<(u64, u64)> = existing.iter().map(|&k| (k, k)).collect();
        (LockedBTreeMap::from_pairs(&pairs), existing, inserts)
    }

    #[test]
    fn read_only_always_hits_across_threads() {
        let (index, existing, _) = setup();
        let spec = WorkloadSpec::new(WorkloadKind::ReadOnly, 4000);
        let report = run_workload_mt(&index, &existing, &[], &spec, 4, |&k| k);
        assert_eq!(report.reads, report.ops);
        assert_eq!(report.hits, report.reads, "Zipf over existing keys must always hit");
        assert!(report.ops >= 4000, "ceil-split budget covers the request");
        assert_eq!(report.inserts, 0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn write_heavy_inserts_are_disjoint_and_land() {
        let (index, existing, inserts) = setup();
        let spec = WorkloadSpec::new(WorkloadKind::WriteHeavy, 2000);
        let report = run_workload_mt(&index, &existing, &inserts, &spec, 4, |&k| k);
        assert_eq!(report.hits, report.reads, "thread-local pools always hit");
        assert!(report.inserts > 0);
        // Disjoint chunks: every attempted insert is fresh, so the map
        // grew by exactly the insert count.
        assert_eq!(index.len(), existing.len() + report.inserts as usize);
    }

    #[test]
    fn range_scans_count_entries() {
        let (index, existing, inserts) = setup();
        let spec = WorkloadSpec::new(WorkloadKind::RangeScan, 1000);
        let report = run_workload_mt(&index, &existing, &inserts, &spec, 2, |&k| k);
        assert!(report.scanned > 0);
        assert!(report.scanned as f64 / report.reads as f64 > 10.0, "mean scan length ~50");
    }

    #[test]
    fn remove_heavy_runs_under_the_mt_driver() {
        let (index, existing, inserts) = setup();
        let spec = WorkloadSpec::new(WorkloadKind::RemoveHeavy, 4000);
        let report = run_workload_mt(&index, &existing, &inserts, &spec, 4, |&k| k);
        assert!(report.removes > 0, "MT driver must execute remove ops");
        assert_eq!(report.evictions, report.removes, "thread-local evictions always hit");
        assert_eq!(report.hits, report.reads, "reads never target evicted keys");
        // Per-thread LIFO eviction drains every insert.
        assert_eq!(index.len(), existing.len());
    }

    #[test]
    fn single_thread_mt_matches_spec_budget() {
        let (index, existing, inserts) = setup();
        let spec = WorkloadSpec::new(WorkloadKind::ReadHeavy, 1000);
        let report = run_workload_mt(&index, &existing, &inserts, &spec, 1, |&k| k);
        assert_eq!(report.ops, 1000);
        assert_eq!(report.inserts, 50, "5% of 1000");
    }
}
