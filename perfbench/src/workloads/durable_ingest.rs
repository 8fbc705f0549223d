//! `durable-ingest`: logged inserts, a snapshot, a crash and recovery.
//!
//! 1M uniform `YCSB` keys go into a fresh `DurableAlex` (fsync on every
//! group commit of 64 records), then held-out keys are inserted in
//! random order with a snapshot after 80% of them. The store is
//! dropped without a flush of later work, as a crash would leave it,
//! and reopened: recovery loads the snapshot and replays an unsorted
//! tail. WAL appends, fsync and the shared-regime (`EpochAlex`) writes
//! dominate.

use std::path::{Path, PathBuf};

use alex_bench::harness::paper_alex_config;
use alex_wal::{DurableAlex, SyncPolicy, WalOptions};
use alex_workloads::WorkloadKind;

use super::*;

pub const KEYS: usize = 1_000_000;
/// The reference kernel's ns per search over `KEYS` values on the
/// reference VM.
pub const REFERENCE_NS: f64 = 320.0;
/// Logged inserts per second of the run (work fixed by `--seconds`).
const INSERTS_PER_SECOND: f64 = 60_000.0;
const SNAPSHOT_AT: f64 = 0.8;
const SCAN_SHARE: f64 = 0.15;
const OPTIONS: WalOptions = WalOptions {
    sync: SyncPolicy::Always,
    group_commit_ops: 64,
    segment_bytes: 8 << 20,
};

/// Removes a store directory when dropped.
struct Dir(PathBuf);

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

pub fn run(run: &mut Run) {
    let n = run.scaled(KEYS);
    let inserts = run.scaled((INSERTS_PER_SECOND * run.seconds) as usize);
    let probe_inserts = run.probe_inserts();
    let (mut keys, gen_s) = run.tracer.phase("gen", || {
        measure::paced(&mut run.reference, || {
            alex_datasets::ycsb_keys(n + inserts + probe_inserts, DATASET_SEED)
        })
    });
    report_gen(run, gen_s);
    let fresh = keys.split_off(n + inserts);
    let mut stream = keys.split_off(n);
    run.rng(3).shuffle(&mut stream);
    let initial = sorted(keys);
    let pairs = pairs_of(&initial);
    let config = paper_alex_config(WorkloadKind::WriteHeavy, n);
    let dir = Dir(run.run_dir.join(format!("store-{}", std::process::id())));

    // Each create needs an empty directory; clearing it is not timed.
    let (created, setup_s) = run.tracer.phase("setup", || {
        measure::median_timed(
            &mut run.reference,
            || {
                let _ = std::fs::remove_dir_all(&dir.0);
            },
            || DurableAlex::create(&dir.0, &pairs, config, OPTIONS),
        )
    });
    run.e2e.insert("setup_s", setup_s);
    let store = match created {
        Ok(store) => store,
        Err(e) => {
            run.check
                .expect_that(false, || format!("create failed: {e}"));
            return;
        }
    };

    let syncs_before = store.wal_stats().syncs;
    let cut = (inserts as f64 * SNAPSHOT_AT) as usize;
    let spec = |ops| LoopSpec {
        window_ops: 1 << 14,
        max_ops: ops,
        deadline: None,
    };
    let check = &mut run.check;
    let mut ingest = |tracer: &mut Tracer, reference: &mut Reference, phase, keys: &[u64]| {
        measure::timed_loop(&spec(keys.len()), tracer, reference, phase, |i| {
            let k = keys[i];
            check.expect(matches!(store.insert(k, payload(k)), Ok(true)));
            ("wal.insert", 1)
        })
    };
    let mut stats = ingest(
        &mut run.tracer,
        &mut run.reference,
        "phase.ingest",
        &stream[..cut],
    );
    let bytes = wal_bytes(&dir.0);
    let (snapshot, snapshot_s) = run
        .tracer
        .phase("snapshot", || measure::timed(|| store.snapshot()));
    let tail = ingest(
        &mut run.tracer,
        &mut run.reference,
        "phase.ingest_tail",
        &stream[cut..],
    );
    stats.absorb(tail);
    let flushed = store.flush_wal();
    run.check
        .expect_that(snapshot.is_ok() && flushed.is_ok(), || {
            "snapshot or WAL flush failed".into()
        });
    report_loop(run, &stats);
    run.layer
        .insert("wal.snapshot_frac", snapshot_s / stats.busy_secs());
    run.layer.insert(
        "wal.bytes_per_user_byte",
        bytes as f64 / (cut.max(1) as f64 * PAIR_BYTES),
    );
    run.layer.insert(
        "wal.syncs_per_op",
        (store.wal_stats().syncs - syncs_before) as f64 / inserts.max(1) as f64,
    );
    report_epoch_writes(run, store.index().write_stats(), inserts as u64);
    // The crash: nothing after the last commit reaches the disk.
    drop(store);

    let (opened, recovery_s) = run.tracer.phase("recovery", || {
        measure::paced(&mut run.reference, || {
            DurableAlex::<u64, u64>::open(&dir.0, config, OPTIONS)
        })
    });
    run.e2e.insert("recovery_s", recovery_s);
    let (store, report) = match opened {
        Ok(opened) => opened,
        Err(e) => {
            run.check
                .expect_that(false, || format!("recovery failed: {e}"));
            return;
        }
    };
    run.layer.insert("wal.replayed", report.replayed as f64);
    run.check.expect_that(report.replayed == inserts - cut, || {
        format!(
            "recovery replayed {} records, want {}",
            report.replayed,
            inserts - cut
        )
    });
    run.check.expect_that(store.len() == n + inserts, || {
        format!("recovered {} keys, want {}", store.len(), n + inserts)
    });
    for &k in stream.iter().chain(initial.iter().step_by(16)) {
        run.check.expect(store.get(&k) == Some(payload(k)));
    }

    let all = sorted([initial.as_slice(), stream.as_slice()].concat());
    scan_phase(run, &store, &all, SCAN_SHARE);
    report_sizes(run, store.index().size_report(), store.len());
    if run.traced() {
        let probe = probe_keys(run, &initial);
        probe_index(run, &mut store.index(), &all, &probe, &fresh);
        // Span times are as measured; the core's probe is at the
        // reference speed.
        let (logged_ns, _) = run.tracer.mean_ns("wal.insert");
        let logged_ns = logged_ns * run.reference.median_speed();
        let core_ns = run.layer["core.insert_ns"];
        run.layer.insert("wal.time_frac", 1.0 - core_ns / logged_ns);
        probe_bulk_load(run, &pairs, config);
        probe_baselines(run, &pairs, &probe, &fresh);
    }
    drop(store);
    drop(dir);

    run.zero_layers(NO_SERVER);
    run.zero_layers(NO_WRITE_STATS);
    report_rss(run);
}
