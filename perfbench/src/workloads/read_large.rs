//! `read-large`: point gets and short scans on a read-optimised index
//! much larger than the caches.
//!
//! 6M `longlat` keys (the paper's hardest CDF) in GA-SRMI, the config
//! the paper reports for read-only work: about 140 MB of leaves,
//! above the 105 MB L3 and 35× the 4 MB L2 of the reference VM. RMI
//! descent, model prediction and the local search dominate; no write,
//! delta buffer, WAL or server code runs.

use alex_bench::harness::paper_alex_config;
use alex_core::AlexIndex;
use alex_workloads::WorkloadKind;

use super::*;

pub const KEYS: usize = 6_000_000;
/// The reference kernel's ns per search over `KEYS` values on the
/// reference VM.
pub const REFERENCE_NS: f64 = 560.0;
/// Get trace length; the phase cycles through it.
const GET_TRACE: usize = 1 << 22;
/// Shares of the run's seconds.
const GET_SHARE: f64 = 0.6;
const SCAN_SHARE: f64 = 0.4;

pub fn run(run: &mut Run) {
    let n = run.scaled(KEYS);
    let probe_inserts = run.probe_inserts();
    let ((keys, fresh), gen_s) = run.tracer.phase("gen", || {
        measure::paced(&mut run.reference, || {
            let mut keys = alex_datasets::longlat_keys(n + probe_inserts, DATASET_SEED);
            let fresh = keys.split_off(n);
            (sorted(keys), fresh)
        })
    });
    report_gen(run, gen_s);
    let config = paper_alex_config(WorkloadKind::ReadOnly, n);
    let pairs = pairs_of(&keys);
    let (mut index, setup_s) = run.tracer.phase("setup", || {
        measure::median_timed(
            &mut run.reference,
            || {},
            || AlexIndex::bulk_load(&pairs, config),
        )
    });
    // Restarting an in-memory index is the same bulk load of the same
    // pairs, since nothing is written.
    run.e2e.insert("setup_s", setup_s);
    run.e2e.insert("recovery_s", setup_s);
    run.layer.insert("core.bulk_load_s", setup_s);
    drop(pairs);

    let mut rng = run.rng(1);
    let gets: Vec<f64> = (0..GET_TRACE.min(n * 4))
        .map(|_| keys[rng.below(n)])
        .collect();

    let spec = LoopSpec {
        window_ops: 1 << 16,
        max_ops: usize::MAX,
        deadline: Some(run.deadline(GET_SHARE)),
    };
    let check = &mut run.check;
    let stats = measure::timed_loop(
        &spec,
        &mut run.tracer,
        &mut run.reference,
        "phase.get",
        |i| {
            let k = gets[i % gets.len()];
            check.expect(index.get(&k) == Some(&payload(k)));
            ("core.get", 1)
        },
    );
    report_loop(run, &stats);
    drop(gets);
    scan_phase(run, &index, &keys, SCAN_SHARE);

    run.check.expect_that(index.len() == n, || {
        format!("index holds {} keys, want {n}", index.len())
    });
    report_sizes(run, index.size_report(), index.len());
    report_write_stats(run, index.write_stats());
    if run.traced() {
        let probe = probe_keys(run, &keys);
        probe_index(run, &mut index, &keys, &probe, &fresh);
        probe_baselines(run, &pairs_of(&keys), &probe, &fresh);
    }
    drop(index);

    run.zero_layers(NO_SERVER);
    run.zero_layers(NO_WAL);
    run.zero_layers(NO_EPOCH);
    report_rss(run);
}
