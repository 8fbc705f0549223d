//! `write-heavy`: YCSB-A on the write-optimised config.
//!
//! 1M `longlat` keys in GA-ARMI, then a fixed trace alternating a
//! Zipf-skewed get over every key stored so far with an insert of a
//! held-out key from the same distribution (so inserts land all over
//! the key space, not past the maximum). Shifts, node expansions and
//! retrains dominate while reads hit hot keys: the same core as
//! `read-large`, used the opposite way.

use alex_bench::harness::paper_alex_config;
use alex_core::AlexIndex;
use alex_workloads::WorkloadKind;

use super::*;
use crate::rng::Zipf;

pub const KEYS: usize = 1_000_000;
/// The reference kernel's ns per search over `KEYS` values on the
/// reference VM.
pub const REFERENCE_NS: f64 = 320.0;
/// Trace operations per second of the run: sized so the mixed phase
/// takes about half the run on the reference VM, with work fixed by
/// `--seconds` and not by the machine's speed.
const OPS_PER_SECOND: f64 = 300_000.0;
const SCAN_SHARE: f64 = 0.2;

pub fn run(run: &mut Run) {
    let n = run.scaled(KEYS);
    let inserts = run.scaled((OPS_PER_SECOND * run.seconds) as usize) / 2;
    let probe_inserts = run.probe_inserts();
    let (mut pool, gen_s) = run.tracer.phase("gen", || {
        measure::paced(&mut run.reference, || {
            alex_datasets::longlat_keys(n + inserts + probe_inserts, DATASET_SEED)
        })
    });
    report_gen(run, gen_s);
    let fresh = pool.split_off(n + inserts);
    // The seed picks the hot keys (by ordering the stored keys) and the
    // insert order.
    let mut rng = run.rng(3);
    rng.shuffle(&mut pool[..n]);
    rng.shuffle(&mut pool[n..]);
    // Get `j` runs after `j` inserts, over the `n + j` keys stored by
    // then; the Zipf rank indexes the pool in its shuffled order.
    let mut zipf = Zipf::new(n, run.rng(2));
    let gets: Vec<f64> = (0..inserts)
        .map(|j| {
            zipf.extend_to(n + j);
            pool[zipf.next_rank()]
        })
        .collect();
    let initial = sorted(pool[..n].to_vec());
    let pairs = pairs_of(&initial);
    let config = paper_alex_config(WorkloadKind::WriteHeavy, n);

    let (mut index, setup_s) = run.tracer.phase("setup", || {
        measure::median_timed(
            &mut run.reference,
            || {},
            || AlexIndex::bulk_load(&pairs, config),
        )
    });
    // A restart bulk-loads the stored pairs again: the set-up's work.
    run.e2e.insert("setup_s", setup_s);
    run.e2e.insert("recovery_s", setup_s);
    run.layer.insert("core.bulk_load_s", setup_s);

    let spec = LoopSpec {
        window_ops: 1 << 15,
        max_ops: 2 * inserts,
        deadline: None,
    };
    let check = &mut run.check;
    let stats = measure::timed_loop(
        &spec,
        &mut run.tracer,
        &mut run.reference,
        "phase.mixed",
        |i| {
            if i % 2 == 0 {
                let k = gets[i / 2];
                check.expect(index.get(&k) == Some(&payload(k)));
                ("core.get", 1)
            } else {
                let k = pool[n + i / 2];
                check.expect(index.insert(k, payload(k)).is_ok());
                ("core.insert", 1)
            }
        },
    );
    report_loop(run, &stats);
    report_write_stats(run, index.write_stats());

    let all = sorted(pool);
    scan_phase(run, &index, &all, SCAN_SHARE);
    run.check.expect_that(index.len() == all.len(), || {
        format!("index holds {} keys, want {}", index.len(), all.len())
    });
    report_sizes(run, index.size_report(), index.len());
    if run.traced() {
        let probe = probe_keys(run, &initial);
        probe_index(run, &mut index, &all, &probe, &fresh);
        probe_baselines(run, &pairs, &probe, &fresh);
    }
    drop(pairs);
    drop(index);

    run.zero_layers(NO_SERVER);
    run.zero_layers(NO_WAL);
    run.zero_layers(NO_EPOCH);
    report_rss(run);
}
