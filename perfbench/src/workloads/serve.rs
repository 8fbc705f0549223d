//! `serve`: the in-process serving tier.
//!
//! 1M `lognormal` keys in a one-shard `ShardedAlex` behind
//! `Server::start(ServerConfig::default())` (one worker thread, so the
//! generator and the worker fit the reference VM's two cores). Ops are
//! 90% gets of stored keys and 10% inserts of held-out keys, in these
//! phases:
//!
//! 1. closed loop: one client calls and checks every reply;
//! 2. a fixed 100k ops/s open loop, below the knee, where coalescing
//!    rarely engages (`p50_us`, timed from each op's due time);
//! 3. capacity (`ops_per_s`): one client keeps [`PIPELINE_DEPTH`]
//!    requests in flight, so the worker's queue never empties and it
//!    coalesces full batches of gets and inserts;
//! 4. scans through the server, sixteen in flight (`scan_keys_per_s`);
//! 5. in the traced run only, the highest offered rate that meets a
//!    latency SLO (`server.max_rate_under_slo`): every rung of a fixed
//!    ladder from 100k ops/s growing ×1.3, then three probes between the
//!    highest rung that met it and the next. The result is the highest
//!    rate that met it, moved toward the next rate probed by where the
//!    p95 latency crosses the limit. A VM stall can only make a probe
//!    miss (a pass needs the offered rate achieved), so taking the
//!    highest pass, not the first miss, keeps one spoiled probe from
//!    ending the search low, as it would end a bisection. It is not an
//!    end-to-end metric: near the knee one hypervisor stall decides a
//!    probe, and over ten seeds its result spread by 0.09–0.17 of its
//!    median in passes on quiet stretches of the reference VM, where
//!    the capacity's spread stayed at 0.04–0.08.
//!
//! Queue hops, thread wake-ups and coalescing dominate; the data fits
//! in cache.

use std::collections::VecDeque;

use alex_bench::harness::paper_alex_config;
use alex_server::{Client, Pending, Request, Response, Server, ServerConfig, WorkerStatsSnapshot};
use alex_sharded::ShardedAlex;
use alex_workloads::WorkloadKind;

use super::*;
use crate::openloop::{self, OpenLoop};
use crate::trace;

pub const KEYS: usize = 1_000_000;
/// The reference kernel's ns per search over `KEYS` values on the
/// reference VM.
pub const REFERENCE_NS: f64 = 320.0;
const FIXED_RATE: f64 = 100_000.0;
/// Windows per second of the fixed-rate phase, each an open loop of
/// its own followed by a reference measurement.
const WINDOWS_PER_SECOND: f64 = 5.0;
const FIXED_SHARE: f64 = 0.3;
/// Requests the capacity phase keeps in flight: two of the worker's
/// 128-op batches.
const PIPELINE_DEPTH: usize = 256;
/// Capacity-phase ops per second of the run (work fixed by `--seconds`,
/// so the number of inserts, and the index they leave, depend on the
/// seed alone).
const PIPELINED_OPS_PER_SECOND: f64 = 300_000.0;
const SCAN_SHARE: f64 = 0.1;
/// Scans in flight in the scan phase.
const SCAN_DEPTH: usize = 16;
/// Closed-loop calls, each checked.
const CLOSED_OPS: usize = 100_000;
const INSERT_ONE_IN: usize = 10;

/// The max-rate search: the ladder, the probes between the highest rung
/// that met the SLO and the next (plus one: the gap is split into this
/// many equal ratios), and each probe's length as a share of the run.
const START_RATE: f64 = 100_000.0;
const GROWTH: f64 = 1.3;
const RUNGS: usize = 12;
const REFINE_STEPS: usize = 4;
const PROBE_SHARE: f64 = 0.04;
const PROBE_WINDOWS: usize = 5;
/// The service-level objective a probe must meet: a median-over-windows
/// p95 latency at most this, at least 98% of the offered rate achieved
/// (no growing backlog), and every op completed within a second. Below
/// the knee a VM stall decides whether a tighter p95 limit is met; at
/// 1 ms the limit falls where queues start to grow without bound.
const SLO_P95_US: f64 = 1000.0;
const SLO_ACHIEVED: f64 = 0.98;
const SLO_MAX_US: f64 = 1e6;

type Backend = ShardedAlex<u64, u64>;

/// Held-out keys, handed out in order as inserts are issued.
struct Fresh<'a> {
    keys: &'a [u64],
    next: usize,
}

impl Fresh<'_> {
    /// Draw one op: an insert of the next held-out key, one time in
    /// `INSERT_ONE_IN`, or a get of a stored key.
    fn request(&mut self, rng: &mut Rng, stored: &[u64]) -> Request<u64, u64> {
        let op = draw_op(rng, stored.len());
        self.issue(op, stored)
    }

    /// The request for a drawn op: `Some(i)` gets `stored[i]`, `None`
    /// inserts the next held-out key.
    fn issue(&mut self, op: Option<u32>, stored: &[u64]) -> Request<u64, u64> {
        match op {
            None if self.next < self.keys.len() => {
                let key = self.keys[self.next];
                self.next += 1;
                Request::Insert {
                    key,
                    value: payload(key),
                }
            }
            op => Request::Get {
                key: stored[op.unwrap_or(0) as usize],
            },
        }
    }
}

fn draw_op(rng: &mut Rng, stored: usize) -> Option<u32> {
    if rng.below(INSERT_ONE_IN) == 0 {
        None
    } else {
        Some(rng.below(stored) as u32)
    }
}

fn expected(request: &Request<u64, u64>) -> Response<u64, u64> {
    match request {
        Request::Get { key } => Response::Value(Some(payload(*key))),
        _ => Response::Inserted(true),
    }
}

/// Check every kept reply of an open loop.
fn check_replies(run: &mut Run, result: &mut OpenLoop) {
    for (request, pending) in result.checked.drain(..) {
        run.check.expect(pending.wait() == expected(&request));
    }
}

/// A timed loop that keeps `depth` requests in flight, each a `call` in
/// the trace: op `i` waits for request `i`'s reply, submits request
/// `i + depth` (while `submit` has one), and checks the reply with
/// `verify`, which also returns the op's work. The replies still in
/// flight when the loop ends are checked after it. Between windows,
/// while the reference runs, the worker answers what is in flight, so
/// each window starts with `depth` replies waiting: a fixed share of its
/// ops.
fn pipelined<T>(
    run: &mut Run,
    spec: &LoopSpec,
    phase: &'static str,
    call: &'static str,
    depth: usize,
    mut submit: impl FnMut(usize) -> Option<(T, Pending<u64, u64>)>,
    mut verify: impl FnMut(T, Response<u64, u64>) -> (bool, u64),
) -> LoopStats {
    let mut in_flight: VecDeque<_> = (0..depth).map_while(&mut submit).collect();
    let check = &mut run.check;
    let stats = measure::timed_loop(spec, &mut run.tracer, &mut run.reference, phase, |i| {
        let (want, pending) = in_flight.pop_front().expect("a request per op in flight");
        in_flight.extend(submit(i + depth));
        let (ok, work) = verify(want, pending.wait());
        check.expect(ok);
        (call, work)
    });
    for (want, pending) in in_flight {
        run.check.expect(verify(want, pending.wait()).0);
    }
    stats
}

fn slo_met(probe: &OpenLoop) -> bool {
    probe.completed == probe.sent
        && probe.achieved >= SLO_ACHIEVED * probe.offered
        && probe.max_us() <= SLO_MAX_US
        && probe.median_quantile_us(0.95) <= SLO_P95_US
}

fn rung(k: usize) -> f64 {
    START_RATE * GROWTH.powi(k as i32)
}

/// Climb the whole ladder, then probe between the highest rung that met
/// the SLO and the next one; return the highest rate under the SLO, at
/// the reference speed measured after each probe, and the worker
/// counters over the search.
fn max_rate_under_slo(
    run: &mut Run,
    server: &Server<u64, u64, Backend>,
    client: &Client<u64, u64>,
    stored: &[u64],
    fresh: &mut Fresh,
) -> (f64, WorkerStatsSnapshot, WorkerStatsSnapshot) {
    let mut rng = run.rng(30);
    let before = server.stats().aggregate();
    // (rate, p95, met) of every probe.
    let mut probes = Vec::new();
    let mut speeds = Vec::new();
    let mut probe = |run: &mut Run, rate: f64| {
        let span = run.tracer.open("probe", trace::ROOT);
        let mut result = openloop::run(
            client,
            rate,
            run.seconds * PROBE_SHARE,
            PROBE_WINDOWS,
            &mut rng,
            |rng| fresh.request(rng, stored),
        );
        run.tracer.close(span);
        speeds.push(run.reference.speed());
        check_replies(run, &mut result);
        let met = slo_met(&result);
        let p95 = result.median_quantile_us(0.95);
        run.check.expect_that(result.completed == result.sent, || {
            format!(
                "probe at {rate:.0}/s: {} of {} ops completed",
                result.completed, result.sent
            )
        });
        eprintln!(
            "probe: offered {rate:.0} achieved {:.0} p95 {p95:.1} us max {:.0} us -> {}",
            result.achieved,
            result.max_us(),
            if met { "met" } else { "missed" }
        );
        probes.push((rate, p95, met));
        met
    };
    let top = (0..RUNGS).filter(|&k| probe(run, rung(k))).max();
    if let Some(k) = top.filter(|&k| k + 1 < RUNGS) {
        for step in 1..REFINE_STEPS {
            probe(
                run,
                rung(k) * GROWTH.powf(step as f64 / REFINE_STEPS as f64),
            );
        }
    }
    let rate = highest_rate_met(probes) / measure::median(speeds);
    (rate, before, server.stats().aggregate())
}

/// The highest rate under the SLO from `(rate, p95, met)` probes: the
/// highest rate that met it, moved toward the next rate probed by where
/// log p95 crosses the limit. When the next probe missed for another
/// reason (rate not achieved, an op over a second) while its p95 stayed
/// within the limit, there is no crossing to move toward.
fn highest_rate_met(mut probes: Vec<(f64, f64, bool)>) -> f64 {
    probes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let Some(i) = probes.iter().rposition(|p| p.2) else {
        return 0.0;
    };
    let (rate, p95, _) = probes[i];
    match probes.get(i + 1) {
        Some(&(next, next_p95, _)) if next_p95 > SLO_P95_US && p95 > 0.0 => {
            let t = (SLO_P95_US / p95).ln() / (next_p95 / p95).ln();
            rate * (next / rate).powf(t.clamp(0.0, 1.0))
        }
        _ => rate,
    }
}

pub fn run(run: &mut Run) {
    let n = run.scaled(KEYS);
    let closed_ops = run.scaled(CLOSED_OPS);
    let pipelined_ops = run.scaled((PIPELINED_OPS_PER_SECOND * run.seconds) as usize);
    let probe_inserts = run.probe_inserts();
    // Enough held-out keys for every insert any phase could offer.
    let search = if run.traced() {
        rung(RUNGS - 1) * PROBE_SHARE * (RUNGS + REFINE_STEPS) as f64
    } else {
        0.0
    };
    let offered =
        (closed_ops + pipelined_ops) as f64 + run.seconds * (FIXED_RATE * FIXED_SHARE + search);
    let held_out = (offered / INSERT_ONE_IN as f64 * 1.2) as usize;
    let (mut keys, gen_s) = run.tracer.phase("gen", || {
        measure::paced(&mut run.reference, || {
            alex_datasets::lognormal_keys(n + held_out + probe_inserts, DATASET_SEED)
        })
    });
    report_gen(run, gen_s);
    let probe_fresh = keys.split_off(n + held_out);
    let mut held_out = keys.split_off(n);
    run.rng(3).shuffle(&mut held_out);
    let stored = keys;
    let initial = sorted(stored.clone());
    let pairs = pairs_of(&initial);
    let config = paper_alex_config(WorkloadKind::WriteHeavy, n);
    let mut fresh = Fresh {
        keys: &held_out,
        next: 0,
    };

    let setup = run.tracer.open("setup", trace::ROOT);
    let (server, setup_s) = measure::median_timed(
        &mut run.reference,
        || {},
        || {
            Server::start(
                ShardedAlex::bulk_load(&pairs, 1, config),
                ServerConfig::default(),
            )
        },
    );
    run.tracer.close(setup);
    // A restart loads the stored pairs and starts serving again: the
    // set-up's work.
    run.e2e.insert("setup_s", setup_s);
    run.e2e.insert("recovery_s", setup_s);
    let client = server.client();

    // 1. Closed loop, every reply checked.
    let mut rng = run.rng(10);
    let closed: Vec<Request<u64, u64>> = (0..closed_ops)
        .map(|_| fresh.request(&mut rng, &stored))
        .collect();
    let spec = LoopSpec {
        window_ops: 1 << 12,
        max_ops: closed_ops,
        deadline: None,
    };
    let check = &mut run.check;
    measure::timed_loop(
        &spec,
        &mut run.tracer,
        &mut run.reference,
        "phase.closed",
        |i| {
            let request = &closed[i];
            let name = if matches!(request, Request::Get { .. }) {
                "server.get"
            } else {
                "server.insert"
            };
            let want = expected(request);
            check.expect(client.call(request.clone()) == want);
            (name, 1)
        },
    );
    drop(closed);

    // 2. Fixed-rate open loop, in windows with a reference measurement
    // after each; each window's latencies are scaled by its speed.
    let secs = run.seconds * FIXED_SHARE;
    let windows = ((secs * WINDOWS_PER_SECOND).round() as usize).max(3);
    let mut rng = run.rng(20);
    let mut quantiles: [Vec<f64>; 4] = Default::default();
    let (mut sent, mut late) = (0, 0);
    let span = run.tracer.open("phase.fixed_rate", trace::ROOT);
    for _ in 0..windows {
        let mut window = openloop::run(
            &client,
            FIXED_RATE,
            secs / windows as f64,
            1,
            &mut rng,
            |rng| fresh.request(rng, &stored),
        );
        let speed = run.reference.speed();
        check_replies(run, &mut window);
        run.check.expect_that(window.completed == window.sent, || {
            format!(
                "fixed rate: {} of {} ops completed",
                window.completed, window.sent
            )
        });
        for (q, values) in [0.5, 0.95, 0.99, 0.999].into_iter().zip(&mut quantiles) {
            values.push(window.median_quantile_us(q) * speed);
        }
        sent += window.sent;
        late += window.late;
    }
    run.tracer.close(span);
    let [p50, p95, p99, p999] = quantiles.map(measure::median);
    run.e2e.insert("p50_us", p50);
    run.layer.insert("latency.p95_us", p95);
    run.layer.insert("latency.p99_us", p99);
    run.layer.insert("latency.p999_us", p999);
    run.layer
        .insert("loadgen.late_frac", late as f64 / sent.max(1) as f64);

    // 3. Capacity: a fixed trace of ops drawn up front, PIPELINE_DEPTH
    // in flight.
    let mut rng = run.rng(40);
    let ops: Vec<Option<u32>> = (0..pipelined_ops)
        .map(|_| draw_op(&mut rng, stored.len()))
        .collect();
    let spec = LoopSpec {
        window_ops: 1 << 14,
        max_ops: pipelined_ops,
        deadline: None,
    };
    let capacity = pipelined(
        run,
        &spec,
        "phase.capacity",
        "server.request",
        PIPELINE_DEPTH,
        |i| {
            let request = fresh.issue(*ops.get(i)?, &stored);
            Some((expected(&request), client.submit(request)))
        },
        |want, response| (response == want, 1),
    );
    run.e2e.insert("ops_per_s", capacity.median_rate());
    drop(ops);

    // 4. Scans through the server over the contents so far.
    let inserted = sorted(held_out[..fresh.next].to_vec());
    let all = sorted([initial.as_slice(), inserted.as_slice()].concat());
    let trace = scan_trace(&mut run.rng(90), all.len(), 1 << 16);
    let spec = LoopSpec {
        window_ops: 1 << 12,
        max_ops: usize::MAX,
        deadline: Some(run.deadline(SCAN_SHARE)),
    };
    let scans = pipelined(
        run,
        &spec,
        "phase.scan",
        "server.scan",
        SCAN_DEPTH,
        |i| {
            let scan = ScanCheck::new(&all, trace[i % trace.len()]);
            let request = Request::Scan {
                start: *scan.start(),
                limit: scan.limit as u32,
            };
            Some((scan, client.submit(request)))
        },
        scan_matches,
    );
    run.e2e.insert("scan_keys_per_s", scans.median_rate());

    // 5. The max-rate search, traced runs only.
    if run.traced() {
        let (max_rate, before, after) =
            max_rate_under_slo(run, &server, &client, &stored, &mut fresh);
        run.layer.insert("server.max_rate_under_slo", max_rate);
        report_worker_stats(run, &before, &after);
    }

    // Every acknowledged insert is in the index after shutdown.
    drop(client);
    let mut backend = std::sync::Arc::try_unwrap(server.shutdown())
        .unwrap_or_else(|_| panic!("a shut-down server shares its backend"));
    let inserted = sorted(held_out[..fresh.next].to_vec());
    for (k, v) in inserted.iter().zip(backend.get_many(&inserted)) {
        run.check.expect(v == Some(payload(*k)));
    }
    run.check
        .expect_that(backend.len() == n + inserted.len(), || {
            format!(
                "server index holds {} keys, want {}",
                backend.len(),
                n + inserted.len()
            )
        });
    report_sizes(run, backend.size_report(), backend.len());
    report_rss(run);
    report_epoch_writes(run, backend.write_stats(), inserted.len() as u64);
    if run.traced() {
        let all = sorted([initial.as_slice(), inserted.as_slice()].concat());
        let probe = probe_keys(run, &initial);
        probe_index(run, &mut backend, &all, &probe, &probe_fresh);
        // Span times are as measured; the core's probe is at the
        // reference speed.
        let (rtt_ns, _) = run.tracer.mean_ns("server.get");
        let rtt_ns = rtt_ns * run.reference.median_speed();
        run.layer.insert(
            "server.overhead_frac",
            1.0 - run.layer["core.get_ns"] / rtt_ns,
        );
        probe_bulk_load(run, &pairs, config);
        probe_baselines(run, &pairs, &probe, &probe_fresh);
    }

    run.zero_layers(NO_WAL);
    run.zero_layers(NO_WRITE_STATS);
}

/// Whether a scan's response holds exactly the expected pairs, and how
/// many keys it should hold.
fn scan_matches(mut scan: ScanCheck<u64>, response: Response<u64, u64>) -> (bool, u64) {
    let ok = match response {
        Response::Entries(entries) => {
            for (k, v) in &entries {
                scan.visit(k, v);
            }
            scan.passed()
        }
        _ => false,
    };
    (ok, scan.keys() as u64)
}

/// Worker counters over the max-rate search, where queues build.
fn report_worker_stats(run: &mut Run, before: &WorkerStatsSnapshot, after: &WorkerStatsSnapshot) {
    let batches = (after.batches - before.batches).max(1) as f64;
    let ops = (after.ops - before.ops).max(1) as f64;
    run.layer
        .insert("server.batch_occupancy_mean", ops / batches);
    run.layer.insert(
        "server.queue_depth_mean",
        (after.queue_depth_sum - before.queue_depth_sum) as f64 / batches,
    );
    run.layer
        .insert("server.queue_depth_max", after.queue_depth_max as f64);
    run.layer.insert(
        "server.get_run_frac",
        (after.get_run_ops - before.get_run_ops) as f64 / ops,
    );
    run.layer.insert(
        "server.insert_run_frac",
        (after.insert_run_ops - before.insert_run_ops) as f64 / ops,
    );
    run.layer.insert(
        "server.singleton_frac",
        (after.singletons - before.singletons) as f64 / ops,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_moves_toward_a_p95_crossing() {
        // p95 crosses the limit halfway (in log terms) from 100k to 400k.
        let probes = vec![
            (400_000.0, SLO_P95_US * 2.0, false),
            (100_000.0, SLO_P95_US / 2.0, true),
            (50_000.0, SLO_P95_US / 4.0, true),
        ];
        let rate = highest_rate_met(probes);
        assert!((rate - 200_000.0).abs() < 1.0, "{rate}");
    }

    #[test]
    fn a_miss_with_low_p95_keeps_the_rate_that_met() {
        // The next probe missed on achieved rate with its p95 well
        // inside the limit: the answer is the rate that met the SLO.
        let probes = vec![(100_000.0, 50.0, true), (130_000.0, 60.0, false)];
        assert_eq!(highest_rate_met(probes), 100_000.0);
    }

    #[test]
    fn no_probe_met_gives_zero() {
        assert_eq!(highest_rate_met(vec![(100_000.0, 5e3, false)]), 0.0);
    }
}
