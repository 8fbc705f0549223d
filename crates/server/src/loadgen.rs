//! Open- and closed-loop load generation against a running server.
//!
//! Two driving disciplines, chosen by [`Arrival`]:
//!
//! - **Closed-loop**: each client thread issues a request, waits for
//!   the response, and immediately issues the next. Measures service
//!   round-trip time, but the offered load collapses whenever the
//!   server stalls — tail latencies flatter the system.
//! - **Open-loop**: arrival times are fixed in advance by a Poisson
//!   process ([`alex_workloads::poisson_schedule`]) and each
//!   operation's latency is measured from its *scheduled* arrival,
//!   not its actual dispatch. A stalled server keeps accumulating
//!   scheduled-but-unserved arrivals, so the stall appears in the
//!   tail as queueing delay — the standard defense against
//!   coordinated omission. A client sleeps only when its next send is
//!   more than 200 µs away and yields otherwise, because a sleep
//!   overshoots by tens of µs and the overshoot would count as server
//!   latency; sends issued more than 20 µs after their due time are
//!   counted ([`LoadReport::late_sends`]).
//!
//! Both paths record into one shared [`LatencyHistogram`]; the report
//! carries its snapshot plus the aggregate worker-side batching
//! counters, which is how the batch-occupancy numbers in the
//! `server_loadgen` CSV output are produced.
//!
//! The generator works on `u64` keys and values: lookups draw
//! uniformly from the preloaded keys (always hitting), inserts take
//! per-client disjoint fresh ranges above the preload (always
//! landing), so response correctness is checkable while the mix
//! stays contention-realistic.

use std::sync::Arc;
use std::time::{Duration, Instant};

use alex_workloads::poisson_schedule;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::protocol::{Request, Response};
use crate::server::Client;

/// An open-loop send issued more than this after its due time counts
/// as late.
const LATE: Duration = Duration::from_micros(20);
/// An open-loop client sleeps only when its next send is further away
/// than this, and yields otherwise.
const SLEEP_ABOVE: Duration = Duration::from_micros(200);

/// The driving discipline.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Issue-wait-issue; measures service RTT.
    Closed,
    /// Poisson arrivals at this aggregate rate across all clients;
    /// measures from scheduled time.
    Open { rate_per_sec: f64 },
}

/// One load run's shape.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Total operations across all clients.
    pub ops: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Percentage of operations that are lookups (the rest insert).
    pub read_pct: u32,
    pub arrival: Arrival,
    pub seed: u64,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec { ops: 10_000, clients: 2, read_pct: 90, arrival: Arrival::Closed, seed: 0xA1EF }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Operations completed (always `spec.ops`).
    pub ops: u64,
    /// Wall time from first dispatch to last completion.
    pub elapsed: Duration,
    /// Per-op latency: RTT (closed) or scheduled-to-complete (open).
    pub latency: HistogramSnapshot,
    /// The configured open-loop rate, if any.
    pub offered_rate: Option<f64>,
    /// Open-loop sends issued more than 20 µs after their due time
    /// (always 0 closed-loop).
    pub late_sends: u64,
}

impl LoadReport {
    /// Completed operations per second of wall time.
    pub fn achieved_rate(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Share of sends issued more than 20 µs after their due time.
    pub fn late_frac(&self) -> f64 {
        self.late_sends as f64 / self.ops.max(1) as f64
    }
}

/// Wait until `due`: sleep while it is more than `SLEEP_ABOVE` away,
/// then yield. Returns the time the wait ended.
fn wait_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        match due.checked_duration_since(now) {
            None => return now,
            Some(lead) if lead > SLEEP_ABOVE => std::thread::sleep(lead - SLEEP_ABOVE),
            Some(_) => std::thread::yield_now(),
        }
    }
}

fn next_request(
    rng: &mut StdRng,
    read_pct: u32,
    existing: &[u64],
    fresh_next: &mut u64,
) -> Request<u64, u64> {
    if rng.random_range(0u32..100) < read_pct {
        let key = existing[rng.random_range(0..existing.len())];
        Request::Get { key }
    } else {
        let key = *fresh_next;
        *fresh_next += 1;
        Request::Insert { key, value: key }
    }
}

/// Run one load against `client`'s server. `existing` is the key set
/// lookups draw from (must be non-empty); fresh insert keys start at
/// `fresh_base` and each client takes a disjoint range above it.
pub fn run_load(
    client: &Client<u64, u64>,
    existing: &Arc<Vec<u64>>,
    fresh_base: u64,
    spec: &LoadSpec,
) -> LoadReport {
    assert!(!existing.is_empty(), "lookups need a non-empty key universe");
    assert!(spec.clients > 0 && spec.ops > 0, "degenerate load spec");
    let hist = Arc::new(LatencyHistogram::new());
    let per_client = spec.ops / spec.clients;
    let remainder = spec.ops % spec.clients;
    // Disjoint fresh ranges: no client can collide with another, so
    // every insert must report `Inserted(true)`.
    let chunk = (per_client + 1) as u64;

    let start = Instant::now();
    let late_sends = std::thread::scope(|scope| {
        let mut threads = Vec::with_capacity(spec.clients);
        for c in 0..spec.clients {
            let ops = per_client + usize::from(c < remainder);
            let client = client.clone();
            let existing = Arc::clone(existing);
            let hist = Arc::clone(&hist);
            let mut fresh_next = fresh_base + c as u64 * chunk;
            let mut rng = StdRng::seed_from_u64(spec.seed ^ (c as u64).wrapping_mul(0x9E37));
            threads.push(match spec.arrival {
                Arrival::Closed => scope.spawn(move || {
                    for _ in 0..ops {
                        let request =
                            next_request(&mut rng, spec.read_pct, &existing, &mut fresh_next);
                        let issued = Instant::now();
                        let response = client.call(request);
                        let nanos = issued.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                        hist.record(nanos);
                        debug_assert!(!matches!(response, Response::Inserted(false)));
                    }
                    0
                }),
                Arrival::Open { rate_per_sec } => {
                    let rate = rate_per_sec / spec.clients as f64;
                    let schedule = poisson_schedule(rate, ops, spec.seed ^ ((c as u64) << 17));
                    scope.spawn(move || {
                        let epoch = Instant::now();
                        let mut late = 0u64;
                        for at in schedule {
                            let scheduled = epoch + at;
                            // Late is fine — the lateness lands in the
                            // measured latency, as open loop demands.
                            if wait_until(scheduled) - scheduled > LATE {
                                late += 1;
                            }
                            let request =
                                next_request(&mut rng, spec.read_pct, &existing, &mut fresh_next);
                            client.submit_measured(request, scheduled, &hist);
                        }
                        late
                    })
                }
            });
        }
        threads.into_iter().map(|t| t.join().expect("load client panicked")).sum::<u64>()
    });
    // Closed-loop clients finish with all responses in hand; open-loop
    // clients exit after dispatching, so wait for the histogram to
    // account for every operation (one sample per point op).
    while hist.count() < spec.ops as u64 {
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed = start.elapsed();
    LoadReport {
        ops: spec.ops as u64,
        elapsed,
        latency: hist.snapshot(),
        offered_rate: match spec.arrival {
            Arrival::Closed => None,
            Arrival::Open { rate_per_sec } => Some(rate_per_sec),
        },
        late_sends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use alex_core::AlexConfig;
    use alex_sharded::ShardedAlex;

    type TestServer = Server<u64, u64, ShardedAlex<u64, u64>>;

    fn serve(n: u64, shards: usize) -> (TestServer, Arc<Vec<u64>>) {
        let keys: Vec<u64> = (0..n).map(|k| k * 2).collect();
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k / 2)).collect();
        let index = ShardedAlex::bulk_load(&pairs, shards, AlexConfig::ga_armi());
        (Server::start(index, ServerConfig::default()), Arc::new(keys))
    }

    #[test]
    fn closed_loop_completes_every_op_and_grows_the_index() {
        let (server, keys) = serve(5000, 2);
        let spec = LoadSpec { ops: 4000, clients: 2, read_pct: 75, ..LoadSpec::default() };
        let report = run_load(&server.client(), &keys, 1_000_000, &spec);
        assert_eq!(report.ops, 4000);
        assert_eq!(report.latency.count(), 4000);
        assert!(report.latency.p50() > 0);
        assert!(report.latency.p999() >= report.latency.p99());
        assert!(report.achieved_rate() > 0.0);
        assert!(report.offered_rate.is_none());
        assert_eq!(report.late_sends, 0, "a closed loop has no due times");
        let index = server.shutdown();
        // ~25% of 4000 ops inserted fresh keys, all disjoint.
        let inserted = index.len() - 5000;
        assert!((800..=1200).contains(&inserted), "inserted {inserted}");
    }

    #[test]
    fn open_loop_records_from_scheduled_time() {
        let (server, keys) = serve(2000, 2);
        let spec = LoadSpec {
            ops: 1000,
            clients: 2,
            read_pct: 100,
            arrival: Arrival::Open { rate_per_sec: 50_000.0 },
            ..LoadSpec::default()
        };
        let report = run_load(&server.client(), &keys, 1_000_000, &spec);
        assert_eq!(report.latency.count(), 1000);
        assert_eq!(report.offered_rate, Some(50_000.0));
        // 1000 ops at 50k/s is ~20ms of schedule; elapsed covers it.
        assert!(report.elapsed >= Duration::from_millis(10));
        server.shutdown();
    }
}
