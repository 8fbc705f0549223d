//! Shard-owning workers: drain, coalesce gets, execute.
//!
//! Each worker owns one shard's key range exclusively — the router
//! sends every request for that range to this worker's queue — and
//! runs its queue in arrival order. Consecutive `Get`s accumulate
//! into one sorted [`get_many`] run; any other operation flushes the
//! pending run first and then executes alone. A run holds only reads,
//! and no other worker writes this range, so every get in it answers
//! what it would have answered alone: a client that inserts then gets
//! the same key through one queue sees its own write.
//!
//! A point insert executes alone through [`insert`], which in the
//! shared regime buffers it in the owning leaf's delta buffer (a
//! shallow leaf copy); a sorted [`bulk_insert`] run would instead copy
//! every leaf it touches whole. Only a client's `BatchInsert` takes
//! [`bulk_insert`].
//!
//! [`get_many`]: crate::backend::ServeBackend::get_many
//! [`insert`]: crate::backend::ServeBackend::insert
//! [`bulk_insert`]: crate::backend::ServeBackend::bulk_insert

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use alex_core::InsertError;

use crate::backend::{ServeBackend, ServerKey, ServerValue};
use crate::histogram::LatencyHistogram;
use crate::protocol::{Request, Response};
use crate::queue::{poll, BoundedQueue};

/// A multi-part response meeting point: one per client request, with
/// one part per owner-worker the request was split across.
///
/// A `wait` first polls a lock-free copy of `remaining`, written
/// under the mutex at every `complete`, and parks only once the poll
/// gives up: a closed-loop client's reply usually lands within the
/// poll, and then neither side pays a wake-up. The last part signals
/// the condvar only when a `wait` is parked on it: a futex wake is a
/// syscall even with no sleeper, and a pipelined client usually
/// collects a reply after it has landed. The parked count is kept
/// under the same mutex as `remaining`, so a `wait` that is about to
/// park has already counted itself when the last part checks.
pub struct Rendezvous<K, V> {
    state: Mutex<RendezvousState<K, V>>,
    /// `state.remaining`, for `wait` to poll before it parks. Relaxed:
    /// it publishes no data, because `wait` re-checks under the mutex.
    remaining: AtomicUsize,
    done: Condvar,
}

struct RendezvousState<K, V> {
    remaining: usize,
    /// Threads parked in `wait`.
    parked: usize,
    parts: Vec<Option<Response<K, V>>>,
}

impl<K, V> Rendezvous<K, V> {
    pub(crate) fn new(parts: usize) -> Self {
        Rendezvous {
            state: Mutex::new(RendezvousState {
                remaining: parts,
                parked: 0,
                parts: (0..parts).map(|_| None).collect(),
            }),
            remaining: AtomicUsize::new(parts),
            done: Condvar::new(),
        }
    }

    pub(crate) fn complete(&self, part: usize, response: Response<K, V>) {
        let mut state = self.state.lock().expect("rendezvous lock");
        debug_assert!(state.parts[part].is_none(), "part {part} completed twice");
        state.parts[part] = Some(response);
        state.remaining -= 1;
        self.remaining.store(state.remaining, Ordering::Relaxed);
        if state.remaining == 0 && state.parked > 0 {
            self.done.notify_all();
        }
    }

    /// Block until every part has arrived; returns them in part order.
    pub(crate) fn wait(&self) -> Vec<Response<K, V>> {
        poll(|| self.remaining.load(Ordering::Relaxed) == 0);
        let mut state = self.state.lock().expect("rendezvous lock");
        while state.remaining > 0 {
            state.parked += 1;
            state = self.done.wait(state).expect("rendezvous lock");
            state.parked -= 1;
        }
        state.parts.iter_mut().map(|slot| slot.take().expect("all parts present")).collect()
    }

    /// Threads parked in `wait`, for tests that must complete the last
    /// part only once a waiter sleeps.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.state.lock().expect("rendezvous lock").parked
    }
}

/// Where a finished operation's result goes.
pub(crate) enum Reply<K, V> {
    /// A synchronous caller is parked on this rendezvous.
    Wait { rendezvous: Arc<Rendezvous<K, V>>, part: usize },
    /// A load-generator op: drop the payload, record latency from the
    /// *scheduled* time (not the send time), so queueing delay counts
    /// — the open-loop generator's defense against coordinated
    /// omission.
    Measure { scheduled: Instant, hist: Arc<LatencyHistogram> },
}

impl<K, V> Reply<K, V> {
    fn complete(self, response: Response<K, V>) {
        match self {
            Reply::Wait { rendezvous, part } => rendezvous.complete(part, response),
            Reply::Measure { scheduled, hist } => {
                let nanos = Instant::now().saturating_duration_since(scheduled).as_nanos();
                hist.record(nanos.min(u64::MAX as u128) as u64);
            }
        }
    }
}

/// One queued operation plus its completion route.
pub(crate) struct Envelope<K, V> {
    pub request: Request<K, V>,
    pub reply: Reply<K, V>,
}

/// Per-worker counters, updated with relaxed atomics from the worker
/// loop and read by [`Server::stats`](crate::server::Server::stats).
#[derive(Default)]
pub struct WorkerStats {
    pub(crate) batches: AtomicU64,
    pub(crate) ops: AtomicU64,
    pub(crate) get_runs: AtomicU64,
    pub(crate) get_run_ops: AtomicU64,
    pub(crate) singletons: AtomicU64,
    pub(crate) queue_depth_sum: AtomicU64,
    pub(crate) queue_depth_max: AtomicU64,
    pub(crate) parks: AtomicU64,
}

/// A plain copy of one worker's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStatsSnapshot {
    /// Batches drained from the queue.
    pub batches: u64,
    /// Operations processed.
    pub ops: u64,
    /// Coalesced lookup runs (length >= 2) executed via `get_many`.
    pub get_runs: u64,
    /// Operations inside those lookup runs.
    pub get_run_ops: u64,
    /// Always 0: every point insert executes alone. Kept only because
    /// the benchmark's `server.insert_run_frac` reads it.
    pub insert_run_ops: u64,
    /// Point ops executed alone (every non-get, and gets in runs of 1).
    pub singletons: u64,
    /// Sum over batches of the queue depth seen at drain time.
    pub queue_depth_sum: u64,
    /// Deepest backlog any drain observed.
    pub queue_depth_max: u64,
    /// Times the worker parked on an empty queue after its poll gave
    /// up; each park costs the next request a thread wake-up.
    pub parks: u64,
}

impl WorkerStats {
    pub(crate) fn snapshot(&self) -> WorkerStatsSnapshot {
        WorkerStatsSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            get_runs: self.get_runs.load(Ordering::Relaxed),
            get_run_ops: self.get_run_ops.load(Ordering::Relaxed),
            insert_run_ops: 0,
            singletons: self.singletons.load(Ordering::Relaxed),
            queue_depth_sum: self.queue_depth_sum.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
        }
    }
}

impl WorkerStatsSnapshot {
    /// Mean operations per drained batch — >1 means batching engaged.
    pub fn batch_occupancy_mean(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }

    /// Mean queue depth observed at drain time.
    pub fn queue_depth_mean(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.batches as f64
        }
    }

    pub(crate) fn merge(&mut self, other: &WorkerStatsSnapshot) {
        self.batches += other.batches;
        self.ops += other.ops;
        self.get_runs += other.get_runs;
        self.get_run_ops += other.get_run_ops;
        self.singletons += other.singletons;
        self.queue_depth_sum += other.queue_depth_sum;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.parks += other.parks;
    }
}

/// Execute one request directly against the backend. Every queued
/// request but a get goes through here; it is also the semantic
/// reference the get runs must agree with.
pub(crate) fn execute<K: ServerKey, V: ServerValue, B: ServeBackend<K, V> + ?Sized>(
    backend: &B,
    request: Request<K, V>,
) -> Response<K, V> {
    match request {
        Request::Get { key } => Response::Value(backend.get(&key)),
        Request::Insert { key, value } => match backend.insert(key, value) {
            Ok(()) => Response::Inserted(true),
            Err(InsertError::DuplicateKey) => Response::Inserted(false),
            Err(e) => Response::Rejected(e),
        },
        Request::Remove { key } => Response::Removed(backend.remove(&key)),
        Request::Scan { start, limit } => {
            let mut out = Vec::new();
            backend.scan_from(&start, limit as usize, &mut |k, v| out.push((*k, v.clone())));
            Response::Entries(out)
        }
        Request::BatchGet { keys } => Response::Values(backend.get_many(&keys)),
        Request::BatchInsert { pairs } => match backend.bulk_insert(&pairs) {
            Ok(n) => Response::InsertedCount(n as u64),
            Err(e) => Response::Rejected(e),
        },
    }
}

fn flush_gets<K: ServerKey, V: ServerValue, B: ServeBackend<K, V> + ?Sized>(
    backend: &B,
    gets: &mut Vec<(K, Reply<K, V>)>,
    stats: &WorkerStats,
) {
    match gets.len() {
        0 => {}
        1 => {
            let (key, reply) = gets.pop().expect("len 1");
            stats.singletons.fetch_add(1, Ordering::Relaxed);
            reply.complete(Response::Value(backend.get(&key)));
        }
        n => {
            stats.get_runs.fetch_add(1, Ordering::Relaxed);
            stats.get_run_ops.fetch_add(n as u64, Ordering::Relaxed);
            // A key no write accepts (the sentinel, a NaN) is never
            // present, and a NaN has no place in the sort: answer
            // those first, as `execute` would.
            for (_, reply) in gets.extract_if(.., |(key, _)| key.is_sentinel()) {
                reply.complete(Response::Value(None));
            }
            let n = gets.len();
            let mut perm: Vec<usize> = (0..n).collect();
            perm.sort_by(|&a, &b| gets[a].0.partial_cmp(&gets[b].0).expect("finite keys"));
            let keys: Vec<K> = perm.iter().map(|&i| gets[i].0).collect();
            let found = backend.get_many(&keys);
            let mut out: Vec<Option<Option<V>>> = (0..n).map(|_| None).collect();
            for (&i, value) in perm.iter().zip(found) {
                out[i] = Some(value);
            }
            for ((_, reply), value) in gets.drain(..).zip(out) {
                reply.complete(Response::Value(value.expect("permutation covers all")));
            }
        }
    }
}

/// The worker loop: drain a batch, coalesce adjacent gets into sorted
/// runs, execute everything else alone in arrival order, complete
/// replies. Returns when the queue is closed and fully drained.
pub(crate) fn run_worker<K: ServerKey, V: ServerValue, B: ServeBackend<K, V> + ?Sized>(
    backend: &B,
    queue: &BoundedQueue<Envelope<K, V>>,
    max_batch: usize,
    stats: &WorkerStats,
) {
    let mut batch: Vec<Envelope<K, V>> = Vec::with_capacity(max_batch);
    let mut gets: Vec<(K, Reply<K, V>)> = Vec::new();
    while let Some(depth) = queue.recv_batch_counting(max_batch, &mut batch, &stats.parks) {
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.ops.fetch_add(batch.len() as u64, Ordering::Relaxed);
        stats.queue_depth_sum.fetch_add(depth as u64, Ordering::Relaxed);
        stats.queue_depth_max.fetch_max(depth as u64, Ordering::Relaxed);
        for envelope in batch.drain(..) {
            let Envelope { request, reply } = envelope;
            match request {
                Request::Get { key } => gets.push((key, reply)),
                other => {
                    flush_gets(backend, &mut gets, stats);
                    stats.singletons.fetch_add(1, Ordering::Relaxed);
                    reply.complete(execute(backend, other));
                }
            }
        }
        // Runs never straddle a drain: completing everything taken
        // from the queue before blocking again bounds reply latency.
        flush_gets(backend, &mut gets, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{await_parked, within_deadline};
    use alex_core::AlexConfig;
    use alex_sharded::ShardedAlex;
    use std::thread;

    fn backend(n: u64) -> ShardedAlex<u64, u64> {
        let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k * 2, k)).collect();
        ShardedAlex::bulk_load(&pairs, 2, AlexConfig::ga_armi())
    }

    fn enqueue(
        queue: &BoundedQueue<Envelope<u64, u64>>,
        request: Request<u64, u64>,
    ) -> Arc<Rendezvous<u64, u64>> {
        let rendezvous = Arc::new(Rendezvous::new(1));
        let reply = Reply::Wait { rendezvous: Arc::clone(&rendezvous), part: 0 };
        assert!(queue.send(Envelope { request, reply }).is_ok());
        rendezvous
    }

    #[test]
    fn adjacent_point_ops_coalesce_into_runs() {
        let index = backend(500);
        let queue = BoundedQueue::new(64);
        // 5 gets, 3 inserts, 2 gets, then a remove: expect one get run
        // of 5, three insert singletons, one get run of 2, and one
        // remove singleton.
        let mut waits = Vec::new();
        for k in [10u64, 4, 900, 2, 88] {
            waits.push((enqueue(&queue, Request::Get { key: k }), Response::Value(index.get(&k))));
        }
        for k in [1001u64, 999, 1003] {
            waits.push((enqueue(&queue, Request::Insert { key: k, value: k }), Response::Inserted(true)));
        }
        for k in [999u64, 1001] {
            waits.push((enqueue(&queue, Request::Get { key: k }), Response::Value(Some(k))));
        }
        waits.push((enqueue(&queue, Request::Remove { key: 999 }), Response::Removed(Some(999))));
        queue.close();

        let stats = WorkerStats::default();
        run_worker(&index, &queue, 64, &stats);

        for (rendezvous, want) in waits {
            assert_eq!(rendezvous.wait(), vec![want]);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.ops, 11);
        assert_eq!(snap.batches, 1, "all queued before the worker ran");
        assert_eq!((snap.get_runs, snap.get_run_ops), (2, 7));
        assert_eq!(snap.insert_run_ops, 0, "inserts never coalesce");
        assert_eq!(snap.singletons, 4);
        assert!(snap.batch_occupancy_mean() > 10.0);
    }

    #[test]
    fn queued_inserts_of_a_duplicate_or_present_key_resolve_first_wins() {
        let index = backend(100); // even keys 0..198 present
        let queue = BoundedQueue::new(16);
        // 5: fresh (arrival order decides among the two); 4: present.
        let a = enqueue(&queue, Request::Insert { key: 5, value: 111 });
        let b = enqueue(&queue, Request::Insert { key: 5, value: 222 });
        let c = enqueue(&queue, Request::Insert { key: 4, value: 333 });
        let d = enqueue(&queue, Request::Insert { key: 7, value: 444 });
        queue.close();
        run_worker(&index, &queue, 16, &WorkerStats::default());
        assert_eq!(a.wait(), vec![Response::Inserted(true)]);
        assert_eq!(b.wait(), vec![Response::Inserted(false)]);
        assert_eq!(c.wait(), vec![Response::Inserted(false)]);
        assert_eq!(d.wait(), vec![Response::Inserted(true)]);
        assert_eq!(index.get(&5), Some(111), "first arrival's value sticks");
        assert_eq!(index.get(&4), Some(2), "loaded value survives");
    }

    #[test]
    fn a_queued_sentinel_insert_rejects_only_itself() {
        let index = backend(100);
        let queue = BoundedQueue::new(16);
        // The sentinel between two adjacent inserts must answer
        // Rejected without touching its neighbours' verdicts or
        // reaching the index.
        let a = enqueue(&queue, Request::Insert { key: 301, value: 1 });
        let b = enqueue(&queue, Request::Insert { key: u64::MAX, value: 2 });
        let c = enqueue(&queue, Request::Insert { key: 303, value: 3 });
        queue.close();
        run_worker(&index, &queue, 16, &WorkerStats::default());
        assert_eq!(a.wait(), vec![Response::Inserted(true)]);
        assert_eq!(b.wait(), vec![Response::Rejected(InsertError::UnsupportedKey)]);
        assert_eq!(c.wait(), vec![Response::Inserted(true)]);
        assert_eq!(index.get(&301), Some(1));
        assert_eq!(index.get(&303), Some(3));
        assert_eq!(index.get(&u64::MAX), None, "sentinel must never land");
    }

    #[test]
    fn queued_point_inserts_are_delta_buffered() {
        // Adjacent inserts each go through the point path, so every
        // one lands in its leaf's delta buffer and no leaf is copied
        // whole.
        let index = backend(1000);
        let queue = BoundedQueue::new(64);
        let waits: Vec<_> = (0..16u64)
            .map(|i| enqueue(&queue, Request::Insert { key: i * 120 + 1, value: i }))
            .collect();
        queue.close();
        run_worker(&index, &queue, 64, &WorkerStats::default());
        for rendezvous in waits {
            assert_eq!(rendezvous.wait(), vec![Response::Inserted(true)]);
        }
        let writes = index.write_stats();
        assert_eq!((writes.delta_hits, writes.leaf_clones), (16, 0));
    }

    #[test]
    fn order_is_preserved_across_kind_switches() {
        // insert k -> get k -> remove k -> get k, all one queue: the
        // client must see its own write, then its own delete.
        let index = backend(10);
        let queue = BoundedQueue::new(16);
        let w1 = enqueue(&queue, Request::Insert { key: 501, value: 5 });
        let w2 = enqueue(&queue, Request::Get { key: 501 });
        let w3 = enqueue(&queue, Request::Remove { key: 501 });
        let w4 = enqueue(&queue, Request::Get { key: 501 });
        queue.close();
        run_worker(&index, &queue, 16, &WorkerStats::default());
        assert_eq!(w1.wait(), vec![Response::Inserted(true)]);
        assert_eq!(w2.wait(), vec![Response::Value(Some(5))]);
        assert_eq!(w3.wait(), vec![Response::Removed(Some(5))]);
        assert_eq!(w4.wait(), vec![Response::Value(None)]);
    }

    #[test]
    fn measured_replies_land_in_the_histogram() {
        let index = backend(50);
        let queue = BoundedQueue::new(16);
        let hist = Arc::new(LatencyHistogram::new());
        for k in 0..10u64 {
            let reply = Reply::Measure { scheduled: Instant::now(), hist: Arc::clone(&hist) };
            assert!(queue.send(Envelope { request: Request::Get { key: k }, reply }).is_ok());
        }
        queue.close();
        run_worker(&index, &queue, 16, &WorkerStats::default());
        assert_eq!(hist.count(), 10);
        assert!(hist.snapshot().max() > 0);
    }

    #[test]
    fn a_wait_parked_before_any_part_wakes_on_the_last_of_three() {
        within_deadline(|| {
            let rendezvous = Arc::new(Rendezvous::<u64, u64>::new(3));
            let waiter = {
                let rendezvous = Arc::clone(&rendezvous);
                thread::spawn(move || rendezvous.wait())
            };
            await_parked(1, || rendezvous.parked());
            let completers: Vec<_> = [vec![0, 2], vec![1]]
                .into_iter()
                .map(|parts| {
                    let rendezvous = Arc::clone(&rendezvous);
                    thread::spawn(move || {
                        for part in parts {
                            rendezvous.complete(part, Response::Removed(Some(part as u64)));
                        }
                    })
                })
                .collect();
            for completer in completers {
                completer.join().unwrap();
            }
            let want: Vec<_> = (0..3).map(|part| Response::Removed(Some(part))).collect();
            assert_eq!(waiter.join().unwrap(), want);
        });
    }

    #[test]
    fn a_wait_after_completion_returns_at_once() {
        within_deadline(|| {
            let rendezvous = Rendezvous::<u64, u64>::new(2);
            rendezvous.complete(1, Response::Value(None));
            rendezvous.complete(0, Response::Value(Some(3)));
            assert_eq!(rendezvous.wait(), vec![Response::Value(Some(3)), Response::Value(None)]);
        });
    }
}
