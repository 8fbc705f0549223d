//! Shard-owning workers: drain, coalesce, execute.
//!
//! Each worker owns one shard's key range exclusively — the router
//! sends every write for that range to this worker's queue, so the
//! worker can turn a drained batch into sorted [`get_many`] /
//! [`bulk_insert`] runs *without* re-checking for concurrent writers:
//! the presence pre-check it does for per-op insert verdicts cannot
//! be invalidated before the bulk insert lands.
//!
//! Coalescing is adjacency-based: consecutive `Get`s accumulate into
//! one lookup run, consecutive `Insert`s into one insert run, and any
//! other operation (or a kind switch) flushes the pending run first.
//! That preserves per-queue operation order — a client that inserts
//! then gets the same key through one queue sees its own write — while
//! still amortizing a whole burst of point ops into one index pass.
//!
//! [`get_many`]: crate::backend::ServeBackend::get_many
//! [`bulk_insert`]: crate::backend::ServeBackend::bulk_insert

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use alex_core::InsertError;

use crate::backend::{ServeBackend, ServerKey, ServerValue};
use crate::histogram::LatencyHistogram;
use crate::protocol::{Request, Response};
use crate::queue::BoundedQueue;

/// A multi-part response meeting point: one per client request, with
/// one part per owner-worker the request was split across.
pub struct Rendezvous<K, V> {
    state: Mutex<RendezvousState<K, V>>,
    done: Condvar,
}

struct RendezvousState<K, V> {
    remaining: usize,
    parts: Vec<Option<Response<K, V>>>,
}

impl<K, V> Rendezvous<K, V> {
    pub(crate) fn new(parts: usize) -> Self {
        Rendezvous {
            state: Mutex::new(RendezvousState {
                remaining: parts,
                parts: (0..parts).map(|_| None).collect(),
            }),
            done: Condvar::new(),
        }
    }

    pub(crate) fn complete(&self, part: usize, response: Response<K, V>) {
        let mut state = self.state.lock().expect("rendezvous lock");
        debug_assert!(state.parts[part].is_none(), "part {part} completed twice");
        state.parts[part] = Some(response);
        state.remaining -= 1;
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every part has arrived; returns them in part order.
    pub(crate) fn wait(&self) -> Vec<Response<K, V>> {
        let mut state = self.state.lock().expect("rendezvous lock");
        while state.remaining > 0 {
            state = self.done.wait(state).expect("rendezvous lock");
        }
        state.parts.iter_mut().map(|slot| slot.take().expect("all parts present")).collect()
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
    pub(crate) insert_runs: AtomicU64,
    pub(crate) insert_run_ops: AtomicU64,
    pub(crate) singletons: AtomicU64,
    pub(crate) queue_depth_sum: AtomicU64,
    pub(crate) queue_depth_max: AtomicU64,
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
    /// Coalesced insert runs (length >= 2) executed via `bulk_insert`.
    pub insert_runs: u64,
    /// Operations inside those insert runs.
    pub insert_run_ops: u64,
    /// Point ops executed alone (run length 1 or barrier ops).
    pub singletons: u64,
    /// Sum over batches of the queue depth seen at drain time.
    pub queue_depth_sum: u64,
    /// Deepest backlog any drain observed.
    pub queue_depth_max: u64,
}

impl WorkerStats {
    pub(crate) fn snapshot(&self) -> WorkerStatsSnapshot {
        WorkerStatsSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            get_runs: self.get_runs.load(Ordering::Relaxed),
            get_run_ops: self.get_run_ops.load(Ordering::Relaxed),
            insert_runs: self.insert_runs.load(Ordering::Relaxed),
            insert_run_ops: self.insert_run_ops.load(Ordering::Relaxed),
            singletons: self.singletons.load(Ordering::Relaxed),
            queue_depth_sum: self.queue_depth_sum.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
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
        self.insert_runs += other.insert_runs;
        self.insert_run_ops += other.insert_run_ops;
        self.singletons += other.singletons;
        self.queue_depth_sum += other.queue_depth_sum;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
    }
}

/// One point insert's verdict as a response: landed, duplicate, or
/// refused (reserved key).
fn insert_response<K, V>(result: Result<(), InsertError>) -> Response<K, V> {
    match result {
        Ok(()) => Response::Inserted(true),
        Err(InsertError::DuplicateKey) => Response::Inserted(false),
        Err(e) => Response::Rejected(e),
    }
}

/// Execute one request directly against the backend. Barrier ops go
/// through here; it is also the semantic reference the coalesced
/// paths must agree with.
pub(crate) fn execute<K: ServerKey, V: ServerValue, B: ServeBackend<K, V> + ?Sized>(
    backend: &B,
    request: Request<K, V>,
) -> Response<K, V> {
    match request {
        Request::Get { key } => Response::Value(backend.get(&key)),
        Request::Insert { key, value } => insert_response(backend.insert(key, value)),
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

fn flush_inserts<K: ServerKey, V: ServerValue, B: ServeBackend<K, V> + ?Sized>(
    backend: &B,
    inserts: &mut Vec<(K, V, Reply<K, V>)>,
    stats: &WorkerStats,
) {
    match inserts.len() {
        0 => {}
        1 => {
            let (key, value, reply) = inserts.pop().expect("len 1");
            stats.singletons.fetch_add(1, Ordering::Relaxed);
            reply.complete(insert_response(backend.insert(key, value)));
        }
        n => {
            stats.insert_runs.fetch_add(1, Ordering::Relaxed);
            stats.insert_run_ops.fetch_add(n as u64, Ordering::Relaxed);
            // A refused key (the sentinel, a NaN) answers Rejected on
            // its own, before the sort that a NaN would break; it must
            // not poison the whole coalesced run, which would turn
            // neighbours' verdicts into refusals they didn't earn.
            for (_, _, reply) in inserts.extract_if(.., |(key, _, _)| key.is_sentinel()) {
                reply.complete(Response::Rejected(InsertError::UnsupportedKey));
            }
            let n = inserts.len();
            let mut perm: Vec<usize> = (0..n).collect();
            // Stable by key: among equal keys, arrival order decides
            // the winner, matching one-at-a-time first-writer-wins.
            perm.sort_by(|&a, &b| inserts[a].0.partial_cmp(&inserts[b].0).expect("finite keys"));
            let keys: Vec<K> = perm.iter().map(|&i| inserts[i].0).collect();
            // Owner-exclusive writes make this pre-check race-free:
            // nobody else can insert into this worker's range between
            // the check and the bulk apply.
            let present = backend.get_many(&keys);
            let mut landed = vec![false; n];
            let mut run: Vec<(K, V)> = Vec::with_capacity(n);
            for (j, &i) in perm.iter().enumerate() {
                let dup = j > 0 && keys[j - 1] == keys[j];
                if !dup && present[j].is_none() {
                    landed[i] = true;
                    run.push((keys[j], inserts[i].1.clone()));
                }
            }
            let applied =
                backend.bulk_insert(&run).expect("sentinels filtered, run cannot be refused");
            debug_assert_eq!(applied, run.len(), "owner exclusivity violated");
            for ((_, _, reply), landed) in inserts.drain(..).zip(landed) {
                reply.complete(Response::Inserted(landed));
            }
        }
    }
}

/// The worker loop: drain a batch, coalesce adjacent point ops into
/// sorted runs, execute, complete replies. Returns when the queue is
/// closed and fully drained.
pub(crate) fn run_worker<K: ServerKey, V: ServerValue, B: ServeBackend<K, V> + ?Sized>(
    backend: &B,
    queue: &BoundedQueue<Envelope<K, V>>,
    max_batch: usize,
    stats: &WorkerStats,
) {
    let mut batch: Vec<Envelope<K, V>> = Vec::with_capacity(max_batch);
    let mut gets: Vec<(K, Reply<K, V>)> = Vec::new();
    let mut inserts: Vec<(K, V, Reply<K, V>)> = Vec::new();
    while let Some(depth) = queue.recv_batch(max_batch, &mut batch) {
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.ops.fetch_add(batch.len() as u64, Ordering::Relaxed);
        stats.queue_depth_sum.fetch_add(depth as u64, Ordering::Relaxed);
        stats.queue_depth_max.fetch_max(depth as u64, Ordering::Relaxed);
        for envelope in batch.drain(..) {
            let Envelope { request, reply } = envelope;
            match request {
                Request::Get { key } => {
                    flush_inserts(backend, &mut inserts, stats);
                    gets.push((key, reply));
                }
                Request::Insert { key, value } => {
                    flush_gets(backend, &mut gets, stats);
                    inserts.push((key, value, reply));
                }
                other => {
                    flush_gets(backend, &mut gets, stats);
                    flush_inserts(backend, &mut inserts, stats);
                    stats.singletons.fetch_add(1, Ordering::Relaxed);
                    reply.complete(execute(backend, other));
                }
            }
        }
        // Runs never straddle a drain: completing everything taken
        // from the queue before blocking again bounds reply latency.
        flush_gets(backend, &mut gets, stats);
        flush_inserts(backend, &mut inserts, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_core::AlexConfig;
    use alex_sharded::ShardedAlex;

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
        // 5 gets, 3 inserts, 2 gets, then a remove barrier: expect
        // one get run of 5, one insert run of 3, one get run of 2,
        // and one singleton.
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
        assert_eq!((snap.insert_runs, snap.insert_run_ops), (1, 3));
        assert_eq!(snap.singletons, 1);
        assert!(snap.batch_occupancy_mean() > 10.0);
    }

    #[test]
    fn duplicate_and_present_keys_in_one_insert_run_resolve_first_wins() {
        let index = backend(100); // even keys 0..198 present
        let queue = BoundedQueue::new(16);
        // 5: fresh (arrival order decides among the two); 4: present.
        let a = enqueue(&queue, Request::Insert { key: 5, value: 111 });
        let b = enqueue(&queue, Request::Insert { key: 5, value: 222 });
        let c = enqueue(&queue, Request::Insert { key: 4, value: 333 });
        let d = enqueue(&queue, Request::Insert { key: 7, value: 444 });
        queue.close();
        let stats = WorkerStats::default();
        run_worker(&index, &queue, 16, &stats);
        assert_eq!(a.wait(), vec![Response::Inserted(true)]);
        assert_eq!(b.wait(), vec![Response::Inserted(false)]);
        assert_eq!(c.wait(), vec![Response::Inserted(false)]);
        assert_eq!(d.wait(), vec![Response::Inserted(true)]);
        assert_eq!(index.get(&5), Some(111), "first arrival's value sticks");
        assert_eq!(index.get(&4), Some(2), "loaded value survives");
        assert_eq!(stats.snapshot().insert_run_ops, 4);
    }

    #[test]
    fn sentinel_in_a_coalesced_run_rejects_only_itself() {
        let index = backend(100);
        let queue = BoundedQueue::new(16);
        // Three adjacent inserts coalesce into one run; the sentinel
        // among them must answer Rejected without poisoning its
        // neighbours' verdicts or reaching the index.
        let a = enqueue(&queue, Request::Insert { key: 301, value: 1 });
        let b = enqueue(&queue, Request::Insert { key: u64::MAX, value: 2 });
        let c = enqueue(&queue, Request::Insert { key: 303, value: 3 });
        queue.close();
        let stats = WorkerStats::default();
        run_worker(&index, &queue, 16, &stats);
        assert_eq!(a.wait(), vec![Response::Inserted(true)]);
        assert_eq!(b.wait(), vec![Response::Rejected(InsertError::UnsupportedKey)]);
        assert_eq!(c.wait(), vec![Response::Inserted(true)]);
        assert_eq!(index.get(&301), Some(1));
        assert_eq!(index.get(&303), Some(3));
        assert_eq!(index.get(&u64::MAX), None, "sentinel must never land");
        assert_eq!(stats.snapshot().insert_run_ops, 3, "the run did coalesce");
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
}
