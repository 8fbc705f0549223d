//! The server: N shard-owning workers behind bounded queues, plus the
//! client handle that routes requests to them.
//!
//! # Ownership invariant
//!
//! Worker `i` exclusively owns shard `i`'s key range (the ranges cut
//! by the backend's [`boundaries`](crate::backend::ServeBackend::boundaries)).
//! Routing enforces it: single-key requests go to their key's owner,
//! and batch requests are split **client-side** into per-owner
//! sub-requests (via [`alex_sharded::split_sorted_runs`]) that
//! reassemble on [`Pending::wait`]. While a server is running, all
//! writes must go through it. Each worker runs its queue in arrival
//! order, and no other thread writes its range, so a coalesced get
//! run answers exactly as the same gets would one by one.
//!
//! `Scan` is the one read that crosses ranges: it executes on the
//! whole index from the start-key's owner, which is safe because the
//! underlying reads are concurrent-safe; its result is a consistent
//! *per-key* view, same as issuing the scan directly against the
//! sharded index.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] closes every queue (new sends fail fast),
//! lets each worker drain what was already accepted, joins them, and
//! flushes the backend — so with a durable backend, every
//! acknowledged response is on disk when `shutdown` returns.
//! Dropping the server without calling `shutdown` does the same
//! minus the flush ordering guarantee for unacknowledged work.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use alex_core::{check_batch_keys, is_sorted_ignoring_nan};
use alex_sharded::{route_key, split_sorted_runs};

use crate::backend::{ServeBackend, ServerKey, ServerValue};
use crate::histogram::LatencyHistogram;
use crate::protocol::{Request, Response};
use crate::queue::BoundedQueue;
use crate::worker::{run_worker, Envelope, Rendezvous, Reply, WorkerStats, WorkerStatsSnapshot};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Per-worker queue bound; producers block beyond it.
    pub queue_capacity: usize,
    /// Most operations one drain takes (and so the longest get run a
    /// worker will coalesce).
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { queue_capacity: 1024, max_batch: 128 }
    }
}

/// A running worker pool over backend `B`.
pub struct Server<K: ServerKey, V: ServerValue, B: ServeBackend<K, V>> {
    backend: Arc<B>,
    boundaries: Arc<Vec<K>>,
    queues: Vec<Arc<BoundedQueue<Envelope<K, V>>>>,
    stats: Vec<Arc<WorkerStats>>,
    handles: Vec<JoinHandle<()>>,
}

impl<K: ServerKey, V: ServerValue, B: ServeBackend<K, V>> Server<K, V, B> {
    /// Spawn one worker per shard of `backend` and start serving.
    pub fn start(backend: B, config: ServerConfig) -> Self {
        let backend = Arc::new(backend);
        let boundaries = Arc::new(backend.boundaries().to_vec());
        let workers = boundaries.len() + 1;
        let mut queues = Vec::with_capacity(workers);
        let mut stats = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
            let worker_stats = Arc::new(WorkerStats::default());
            let backend = Arc::clone(&backend);
            let thread_queue = Arc::clone(&queue);
            let thread_stats = Arc::clone(&worker_stats);
            let max_batch = config.max_batch;
            handles.push(std::thread::spawn(move || {
                run_worker(&*backend, &thread_queue, max_batch, &thread_stats);
            }));
            queues.push(queue);
            stats.push(worker_stats);
        }
        Server { backend, boundaries, queues, stats, handles }
    }

    /// A cheap, cloneable handle for submitting requests. Valid until
    /// shutdown; sends after that panic.
    pub fn client(&self) -> Client<K, V> {
        Client { boundaries: Arc::clone(&self.boundaries), queues: self.queues.clone() }
    }

    pub fn num_workers(&self) -> usize {
        self.queues.len()
    }

    /// Point-in-time per-worker counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats { per_worker: self.stats.iter().map(|s| s.snapshot()).collect() }
    }

    /// Graceful shutdown: refuse new work, drain accepted work, join
    /// the workers, flush the backend, and hand it back.
    pub fn shutdown(mut self) -> Arc<B> {
        self.stop();
        Arc::clone(&self.backend)
    }

    fn stop(&mut self) {
        for queue in &self.queues {
            queue.close();
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("worker panicked");
        }
        self.backend.flush();
    }
}

impl<K: ServerKey, V: ServerValue, B: ServeBackend<K, V>> Drop for Server<K, V, B> {
    fn drop(&mut self) {
        // Idempotent: after `shutdown` the handle list is empty.
        self.stop();
    }
}

/// How a multi-part response reassembles.
enum Merge {
    Single,
    Values,
    InsertedCount,
}

/// An in-flight request. [`wait`](Pending::wait) blocks for the
/// response; dropping it abandons the result (workers still finish).
pub struct Pending<K, V> {
    rendezvous: Arc<Rendezvous<K, V>>,
    merge: Merge,
}

impl<K, V> Pending<K, V> {
    /// Block until every owner-worker has answered, and reassemble.
    pub fn wait(self) -> Response<K, V> {
        let parts = self.rendezvous.wait();
        match self.merge {
            Merge::Single => {
                let mut parts = parts;
                parts.pop().expect("single-part request has one response")
            }
            Merge::Values => {
                // Parts are numbered in the order their runs appear in
                // the request (a NaN's run included), so concatenation
                // restores request order.
                let mut all = Vec::new();
                for part in parts {
                    match part {
                        Response::Values(values) => all.extend(values),
                        _ => unreachable!("BatchGet part answered with a non-Values response"),
                    }
                }
                Response::Values(all)
            }
            Merge::InsertedCount => {
                let mut total = 0u64;
                for part in parts {
                    match part {
                        Response::InsertedCount(n) => total += n,
                        // Submission-time prechecks keep refusals out
                        // of split batches, but a part-level refusal
                        // must still dominate the merge rather than
                        // masquerade as a zero count.
                        Response::Rejected(e) => return Response::Rejected(e),
                        _ => unreachable!("BatchInsert part answered with a non-count response"),
                    }
                }
                Response::InsertedCount(total)
            }
        }
    }
}

/// A handle for submitting requests to a running [`Server`].
pub struct Client<K, V> {
    boundaries: Arc<Vec<K>>,
    queues: Vec<Arc<BoundedQueue<Envelope<K, V>>>>,
}

impl<K, V> Clone for Client<K, V> {
    fn clone(&self) -> Self {
        Client { boundaries: Arc::clone(&self.boundaries), queues: self.queues.clone() }
    }
}

impl<K: ServerKey, V: ServerValue> Client<K, V> {
    fn enqueue(&self, shard: usize, request: Request<K, V>, reply: Reply<K, V>) {
        if self.queues[shard].send(Envelope { request, reply }).is_err() {
            panic!("client used after Server::shutdown");
        }
    }

    /// Submit and wait — the synchronous convenience path.
    pub fn call(&self, request: Request<K, V>) -> Response<K, V> {
        self.submit(request).wait()
    }

    /// Submit without waiting; pipeline by holding several [`Pending`]s.
    pub fn submit(&self, request: Request<K, V>) -> Pending<K, V> {
        match request {
            Request::BatchGet { keys } => {
                debug_assert!(is_sorted_ignoring_nan(&keys), "BatchGet keys must be sorted ascending");
                let mut parts: Vec<(usize, Request<K, V>)> = Vec::new();
                split_sorted_runs(&self.boundaries, &keys, |k| k, |shard, run| {
                    parts.push((shard, Request::BatchGet { keys: run.to_vec() }));
                });
                self.dispatch(parts, Merge::Values)
            }
            Request::BatchInsert { pairs } => {
                // Refuse a batch with a sentinel or NaN anywhere before
                // splitting it: per-part refusal alone could not keep
                // the batch all-or-nothing, because the owners of the
                // other parts would already have applied their runs.
                if let Err(e) = check_batch_keys(&pairs) {
                    let rendezvous = Arc::new(Rendezvous::new(1));
                    rendezvous.complete(0, Response::Rejected(e));
                    return Pending { rendezvous, merge: Merge::Single };
                }
                debug_assert!(
                    pairs.windows(2).all(|w| w[0].0 <= w[1].0),
                    "BatchInsert pairs must be sorted ascending by key"
                );
                let mut parts: Vec<(usize, Request<K, V>)> = Vec::new();
                split_sorted_runs(&self.boundaries, &pairs, |p| &p.0, |shard, run| {
                    parts.push((shard, Request::BatchInsert { pairs: run.to_vec() }));
                });
                self.dispatch(parts, Merge::InsertedCount)
            }
            single => {
                let key = match &single {
                    Request::Get { key } | Request::Remove { key } => key,
                    Request::Insert { key, .. } => key,
                    Request::Scan { start, .. } => start,
                    Request::BatchGet { .. } | Request::BatchInsert { .. } => unreachable!(),
                };
                let shard = route_key(&self.boundaries, key);
                let rendezvous = Arc::new(Rendezvous::new(1));
                let reply = Reply::Wait { rendezvous: Arc::clone(&rendezvous), part: 0 };
                self.enqueue(shard, single, reply);
                Pending { rendezvous, merge: Merge::Single }
            }
        }
    }

    fn dispatch(&self, parts: Vec<(usize, Request<K, V>)>, merge: Merge) -> Pending<K, V> {
        // An empty batch has zero parts; the rendezvous is born
        // complete and `wait` reassembles the empty response.
        let rendezvous = Arc::new(Rendezvous::new(parts.len()));
        for (part, (shard, request)) in parts.into_iter().enumerate() {
            let reply = Reply::Wait { rendezvous: Arc::clone(&rendezvous), part };
            self.enqueue(shard, request, reply);
        }
        Pending { rendezvous, merge }
    }

    /// Fire-and-forget a **point** operation whose completion records
    /// latency from `scheduled` into `hist` — the open-loop load
    /// generator's path. Batch requests are rejected: they would
    /// record one sample per part.
    pub fn submit_measured(
        &self,
        request: Request<K, V>,
        scheduled: Instant,
        hist: &Arc<LatencyHistogram>,
    ) {
        let key = match &request {
            Request::Get { key } | Request::Remove { key } => key,
            Request::Insert { key, .. } => key,
            Request::Scan { start, .. } => start,
            Request::BatchGet { .. } | Request::BatchInsert { .. } => {
                panic!("measured submission is for point ops")
            }
        };
        let shard = route_key(&self.boundaries, key);
        let reply = Reply::Measure { scheduled, hist: Arc::clone(hist) };
        self.enqueue(shard, request, reply);
    }
}

/// Point-in-time counters for every worker.
#[derive(Debug, Clone)]
pub struct ServerStats {
    pub per_worker: Vec<WorkerStatsSnapshot>,
}

impl ServerStats {
    /// All workers' counters merged (max of maxes, sum of the rest).
    pub fn aggregate(&self) -> WorkerStatsSnapshot {
        let mut total = WorkerStatsSnapshot::default();
        for w in &self.per_worker {
            total.merge(w);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_core::AlexConfig;
    use alex_sharded::ShardedAlex;

    fn serve(n: u64, shards: usize) -> Server<u64, u64, ShardedAlex<u64, u64>> {
        let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k * 2, k)).collect();
        let index = ShardedAlex::bulk_load(&pairs, shards, AlexConfig::ga_armi());
        Server::start(index, ServerConfig { queue_capacity: 64, max_batch: 32 })
    }

    #[test]
    fn point_ops_round_trip_through_the_worker_pool() {
        let server = serve(2000, 4);
        assert_eq!(server.num_workers(), 4);
        let client = server.client();
        assert_eq!(client.call(Request::Get { key: 40 }), Response::Value(Some(20)));
        assert_eq!(client.call(Request::Get { key: 41 }), Response::Value(None));
        assert_eq!(client.call(Request::Insert { key: 41, value: 7 }), Response::Inserted(true));
        assert_eq!(client.call(Request::Insert { key: 41, value: 8 }), Response::Inserted(false));
        assert_eq!(client.call(Request::Get { key: 41 }), Response::Value(Some(7)));
        assert_eq!(client.call(Request::Remove { key: 41 }), Response::Removed(Some(7)));
        assert_eq!(client.call(Request::Get { key: 41 }), Response::Value(None));
        match client.call(Request::Scan { start: 100, limit: 10 }) {
            Response::Entries(entries) => {
                assert_eq!(entries.len(), 10);
                assert_eq!(entries[0], (100, 50));
                assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
            }
            other => panic!("scan answered {other:?}"),
        }
        let index = server.shutdown();
        assert_eq!(index.len(), 2000);
    }

    #[test]
    fn batch_requests_split_per_owner_and_reassemble_in_key_order() {
        let server = serve(4000, 4);
        let client = server.client();
        // Keys straddling every shard boundary, in sorted order.
        let keys: Vec<u64> = (0..100).map(|i| i * 79).collect();
        let expect: Vec<Option<u64>> =
            keys.iter().map(|&k| if k % 2 == 0 && k < 8000 { Some(k / 2) } else { None }).collect();
        match client.call(Request::BatchGet { keys: keys.clone() }) {
            Response::Values(values) => assert_eq!(values, expect),
            other => panic!("batch get answered {other:?}"),
        }
        // Batch insert spanning shards: odd keys are fresh.
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i * 79 + 1, i)).collect();
        let fresh = pairs.iter().filter(|(k, _)| k % 2 == 1 || *k >= 8000).count() as u64;
        match client.call(Request::BatchInsert { pairs: pairs.clone() }) {
            Response::InsertedCount(n) => assert_eq!(n, fresh),
            other => panic!("batch insert answered {other:?}"),
        }
        // Empty batches reassemble to empty responses without queueing.
        assert_eq!(client.call(Request::BatchGet { keys: vec![] }), Response::Values(vec![]));
        assert_eq!(
            client.call(Request::BatchInsert { pairs: vec![] }),
            Response::InsertedCount(0)
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_work_and_returns_the_backend() {
        let server = serve(1000, 2);
        let client = server.client();
        let pending: Vec<_> =
            (0..50u64).map(|k| client.submit(Request::Insert { key: 10_000 + k, value: k })).collect();
        let index = server.shutdown();
        for p in pending {
            assert_eq!(p.wait(), Response::Inserted(true));
        }
        assert_eq!(index.len(), 1050);
        let stats_missing = index.get(&10_049);
        assert_eq!(stats_missing, Some(49));
    }

    #[test]
    #[should_panic(expected = "client used after Server::shutdown")]
    fn sends_after_shutdown_panic_loudly() {
        let server = serve(100, 2);
        let client = server.client();
        server.shutdown();
        client.call(Request::Get { key: 0 });
    }

    #[test]
    fn stats_expose_batching_across_workers() {
        let server = serve(2000, 4);
        let client = server.client();
        let pending: Vec<_> =
            (0..200u64).map(|k| client.submit(Request::Get { key: k * 17 })).collect();
        for p in pending {
            p.wait();
        }
        let stats = server.stats();
        assert_eq!(stats.per_worker.len(), 4);
        let total = stats.aggregate();
        assert_eq!(total.ops, 200);
        assert_eq!(
            total.get_run_ops + total.singletons,
            200,
            "every op was a lookup run member or a singleton"
        );
        server.shutdown();
    }
}
