//! `alex-server`: the serving front-end for the ALEX reproduction —
//! what production embedding of the index looks like end-to-end,
//! modeled in-process.
//!
//! The paper evaluates the index under a driver that calls it
//! directly; a deployed index instead sits behind a request queue and
//! a scheduler, and those layers decide whether the index's batch
//! operations ([`get_many`], [`bulk_insert`]) ever see batches at all.
//! This crate builds that serving stack:
//!
//! - [`protocol`] — the typed [`Request`]/[`Response`] enums a client
//!   hands to the workers in process; nothing is serialized.
//! - [`queue`] — a bounded blocking MPSC queue whose batch drain is
//!   the mechanism behind load-adaptive batching: the deeper the
//!   backlog, the larger the batch a worker takes in one lock hold.
//! - [`worker`] — shard-owning worker threads. Each exclusively owns
//!   one key range of the sharded index, **coalesces** adjacent queued
//!   gets into sorted [`get_many`] runs, and executes every other
//!   request alone, in arrival order (a client always sees its own
//!   writes).
//! - [`server`] — [`Server`] spawns the pool and routes: single-key
//!   requests go to their owner worker, batch requests are split
//!   client-side per owner and reassembled on wait. Graceful
//!   [`shutdown`](Server::shutdown) drains every queue, joins the
//!   workers, and flushes the backend.
//! - [`backend`] — the [`ServeBackend`] trait the workers execute
//!   against: [`ShardedAlex`](alex_sharded::ShardedAlex) in memory,
//!   or [`DurableShardedAlex`](alex_sharded::DurableShardedAlex)
//!   (WAL + snapshots per shard).
//! - [`histogram`] — a lock-free log-bucketed latency histogram
//!   (~3% relative error, p50/p99/p999 by interpolation).
//! - [`loadgen`] — closed-loop (issue-wait-issue, measures RTT) and
//!   open-loop (Poisson arrivals, measures from *scheduled* time so
//!   queueing delay counts — no coordinated omission) drivers.
//!
//! # Why batching at the server tier
//!
//! The index's run-level lookup amortizes tree descent and model
//! evaluation across a sorted run, but only if someone hands it runs.
//! Under a serving workload the natural run source is the queue:
//! whenever a worker falls behind, its backlog *is* a batch.
//! Coalescing gets converts overload into efficiency — exactly when
//! throughput matters most, per-op cost drops. Point inserts are not
//! coalesced: alone, each lands in its leaf's delta buffer, while a
//! sorted [`bulk_insert`] run would copy every leaf it touches whole.
//! A client's own `BatchInsert` still takes [`bulk_insert`].
//!
//! # Example
//!
//! ```
//! use alex_core::AlexConfig;
//! use alex_server::{Request, Response, Server, ServerConfig};
//! use alex_sharded::ShardedAlex;
//!
//! let pairs: Vec<(u64, u64)> = (0..10_000).map(|k| (k * 2, k)).collect();
//! let index = ShardedAlex::bulk_load(&pairs, 4, AlexConfig::ga_armi());
//!
//! let server = Server::start(index, ServerConfig::default());
//! let client = server.client();
//! assert_eq!(client.call(Request::Get { key: 40 }), Response::Value(Some(20)));
//! assert_eq!(client.call(Request::Insert { key: 41, value: 7 }), Response::Inserted(true));
//!
//! let index = server.shutdown(); // drains, joins, flushes
//! assert_eq!(index.len(), 10_001);
//! ```
//!
//! [`get_many`]: crate::backend::ServeBackend::get_many
//! [`bulk_insert`]: crate::backend::ServeBackend::bulk_insert

pub mod backend;
pub mod histogram;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod worker;

pub use backend::{ServeBackend, ServerKey, ServerValue};
pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use loadgen::{run_load, Arrival, LoadReport, LoadSpec};
pub use protocol::{Request, Response};
pub use queue::BoundedQueue;
pub use server::{Client, Pending, Server, ServerConfig, ServerStats};
pub use worker::{WorkerStats, WorkerStatsSnapshot};
