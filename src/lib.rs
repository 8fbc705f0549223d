//! Umbrella crate for the ALEX reproduction workspace.
//!
//! This crate re-exports the public surface of every workspace member so
//! that examples and integration tests can use a single dependency. The
//! actual implementations live in the `crates/` members:
//!
//! - [`alex_api`] — the index contract: the `IndexRead` /
//!   `IndexWrite` / `ConcurrentIndex` / `BatchOps` trait family, the
//!   `Entry`/`InsertError` types, the `LockedBTreeMap` reference
//!   baseline, and the `conformance_suite!` macro every backend
//!   instantiates.
//! - [`alex_core`] — the ALEX index itself (the paper's contribution).
//! - [`alex_btree`] — an in-memory B+Tree baseline (STX-style).
//! - [`alex_learned_index`] — a reimplementation of the static Learned
//!   Index of Kraska et al. (two-level linear RMI over a dense sorted
//!   array with bounded binary search).
//! - [`alex_datasets`] — generators for the paper's four datasets plus
//!   Zipfian key selection.
//! - [`alex_workloads`] — YCSB-style workload drivers (single- and
//!   multi-threaded), generic over the [`alex_api`] traits.
//! - [`alex_sharded`] — the sharded concurrent front-end: the key space
//!   range-partitioned across `EpochAlex` shards, each with lock-free
//!   epoch-protected readers and one serialized copy-on-write writer.
//! - [`alex_wal`] — durability for the epoch index: an LSN'd
//!   write-ahead log with group commit, copy-on-write leaf snapshots
//!   written in the log's own CRC frames, and crash recovery
//!   (`DurableAlex`).
//! - [`alex_server`] — the serving front-end: typed in-process
//!   requests and responses, shard-owning worker threads behind
//!   bounded queues that coalesce queued gets into sorted batch runs,
//!   and an open-/closed-loop load generator with a log-bucketed
//!   latency histogram (p50/p99/p999).

pub use alex_api;
pub use alex_btree;
pub use alex_core;
pub use alex_datasets;
pub use alex_learned_index;
pub use alex_server;
pub use alex_sharded;
pub use alex_wal;
pub use alex_workloads;
