//! `alex-wal`: durability for the epoch ALEX index — a write-ahead
//! log, copy-on-write leaf snapshots, and crash recovery.
//!
//! The paper's index is memory-only; this crate is the subsystem that
//! turns the workspace's [`EpochAlex`](alex_core::EpochAlex) into a
//! restartable store without giving up its lock-free read path. Three
//! pieces, each its own module:
//!
//! - [`log`] — an LSN'd append-only **segment log** with group
//!   commit: appends buffer in memory and one `commit` pushes the
//!   whole batch in a single `write_all` plus at most one `fsync`.
//! - [`snapshot`] — a **snapshotter** serializing each leaf's merged
//!   pairs as a `PutRun` frame of the log's own codec, closed by an
//!   end frame; the newest file that parses is the restore point.
//!   Writers are never stopped: leaves are read through the same
//!   epoch-pinned CoW snapshots readers use.
//! - [`durable`] — [`DurableAlex`], the wrapper wiring both onto the
//!   index, and `open`, which rebuilds state as *newest complete
//!   snapshot + WAL tail replay*, truncating torn tails at the first
//!   bad CRC. Replay runs in place on the exclusive
//!   [`AlexIndex`](alex_core::AlexIndex) before that index is wrapped
//!   for shared use, so it pays plain gapped-array inserts rather than
//!   copy-on-write publishes.
//!
//! # On-disk formats
//!
//! ## WAL record frame
//!
//! ```text
//! [body_len: u32 LE][crc32(body): u32 LE][body]
//! body = [lsn: u64 LE][tag: u8][payload]
//! ```
//!
//! | tag | record       | payload                         | replay action        |
//! |-----|--------------|---------------------------------|----------------------|
//! | 1   | `Put`        | key bytes, value bytes          | upsert (value wins)  |
//! | 2   | `Tombstone`  | key bytes                       | remove if present    |
//! | 3   | `Checkpoint` | snapshot LSN (u64 LE)           | snapshot end frame only |
//! | 4   | `PutRun`     | count (u32), count × (key, val) | upsert each, in order |
//!
//! `PutRun` is the batched form [`DurableAlex::bulk_insert`] logs: one
//! frame + CRC + LSN for a whole sorted run instead of 17 bytes of
//! framing per pair. A run too big for one frame body is cut into
//! several by encoded size ([`record::encode_put_runs`]), so every
//! frame decodes for any codec.
//!
//! Key and value bytes come from [`codec::WalCodec`], a closed family
//! of fixed-width little-endian encodings covering the workspace's
//! numeric key/payload types. Segments are `wal-<first-lsn>.log`;
//! snapshots are `snap-<lsn>.pages`, written in the same frames: one
//! `PutRun` per leaf, numbered 1, 2, … in the LSN field, then a
//! `Checkpoint` naming `<lsn>` — see [`snapshot`].
//!
//! # Group-commit semantics
//!
//! [`WalOptions::group_commit_ops`] = `N` means an operation is
//! *acknowledged* when applied and *durable* when its group's commit
//! runs (every `N` records, or at an explicit
//! [`DurableAlex::flush_wal`] / [`DurableAlex::snapshot`]). A crash
//! loses at most the acknowledged-but-uncommitted suffix — never a
//! prefix, never an interleaving, because records hit the OS in LSN
//! order and recovery truncates at the first damaged frame. With
//! `N == 1` and [`SyncPolicy::Always`] (the defaults) nothing
//! acknowledged is ever lost.
//!
//! # Recovery invariants
//!
//! 1. **Log order is apply order.** Every mutation appends and
//!    applies under one WAL-mutex hold.
//! 2. **Snapshot LSN ≤ replay start.** A snapshot's LSN `L` is
//!    captured under that same mutex, so each serialized leaf
//!    reflects a per-leaf prefix of operations up to some `Lᵢ ≥ L`;
//!    replay starts at `L + 1` and re-applying the records in
//!    `(L, Lᵢ]` is idempotent (`Put` = upsert, `Tombstone` =
//!    remove-if-present). The full argument is in [`durable`]'s
//!    module docs.
//! 3. **Torn tails truncate.** A frame that fails its CRC (or runs
//!    out of bytes) ends the log: the segment is truncated in place
//!    and later segments are deleted, so recovery always lands on an
//!    exact operation-sequence prefix.
//!
//! ```
//! use alex_core::AlexConfig;
//! use alex_wal::{DurableAlex, SyncPolicy, WalOptions};
//!
//! let dir = alex_wal::tempdir::TempDir::new("doc-quickstart");
//! let opts = WalOptions { sync: SyncPolicy::Never, ..WalOptions::default() };
//! let pairs: Vec<(u64, u64)> = (0..100).map(|k| (k * 2, k)).collect();
//!
//! let index = DurableAlex::create(dir.path(), &pairs, AlexConfig::ga_armi(), opts)?;
//! index.insert(1, 42)?;
//! index.remove(&0)?;
//! drop(index); // "crash": no explicit shutdown
//!
//! let (back, report) = DurableAlex::<u64, u64>::open(dir.path(), AlexConfig::ga_armi(), opts)?;
//! assert_eq!(back.get(&1), Some(42));
//! assert_eq!(back.get(&0), None);
//! assert_eq!(back.len(), 100);
//! assert_eq!(report.replayed, 2);
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod codec;
pub mod durable;
pub mod log;
pub mod record;
pub mod snapshot;
pub mod tempdir;

pub use codec::{crc32, WalCodec};
pub use durable::{DurableAlex, RecoveryReport};
pub use log::{scan_and_repair, SyncPolicy, Wal, WalOptions, WalScan, WalStats};
pub use record::{Lsn, WalRecord};
pub use snapshot::{SnapshotData, SnapshotWriter};

/// The key contract a durable index needs: the index's own key trait
/// plus a byte codec for log and snapshot records. Blanket-
/// implemented — `u64`, `i64`, `u32`, and `f64` all qualify.
pub trait DurableKey: alex_core::AlexKey + WalCodec {}

impl<K: alex_core::AlexKey + WalCodec> DurableKey for K {}
