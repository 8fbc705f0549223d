//! Durability quickstart: wrap the epoch index in a write-ahead log,
//! crash it mid-stream, and watch recovery rebuild the exact committed
//! prefix from the newest leaf snapshot plus a WAL tail replay.
//!
//! Run with:
//! ```sh
//! cargo run --release --example durable_quickstart
//! ```

use alex_repro::alex_core::AlexConfig;
use alex_repro::alex_wal::tempdir::TempDir;
use alex_repro::alex_wal::{DurableAlex, SyncPolicy, WalOptions};

fn main() {
    let dir = TempDir::new("quickstart");
    let opts = WalOptions {
        // `Always` fsyncs each group commit; `Never` trades the
        // durability of the OS cache for raw append speed.
        sync: SyncPolicy::Never,
        // Buffer 64 appends per write_all: one syscall amortized
        // across the group, at the cost of losing the uncommitted
        // suffix on a crash.
        group_commit_ops: 64,
        ..WalOptions::default()
    };

    // Seed with a bulk load; `create` writes a snapshot immediately,
    // so the bulk pairs are durable before any WAL entry.
    let seed: Vec<(u64, u64)> = (0..50_000u64).map(|k| (k * 2, k)).collect();
    let index = DurableAlex::create(dir.path(), &seed, AlexConfig::ga_armi(), opts).unwrap();
    println!("created with {} seeded pairs at LSN {}", index.len(), index.last_lsn());

    // A write burst: odd keys interleave between the seeded evens.
    for k in 0..20_000u64 {
        index.insert(k * 2 + 1, k).unwrap();
    }
    // Mid-stream snapshot — writers are never stopped; the snapshot
    // pins an epoch and pages out each leaf's merged pairs.
    let snap_lsn = index.snapshot().unwrap();
    for k in 20_000..40_000u64 {
        index.insert(k * 2 + 1, k).unwrap();
    }
    index.flush_wal().unwrap();
    let committed = index.committed_lsn();
    println!(
        "wrote 40000 inserts, snapshot at LSN {snap_lsn}, committed through LSN {committed}"
    );

    // "Crash": drop the handle without any orderly shutdown. The
    // group-commit buffer (empty here after flush_wal) evaporates.
    drop(index);

    let (back, report) = DurableAlex::<u64, u64>::open(
        dir.path(),
        AlexConfig::ga_armi(),
        WalOptions { sync: SyncPolicy::Never, ..WalOptions::default() },
    )
    .unwrap();
    println!(
        "recovered {} keys: snapshot LSN {} ({} leaves) + {} WAL records replayed, through LSN {}",
        back.len(),
        report.snapshot_lsn,
        report.snapshot_leaves,
        report.replayed,
        report.last_lsn
    );
    assert_eq!(back.len(), 90_000);
    assert_eq!(back.get(&77_777), Some((77_777 - 1) / 2));
    assert_eq!(report.last_lsn, committed);
    println!("recovered state matches the committed prefix exactly");
}
