//! [`DurableAlex`]: the epoch index with a WAL in front and
//! snapshots behind — the integration layer the rest of the crate
//! exists for.
//!
//! ## Write protocol
//!
//! Every mutation runs under the WAL mutex, which therefore doubles
//! as the operation serializer for durable writes (the inner
//! [`EpochAlex`] writer mutex still serializes against any direct
//! writers and splits). Within one hold a point write applies itself
//! through the index's own write (which refuses a duplicate insert, or
//! an update or remove of an absent key, without touching anything),
//! appends its record only if the write landed, and lets the group
//! commit policy decide whether to flush; a batch write appends the
//! pairs that landed the same way. No write probes the index first, so
//! a write never counts as a read in [`EpochAlex::read_stats`]. Since
//! each apply and its append sit in one hold, the log's record order
//! **is** the apply order, the invariant all replay reasoning rests
//! on. Readers never touch the mutex: they go straight to the
//! epoch-pinned lock-free read path.
//!
//! ## Why recovery is exact (the snapshot-LSN ≤ replay-start proof)
//!
//! A snapshot captures its LSN `L` while holding the WAL mutex (after
//! committing the buffer), so every operation is on one side of `L`:
//! fully applied *and* logged with LSN `<= L`, or not yet started.
//! Leaf serialization then proceeds *without* the mutex — writers are
//! never stopped — reading published leaf snapshots. Each serialized
//! leaf therefore reflects a per-leaf **prefix** of the operation
//! sequence up to some `Lᵢ >= L` (operations are applied in LSN order
//! and each publishes atomically). Once serialization finishes, and
//! *before* the end frame makes the file a restore candidate, the WAL
//! is committed once more: every record appended up to that point — a
//! superset of all records whose effects any leaf captured — is
//! durable, so a restored snapshot can never contain the effect of a
//! record the crash lost. (A leaf may capture a write applied in a
//! hold that has not appended its record yet; that commit takes the
//! WAL mutex, so it waits for the hold to end and the record to be
//! appended.) Recovery restores the newest snapshot file whose pages
//! and end frame all parse, and replays every record with
//! LSN `> L` in order: records in `(L, Lᵢ]` for some leaf are
//! *re-applied* to state that already contains them, which is safe
//! because both record kinds are idempotent re-applications — a `Put`
//! replays as an upsert (set `key` to exactly this value) and a
//! `Tombstone` as a remove-if-present. After replay every leaf has
//! seen exactly the effects of records `1..=last_lsn`, i.e. the
//! recovered index equals the pre-crash committed state. This is also
//! why replay **must** upsert rather than insert-or-skip: an update
//! logs a `Put`, and skipping it because the key exists would resurrect
//! the older value.
//!
//! The older snapshots and the log segments below `L` are deleted only
//! once the new snapshot is complete (its end frame synced, then the
//! directory), so at every instant some restorable snapshot and the
//! log above its LSN are on disk. A snapshot taken with nothing logged
//! since the last complete one would carry that one's LSN, so
//! [`DurableAlex::snapshot`] writes nothing then and never truncates a
//! complete snapshot file.
//!
//! ## Replay runs before the index is shared
//!
//! [`DurableAlex::open`] bulk-loads the snapshot's pairs into an
//! exclusive [`AlexIndex`] and applies the tail to it in place, record
//! by record in LSN order, through the ordinary model-based inserts
//! into gapped arrays. Only then is the index wrapped in an
//! [`EpochAlex`]. No reader or writer can reach it before `open`
//! returns, so copy-on-write, epoch retirement and delta buffers
//! would do no useful work during replay (the redo-before-readers
//! discipline of ARIES).
//!
//! ## What a crash can and cannot lose
//!
//! With [`SyncPolicy::Always`] and `group_commit_ops == 1` nothing
//! acknowledged is ever lost. With a larger group size, a crash loses
//! at most the acknowledged-but-uncommitted suffix — never a prefix,
//! never an interleaving: the log is truncated at its first torn or
//! corrupt frame, so recovery always lands on an exact operation-
//! sequence prefix. [`DurableAlex`] deliberately does **not** commit
//! in `Drop`; dropping the handle without [`DurableAlex::flush_wal`]
//! *is* the crash simulation the differential tests rely on.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use alex_core::{AlexConfig, AlexIndex, EpochAlex};

use crate::codec::WalCodec;
use crate::DurableKey;
use crate::log::{scan_and_repair, SyncPolicy, Wal, WalOptions, WalStats};
use crate::record::{Lsn, WalRecord};
use crate::snapshot::{find_best_snapshot, remove_snapshots_before, SnapshotWriter};

/// What [`DurableAlex::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN of the snapshot the index was rebuilt from (0 = none).
    pub snapshot_lsn: Lsn,
    /// Leaf pages the snapshot contributed.
    pub snapshot_leaves: usize,
    /// Highest intact LSN in the log; the recovered index reflects
    /// exactly operations `1..=last_lsn`.
    pub last_lsn: Lsn,
    /// Upserts and removes above the snapshot LSN that were
    /// re-applied (a `PutRun` counts each of its pairs).
    pub replayed: usize,
    /// Bytes cut off a torn or corrupt segment tail.
    pub truncated_bytes: u64,
    /// Whole segments discarded after the damage point.
    pub dropped_segments: usize,
}

/// A durable [`EpochAlex`]: all writes go through a write-ahead log,
/// snapshots bound recovery work, reads stay lock-free. See the
/// module docs for the protocol and the crate docs for the formats.
#[derive(Debug)]
pub struct DurableAlex<K, V> {
    inner: EpochAlex<K, V>,
    wal: Mutex<Wal<K, V>>,
    /// The LSN of the last complete snapshot (`None` before the
    /// first). Its lock serializes [`DurableAlex::snapshot`] calls:
    /// two snapshotters capturing the same LSN would interleave pages
    /// into one `snap-<lsn>.pages` file and race `truncate_before`.
    /// Held for the whole snapshot, never while holding `wal` (the WAL
    /// mutex is taken and released inside), so writers are still never
    /// blocked on serialization.
    snap_lock: Mutex<Option<Lsn>>,
    dir: PathBuf,
    sync: SyncPolicy,
}

impl<K, V> DurableAlex<K, V>
where
    K: DurableKey,
    V: Clone + Default + WalCodec,
{
    /// Initialize a **new** durable index in `dir` from sorted,
    /// strictly-increasing pairs. Refuses a directory that already
    /// holds WAL segments or snapshots (open that with
    /// [`DurableAlex::open`] instead).
    ///
    /// Bulk-loaded pairs never pass through the WAL, so `create`
    /// writes (and publishes) an initial snapshot before returning —
    /// otherwise a crash before the first explicit snapshot would
    /// silently drop the whole load.
    pub fn create(
        dir: impl Into<PathBuf>,
        pairs: &[(K, V)],
        config: AlexConfig,
        opts: WalOptions,
    ) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let has_state = !crate::snapshot::list_snapshots(&dir)?.is_empty()
            || !crate::log::list_segments(&dir)?.is_empty();
        if has_state {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "directory already holds a durable index",
            ));
        }
        let wal = Wal::create(&dir, opts)?;
        let this = Self {
            inner: EpochAlex::from_index(AlexIndex::bulk_load(pairs, config)),
            wal: Mutex::new(wal),
            snap_lock: Mutex::new(None),
            dir,
            sync: opts.sync,
        };
        this.snapshot()?;
        Ok(this)
    }

    /// Recover the index in `dir`: load the newest complete snapshot,
    /// repair the log (truncating any torn tail), and replay the tail
    /// above the snapshot LSN in place on the exclusive index, before
    /// that index is wrapped for shared use. An empty or missing
    /// directory recovers to an empty index.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: AlexConfig,
        opts: WalOptions,
    ) -> io::Result<(Self, RecoveryReport)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let snapshot = find_best_snapshot::<K, V>(&dir)?;
        let last_snapshot = snapshot.as_ref().map(|data| data.snapshot_lsn);
        let (snapshot_lsn, snapshot_leaves, pairs) = match snapshot {
            Some(data) => (data.snapshot_lsn, data.pages, data.pairs),
            None => (0, 0, Vec::new()),
        };
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "snapshot pages must concatenate sorted"
        );
        let mut index = AlexIndex::bulk_load(&pairs, config);
        drop(pairs);
        let scan = scan_and_repair::<K, V>(&dir)?;
        // Nothing can reach `index` before `open` returns, so replay
        // edits the gapped arrays in place: copy-on-write, epoch
        // retirement and delta buffers start only once it is shared.
        let upsert = |index: &mut AlexIndex<K, V>, key: K, value: V| {
            if index.update(&key, value.clone()).is_none() {
                index.insert(key, value).expect("the WAL never holds sentinel keys");
            }
        };
        let mut replayed = 0usize;
        for (lsn, record) in scan.records {
            if lsn <= snapshot_lsn {
                continue;
            }
            match record {
                WalRecord::Put { key, value } => {
                    replayed += 1;
                    upsert(&mut index, key, value);
                }
                WalRecord::PutRun { pairs } => {
                    // `replayed` counts logical upserts, not frames, so
                    // the report stays comparable across both forms.
                    replayed += pairs.len();
                    for (key, value) in pairs {
                        upsert(&mut index, key, value);
                    }
                }
                WalRecord::Tombstone { key } => {
                    replayed += 1;
                    index.remove(&key);
                }
                WalRecord::Checkpoint { .. } => {}
            }
        }
        let last_lsn = scan.last_lsn.max(snapshot_lsn);
        let report = RecoveryReport {
            snapshot_lsn,
            snapshot_leaves,
            last_lsn,
            replayed,
            truncated_bytes: scan.truncated_bytes,
            dropped_segments: scan.dropped_segments,
        };
        let wal = Wal::resume(&dir, opts, last_lsn + 1, last_lsn);
        let this = Self {
            inner: EpochAlex::from_index(index),
            wal: Mutex::new(wal),
            snap_lock: Mutex::new(last_snapshot),
            dir,
            sync: opts.sync,
        };
        Ok((this, report))
    }

    /// The WAL mutex serializes durable writers; like the inner
    /// writer mutex (and for the same CoW reason — see
    /// `EpochAlex::write_lock`), poisoning is recovered from rather
    /// than propagated: at every unwind point the log holds whole
    /// frames and the published tree is consistent.
    fn wal_lock(&self) -> MutexGuard<'_, Wal<K, V>> {
        self.wal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // ------------------------------------------------------------------
    // Logged writes
    // ------------------------------------------------------------------

    /// Insert a fresh pair. `Ok(false)` (duplicate) neither changes
    /// the index nor logs anything. The reserved `MAX_KEY` sentinel and
    /// a NaN key are rejected with [`io::ErrorKind::InvalidInput`]
    /// before the index is touched, so a refused key is an error and
    /// not a duplicate.
    pub fn insert(&self, key: K, value: V) -> io::Result<bool> {
        reject_sentinel(&key)?;
        let mut wal = self.wal_lock();
        if self.inner.insert(key, value.clone()).is_err() {
            // The sentinel was refused above, so this is a duplicate.
            return Ok(false);
        }
        wal.append(&WalRecord::Put { key, value });
        wal.commit_if_due()?;
        Ok(true)
    }

    /// Replace the payload of an existing key; absent keys log
    /// nothing.
    pub fn update(&self, key: &K, value: V) -> io::Result<Option<V>> {
        let mut wal = self.wal_lock();
        let Some(old) = self.inner.update(key, value.clone()) else {
            return Ok(None);
        };
        wal.append(&WalRecord::Put { key: *key, value });
        wal.commit_if_due()?;
        Ok(Some(old))
    }

    /// Insert-or-replace; both cases log the same `Put` record (and
    /// that ambiguity is fine — see the module docs on why replay
    /// upserts). Rejects the sentinel before logging, like
    /// [`DurableAlex::insert`].
    pub fn upsert(&self, key: K, value: V) -> io::Result<Option<V>> {
        reject_sentinel(&key)?;
        let mut wal = self.wal_lock();
        wal.append(&WalRecord::Put { key, value: value.clone() });
        let old = match self.inner.update(&key, value.clone()) {
            Some(old) => Some(old),
            None => {
                self.inner
                    .insert(key, value)
                    .expect("absent key insert under the WAL mutex");
                None
            }
        };
        wal.commit_if_due()?;
        Ok(old)
    }

    /// Remove `key`, returning its payload. Absent keys log nothing.
    pub fn remove(&self, key: &K) -> io::Result<Option<V>> {
        let mut wal = self.wal_lock();
        let Some(old) = self.inner.remove(key) else {
            return Ok(None);
        };
        wal.append(&WalRecord::Tombstone { key: *key });
        wal.commit_if_due()?;
        Ok(Some(old))
    }

    /// Sorted-batch insert through the run-level CoW path, logged as
    /// [`WalRecord::PutRun`] frames, as many pairs to a frame as its
    /// body holds (one CRC + LSN amortized over the run instead of 17
    /// framing bytes per pair), and committed as one group. Returns
    /// the number actually inserted.
    ///
    /// Only the pairs that *land* are logged: the in-memory path
    /// skips duplicates, but replay upserts, so logging a skipped
    /// pair would make recovery disagree with the live index. The
    /// landed pairs are strictly increasing by construction, as
    /// [`WalRecord::PutRun`] requires.
    ///
    /// # Panics
    /// Panics (debug builds) if `pairs` is not sorted by key.
    pub fn bulk_insert(&self, pairs: &[(K, V)]) -> io::Result<usize> {
        // Refuse the whole batch before logging anything.
        alex_core::check_batch_keys(pairs)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_insert input must be sorted by key"
        );
        let mut wal = self.wal_lock();
        // The index hands back the pairs that land, in key order, with
        // a key repeated within the batch landing only the first time.
        let mut fresh: Vec<(K, V)> = Vec::new();
        let landed = self
            .inner
            .bulk_insert_with(pairs, |pair| fresh.push(pair.clone()))
            .expect("sentinel rejected up front, the batch cannot fail");
        if !fresh.is_empty() {
            wal.append(&WalRecord::PutRun { pairs: fresh });
        }
        // One commit for the whole batch regardless of group size:
        // the batch is acknowledged as a unit, so it is made durable
        // as a unit.
        wal.commit()?;
        Ok(landed)
    }

    // ------------------------------------------------------------------
    // Durability control
    // ------------------------------------------------------------------

    /// Commit any buffered records now, regardless of group size.
    pub fn flush_wal(&self) -> io::Result<Lsn> {
        self.wal_lock().commit()
    }

    /// Write a fresh snapshot of the current state, then delete the
    /// older snapshots and the log segments it covers; returns its
    /// LSN. With nothing logged since the last complete snapshot it
    /// writes nothing and returns that snapshot's LSN. Writers are
    /// paused only to capture the LSN (a commit), not while leaves
    /// serialize; see the module docs for why concurrent writes during
    /// serialization recover exactly. Concurrent `snapshot` calls
    /// serialize against each other (they would otherwise race on the
    /// same pages file).
    pub fn snapshot(&self) -> io::Result<Lsn> {
        let mut last = self.snap_lock.lock().unwrap_or_else(PoisonError::into_inner);
        let lsn = self.wal_lock().commit()?;
        if *last == Some(lsn) {
            return Ok(lsn);
        }
        let mut writer: SnapshotWriter<K, V> =
            SnapshotWriter::create(&self.dir, lsn, self.sync == SyncPolicy::Always)?;
        let mut io_err: Option<io::Error> = None;
        self.inner.leaf_snapshots(|leaf| {
            if io_err.is_none() {
                if let Err(e) = writer.append_leaf(leaf) {
                    io_err = Some(e);
                }
            }
        });
        if let Some(e) = io_err {
            return Err(e);
        }
        // The serialized leaves reflect per-leaf prefixes up to some
        // Lᵢ >= L — and with group commit > 1, records in (L, Lᵢ]
        // may still sit in the WAL buffer. Commit them *before* the
        // end frame lands: once it is written the file is a restore
        // candidate, and the replay proof needs every captured
        // effect's record to be in the durable log.
        self.wal_lock().commit()?;
        writer.finish()?;
        *last = Some(lsn);
        remove_snapshots_before(&self.dir, lsn)?;
        self.wal_lock().truncate_before(lsn)?;
        Ok(lsn)
    }

    // ------------------------------------------------------------------
    // Reads and diagnostics (lock-free, delegated)
    // ------------------------------------------------------------------

    /// Point lookup (lock-free, epoch-pinned).
    pub fn get(&self, key: &K) -> Option<V> {
        self.inner.get(key)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.inner.contains(key)
    }

    /// Visit up to `limit` entries with key `>= key` in order.
    pub fn scan_from(&self, key: &K, limit: usize, f: impl FnMut(&K, &V)) -> usize {
        self.inner.scan_from(key, limit, f)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The wrapped concurrent index, for read-side APIs this wrapper
    /// does not mirror (stats, `get_many`, …). Its direct write
    /// methods also work — they just are not logged, which is only
    /// sensible for data the caller re-derives after a crash. Nor does
    /// a snapshot always keep them: a snapshot with nothing logged
    /// since the last one writes nothing.
    pub fn index(&self) -> &EpochAlex<K, V> {
        &self.inner
    }

    /// Highest LSN assigned (0 if none).
    pub fn last_lsn(&self) -> Lsn {
        self.wal_lock().last_lsn()
    }

    /// Highest LSN pushed to the OS; a crash loses nothing at or
    /// below this.
    pub fn committed_lsn(&self) -> Lsn {
        self.wal_lock().committed_lsn()
    }

    /// The log's group-commit counters.
    pub fn wal_stats(&self) -> WalStats {
        self.wal_lock().stats()
    }

    /// The directory this index persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// The shared sentinel gate for logged writes: refuse a key
/// [`alex_core::SentinelKey::is_sentinel`] refuses (the sentinel, a
/// NaN) with [`io::ErrorKind::InvalidInput`] (wrapping
/// [`alex_core::InsertError::UnsupportedKey`] as the source) before a
/// record is appended.
fn reject_sentinel<K: DurableKey>(key: &K) -> io::Result<()> {
    if key.is_sentinel() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            alex_core::InsertError::UnsupportedKey,
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn no_sync() -> WalOptions {
        WalOptions { sync: SyncPolicy::Never, ..WalOptions::default() }
    }

    fn config() -> AlexConfig {
        AlexConfig::ga_armi().with_max_node_keys(256).with_splitting()
    }

    #[test]
    fn create_write_drop_open_round_trips() {
        let dir = TempDir::new("durable-roundtrip");
        let pairs: Vec<(u64, u64)> = (0..1000).map(|k| (k * 3, k)).collect();
        let index = DurableAlex::create(dir.path(), &pairs, config(), no_sync()).unwrap();
        assert!(index.insert(1, 111).unwrap());
        assert!(!index.insert(1, 222).unwrap(), "duplicate insert must refuse");
        assert_eq!(index.update(&1, 333).unwrap(), Some(111));
        assert_eq!(index.remove(&3).unwrap(), Some(1));
        assert_eq!(index.upsert(2, 22).unwrap(), None);
        assert_eq!(index.upsert(2, 23).unwrap(), Some(22));
        drop(index); // group size 1: everything is already committed
        let (back, report) = DurableAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.len(), 1001);
        assert_eq!(back.get(&1), Some(333));
        assert_eq!(back.get(&2), Some(23));
        assert_eq!(back.get(&3), None);
        assert_eq!(back.get(&6), Some(2));
        assert!(report.replayed > 0);
        assert_eq!(report.truncated_bytes, 0);
    }

    #[test]
    fn create_snapshots_the_bulk_load_immediately() {
        let dir = TempDir::new("durable-initial-snap");
        let pairs: Vec<(u64, u64)> = (0..500).map(|k| (k * 2, k)).collect();
        let index = DurableAlex::create(dir.path(), &pairs, config(), no_sync()).unwrap();
        drop(index); // crash right after create: no WAL records at all
        let (back, report) = DurableAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.len(), 500, "bulk-loaded pairs must survive via the initial snapshot");
        assert_eq!(report.replayed, 0);
        assert!(report.snapshot_leaves > 0);
    }

    #[test]
    fn open_on_a_fresh_directory_starts_empty() {
        let dir = TempDir::new("durable-fresh");
        let (index, report) = DurableAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(report, RecoveryReport {
            snapshot_lsn: 0,
            snapshot_leaves: 0,
            last_lsn: 0,
            replayed: 0,
            truncated_bytes: 0,
            dropped_segments: 0,
        });
        assert!(index.insert(5, 50).unwrap());
        drop(index);
        let (back, _) = DurableAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.get(&5), Some(50));
    }

    #[test]
    fn snapshot_bounds_replay_and_gcs_the_log() {
        let dir = TempDir::new("durable-snap-bounds");
        let index = DurableAlex::create(dir.path(), &[], config(), no_sync()).unwrap();
        for k in 0..200u64 {
            index.insert(k, k).unwrap();
        }
        let snap_lsn = index.snapshot().unwrap();
        assert_eq!(snap_lsn, 200);
        for k in 200..230u64 {
            index.insert(k, k).unwrap();
        }
        drop(index);
        let (back, report) = DurableAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(report.snapshot_lsn, 200);
        // Only the tail above the snapshot replays.
        assert_eq!(report.replayed, 30);
        assert_eq!(back.len(), 230);
        assert_eq!(back.get(&215), Some(215));
    }

    #[test]
    fn bulk_insert_logs_only_landed_pairs() {
        let dir = TempDir::new("durable-bulk");
        let index = DurableAlex::create(dir.path(), &[], config(), no_sync()).unwrap();
        index.insert(10, 1).unwrap();
        index.update(&10, 2).unwrap();
        // 10 is a duplicate; 20 repeats within the batch.
        let batch = vec![(10u64, 99u64), (20, 200), (20, 201), (30, 300)];
        assert_eq!(index.bulk_insert(&batch).unwrap(), 2);
        assert_eq!(index.get(&10), Some(2), "duplicate must not clobber");
        assert_eq!(index.get(&20), Some(200), "first equal-key pair wins");
        drop(index);
        let (back, _) = DurableAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.get(&10), Some(2), "replay must agree with the live outcome");
        assert_eq!(back.get(&20), Some(200));
        assert_eq!(back.get(&30), Some(300));
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn a_durable_batch_write_counts_no_read() {
        let dir = TempDir::new("durable-bulk-reads");
        let pairs: Vec<(u64, u64)> = (0..10_000).map(|k| (k * 10, k)).collect();
        let cfg = AlexConfig::ga_armi();
        let index = DurableAlex::create(dir.path(), &pairs, cfg, no_sync()).unwrap();
        // 1000 fresh keys, the first of them twice: only its first pair
        // lands, and only landed pairs are logged.
        let mut batch: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * 70 + 5, i)).collect();
        batch.insert(1, (5, 999));
        assert_eq!(index.bulk_insert(&batch).unwrap(), 1000);
        assert_eq!(index.index().read_stats(), (0, 0, 0), "a batch write recorded reads");
        // Point writes: 1000 fresh inserts and a duplicate of each,
        // then an update of each and of an absent key.
        for i in 0..1000u64 {
            assert!(index.insert(i * 70 + 7, i).unwrap());
            assert!(!index.insert(i * 70 + 7, i + 1).unwrap(), "duplicate insert must refuse");
        }
        for i in 0..1000u64 {
            assert_eq!(index.update(&(i * 70 + 7), i + 2).unwrap(), Some(i));
        }
        assert_eq!(index.update(&3, 0).unwrap(), None, "absent key");
        assert_eq!(index.index().read_stats(), (0, 0, 0), "a point write recorded reads");
        drop(index);
        let (back, _) = DurableAlex::<u64, u64>::open(dir.path(), cfg, no_sync()).unwrap();
        assert_eq!(back.get(&5), Some(0), "replay must keep the first pair of a repeated key");
        assert_eq!(back.len(), 12_000);
        for i in (0..1000u64).step_by(37) {
            assert_eq!(back.get(&(i * 70 + 7)), Some(i + 2), "replay must keep the update");
        }
        assert_eq!(back.get(&3), None, "an update of an absent key logs nothing");
    }

    fn wal_bytes(dir: &std::path::Path) -> u64 {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .map(|e| e.metadata().unwrap().len())
            .sum()
    }

    #[test]
    fn put_run_batching_shrinks_the_log_and_recovers_identically() {
        // The same logical batch, logged two ways: one PutRun frame
        // per chunk (bulk_insert) vs one Put frame per pair (point
        // inserts). Recovery must produce identical state from both,
        // and the run-framed log must be materially smaller.
        let n = 3000u64;
        let batch: Vec<(u64, u64)> = (0..n).map(|k| (k * 2, k * 7)).collect();

        let run_dir = TempDir::new("durable-putrun-batched");
        let run_idx = DurableAlex::create(run_dir.path(), &[], config(), no_sync()).unwrap();
        assert_eq!(run_idx.bulk_insert(&batch).unwrap(), n as usize);
        // 3000 pairs fit one frame.
        assert_eq!(run_idx.wal_stats().appended, 1);
        drop(run_idx); // crash

        let pt_dir = TempDir::new("durable-putrun-pointwise");
        let pt_idx = DurableAlex::create(pt_dir.path(), &[], config(), no_sync()).unwrap();
        for &(k, v) in &batch {
            assert!(pt_idx.insert(k, v).unwrap());
        }
        pt_idx.flush_wal().unwrap();
        drop(pt_idx); // crash

        let run_log = wal_bytes(run_dir.path());
        let pt_log = wal_bytes(pt_dir.path());
        assert!(
            run_log * 2 < pt_log,
            "PutRun framing must at least halve WAL bytes: {run_log} vs {pt_log}"
        );

        let (a, ra) = DurableAlex::<u64, u64>::open(run_dir.path(), config(), no_sync()).unwrap();
        let (b, _) = DurableAlex::<u64, u64>::open(pt_dir.path(), config(), no_sync()).unwrap();
        assert_eq!(ra.replayed, n as usize, "replayed counts logical upserts, not frames");
        assert_eq!(a.len(), b.len());
        let mut pairs_a = Vec::new();
        let mut pairs_b = Vec::new();
        a.scan_from(&0, usize::MAX, |k, v| pairs_a.push((*k, *v)));
        b.scan_from(&0, usize::MAX, |k, v| pairs_b.push((*k, *v)));
        assert_eq!(pairs_a, batch, "recovered state must equal the batch");
        assert_eq!(pairs_a, pairs_b, "both logging forms recover the same state");
    }

    type Url = alex_core::FixedStr<32>;

    /// 40-byte pairs: a run of 30,000 is 1.2 MB, more than one frame
    /// body holds.
    fn url_pairs(keys: impl Iterator<Item = u64>) -> Vec<(Url, u64)> {
        keys.map(|k| (Url::from(format!("{k:08}").as_str()), k)).collect()
    }

    #[test]
    fn a_wide_batch_logs_frames_that_recovery_accepts() {
        let dir = TempDir::new("durable-wide-batch");
        let base = url_pairs((0..10).map(|i| i * 6000));
        let index = DurableAlex::create(dir.path(), &base, config(), no_sync()).unwrap();
        let batch = url_pairs((0..30_000).map(|i| i * 2 + 1));
        assert_eq!(index.bulk_insert(&batch).unwrap(), 30_000);
        assert_eq!(index.len(), 30_010);
        drop(index);
        let (back, report) = DurableAlex::<Url, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(report.truncated_bytes, 0, "recovery refused a frame the log wrote");
        assert_eq!(report.replayed, 30_000);
        assert_eq!(back.len(), 30_010);
        assert_eq!(back.get(&batch[29_999].0), Some(batch[29_999].1));
    }

    #[test]
    fn a_one_leaf_store_of_wide_pairs_round_trips() {
        let dir = TempDir::new("durable-wide-leaf");
        let pairs = url_pairs(0..30_000);
        let cfg = AlexConfig::ga_srmi(1);
        drop(DurableAlex::create(dir.path(), &pairs, cfg, no_sync()).unwrap());
        let (back, report) = DurableAlex::<Url, u64>::open(dir.path(), cfg, no_sync()).unwrap();
        assert_eq!(report.snapshot_leaves, 2, "the one leaf is cut into two pages");
        let mut got = Vec::new();
        back.scan_from(&pairs[0].0, usize::MAX, |k, v| got.push((*k, *v)));
        assert_eq!(got, pairs);
    }

    #[test]
    fn a_snapshot_with_nothing_logged_since_the_last_writes_no_file() {
        // The bulk load lives only in snap-0…0.pages; a snapshot at the
        // same LSN must not rewrite it.
        let dir = TempDir::new("durable-snap-same-lsn");
        let pairs: Vec<(u64, u64)> = (0..500).map(|k| (k * 2, k)).collect();
        let opts = WalOptions { group_commit_ops: 64, ..no_sync() };
        drop(DurableAlex::create(dir.path(), &pairs, config(), opts).unwrap());
        let (index, report) = DurableAlex::<u64, u64>::open(dir.path(), config(), opts).unwrap();
        assert_eq!(report.snapshot_lsn, 0);
        let path = crate::snapshot::snapshot_path(dir.path(), 0);
        let written = std::fs::metadata(&path).unwrap().modified().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(index.snapshot().unwrap(), 0);
        let now = std::fs::metadata(&path).unwrap().modified().unwrap();
        assert_eq!(now, written, "the snapshot file was rewritten");
        drop(index);
        let (back, _) = DurableAlex::<u64, u64>::open(dir.path(), config(), opts).unwrap();
        assert_eq!(back.len(), 500);
    }

    #[test]
    fn put_run_replay_upserts_over_older_values() {
        // A PutRun above the snapshot may re-apply pairs whose effects
        // a leaf already captured (the Lᵢ >= L window) — and a later
        // update can log a Put for a key an earlier PutRun carried.
        // Replay order must make the last record win.
        let dir = TempDir::new("durable-putrun-upsert");
        let idx = DurableAlex::create(dir.path(), &[], config(), no_sync()).unwrap();
        let batch: Vec<(u64, u64)> = (0..100).map(|k| (k, 1)).collect();
        assert_eq!(idx.bulk_insert(&batch).unwrap(), 100);
        for k in 0..50u64 {
            idx.update(&k, 2).unwrap();
        }
        idx.remove(&99).unwrap();
        drop(idx); // crash
        let (back, _) = DurableAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.len(), 99);
        assert_eq!(back.get(&10), Some(2), "post-run update must win over the PutRun");
        assert_eq!(back.get(&60), Some(1), "untouched run pair survives");
        assert_eq!(back.get(&99), None);
    }

    #[test]
    fn oversized_bulk_inserts_chunk_into_multiple_put_runs() {
        let dir = TempDir::new("durable-putrun-chunks");
        let idx = DurableAlex::create(dir.path(), &[], config(), no_sync()).unwrap();
        // A PutRun body is the LSN, the tag and the count (13 bytes),
        // then 16-byte pairs.
        let per_frame = (crate::record::MAX_FRAME_BODY - 13) / 16;
        let n = per_frame + 17;
        let batch: Vec<(u64, u64)> = (0..n as u64).map(|k| (k, k)).collect();
        assert_eq!(idx.bulk_insert(&batch).unwrap(), n);
        // Two PutRun frames: a full one and the remainder.
        assert_eq!(idx.wal_stats().appended, 2);
        drop(idx);
        let (back, report) = DurableAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.len(), n);
        assert_eq!(report.replayed, n);
        assert_eq!(back.get(&(n as u64 - 1)), Some(n as u64 - 1));
    }

    #[test]
    fn group_commit_loses_only_the_uncommitted_suffix() {
        let dir = TempDir::new("durable-group");
        let opts = WalOptions { group_commit_ops: 10, ..no_sync() };
        let index = DurableAlex::create(dir.path(), &[], config(), opts).unwrap();
        for k in 0..25u64 {
            index.insert(k, k * 7).unwrap();
        }
        // Key k sits at LSN k + 1, so the second group commit closes
        // at LSN 20 (key 19) and the 5 records above it sit in the
        // buffer and die with the process.
        let durable = index.committed_lsn();
        assert_eq!(durable, 20);
        drop(index);
        let (back, report) = DurableAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(report.last_lsn, durable);
        assert_eq!(back.len(), 20, "exactly the committed prefix survives");
        for k in 0..20u64 {
            assert_eq!(back.get(&k), Some(k * 7));
        }
        assert_eq!(back.get(&20), None);
    }

    #[test]
    fn wal_stats_expose_group_commit_batching() {
        let dir = TempDir::new("durable-stats");
        let opts = WalOptions { group_commit_ops: 8, ..no_sync() };
        let index = DurableAlex::create(dir.path(), &[], config(), opts).unwrap();
        for k in 0..64u64 {
            index.insert(k, k).unwrap();
        }
        let stats = index.wal_stats();
        assert_eq!(stats.appended, 64);
        assert_eq!(stats.commits, 8, "64 records at group size 8 = 8 write_alls");
        assert_eq!(stats.syncs, 0);
    }

    #[test]
    fn recovery_differential_against_snapshot_during_writes() {
        // A snapshot taken while writes continue must still recover
        // to the exact final state (the Lᵢ >= L replay argument).
        let dir = TempDir::new("durable-snap-race");
        let index = std::sync::Arc::new(
            DurableAlex::create(dir.path(), &[], config(), no_sync()).unwrap(),
        );
        // A snapshot with nothing logged since the last one writes
        // nothing, so the snapshots start only once writes have.
        let started = &std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let writer = std::sync::Arc::clone(&index);
            s.spawn(move || {
                for k in 0..3000u64 {
                    writer.insert(k, k).unwrap();
                    if k == 100 {
                        started.wait();
                    }
                }
            });
            started.wait();
            for _ in 0..3 {
                index.snapshot().unwrap();
            }
        });
        index.flush_wal().unwrap();
        let expect = index.len();
        drop(std::sync::Arc::try_unwrap(index).expect("writer thread joined"));
        let (back, report) = DurableAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.len(), expect);
        for k in (0..3000u64).step_by(37) {
            assert_eq!(back.get(&k), Some(k));
        }
        assert!(report.snapshot_lsn > 0, "at least one snapshot must have published");
    }

    #[test]
    fn snapshot_under_group_commit_never_restores_unlogged_effects() {
        // The writer inserts pair i as A_i (low key range) then B_i
        // (high key range) under a large group size, so applied-but-
        // uncommitted records pile up while a concurrent snapshot
        // serializes the low leaves before the high ones. Recovery
        // must land on an exact operation-sequence prefix, so B_i
        // present ⇒ A_i present (A_i always has the smaller LSN).
        // Before the post-serialization commit in `snapshot`, the
        // pages could capture a B_i whose record — and whose A_i
        // record — died in the buffer, restoring an interleaving no
        // prefix produces.
        let dir = TempDir::new("durable-snap-unlogged");
        let base: Vec<(u64, u64)> = (0..2000u64)
            .map(|k| (k * 2, 0))
            .chain((0..2000u64).map(|k| (1_000_000 + k * 2, 0)))
            .collect();
        let opts = WalOptions { group_commit_ops: 64, ..no_sync() };
        let index = std::sync::Arc::new(
            DurableAlex::create(dir.path(), &base, config(), opts).unwrap(),
        );
        let n = 1500u64;
        std::thread::scope(|s| {
            let writer = std::sync::Arc::clone(&index);
            s.spawn(move || {
                for i in 0..n {
                    writer.insert(i * 2 + 1, i).unwrap();
                    writer.insert(1_000_000 + i * 2 + 1, i).unwrap();
                }
            });
            for _ in 0..4 {
                index.snapshot().unwrap();
            }
        });
        drop(std::sync::Arc::try_unwrap(index).expect("writer joined")); // crash: no flush
        let (back, _) = DurableAlex::<u64, u64>::open(dir.path(), config(), opts).unwrap();
        let mut frontier_a = 0u64;
        let mut frontier_b = 0u64;
        for i in 0..n {
            if back.contains(&(i * 2 + 1)) {
                frontier_a = i + 1;
            }
            if back.contains(&(1_000_000 + i * 2 + 1)) {
                assert!(
                    back.contains(&(i * 2 + 1)),
                    "pair {i}: B_i recovered without its earlier-LSN A_i"
                );
                frontier_b = i + 1;
            }
        }
        // Prefix shape: both sides recover a contiguous range and A
        // leads B by at most the one in-flight pair.
        assert!(frontier_b <= frontier_a && frontier_a <= frontier_b + 1);
    }

    #[test]
    fn concurrent_snapshots_serialize_and_recover_exactly() {
        // Two snapshotters racing a writer: the snapshot mutex keeps
        // them from interleaving pages into one file or racing the
        // WAL GC, and recovery still sees every flushed write.
        let dir = TempDir::new("durable-snap-concurrent");
        let index = std::sync::Arc::new(
            DurableAlex::create(dir.path(), &[], config(), no_sync()).unwrap(),
        );
        // A snapshot with nothing logged since the last one writes
        // nothing, so the snapshotters start only once writes have.
        let started = &std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let writer = std::sync::Arc::clone(&index);
            s.spawn(move || {
                for k in 0..2000u64 {
                    writer.insert(k, k * 3).unwrap();
                    if k == 100 {
                        started.wait();
                    }
                }
            });
            for _ in 0..2 {
                let snapper = std::sync::Arc::clone(&index);
                s.spawn(move || {
                    started.wait();
                    for _ in 0..3 {
                        snapper.snapshot().unwrap();
                    }
                });
            }
        });
        index.flush_wal().unwrap();
        let expect = index.len();
        drop(std::sync::Arc::try_unwrap(index).expect("threads joined"));
        let (back, report) = DurableAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.len(), expect);
        for k in (0..2000u64).step_by(41) {
            assert_eq!(back.get(&k), Some(k * 3));
        }
        assert!(report.snapshot_lsn > 0, "a published snapshot must be restorable");
    }

    #[test]
    fn f64_keys_round_trip_through_recovery() {
        let dir = TempDir::new("durable-f64");
        let pairs: Vec<(f64, u64)> = (0..200).map(|k| (k as f64 * 0.5, k)).collect();
        let index = DurableAlex::create(dir.path(), &pairs, config(), no_sync()).unwrap();
        index.insert(1000.25, 9999).unwrap();
        drop(index);
        let (back, _) = DurableAlex::<f64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.len(), 201);
        assert_eq!(back.get(&42.5), Some(85));
        assert_eq!(back.get(&1000.25), Some(9999));
    }
}
