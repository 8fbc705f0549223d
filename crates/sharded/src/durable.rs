//! One log per shard: [`DurableShardedAlex`], the [`Sharded`] index
//! whose shards are [`DurableAlex`] indexes.
//!
//! Reads, routing and stats are the shared [`Sharded`] methods, which
//! go through each shard's [`EpochAlex`](alex_core::EpochAlex); this
//! module holds what durability adds: the on-disk layout, `create`
//! and `open`, the logged writes and the durability controls.
//!
//! Each shard is a full [`DurableAlex`] in its own subdirectory
//! (`shard-0000`, `shard-0001`, …) with its own WAL and snapshots — so
//! commits on different shards never contend, crash recovery is
//! per-shard (a torn tail in one shard's log cannot touch another's),
//! and snapshots can be staggered. The only shared state
//! is the boundary vector, persisted once at `create` into a
//! CRC-guarded `SHARDS` file: a durable store's boundaries are fixed
//! for its life, so the file is written once and only ever read back.
//! It is written *after* every shard directory exists — the
//! tmp+rename of `SHARDS` is create's commit point, so a crash
//! mid-create yields a directory [`DurableShardedAlex::open`] refuses
//! rather than one it would silently treat as partially empty. For
//! the same reason `open` refuses a store whose shard directory is
//! gone instead of recovering that shard empty.
//!
//! Cross-shard consistency matches the in-memory type's contract:
//! per-key operations are atomic and durable per their shard's group
//! commit; there are no cross-shard transactions. A crash may
//! therefore recover different shards to different LSN frontiers —
//! each one an exact prefix of its own operation sequence.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use alex_core::AlexConfig;
use alex_wal::record::Lsn;
use alex_wal::{crc32, DurableAlex, DurableKey, RecoveryReport, WalCodec, WalOptions};

use crate::{sample_cdf_boundaries, shard_runs, split_sorted_runs, Sharded};

const SHARDS_MAGIC: &[u8; 8] = b"ALEXSHRD";

/// Range-partitioned [`DurableAlex`] shards, one WAL per shard. See
/// the module docs for the layout and consistency contract.
pub type DurableShardedAlex<K, V> = Sharded<K, DurableAlex<K, V>>;

fn shard_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i:04}"))
}

fn write_boundaries<K: WalCodec>(dir: &Path, boundaries: &[K]) -> io::Result<()> {
    let mut body = Vec::with_capacity(16 + boundaries.len() * 8);
    body.extend_from_slice(SHARDS_MAGIC);
    body.extend_from_slice(&(boundaries.len() as u32).to_le_bytes());
    for b in boundaries {
        b.encode_into(&mut body);
    }
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    let tmp = dir.join("SHARDS.tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&body)?;
        file.sync_data()?;
    }
    fs::rename(tmp, dir.join("SHARDS"))?;
    // The rename is create's commit point: make it durable.
    alex_wal::log::sync_dir(dir)
}

fn read_boundaries<K: WalCodec>(dir: &Path) -> io::Result<Vec<K>> {
    let bytes = fs::read(dir.join("SHARDS"))?;
    let corrupt = || io::Error::new(io::ErrorKind::InvalidData, "corrupt SHARDS file");
    if bytes.len() < 16 || &bytes[..8] != SHARDS_MAGIC {
        return Err(corrupt());
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != crc {
        return Err(corrupt());
    }
    let count = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")) as usize;
    let mut cursor = &body[12..];
    let mut boundaries = Vec::with_capacity(count);
    for _ in 0..count {
        boundaries.push(K::decode_from(&mut cursor).ok_or_else(corrupt)?);
    }
    if !cursor.is_empty() {
        return Err(corrupt());
    }
    Ok(boundaries)
}

impl<K, V> DurableShardedAlex<K, V>
where
    K: DurableKey,
    V: Clone + Default + WalCodec,
{
    /// Initialize a new durable sharded index in `dir` from sorted,
    /// strictly-increasing pairs: boundaries are sampled from the
    /// key CDF (like [`ShardedAlex::bulk_load`]), persisted to
    /// `SHARDS`, and each shard's slice becomes a [`DurableAlex`]
    /// (whose `create` snapshots the load immediately).
    ///
    /// [`ShardedAlex::bulk_load`]: crate::ShardedAlex::bulk_load
    ///
    /// # Panics
    /// Panics if `num_shards == 0`, or (debug builds) if `pairs` is
    /// not strictly increasing by key.
    pub fn create(
        dir: impl Into<PathBuf>,
        pairs: &[(K, V)],
        num_shards: usize,
        config: AlexConfig,
        opts: WalOptions,
    ) -> io::Result<Self> {
        assert!(num_shards > 0, "need at least one shard");
        let boundaries = sample_cdf_boundaries(pairs, num_shards);
        let runs = shard_runs(pairs, &boundaries);
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if dir.join("SHARDS").exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "directory already holds a durable sharded index",
            ));
        }
        let shards = runs
            .into_iter()
            .enumerate()
            .map(|(i, run)| DurableAlex::create(shard_dir(&dir, i), run, config, opts))
            .collect::<io::Result<_>>()?;
        // SHARDS is the commit point, so it goes last: a crash
        // mid-create leaves a directory `open` refuses (NotFound)
        // instead of one it would silently recover with the missing
        // shards empty.
        write_boundaries(&dir, &boundaries)?;
        Ok(Self { shards, boundaries })
    }

    /// Recover every shard in `dir`. Returns one [`RecoveryReport`]
    /// per shard, in shard order.
    ///
    /// Fails with [`io::ErrorKind::NotFound`] when `SHARDS` or any
    /// shard directory is missing, before any shard is opened:
    /// [`DurableAlex::open`] recovers a missing directory as an empty
    /// index, which would silently drop that shard's keys.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: AlexConfig,
        opts: WalOptions,
    ) -> io::Result<(Self, Vec<RecoveryReport>)> {
        let dir = dir.into();
        let boundaries: Vec<K> = read_boundaries(&dir)?;
        let dirs: Vec<PathBuf> = (0..=boundaries.len()).map(|i| shard_dir(&dir, i)).collect();
        if let Some(missing) = dirs.iter().find(|d| !d.is_dir()) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("shard directory {} is missing", missing.display()),
            ));
        }
        let mut shards = Vec::with_capacity(dirs.len());
        let mut reports = Vec::with_capacity(dirs.len());
        for path in dirs {
            let (shard, report) = DurableAlex::open(path, config, opts)?;
            shards.push(shard);
            reports.push(report);
        }
        Ok((Self { shards, boundaries }, reports))
    }

    /// Logged insert into the owning shard. `Ok(false)` = duplicate.
    pub fn insert(&self, key: K, value: V) -> io::Result<bool> {
        self.shard_for(&key).insert(key, value)
    }

    /// Logged payload replacement in the owning shard.
    pub fn update(&self, key: &K, value: V) -> io::Result<Option<V>> {
        self.shard_for(key).update(key, value)
    }

    /// Logged removal from the owning shard.
    pub fn remove(&self, key: &K) -> io::Result<Option<V>> {
        self.shard_for(key).remove(key)
    }

    /// Sorted-batch insert: pairs split into per-shard runs, each
    /// logged and applied by the owning shard's [`DurableAlex::bulk_insert`]
    /// (one `PutRun`-batched group commit per shard touched). Returns
    /// the number of pairs that landed (duplicates skipped).
    ///
    /// # Panics
    /// Panics (debug builds) if `pairs` is not sorted by key.
    pub fn bulk_insert(&self, pairs: &[(K, V)]) -> io::Result<usize> {
        // Refuse a batch with a sentinel or NaN anywhere before
        // splitting it: per-shard refusal alone would leave the runs
        // of the shards before the refusing one logged and applied.
        alex_core::check_batch_keys(pairs)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_insert input must be sorted by key"
        );
        let mut inserted = 0usize;
        let mut err: Option<io::Error> = None;
        split_sorted_runs(&self.boundaries, pairs, |(k, _)| k, |shard, run| {
            if err.is_none() {
                match self.shards[shard].bulk_insert(run) {
                    Ok(n) => inserted += n,
                    Err(e) => err = Some(e),
                }
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(inserted),
        }
    }

    /// Commit every shard's buffered records now.
    pub fn flush_all(&self) -> io::Result<Vec<Lsn>> {
        self.shards.iter().map(DurableAlex::flush_wal).collect()
    }

    /// Snapshot every shard (sequentially; each shard's writers keep
    /// running per [`DurableAlex::snapshot`]). Returns each shard's
    /// snapshot LSN.
    pub fn snapshot_all(&self) -> io::Result<Vec<Lsn>> {
        self.shards.iter().map(DurableAlex::snapshot).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_wal::tempdir::TempDir;
    use alex_wal::SyncPolicy;

    fn no_sync() -> WalOptions {
        WalOptions { sync: SyncPolicy::Never, ..WalOptions::default() }
    }

    fn config() -> AlexConfig {
        AlexConfig::ga_armi().with_max_node_keys(256).with_splitting()
    }

    #[test]
    fn sharded_create_write_crash_open_round_trips() {
        let dir = TempDir::new("sharded-roundtrip");
        let pairs: Vec<(u64, u64)> = (0..4000).map(|k| (k * 2, k)).collect();
        let index = DurableShardedAlex::create(dir.path(), &pairs, 4, config(), no_sync()).unwrap();
        assert_eq!(index.num_shards(), 4);
        // Odd keys spread over the whole keyspace, so every shard
        // sees writes.
        for k in 0..300u64 {
            index.insert(k * 26 + 1, k).unwrap();
        }
        index.remove(&0).unwrap();
        assert_eq!(index.update(&2, 999).unwrap(), Some(1));
        drop(index); // crash
        let (back, reports) =
            DurableShardedAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(back.len(), 4000 + 300 - 1);
        assert_eq!(back.get(&0), None);
        assert_eq!(back.get(&2), Some(999));
        assert_eq!(back.get(&2000), Some(1000), "bulk-loaded key via the initial snapshot");
        for k in (0..300u64).step_by(17) {
            assert_eq!(back.get(&(k * 26 + 1)), Some(k), "inserted key {k}");
        }
        // Writes routed to distinct shards leave distinct logs:
        // recovery work is spread, not centralized.
        assert!(
            reports.iter().filter(|r| r.replayed > 0).count() > 1,
            "writes spread across shards must replay per shard: {reports:?}"
        );
    }

    #[test]
    fn per_shard_snapshots_bound_per_shard_replay() {
        let dir = TempDir::new("sharded-snap");
        let pairs: Vec<(u64, u64)> = (0..2000).map(|k| (k * 2, k)).collect();
        let index = DurableShardedAlex::create(dir.path(), &pairs, 4, config(), no_sync()).unwrap();
        for k in 0..200u64 {
            index.insert(k * 2 + 1, k).unwrap(); // lands in low shards
        }
        // Only shard 0 logged anything; the others keep the snapshot
        // `create` took at LSN 0.
        let snap_lsns = index.snapshot_all().unwrap();
        assert_eq!(snap_lsns, vec![200, 0, 0, 0]);
        // Tail after the snapshots: a handful of high-key writes.
        for k in 3000..3020u64 {
            index.insert(k * 2 + 1, k).unwrap();
        }
        drop(index);
        let (back, reports) =
            DurableShardedAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.len(), 2000 + 200 + 20);
        let replayed: usize = reports.iter().map(|r| r.replayed).sum();
        assert_eq!(replayed, 20, "snapshots must absorb everything before them");
        let restored: Vec<Lsn> = reports.iter().map(|r| r.snapshot_lsn).collect();
        assert_eq!(restored, snap_lsns, "each shard restores its newest snapshot");
    }

    #[test]
    fn batch_ops_span_shards_and_survive_recovery() {
        let dir = TempDir::new("sharded-batch");
        let pairs: Vec<(u64, u64)> = (0..4000).map(|k| (k * 4, k)).collect();
        let index = DurableShardedAlex::create(dir.path(), &pairs, 4, config(), no_sync()).unwrap();
        // A spanning sorted batch; every shard sees part of it.
        let fresh: Vec<(u64, u64)> = (0..2000u64).map(|k| (k * 8 + 1, k)).collect();
        assert_eq!(index.bulk_insert(&fresh).unwrap(), 2000);
        assert_eq!(index.bulk_insert(&fresh).unwrap(), 0, "second pass is all duplicates");
        let queries: Vec<u64> = (0..2000u64).map(|k| k * 8 + 1).collect();
        assert!(index.get_many(&queries).iter().all(Option::is_some));
        let mut seen = Vec::new();
        let visited = index.scan_from(&0, 100, |k, _| seen.push(*k));
        assert_eq!(visited, 100);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "scan stays sorted across shards");
        drop(index); // crash
        let (back, _) = DurableShardedAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.len(), 4000 + 2000);
        assert!(back.get_many(&queries).iter().all(Option::is_some), "batch survives recovery");
    }

    #[test]
    fn boundaries_survive_reopen_and_corruption_is_rejected() {
        let dir = TempDir::new("sharded-bounds");
        let pairs: Vec<(u64, u64)> = (0..1000).map(|k| (k * 3, k)).collect();
        let index = DurableShardedAlex::create(dir.path(), &pairs, 3, config(), no_sync()).unwrap();
        let bounds = index.boundaries().to_vec();
        drop(index);
        let (back, _) = DurableShardedAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap();
        assert_eq!(back.boundaries(), &bounds[..]);
        drop(back);
        let shards_file = dir.path().join("SHARDS");
        let mut bytes = std::fs::read(&shards_file).unwrap();
        bytes[10] ^= 0x04;
        std::fs::write(&shards_file, &bytes).unwrap();
        let err = DurableShardedAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn half_created_store_fails_open_instead_of_losing_shards() {
        // A crash mid-create leaves shard directories but no SHARDS
        // file (it is written last, as the commit point). Open must
        // refuse with NotFound — not read stale boundaries and
        // silently recover missing shards as empty.
        let dir = TempDir::new("sharded-half-created");
        let pairs: Vec<(u64, u64)> = (0..500).map(|k| (k * 2, k)).collect();
        let index = DurableShardedAlex::create(dir.path(), &pairs, 3, config(), no_sync()).unwrap();
        drop(index);
        std::fs::remove_file(dir.path().join("SHARDS")).unwrap();
        let err = DurableShardedAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn a_missing_shard_directory_fails_open_instead_of_recovering_empty() {
        // `DurableAlex::open` recovers a missing directory as an empty
        // index, so a lost shard directory must fail the whole open,
        // on every attempt, rather than drop that shard's keys.
        let dir = TempDir::new("sharded-missing-shard");
        let pairs: Vec<(u64, u64)> = (0..3000).map(|k| (k * 2, k)).collect();
        let index = DurableShardedAlex::create(dir.path(), &pairs, 3, config(), no_sync()).unwrap();
        assert_eq!(index.num_shards(), 3);
        drop(index);
        let lost = dir.path().join("shard-0001");
        std::fs::remove_dir_all(&lost).unwrap();
        for _ in 0..2 {
            let err =
                DurableShardedAlex::<u64, u64>::open(dir.path(), config(), no_sync()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::NotFound);
            assert!(err.to_string().contains("shard-0001"), "error names the shard: {err}");
            assert!(!lost.exists(), "a failed open must not recreate the shard directory");
        }
    }

    #[test]
    fn create_refuses_an_initialized_directory() {
        let dir = TempDir::new("sharded-dirty");
        let pairs: Vec<(u64, u64)> = (0..100).map(|k| (k, k)).collect();
        DurableShardedAlex::create(dir.path(), &pairs, 2, config(), no_sync()).unwrap();
        let err =
            DurableShardedAlex::create(dir.path(), &pairs, 2, config(), no_sync()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }
}
