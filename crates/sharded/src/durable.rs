//! One log per shard: [`DurableShardedAlex`].
//!
//! Each shard is a full [`DurableAlex`] in its own subdirectory
//! (`shard-0000`, `shard-0001`, …) with its own WAL, snapshots, and
//! manifest — so commits on different shards never contend, crash
//! recovery is per-shard (a torn tail in one shard's log cannot touch
//! another's), and snapshots can be staggered. The only shared state
//! is the boundary vector, persisted once at `create` into a
//! CRC-guarded `SHARDS` file: boundaries are immutable for the life
//! of the store, exactly as in the in-memory [`ShardedAlex`], so the
//! file is written once and only ever read back. It is written
//! *after* every shard directory exists — the tmp+rename of `SHARDS`
//! is create's commit point, so a crash mid-create yields a
//! directory [`DurableShardedAlex::open`] refuses rather than one it
//! would silently treat as partially empty.
//!
//! Cross-shard consistency matches the in-memory type's contract:
//! per-key operations are atomic and durable per their shard's group
//! commit; there are no cross-shard transactions. A crash may
//! therefore recover different shards to different LSN frontiers —
//! each one an exact prefix of its own operation sequence.
//!
//! [`ShardedAlex`]: crate::ShardedAlex

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use alex_core::AlexConfig;
use alex_wal::record::Lsn;
use alex_wal::{crc32, DurableAlex, DurableKey, RecoveryReport, WalCodec, WalOptions};

use crate::{route_key, sample_cdf_boundaries, split_sorted_runs};

const SHARDS_MAGIC: &[u8; 8] = b"ALEXSHRD";

/// A range-partitioned set of [`DurableAlex`] shards, one WAL per
/// shard. See the module docs for the layout and consistency
/// contract.
#[derive(Debug)]
pub struct DurableShardedAlex<K, V> {
    shards: Vec<DurableAlex<K, V>>,
    boundaries: Vec<K>,
}

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
    // Make the rename durable where the platform allows opening a
    // directory (best-effort elsewhere) — it is create's commit point.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
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
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "create input must be strictly increasing"
        );
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if dir.join("SHARDS").exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "directory already holds a durable sharded index",
            ));
        }
        let boundaries = sample_cdf_boundaries(pairs, num_shards);
        let mut shards = Vec::with_capacity(boundaries.len() + 1);
        let mut rest = pairs;
        for (i, bound) in boundaries.iter().enumerate() {
            let cut = rest.partition_point(|(k, _)| k < bound);
            let (run, tail) = rest.split_at(cut);
            shards.push(DurableAlex::create(shard_dir(&dir, i), run, config, opts)?);
            rest = tail;
        }
        shards.push(DurableAlex::create(
            shard_dir(&dir, boundaries.len()),
            rest,
            config,
            opts,
        )?);
        // SHARDS is the commit point, so it goes last: a crash
        // mid-create leaves a directory `open` refuses (NotFound)
        // instead of one it would silently recover with the missing
        // shards empty.
        write_boundaries(&dir, &boundaries)?;
        Ok(Self { shards, boundaries })
    }

    /// Recover every shard in `dir`. Returns one [`RecoveryReport`]
    /// per shard, in shard order.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: AlexConfig,
        opts: WalOptions,
    ) -> io::Result<(Self, Vec<RecoveryReport>)> {
        let dir = dir.into();
        let boundaries: Vec<K> = read_boundaries(&dir)?;
        let mut shards = Vec::with_capacity(boundaries.len() + 1);
        let mut reports = Vec::with_capacity(boundaries.len() + 1);
        for i in 0..=boundaries.len() {
            let (shard, report) = DurableAlex::open(shard_dir(&dir, i), config, opts)?;
            shards.push(shard);
            reports.push(report);
        }
        Ok((Self { shards, boundaries }, reports))
    }

    /// Which shard owns `key` (same arithmetic as the in-memory
    /// type: shard `i + 1` owns keys `>= boundaries[i]`).
    #[inline]
    fn shard_for(&self, key: &K) -> usize {
        route_key(&self.boundaries, key)
    }

    /// Point lookup (lock-free within the owning shard).
    pub fn get(&self, key: &K) -> Option<V> {
        self.shards[self.shard_for(key)].get(key)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.shards[self.shard_for(key)].contains(key)
    }

    /// Logged insert into the owning shard. `Ok(false)` = duplicate.
    pub fn insert(&self, key: K, value: V) -> io::Result<bool> {
        self.shards[self.shard_for(&key)].insert(key, value)
    }

    /// Logged insert-or-replace in the owning shard.
    pub fn upsert(&self, key: K, value: V) -> io::Result<Option<V>> {
        self.shards[self.shard_for(&key)].upsert(key, value)
    }

    /// Logged payload replacement in the owning shard.
    pub fn update(&self, key: &K, value: V) -> io::Result<Option<V>> {
        self.shards[self.shard_for(key)].update(key, value)
    }

    /// Logged removal from the owning shard.
    pub fn remove(&self, key: &K) -> io::Result<Option<V>> {
        self.shards[self.shard_for(key)].remove(key)
    }

    /// Sorted-batch lookup: keys split into per-shard runs, each served
    /// by the owning shard's lock-free `get_many` (mirrors
    /// [`ShardedAlex::get_many`]).
    ///
    /// [`ShardedAlex::get_many`]: crate::ShardedAlex::get_many
    ///
    /// # Panics
    /// Panics (debug builds) if `keys` is not sorted non-decreasing,
    /// apart from NaN keys, which may sit anywhere and answer `None`.
    pub fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        debug_assert!(alex_core::is_sorted_ignoring_nan(keys), "get_many input must be sorted");
        let mut out = Vec::with_capacity(keys.len());
        split_sorted_runs(&self.boundaries, keys, |k| k, |shard, run| {
            out.extend(self.shards[shard].index().get_many(run));
        });
        out
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

    /// Visit up to `limit` entries with key `>= key` in order, crossing
    /// shard boundaries one shard at a time (same relaxation as
    /// [`ShardedAlex::scan_from`]). Returns the number visited.
    ///
    /// [`ShardedAlex::scan_from`]: crate::ShardedAlex::scan_from
    pub fn scan_from(&self, key: &K, limit: usize, mut f: impl FnMut(&K, &V)) -> usize {
        let mut visited = 0usize;
        for shard in self.shard_for(key)..self.shards.len() {
            if visited >= limit {
                break;
            }
            visited += self.shards[shard].scan_from(key, limit - visited, &mut f);
        }
        visited
    }

    /// Total entries across shards. Like the in-memory type, summed
    /// per shard without a global lock.
    pub fn len(&self) -> usize {
        self.shards.iter().map(DurableAlex::len).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
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

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard boundaries (shard `i + 1` owns keys `>= boundaries[i]`).
    pub fn boundaries(&self) -> &[K] {
        &self.boundaries
    }

    /// Direct access to one shard, e.g. for per-shard stats or
    /// staggered snapshot scheduling.
    pub fn shard(&self, i: usize) -> &DurableAlex<K, V> {
        &self.shards[i]
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
        index.snapshot_all().unwrap();
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
        assert!(reports.iter().all(|r| r.snapshot_lsn > 0));
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
    fn create_refuses_an_initialized_directory() {
        let dir = TempDir::new("sharded-dirty");
        let pairs: Vec<(u64, u64)> = (0..100).map(|k| (k, k)).collect();
        DurableShardedAlex::create(dir.path(), &pairs, 2, config(), no_sync()).unwrap();
        let err =
            DurableShardedAlex::create(dir.path(), &pairs, 2, config(), no_sync()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }
}
