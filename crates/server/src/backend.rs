//! The storage abstraction workers execute against.
//!
//! [`ServeBackend`] is the narrow waist between the worker pool and
//! the index: the in-memory [`ShardedAlex`] and the WAL-backed
//! [`DurableShardedAlex`] both implement it, so the whole serving
//! stack — queues, batching, the load generator, the differential
//! tests — is written once.
//!
//! Durable-backend I/O errors surface as panics: the serving tier has
//! no story for a half-applied batch whose WAL append failed, so
//! failing loudly (and poisoning the worker) beats silently dropping
//! acknowledged writes.

use alex_core::{AlexKey, InsertError};
use alex_sharded::{DurableShardedAlex, RebalanceReport, ShardedAlex};
use alex_wal::WalCodec;

/// Key bound for everything in this crate: the index's key contract
/// plus the wire codec and thread-safety. Blanket-implemented.
pub trait ServerKey: AlexKey + WalCodec + Send + Sync + 'static {}
impl<K: AlexKey + WalCodec + Send + Sync + 'static> ServerKey for K {}

/// Value bound: cloneable payload with a wire form. Blanket-implemented.
pub trait ServerValue: Clone + Default + WalCodec + Send + Sync + 'static {}
impl<V: Clone + Default + WalCodec + Send + Sync + 'static> ServerValue for V {}

/// What a worker needs from the index it owns a key-range of.
///
/// `insert` and `bulk_insert` have first-writer-wins semantics: an
/// existing key is left alone and reported as
/// [`InsertError::DuplicateKey`]; a reserved key (the type's sentinel)
/// is refused with [`InsertError::UnsupportedKey`], and a sorted batch
/// containing one is refused whole. `bulk_insert` requires its run
/// sorted ascending and returns how many pairs landed.
pub trait ServeBackend<K: ServerKey, V: ServerValue>: Send + Sync + 'static {
    /// Shard boundaries (length `num_shards - 1`), the routing table
    /// workers and clients share.
    fn boundaries(&self) -> &[K];
    fn get(&self, key: &K) -> Option<V>;
    /// Batched lookup of a **sorted** key run.
    fn get_many(&self, keys: &[K]) -> Vec<Option<V>>;
    fn insert(&self, key: K, value: V) -> Result<(), InsertError>;
    /// Batched insert of a **sorted** pair run; returns pairs landed.
    fn bulk_insert(&self, pairs: &[(K, V)]) -> Result<usize, InsertError>;
    fn remove(&self, key: &K) -> Option<V>;
    fn scan_from(&self, key: &K, limit: usize, f: &mut dyn FnMut(&K, &V)) -> usize;
    /// Make everything acknowledged durable (no-op for the in-memory
    /// backend). Called once, after the workers drain, during
    /// graceful shutdown.
    fn flush(&self) {}

    /// Re-cut shard boundaries from observed read skew, given
    /// exclusive ownership during a maintenance window (the worker
    /// pool is drained and joined before this runs — see
    /// [`Server::rebalance`](crate::server::Server::rebalance)).
    ///
    /// Returns `None` when the backend declines — no skew worth
    /// moving for, or boundaries that cannot move at all. The default
    /// declines unconditionally: notably [`DurableShardedAlex`] keeps
    /// it, because its boundary set is pinned by the on-disk `SHARDS`
    /// file at creation time and per-shard WALs cannot migrate keys
    /// across shard directories.
    fn rebalance(&mut self) -> Option<RebalanceReport> {
        None
    }
}

impl<K: ServerKey, V: ServerValue> ServeBackend<K, V> for ShardedAlex<K, V> {
    fn boundaries(&self) -> &[K] {
        ShardedAlex::boundaries(self)
    }

    fn get(&self, key: &K) -> Option<V> {
        ShardedAlex::get(self, key)
    }

    fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        ShardedAlex::get_many(self, keys)
    }

    fn insert(&self, key: K, value: V) -> Result<(), InsertError> {
        ShardedAlex::insert(self, key, value)
    }

    fn bulk_insert(&self, pairs: &[(K, V)]) -> Result<usize, InsertError> {
        ShardedAlex::bulk_insert(self, pairs)
    }

    fn remove(&self, key: &K) -> Option<V> {
        ShardedAlex::remove(self, key)
    }

    fn scan_from(&self, key: &K, limit: usize, f: &mut dyn FnMut(&K, &V)) -> usize {
        ShardedAlex::scan_from(self, key, limit, f)
    }

    fn rebalance(&mut self) -> Option<RebalanceReport> {
        let plan = self.rebalance_plan()?;
        Some(self.apply_rebalance(&plan))
    }
}

/// The durable stack surfaces a refused sentinel as
/// `io::ErrorKind::InvalidInput` (rejected *before* anything hits
/// the log); anything else is a real WAL I/O failure, which the
/// serving tier has no story for — panic, per the module contract.
fn classify(e: std::io::Error) -> InsertError {
    if e.kind() == std::io::ErrorKind::InvalidInput {
        InsertError::UnsupportedKey
    } else {
        panic!("WAL append failed: {e}")
    }
}

impl<K: ServerKey, V: ServerValue> ServeBackend<K, V> for DurableShardedAlex<K, V> {
    fn boundaries(&self) -> &[K] {
        DurableShardedAlex::boundaries(self)
    }

    fn get(&self, key: &K) -> Option<V> {
        DurableShardedAlex::get(self, key)
    }

    fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        DurableShardedAlex::get_many(self, keys)
    }

    fn insert(&self, key: K, value: V) -> Result<(), InsertError> {
        match DurableShardedAlex::insert(self, key, value) {
            Ok(true) => Ok(()),
            Ok(false) => Err(InsertError::DuplicateKey),
            Err(e) => Err(classify(e)),
        }
    }

    fn bulk_insert(&self, pairs: &[(K, V)]) -> Result<usize, InsertError> {
        DurableShardedAlex::bulk_insert(self, pairs).map_err(classify)
    }

    fn remove(&self, key: &K) -> Option<V> {
        DurableShardedAlex::remove(self, key).expect("WAL append failed")
    }

    fn scan_from(&self, key: &K, limit: usize, f: &mut dyn FnMut(&K, &V)) -> usize {
        DurableShardedAlex::scan_from(self, key, limit, f)
    }

    fn flush(&self) {
        DurableShardedAlex::flush_all(self).expect("WAL flush failed");
    }
}
