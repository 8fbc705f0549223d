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
use alex_sharded::{DurableShardedAlex, ShardedAlex};
use alex_wal::{DurableKey, WalCodec};

/// Key bound for everything in this crate: the index's key contract
/// plus thread-safety. Blanket-implemented.
pub trait ServerKey: AlexKey + Send + Sync + 'static {}
impl<K: AlexKey + Send + Sync + 'static> ServerKey for K {}

/// Value bound: a cloneable, thread-safe payload. Blanket-implemented.
pub trait ServerValue: Clone + Default + Send + Sync + 'static {}
impl<V: Clone + Default + Send + Sync + 'static> ServerValue for V {}

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

/// The durable backend also needs the WAL's byte form of its keys and
/// values.
impl<K: ServerKey + DurableKey, V: ServerValue + WalCodec> ServeBackend<K, V>
    for DurableShardedAlex<K, V>
{
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
