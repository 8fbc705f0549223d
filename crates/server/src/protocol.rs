//! The typed requests a [`Client`](crate::server::Client) submits and
//! the responses it waits for.
//!
//! Requests travel to the shard workers as these values through
//! in-process queues; nothing is serialized.

use alex_core::InsertError;

/// One client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<K, V> {
    /// Point lookup; answered by [`Response::Value`].
    Get { key: K },
    /// Point insert; answered by [`Response::Inserted`] (`false` if
    /// the key already existed — inserts never overwrite).
    Insert { key: K, value: V },
    /// Point delete; answered by [`Response::Removed`].
    Remove { key: K },
    /// Ordered scan of up to `limit` pairs from `start`; answered by
    /// [`Response::Entries`].
    Scan { start: K, limit: u32 },
    /// Batched lookups, **sorted ascending by key**; answered by
    /// [`Response::Values`] in the same order.
    BatchGet { keys: Vec<K> },
    /// Batched inserts, **sorted ascending by key**; answered by
    /// [`Response::InsertedCount`] (pairs that landed, i.e. whose key
    /// was absent).
    BatchInsert { pairs: Vec<(K, V)> },
}

/// The server's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response<K, V> {
    Value(Option<V>),
    Inserted(bool),
    Removed(Option<V>),
    Entries(Vec<(K, V)>),
    Values(Vec<Option<V>>),
    InsertedCount(u64),
    /// The request was refused without applying anything, for the
    /// reason the index gave ([`InsertError::UnsupportedKey`] for a
    /// reserved key or a NaN). Write requests naming such a key answer
    /// with this instead of panicking the worker or silently dropping
    /// the op.
    Rejected(InsertError),
}
