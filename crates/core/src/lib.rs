//! # ALEX: An Updatable Adaptive Learned Index
//!
//! A from-scratch Rust implementation of Ding et al., *ALEX: An
//! Updatable Adaptive Learned Index* (SIGMOD 2020). ALEX is an
//! in-memory, updatable learned range index: a recursive model index
//! (RMI) of linear regression models routes each key — by arithmetic
//! alone, no comparisons — to a leaf *data node* that stores keys in a
//! gapped array, places them where the model predicts (*model-based
//! inserts*), and finds them again with exponential search from the
//! predicted slot.
//!
//! The two design dimensions of §3 are both implemented:
//!
//! - **Flexible node layout** (§3.3): one [`DataNode`] type in either
//!   layout, [`config::NodeLayout::Gapped`] (Gapped Array — fastest
//!   lookups) or [`config::NodeLayout::Pma`] (Packed Memory Array —
//!   bounded worst-case inserts). The layouts share the model,
//!   model-based placement and search, and differ only in how an
//!   insert makes room.
//! - **Static vs. adaptive RMI** (§3.4): [`config::RmiMode::Static`]
//!   (two levels, fixed leaf count) or [`config::RmiMode::Adaptive`]
//!   (Algorithm 4 initialization, optional node splitting on inserts).
//!
//! yielding the paper's four variants: ALEX-GA-SRMI, ALEX-GA-ARMI,
//! ALEX-PMA-SRMI, ALEX-PMA-ARMI ([`AlexConfig`] has a constructor for
//! each).
//!
//! ## Quickstart
//! ```
//! use alex_core::{AlexConfig, AlexIndex};
//!
//! // Bulk-load sorted (key, payload) pairs.
//! let data: Vec<(f64, u64)> = (0..1000).map(|i| (i as f64 * 0.5, i)).collect();
//! let mut index = AlexIndex::bulk_load(&data, AlexConfig::ga_armi());
//!
//! assert_eq!(index.get(&250.0), Some(&500));
//! index.insert(250.25, 9999).unwrap();
//! assert_eq!(index.remove(&250.25), Some(9999));
//!
//! // Range scans skip gaps via the per-node bitmap.
//! let first_five: Vec<u64> = index.range_from(&0.0, 5).map(|(_, v)| *v).collect();
//! assert_eq!(first_five, vec![0, 1, 2, 3, 4]);
//! ```
//!
//! ## Access regimes and store types
//!
//! [`AlexIndex`] is generic over its node store,
//! `AlexIndex<K, V, S = Dense<K, V>>`, and the store type names the
//! access regime. There is no configuration field for it:
//!
//! - [`Dense`](index::Dense), the default, under every
//!   `AlexIndex<K, V>`: nodes live in a plain `Vec`, node ids are
//!   direct indices, and every mutation goes through `&mut self`. No
//!   atomics on the read path, no epoch bookkeeping — the fastest
//!   single-threaded layout, for the *exclusive* regime where one
//!   owner holds the index. Every public constructor builds here.
//! - [`Epoch`](index::Epoch), under every [`EpochAlex`] and only
//!   there: nodes live behind per-slot atomic pointers with
//!   epoch-based reclamation, so the structure can serve lock-free
//!   readers while a serialized writer publishes copy-on-write
//!   updates — the *shared* regime.
//!
//! The read path (descent, `get`, `get_many`, `scan_from`, the size
//! and stats reads) is written once over the sealed
//! [`NodeStore`](index::NodeStore) trait. Bulk load, the `&mut`
//! writes and the borrowing iterators exist on the dense index only,
//! and the epoch pin, publication and reclamation on the epoch store
//! only, so a shared-regime call on a dense index does not compile.
//!
//! The bridge: [`EpochAlex::from_index`] moves an index's nodes into
//! epoch slots, and [`EpochAlex::into_inner`] moves them back to a
//! dense store and flushes every pending delta. Both directions
//! preserve node ids, contents and statistics, so bulk-load dense and
//! convert only when concurrency starts. Shared-regime entry points
//! (`EpochAlex::new` / `bulk_load`, the sharded front-end, the
//! durability layer) all funnel through `from_index`.
//!
//! ## Crate layout
//! - [`index`] / [`AlexIndex`] — the public index.
//! - [`data_node`] — the leaf data node in both layouts;
//!   [`pma_layout`] — the PMA layout's window geometry and density
//!   bounds.
//! - [`model`], [`search`], [`bitmap`] — the primitives (linear models,
//!   exponential search, occupancy bitmaps).
//! - [`analysis`] — the direct-hit bounds of §4 (Theorems 1–3).
//! - `api_impl` — [`alex_api`] trait impls ([`alex_api::IndexRead`] /
//!   [`alex_api::IndexWrite`] / [`alex_api::BatchOps`]), the surface
//!   the workload drivers and conformance suite consume.
//! - [`stats`] — the instrumentation behind the paper's drilldown
//!   figures (prediction error, shifts per insert, sizes).

mod api_impl;

pub mod analysis;
pub mod bitmap;
pub mod config;
pub mod data_node;
// The one module in the workspace allowed to use `unsafe` (the
// workspace-wide lint is `unsafe_code = "deny"`): epoch-based
// reclamation needs raw-pointer publication and reclamation. Every
// `unsafe` block carries its own SAFETY comment, and the module docs
// state the crate-internal contract the rest of the code upholds.
#[allow(unsafe_code)]
pub mod epoch;
pub mod index;
pub mod iter;
pub mod key;
pub mod model;
pub mod pma_layout;
pub mod search;
pub mod stats;

mod slots;

pub use config::{AlexConfig, NodeLayout, NodeParams, Placement, RmiMode};
pub use data_node::{DataNode, InsertOutcome};
pub use index::{AlexIndex, EpochAlex, EpochStats, EpochWriteStats};
pub use iter::RangeIter;
pub use key::AlexKey;
pub use model::LinearModel;
pub use stats::{ReadStats, SizeReport, WriteStats};

// Re-export the key-model vocabulary so downstream crates can name
// the pluggable key types, write errors and the batch key check
// without a direct `alex_api` dependency edge in every use site.
pub use alex_api::{
    check_batch_keys, composite_projection, is_sorted_ignoring_nan, Composite, FixedStr,
    InsertError, SentinelKey,
};
