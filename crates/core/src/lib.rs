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
//! ## Access regimes and arena flavours
//!
//! The node store comes in two flavours, one per access regime. The
//! regime picks the flavour; there is no configuration field for it:
//!
//! - **Dense**, under every [`AlexIndex`]: nodes live in a plain
//!   `Vec`, node ids are direct indices, and every mutation goes
//!   through `&mut self`. No atomics on the read path, no epoch
//!   bookkeeping — the fastest single-threaded layout, for the
//!   *exclusive* regime where one owner holds the index.
//! - **Epoch**, under every [`EpochAlex`]: nodes live behind per-slot
//!   atomic pointers with epoch-based reclamation, so the structure
//!   can serve lock-free readers while a serialized writer publishes
//!   copy-on-write updates — the *shared* regime.
//!
//! The bridge contract: [`AlexIndex::into_concurrent`] (or
//! [`EpochAlex::from_index`]) moves an index's nodes into epoch slots,
//! preserving node ids; [`EpochAlex::into_inner`] hands back exclusive
//! ownership and always moves them back to the dense arena. Both
//! directions preserve ids, contents, and statistics, so bulk-load in
//! the cheap dense flavour and convert only when concurrency starts.
//! Shared-regime entry points (`EpochAlex::new` / `bulk_load`, the
//! sharded front-end, the durability layer) all funnel through this
//! conversion.
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

pub use config::{AlexConfig, DeltaBuffer, NodeLayout, NodeParams, Placement, RmiMode};
pub use data_node::{DataNode, InsertOutcome};
pub use index::{AlexIndex, EpochAlex, EpochStats, EpochWriteStats};
pub use iter::RangeIter;
pub use key::{ordered_bits, ordered_bits_inverse, AlexKey};
pub use model::{LinearModel, PrefixLsq};
pub use stats::{ReadStats, SizeReport, WriteStats};

// Re-export the key-model vocabulary so downstream crates can name
// the pluggable key types and write errors without a direct `alex_api`
// dependency edge in every use site.
pub use alex_api::{composite_projection, Composite, FixedStr, InsertError, SentinelKey};
