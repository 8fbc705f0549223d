//! The `alex-api` conformance suite, instantiated for every backend in
//! the workspace: all ALEX variants' representative (GA-ARMI with a
//! tight leaf bound, so batches cross leaves), the B+Tree and Learned
//! Index baselines, the sharded concurrent front-end, and the
//! locked-`BTreeMap` reference.
//!
//! Each instantiation stamps out the same five `#[test]`s
//! (get-after-insert, remove-returns-value, range order vs. a
//! `BTreeMap` reference, batch ≡ per-key equivalence, bulk-load +
//! accounting) — see `alex_api::conformance` for what the contract
//! demands.

//! Internally synchronized backends additionally instantiate the
//! `concurrent` section (scoped readers vs. one writer, payload
//! equality at quiescence, and `&self` batch writes under reader load
//! ≡ per-key inserts): the sharded front-end, the raw
//! epoch-protected `EpochAlex` (whose batch path publishes once per
//! leaf run), and the locked-map reference.

use alex_repro::alex_api;
use alex_repro::alex_api::{Composite, FixedStr};
use alex_repro::alex_btree::BPlusTree;
use alex_repro::alex_core::{AlexConfig, AlexIndex, EpochAlex};
use alex_repro::alex_learned_index::LearnedIndex;
use alex_repro::alex_sharded::ShardedAlex;
use alex_repro::alex_workloads::LockedBTreeMap;

alex_api::conformance_suite!(alex_ga_armi, |pairs: &[(u64, u64)]| {
    AlexIndex::bulk_load(pairs, AlexConfig::ga_armi().with_max_node_keys(256))
});

alex_api::conformance_suite!(alex_pma_srmi, |pairs: &[(u64, u64)]| {
    AlexIndex::bulk_load(pairs, AlexConfig::pma_srmi(8))
});

alex_api::conformance_suite!(alex_split_on_insert, |pairs: &[(u64, u64)]| {
    AlexIndex::bulk_load(pairs, AlexConfig::ga_armi().with_max_node_keys(128).with_splitting())
});

alex_api::conformance_suite!(btree, |pairs: &[(u64, u64)]| {
    BPlusTree::bulk_load(pairs, 32, 32, 0.7)
});

alex_api::conformance_suite!(learned_index, |pairs: &[(u64, u64)]| {
    LearnedIndex::bulk_load(pairs, 16)
});

alex_api::conformance_suite!(
    sharded_alex,
    |pairs: &[(u64, u64)]| {
        ShardedAlex::bulk_load(pairs, 4, AlexConfig::ga_armi().with_max_node_keys(256))
    },
    concurrent
);

// The raw epoch wrapper with split-on-insert, so the concurrent
// checks race readers against *published splits*, not just leaf
// copy-on-write.
alex_api::conformance_suite!(
    epoch_alex,
    |pairs: &[(u64, u64)]| {
        EpochAlex::bulk_load(pairs, AlexConfig::ga_armi().with_max_node_keys(128).with_splitting())
    },
    concurrent
);

alex_api::conformance_suite!(
    locked_btreemap,
    |pairs: &[(u64, u64)]| { LockedBTreeMap::from_pairs(pairs) },
    concurrent
);

// ----------------------------------------------------------------------
// Pluggable key types: the same contract, driven through the
// order-preserving string key and the tenant-qualified composite key.
// One ALEX instantiation plus every baseline per key type, so all the
// backends agree on the new keys' ordering and sentinel handling too.
// ----------------------------------------------------------------------

/// 16-byte padded string key; conformance seeds occupy the first 8
/// bytes (big-endian), the tail stays zero padding.
type StrKey = FixedStr<16>;
/// Tenant-qualified key: conformance seeds split tenant-major.
type TenantKey = Composite<u64>;

alex_api::conformance_suite!(alex_ga_armi_string, |pairs: &[(StrKey, u64)]| {
    AlexIndex::bulk_load(pairs, AlexConfig::ga_armi().with_max_node_keys(256))
});

alex_api::conformance_suite!(alex_ga_armi_composite, |pairs: &[(TenantKey, u64)]| {
    AlexIndex::bulk_load(pairs, AlexConfig::ga_armi().with_max_node_keys(256))
});

alex_api::conformance_suite!(btree_string, |pairs: &[(StrKey, u64)]| {
    BPlusTree::bulk_load(pairs, 32, 32, 0.7)
});

alex_api::conformance_suite!(btree_composite, |pairs: &[(TenantKey, u64)]| {
    BPlusTree::bulk_load(pairs, 32, 32, 0.7)
});

alex_api::conformance_suite!(learned_index_string, |pairs: &[(StrKey, u64)]| {
    LearnedIndex::bulk_load(pairs, 16)
});

alex_api::conformance_suite!(learned_index_composite, |pairs: &[(TenantKey, u64)]| {
    LearnedIndex::bulk_load(pairs, 16)
});

alex_api::conformance_suite!(
    sharded_alex_string,
    |pairs: &[(StrKey, u64)]| {
        ShardedAlex::bulk_load(pairs, 4, AlexConfig::ga_armi().with_max_node_keys(256))
    },
    concurrent
);

alex_api::conformance_suite!(
    sharded_alex_composite,
    |pairs: &[(TenantKey, u64)]| {
        ShardedAlex::bulk_load(pairs, 4, AlexConfig::ga_armi().with_max_node_keys(256))
    },
    concurrent
);

alex_api::conformance_suite!(
    locked_btreemap_string,
    |pairs: &[(StrKey, u64)]| { LockedBTreeMap::from_pairs(pairs) },
    concurrent
);

alex_api::conformance_suite!(
    locked_btreemap_composite,
    |pairs: &[(TenantKey, u64)]| { LockedBTreeMap::from_pairs(pairs) },
    concurrent
);
