//! The epoch **write-path** stress/differential suite: proves the
//! amortization machinery (per-leaf delta buffers + run-level
//! copy-on-write `bulk_insert`) is both *correct* — merged-view reads
//! never miss a buffered write, final state equals a locked oracle —
//! and *effective* — `write_stats()` shows delta hits dominating
//! flushes and leaf clones staying far below the write count.
//!
//! Companion of `tests/epoch_concurrency.rs` (which stresses the
//! *reclamation* protocol); this file stresses what gets published.
//! `EPOCH_STRESS_ITERS` scales the interleaved stress rounds (small by
//! default, larger in the CI `stress` job).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use alex_repro::alex_api::{ConcurrentIndex, IndexRead, LockedBTreeMap};
use alex_repro::alex_core::{AlexConfig, EpochAlex};

const WRITERS: u64 = 2;
const READERS: u64 = 2;
/// Per-writer keys per stress round.
const STRIPE: u64 = 2048;

fn stress_iters() -> u64 {
    std::env::var("EPOCH_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
        .max(1)
}

fn splitting_config(delta_cap: usize) -> AlexConfig {
    AlexConfig::ga_armi()
        .with_max_node_keys(256)
        .with_splitting()
        .with_delta_buffer(delta_cap)
}

/// Payload convention: `key * 7 + generation` (generation < 7).
fn payload(key: u64, generation: u64) -> u64 {
    debug_assert!(generation < 7);
    key * 7 + generation
}

// ----------------------------------------------------------------------
// Acceptance: run-level CoW on a 64k-key sorted bulk_insert
// ----------------------------------------------------------------------

/// On a 64k-key sorted `bulk_insert`, `leaf_clones` is bounded by the
/// *leaf-run count* (here: the number of data nodes, since the batch
/// interleaves every leaf), not the key count.
#[test]
fn sorted_64k_bulk_insert_clones_per_run_not_per_key() {
    let n = 65_536u64;
    let init: Vec<(u64, u64)> = (0..n).map(|k| (2 * k, payload(2 * k, 0))).collect();
    let index = EpochAlex::bulk_load(&init, AlexConfig::ga_armi());
    let leaves_before = index.size_report().num_data_nodes as u64;

    let batch: Vec<(u64, u64)> = (0..n).map(|k| (2 * k + 1, payload(2 * k + 1, 0))).collect();
    assert_eq!(index.bulk_insert(&batch), Ok(n as usize));

    let stats = index.write_stats();
    assert!(
        stats.leaf_clones <= leaves_before,
        "run-level CoW: {} clones must not exceed the {} leaf runs (key count {n})",
        stats.leaf_clones,
        leaves_before
    );
    assert!(
        stats.leaf_clones < n,
        "clones ({}) must be strictly below the key count ({n})",
        stats.leaf_clones
    );
    // Correctness of the published runs.
    assert_eq!(index.len(), 2 * n as usize);
    for k in (0..2 * n).step_by(257) {
        assert_eq!(index.get(&k), Some(payload(k, 0)), "key {k}");
    }
    assert_eq!(index.flush_retired(), 0);
}

/// The same bound holds when runs trigger splits along the way: clones
/// stay strictly below the key count (each split only restarts the
/// run at the new child).
#[test]
fn splitting_bulk_insert_still_amortizes() {
    let n = 16_384u64;
    let init: Vec<(u64, u64)> = (0..n).map(|k| (2 * k, payload(2 * k, 0))).collect();
    let index = EpochAlex::bulk_load(&init, splitting_config(32));
    let batch: Vec<(u64, u64)> = (0..n).map(|k| (2 * k + 1, payload(2 * k + 1, 0))).collect();
    assert_eq!(index.bulk_insert(&batch), Ok(n as usize));
    let stats = index.write_stats();
    assert!(
        stats.leaf_clones * 4 < n,
        "even with splits, clones ({}) must be far below keys ({n})",
        stats.leaf_clones
    );
    assert_eq!(index.len(), 2 * n as usize);
    let inner = index.into_inner();
    let keys: Vec<u64> = inner.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys.len(), 2 * n as usize);
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "chain out of order after splits");
}

// ----------------------------------------------------------------------
// Acceptance: point writes amortize through the delta buffers
// ----------------------------------------------------------------------

/// A point-insert workload shows `delta_hits > flushes`, and every
/// write is accounted for as either a buffer hit or part of a clone.
#[test]
fn point_workload_shows_delta_hits_above_flushes() {
    let n = 16_384u64;
    let index = EpochAlex::bulk_load(
        &(0..n).map(|k| (2 * k, payload(2 * k, 0))).collect::<Vec<_>>(),
        splitting_config(32),
    );
    for k in 0..n {
        index.insert(2 * k + 1, payload(2 * k + 1, 0)).unwrap();
    }
    let stats = index.write_stats();
    assert!(
        stats.delta_hits > stats.flushes,
        "buffers must absorb more writes than they flush: {stats:?}"
    );
    assert_eq!(
        stats.delta_hits + stats.leaf_clones,
        n,
        "every insert is a delta hit or clone-borne: {stats:?}"
    );
    assert!(
        stats.leaf_clones * 4 < n,
        "amortization: clones ({}) far below inserts ({n})",
        stats.leaf_clones
    );
}

// ----------------------------------------------------------------------
// Differential stress: readers race delta-buffered writers
// ----------------------------------------------------------------------

/// The headline differential test. `WRITERS` threads run mixed point
/// ops (insert / remove / update) plus periodic sorted `bulk_insert`
/// batches against disjoint key stripes, mirroring every mutation into
/// a [`LockedBTreeMap`]; each writer asserts **read-your-write**
/// through the merged view after every operation (a buffered write
/// must be visible the instant it is published). `READERS` threads
/// continuously run point gets and ordered scans. At quiescence the
/// index must equal the mirror exactly, the retire lists must drain
/// (`retired_total == freed_total`), and `write_stats()` must show the
/// amortization (clones strictly below the write count).
#[test]
fn readers_race_delta_buffered_writers_against_locked_mirror() {
    let iters = stress_iters();
    // Small delta capacity so the stress constantly crosses the
    // buffer/flush boundary while splits fold buffers into children.
    let index: EpochAlex<u64, u64> = EpochAlex::new(splitting_config(4));
    let mirror: LockedBTreeMap<u64, u64> = LockedBTreeMap::new();
    let writes_issued = AtomicU64::new(0);

    // Stable floor the readers can assert exact payloads on.
    let floor = 4 * WRITERS * STRIPE * (iters + 1);
    for k in 0..STRIPE {
        let key = floor + k;
        index.insert(key, payload(key, 0)).unwrap();
        mirror.insert(key, payload(key, 0)).unwrap();
    }

    std::thread::scope(|s| {
        let (idx, mir, issued) = (&index, &mirror, &writes_issued);
        for t in 0..WRITERS {
            s.spawn(move || {
                for round in 0..iters {
                    let base = 4 * STRIPE * (t + WRITERS * round);
                    // Phase 1: point inserts of evens (buffered).
                    for i in 0..STRIPE {
                        let k = base + 2 * i;
                        idx.insert(k, payload(k, 0)).unwrap();
                        mir.insert(k, payload(k, 0)).unwrap();
                        assert_eq!(
                            idx.get(&k),
                            Some(payload(k, 0)),
                            "read-your-write: buffered insert {k} invisible"
                        );
                    }
                    // Phase 2: one sorted batch of odds (run-level CoW).
                    let batch: Vec<(u64, u64)> = (0..STRIPE)
                        .map(|i| {
                            let k = base + 2 * i + 1;
                            (k, payload(k, 1))
                        })
                        .collect();
                    assert_eq!(idx.bulk_insert(&batch), Ok(STRIPE as usize));
                    for (k, v) in &batch {
                        mir.insert(*k, *v).unwrap();
                    }
                    assert_eq!(
                        idx.get(&batch[STRIPE as usize / 2].0),
                        Some(batch[STRIPE as usize / 2].1),
                        "read-your-write: batch run invisible"
                    );
                    // Phase 3: churn — update half the evens, remove a
                    // quarter (tombstones), reinsert an eighth.
                    for i in (0..STRIPE).step_by(2) {
                        let k = base + 2 * i;
                        assert_eq!(idx.update(&k, payload(k, 2)), Some(payload(k, 0)));
                        mir.remove(&k);
                        mir.insert(k, payload(k, 2)).unwrap();
                        assert_eq!(idx.get(&k), Some(payload(k, 2)), "shadowed update {k}");
                    }
                    for i in (0..STRIPE).step_by(4) {
                        let k = base + 2 * i;
                        assert_eq!(idx.remove(&k), Some(payload(k, 2)), "remove {k}");
                        mir.remove(&k);
                        assert_eq!(idx.get(&k), None, "tombstoned key {k} still visible");
                    }
                    for i in (0..STRIPE).step_by(8) {
                        let k = base + 2 * i;
                        idx.insert(k, payload(k, 3)).unwrap();
                        mir.insert(k, payload(k, 3)).unwrap();
                        assert_eq!(idx.get(&k), Some(payload(k, 3)), "reinsert over tombstone {k}");
                    }
                    // Exact writes this round: evens + batch + updates
                    // + removes + reinserts.
                    issued.fetch_add(
                        2 * STRIPE + STRIPE / 2 + STRIPE / 4 + STRIPE / 8,
                        Ordering::Relaxed,
                    );
                }
            });
        }
        for r in 0..READERS {
            s.spawn(move || {
                let mut probe = r + 1;
                for round in 0..(iters * 2) {
                    // Stable floor keys always answer exactly.
                    for k in (0..STRIPE).step_by(17) {
                        let key = floor + k;
                        assert_eq!(idx.get(&key), Some(payload(key, 0)), "stable key {key}");
                    }
                    // Random probes across the churn space: present ⇒
                    // payload belongs to the key and names a legal
                    // generation.
                    for _ in 0..1500 {
                        probe = probe
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let key = probe % floor;
                        if let Some(v) = idx.get(&key) {
                            assert_eq!(v / 7, key, "foreign payload under {key}");
                            assert!(v % 7 < 4, "impossible generation {} at {key}", v % 7);
                        }
                    }
                    // Ordered scans under churn.
                    let start = (round * 131) % floor;
                    let mut last = None;
                    idx.scan_from(&start, 500, |k, v| {
                        assert!(last.is_none_or(|p| p < *k), "scan out of order at {k}");
                        assert_eq!(v / 7, *k, "scan: foreign payload at {k}");
                        last = Some(*k);
                    });
                }
            });
        }
    });

    // Quiescent equality with the locked mirror, keys and payloads.
    let mut expect: Vec<(u64, u64)> = Vec::new();
    mirror.scan_from(&0, usize::MAX, &mut |k, v| expect.push((*k, *v)));
    let reference: BTreeMap<u64, u64> = expect.iter().copied().collect();
    assert_eq!(index.len(), reference.len(), "len at quiescence");
    let mut got = Vec::with_capacity(reference.len());
    index.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
    assert_eq!(got, expect, "final state diverged from the locked mirror");

    // Amortization proof: delta hits dominate, clones stay strictly
    // below the issued write count (batch runs included).
    let stats = index.write_stats();
    let issued = writes_issued.load(Ordering::Relaxed) + STRIPE;
    assert!(stats.delta_hits > 0, "stress must exercise the buffers");
    assert!(stats.flushes > 0, "cap 4 must force flushes");
    assert!(stats.delta_hits > stats.flushes, "{stats:?}");
    assert!(
        stats.leaf_clones < issued,
        "leaf clones ({}) must stay strictly below writes issued ({issued})",
        stats.leaf_clones
    );

    // Reclamation: exactly-once, fully drained.
    assert_eq!(index.flush_retired(), 0, "retire lists must drain at quiescence");
    let epoch = index.epoch_stats();
    assert_eq!(epoch.retired_total, epoch.freed_total, "no leak, no double-retire");
    assert!(epoch.retired_total > 0);

    // Recovered exclusive index agrees entry-for-entry.
    let inner = index.into_inner();
    assert_eq!(inner.len(), reference.len());
    let recovered: Vec<(u64, u64)> = inner.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(recovered, expect, "into_inner changed the observable state");
}

/// A churn differential on the default delta capacity and leaf size:
/// writers mirror every insert and a trickle of removes into the
/// oracle while readers hammer `get`; at quiescence the full ordered
/// scan must equal the oracle's, byte for byte.
#[test]
fn default_capacity_stays_byte_identical_to_the_oracle_under_churn() {
    const PER_WRITER: u64 = 30_000;

    let index: EpochAlex<u64, u64> = EpochAlex::new(AlexConfig::ga_armi().with_splitting());
    let oracle: LockedBTreeMap<u64, u64> = LockedBTreeMap::new();

    std::thread::scope(|s| {
        let (index, oracle) = (&index, &oracle);
        for t in 0..WRITERS {
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    // Disjoint key stripes per writer: every insert is
                    // fresh, removes hit only the writer's own keys.
                    let k = WRITERS * i + t;
                    index.insert(k, k * 7).expect("fresh stripe key");
                    oracle.insert(k, k * 7).expect("oracle stripe key");
                    if i % 16 == 0 && i > 0 {
                        let victim = WRITERS * (i - 3) + t;
                        let a = index.remove(&victim);
                        let b = oracle.remove(&victim);
                        assert_eq!(a, b, "writer {t}: divergent remove of {victim}");
                    }
                }
            });
        }
        for r in 0..READERS {
            s.spawn(move || {
                let mut probe = r + 1;
                for _ in 0..40_000 {
                    probe = probe.wrapping_mul(6364136223846793005).wrapping_add(99);
                    let key = probe % (WRITERS * PER_WRITER);
                    if let Some(v) = index.get(&key) {
                        assert_eq!(v, key * 7, "payload corrupt under churn");
                    }
                }
            });
        }
    });

    let mut expect: Vec<(u64, u64)> = Vec::new();
    oracle.scan_from(&0, usize::MAX, &mut |k, v| expect.push((*k, *v)));
    assert_eq!(index.len(), expect.len());
    let mut got: Vec<(u64, u64)> = Vec::with_capacity(expect.len());
    index.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
    assert_eq!(got, expect, "index diverged from the oracle");
}

// ----------------------------------------------------------------------
// Mid-scan flushes
// ----------------------------------------------------------------------

/// A scan that triggers delta flushes and splits *behind its own
/// cursor* (writes issued from the scan callback) stays strictly
/// increasing and still visits every key that existed before it
/// started — leaf snapshots are immutable, so in-flight iteration can
/// never tear.
#[test]
fn scan_survives_mid_scan_flushes_and_splits() {
    let n = 4096u64;
    let index = EpochAlex::bulk_load(
        &(0..n).map(|k| (2 * k, payload(2 * k, 0))).collect::<Vec<_>>(),
        splitting_config(2),
    );
    let pre_scan: Vec<u64> = (0..n).map(|k| 2 * k).collect();
    let mut seen = Vec::new();
    let mut injected = 0u64;
    index.scan_from(&0, usize::MAX, |k, _| {
        seen.push(*k);
        // Every 16th visit, write *behind* the cursor: with delta
        // capacity 2 this constantly flushes, republishes, and splits
        // leaves the scan has already walked (and sometimes the one it
        // is inside — its snapshot must be unaffected).
        if seen.len() % 16 == 0 && injected < n {
            let behind = 2 * injected + 1; // odd, below the cursor
            if behind < *k {
                index.insert(behind, payload(behind, 0)).unwrap();
                injected += 1;
            }
        }
    });
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "mid-scan writes must not break ordering"
    );
    let seen_set: std::collections::BTreeSet<u64> = seen.iter().copied().collect();
    for k in &pre_scan {
        assert!(seen_set.contains(k), "pre-existing key {k} missed by the scan");
    }
    assert!(injected > 0, "the scan must have raced real writes");
    assert_eq!(index.flush_retired(), 0);
}

// ----------------------------------------------------------------------
// Tiny-capacity sweep (sequential differential)
// ----------------------------------------------------------------------

/// Capacities 0, 1, 2 force near-constant flushes; 32 is the default.
/// Every capacity must produce the exact same observable map as a
/// `BTreeMap` under a deterministic mixed workload, and `into_inner`
/// must fold any residue correctly.
#[test]
fn capacity_sweep_matches_btreemap() {
    for cap in [0usize, 1, 2, 3, 32] {
        let index: EpochAlex<u64, u64> = EpochAlex::new(splitting_config(cap));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for step in 0..6000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (x >> 33) % 3000;
            match step % 5 {
                0 | 1 => {
                    let was_absent = !model.contains_key(&k);
                    if was_absent {
                        model.insert(k, k * 7);
                    }
                    assert_eq!(index.insert(k, k * 7).is_ok(), was_absent, "cap {cap}: insert {k}");
                    // A rejected duplicate must not clobber the value.
                    assert_eq!(index.get(&k), model.get(&k).copied(), "cap {cap}: get {k}");
                }
                2 => {
                    // update() only succeeds on present keys.
                    let expected = model.get(&k).copied();
                    assert_eq!(index.update(&k, k + 1), expected, "cap {cap}: update {k}");
                    if expected.is_some() {
                        model.insert(k, k + 1);
                    }
                }
                3 => {
                    assert_eq!(index.remove(&k), model.remove(&k), "cap {cap}: remove {k}");
                }
                _ => {
                    assert_eq!(index.get(&k), model.get(&k).copied(), "cap {cap}: get {k}");
                    let mut got = Vec::new();
                    index.scan_from(&k, 25, |k, v| got.push((*k, *v)));
                    let expect: Vec<(u64, u64)> =
                        model.range(k..).take(25).map(|(k, v)| (*k, *v)).collect();
                    assert_eq!(got, expect, "cap {cap}: scan from {k}");
                }
            }
            assert_eq!(index.len(), model.len(), "cap {cap}: len at step {step}");
        }
        let stats = index.write_stats();
        if cap == 0 {
            assert_eq!(stats.delta_hits, 0, "cap 0 must never buffer");
        } else {
            assert!(stats.delta_hits > 0, "cap {cap} must buffer");
        }
        let inner = index.into_inner();
        let got: Vec<(u64, u64)> = inner.iter().map(|(k, v)| (*k, *v)).collect();
        let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, expect, "cap {cap}: recovered index diverged");
    }
}

/// Labels and length surface sanely through the `alex-api` view while
/// deltas are pending (size accounting includes the buffers).
#[test]
fn api_view_is_delta_aware() {
    let index = EpochAlex::bulk_load(
        &(0..512u64).map(|k| (2 * k, k)).collect::<Vec<_>>(),
        AlexConfig::ga_armi().with_delta_buffer(64),
    );
    for k in 0..64u64 {
        index.insert(2 * k + 1, k).unwrap();
    }
    assert!(index.write_stats().delta_hits > 0);
    assert_eq!(IndexRead::len(&index), 576);
    assert!(IndexRead::data_size_bytes(&index) > 0);
    let entries: Vec<u64> = IndexRead::range_from(&index, &0, 10).map(|e| e.key).collect();
    assert_eq!(entries, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
}
