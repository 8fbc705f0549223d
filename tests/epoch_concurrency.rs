//! The epoch-reclamation stress subsystem: readers running `get` /
//! `scan_from` continuously while writers force leaf splits, removes,
//! and re-inserts — the workload the lock-free read path exists for.
//!
//! ## What is being proven
//!
//! 1. **Liveness of observations.** Every payload encodes its key and
//!    a *generation*; writers record a generation in a shared journal
//!    (per-key `AtomicU64` high-water marks) **before** publishing it
//!    to the index. A reader that observes `(key, gen)` therefore
//!    proves the payload was live at some point: the generation must
//!    already be journaled, the payload's embedded key must match the
//!    probed key (no torn/foreign payloads), and a key never written
//!    must never be observed.
//! 2. **Oracle equality at quiescence.** Writers mirror every mutation
//!    into a [`LockedBTreeMap`] oracle; after the scope joins, the
//!    index's full ordered scan must equal the oracle's.
//! 3. **Shutdown reclamation.** After quiescence the retire lists
//!    drain to zero (`flush_retired() == 0`) and the lifetime
//!    counters agree (`retired_total == freed_total`): nothing leaked,
//!    nothing was retired twice.
//!
//! `EPOCH_STRESS_ITERS` scales the number of writer rounds (small in
//! the default test run, larger in the CI `stress` job and locally).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use alex_repro::alex_api::{ConcurrentIndex, IndexRead, LockedBTreeMap};
use alex_repro::alex_core::{AlexConfig, EpochAlex, EpochStats};
use alex_repro::alex_sharded::ShardedAlex;

/// Keys loaded initially: evens `0, 2, …, 2·(INITIAL_KEYS − 1)`.
const INITIAL_KEYS: u64 = 4096;
const WRITERS: u64 = 2;
const READERS: u64 = 3;

/// Payloads carry `generation << 48 | key`; keys stay far below 2^48.
const GEN_SHIFT: u32 = 48;
const KEY_MASK: u64 = (1 << GEN_SHIFT) - 1;
/// Journal sentinel: this key was never made live by any writer.
const NEVER: u64 = u64::MAX;

fn payload(key: u64, generation: u64) -> u64 {
    debug_assert!(key <= KEY_MASK);
    (generation << GEN_SHIFT) | key
}

fn decode(value: u64) -> (u64, u64) {
    (value & KEY_MASK, value >> GEN_SHIFT)
}

fn stress_iters() -> u64 {
    std::env::var("EPOCH_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
        .max(1)
}

/// Split-happy config so writer churn constantly replaces leaves.
fn splitting_config() -> AlexConfig {
    AlexConfig::ga_armi().with_max_node_keys(128).with_splitting()
}

/// Per-key generation high-water marks. A write journals its
/// generation *before* the index insert, so "observed ⇒ journaled"
/// holds for every reader.
struct Journal {
    max_gen: Vec<AtomicU64>,
}

impl Journal {
    fn new(key_space: u64) -> Self {
        Self {
            max_gen: (0..key_space).map(|_| AtomicU64::new(NEVER)).collect(),
        }
    }

    /// Record that `generation` of `key` is about to become live.
    fn announce(&self, key: u64, generation: u64) {
        let slot = &self.max_gen[key as usize];
        // NEVER is the largest value, so the first announcement must
        // replace it outright rather than fetch_max over it.
        if slot.load(Ordering::SeqCst) == NEVER {
            slot.store(generation, Ordering::SeqCst);
        } else {
            slot.fetch_max(generation, Ordering::SeqCst);
        }
    }

    /// Assert that observing `value` under `key` is explainable by a
    /// journaled write.
    fn check_observation(&self, label: &str, key: u64, value: u64) {
        let (embedded, generation) = decode(value);
        assert_eq!(embedded, key, "{label}: payload under key {key} belongs to key {embedded}");
        let journaled = self.max_gen[key as usize].load(Ordering::SeqCst);
        assert_ne!(journaled, NEVER, "{label}: key {key} observed but never written");
        assert!(
            generation <= journaled,
            "{label}: key {key} observed generation {generation} > journaled {journaled}"
        );
    }
}

/// The stress harness, generic over the concurrent backend: `WRITERS`
/// split-forcing mutator threads race `READERS` continuous readers
/// inside one `std::thread::scope`, then the final state is compared
/// against the oracle.
///
/// Key layout: evens `2i` are loaded at generation 0 and then
/// remove-/re-inserted by their owning writer with rising generations;
/// odds `2i + 1` and the per-round append ranges are fresh inserts
/// (generation 0) that force leaf splits.
fn stress<I: ConcurrentIndex<u64, u64>>(index: &I, label: &str) {
    let iters = stress_iters();
    // Per round each writer appends a fresh stripe above the initial
    // range; reserve journal space for all of them.
    let key_space = 2 * INITIAL_KEYS * (iters + 2);
    let journal = Journal::new(key_space);
    let oracle: LockedBTreeMap<u64, u64> = LockedBTreeMap::new();

    // Initial load is generation 0 of every even key (driven through
    // the concurrent insert path so cold-start indexes work too).
    for i in 0..INITIAL_KEYS {
        let k = 2 * i;
        journal.announce(k, 0);
        index.insert(k, payload(k, 0)).expect("initial load");
        oracle.insert(k, payload(k, 0)).expect("oracle load");
    }

    std::thread::scope(|s| {
        let (journal, oracle) = (&journal, &oracle);
        for t in 0..WRITERS {
            s.spawn(move || {
                for round in 0..iters {
                    for i in (t..INITIAL_KEYS).step_by(WRITERS as usize) {
                        // Fresh odd key (round 0) / append-range key
                        // (later rounds): forces splits as leaves fill.
                        let fresh = if round == 0 {
                            2 * i + 1
                        } else {
                            2 * INITIAL_KEYS * (round + 1) + 2 * i + t
                        };
                        journal.announce(fresh, 0);
                        index
                            .insert(fresh, payload(fresh, 0))
                            .unwrap_or_else(|e| panic!("writer {t}: fresh {fresh}: {e}"));
                        oracle.insert(fresh, payload(fresh, 0)).expect("oracle fresh");

                        // Remove-then-reinsert the owned even key with
                        // a bumped generation.
                        let k = 2 * i;
                        let gen = round + 1;
                        let evicted = index.remove(&k).unwrap_or_else(|| {
                            panic!("writer {t}: owned key {k} missing at round {round}")
                        });
                        assert_eq!(decode(evicted).0, k, "evicted payload belongs to {k}");
                        oracle.remove(&k);
                        journal.announce(k, gen);
                        index
                            .insert(k, payload(k, gen))
                            .unwrap_or_else(|e| panic!("writer {t}: reinsert {k}: {e}"));
                        oracle.insert(k, payload(k, gen)).expect("oracle reinsert");
                    }
                }
            });
        }
        for r in 0..READERS {
            s.spawn(move || {
                let mut probe = 1 + r;
                for round in 0..(iters * 2) {
                    // Point reads across the whole key space: anything
                    // observed must be journal-explainable.
                    for _ in 0..2000 {
                        probe = probe.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let key = probe % key_space;
                        if let Some(v) = index.get(&key) {
                            journal.check_observation(label, key, v);
                        }
                    }
                    // Ordered scans under churn: strictly increasing
                    // keys, each payload live at some point.
                    let start = (round * 977) % (2 * INITIAL_KEYS);
                    let mut last = None;
                    index.scan_from(&start, 700, &mut |k, v| {
                        assert!(
                            last.is_none_or(|p| p < *k),
                            "{label}: scan out of order at {k}"
                        );
                        journal.check_observation(label, *k, *v);
                        last = Some(*k);
                    });
                }
            });
        }
    });

    // Oracle equality at quiescence: keys and payloads.
    let mut expect: Vec<(u64, u64)> = Vec::new();
    oracle.scan_from(&0, usize::MAX, &mut |k, v| expect.push((*k, *v)));
    let reference: BTreeMap<u64, u64> = expect.iter().copied().collect();
    assert_eq!(index.len(), reference.len(), "{label}: len at quiescence");
    let mut got = Vec::with_capacity(reference.len());
    index.scan_from(&0, usize::MAX, &mut |k, v| got.push((*k, *v)));
    assert_eq!(got, expect, "{label}: final state diverged from the oracle");
}

/// Shutdown check shared by the epoch-backed runs: retire lists fully
/// drain and the lifetime counters balance.
fn assert_reclamation_clean(label: &str, pending_after_flush: usize, stats: EpochStats) {
    assert_eq!(pending_after_flush, 0, "{label}: retire lists must drain at quiescence");
    assert_eq!(stats.pending, 0, "{label}: no pending garbage after flush");
    assert!(stats.retired_total > 0, "{label}: split/CoW churn must retire nodes");
    assert_eq!(
        stats.retired_total, stats.freed_total,
        "{label}: every retired node freed exactly once (no leak, no double-retire)"
    );
}

#[test]
fn epoch_alex_readers_race_split_churn() {
    let index: EpochAlex<u64, u64> = EpochAlex::new(splitting_config());
    stress(&index, "EpochAlex");
    let pending = index.flush_retired();
    assert_reclamation_clean("EpochAlex", pending, index.epoch_stats());
}

#[test]
fn sharded_epoch_readers_race_split_churn() {
    // Fixed boundaries inside the initial range so writer churn and
    // scans constantly cross shards.
    let boundaries = vec![2 * INITIAL_KEYS / 3, 4 * INITIAL_KEYS / 3];
    let index: ShardedAlex<u64, u64> = ShardedAlex::new(boundaries, splitting_config());
    stress(&index, "ShardedAlex[epoch]");
    let pending = index.flush_retired();
    assert_reclamation_clean("ShardedAlex[epoch]", pending, index.epoch_stats());
}

#[test]
fn locked_btreemap_passes_the_same_stress() {
    // The trivially correct reference pins the harness itself down: if
    // the journal discipline were wrong, the reference would fail too.
    let index: LockedBTreeMap<u64, u64> = LockedBTreeMap::new();
    stress(&index, "LockedBTreeMap");
}

/// The PR-4 gap: `bulk_insert` was never exercised under reader load.
/// Journal-of-generations oracle for **run-level publication**: each
/// round the writer re-publishes owned key blocks through
/// remove + `bulk_insert` at a bumped generation (announced before the
/// batch call) and appends a fresh split-forcing stripe per batch.
/// Readers assert, beyond the usual observed ⇒ journaled discipline,
/// **per-key generation monotonicity within a reader**: slot contents
/// only ever move forward, so once a reader has seen generation `g`
/// of a key it must never see `g' < g` — a torn run, a resurrected
/// old snapshot, or a partial publication interleaved with an older
/// generation of the same slot would surface exactly there.
#[test]
fn bulk_insert_runs_race_readers() {
    let iters = stress_iters();
    const BLOCKS: u64 = 8;
    const BLOCK_KEYS: u64 = 512;
    let index: EpochAlex<u64, u64> = EpochAlex::new(splitting_config());
    let oracle: LockedBTreeMap<u64, u64> = LockedBTreeMap::new();
    let key_space = 2 * BLOCKS * BLOCK_KEYS * (iters + 2);
    let journal = Journal::new(key_space);

    // Initial load: evens of every block at generation 0, as one batch.
    let block_keys = |b: u64| (0..BLOCK_KEYS).map(move |i| 2 * (b * BLOCK_KEYS + i));
    let init: Vec<(u64, u64)> = (0..BLOCKS).flat_map(block_keys).map(|k| (k, payload(k, 0))).collect();
    for (k, _) in &init {
        journal.announce(*k, 0);
    }
    assert_eq!(index.bulk_insert(&init), Ok(init.len()));
    for (k, v) in &init {
        oracle.insert(*k, *v).expect("oracle load");
    }

    std::thread::scope(|s| {
        let (idx, orc, journal) = (&index, &oracle, &journal);
        s.spawn(move || {
            for round in 0..iters {
                let gen = round + 1;
                for b in 0..BLOCKS {
                    // Re-publish the block at the next generation: the
                    // removes retire per key, the batch lands run-wise.
                    for k in block_keys(b) {
                        assert_eq!(decode(idx.remove(&k).expect("owned key")).0, k);
                        orc.remove(&k);
                    }
                    let batch: Vec<(u64, u64)> =
                        block_keys(b).map(|k| (k, payload(k, gen))).collect();
                    for (k, _) in &batch {
                        journal.announce(*k, gen);
                    }
                    assert_eq!(idx.bulk_insert(&batch), Ok(batch.len()), "round {round} block {b}");
                    for (k, v) in &batch {
                        orc.insert(*k, *v).expect("oracle republish");
                    }
                }
                // Fresh split-forcing stripe, batched (generation 0).
                let base = 2 * BLOCKS * BLOCK_KEYS * (round + 1);
                let stripe: Vec<(u64, u64)> =
                    (0..BLOCKS * BLOCK_KEYS).map(|i| (base + 2 * i, payload(base + 2 * i, 0))).collect();
                for (k, _) in &stripe {
                    journal.announce(*k, 0);
                }
                assert_eq!(idx.bulk_insert(&stripe), Ok(stripe.len()));
                for (k, v) in &stripe {
                    orc.insert(*k, *v).expect("oracle stripe");
                }
            }
        });
        for r in 0..READERS {
            s.spawn(move || {
                // Per-reader high-water marks: generation must never
                // regress for a key this reader has already observed.
                let mut seen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
                let mut check = |label: &str, key: u64, value: u64| {
                    journal.check_observation(label, key, value);
                    let (_, gen) = decode(value);
                    let entry = seen.entry(key).or_insert(gen);
                    assert!(
                        gen >= *entry,
                        "{label}: key {key} regressed from generation {} to {gen}",
                        *entry
                    );
                    *entry = gen;
                };
                let mut probe = 11 + r;
                for round in 0..(iters * 3) {
                    for _ in 0..1500 {
                        probe = probe.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let key = probe % key_space;
                        if let Some(v) = idx.get(&key) {
                            check("bulk-runs get", key, v);
                        }
                    }
                    let start = (round * 643) % (2 * BLOCKS * BLOCK_KEYS);
                    let mut last = None;
                    idx.scan_from(&start, 600, |k, v| {
                        assert!(last.is_none_or(|p| p < *k), "scan out of order at {k}");
                        check("bulk-runs scan", *k, *v);
                        last = Some(*k);
                    });
                }
            });
        }
    });

    // Oracle equality at quiescence plus clean reclamation.
    let mut expect: Vec<(u64, u64)> = Vec::new();
    oracle.scan_from(&0, usize::MAX, &mut |k, v| expect.push((*k, *v)));
    let mut got = Vec::with_capacity(expect.len());
    index.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
    assert_eq!(got, expect, "bulk-runs: final state diverged from the oracle");
    let pending = index.flush_retired();
    assert_reclamation_clean("bulk-runs", pending, index.epoch_stats());
    // The whole point: batches must not have cloned per key.
    let writes = index.write_stats();
    assert!(
        writes.leaf_clones < (expect.len() as u64) + 2 * BLOCKS * BLOCK_KEYS * iters,
        "leaf clones {} must stay below total keys written",
        writes.leaf_clones
    );
}

/// Run publication is **atomic per leaf**. With splitting disabled and
/// every key routed to one tail leaf, each `bulk_insert` stripe is a
/// single publication — so a `get_many` over the full key set (served
/// from one leaf snapshot) must see every stripe either complete or
/// not at all, and the set of complete stripes must be a prefix of the
/// publication order. A torn prefix of a stripe interleaved with an
/// older generation of the slot would fail both assertions.
#[test]
fn single_leaf_bulk_runs_are_all_or_nothing() {
    const ROUNDS: u64 = 48;
    const STRIPE_KEYS: u64 = 64;
    // One leaf forever: adaptive build with everything under
    // max_node_keys and no split-on-insert.
    let config = AlexConfig::ga_armi().with_max_node_keys(8192).with_delta_buffer(8);
    let seed: Vec<(u64, u64)> = (0..STRIPE_KEYS).map(|i| (i * (ROUNDS + 1), payload(i * (ROUNDS + 1), 0))).collect();
    let index = EpochAlex::bulk_load(&seed, config);
    // The test's whole premise: everything lives in ONE leaf, so a
    // get_many over the full key set reads one snapshot.
    assert_eq!(index.size_report().num_data_nodes, 1, "seed must build a single leaf");

    // Stripe r occupies keys `i * (ROUNDS + 1) + r + 1` — interleaved
    // with every other stripe, so runs overlap in key space.
    let stripe_keys = |r: u64| (0..STRIPE_KEYS).map(move |i| i * (ROUNDS + 1) + r + 1);
    let all_keys: Vec<u64> = {
        let mut v: Vec<u64> = (0..ROUNDS).flat_map(stripe_keys).collect();
        v.sort_unstable();
        v
    };
    let published = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|s| {
        let (idx, published, all_keys) = (&index, &published, &all_keys);
        s.spawn(move || {
            for r in 0..ROUNDS {
                let batch: Vec<(u64, u64)> = {
                    let mut v: Vec<(u64, u64)> =
                        stripe_keys(r).map(|k| (k, payload(k, 0))).collect();
                    v.sort_unstable_by_key(|p| p.0);
                    v
                };
                assert_eq!(idx.bulk_insert(&batch), Ok(batch.len()), "stripe {r}");
                published.store(r + 1, Ordering::SeqCst);
            }
        });
        for _ in 0..2 {
            s.spawn(move || {
                loop {
                    let before = published.load(Ordering::SeqCst);
                    // One snapshot: the tail leaf owns every probe, so
                    // get_many answers the whole batch from one
                    // published (base, delta) pair.
                    let got = idx.get_many(all_keys);
                    let mut complete = Vec::new();
                    for r in 0..ROUNDS {
                        let present = stripe_keys(r)
                            .filter(|k| {
                                let pos = all_keys.binary_search(k).expect("probe key");
                                got[pos].is_some()
                            })
                            .count() as u64;
                        assert!(
                            present == 0 || present == STRIPE_KEYS,
                            "stripe {r} torn: {present}/{STRIPE_KEYS} keys visible"
                        );
                        complete.push(present == STRIPE_KEYS);
                    }
                    // Publication order ⇒ complete stripes form a prefix.
                    let frontier = complete.iter().take_while(|&&c| c).count();
                    assert!(
                        complete[frontier..].iter().all(|&c| !c),
                        "stripes visible out of publication order: {complete:?}"
                    );
                    // And at least everything published before this
                    // snapshot started must already be visible.
                    assert!(
                        frontier as u64 >= before,
                        "snapshot missed already-published stripes: saw {frontier}, expected >= {before}"
                    );
                    if before == ROUNDS {
                        break;
                    }
                }
            });
        }
    });

    assert_eq!(index.len(), (STRIPE_KEYS * (ROUNDS + 1)) as usize);
    assert_eq!(index.size_report().num_data_nodes, 1, "splitting must stay disabled");
    assert_eq!(index.flush_retired(), 0);
    let stats = index.epoch_stats();
    assert_eq!(stats.retired_total, stats.freed_total);
}

#[test]
fn pinned_scope_blocks_reclamation_until_quiescence() {
    // A long-running reader (one continuous scan) overlapping heavy
    // writer churn: the writer cannot free nodes out from under it,
    // and everything still drains once the reader finishes.
    let index = EpochAlex::bulk_load(
        &(0..20_000u64).map(|k| (2 * k, payload(2 * k, 0))).collect::<Vec<_>>(),
        splitting_config(),
    );
    std::thread::scope(|s| {
        let idx = &index;
        s.spawn(move || {
            for k in 0..20_000u64 {
                idx.insert(2 * k + 1, payload(2 * k + 1, 0)).expect("fresh odd");
            }
        });
        s.spawn(move || {
            // Slow scans racing the writer; every observation valid.
            for _ in 0..4 {
                let mut last = None;
                idx.scan_from(&0, usize::MAX, |k, v| {
                    assert!(last.is_none_or(|p| p < *k), "scan out of order");
                    assert_eq!(decode(*v).0, *k, "payload belongs to its key");
                    last = Some(*k);
                });
            }
        });
    });
    assert_eq!(index.len(), 40_000);
    assert_eq!(index.flush_retired(), 0);
    let stats = index.epoch_stats();
    assert_eq!(stats.retired_total, stats.freed_total);
}
