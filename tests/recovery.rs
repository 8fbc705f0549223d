//! Crash-recovery differential suite for [`DurableAlex`], in the
//! journal-oracle style: every logged operation is mirrored into an
//! oracle tagged with the LSN the WAL assigned it, the "machine
//! crashes" (handle dropped without flush, log truncated at a random
//! byte, or a byte flipped), and recovery must reproduce **exactly**
//! the oracle's prefix up to the recovered LSN — never a subset, a
//! superset, or a torn interior.
//!
//! The kill-at-random-LSN property is the heart: with group commit
//! batching, a crash may lose an acknowledged suffix, but whatever
//! survives must be an exact operation-sequence prefix, and
//! `RecoveryReport::last_lsn` must say precisely which one.

use std::collections::BTreeMap;

use alex_repro::alex_api::{ConcurrentIndex, IndexRead, LockedBTreeMap};
use alex_repro::alex_core::{AlexConfig, EpochWriteStats};
use alex_repro::alex_wal::tempdir::TempDir;
use alex_repro::alex_wal::{DurableAlex, Lsn, SyncPolicy, WalOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

fn opts(group: usize) -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Never, // crashes are simulated by dropping
        group_commit_ops: group,
        segment_bytes: 4096, // small segments so damage spans files
    }
}

fn config(delta_cap: usize) -> AlexConfig {
    AlexConfig::ga_armi()
        .with_max_node_keys(256)
        .with_splitting()
        .with_delta_buffer(delta_cap)
}

/// One mirrored state change, tagged with its WAL LSN.
#[derive(Debug, Clone, Copy)]
enum Effect {
    Put(u64, u64),
    Del(u64),
}

/// Replay the journal's prefix `lsn <= upto` into a fresh model — the
/// oracle for what recovery must reproduce.
fn model_prefix(journal: &[(Lsn, Effect)], upto: Lsn) -> BTreeMap<u64, u64> {
    let mut model = BTreeMap::new();
    for (lsn, effect) in journal {
        if *lsn > upto {
            break;
        }
        match effect {
            Effect::Put(k, v) => {
                model.insert(*k, *v);
            }
            Effect::Del(k) => {
                model.remove(k);
            }
        }
    }
    model
}

/// Full-state equality: length, ordered scan, and point lookups.
fn assert_matches_model(back: &DurableAlex<u64, u64>, model: &BTreeMap<u64, u64>) {
    assert_eq!(back.len(), model.len(), "population must match the oracle");
    let mut scanned = Vec::with_capacity(model.len());
    back.scan_from(&0, usize::MAX, |k, v| scanned.push((*k, *v)));
    let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(scanned, expect, "ordered contents must match the oracle");
    for probe in (0..600u64).step_by(7) {
        assert_eq!(back.get(&probe), model.get(&probe).copied(), "point get {probe}");
    }
}

/// Apply `n` random operations, journaling each logged effect with
/// the LSN it received. Keys collide heavily (domain 0..500) so the
/// mix exercises duplicates, updates of live keys, and removes of
/// both present and absent keys.
fn apply_random_ops(
    index: &DurableAlex<u64, u64>,
    rng: &mut StdRng,
    n: usize,
    journal: &mut Vec<(Lsn, Effect)>,
) {
    for _ in 0..n {
        let k = rng.random_range(0u64..500);
        let v = rng.random_range(0u64..1_000_000);
        match rng.random_range(0u32..10) {
            0..=3 => {
                if index.insert(k, v).unwrap() {
                    journal.push((index.last_lsn(), Effect::Put(k, v)));
                }
            }
            4..=5 => {
                index.upsert(k, v).unwrap(); // upsert always logs
                journal.push((index.last_lsn(), Effect::Put(k, v)));
            }
            6..=7 => {
                if index.update(&k, v).unwrap().is_some() {
                    journal.push((index.last_lsn(), Effect::Put(k, v)));
                }
            }
            _ => {
                if index.remove(&k).unwrap().is_some() {
                    journal.push((index.last_lsn(), Effect::Del(k)));
                }
            }
        }
    }
}

/// WAL segment files in `dir`, sorted by name (= LSN order).
fn wal_segments(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut segments: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    segments
}

fn reopen(dir: &std::path::Path, cap: usize) -> (DurableAlex<u64, u64>, alex_repro::alex_wal::RecoveryReport) {
    DurableAlex::open(dir, config(cap), opts(1)).unwrap()
}

#[test]
fn journal_oracle_roundtrip_without_loss() {
    // Group size 1: every acknowledged op is durable, so recovery
    // must equal the *live* mirror — here the LockedBTreeMap
    // baseline, driven through the same trait surface the
    // conformance suites use.
    let dir = TempDir::new("recovery-roundtrip");
    let index = DurableAlex::create(dir.path(), &[], config(32), opts(1)).unwrap();
    let mirror: LockedBTreeMap<u64, u64> = LockedBTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0xA1EF);
    for _ in 0..800 {
        let k = rng.random_range(0u64..500);
        let v = rng.random_range(0u64..1_000_000);
        if rng.random::<bool>() {
            let landed = index.insert(k, v).unwrap();
            assert_eq!(landed, ConcurrentIndex::insert(&mirror, k, v).is_ok());
        } else {
            assert_eq!(index.remove(&k).unwrap(), ConcurrentIndex::remove(&mirror, &k));
        }
    }
    drop(index); // crash
    let (back, report) = reopen(dir.path(), 32);
    assert_eq!(back.len(), IndexRead::len(&mirror));
    let mut expect = Vec::new();
    mirror.scan_from(&0, usize::MAX, &mut |k: &u64, v: &u64| expect.push((*k, *v)));
    let mut got = Vec::new();
    back.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
    assert_eq!(got, expect);
    assert_eq!(report.truncated_bytes, 0, "clean commit boundaries are not tears");
}

#[test]
fn kill_at_random_lsn_recovers_the_exact_committed_prefix() {
    // Group size > 1: the crash loses a random acknowledged suffix.
    // Recovery must land exactly on the committed LSN's prefix — for
    // every delta-buffer capacity, including 0 (buffering off).
    for cap in [0usize, 1, 32] {
        for seed in 0..4u64 {
            let dir = TempDir::new("recovery-kill");
            let index = DurableAlex::create(dir.path(), &[], config(cap), opts(5)).unwrap();
            let mut rng = StdRng::seed_from_u64(0xDEAD ^ seed);
            let mut journal = Vec::new();
            let ops = 100 + rng.random_range(0usize..400); // random kill point
            apply_random_ops(&index, &mut rng, ops, &mut journal);
            let committed = index.committed_lsn();
            let acknowledged = index.last_lsn();
            drop(index); // kill: the buffered suffix evaporates
            let (back, report) = reopen(dir.path(), cap);
            assert_eq!(
                report.last_lsn, committed,
                "cap {cap} seed {seed}: recovery must land on the committed LSN"
            );
            assert!(acknowledged >= committed);
            let model = model_prefix(&journal, report.last_lsn);
            assert_matches_model(&back, &model);
        }
    }
}

#[test]
fn torn_tail_at_a_random_byte_truncates_to_a_frame_boundary() {
    for seed in 0..6u64 {
        let dir = TempDir::new("recovery-torn");
        let index = DurableAlex::create(dir.path(), &[], config(32), opts(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(0x7042 ^ seed);
        let mut journal = Vec::new();
        apply_random_ops(&index, &mut rng, 300, &mut journal);
        drop(index);
        // Tear the newest segment at a random byte — the classic
        // kill-during-write shape.
        let segments = wal_segments(dir.path());
        let newest = segments.last().unwrap();
        let bytes = std::fs::read(newest).unwrap();
        let cut = rng.random_range(0usize..bytes.len());
        std::fs::write(newest, &bytes[..cut]).unwrap();
        let (back, report) = reopen(dir.path(), 32);
        let model = model_prefix(&journal, report.last_lsn);
        assert_matches_model(&back, &model);
        // Whatever survived the tear must itself reopen cleanly.
        drop(back);
        let (back, second) = reopen(dir.path(), 32);
        assert_eq!(second.last_lsn, report.last_lsn);
        assert_eq!(second.truncated_bytes, 0, "repair must be idempotent");
        assert_matches_model(&back, &model);
    }
}

#[test]
fn writes_after_a_fully_torn_newest_segment_succeed() {
    // Kill during the first write of a fresh segment: the newest
    // segment repairs to zero intact frames. The recovered index must
    // not only match the oracle — it must still be able to commit,
    // because the resumed log hands the lost segment's first LSN (and
    // so its file name) right back out.
    for seed in 0..4u64 {
        let dir = TempDir::new("recovery-torn-zero");
        let index = DurableAlex::create(dir.path(), &[], config(32), opts(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(0x0CC ^ seed);
        let mut journal = Vec::new();
        apply_random_ops(&index, &mut rng, 250, &mut journal);
        drop(index);
        let segments = wal_segments(dir.path());
        let newest = segments.last().unwrap();
        std::fs::write(newest, &std::fs::read(newest).unwrap()[..1]).unwrap();
        let (back, report) = reopen(dir.path(), 32);
        assert_matches_model(&back, &model_prefix(&journal, report.last_lsn));
        journal.retain(|(lsn, _)| *lsn <= report.last_lsn);
        // The regression: every one of these used to fail with
        // AlreadyExists against the zero-length leftover segment.
        apply_random_ops(&back, &mut rng, 100, &mut journal);
        let committed = back.committed_lsn();
        drop(back);
        let (back, second) = reopen(dir.path(), 32);
        assert_eq!(second.last_lsn, committed, "seed {seed}");
        assert_matches_model(&back, &model_prefix(&journal, committed));
    }
}

#[test]
fn snapshot_with_group_commit_recovers_the_exact_committed_prefix() {
    // Snapshots and group commit > 1 together: the snapshot must
    // never turn acknowledged-but-uncommitted operations durable on
    // its own, and the post-crash state must still be the committed
    // LSN's exact prefix.
    for seed in 0..4u64 {
        let dir = TempDir::new("recovery-snapgroup");
        let index = DurableAlex::create(dir.path(), &[], config(32), opts(7)).unwrap();
        let mut rng = StdRng::seed_from_u64(0x5A17 ^ seed);
        let mut journal = Vec::new();
        apply_random_ops(&index, &mut rng, 150, &mut journal);
        index.snapshot().unwrap();
        apply_random_ops(&index, &mut rng, 150, &mut journal);
        let committed = index.committed_lsn();
        drop(index); // kill: the buffered suffix evaporates
        let (back, report) = reopen(dir.path(), 32);
        assert!(report.snapshot_lsn > 0, "seed {seed}: snapshot must be restorable");
        assert_eq!(report.last_lsn, committed, "seed {seed}");
        assert_matches_model(&back, &model_prefix(&journal, committed));
    }
}

#[test]
fn crc_rejects_a_flipped_byte_and_recovery_keeps_the_prefix() {
    for seed in 0..6u64 {
        let dir = TempDir::new("recovery-flip");
        let index = DurableAlex::create(dir.path(), &[], config(32), opts(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(0xF11F ^ seed);
        let mut journal = Vec::new();
        apply_random_ops(&index, &mut rng, 300, &mut journal);
        let committed = index.committed_lsn();
        drop(index);
        // Flip one random byte in a random segment: bit rot, not a
        // torn write. The CRC must catch it.
        let segments = wal_segments(dir.path());
        let victim = &segments[rng.random_range(0usize..segments.len())];
        let mut bytes = std::fs::read(victim).unwrap();
        let hit = rng.random_range(0usize..bytes.len());
        bytes[hit] ^= 1 << rng.random_range(0u32..8);
        std::fs::write(victim, &bytes).unwrap();
        let (back, report) = reopen(dir.path(), 32);
        assert!(
            report.last_lsn < committed,
            "seed {seed}: a flipped byte must cut the recovered log short"
        );
        assert!(report.truncated_bytes > 0 || report.dropped_segments > 0);
        let model = model_prefix(&journal, report.last_lsn);
        assert_matches_model(&back, &model);
    }
}

#[test]
fn snapshot_plus_tail_replay_matches_the_oracle() {
    let dir = TempDir::new("recovery-snaptail");
    let index = DurableAlex::create(dir.path(), &[], config(32), opts(1)).unwrap();
    let mut rng = StdRng::seed_from_u64(0x51AB);
    let mut journal = Vec::new();
    apply_random_ops(&index, &mut rng, 400, &mut journal);
    let snap_lsn = index.snapshot().unwrap();
    apply_random_ops(&index, &mut rng, 150, &mut journal);
    let committed = index.committed_lsn();
    drop(index);
    let (back, report) = reopen(dir.path(), 32);
    assert_eq!(report.snapshot_lsn, snap_lsn);
    assert_eq!(report.last_lsn, committed);
    assert!(
        (report.replayed as u64) < snap_lsn,
        "the snapshot must absorb the pre-snapshot history"
    );
    assert_matches_model(&back, &model_prefix(&journal, committed));
}

#[test]
fn shuffled_tail_replays_in_place_before_the_index_is_shared() {
    // A random-order tail of fresh inserts mixed with updates and
    // removes of snapshotted keys, replayed into 256-key leaves so
    // replay splits them. The recovered state must match the oracle,
    // and replay must have run on the exclusive index: the shared
    // handle starts with no leaf clone, delta hit or retired node.
    let dir = TempDir::new("recovery-inplace");
    let base: Vec<(u64, u64)> = (0..1000u64).map(|k| (k * 4, k)).collect();
    let index = DurableAlex::create(dir.path(), &base, config(32), opts(1)).unwrap();
    let mut model: BTreeMap<u64, u64> = base.iter().copied().collect();
    let mut rng = StdRng::seed_from_u64(0x1A9C);
    let mut fresh: Vec<u64> = (0..3000u64).map(|k| k * 4 + 1).collect();
    fresh.shuffle(&mut rng);
    let mut logged = 0usize;
    for (i, &k) in fresh.iter().enumerate() {
        assert!(index.insert(k, k).unwrap());
        model.insert(k, k);
        logged += 1;
        let old = rng.random_range(0u64..1000) * 4;
        if i % 3 == 0 && index.update(&old, i as u64).unwrap().is_some() {
            model.insert(old, i as u64);
            logged += 1;
        }
        if i % 5 == 0 && index.remove(&old).unwrap().is_some() {
            model.remove(&old);
            logged += 1;
        }
    }
    drop(index); // crash; group size 1 committed every record
    let (back, report) = reopen(dir.path(), 32);
    assert_eq!(report.replayed, logged);
    assert_matches_model(&back, &model);
    assert_eq!(back.index().write_stats(), EpochWriteStats::default());
    assert_eq!(back.index().epoch_stats().retired_total, 0);
}

#[test]
fn recovery_survives_repeated_crashes_with_further_writes() {
    // Crash, recover, write more, crash again — LSNs must keep
    // rising monotonically across generations and the journal oracle
    // must hold at every generation.
    let dir = TempDir::new("recovery-generations");
    let mut rng = StdRng::seed_from_u64(0x6E6E);
    let mut journal = Vec::new();
    let index = DurableAlex::create(dir.path(), &[], config(1), opts(1)).unwrap();
    apply_random_ops(&index, &mut rng, 120, &mut journal);
    drop(index);
    let mut last = 0;
    for generation in 0..4 {
        let (back, report) = reopen(dir.path(), 1);
        assert!(report.last_lsn >= last, "LSNs must not regress");
        assert_matches_model(&back, &model_prefix(&journal, report.last_lsn));
        apply_random_ops(&back, &mut rng, 120, &mut journal);
        if generation % 2 == 0 {
            back.snapshot().unwrap();
        }
        last = back.last_lsn();
        drop(back);
    }
}

// ----------------------------------------------------------------------
// Property: for arbitrary op sequences and every delta-buffer
// capacity, a flushed index reopens to exactly the model.
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum DurOp {
    Insert(u64, u64),
    Upsert(u64, u64),
    Update(u64, u64),
    Remove(u64),
}

fn dur_op_strategy() -> impl Strategy<Value = DurOp> {
    let key = 0u64..300;
    let val = 0u64..10_000;
    prop_oneof![
        4 => (key.clone(), val.clone()).prop_map(|(k, v)| DurOp::Insert(k, v)),
        2 => (key.clone(), val.clone()).prop_map(|(k, v)| DurOp::Upsert(k, v)),
        2 => (key.clone(), val).prop_map(|(k, v)| DurOp::Update(k, v)),
        2 => key.prop_map(DurOp::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recovery_matches_model_across_delta_capacities(
        ops in prop::collection::vec(dur_op_strategy(), 1..250),
    ) {
        for cap in [0usize, 1, 32] {
            let dir = TempDir::new("recovery-prop");
            let index = DurableAlex::create(dir.path(), &[], config(cap), opts(1)).unwrap();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for op in &ops {
                match *op {
                    DurOp::Insert(k, v) => {
                        let landed = index.insert(k, v).unwrap();
                        prop_assert_eq!(landed, !model.contains_key(&k), "cap {}", cap);
                        if landed {
                            model.insert(k, v);
                        }
                    }
                    DurOp::Upsert(k, v) => {
                        let old = index.upsert(k, v).unwrap();
                        prop_assert_eq!(old, model.insert(k, v), "cap {}", cap);
                    }
                    DurOp::Update(k, v) => {
                        let old = index.update(&k, v).unwrap();
                        let expected = match model.entry(k) {
                            std::collections::btree_map::Entry::Occupied(mut e) => {
                                Some(e.insert(v))
                            }
                            std::collections::btree_map::Entry::Vacant(_) => None,
                        };
                        prop_assert_eq!(old, expected, "cap {}", cap);
                    }
                    DurOp::Remove(k) => {
                        prop_assert_eq!(index.remove(&k).unwrap(), model.remove(&k), "cap {}", cap);
                    }
                }
            }
            drop(index); // group size 1: nothing is volatile
            let (back, _) = reopen(dir.path(), cap);
            prop_assert_eq!(back.len(), model.len(), "cap {}", cap);
            let mut got = Vec::new();
            back.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
            let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, expect, "cap {}", cap);
        }
    }
}
