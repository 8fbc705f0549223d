//! The four workloads and the steps they share.

pub mod durable_ingest;
pub mod read_large;
pub mod serve;
pub mod write_heavy;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use alex_btree::BPlusTree;
use alex_core::{AlexConfig, AlexIndex, AlexKey, EpochAlex, SizeReport};
use alex_learned_index::LearnedIndex;
use alex_sharded::ShardedAlex;
use alex_wal::{DurableAlex, DurableKey};

use crate::measure::{self, LoopSpec, LoopStats, Reference};
use crate::report::Check;
use crate::rng::{mix, Rng};
use crate::trace::Tracer;

/// Every run of a workload uses the same key set, as the paper's
/// experiments run on fixed datasets; `--seed` draws the operation
/// traces, the order of inserts and the arrival schedules. A key set
/// drawn per seed would add its own run-to-run spread to every metric.
pub const DATASET_SEED: u64 = 0xA1E7_DA7A;
/// Bytes of one stored pair: an 8-byte key and an 8-byte payload.
pub const PAIR_BYTES: f64 = 16.0;
/// Sizes of the traced run's per-layer probes (before `--scale`).
const PROBE_GETS: usize = 200_000;
const HOT_KEYS: usize = 4096;
const PROBE_SCANS: usize = 20_000;
/// Held-out keys each workload keeps for the traced run's insert probe.
const PROBE_INSERTS: usize = 50_000;
/// Keys visited by one scan: uniform in `1..=MAX_SCAN`.
const MAX_SCAN: usize = 100;

/// Everything one benchmark run carries between its steps.
pub struct Run {
    pub seed: u64,
    /// Seconds of measurement, split across each workload's phases.
    pub seconds: f64,
    /// Size factor for key sets, traces and probes: 1, or 0.01 for a
    /// smoke run.
    pub scale: f64,
    pub tracer: Tracer,
    /// Measured after every timed window; scales the end-to-end times.
    pub reference: Reference,
    pub check: Check,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// A directory inside the checkout for files the run writes.
    pub run_dir: PathBuf,
}

impl Run {
    /// `n` at this run's scale.
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(1)
    }

    /// Held-out keys to keep for the insert probe.
    pub fn probe_inserts(&self) -> usize {
        self.scaled(PROBE_INSERTS)
    }

    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.seed, stream)
    }

    /// A deadline `share` of the run's seconds from now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }

    pub fn traced(&self) -> bool {
        self.tracer.on()
    }

    /// Record the layer metrics a workload has no layer for, so every
    /// run reports every metric: no work was done there.
    pub fn zero_layers(&mut self, names: &[&'static str]) {
        for name in names {
            self.layer.insert(name, 0.0);
        }
    }
}

/// The key types the workloads use.
pub trait BenchKey: AlexKey + alex_learned_index::Key {
    fn bits(self) -> u64;
}

impl BenchKey for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl BenchKey for u64 {
    fn bits(self) -> u64 {
        self
    }
}

/// The payload stored under `key`, so every response has a known
/// answer.
#[inline]
pub fn payload<K: BenchKey>(key: K) -> u64 {
    mix(key.bits())
}

pub fn sorted<K: BenchKey>(mut keys: Vec<K>) -> Vec<K> {
    keys.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("generated keys are totally ordered")
    });
    keys
}

pub fn pairs_of<K: BenchKey>(sorted_keys: &[K]) -> Vec<(K, u64)> {
    sorted_keys.iter().map(|&k| (k, payload(k))).collect()
}

/// What the shared steps need from an index: checked point calls, the
/// core's read counters, and ordered scans.
pub trait Index<K> {
    fn get(&self, key: &K) -> Option<u64>;
    /// Insert a key that is not stored yet; `false` if refused.
    fn insert(&mut self, key: K, value: u64) -> bool;
    /// The core's `(lookups, comparisons, direct_hits)` counters.
    fn read_stats(&self) -> (u64, u64, u64);
    fn scan_with(&self, start: &K, limit: usize, f: impl FnMut(&K, &u64)) -> usize;
}

impl<K: BenchKey> Index<K> for AlexIndex<K, u64> {
    fn get(&self, key: &K) -> Option<u64> {
        AlexIndex::get(self, key).copied()
    }
    fn insert(&mut self, key: K, value: u64) -> bool {
        AlexIndex::insert(self, key, value).is_ok()
    }
    fn read_stats(&self) -> (u64, u64, u64) {
        AlexIndex::read_stats(self)
    }
    fn scan_with(&self, start: &K, limit: usize, f: impl FnMut(&K, &u64)) -> usize {
        self.scan_from(start, limit, f)
    }
}

impl<K: BenchKey> Index<K> for &EpochAlex<K, u64> {
    fn get(&self, key: &K) -> Option<u64> {
        EpochAlex::get(self, key)
    }
    fn insert(&mut self, key: K, value: u64) -> bool {
        EpochAlex::insert(self, key, value).is_ok()
    }
    fn read_stats(&self) -> (u64, u64, u64) {
        EpochAlex::read_stats(self)
    }
    fn scan_with(&self, start: &K, limit: usize, f: impl FnMut(&K, &u64)) -> usize {
        self.scan_from(start, limit, f)
    }
}

impl<K: BenchKey> Index<K> for ShardedAlex<K, u64> {
    fn get(&self, key: &K) -> Option<u64> {
        ShardedAlex::get(self, key)
    }
    fn insert(&mut self, key: K, value: u64) -> bool {
        ShardedAlex::insert(self, key, value).is_ok()
    }
    fn read_stats(&self) -> (u64, u64, u64) {
        self.shard_read_stats().iter().fold((0, 0, 0), |a, s| {
            (a.0 + s.lookups, a.1 + s.comparisons, a.2 + s.direct_hits)
        })
    }
    fn scan_with(&self, start: &K, limit: usize, f: impl FnMut(&K, &u64)) -> usize {
        self.scan_from(start, limit, f)
    }
}

impl<K: BenchKey + DurableKey> Index<K> for DurableAlex<K, u64> {
    fn get(&self, key: &K) -> Option<u64> {
        DurableAlex::get(self, key)
    }
    fn insert(&mut self, key: K, value: u64) -> bool {
        matches!(DurableAlex::insert(self, key, value), Ok(true))
    }
    fn read_stats(&self) -> (u64, u64, u64) {
        self.index().read_stats()
    }
    fn scan_with(&self, start: &K, limit: usize, f: impl FnMut(&K, &u64)) -> usize {
        self.scan_from(start, limit, f)
    }
}

/// Scan starts (positions into the sorted key set) and lengths.
pub fn scan_trace(rng: &mut Rng, keys: usize, count: usize) -> Vec<(u32, u8)> {
    (0..count)
        .map(|_| (rng.below(keys) as u32, (1 + rng.below(MAX_SCAN)) as u8))
        .collect()
}

/// The known answer to one scan of the trace: `limit` pairs from
/// `all[pos]`, where `all` is the index's sorted key set. Feed it the
/// pairs the scan returned, in order.
pub struct ScanCheck<'a, K> {
    want: &'a [K],
    pub limit: usize,
    seen: usize,
    ok: bool,
}

impl<'a, K: BenchKey> ScanCheck<'a, K> {
    pub fn new(all: &'a [K], (pos, limit): (u32, u8)) -> Self {
        let (pos, limit) = (pos as usize, limit as usize);
        ScanCheck {
            want: &all[pos..(pos + limit).min(all.len())],
            limit,
            seen: 0,
            ok: true,
        }
    }

    pub fn start(&self) -> &'a K {
        &self.want[0]
    }

    pub fn visit(&mut self, key: &K, value: &u64) {
        self.ok &= self.want.get(self.seen) == Some(key) && *value == payload(*key);
        self.seen += 1;
    }

    /// Whether exactly the expected pairs were visited.
    pub fn passed(&self) -> bool {
        self.ok && self.seen == self.want.len()
    }

    /// Keys the scan should return.
    pub fn keys(&self) -> usize {
        self.want.len()
    }
}

/// Run one scan of `index` and check it key for key; the keys visited.
fn checked_scan<K: BenchKey>(
    index: &impl Index<K>,
    all: &[K],
    scan: (u32, u8),
    check: &mut Check,
) -> usize {
    let mut scan = ScanCheck::new(all, scan);
    let visited = index.scan_with(scan.start(), scan.limit, |k, v| scan.visit(k, v));
    check.expect(scan.passed());
    visited
}

/// Timed short range scans over `index`, whose contents must be
/// exactly `sorted_keys` with their payloads. Each scan is checked key
/// for key. Sets `scan_keys_per_s`.
pub fn scan_phase<K: BenchKey>(
    run: &mut Run,
    index: &impl Index<K>,
    sorted_keys: &[K],
    share: f64,
) -> LoopStats {
    let trace = scan_trace(&mut run.rng(90), sorted_keys.len(), 1 << 18);
    let spec = LoopSpec {
        window_ops: 1 << 14,
        max_ops: usize::MAX,
        deadline: Some(run.deadline(share)),
    };
    let check = &mut run.check;
    let stats = measure::timed_loop(
        &spec,
        &mut run.tracer,
        &mut run.reference,
        "phase.scan",
        |i| {
            let visited = checked_scan(index, sorted_keys, trace[i % trace.len()], check);
            ("core.scan", visited as u64)
        },
    );
    run.e2e.insert("scan_keys_per_s", stats.median_rate());
    stats
}

/// The end-to-end throughput and latency metrics of a timed loop.
pub fn report_loop(run: &mut Run, stats: &LoopStats) {
    run.e2e.insert("ops_per_s", stats.median_rate());
    run.e2e
        .insert("p50_us", stats.median_quantile_ns(0.50) / 1e3);
    run.layer
        .insert("latency.p95_us", stats.median_quantile_ns(0.95) / 1e3);
    run.layer
        .insert("latency.p99_us", stats.median_quantile_ns(0.99) / 1e3);
    run.layer
        .insert("latency.p999_us", stats.median_quantile_ns(0.999) / 1e3);
}

/// `index_bytes`, `space_amp` and the core's shape.
pub fn report_sizes(run: &mut Run, size: SizeReport, len: usize) {
    run.e2e.insert("index_bytes", size.index_bytes as f64);
    run.e2e.insert(
        "space_amp",
        (size.index_bytes + size.data_bytes) as f64 / (len as f64 * PAIR_BYTES),
    );
    run.layer.insert("core.leaves", size.num_data_nodes as f64);
    run.layer
        .insert("core.inner_nodes", size.num_inner_nodes as f64);
    run.layer.insert("core.data_bytes", size.data_bytes as f64);
}

pub fn report_rss(run: &mut Run) {
    run.e2e.insert("peak_rss_mb", measure::peak_rss_mb());
}

/// Time each call of `op` over `keys`; return (mean ns, p99 ns) at the
/// reference speed measured before and after.
fn time_each<K: Copy>(reference: &mut Reference, keys: &[K], mut op: impl FnMut(K)) -> (f64, f64) {
    let mut samples = Vec::with_capacity(keys.len());
    let before = reference.speed();
    for &k in keys {
        let t0 = Instant::now();
        op(k);
        samples.push(measure::nanos_u32(t0.elapsed()));
    }
    let speed = (before + reference.speed()) / 2.0;
    let mean = samples.iter().map(|&s| f64::from(s)).sum::<f64>() / samples.len().max(1) as f64;
    (mean * speed, measure::quantile(&samples, 0.99) * speed)
}

/// Keys the per-layer get probes look up: uniform picks from `present`.
pub fn probe_keys<K: BenchKey>(run: &Run, present: &[K]) -> Vec<K> {
    let mut rng = run.rng(91);
    (0..run.scaled(PROBE_GETS))
        .map(|_| present[rng.below(present.len())])
        .collect()
}

/// The traced run's probes of the index under the workload, whose
/// contents must be `all` (sorted): point gets (uniform and on a hot
/// set) with the core's read counters over the uniform ones, short
/// scans, then inserts of never-stored keys.
pub fn probe_index<K: BenchKey>(
    run: &mut Run,
    index: &mut impl Index<K>,
    all: &[K],
    probe: &[K],
    fresh: &[K],
) {
    let scans = scan_trace(&mut run.rng(92), all.len(), run.scaled(PROBE_SCANS));
    let (check, reference) = (&mut run.check, &mut run.reference);
    let before = index.read_stats();
    let (get_ns, get_p99) = time_each(reference, probe, |k| {
        check.expect(index.get(&k) == Some(payload(k)))
    });
    let after = index.read_stats();
    let lookups = (after.0 - before.0).max(1) as f64;
    let hot: Vec<K> = probe[..HOT_KEYS.min(probe.len())]
        .iter()
        .copied()
        .cycle()
        .take(probe.len())
        .collect();
    let (hot_ns, _) = time_each(reference, &hot, |k| {
        check.expect(index.get(&k) == Some(payload(k)))
    });
    let (scanned, scan_s) = measure::paced(reference, || {
        scans
            .iter()
            .map(|&scan| checked_scan(&*index, all, scan, check))
            .sum::<usize>()
    });
    let (insert_ns, insert_p99) = time_each(reference, fresh, |k| {
        check.expect(index.insert(k, payload(k)))
    });
    for k in fresh {
        check.expect(index.get(k) == Some(payload(*k)));
    }
    run.layer.insert("core.get_ns", get_ns);
    run.layer.insert("core.get_p99_ns", get_p99);
    run.layer.insert("core.get_hot_ns", hot_ns);
    run.layer
        .insert("core.scan_ns_per_key", scan_s * 1e9 / scanned.max(1) as f64);
    run.layer.insert("core.insert_ns", insert_ns);
    run.layer.insert("core.insert_p99_ns", insert_p99);
    run.layer.insert(
        "core.comparisons_per_lookup",
        (after.1 - before.1) as f64 / lookups,
    );
    run.layer.insert(
        "core.direct_hit_frac",
        (after.2 - before.2) as f64 / lookups,
    );
}

/// The core's share of a set-up that does more than bulk-load it: one
/// bulk load of the same pairs alone.
pub fn probe_bulk_load<K: BenchKey>(run: &mut Run, pairs: &[(K, u64)], config: AlexConfig) {
    let (index, secs) = measure::paced(&mut run.reference, || AlexIndex::bulk_load(pairs, config));
    drop(index);
    run.layer.insert("core.bulk_load_s", secs);
}

/// The traced run's reference points, built on the workload's initial
/// pairs and probed with the same keys: gets and inserts on the B+Tree
/// and the Learned Index baselines (fanout 128 and `n / 1000` models,
/// the middle of `fig4`'s grids).
pub fn probe_baselines<K: BenchKey>(run: &mut Run, pairs: &[(K, u64)], probe: &[K], fresh: &[K]) {
    let (check, reference) = (&mut run.check, &mut run.reference);
    let mut btree = BPlusTree::bulk_load(pairs, 128, 128, 0.7);
    let (btree_get, _) = time_each(reference, probe, |k| {
        check.expect(btree.get(&k) == Some(&payload(k)))
    });
    let (btree_insert, _) = time_each(reference, fresh, |k| {
        check.expect(btree.insert(k, payload(k)).is_none())
    });
    drop(btree);
    let learned = LearnedIndex::bulk_load(pairs, (pairs.len() / 1000).max(4));
    let (learned_get, _) = time_each(reference, probe, |k| {
        check.expect(learned.get(&k) == Some(&payload(k)))
    });
    run.layer.insert("btree.get_ns", btree_get);
    run.layer.insert("btree.insert_ns", btree_insert);
    run.layer.insert("learned_index.get_ns", learned_get);
}

/// Write counters of an exclusive-regime core, per insert of the main
/// phase.
pub fn report_write_stats(run: &mut Run, stats: alex_core::WriteStats) {
    run.layer
        .insert("core.shifts_per_insert", stats.shifts_per_insert());
    run.layer.insert("core.expansions", stats.expansions as f64);
    run.layer.insert("core.splits", stats.splits as f64);
    run.layer.insert("core.retrains", stats.retrains as f64);
}

/// Write counters of a shared-regime core (`EpochAlex`) over `writes`
/// point writes.
pub fn report_epoch_writes(run: &mut Run, stats: alex_core::EpochWriteStats, writes: u64) {
    let writes = writes.max(1) as f64;
    run.layer.insert(
        "core.leaf_clones_per_write",
        stats.leaf_clones as f64 / writes,
    );
    run.layer
        .insert("core.delta_hit_frac", stats.delta_hits as f64 / writes);
}

/// Every workload: input generation time.
pub fn report_gen(run: &mut Run, gen_s: f64) {
    run.layer.insert("datasets.gen_s", gen_s);
}

/// Layers the in-process (no server, no WAL) workloads do not touch.
pub const NO_SERVER: &[&str] = &[
    "server.overhead_frac",
    "server.max_rate_under_slo",
    "server.batch_occupancy_mean",
    "server.queue_depth_mean",
    "server.queue_depth_max",
    "server.get_run_frac",
    "server.insert_run_frac",
    "server.singleton_frac",
    "loadgen.late_frac",
];
pub const NO_WAL: &[&str] = &[
    "wal.time_frac",
    "wal.syncs_per_op",
    "wal.bytes_per_user_byte",
    "wal.snapshot_frac",
    "wal.replayed",
];
pub const NO_EPOCH: &[&str] = &["core.leaf_clones_per_write", "core.delta_hit_frac"];
/// `EpochAlex` and `ShardedAlex` do not expose the core's `WriteStats`.
pub const NO_WRITE_STATS: &[&str] = &[
    "core.shifts_per_insert",
    "core.expansions",
    "core.splits",
    "core.retrains",
];
