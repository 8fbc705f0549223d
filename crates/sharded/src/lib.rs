//! # `alex-sharded`: a sharded concurrent front-end for ALEX
//!
//! The ALEX paper (§7) names concurrency as the main follow-up: the
//! single-threaded index serves one writer at a time. This crate
//! range-partitions the key space across `N` independent shards with
//! boundaries drawn from a **sample CDF** of the bulk-load keys (the
//! same empirical-quantile trick as `alex_datasets::cdf`), so skewed
//! datasets (lognormal, longlat) still balance.
//!
//! ## One sharded type, two shard kinds
//!
//! [`Sharded<K, S>`](Sharded) holds the shards and the boundary vector
//! and is written once over a sealed [`Shard`] trait: routing, every
//! read (`get`, `contains`, `get_many`, `scan_from`, `len`), the
//! aggregated stats and the rebalance planner go through each shard's
//! [`EpochAlex`]. Only the writes differ by shard kind:
//!
//! - [`ShardedAlex<K, V>`](ShardedAlex) shards are plain
//!   [`EpochAlex`] indexes held in memory; writes return
//!   [`InsertError`] and the index can be rebalanced in place.
//! - [`DurableShardedAlex<K, V>`](DurableShardedAlex) shards are
//!   [`DurableAlex`] indexes, each with its own `alex-wal` write-ahead
//!   log and snapshots under one directory; writes are logged and
//!   return `io::Result` (see the [`durable`] module docs).
//!
//! ## Lock-free shards
//!
//! Every shard reads through an [`EpochAlex`]: it is bulk-loaded as an exclusive
//! `AlexIndex` on the dense store, then moved to the epoch store.
//! Readers pin an epoch and descend the RMI with **no lock at all**,
//! wait-free with respect to node splits; writers serialize per shard
//! on an internal mutex and publish copy-on-write replacements through
//! the epoch machinery (`alex_core::epoch`). Replaced nodes are
//! retired and freed only once no pinned reader can still hold them.
//! Readers never block, so split-induced tail latency stays off the
//! read path. The price is memory: copy-on-write keeps retired nodes
//! alive until epochs turn, and delta buffers add a bounded
//! side-array per leaf. The test suites check this front-end against
//! `BTreeMap` and `alex_api::baseline::LockedBTreeMap`.
//!
//! ## Epoch write amortization (delta buffers + run-level CoW)
//!
//! Shard writes do not clone a whole leaf per key. A point
//! write lands in the owning leaf's bounded **delta buffer** — a
//! sorted side-array published alongside the immutable leaf snapshot
//! (capacity via [`AlexConfig::with_delta_buffer`]; `0` restores
//! clone-per-write) — and the buffer is folded into a fresh gapped
//! array only when it fills or the leaf splits; each flush retires
//! the replaced leaf node to the epoch garbage list, exactly like any
//! other publication. Readers merge base + buffer on the fly, so a
//! buffered write is visible the instant it is published.
//! [`ShardedAlex::bulk_insert`] additionally groups each shard's
//! sorted run by owning leaf and clones/publishes once per run.
//! [`Sharded::write_stats`] aggregates the per-shard
//! `leaf_clones` / `delta_hits` / `flushes` counters that prove the
//! amortization (see the `fig_write_amp` bench bin).
//!
//! [`ShardedAlex`] implements the full `alex-api` trait family:
//! [`IndexRead`] plus [`ConcurrentIndex`] (shared access, used by the
//! multi-threaded driver `run_workload_mt`), with [`IndexWrite`]
//! delegating `&mut self` calls to the `&self` surface and
//! [`BatchOps`] routed to the native per-shard sorted-run paths.
//!
//! ## Read-skew rebalancing
//!
//! Boundaries drawn from the bulk-load CDF equalize *key counts*, not
//! *traffic*: under a zipfian read mix one shard can absorb most
//! lookups while its neighbours idle. [`Sharded::rebalance_plan`]
//! turns the per-shard lookup counters
//! ([`Sharded::shard_read_stats`]) into a
//! replacement boundary set that equalizes estimated lookup mass, and
//! [`ShardedAlex::apply_rebalance`] restages the whole index in one
//! ordered pass: each new shard is staged and bulk-loaded exactly
//! once, and each source shard is dropped as soon as its keys are
//! consumed, so the transient footprint is one staged shard — never a
//! second copy of the index — and the work is linear in the key count
//! (a tombstone-based band drain would clone the shrinking source
//! leaf once per flush, quadratic in band length). A durable store's
//! boundaries are fixed when it is created, so only the in-memory kind
//! applies a plan.
//!
//! **When to trigger it.** Rebalancing is a *maintenance operation*,
//! not a background daemon: call `rebalance_plan` after a
//! representative traffic window and apply it when the plan is
//! `Some` — the plan is `None` when there is no lookup signal (no
//! traffic yet), fewer than two shards, or the skew is too small to
//! move any boundary. `apply_rebalance` takes `&mut self`, so it runs
//! on a quiesced index: behind `alex-server`, between shutting one
//! server down and starting the next on the new boundaries. Typical
//! cadence: once after a workload shift — e.g. when
//! `shard_read_stats` shows the hottest shard taking several times
//! the mean — rather than on a timer.
//!
//! ## Consistency model
//! Every individual operation is atomic with respect to its shard.
//! A range scan that crosses shard boundaries visits one shard at a
//! time, so it observes each shard at a (possibly) different instant —
//! the usual relaxation for partitioned stores. The same relaxation
//! applies *within* a shard at leaf granularity: scans
//! walk immutable leaf snapshots, keys stay strictly increasing, and
//! every observed payload was live at some point (the property
//! `tests/epoch_concurrency.rs` stresses).
//!
//! ## Quickstart
//! ```
//! use alex_core::AlexConfig;
//! use alex_sharded::ShardedAlex;
//!
//! let data: Vec<(u64, u64)> = (0..100_000).map(|k| (k * 2, k)).collect();
//! let index = ShardedAlex::bulk_load(&data, 4, AlexConfig::ga_armi());
//! assert_eq!(index.num_shards(), 4);
//! assert_eq!(index.get(&20_000), Some(10_000));
//!
//! // Reads and writes take &self: share it across threads freely.
//! // These reads acquire no lock.
//! std::thread::scope(|s| {
//!     s.spawn(|| assert!(index.contains(&40_000)));
//!     s.spawn(|| assert!(index.insert(99, 99).is_ok()));
//! });
//! assert_eq!(index.get(&99), Some(99));
//! // At quiescence, every node retired by splits is reclaimable.
//! assert_eq!(index.flush_retired(), 0);
//! ```

pub mod durable;
pub use durable::DurableShardedAlex;

use alex_api::{
    check_batch_keys, is_sorted_ignoring_nan, BatchOps, ConcurrentIndex, IndexRead, IndexWrite,
    InsertError, SentinelKey,
};
use alex_core::stats::SizeReport;
use alex_core::{AlexConfig, AlexKey, EpochAlex, EpochStats, EpochWriteStats};
use alex_datasets::cdf_points;
use alex_wal::{DurableAlex, DurableKey, WalCodec};

/// One shard's read-counter snapshot (see
/// [`Sharded::shard_read_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReadStats {
    /// Lookups served by this shard.
    pub lookups: u64,
    /// Key comparisons across those lookups.
    pub comparisons: u64,
    /// Lookups that hit the model-predicted slot directly.
    pub direct_hits: u64,
}

/// A proposed replacement boundary set computed by
/// [`Sharded::rebalance_plan`] from per-shard lookup skew. Apply
/// it with [`ShardedAlex::apply_rebalance`]; see the crate docs'
/// *Read-skew rebalancing* section for when to trigger one.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancePlan<K> {
    /// Strictly increasing replacement for
    /// [`Sharded::boundaries`] (same length, so the shard count is
    /// preserved).
    pub boundaries: Vec<K>,
    /// The per-shard lookup counts the plan was computed from
    /// (diagnostics; also what tests assert skew against).
    pub shard_lookups: Vec<u64>,
}

/// What one [`ShardedAlex::apply_rebalance`] call moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Entries that ended up in a different shard than the one that
    /// owned them before the boundary switch.
    pub moved_keys: usize,
    /// Contiguous key bands those entries moved in: maximal key-order
    /// runs sharing one (source, destination) shard pair.
    pub bands: usize,
}

mod sealed {
    pub trait Sealed {}
}

/// A shard kind [`Sharded`] routes over: anything whose reads go
/// through an [`EpochAlex`]. Sealed; the two kinds are [`EpochAlex`]
/// itself and [`DurableAlex`].
pub trait Shard<K>: sealed::Sealed {
    /// The payload type.
    type Value: Clone + Default;

    /// The epoch index this shard reads through.
    fn index(&self) -> &EpochAlex<K, Self::Value>;
}

impl<K, V> sealed::Sealed for EpochAlex<K, V> {}

impl<K: AlexKey, V: Clone + Default> Shard<K> for EpochAlex<K, V> {
    type Value = V;

    #[inline]
    fn index(&self) -> &EpochAlex<K, V> {
        self
    }
}

impl<K, V> sealed::Sealed for DurableAlex<K, V> {}

impl<K: DurableKey, V: Clone + Default + WalCodec> Shard<K> for DurableAlex<K, V> {
    type Value = V;

    #[inline]
    fn index(&self) -> &EpochAlex<K, V> {
        DurableAlex::index(self)
    }
}

/// Range-partitioned ALEX shards of kind `S`, each read lock-free
/// through its [`EpochAlex`]. Use it through [`ShardedAlex`] (in
/// memory) or [`DurableShardedAlex`] (one WAL per shard).
///
/// See the [crate-level docs](crate) for the design and the
/// consistency model.
#[derive(Debug)]
pub struct Sharded<K, S> {
    shards: Vec<S>,
    /// `boundaries[i]` is the smallest key owned by shard `i + 1`
    /// (strictly increasing, `len() == shards.len() - 1`).
    boundaries: Vec<K>,
}

/// In-memory shards: each an [`EpochAlex`] with lock-free readers.
pub type ShardedAlex<K, V> = Sharded<K, EpochAlex<K, V>>;

impl<K: AlexKey, S: Shard<K>> Sharded<K, S> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard boundaries (shard `i + 1` owns keys `>= boundaries[i]`).
    pub fn boundaries(&self) -> &[K] {
        &self.boundaries
    }

    /// The shard that owns `key`.
    #[inline]
    fn shard_for(&self, key: &K) -> &S {
        &self.shards[route_key(&self.boundaries, key)]
    }

    /// Every shard's epoch index, in shard order.
    fn indexes(&self) -> impl Iterator<Item = &EpochAlex<K, S::Value>> {
        self.shards.iter().map(Shard::index)
    }

    /// Look up `key`, cloning the payload out of the shard. Takes no
    /// lock.
    pub fn get(&self, key: &K) -> Option<S::Value> {
        self.shard_for(key).index().get(key)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.shard_for(key).index().contains(key)
    }

    /// Visit up to `limit` entries with key `>= key` in order. Crosses
    /// shard boundaries (one shard at a time). Returns the number of
    /// entries visited.
    pub fn scan_from(&self, key: &K, limit: usize, mut f: impl FnMut(&K, &S::Value)) -> usize {
        let mut visited = 0usize;
        for shard in &self.shards[route_key(&self.boundaries, key)..] {
            if visited >= limit {
                break;
            }
            // Keys in later shards are all `>= key` (they sit above the
            // boundary that routed `key`), so the same lower bound works
            // in every shard.
            visited += shard.index().scan_from(key, limit - visited, &mut f);
        }
        visited
    }

    /// Sorted-batch lookup: keys are split into per-shard runs, each
    /// served by the shard's native `get_many` (one epoch pin per
    /// run).
    ///
    /// # Panics
    /// Panics (debug builds) if `keys` is not sorted non-decreasing,
    /// apart from NaN keys, which may sit anywhere and answer `None`.
    pub fn get_many(&self, keys: &[K]) -> Vec<Option<S::Value>> {
        debug_assert!(is_sorted_ignoring_nan(keys), "get_many input must be sorted");
        let mut out = Vec::with_capacity(keys.len());
        split_sorted_runs(&self.boundaries, keys, |k| k, |shard, run| {
            out.extend(self.shards[shard].index().get_many(run));
        });
        out
    }

    /// Total number of stored entries (sums shard lengths; each shard
    /// is read at a possibly different instant).
    pub fn len(&self) -> usize {
        self.indexes().map(EpochAlex::len).sum()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry counts per shard (load-balance diagnostics).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.indexes().map(EpochAlex::len).collect()
    }

    /// Aggregated §5.1 size accounting across shards.
    pub fn size_report(&self) -> SizeReport {
        let mut total = SizeReport::default();
        for r in self.indexes().map(EpochAlex::size_report) {
            total.index_bytes += r.index_bytes;
            total.data_bytes += r.data_bytes;
            total.num_data_nodes += r.num_data_nodes;
            total.num_inner_nodes += r.num_inner_nodes;
        }
        total
    }

    /// Aggregated epoch write-amplification counters across shards:
    /// full leaf clones, delta-buffer hits, and flushes.
    pub fn write_stats(&self) -> EpochWriteStats {
        let mut total = EpochWriteStats::default();
        for stats in self.indexes().map(EpochAlex::write_stats) {
            total.leaf_clones += stats.leaf_clones;
            total.delta_hits += stats.delta_hits;
            total.flushes += stats.flushes;
        }
        total
    }

    /// Aggregated epoch-reclamation counters across shards
    /// (`global_epoch` is the maximum over shards).
    pub fn epoch_stats(&self) -> EpochStats {
        let mut total = EpochStats::default();
        for stats in self.indexes().map(EpochAlex::epoch_stats) {
            total.global_epoch = total.global_epoch.max(stats.global_epoch);
            total.pending += stats.pending;
            total.retired_total += stats.retired_total;
            total.freed_total += stats.freed_total;
        }
        total
    }

    /// Drive every shard's retire list toward empty; returns the
    /// number of nodes still pending across shards. At quiescence (no
    /// concurrent readers) this reaches 0.
    pub fn flush_retired(&self) -> usize {
        self.indexes().map(EpochAlex::flush_retired).sum()
    }

    // ------------------------------------------------------------------
    // Read-skew rebalancing (see the crate docs)
    // ------------------------------------------------------------------

    /// Per-shard read counters, in shard order. Counters are advisory
    /// load signals (they ride leaf snapshots and relaxed atomics);
    /// take before/after snapshots to measure one traffic window.
    /// Writes never count as reads, whichever the shard kind.
    pub fn shard_read_stats(&self) -> Vec<ShardReadStats> {
        self.indexes()
            .map(|index| {
                let (lookups, comparisons, direct_hits) = index.read_stats();
                ShardReadStats {
                    lookups,
                    comparisons,
                    direct_hits,
                }
            })
            .collect()
    }

    /// Propose boundaries that equalize estimated lookup mass across
    /// shards, assuming lookups spread uniformly within each current
    /// shard (the per-shard counters are the only signal; there is no
    /// per-key histogram). Cut keys are found by rank through one
    /// in-order walk, so the plan costs `O(n)` time and `O(shards)`
    /// extra space.
    ///
    /// Returns `None` when there is nothing to do: fewer than two
    /// shards, no recorded lookups (no traffic yet), fewer stored keys
    /// than shards, or a plan
    /// identical to the current boundaries.
    pub fn rebalance_plan(&self) -> Option<RebalancePlan<K>> {
        let num_shards = self.shards.len();
        if num_shards < 2 {
            return None;
        }
        let lookups: Vec<u64> = self.indexes().map(|index| index.read_stats().0).collect();
        let total: u64 = lookups.iter().sum();
        if total == 0 {
            return None;
        }
        let lens = self.shard_lens();
        let total_len: usize = lens.iter().sum();
        if total_len < num_shards {
            return None;
        }

        // Global ranks where cumulative estimated mass crosses each
        // multiple of the per-shard target.
        let target = total as f64 / num_shards as f64;
        let num_cuts = num_shards - 1;
        let mut cuts: Vec<usize> = Vec::with_capacity(num_cuts);
        let mut shard = 0usize;
        let mut mass_before = 0f64; // lookup mass below `shard`
        let mut offset = 0usize; // global rank of `shard`'s first key
        for j in 1..num_shards {
            let want = j as f64 * target;
            while shard + 1 < num_shards && mass_before + lookups[shard] as f64 <= want {
                mass_before += lookups[shard] as f64;
                offset += lens[shard];
                shard += 1;
            }
            let mass = lookups[shard] as f64;
            let frac = if mass > 0.0 {
                ((want - mass_before) / mass).clamp(0.0, 1.0)
            } else {
                0.0
            };
            cuts.push(offset + (frac * lens[shard] as f64) as usize);
        }
        // Monotonize: each cut strictly above the previous one, and
        // low/high enough that every shard keeps at least one key.
        let mut prev = 0usize;
        for (i, cut) in cuts.iter_mut().enumerate() {
            *cut = (*cut).max(prev + 1).min(total_len - (num_cuts - i));
            prev = *cut;
        }

        // One in-order walk across shards turns ranks into keys.
        let mut boundaries: Vec<K> = Vec::with_capacity(num_cuts);
        let mut rank = 0usize;
        let mut next_cut = 0usize;
        for index in self.indexes() {
            if next_cut >= cuts.len() {
                break;
            }
            index.leaf_snapshots(|pairs| {
                for (k, _) in pairs {
                    if next_cut < cuts.len() && rank == cuts[next_cut] {
                        boundaries.push(*k);
                        next_cut += 1;
                    }
                    rank += 1;
                }
            });
        }
        // Concurrent removals can shrink shards under the walk; a
        // partial boundary set is not a usable plan.
        if boundaries.len() != num_cuts || boundaries == self.boundaries {
            return None;
        }
        Some(RebalancePlan {
            boundaries,
            shard_lookups: lookups,
        })
    }
}

impl<K: AlexKey, V: Clone + Default> ShardedAlex<K, V> {
    /// Bulk-load `pairs` (sorted, strictly increasing by key) into
    /// `num_shards` shards with boundaries drawn from the sample CDF.
    ///
    /// Duplicate quantiles (heavily skewed data with few distinct
    /// sample points) are merged, so the effective shard count can be
    /// lower than requested.
    ///
    /// # Panics
    /// Panics if `num_shards == 0`, or (debug builds) if `pairs` is not
    /// strictly increasing by key.
    pub fn bulk_load(pairs: &[(K, V)], num_shards: usize, config: AlexConfig) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let boundaries = sample_cdf_boundaries(pairs, num_shards);
        let runs = shard_runs(pairs, &boundaries);
        let shards = runs.into_iter().map(|run| EpochAlex::bulk_load(run, config)).collect();
        Self { shards, boundaries }
    }

    /// Bulk-load from an iterator of **globally sorted blocks** (each
    /// block sorted, every key in block `i+1` greater than every key in
    /// block `i`) — e.g. `alex_datasets::SortedBlocks`. Only one
    /// shard's worth of pairs is buffered at a time, so loads never
    /// need the whole dataset in one `Vec`.
    ///
    /// `boundaries` must be strictly increasing; shard `i + 1` owns
    /// keys `>= boundaries[i]`. The final shard count is always
    /// `boundaries.len() + 1`, including the corners: empty blocks
    /// yield that many empty shards, and blocks whose keys all fall
    /// below the first (or above the last) boundary leave the other
    /// shards empty.
    ///
    /// # Panics
    /// Panics — in **all** build profiles — if `boundaries` is not
    /// strictly increasing: a non-monotone boundary list silently
    /// corrupts routing (`route_key` binary-searches it), so the check
    /// is a release-mode `assert!`, O(boundaries) next to the O(keys)
    /// load. Non-globally-sorted blocks panic in debug builds only
    /// (the per-key check is on the streaming hot path).
    pub fn bulk_load_blocks(
        blocks: impl IntoIterator<Item = Vec<(K, V)>>,
        boundaries: Vec<K>,
        config: AlexConfig,
    ) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "shard boundaries must be strictly increasing"
        );
        let num_shards = boundaries.len() + 1;
        let mut shards: Vec<EpochAlex<K, V>> = Vec::with_capacity(num_shards);
        let mut buffer: Vec<(K, V)> = Vec::new();
        let mut prev_key: Option<K> = None;
        for block in blocks {
            for (key, value) in block {
                debug_assert!(
                    prev_key.is_none_or(|p| p < key),
                    "blocks must be globally sorted and strictly increasing"
                );
                prev_key = Some(key);
                while shards.len() < boundaries.len() && key >= boundaries[shards.len()] {
                    shards.push(EpochAlex::bulk_load(&buffer, config));
                    buffer.clear();
                }
                buffer.push((key, value));
            }
        }
        // Flush the tail and any remaining empty shards.
        while shards.len() < num_shards {
            shards.push(EpochAlex::bulk_load(&buffer, config));
            buffer.clear();
        }
        Self { shards, boundaries }
    }

    /// An empty index with `boundaries.len() + 1` shards split at
    /// `boundaries` (cold start; every shard grows by
    /// inserts/splits).
    ///
    /// # Panics
    /// Panics (all build profiles) if `boundaries` is not strictly
    /// increasing — see [`ShardedAlex::bulk_load_blocks`].
    pub fn new(boundaries: Vec<K>, config: AlexConfig) -> Self {
        Self::bulk_load_blocks(core::iter::empty(), boundaries, config)
    }

    /// Insert a pair; [`InsertError::DuplicateKey`] when present and
    /// [`InsertError::UnsupportedKey`] for the reserved sentinel or a
    /// NaN key. Takes `&self`: only the owning shard's writer is
    /// serialized.
    pub fn insert(&self, key: K, value: V) -> Result<(), InsertError> {
        self.shard_for(&key).insert(key, value)
    }

    /// Remove `key`, returning its payload.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard_for(key).remove(key)
    }

    /// Replace the payload of an existing key, returning the old value.
    pub fn update(&self, key: &K, value: V) -> Option<V> {
        self.shard_for(key).update(key, value)
    }

    /// Sorted-batch insert: pairs are split into per-shard runs, each
    /// served by the shard's native `bulk_insert`. Returns the number
    /// of pairs inserted (duplicates skipped).
    ///
    /// A batch with the reserved sentinel or a NaN anywhere in it is
    /// rejected up front with [`InsertError::UnsupportedKey`] and
    /// **nothing** is applied ([`check_batch_keys`]) — the check must
    /// happen before run-splitting, because per-shard refusal alone
    /// would leave the runs of the shards before the refusing one
    /// already visible.
    ///
    /// # Panics
    /// Panics (debug builds) if `pairs` is not sorted by key.
    pub fn bulk_insert(&self, pairs: &[(K, V)]) -> Result<usize, InsertError> {
        check_batch_keys(pairs)?;
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_insert input must be sorted by key"
        );
        let mut inserted = 0usize;
        split_sorted_runs(&self.boundaries, pairs, |(k, _)| k, |shard, run| {
            inserted += self.shards[shard]
                .bulk_insert(run)
                .expect("sentinel rejected up front, runs cannot fail");
        });
        Ok(inserted)
    }

    /// Apply a [`RebalancePlan`]: restage every shard under the new
    /// boundaries in one ordered pass, then switch the routing. Keys
    /// are drained from the old shards in global key order into a
    /// staging buffer that is bulk-loaded into a fresh shard each time
    /// the walk crosses a plan boundary; each old shard is dropped as
    /// soon as its keys are consumed. The transient footprint is one
    /// staged shard (the staging buffer is reused across flushes), and
    /// the work is linear in the total key count — unlike a
    /// remove-based band drain, whose tombstone flushes re-clone the
    /// shrinking source leaf once per buffer fill, O(band · leaf)
    /// copies. Requires `&mut self`: routing consults `boundaries` on
    /// every operation, so the switch must not race in-flight
    /// requests. `alex-server` wraps this in a drain → apply → restart
    /// maintenance op.
    ///
    /// # Panics
    /// Panics if the plan's boundary count differs from the current
    /// one or its boundaries are not strictly increasing (a
    /// hand-rolled plan; [`Sharded::rebalance_plan`] upholds
    /// both).
    pub fn apply_rebalance(&mut self, plan: &RebalancePlan<K>) -> RebalanceReport {
        assert_eq!(
            plan.boundaries.len(),
            self.boundaries.len(),
            "plan must preserve the shard count"
        );
        assert!(
            plan.boundaries.windows(2).all(|w| w[0] < w[1]),
            "plan boundaries must be strictly increasing"
        );
        // Every shard was built with the same config.
        let config = *self.shards[0].config();
        let num_shards = self.shards.len();

        let mut new_shards: Vec<EpochAlex<K, V>> = Vec::with_capacity(num_shards);
        let mut staging: Vec<(K, V)> = Vec::new();
        let mut report = RebalanceReport::default();
        // A band is a maximal run of moved keys sharing one
        // (source, destination) pair; the walk is in global key order,
        // so tracking the previous key's pair suffices to count runs.
        let mut prev_move: Option<(usize, usize)> = None;
        for src in 0..num_shards {
            // Take the source shard out so it can be freed the moment
            // its keys are staged — the peak holds one old shard plus
            // one staging buffer beyond the already-rebuilt prefix.
            let old = std::mem::replace(&mut self.shards[src], EpochAlex::bulk_load(&[], config));
            old.leaf_snapshots(|pairs| {
                for (k, v) in pairs {
                    while new_shards.len() < plan.boundaries.len()
                        && *k >= plan.boundaries[new_shards.len()]
                    {
                        new_shards.push(EpochAlex::bulk_load(&staging, config));
                        staging.clear();
                    }
                    let dst = new_shards.len();
                    if dst == src {
                        prev_move = None;
                    } else {
                        report.moved_keys += 1;
                        if prev_move != Some((src, dst)) {
                            report.bands += 1;
                        }
                        prev_move = Some((src, dst));
                    }
                    staging.push((*k, v.clone()));
                }
            });
            drop(old);
        }
        // Flush the tail, then top up with empty shards for any plan
        // boundaries the walk never reached.
        while new_shards.len() < num_shards {
            new_shards.push(EpochAlex::bulk_load(&staging, config));
            staging.clear();
        }
        self.shards = new_shards;
        self.boundaries = plan.boundaries.clone();
        report
    }
}

/// Which shard owns `key` under `boundaries` (shard `i + 1` owns keys
/// `>= boundaries[i]`) — the single routing rule behind every
/// [`Sharded`] index, whichever its shard kind, and behind external
/// routers such as `alex-server`'s request dispatcher. `boundaries`
/// must be strictly increasing.
#[inline]
pub fn route_key<K: PartialOrd>(boundaries: &[K], key: &K) -> usize {
    boundaries.partition_point(|b| b <= key)
}

/// Split a key-sorted slice into maximal per-shard runs under
/// `boundaries` and invoke `f` once per `(shard, run)` in ascending
/// shard order. This is the single place that pairs the `k < boundary`
/// run cut with [`route_key`]'s `boundary <= k` rule, so keys equal to
/// a boundary go to the same shard on both paths. `items` must be
/// sorted non-decreasing under `key_of`; an item that breaks the order
/// (a NaN) still lands in exactly one run, so the split always ends.
pub fn split_sorted_runs<'a, K: PartialOrd, T>(
    boundaries: &[K],
    items: &'a [T],
    key_of: impl Fn(&T) -> &K,
    mut f: impl FnMut(usize, &'a [T]),
) {
    let mut rest = items;
    while let Some(first) = rest.first() {
        let shard = route_key(boundaries, key_of(first));
        // A run holds at least its first item: a NaN first key routes
        // to some shard but is not below that shard's bound.
        let run_len = if shard < boundaries.len() {
            let bound = &boundaries[shard];
            rest.partition_point(|t| key_of(t) < bound).max(1)
        } else {
            rest.len()
        };
        let (run, tail) = rest.split_at(run_len);
        f(shard, run);
        rest = tail;
    }
}

/// Cut sorted `pairs` at `boundaries` into one run per shard, in
/// shard order (a run may be empty): the initial layout of
/// [`ShardedAlex::bulk_load`] and [`DurableShardedAlex::create`].
///
/// # Panics
/// Panics (debug builds) if `pairs` is not strictly increasing by key.
fn shard_runs<'a, K: PartialOrd, V>(pairs: &'a [(K, V)], boundaries: &[K]) -> Vec<&'a [(K, V)]> {
    debug_assert!(
        pairs.windows(2).all(|w| w[0].0 < w[1].0),
        "bulk-load input must be strictly increasing"
    );
    let mut runs = Vec::with_capacity(boundaries.len() + 1);
    let mut rest = pairs;
    for bound in boundaries {
        let (run, tail) = rest.split_at(rest.partition_point(|(k, _)| k < bound));
        runs.push(run);
        rest = tail;
    }
    runs.push(rest);
    runs
}

/// Shard boundaries from the sample CDF of sorted `pairs`: sample up to
/// 64Ki keys evenly by rank, then take the `num_shards - 1` interior
/// quantiles (via [`alex_datasets::cdf_points`]) and dedup. Public so
/// external front-ends (e.g. `alex-server`'s load generator) can derive
/// routing boundaries the same way [`ShardedAlex::bulk_load`] does.
///
/// The result is strictly increasing; shard `i + 1` owns keys
/// `>= boundaries[i]`. Duplicate-heavy input (repeated keys, or fewer
/// distinct sample points than shards) yields duplicate quantiles;
/// those are merged, so the shard count, `boundaries.len() + 1`, can
/// be **lower than requested**.
pub fn sample_cdf_boundaries<K: AlexKey, V>(pairs: &[(K, V)], num_shards: usize) -> Vec<K> {
    if num_shards <= 1 || pairs.len() < 2 {
        return Vec::new();
    }
    let stride = (pairs.len() / 65_536).max(1);
    let sample: Vec<K> = pairs.iter().step_by(stride).map(|p| p.0).collect();
    let points = cdf_points(&sample, (num_shards + 1).min(sample.len()));
    let mut boundaries: Vec<K> = points
        .into_iter()
        .skip(1)
        .take(num_shards - 1)
        .map(|(k, _)| k)
        .collect();
    boundaries.dedup_by(|a, b| a == b);
    boundaries
}

impl<K: AlexKey, V: Clone + Default> IndexRead<K, V> for ShardedAlex<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        ShardedAlex::get(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        ShardedAlex::contains(self, key)
    }

    fn scan_from(&self, key: &K, limit: usize, visit: &mut dyn FnMut(&K, &V)) -> usize {
        ShardedAlex::scan_from(self, key, limit, |k, v| visit(k, v))
    }

    fn len(&self) -> usize {
        ShardedAlex::len(self)
    }

    fn index_size_bytes(&self) -> usize {
        self.size_report().index_bytes
    }

    fn data_size_bytes(&self) -> usize {
        self.size_report().data_bytes
    }

    fn label(&self) -> String {
        format!("ShardedAlex[{}]", self.num_shards())
    }
}

impl<K, V> ConcurrentIndex<K, V> for ShardedAlex<K, V>
where
    K: AlexKey + Send + Sync,
    V: Clone + Default + Send + Sync,
{
    fn insert(&self, key: K, value: V) -> Result<(), InsertError> {
        ShardedAlex::insert(self, key, value)
    }

    fn remove(&self, key: &K) -> Option<V> {
        ShardedAlex::remove(self, key)
    }

    fn bulk_insert(&self, pairs: &[(K, V)]) -> Result<usize, InsertError>
    where
        K: SentinelKey + Clone,
        V: Clone,
    {
        // Native path: per-shard runs, and per-leaf runs within each
        // shard (one CoW publication per leaf run).
        ShardedAlex::bulk_insert(self, pairs)
    }
}

// Exclusive-access delegation (see `alex-api`'s crate docs for why a
// blanket impl cannot provide this): `&mut self` writes route through
// the internally synchronized `&self` paths.
impl<K, V> IndexWrite<K, V> for ShardedAlex<K, V>
where
    K: AlexKey + Send + Sync,
    V: Clone + Default + Send + Sync,
{
    fn insert(&mut self, key: K, value: V) -> Result<(), InsertError> {
        ConcurrentIndex::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        ConcurrentIndex::remove(self, key)
    }

    fn bulk_load(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError>
    where
        K: SentinelKey + Clone,
        V: Clone,
    {
        debug_assert!(ShardedAlex::is_empty(self), "bulk_load expects an empty index");
        ShardedAlex::bulk_insert(self, pairs)
    }
}

impl<K, V> BatchOps<K, V> for ShardedAlex<K, V>
where
    K: AlexKey + Send + Sync,
    V: Clone + Default + Send + Sync,
{
    fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        ShardedAlex::get_many(self, keys)
    }

    fn bulk_insert(&mut self, pairs: &[(K, V)]) -> Result<usize, InsertError>
    where
        K: SentinelKey + Clone,
        V: Clone,
    {
        ShardedAlex::bulk_insert(self, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_wal::tempdir::TempDir;
    use alex_wal::{SyncPolicy, WalOptions};

    fn pairs(n: u64, stride: u64) -> Vec<(u64, u64)> {
        (0..n).map(|k| (k * stride, k)).collect()
    }

    #[test]
    fn bulk_load_partitions_evenly_on_uniform_keys() {
        let index = ShardedAlex::bulk_load(&pairs(40_000, 2), 4, AlexConfig::ga_armi());
        assert_eq!(index.num_shards(), 4);
        assert_eq!(index.len(), 40_000);
        for len in index.shard_lens() {
            assert!((8000..=12_000).contains(&len), "shard sizes {:?}", index.shard_lens());
        }
    }

    #[test]
    fn get_routes_across_boundaries() {
        let index = ShardedAlex::bulk_load(&pairs(10_000, 3), 8, AlexConfig::ga_armi());
        for k in (0..10_000u64).step_by(7) {
            assert_eq!(index.get(&(k * 3)), Some(k), "key {}", k * 3);
            assert_eq!(index.get(&(k * 3 + 1)), None);
        }
    }

    #[test]
    fn insert_remove_update_roundtrip() {
        let index = ShardedAlex::bulk_load(&pairs(1000, 2), 4, AlexConfig::ga_armi());
        assert!(index.insert(1001, 7).is_ok());
        assert!(index.insert(1001, 8).is_err(), "duplicate must be rejected");
        assert_eq!(index.get(&1001), Some(7));
        assert_eq!(index.update(&1001, 9), Some(7));
        assert_eq!(index.remove(&1001), Some(9));
        assert_eq!(index.get(&1001), None);
        assert_eq!(index.len(), 1000);
    }

    #[test]
    fn scan_crosses_shard_boundaries() {
        let index = ShardedAlex::bulk_load(&pairs(10_000, 1), 4, AlexConfig::ga_armi());
        // Start 300 keys below the last shard boundary so the 500-entry
        // window must cross into the next shard.
        let boundary = index.boundaries()[2];
        let start = boundary - 300;
        let mut seen = Vec::new();
        let visited = index.scan_from(&start, 500, |k, _| seen.push(*k));
        assert_eq!(visited, 500);
        assert_eq!(seen, (start..start + 500).collect::<Vec<u64>>());
        assert!(start + 500 > boundary, "window must span two shards");
    }

    #[test]
    fn skewed_keys_still_balance_by_cdf() {
        // Cubic growth: uniform-domain splits would put almost
        // everything in shard 0; CDF splits keep shards comparable.
        let data: Vec<(u64, u64)> = (1..20_000u64).map(|k| (k * k * k, k)).collect();
        let index = ShardedAlex::bulk_load(&data, 4, AlexConfig::ga_armi());
        let lens = index.shard_lens();
        let max = *lens.iter().max().unwrap();
        let min = *lens.iter().min().unwrap();
        assert!(max < min * 2 + 64, "imbalanced shards {lens:?}");
    }

    #[test]
    fn get_many_and_bulk_insert_span_shards() {
        let index = ShardedAlex::bulk_load(&pairs(10_000, 4), 4, AlexConfig::ga_armi());
        let queries: Vec<u64> = (0..20_000u64).step_by(3).collect();
        let got = index.get_many(&queries);
        for (q, v) in queries.iter().zip(&got) {
            assert_eq!(*v, index.get(q), "key {q}");
        }
        let fresh: Vec<(u64, u64)> = (0..10_000u64).map(|k| (k * 4 + 1, k)).collect();
        assert_eq!(index.bulk_insert(&fresh), Ok(10_000));
        assert_eq!(index.bulk_insert(&fresh), Ok(0), "second pass is all duplicates");
        assert_eq!(index.len(), 20_000);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let index = ShardedAlex::bulk_load(&pairs(10_000, 2), 4, AlexConfig::ga_armi());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let index = &index;
                s.spawn(move || {
                    for k in 0..2000u64 {
                        // Reads of stable keys must always succeed.
                        assert_eq!(index.get(&(k * 2)), Some(k));
                        // Writes land in disjoint per-thread key ranges.
                        assert!(index.insert(100_000 + t * 10_000 + k, k).is_ok());
                    }
                });
            }
        });
        assert_eq!(index.len(), 10_000 + 4 * 2000);
        assert_eq!(index.flush_retired(), 0, "retire lists drain at quiescence");
    }

    #[test]
    fn route_key_and_split_sorted_runs_agree() {
        let boundaries = [10u64, 20, 30];
        assert_eq!(route_key(&boundaries, &0), 0);
        assert_eq!(route_key(&boundaries, &9), 0);
        assert_eq!(route_key(&boundaries, &10), 1, "boundary key belongs to the upper shard");
        assert_eq!(route_key(&boundaries, &29), 2);
        assert_eq!(route_key(&boundaries, &30), 3);
        let items: Vec<u64> = vec![1, 9, 10, 15, 30, 40];
        let mut runs = Vec::new();
        split_sorted_runs(&boundaries, &items, |k| k, |shard, run| {
            runs.push((shard, run.to_vec()));
        });
        assert_eq!(runs, vec![(0, vec![1, 9]), (1, vec![10, 15]), (3, vec![30, 40])]);
        // Every item routes to the shard its run was assigned.
        for (shard, run) in &runs {
            for k in run {
                assert_eq!(route_key(&boundaries, k), *shard);
            }
        }
    }

    #[test]
    fn split_sorted_runs_puts_a_nan_in_exactly_one_run() {
        // The NaN routes to shard 0 but is not below its bound, so a
        // run cut at the bound alone would be empty and never advance.
        let items = [10.25, f64::NAN, 500.0];
        let mut runs: Vec<(usize, Vec<f64>)> = Vec::new();
        split_sorted_runs(&[300.0], &items, |k| k, |shard, run| {
            assert!(runs.len() < items.len(), "more parts than items: {runs:?}");
            runs.push((shard, run.to_vec()));
        });
        assert!(runs.iter().all(|(_, run)| !run.is_empty()), "empty run: {runs:?}");
        let flat: Vec<u64> =
            runs.iter().flat_map(|(_, run)| run.iter().map(|k| k.to_bits())).collect();
        assert_eq!(flat, items.map(f64::to_bits), "every item once, in order: {runs:?}");
    }

    #[test]
    fn single_shard_degenerates_gracefully() {
        let index = ShardedAlex::bulk_load(&pairs(1000, 1), 1, AlexConfig::ga_armi());
        assert_eq!(index.num_shards(), 1);
        assert!(index.boundaries().is_empty());
        assert_eq!(index.get(&500), Some(500));
    }

    #[test]
    fn empty_and_cold_start() {
        let empty: ShardedAlex<u64, u64> = ShardedAlex::bulk_load(&[], 4, AlexConfig::ga_armi());
        assert!(empty.is_empty());
        assert_eq!(empty.get(&1), None);

        let cold: ShardedAlex<u64, u64> = ShardedAlex::new(vec![100, 200], AlexConfig::ga_armi());
        assert_eq!(cold.num_shards(), 3);
        for k in 0..300u64 {
            assert!(cold.insert(k, k).is_ok());
        }
        assert_eq!(cold.len(), 300);
        assert_eq!(cold.shard_lens(), vec![100, 100, 100]);
    }

    #[test]
    fn blocks_loading_matches_flat_loading() {
        let data = pairs(10_000, 3);
        let flat = ShardedAlex::bulk_load(&data, 4, AlexConfig::ga_armi());
        let blocks: Vec<Vec<(u64, u64)>> = data.chunks(777).map(|c| c.to_vec()).collect();
        let streamed =
            ShardedAlex::bulk_load_blocks(blocks, flat.boundaries().to_vec(), AlexConfig::ga_armi());
        assert_eq!(streamed.num_shards(), flat.num_shards());
        assert_eq!(streamed.shard_lens(), flat.shard_lens());
        for k in (0..10_000u64).step_by(11) {
            assert_eq!(streamed.get(&(k * 3)), Some(k));
        }
    }

    #[test]
    fn epoch_path_retires_nodes_under_split_churn() {
        let index: ShardedAlex<u64, u64> = ShardedAlex::new(
            vec![5000, 10_000],
            AlexConfig::ga_armi().with_max_node_keys(128).with_splitting(),
        );
        for k in 0..15_000u64 {
            assert!(index.insert(k, k * 7).is_ok());
        }
        let stats = index.epoch_stats();
        assert!(stats.retired_total > 0, "split churn must retire nodes");
        assert_eq!(index.flush_retired(), 0);
        let stats = index.epoch_stats();
        assert_eq!(stats.retired_total, stats.freed_total, "exactly-once reclamation");
        for k in (0..15_000u64).step_by(17) {
            assert_eq!(index.get(&k), Some(k * 7));
        }
    }

    #[test]
    fn duplicate_heavy_samples_report_boundary_collapse() {
        // Only 3 distinct keys, massively repeated: the interior
        // quantiles all land on the same few keys and dedup merges
        // them, so the caller gets fewer shards than requested.
        let mut dupes: Vec<(u64, u64)> = Vec::new();
        for k in [10u64, 20, 30] {
            dupes.extend(std::iter::repeat_n((k, k), 4000));
        }
        let boundaries = sample_cdf_boundaries(&dupes, 8);
        assert!(boundaries.len() + 1 < 8, "3 distinct keys cannot split 8 ways: {boundaries:?}");
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "deduped boundaries stay strictly increasing: {boundaries:?}"
        );
        // The index built from such keys reports the same shard count
        // (strictly increasing keys here, but too few of them).
        let tiny = pairs(3, 10);
        let boundaries = sample_cdf_boundaries(&tiny, 8);
        assert!(boundaries.len() + 1 < 8);
        let index = ShardedAlex::bulk_load(&tiny, 8, AlexConfig::ga_armi());
        assert_eq!(index.num_shards(), boundaries.len() + 1);
        // Abundant distinct keys: no collapse.
        assert_eq!(sample_cdf_boundaries(&pairs(10_000, 2), 8).len() + 1, 8);
    }

    #[test]
    #[should_panic(expected = "shard boundaries must be strictly increasing")]
    fn nonmonotone_boundaries_panic_in_every_profile() {
        // A release-mode assert, not a debug_assert: out-of-order
        // boundaries silently corrupt `route_key`'s binary search, so
        // this must panic under `--release` too (the CI stress job
        // runs tests in release mode).
        let _ = ShardedAlex::<u64, u64>::bulk_load_blocks(
            vec![vec![(1, 1)]],
            vec![50, 40],
            AlexConfig::ga_armi(),
        );
    }

    #[test]
    fn empty_blocks_with_boundaries_keep_the_shard_contract() {
        // Corner 1: no data at all — still boundaries.len() + 1 shards.
        let index: ShardedAlex<u64, u64> = ShardedAlex::bulk_load_blocks(
            core::iter::empty::<Vec<(u64, u64)>>(),
            vec![100, 200, 300],
            AlexConfig::ga_armi(),
        );
        assert_eq!(index.num_shards(), 4, "boundaries.len() + 1 even with no blocks");
        assert_eq!(index.shard_lens(), vec![0, 0, 0, 0]);
        // Routing still works: inserts land in the right shards.
        for k in [50u64, 150, 250, 350] {
            assert!(index.insert(k, k).is_ok());
        }
        assert_eq!(index.shard_lens(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn one_sided_blocks_with_boundaries_keep_the_shard_contract() {
        // Corner 2: all keys below the first boundary — the loop that
        // flushes shards on boundary crossings never fires, so the
        // tail flush must still produce every shard.
        let low: ShardedAlex<u64, u64> = ShardedAlex::bulk_load_blocks(
            vec![vec![(1, 1), (2, 2), (3, 3)]],
            vec![100, 200],
            AlexConfig::ga_armi(),
        );
        assert_eq!(low.num_shards(), 3);
        assert_eq!(low.shard_lens(), vec![3, 0, 0]);
        assert_eq!(low.get(&2), Some(2));

        // And all keys above the last boundary: every leading shard is
        // flushed empty before the data lands in the tail shard.
        let high: ShardedAlex<u64, u64> = ShardedAlex::bulk_load_blocks(
            vec![vec![(500, 5), (600, 6)]],
            vec![100, 200],
            AlexConfig::ga_armi(),
        );
        assert_eq!(high.num_shards(), 3);
        assert_eq!(high.shard_lens(), vec![0, 0, 2]);
        assert_eq!(high.get(&600), Some(6));

        // And the no-boundaries corner: one shard, all data.
        let single: ShardedAlex<u64, u64> = ShardedAlex::bulk_load_blocks(
            vec![vec![(1, 1), (500, 5)]],
            Vec::new(),
            AlexConfig::ga_armi(),
        );
        assert_eq!(single.num_shards(), 1);
        assert_eq!(single.len(), 2);
    }

    #[test]
    fn rebalance_plan_narrows_the_hot_shard() {
        let index = ShardedAlex::bulk_load(&pairs(40_000, 1), 4, AlexConfig::ga_armi());
        assert!(index.rebalance_plan().is_none(), "no traffic, no plan");
        // Hammer the first shard's range: boundary 0 should move left
        // (the hot shard shrinks) once the plan equalizes lookup mass.
        let hot_end = index.boundaries()[0];
        for k in 0..8000u64 {
            let _ = index.get(&(k % hot_end));
        }
        for k in 0..100u64 {
            let _ = index.get(&(hot_end + k)); // a trickle elsewhere
        }
        let stats = index.shard_read_stats();
        assert!(stats[0].lookups >= 8000, "hot shard saw the traffic: {stats:?}");
        let plan = index.rebalance_plan().expect("skewed traffic must produce a plan");
        assert_eq!(plan.boundaries.len(), index.boundaries().len());
        assert!(
            plan.boundaries[0] < index.boundaries()[0],
            "hot shard must shrink: plan {:?} vs current {:?}",
            plan.boundaries,
            index.boundaries()
        );
        assert_eq!(plan.shard_lookups, stats.iter().map(|s| s.lookups).collect::<Vec<_>>());
    }

    /// Each shard kind's own writes in one shape, so one test body
    /// drives both kinds.
    trait Writes {
        fn put(&self, key: u64, value: u64) -> bool;
        fn put_run(&self, pairs: &[(u64, u64)]) -> usize;
        fn replace(&self, key: &u64, value: u64) -> Option<u64>;
        fn delete(&self, key: &u64) -> Option<u64>;
    }

    impl Writes for ShardedAlex<u64, u64> {
        fn put(&self, key: u64, value: u64) -> bool {
            self.insert(key, value).is_ok()
        }
        fn put_run(&self, pairs: &[(u64, u64)]) -> usize {
            self.bulk_insert(pairs).unwrap()
        }
        fn replace(&self, key: &u64, value: u64) -> Option<u64> {
            self.update(key, value)
        }
        fn delete(&self, key: &u64) -> Option<u64> {
            self.remove(key)
        }
    }

    impl Writes for DurableShardedAlex<u64, u64> {
        fn put(&self, key: u64, value: u64) -> bool {
            self.insert(key, value).unwrap()
        }
        fn put_run(&self, pairs: &[(u64, u64)]) -> usize {
            self.bulk_insert(pairs).unwrap()
        }
        fn replace(&self, key: &u64, value: u64) -> Option<u64> {
            self.update(key, value).unwrap()
        }
        fn delete(&self, key: &u64) -> Option<u64> {
            self.remove(key).unwrap()
        }
    }

    fn durable(dir: &TempDir, data: &[(u64, u64)], shards: usize) -> DurableShardedAlex<u64, u64> {
        let opts = WalOptions { sync: SyncPolicy::Never, ..WalOptions::default() };
        DurableShardedAlex::create(dir.path(), data, shards, AlexConfig::ga_armi(), opts).unwrap()
    }

    fn scan_all<S: Shard<u64, Value = u64>>(index: &Sharded<u64, S>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        index.scan_from(&0, usize::MAX, |k, v| out.push((*k, *v)));
        out
    }

    fn assert_writes_count_no_reads<S: Shard<u64, Value = u64>>(index: &Sharded<u64, S>)
    where
        Sharded<u64, S>: Writes,
    {
        let fresh: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * 70 + 5, i)).collect();
        for &(k, v) in &fresh {
            assert!(index.put(k, v));
        }
        assert_eq!(index.put_run(&fresh), 0);
        for &(k, v) in &fresh {
            assert_eq!(index.replace(&k, v + 1), Some(v));
            assert_eq!(index.delete(&k), Some(v + 1));
        }
        assert_eq!(index.shard_read_stats(), vec![ShardReadStats::default(); index.num_shards()]);
        assert!(index.rebalance_plan().is_none(), "writes alone are no read traffic");
        for k in 0..100u64 {
            assert_eq!(index.get(&(k * 10)), Some(k));
        }
        let lookups: u64 = index.shard_read_stats().iter().map(|s| s.lookups).sum();
        assert_eq!(lookups, 100, "one lookup per get");
    }

    #[test]
    fn writes_never_count_as_shard_reads() {
        // A write-hot shard must not look read-hot to the rebalancer,
        // whichever kind of shard takes the writes.
        let data = pairs(10_000, 10);
        assert_writes_count_no_reads(&ShardedAlex::bulk_load(&data, 4, AlexConfig::ga_armi()));
        let dir = TempDir::new("sharded-write-reads");
        assert_writes_count_no_reads(&durable(&dir, &data, 4));
    }

    #[test]
    fn both_shard_kinds_answer_alike_through_the_shared_reads() {
        let data = pairs(20_000, 4);
        let memory = ShardedAlex::bulk_load(&data, 4, AlexConfig::ga_armi());
        let dir = TempDir::new("sharded-alike");
        let durable = durable(&dir, &data, 4);
        assert_eq!(memory.num_shards(), 4);
        assert_eq!(memory.boundaries(), durable.boundaries());

        // The same writes through each kind's own write methods: point
        // inserts and removes on both sides of every boundary, and one
        // batch spanning every shard.
        let near: Vec<u64> = memory.boundaries().iter().flat_map(|&b| b - 8..b + 8).collect();
        let batch: Vec<(u64, u64)> = (0..20_000u64).step_by(5).map(|k| (k * 4 + 2, k)).collect();
        fn write<I: Writes>(index: &I, near: &[u64], batch: &[(u64, u64)]) {
            for &k in near.iter().filter(|k| *k % 4 == 1) {
                assert!(index.put(k, k + 7));
            }
            assert_eq!(index.put_run(batch), batch.len());
            for &k in near.iter().filter(|k| *k % 4 == 0) {
                assert_eq!(index.delete(&k), Some(k / 4));
            }
        }
        write(&memory, &near, &batch);
        write(&durable, &near, &batch);

        let mut probes: Vec<u64> = near.clone();
        probes.extend([0, 1, 2, 79_998, 80_000, 1 << 40]);
        probes.sort_unstable();
        probes.dedup();
        for k in &probes {
            assert_eq!(memory.get(k), durable.get(k), "key {k}");
            assert_eq!(memory.contains(k), durable.contains(k), "key {k}");
        }
        let got = memory.get_many(&probes);
        assert_eq!(got, durable.get_many(&probes));
        assert!(got.iter().any(Option::is_some) && got.iter().any(Option::is_none));
        let scan = scan_all(&memory);
        assert_eq!(scan.len(), 20_000 + batch.len(), "as many inserts as removes near the bounds");
        assert_eq!(scan, scan_all(&durable));
        assert_eq!(memory.shard_lens(), durable.shard_lens());
        assert_eq!(memory.len(), durable.len());
        assert_eq!(memory.size_report(), durable.size_report());
        let reads = memory.shard_read_stats();
        assert!(reads.iter().all(|s| s.lookups > 0), "every shard was read: {reads:?}");
        assert_eq!(reads, durable.shard_read_stats());
    }

    #[test]
    fn apply_rebalance_preserves_every_pair() {
        let data = pairs(20_000, 3);
        let mut index = ShardedAlex::bulk_load(&data, 4, AlexConfig::ga_armi());
        let hot_end = index.boundaries()[0];
        for k in 0..5000u64 {
            let _ = index.get(&((k * 3) % hot_end));
        }
        let plan = index.rebalance_plan().expect("skew produces a plan");
        let report = index.apply_rebalance(&plan);
        assert!(report.moved_keys > 0, "boundaries moved, so keys moved");
        assert!(report.bands > 0);
        assert_eq!(index.boundaries(), &plan.boundaries[..]);
        assert_eq!(index.len(), data.len(), "rebalance loses nothing");
        // Pair-for-pair: every key still answers with its payload,
        // through the *new* routing.
        for (k, v) in &data {
            assert_eq!(index.get(k), Some(*v), "key {k}");
        }
        // Shard lengths match the new boundaries exactly.
        let lens = index.shard_lens();
        let mut expect = vec![0usize; index.num_shards()];
        for (k, _) in &data {
            expect[route_key(index.boundaries(), k)] += 1;
        }
        assert_eq!(lens, expect, "no stragglers in old shards");
    }

    #[test]
    fn epoch_shards_aggregate_write_amortization() {
        let index = ShardedAlex::bulk_load(&pairs(8000, 2), 4, AlexConfig::ga_armi());
        // Point inserts across all shards: absorbed by delta buffers.
        for k in 0..2000u64 {
            assert!(index.insert(2 * k + 1, k).is_ok());
        }
        let stats = index.write_stats();
        assert_eq!(
            stats.delta_hits + stats.leaf_clones,
            2000,
            "every shard write accounted: {stats:?}"
        );
        assert!(stats.delta_hits > stats.flushes, "{stats:?}");
        // A spanning sorted batch: clones bounded by leaf runs across
        // shards, not by key count.
        // Odd keys above the point-phase band (no duplicates).
        let batch: Vec<(u64, u64)> = (0..8000u64).map(|k| (4001 + 8 * k, k)).collect();
        let before = index.write_stats().leaf_clones;
        assert_eq!(index.bulk_insert(&batch), Ok(8000));
        let clones = index.write_stats().leaf_clones - before;
        assert!(
            clones < 8000 / 4,
            "run-level CoW must amortize across shards: {clones} clones for 8000 keys"
        );
    }
}
