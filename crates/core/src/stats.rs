//! Instrumentation counters.
//!
//! The paper's drilldown experiments (Figures 7–9) are driven by
//! counters like shifts-per-insert and prediction error; these structs
//! collect them. Read-side counters (search comparisons) live in
//! relaxed atomics so `get` can stay `&self` *and* the whole read path
//! stays `Sync` — a requirement of the sharded concurrent front-end
//! (`alex-sharded`), which serves lookups from parallel reader threads.

use core::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Write-side work counters for one data node or a whole index.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WriteStats {
    /// Number of inserts performed.
    pub inserts: u64,
    /// Elements moved to create gaps for inserts (Figure 8's metric).
    pub shifts: u64,
    /// Elements rewritten by PMA window rebalances.
    pub rebalance_moves: u64,
    /// Node expansions (Algorithm 3).
    pub expansions: u64,
    /// Node contractions after deletes.
    pub contractions: u64,
    /// Linear-model retrains.
    pub retrains: u64,
    /// Leaf splits (node splitting on inserts, §3.4.2).
    pub splits: u64,
    /// Number of deletes performed.
    pub deletes: u64,
}

impl WriteStats {
    /// Merge counters from another instance.
    pub fn absorb(&mut self, other: &WriteStats) {
        self.inserts += other.inserts;
        self.shifts += other.shifts;
        self.rebalance_moves += other.rebalance_moves;
        self.expansions += other.expansions;
        self.contractions += other.contractions;
        self.retrains += other.retrains;
        self.splits += other.splits;
        self.deletes += other.deletes;
    }

    /// Average shifts per insert (Figure 8).
    pub fn shifts_per_insert(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.shifts as f64 / self.inserts as f64
        }
    }
}

/// Read-side counters, interior-mutable (relaxed atomics) so lookups
/// stay `&self` and the read path is `Sync`. Counters are advisory
/// instrumentation: under concurrent readers each increment lands
/// atomically but the three fields are not updated as one transaction.
///
/// The counters are always on: the paper's drilldowns (comparisons
/// per lookup, direct hits; Figures 7 and 11) read them in every
/// build. The atomic RMWs sit on the lookup hot path (and, under
/// parallel Zipf-skewed readers, contend on hot leaves' counter cache
/// lines).
#[derive(Debug, Default)]
pub struct ReadStats {
    lookups: AtomicU64,
    comparisons: AtomicU64,
    direct_hits: AtomicU64,
}

impl Clone for ReadStats {
    fn clone(&self) -> Self {
        Self {
            lookups: AtomicU64::new(self.lookups()),
            comparisons: AtomicU64::new(self.comparisons()),
            direct_hits: AtomicU64::new(self.direct_hits()),
        }
    }
}

impl ReadStats {
    /// Record one lookup that took `comparisons` key comparisons.
    /// `direct` marks a *direct hit* — the key was found at exactly the
    /// model-predicted slot (§4).
    #[inline]
    pub fn record(&self, comparisons: u32, direct: bool) {
        self.lookups.fetch_add(1, Relaxed);
        self.comparisons.fetch_add(u64::from(comparisons), Relaxed);
        if direct {
            self.direct_hits.fetch_add(1, Relaxed);
        }
    }

    /// Total lookups recorded.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Relaxed)
    }

    /// Total key comparisons across lookups.
    pub fn comparisons(&self) -> u64 {
        self.comparisons.load(Relaxed)
    }

    /// Lookups that hit the predicted slot directly.
    pub fn direct_hits(&self) -> u64 {
        self.direct_hits.load(Relaxed)
    }

    /// Mean comparisons per lookup.
    pub fn comparisons_per_lookup(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.comparisons() as f64 / self.lookups() as f64
        }
    }
}

/// Memory-footprint report (§5.1 accounting).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SizeReport {
    /// Models + child pointers + node metadata.
    pub index_bytes: usize,
    /// Key/payload arrays including gaps, plus bitmaps.
    pub data_bytes: usize,
    /// Number of data (leaf) nodes.
    pub num_data_nodes: usize,
    /// Number of inner (model) nodes.
    pub num_inner_nodes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_stats_absorb_and_ratio() {
        let mut a = WriteStats {
            inserts: 10,
            shifts: 30,
            ..Default::default()
        };
        let b = WriteStats {
            inserts: 10,
            shifts: 10,
            expansions: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.inserts, 20);
        assert_eq!(a.shifts, 40);
        assert_eq!(a.expansions, 2);
        assert!((a.shifts_per_insert() - 2.0).abs() < 1e-12);
        assert_eq!(WriteStats::default().shifts_per_insert(), 0.0);
    }

    #[test]
    fn read_stats_record() {
        let r = ReadStats::default();
        r.record(1, true);
        r.record(5, false);
        assert_eq!(r.lookups(), 2);
        assert_eq!(r.comparisons(), 6);
        assert_eq!(r.direct_hits(), 1);
        assert!((r.comparisons_per_lookup() - 3.0).abs() < 1e-12);
    }
}
