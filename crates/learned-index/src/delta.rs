//! The delta-index insert strategy for the static Learned Index.
//!
//! §2.3 of the ALEX paper: "Kraska et al. suggest building
//! delta-indexes to handle inserts." Inserts go to a small sorted
//! buffer; lookups consult the buffer and the main RMI; when the buffer
//! outgrows a fraction of the main array the two are merged and the RMI
//! retrained. This avoids the naive strategy's per-insert array shifts
//! at the price of periodic O(n) merges and a second probe per lookup.

use alex_core::AlexKey;

use crate::LearnedIndex;

/// A Learned Index with a sorted delta buffer for inserts.
#[derive(Debug, Clone)]
pub struct DeltaLearnedIndex<K, V> {
    main: LearnedIndex<K, V>,
    delta_keys: Vec<K>,
    delta_values: Vec<V>,
    num_models: usize,
    merges: u64,
    merge_moves: u64,
}

/// Merge when the delta holds more than this fraction of the main
/// array's keys (and more than 64).
const MERGE_FRACTION: f64 = 0.1;

impl<K: AlexKey, V: Clone> DeltaLearnedIndex<K, V> {
    /// Build over sorted pairs with `num_models` second-level models.
    pub fn bulk_load(data: &[(K, V)], num_models: usize) -> Self {
        Self {
            main: LearnedIndex::bulk_load(data, num_models),
            delta_keys: Vec::new(),
            delta_values: Vec::new(),
            num_models,
            merges: 0,
            merge_moves: 0,
        }
    }

    /// Total number of entries (main + delta).
    pub fn len(&self) -> usize {
        self.main.len() + self.delta_keys.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries currently in the delta buffer.
    pub fn delta_len(&self) -> usize {
        self.delta_keys.len()
    }

    /// Number of merges performed and total elements moved by merges.
    pub fn merge_stats(&self) -> (u64, u64) {
        (self.merges, self.merge_moves)
    }

    /// Look up `key` in the delta buffer first, then the main RMI.
    pub fn get(&self, key: &K) -> Option<&V> {
        match self.delta_position(key) {
            Ok(pos) => Some(&self.delta_values[pos]),
            Err(_) => self.main.get(key),
        }
    }

    /// Insert; `false` on duplicate. The buffer insert shifts only the
    /// (small) delta, never the main array.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if self.main.get(&key).is_some() {
            return false;
        }
        match self.delta_position(&key) {
            Ok(_) => false,
            Err(pos) => {
                self.delta_keys.insert(pos, key);
                self.delta_values.insert(pos, value);
                let threshold = (self.main.len() as f64 * MERGE_FRACTION).max(64.0) as usize;
                if self.delta_keys.len() > threshold {
                    self.merge();
                }
                true
            }
        }
    }

    /// Merge the delta buffer into the main array and retrain the RMI.
    pub fn merge(&mut self) {
        if self.delta_keys.is_empty() {
            return;
        }
        let main_pairs = self.main_pairs();
        let mut merged: Vec<(K, V)> = Vec::with_capacity(main_pairs.len() + self.delta_keys.len());
        let mut di = 0usize;
        for (k, v) in main_pairs {
            while di < self.delta_keys.len() && self.delta_keys[di] < k {
                merged.push((self.delta_keys[di], self.delta_values[di].clone()));
                di += 1;
            }
            merged.push((k, v));
        }
        while di < self.delta_keys.len() {
            merged.push((self.delta_keys[di], self.delta_values[di].clone()));
            di += 1;
        }
        self.merge_moves += merged.len() as u64;
        self.merges += 1;
        self.main = LearnedIndex::bulk_load(&merged, self.num_models);
        self.delta_keys.clear();
        self.delta_values.clear();
    }

    /// Scan up to `limit` entries with key `>= key`, merging the two
    /// sorted sources on the fly.
    pub fn range_from(&self, key: &K, limit: usize) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(limit);
        let mut main_iter = self.main.range_from(key, limit).peekable();
        let mut di = match self.delta_position(key) {
            Ok(p) | Err(p) => p,
        };
        while out.len() < limit {
            let take_delta = match (main_iter.peek(), self.delta_keys.get(di)) {
                (Some((mk, _)), Some(dk)) => dk < *mk,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };
            if take_delta {
                out.push((self.delta_keys[di], self.delta_values[di].clone()));
                di += 1;
            } else {
                let (k, v) = main_iter.next().expect("peeked");
                out.push((*k, v.clone()));
            }
        }
        out
    }

    /// Index size: main RMI models plus nothing extra (the delta has no
    /// models).
    pub fn index_size_bytes(&self) -> usize {
        self.main.index_size_bytes()
    }

    /// Data size: dense main array plus the delta buffer.
    pub fn data_size_bytes(&self) -> usize {
        self.main.data_size_bytes()
            + self.delta_keys.capacity() * core::mem::size_of::<K>()
            + self.delta_values.capacity() * core::mem::size_of::<V>()
    }

    fn delta_position(&self, key: &K) -> Result<usize, usize> {
        let pos = self.delta_keys.partition_point(|k| k < key);
        if pos < self.delta_keys.len() && self.delta_keys[pos] == *key {
            Ok(pos)
        } else {
            Err(pos)
        }
    }

    fn main_pairs(&self) -> Vec<(K, V)> {
        self.main.pairs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: u64) -> DeltaLearnedIndex<u64, u64> {
        let data: Vec<(u64, u64)> = (0..n).map(|k| (k * 4, k)).collect();
        DeltaLearnedIndex::bulk_load(&data, 32)
    }

    #[test]
    fn lookup_main_and_delta() {
        let mut idx = build(1000);
        assert_eq!(idx.get(&400), Some(&100));
        assert!(idx.insert(401, 7777));
        assert_eq!(idx.get(&401), Some(&7777));
        assert_eq!(idx.len(), 1001);
        assert_eq!(idx.delta_len(), 1);
    }

    #[test]
    fn duplicates_rejected_in_both_layers() {
        let mut idx = build(100);
        assert!(!idx.insert(0, 1), "duplicate of main key");
        assert!(idx.insert(1, 1));
        assert!(!idx.insert(1, 2), "duplicate of delta key");
        assert_eq!(idx.len(), 101);
    }

    #[test]
    fn merge_triggers_and_preserves_everything() {
        let mut idx = build(1000);
        // 10% threshold (min 64) over 1000 keys => merge after >100.
        for k in 0..200u64 {
            assert!(idx.insert(k * 4 + 1, k));
        }
        let (merges, moves) = idx.merge_stats();
        assert!(merges >= 1, "expected at least one merge");
        assert!(moves >= 1000);
        assert_eq!(idx.len(), 1200);
        for k in (0..200u64).step_by(7) {
            assert_eq!(idx.get(&(k * 4 + 1)), Some(&k), "inserted key {}", k * 4 + 1);
        }
        for k in (0..1000u64).step_by(13) {
            assert_eq!(idx.get(&(k * 4)), Some(&k), "original key {}", k * 4);
        }
    }

    #[test]
    fn explicit_merge_empties_delta() {
        let mut idx = build(500);
        for k in 0..50u64 {
            idx.insert(k * 4 + 2, k);
        }
        assert!(idx.delta_len() > 0);
        idx.merge();
        assert_eq!(idx.delta_len(), 0);
        assert_eq!(idx.get(&2), Some(&0));
        // Merging an empty delta is a no-op.
        let (merges, _) = idx.merge_stats();
        idx.merge();
        assert_eq!(idx.merge_stats().0, merges);
    }

    #[test]
    fn range_merges_delta_and_main() {
        let mut idx = build(100);
        idx.insert(41, 900);
        idx.insert(43, 901);
        let got: Vec<u64> = idx.range_from(&40, 5).into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, vec![40, 41, 43, 44, 48]);
        // Range starting inside the delta.
        let got: Vec<u64> = idx.range_from(&41, 2).into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, vec![41, 43]);
    }

    #[test]
    fn sizes_account_for_delta() {
        let mut idx = build(1000);
        let before = idx.data_size_bytes();
        for k in 0..60u64 {
            idx.insert(k * 4 + 3, k);
        }
        assert!(idx.data_size_bytes() > before, "delta buffer must be accounted");
        assert!(idx.index_size_bytes() > 0);
    }
}
