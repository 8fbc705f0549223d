//! The space/direct-hit analysis of §4 (Theorems 1–3 and Appendix A).
//!
//! ALEX places keys at model-predicted slots; §4 bounds how many keys
//! can land exactly where predicted (*direct hits*) as a function of
//! the expansion factor `c` and the key spacing. These functions
//! compute the paper's bounds for a concrete leaf, and
//! [`measure_direct_hits`] measures the truth for comparison — the
//! property tests assert `lower <= measured <= upper`.
//!
//! Notation (from the paper): keys `x₁ < … < xₙ`, base model
//! `y = a·x + b` fit at `c = 1`, deployed model `y = c(a·x + b)`;
//! `δᵢ = xᵢ₊₁ − xᵢ`, `Δᵢ = xᵢ₊₂ − xᵢ`.

use crate::key::AlexKey;
use crate::model::LinearModel;
use crate::slots::SlotArray;

/// Theorem 1: if `c >= 1 / (a · min δᵢ)` every key is placed exactly at
/// its predicted location. Returns that threshold `c` (`None` for
/// fewer than two keys or a non-positive slope, where the bound is
/// vacuous).
pub fn theorem1_min_expansion<K: AlexKey>(keys: &[K], base_slope: f64) -> Option<f64> {
    if keys.len() < 2 || base_slope <= 0.0 {
        return None;
    }
    let min_delta = keys
        .windows(2)
        .map(|w| w[1].as_f64() - w[0].as_f64())
        .fold(f64::INFINITY, f64::min);
    (min_delta > 0.0).then(|| 1.0 / (base_slope * min_delta))
}

/// Theorem 2: the number of direct hits is at most
/// `2 + |{i : Δᵢ > 1/(c·a)}|`.
pub fn theorem2_upper_bound<K: AlexKey>(keys: &[K], base_slope: f64, c: f64) -> usize {
    let n = keys.len();
    if n <= 2 {
        return n;
    }
    let threshold = 1.0 / (c * base_slope);
    let wide = keys
        .windows(3)
        .filter(|w| w[2].as_f64() - w[0].as_f64() > threshold)
        .count();
    (2 + wide).min(n)
}

/// Theorem 3: the number of direct hits is at least `l + 1`, where `l`
/// is the length of the longest run of gaps `δᵢ >= 1/(c·a)` from the
/// first key. `base_slope` is [`base_slope`]`(keys)`.
///
/// The proof places the first key at its predicted slot and each key
/// of the run at least one slot past the one before. In the leaf
/// [`measure_direct_hits`] builds, two things can break that, so the
/// run is counted only where the proof still holds:
///
/// - Predictions are clamped into the array. A fit that sends the
///   first keys below slot 0 piles them onto slots 0, 1, 2, …, and
///   only key 0 of the pile lands where it is predicted. So the run
///   starts at the first key `j` predicted at or past its own rank
///   `j`, the first one the pile cannot push; key 0 adds one hit when
///   `j > 0`.
/// - Placement keeps room for the keys still to come: key `i` lands no
///   later than slot `capacity − (n − i)`. So the run ends before the
///   first key predicted past that.
///
/// The run also ends where rounding makes two predictions of a wide
/// gap less than one slot apart. When the first key is predicted at
/// slot 0 or later, with room to spare, this is the paper's `l + 1`.
pub fn theorem3_lower_bound<K: AlexKey>(keys: &[K], base_slope: f64, c: f64) -> usize {
    let n = keys.len();
    if n == 0 {
        return 0;
    }
    if n == 1 || base_slope <= 0.0 {
        return 1;
    }
    let (model, capacity) = leaf_model(keys, c);
    let threshold = 1.0 / (c * base_slope);
    let p = |i: usize| model.predict(keys[i].as_f64());
    // floor(p(i)) <= capacity − (n − i): the placement does not pull key i left.
    let room = |i: usize| p(i) < (capacity - n + i + 1) as f64;
    // Key 0 of a pile below slot 0 lands on slot 0, its prediction.
    let Some(start) = (0..n).find(|&i| p(i) >= i as f64) else {
        return 1;
    };
    let pile = usize::from(start > 0);
    if !room(start) {
        return pile;
    }
    let run = (start..n - 1)
        .take_while(|&i| {
            keys[i + 1].as_f64() - keys[i].as_f64() >= threshold
                && p(i + 1) >= p(i) + 1.0
                && room(i + 1)
        })
        .count();
    pile + 1 + run
}

/// The leaf §4 analyses at expansion factor `c`: the base model fit at
/// `c = 1`, scaled onto `ceil(n·c)` slots. Returns the model and the
/// slot count.
fn leaf_model<K: AlexKey>(keys: &[K], c: f64) -> (LinearModel, usize) {
    let n = keys.len();
    let capacity = ((n as f64 * c).ceil() as usize).max(n);
    let base = LinearModel::fit_keys(keys);
    // §4 scales the rank-space model by c; capacity == ceil(n·c), so
    // scaling by capacity/n coincides with scaling by c up to rounding.
    (base.scaled(capacity as f64 / n as f64), capacity)
}

/// Build a leaf at expansion factor `c` exactly as §4 models it (base
/// model fit at `c = 1`, then scaled) and count how many keys sit at
/// their predicted slot.
///
/// Returns `(direct_hits, n)`.
pub fn measure_direct_hits<K: AlexKey>(keys: &[K], c: f64) -> (usize, usize) {
    let n = keys.len();
    if n == 0 {
        return (0, 0);
    }
    let (model, capacity) = leaf_model(keys, c);
    let pairs: Vec<(K, u8)> = keys.iter().map(|&k| (k, 0u8)).collect();
    let arr = SlotArray::rebuild_model_based(&pairs, capacity, &model);
    let mut hits = 0usize;
    for &k in keys {
        let predicted = model.predict_clamped(k.as_f64(), capacity);
        if arr.is_occupied(predicted) && arr.keys[predicted] == k {
            hits += 1;
        }
    }
    (hits, n)
}

/// The base slope `a` of the §4 analysis: the OLS slope of `key → rank`
/// at `c = 1`.
pub fn base_slope<K: AlexKey>(keys: &[K]) -> f64 {
    LinearModel::fit_keys(keys).slope
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_keys_all_direct_hits_above_threshold() {
        // Evenly spaced keys: min δ = stride, a = 1/stride, so Theorem 1
        // says c >= 1 suffices.
        let keys: Vec<u64> = (0..500).map(|i| i * 10).collect();
        let a = base_slope(&keys);
        let c_min = theorem1_min_expansion(&keys, a).unwrap();
        assert!(c_min <= 1.01, "uniform keys should need no extra space, got {c_min}");
        let (hits, n) = measure_direct_hits(&keys, 1.05);
        assert!(hits as f64 > 0.99 * n as f64, "{hits}/{n}");
    }

    #[test]
    fn bounds_bracket_measured_hits() {
        // Non-uniform spacing.
        let keys: Vec<u64> = (0..300u64).map(|i| i * i + i).collect();
        let a = base_slope(&keys);
        for c in [1.0, 1.5, 2.0, 4.0] {
            let (hits, n) = measure_direct_hits(&keys, c);
            let upper = theorem2_upper_bound(&keys, a, c);
            let lower = theorem3_lower_bound(&keys, a, c);
            assert!(hits <= upper, "c={c}: hits {hits} > upper {upper}");
            assert!(hits >= lower.min(n), "c={c}: hits {hits} < lower {lower}");
        }
    }

    #[test]
    fn a_fit_below_slot_0_starts_the_theorem3_run_past_the_pile() {
        // A sparse low tail before a dense bulk, the shape of the
        // longitudes data: the fit sends the first keys below slot 0,
        // and clamping piles them onto slots 0, 1, 2, …
        let keys: Vec<u64> = (0..20).map(|i| i * 1000).chain(100_000..100_980).collect();
        let a = base_slope(&keys);
        let first = LinearModel::fit_keys(&keys).predict(0.0);
        assert!(first < 0.0, "the case needs a negative first prediction, got {first}");
        for c in [1.0, 1.43, 2.0, 4.0, 8.0] {
            let (hits, n) = measure_direct_hits(&keys, c);
            let lower = theorem3_lower_bound(&keys, a, c);
            assert!(lower >= 1 && hits >= lower, "c={c}: hits {hits} < lower {lower}");
            assert!(hits <= theorem2_upper_bound(&keys, a, c));
            // The paper's prefix count (20 wide gaps up to the bulk)
            // overstates the hits the pile leaves at c = 1.
            if c == 1.0 {
                assert!(hits < 21, "c=1: {hits}/{n} hits; the pile should cost the prefix");
            }
        }
    }

    #[test]
    fn more_space_never_fewer_upper_bound_hits() {
        let keys: Vec<u64> = (0..200u64).map(|i| i * 3 + (i % 7)).collect();
        let a = base_slope(&keys);
        let mut prev = 0usize;
        for c in [1.0, 1.3, 1.7, 2.5, 4.0] {
            let upper = theorem2_upper_bound(&keys, a, c);
            assert!(upper >= prev, "upper bound must grow with c");
            prev = upper;
        }
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<u64> = vec![];
        assert_eq!(theorem3_lower_bound(&empty, 1.0, 1.0), 0);
        assert_eq!(measure_direct_hits(&empty, 2.0), (0, 0));
        let one = vec![42u64];
        assert_eq!(theorem2_upper_bound(&one, 1.0, 1.0), 1);
        assert_eq!(theorem3_lower_bound(&one, 1.0, 1.0), 1);
        assert_eq!(measure_direct_hits(&one, 1.0), (1, 1));
        assert!(theorem1_min_expansion(&one, 1.0).is_none());
    }
}
