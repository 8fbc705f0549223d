//! Linear regression models — the only model class ALEX uses (§7: "We
//! found linear regression models to strike the right balance between
//! computation overhead vs. prediction accuracy").

use crate::key::AlexKey;

/// `y = slope · x + intercept`, fit by ordinary least squares.
///
/// Training is `O(n)` with a single pass, which is what makes ALEX's
/// per-node retraining on expansion cheap (§3.3.1: "Retraining
/// efficiency is one reason why we propose to use linear models").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinearModel {
    /// Slope `a`.
    pub slope: f64,
    /// Intercept `b`.
    pub intercept: f64,
}

impl LinearModel {
    /// Fit by OLS over `(x, y)` samples. Degenerate inputs (no samples,
    /// or all-equal x) produce a constant model predicting the mean y.
    pub fn fit(samples: impl Iterator<Item = (f64, f64)>) -> Self {
        let mut n = 0f64;
        let mut sx = 0f64;
        let mut sy = 0f64;
        let mut sxx = 0f64;
        let mut sxy = 0f64;
        for (x, y) in samples {
            n += 1.0;
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        if n == 0.0 {
            return Self::default();
        }
        let denom = n * sxx - sx * sx;
        if denom.abs() < f64::EPSILON * n * sxx.abs().max(1.0) {
            return Self {
                slope: 0.0,
                intercept: sy / n,
            };
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        Self { slope, intercept }
    }

    /// Fit `key -> rank` over a sorted key slice.
    pub fn fit_keys<K: AlexKey>(keys: &[K]) -> Self {
        Self::fit(keys.iter().enumerate().map(|(i, k)| (k.as_f64(), i as f64)))
    }

    /// Raw (unclamped, unrounded) prediction.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Prediction rounded down and clamped to `[0, len)` (`0` when
    /// `len == 0`).
    #[inline]
    pub fn predict_clamped(&self, x: f64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let p = self.predict(x);
        if p.is_nan() || p < 0.0 {
            0
        } else {
            (p as usize).min(len - 1)
        }
    }

    /// Scale predictions by `factor` — Algorithm 3's
    /// `model *= expansion_factor`, mapping rank space onto a stretched
    /// array.
    #[inline]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            slope: self.slope * factor,
            intercept: self.intercept * factor,
        }
    }
}

/// Prefix-sum least-squares cache over one fixed sorted key set.
///
/// Algorithm 4 (adaptive bulk-load) fits a fresh partition model —
/// `key → local_rank · parts / n` — at *every* level of its recursion,
/// and each streaming [`LinearModel::fit`] re-reads and re-converts the
/// same keys. Across the fanout tree that is `O(n · depth)` key
/// conversions and multiply-adds. `PrefixLsq` does the `O(n)` work
/// once: it caches the `f64` key conversions and the prefix sums of
/// `x`, `x²`, and `i·x`, after which the OLS fit for **any**
/// subrange-and-fanout combination is `O(1)` — the normal-equation
/// sums fall out of four prefix differences.
///
/// The fit replicates [`LinearModel::fit`]'s closed form, including the
/// degenerate (all-equal-`x`) guard; results agree up to floating-point
/// re-association of the sums.
///
/// ```
/// use alex_core::model::{LinearModel, PrefixLsq};
///
/// let keys: Vec<f64> = (0..1000).map(|i| (i * i) as f64).collect();
/// let lsq = PrefixLsq::new(keys.iter().copied());
/// let fast = lsq.fit_partitions(100..900, 16);
/// let slow = LinearModel::fit(
///     keys[100..900].iter().enumerate().map(|(i, &x)| (x, i as f64 * 16.0 / 800.0)),
/// );
/// assert!((fast.slope - slow.slope).abs() < 1e-9 * slow.slope.abs());
/// ```
#[derive(Debug, Clone)]
pub struct PrefixLsq {
    /// Cached key→f64 conversions (the build recursion's partition
    /// probing reuses these instead of re-converting keys).
    xs: Vec<f64>,
    /// `px[i] = Σ xs[0..i]` (length `n + 1`).
    px: Vec<f64>,
    /// `pxx[i] = Σ xs[j]²  for j < i`.
    pxx: Vec<f64>,
    /// `pix[i] = Σ j · xs[j]  for j < i` (global index `j`).
    pix: Vec<f64>,
}

impl PrefixLsq {
    /// Build the cache from keys already converted to `f64`, in sorted
    /// order. `O(n)` time and space.
    pub fn new(xs: impl Iterator<Item = f64>) -> Self {
        let xs: Vec<f64> = xs.collect();
        let n = xs.len();
        let (mut px, mut pxx, mut pix) = (
            Vec::with_capacity(n + 1),
            Vec::with_capacity(n + 1),
            Vec::with_capacity(n + 1),
        );
        px.push(0.0);
        pxx.push(0.0);
        pix.push(0.0);
        for (i, &x) in xs.iter().enumerate() {
            px.push(px[i] + x);
            pxx.push(pxx[i] + x * x);
            pix.push(pix[i] + i as f64 * x);
        }
        Self { xs, px, pxx, pix }
    }

    /// Build the cache from a sorted key slice.
    pub fn from_keys<K: AlexKey>(keys: &[K]) -> Self {
        Self::new(keys.iter().map(|k| k.as_f64()))
    }

    /// Number of cached keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the cache is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The cached `f64` keys (global indexing; slice with the same
    /// ranges passed to [`PrefixLsq::fit_partitions`]).
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Fit `key → local_rank · parts / n` over `range` in `O(1)`: the
    /// partition-routing model Algorithm 4 needs at each recursion
    /// level. Equivalent to streaming
    /// `LinearModel::fit((x_i, (i − start) · parts / n))` up to
    /// floating-point re-association.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds.
    pub fn fit_partitions(&self, range: core::ops::Range<usize>, parts: usize) -> LinearModel {
        let (start, end) = (range.start, range.end);
        assert!(start <= end && end <= self.xs.len(), "range out of bounds");
        let n = (end - start) as f64;
        if n == 0.0 {
            return LinearModel::default();
        }
        let sx = self.px[end] - self.px[start];
        let sxx = self.pxx[end] - self.pxx[start];
        // Targets are the arithmetic ramp y_i = (i − start) · c with
        // c = parts / n, so Σy and Σx·y reduce to closed forms over the
        // cached sums — no per-key work.
        let c = parts as f64 / n;
        let sy = c * (n - 1.0) * n / 2.0;
        let sxy = c * ((self.pix[end] - self.pix[start]) - start as f64 * sx);
        let denom = n * sxx - sx * sx;
        if denom.abs() < f64::EPSILON * n * sxx.abs().max(1.0) {
            return LinearModel {
                slope: 0.0,
                intercept: sy / n,
            };
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        LinearModel { slope, intercept }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_line() {
        let m = LinearModel::fit((0..100).map(|i| (i as f64, 2.0 * i as f64 - 5.0)));
        assert!((m.slope - 2.0).abs() < 1e-9);
        assert!((m.intercept + 5.0).abs() < 1e-9);
    }

    #[test]
    fn fit_keys_predicts_ranks() {
        let keys: Vec<u64> = (0..256).map(|i| i * 4 + 100).collect();
        let m = LinearModel::fit_keys(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.predict_clamped(k.as_f64(), keys.len()), i);
        }
    }

    #[test]
    fn degenerate_fits() {
        assert_eq!(LinearModel::fit(core::iter::empty()), LinearModel::default());
        let m = LinearModel::fit([(1.0, 4.0), (1.0, 6.0)].into_iter());
        assert_eq!(m.slope, 0.0);
        assert!((m.intercept - 5.0).abs() < 1e-9);
    }

    #[test]
    fn clamping() {
        let m = LinearModel {
            slope: 10.0,
            intercept: -50.0,
        };
        assert_eq!(m.predict_clamped(0.0, 10), 0);
        assert_eq!(m.predict_clamped(100.0, 10), 9);
        assert_eq!(m.predict_clamped(5.3, 0), 0);
        assert_eq!(m.predict_clamped(f64::NAN, 10), 0);
    }

    #[test]
    fn scaling_composes() {
        let m = LinearModel {
            slope: 1.0,
            intercept: 2.0,
        };
        let s = m.scaled(3.0);
        assert!((s.predict(7.0) - 3.0 * m.predict(7.0)).abs() < 1e-12);
    }

    /// The streaming fit the prefix cache must reproduce.
    fn streaming_partition_fit(xs: &[f64], range: core::ops::Range<usize>, parts: usize) -> LinearModel {
        let n = range.len();
        LinearModel::fit(
            xs[range]
                .iter()
                .enumerate()
                .map(|(i, &x)| (x, i as f64 * parts as f64 / n as f64)),
        )
    }

    #[test]
    fn prefix_lsq_matches_streaming_fit() {
        // Non-uniform key distribution: quadratic + a dense cluster.
        let mut xs: Vec<f64> = (0..500u64).map(|i| (i * i) as f64).collect();
        xs.extend((0..200u64).map(|i| 250_000.0 + i as f64 * 0.25));
        xs.sort_by(f64::total_cmp);
        let lsq = PrefixLsq::new(xs.iter().copied());
        for (range, parts) in [(0..700, 32), (0..700, 2), (100..650, 8), (640..700, 4), (33..34, 2)] {
            let fast = lsq.fit_partitions(range.clone(), parts);
            let slow = streaming_partition_fit(&xs, range.clone(), parts);
            let tol = 1e-9 * slow.slope.abs().max(1.0);
            assert!(
                (fast.slope - slow.slope).abs() < tol,
                "slope mismatch on {range:?}/{parts}: {fast:?} vs {slow:?}"
            );
            let tol = 1e-9 * slow.intercept.abs().max(1.0);
            assert!(
                (fast.intercept - slow.intercept).abs() < tol,
                "intercept mismatch on {range:?}/{parts}: {fast:?} vs {slow:?}"
            );
        }
    }

    #[test]
    fn prefix_lsq_degenerate_and_empty_ranges() {
        let xs = vec![7.0; 64];
        let lsq = PrefixLsq::new(xs.iter().copied());
        let m = lsq.fit_partitions(8..40, 4);
        // All-equal x: constant model predicting the mean target.
        assert_eq!(m.slope, 0.0);
        let slow = streaming_partition_fit(&xs, 8..40, 4);
        assert!((m.intercept - slow.intercept).abs() < 1e-9);
        assert_eq!(lsq.fit_partitions(5..5, 4), LinearModel::default());
        assert_eq!(PrefixLsq::new(core::iter::empty()).fit_partitions(0..0, 2), LinearModel::default());
    }

    #[test]
    fn prefix_lsq_from_keys_caches_conversions() {
        let keys: Vec<u64> = (0..100).map(|i| i * 3 + 7).collect();
        let lsq = PrefixLsq::from_keys(&keys);
        assert_eq!(lsq.len(), 100);
        assert!(!lsq.is_empty());
        assert_eq!(lsq.xs()[10], 37.0);
    }
}
