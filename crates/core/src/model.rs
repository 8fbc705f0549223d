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

/// Running least-squares sums over a sorted key sequence: `Σx`, `Σx²`
/// and `Σi·x` over its first [`LsqSums::end`] keys, `i` being a key's
/// global index.
///
/// Algorithm 4 (bulk load) fits one partition-routing model
/// `key → local_rank · parts / n` per inner node, each over a range of
/// the sorted keys. Taking these sums at a range's two ends gives the
/// fit in `O(1)` ([`LsqSums::fit_partitions`]), so a build keeps one
/// pair of sums per range it fits instead of any per-key array.
/// Folding always runs left to right from index 0, so the sums at a
/// boundary are the same bits however many steps reached it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LsqSums {
    end: usize,
    sx: f64,
    sxx: f64,
    six: f64,
}

impl LsqSums {
    /// Fold the key at global index [`LsqSums::end`], as `f64`.
    #[inline]
    pub(crate) fn push(&mut self, x: f64) {
        self.sx += x;
        self.sxx += x * x;
        self.six += self.end as f64 * x;
        self.end += 1;
    }

    /// Fold `pairs[self.end()..to]`, where `pairs` is the whole sorted
    /// sequence the sums run over.
    pub(crate) fn advance_to<K: AlexKey, V>(&mut self, pairs: &[(K, V)], to: usize) {
        for (k, _) in &pairs[self.end..to] {
            self.push(k.as_f64());
        }
    }

    /// Number of keys folded: the global index the sums stop before.
    #[inline]
    pub(crate) fn end(&self) -> usize {
        self.end
    }

    /// Fit `key → local_rank · parts / n` over the keys from
    /// `self.end()` to `to.end()` — the partition-routing model
    /// Algorithm 4 needs per inner node — from the sums at the range's
    /// two ends. Equivalent to streaming
    /// `LinearModel::fit((x_i, (i − start) · parts / n))` up to
    /// floating-point re-association, including its all-equal-`x`
    /// guard; an empty range gives the default model.
    pub(crate) fn fit_partitions(&self, to: &Self, parts: usize) -> LinearModel {
        let start = self.end;
        let n = (to.end - start) as f64;
        if n == 0.0 {
            return LinearModel::default();
        }
        let sx = to.sx - self.sx;
        let sxx = to.sxx - self.sxx;
        // Targets are the arithmetic ramp y_i = (i − start) · c with
        // c = parts / n, so Σy and Σx·y reduce to closed forms over the
        // sums — no per-key work.
        let c = parts as f64 / n;
        let sy = c * (n - 1.0) * n / 2.0;
        let sxy = c * ((to.six - self.six) - start as f64 * sx);
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

    /// Oracle: the routing fit over `xs[range]` from prefix-sum arrays
    /// `px`, `pxx` and `pix` folded over every key from index 0 and
    /// differenced at the range's ends.
    fn prefix_array_fit(xs: &[f64], range: core::ops::Range<usize>, parts: usize) -> LinearModel {
        let (mut px, mut pxx, mut pix) = (vec![0.0], vec![0.0], vec![0.0]);
        for (i, &x) in xs.iter().enumerate() {
            px.push(px[i] + x);
            pxx.push(pxx[i] + x * x);
            pix.push(pix[i] + i as f64 * x);
        }
        let (start, end) = (range.start, range.end);
        let n = (end - start) as f64;
        if n == 0.0 {
            return LinearModel::default();
        }
        let sx = px[end] - px[start];
        let sxx = pxx[end] - pxx[start];
        let c = parts as f64 / n;
        let sy = c * (n - 1.0) * n / 2.0;
        let sxy = c * ((pix[end] - pix[start]) - start as f64 * sx);
        let denom = n * sxx - sx * sx;
        if denom.abs() < f64::EPSILON * n * sxx.abs().max(1.0) {
            return LinearModel {
                slope: 0.0,
                intercept: sy / n,
            };
        }
        let slope = (n * sxy - sx * sy) / denom;
        LinearModel {
            slope,
            intercept: (sy - slope * sx) / n,
        }
    }

    /// The streaming fit the sums approximate.
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
    fn sums_fit_bit_for_bit_like_prefix_arrays() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize % bound
        };
        // Non-uniform keys (quadratic plus a dense cluster); integers
        // packed near 2⁴⁰, where `n·Σx² − (Σx)²` cancels; and random
        // fractional gaps, where every sum rounds.
        let mut quadratic: Vec<f64> = (0..500u64).map(|i| (i * i) as f64).collect();
        quadratic.extend((0..200u64).map(|i| 250_000.0 + i as f64 * 0.25));
        quadratic.sort_by(f64::total_cmp);
        let packed: Vec<f64> = (0..3000u64).map(|i| ((1u64 << 40) + 3 * i) as f64).collect();
        let mut x = 0.0;
        let fractional: Vec<f64> = (0..2000)
            .map(|_| {
                x += 0.001 + next(1000) as f64 / 7.0;
                x
            })
            .collect();
        for xs in [quadratic, packed, fractional] {
            let pairs: Vec<(f64, ())> = xs.iter().map(|&x| (x, ())).collect();
            for _ in 0..200 {
                let mut cut = [next(xs.len() + 1), next(xs.len() + 1)];
                cut.sort_unstable();
                let parts = 2 + next(64);
                // Advance one cursor in two random steps to each end.
                let mut lo = LsqSums::default();
                lo.advance_to(&pairs, cut[0] / 2);
                lo.advance_to(&pairs, cut[0]);
                let mut hi = lo;
                hi.advance_to(&pairs, (cut[0] + cut[1]) / 2);
                hi.advance_to(&pairs, cut[1]);
                let got = lo.fit_partitions(&hi, parts);
                let want = prefix_array_fit(&xs, cut[0]..cut[1], parts);
                assert_eq!(
                    (got.slope.to_bits(), got.intercept.to_bits()),
                    (want.slope.to_bits(), want.intercept.to_bits()),
                    "{:?}/{parts}: {got:?} vs {want:?}",
                    cut[0]..cut[1]
                );
            }
        }
    }

    #[test]
    fn sums_degenerate_and_empty_ranges() {
        let xs = vec![7.0; 64];
        let pairs: Vec<(f64, ())> = xs.iter().map(|&x| (x, ())).collect();
        let (mut lo, mut hi) = (LsqSums::default(), LsqSums::default());
        lo.advance_to(&pairs, 8);
        hi.advance_to(&pairs, 40);
        let m = lo.fit_partitions(&hi, 4);
        // All-equal x: constant model predicting the mean target.
        assert_eq!(m.slope, 0.0);
        let slow = streaming_partition_fit(&xs, 8..40, 4);
        assert!((m.intercept - slow.intercept).abs() < 1e-9);
        assert_eq!(lo.fit_partitions(&lo, 4), LinearModel::default());
        assert_eq!(LsqSums::default().fit_partitions(&LsqSums::default(), 2), LinearModel::default());
    }
}
