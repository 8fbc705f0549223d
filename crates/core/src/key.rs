//! The key trait for ALEX indexes and its implementations.
//!
//! # Key contract table
//!
//! | Key type | Encoding / projection (`as_f64`) | Sentinel (`MAX_KEY`) | Projection ties? |
//! |---|---|---|---|
//! | `f64` | identity | `f64::INFINITY` | never (writes refuse NaN, see below) |
//! | `u64` | `as f64` (rounds past 2⁵³) | `u64::MAX` | dense keys past 2⁵³ |
//! | `i64` | `as f64` (rounds past ±2⁵³) | `i64::MAX` | dense keys past ±2⁵³ |
//! | `u32` | exact | `u32::MAX` | never |
//! | [`FixedStr<N>`](alex_api::FixedStr) | first 8 bytes as big-endian integer | all-`0xFF` bytes | keys sharing an 8-byte prefix |
//! | [`Composite<K>`](alex_api::Composite) | `tenant + squash(key.as_f64())` | `(u64::MAX, K::MAX_KEY)` | inherits `K`'s, plus tenants ≥ 2⁵³ |
//!
//! **Sentinel semantics (post sentinel-collision fix):** gapped storage
//! fills empty slots with `MAX_KEY`, so the sentinel value itself is
//! *reserved* — every write entry point across every backend rejects it
//! with [`alex_api::InsertError::UnsupportedKey`] rather than storing a
//! key that is indistinguishable from a gap. The conformance suite's
//! `sentinel_key_is_rejected` check enforces this for all backends.
//! [`SentinelKey::is_sentinel`] is also true for a key that is not
//! equal to itself — an `f64` NaN, or a `Composite` holding one — so
//! every point write refuses NaN with the same error: a NaN has no
//! place in sorted storage, and once stored it breaks lookups and
//! scans. Batch writes test every key through
//! [`alex_api::check_batch_keys`] before anything else, so a batch
//! with a sentinel or NaN anywhere in it is refused whole.
//!
//! **Projection ties are never a correctness problem.** `as_f64` is a
//! *hint* for model training and placement; search always verifies
//! against real key comparisons. A locally constant projection (shared
//! string prefixes, dense `u64`s past 2⁵³) only degrades the model —
//! data nodes detect that at (re)train time and flip to uniform
//! placement + binary search (see the degradation guard in
//! `data_node`), so lookups degrade to O(log n), never to linear scans
//! or quadratic shift storms.

use alex_api::{composite_projection, Composite, FixedStr, SentinelKey};

/// Keys storable in an ALEX index.
///
/// Requirements mirror the paper's evaluation (8-byte doubles and
/// 64-bit integers) plus the pluggable encodings in the table above:
/// totally ordered `Copy` values convertible to `f64` for linear-model
/// training, with the reserved maximum sentinel inherited from
/// [`SentinelKey`] used to fill trailing gap slots.
///
/// # Contract
/// - `as_f64` must be monotone non-decreasing in the key order
///   (non-strict: ties are allowed and only flatten models locally).
/// - [`SentinelKey::MAX_KEY`] must compare `>=` every key ever
///   inserted; inserting `MAX_KEY` itself returns
///   [`alex_api::InsertError::UnsupportedKey`].
/// - Keys must not be NaN.
pub trait AlexKey: SentinelKey + Copy + PartialOrd + Default + core::fmt::Debug {
    /// The key as an `f64` model input. For 64-bit integers this loses
    /// precision beyond 2⁵³, which only perturbs *predictions* — search
    /// correctness never depends on the conversion.
    fn as_f64(self) -> f64;
}

impl AlexKey for f64 {
    #[inline]
    fn as_f64(self) -> f64 {
        self
    }
}

impl AlexKey for u64 {
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl AlexKey for i64 {
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl AlexKey for u32 {
    #[inline]
    fn as_f64(self) -> f64 {
        f64::from(self)
    }
}

/// Monotonicity: `FixedStr` orders by big-endian byte comparison, so
/// the first 8 bytes (high-aligned, missing bytes zero) ordered as an
/// integer agree with the key order whenever the keys differ within
/// those 8 bytes; keys sharing an 8-byte prefix map to one value — a
/// *tie*, which the contract permits. `u64 → f64` then preserves
/// non-strict order (rounding is monotone). The sentinel (all `0xFF`)
/// maps to the maximal prefix, so it also dominates numerically.
impl<const N: usize> AlexKey for FixedStr<N> {
    #[inline]
    fn as_f64(self) -> f64 {
        self.prefix_u64() as f64
    }
}

/// Monotonicity: tenant-major, matching the derived lexicographic
/// `Ord` on `(tenant, key)`. [`composite_projection`] keeps the tenant
/// as the integer part and squashes the inner projection into a
/// fraction strictly inside `(0, 1)`, so across tenants the projection
/// follows the tenant while it is exactly representable (`< 2⁵³`), and
/// within a tenant it follows `K::as_f64`, monotone by `K`'s own
/// contract. Past 2⁵³ neighbouring tenants tie — permitted, handled by
/// the degradation guard like any other flat region.
impl<K: AlexKey> AlexKey for Composite<K> {
    #[inline]
    fn as_f64(self) -> f64 {
        composite_projection(self.tenant, self.key.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_key_dominates() {
        assert_eq!(f64::MAX_KEY, f64::INFINITY);
        assert_eq!(u64::MAX_KEY, u64::MAX);
        assert_eq!(i64::MAX_KEY, i64::MAX);
        assert_eq!(u32::MAX_KEY, u32::MAX);
    }

    #[test]
    fn as_f64_monotone() {
        let keys = [-100i64, -1, 0, 1, 1000];
        for w in keys.windows(2) {
            assert!(w[0].as_f64() < w[1].as_f64());
        }
        assert_eq!(3.5f64.as_f64(), 3.5);
        assert_eq!(7u64.as_f64(), 7.0);
        assert_eq!(9u32.as_f64(), 9.0);
    }

    #[test]
    fn fixedstr_as_f64_monotone_with_ties() {
        let keys: Vec<FixedStr<16>> =
            ["", "a", "ab", "abcdefgh", "abcdefghAAA", "abcdefghZZZ", "b"]
                .iter()
                .map(|w| FixedStr::from(*w))
                .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
            assert!(w[0].as_f64() <= w[1].as_f64(), "{:?} vs {:?}", w[0], w[1]);
        }
        // Shared 8-byte prefix: a tie, not an inversion.
        assert_eq!(keys[4].as_f64(), keys[5].as_f64());
        assert!(FixedStr::<16>::MAX_KEY.as_f64() >= keys[6].as_f64());
    }

    #[test]
    fn composite_as_f64_monotone() {
        let keys = [
            Composite::new(0, 0u64),
            Composite::new(0, 500),
            Composite::new(1, 0),
            Composite::new(1, 7),
            Composite::new(9000, 3),
        ];
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
            assert!(w[0].as_f64() <= w[1].as_f64());
        }
        // Tenant strictly dominates while exactly representable.
        assert!(Composite::new(3, u64::MAX - 1).as_f64() < Composite::new(4, 0u64).as_f64());
    }
}
