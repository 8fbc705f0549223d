//! Pluggable key types: the sentinel contract plus fixed-width
//! order-preserving encodings for strings and composite tenant keys.
//!
//! Numeric keys are what the paper evaluates; real indexes serve text
//! and tuples. The two types here make that possible without touching
//! any backend: [`FixedStr`] normalizes variable-length strings into a
//! fixed-width byte array whose `Ord` *is* lexicographic string order,
//! and [`Composite`] prefixes any key with a `u64` tenant id so one
//! index (or one shard pool) serves many tenants with per-tenant key
//! locality.
//!
//! [`SentinelKey`] is the contract piece the whole write path leans
//! on: gapped storage fills empty slots with `MAX_KEY`, so the
//! sentinel value itself is not insertable — every backend rejects it
//! with [`InsertError::UnsupportedKey`](crate::InsertError) instead of
//! silently colliding with gap fill.

/// Keys with a reserved maximum sentinel.
///
/// `MAX_KEY` must compare `>=` every key an application inserts; the
/// value is *reserved*: backends use it internally (e.g. as gap fill
/// in gapped arrays) and reject attempts to insert it with
/// [`InsertError::UnsupportedKey`](crate::InsertError).
pub trait SentinelKey: PartialEq + Sized {
    /// The reserved maximum sentinel.
    const MAX_KEY: Self;

    /// Whether a write must refuse this key: it is the reserved
    /// sentinel, or it is not equal to itself (an `f64` NaN, or a
    /// [`Composite`] holding one), which no ordered index can place.
    #[inline]
    #[allow(clippy::eq_op)] // `self != self` is the NaN test for any `PartialEq`
    fn is_sentinel(&self) -> bool {
        *self == Self::MAX_KEY || *self != *self
    }
}

impl SentinelKey for u64 {
    const MAX_KEY: Self = u64::MAX;
}

impl SentinelKey for u32 {
    const MAX_KEY: Self = u32::MAX;
}

impl SentinelKey for i64 {
    const MAX_KEY: Self = i64::MAX;
}

impl SentinelKey for f64 {
    const MAX_KEY: Self = f64::INFINITY;
}

/// A fixed-width, order-preserving string key: `N` bytes, truncated or
/// zero-padded.
///
/// This is the classic normalization idiom for indexing `varchar`
/// under engines that want fixed-width keys: store the first `N` bytes
/// and pad the tail with `0x00`. Because padding bytes are the minimum
/// byte value and comparison is big-endian (leftmost byte most
/// significant), the derived `Ord` on the byte array equals
/// lexicographic byte-string order on the originals (up to
/// truncation):
///
/// - For `a < b` as byte strings with a common length, the first
///   differing byte decides both comparisons identically.
/// - A proper prefix sorts before its extensions, and zero-padding
///   preserves that: `"ab\0\0" < "abc\0"` because `0x00 < b'c'`.
///
/// Keys longer than `N` bytes are silently truncated — two keys
/// sharing their first `N` bytes collapse to one index key. Pick `N`
/// for your corpus; 16 is a good default for URL/word data.
///
/// # Sentinel
/// The all-`0xFF` value is [`SentinelKey::MAX_KEY`] and cannot be
/// inserted (no UTF-8 string encodes to it, so real text never
/// collides).
///
/// # Model projection
/// [`FixedStr::prefix_u64`] exposes the first 8 bytes as a big-endian
/// integer — the monotone "prefix-as-integer" projection learned
/// models train on. See the `AlexKey` impl in `alex-core` for the full
/// monotonicity argument.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FixedStr<const N: usize>([u8; N]);

impl<const N: usize> FixedStr<N> {
    /// The reserved all-`0xFF` sentinel (see [`SentinelKey`]).
    pub const MAX: Self = Self([0xFF; N]);

    /// The fixed width in bytes.
    pub const WIDTH: usize = N;

    /// Normalize `bytes`: truncate to `N`, pad with `0x00`.
    pub const fn from_bytes(bytes: &[u8]) -> Self {
        let mut buf = [0u8; N];
        let take = if bytes.len() < N { bytes.len() } else { N };
        let mut i = 0;
        while i < take {
            buf[i] = bytes[i];
            i += 1;
        }
        Self(buf)
    }

    /// The raw fixed-width bytes (padding included).
    #[inline]
    pub const fn as_bytes(&self) -> &[u8; N] {
        &self.0
    }

    /// The key without trailing `0x00` padding. Exact round-trip for
    /// inputs that are at most `N` bytes and do not end in `0x00`.
    pub fn trimmed(&self) -> &[u8] {
        let mut end = N;
        while end > 0 && self.0[end - 1] == 0 {
            end -= 1;
        }
        &self.0[..end]
    }

    /// The trimmed key as text (lossy for non-UTF-8 bytes).
    pub fn to_text(&self) -> String {
        String::from_utf8_lossy(self.trimmed()).into_owned()
    }

    /// The first `min(N, 8)` bytes as a big-endian integer, high-byte
    /// aligned: the monotone prefix-as-integer projection for model
    /// training. Keys sharing an 8-byte prefix collapse to the same
    /// value (models see a locally constant input; search correctness
    /// never depends on it).
    #[inline]
    pub fn prefix_u64(&self) -> u64 {
        let mut buf = [0u8; 8];
        let take = N.min(8);
        buf[..take].copy_from_slice(&self.0[..take]);
        u64::from_be_bytes(buf)
    }
}

impl<const N: usize> Default for FixedStr<N> {
    fn default() -> Self {
        Self([0; N])
    }
}

impl<const N: usize> From<&str> for FixedStr<N> {
    fn from(s: &str) -> Self {
        Self::from_bytes(s.as_bytes())
    }
}

impl<const N: usize> core::fmt::Debug for FixedStr<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if *self == Self::MAX {
            return write!(f, "FixedStr::<{N}>::MAX");
        }
        write!(f, "FixedStr::<{N}>({:?})", self.to_text())
    }
}

impl<const N: usize> SentinelKey for FixedStr<N> {
    const MAX_KEY: Self = Self::MAX;
}

/// A tenant-qualified composite key: `(tenant, key)` ordered
/// lexicographically (tenant first), so one index holds many tenants'
/// keyspaces back to back and a range scan inside a tenant never
/// crosses into the next.
///
/// The derived `PartialOrd`/`Ord` compare `tenant` first, then `key` —
/// exactly the tuple order `(u64, K)`.
///
/// # Sentinel
/// `(u64::MAX, K::MAX_KEY)` is the reserved sentinel. Tenant id
/// `u64::MAX` remains usable for every key except `K::MAX_KEY` (which
/// is unusable anyway).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Composite<K> {
    /// Major component: the tenant id.
    pub tenant: u64,
    /// Minor component: the tenant-local key.
    pub key: K,
}

impl<K> Composite<K> {
    /// Construct a composite key.
    #[inline]
    pub const fn new(tenant: u64, key: K) -> Self {
        Self { tenant, key }
    }
}

impl<K: SentinelKey> SentinelKey for Composite<K> {
    const MAX_KEY: Self = Composite { tenant: u64::MAX, key: K::MAX_KEY };
}

/// The monotone `f64` projection for [`Composite`] keys: the tenant is
/// the integer part, the inner key's own projection is squashed into
/// `[0, 1]` via `atan`.
///
/// Monotonicity argument (non-strict, which is all the model contract
/// requires):
/// - `squash(x) = 0.5 + atan(x)/π` is strictly increasing on the
///   reals with range `(0, 1)`; composing with f64 rounding keeps it
///   non-decreasing.
/// - Tenants dominate: for `t < t'`, `t + squash(a) < t' + squash(b)`
///   holds for every `a, b` while `t` is exactly representable
///   (`t < 2⁵³`); past 2⁵³ the sum rounds but `u64 → f64` casting and
///   addition of a bounded positive term remain non-decreasing.
/// - Within a tenant, ordering follows the inner projection, which is
///   itself monotone by the key contract.
///
/// Ties (distinct keys mapping to one value) are allowed — they only
/// flatten the model locally, and degraded leaves fall back to binary
/// search.
#[inline]
pub fn composite_projection(tenant: u64, key_projection: f64) -> f64 {
    let squashed = if key_projection.is_nan() {
        0.5
    } else {
        0.5 + key_projection.atan() / core::f64::consts::PI
    };
    // atan(±huge)/π rounds to exactly ±0.5, which would let a tenant's
    // top key tie the next tenant's bottom key; pin the fraction
    // strictly inside (0, 1) with a margin coarse enough to survive
    // the addition (the projection is a model hint, not an identity).
    let squashed = squashed.clamp(1e-3, 1.0 - 1e-3);
    tenant as f64 + squashed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixedstr_orders_like_byte_strings() {
        let words = ["", "a", "ab", "ab\u{0}z", "abc", "abcd", "abd", "b", "zzzz"];
        let keys: Vec<FixedStr<8>> = words.iter().map(|w| FixedStr::from(*w)).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
        // The padded forms compare equal to themselves and respect Eq.
        assert_eq!(FixedStr::<8>::from("abc"), FixedStr::from_bytes(b"abc"));
    }

    #[test]
    fn fixedstr_truncates_at_width() {
        let a: FixedStr<4> = "abcdefgh".into();
        let b: FixedStr<4> = "abcdzzzz".into();
        assert_eq!(a, b, "keys sharing the first N bytes collapse");
        assert_eq!(a.trimmed(), b"abcd");
        assert_eq!(a.to_text(), "abcd");
    }

    #[test]
    fn fixedstr_prefix_u64_is_monotone() {
        let words = ["", "a", "aa", "ab", "abcdefghij", "abcdefghiz", "b", "ba"];
        let keys: Vec<FixedStr<16>> = words.iter().map(|w| FixedStr::from(*w)).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
            assert!(
                w[0].prefix_u64() <= w[1].prefix_u64(),
                "prefix projection must be non-decreasing: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
        // Shared 8-byte prefixes collapse (the degradation case).
        assert_eq!(
            FixedStr::<16>::from("abcdefghij").prefix_u64(),
            FixedStr::<16>::from("abcdefghiz").prefix_u64()
        );
    }

    #[test]
    fn fixedstr_sentinel_dominates_and_is_detected() {
        let max = FixedStr::<8>::MAX_KEY;
        assert!(max.is_sentinel());
        for w in ["", "a", "zzzzzzzz", "\u{10FFFF}"] {
            let k: FixedStr<8> = w.into();
            assert!(k < max, "{k:?} must sort below the sentinel");
            assert!(!k.is_sentinel());
        }
        assert_eq!(format!("{max:?}"), "FixedStr::<8>::MAX");
    }

    #[test]
    fn composite_orders_tenant_first() {
        let a = Composite::new(1, 999u64);
        let b = Composite::new(2, 0u64);
        let c = Composite::new(2, 1u64);
        assert!(a < b && b < c);
        assert!(Composite::<u64>::MAX_KEY.is_sentinel());
        assert!(c < Composite::MAX_KEY);
        // Tenant u64::MAX stays usable below the sentinel.
        assert!(Composite::new(u64::MAX, 5u64) < Composite::MAX_KEY);
    }

    #[test]
    fn composite_projection_is_monotone() {
        let keys = [
            (0u64, -1e18),
            (0, 0.0),
            (0, 7.0),
            (1, -5.0),
            (1, 5.0),
            (1000, 0.0),
            (u64::MAX - 1, 0.0),
        ];
        for w in keys.windows(2) {
            let (ta, xa) = w[0];
            let (tb, xb) = w[1];
            assert!(
                composite_projection(ta, xa) <= composite_projection(tb, xb),
                "projection must be non-decreasing at {w:?}"
            );
        }
        // Tenant strictly dominates while exactly representable.
        assert!(composite_projection(3, 1e300) < composite_projection(4, -1e300));
    }

    #[test]
    fn numeric_sentinels() {
        assert!(u64::MAX.is_sentinel());
        assert!(f64::INFINITY.is_sentinel());
        assert!(!0u64.is_sentinel());
        assert!(!f64::MAX.is_sentinel());
        // Writes refuse NaN the same way, alone or inside a composite.
        assert!(f64::NAN.is_sentinel());
        assert!(Composite::new(3, f64::NAN).is_sentinel());
        assert_eq!(i64::MAX_KEY, i64::MAX);
        assert_eq!(u32::MAX_KEY, u32::MAX);
    }
}
