//! Fixed-width byte codec for WAL and snapshot payloads, plus the
//! CRC-32 every frame is guarded by.
//!
//! The workspace stores numeric keys and payloads (`u64`/`i64`/`u32`/
//! `f64`, plus `()` for key-only workloads), so the codec is a small
//! closed family of little-endian fixed-width encodings rather than a
//! serialization framework: no external crates, no schema evolution,
//! and decode cost is a bounds check plus a copy. A frame's length and
//! CRC delimit records on disk, so the codec itself only needs to be
//! self-delimiting *within* a frame — which fixed widths give for
//! free.

/// Types that can round-trip through a record of a log or snapshot file.
///
/// `decode_from` consumes this value's encoding from the front of
/// `input` (advancing the slice) and returns `None` if too few bytes
/// remain — the caller treats that as frame corruption, never a
/// panic.
pub trait WalCodec: Sized {
    /// Append this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Consume and decode one value from the front of `input`.
    fn decode_from(input: &mut &[u8]) -> Option<Self>;
}

fn take<const N: usize>(input: &mut &[u8]) -> Option<[u8; N]> {
    if input.len() < N {
        return None;
    }
    let (head, rest) = input.split_at(N);
    *input = rest;
    let mut bytes = [0u8; N];
    bytes.copy_from_slice(head);
    Some(bytes)
}

impl WalCodec for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        take::<8>(input).map(u64::from_le_bytes)
    }
}

impl WalCodec for i64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        take::<8>(input).map(i64::from_le_bytes)
    }
}

impl WalCodec for u32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        take::<4>(input).map(u32::from_le_bytes)
    }
}

impl WalCodec for f64 {
    /// Encoded via [`f64::to_bits`], so every bit pattern (including
    /// NaNs and signed zeros) round-trips exactly.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        take::<8>(input).map(|b| f64::from_bits(u64::from_le_bytes(b)))
    }
}

impl WalCodec for () {
    /// Zero bytes: key-only workloads pay nothing per payload.
    fn encode_into(&self, _out: &mut Vec<u8>) {}

    fn decode_from(_input: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl<const N: usize> WalCodec for alex_core::FixedStr<N> {
    /// The raw `N` normalized bytes (padding included), so the
    /// encoding stays fixed-width and every value — the all-`0xFF`
    /// sentinel included — round-trips exactly.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }

    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        if input.len() < N {
            return None;
        }
        let (head, rest) = input.split_at(N);
        *input = rest;
        Some(Self::from_bytes(head))
    }
}

impl<K: WalCodec> WalCodec for alex_core::Composite<K> {
    /// Tenant id first, then the inner key's own encoding.
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.tenant.encode_into(out);
        self.key.encode_into(out);
    }

    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        let tenant = u64::decode_from(input)?;
        let key = K::decode_from(input)?;
        Some(Self::new(tenant, key))
    }
}

// ----------------------------------------------------------------------
// CRC-32 (IEEE, reflected polynomial 0xEDB88320)
// ----------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every WAL frame
/// and snapshot page. Table-driven, table built at compile time, so
/// no external crate is needed.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut bytes = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc32(&bytes);
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), clean, "bit {i} flip must change the crc");
            bytes[i / 8] ^= 1 << (i % 8);
        }
        assert_eq!(crc32(&bytes), clean);
    }

    #[test]
    fn numeric_codecs_round_trip() {
        fn roundtrip<T: WalCodec + PartialEq + core::fmt::Debug>(v: T) {
            let mut buf = Vec::new();
            v.encode_into(&mut buf);
            let mut slice = buf.as_slice();
            assert_eq!(T::decode_from(&mut slice), Some(v));
            assert!(slice.is_empty(), "decode must consume exactly the encoding");
        }
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(-1i64);
        roundtrip(u32::MAX);
        roundtrip(0.0f64);
        roundtrip(-0.0f64);
        roundtrip(f64::MAX);
        roundtrip(());
    }

    #[test]
    fn string_and_composite_codecs_round_trip() {
        fn roundtrip<T: WalCodec + PartialEq + core::fmt::Debug>(v: T) {
            let mut buf = Vec::new();
            v.encode_into(&mut buf);
            let mut slice = buf.as_slice();
            assert_eq!(T::decode_from(&mut slice), Some(v));
            assert!(slice.is_empty(), "decode must consume exactly the encoding");
        }
        roundtrip(alex_core::FixedStr::<16>::from("https://a.example"));
        roundtrip(alex_core::FixedStr::<16>::from(""));
        roundtrip(alex_core::FixedStr::<16>::MAX);
        roundtrip(alex_core::Composite::new(7, 42u64));
        roundtrip(alex_core::Composite::new(
            u64::MAX,
            alex_core::FixedStr::<8>::from("tail"),
        ));
        // Fixed-width: a FixedStr<16> frame is exactly 16 bytes.
        let mut buf = Vec::new();
        alex_core::FixedStr::<16>::from("x").encode_into(&mut buf);
        assert_eq!(buf.len(), 16);
        for cut in 0..16 {
            let mut slice = &buf[..cut];
            assert_eq!(
                alex_core::FixedStr::<16>::decode_from(&mut slice),
                None,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn nan_payload_round_trips_bit_exact() {
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut buf = Vec::new();
        nan.encode_into(&mut buf);
        let mut slice = buf.as_slice();
        let back = f64::decode_from(&mut slice).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn truncated_input_decodes_to_none() {
        let mut buf = Vec::new();
        0xDEAD_BEEF_u64.encode_into(&mut buf);
        for cut in 0..8 {
            let mut slice = &buf[..cut];
            assert_eq!(u64::decode_from(&mut slice), None, "cut {cut}");
        }
    }
}
