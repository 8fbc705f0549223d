//! WAL record types and the CRC frame that carries them on disk.
//!
//! Every record travels in one frame:
//!
//! ```text
//! [body_len: u32 LE][crc32(body): u32 LE][body]
//! body = [lsn: u64 LE][tag: u8][payload]
//! ```
//!
//! | tag | record                     | payload                             |
//! |-----|----------------------------|-------------------------------------|
//! | 1   | [`WalRecord::Put`]         | key bytes, value bytes              |
//! | 2   | [`WalRecord::Tombstone`]   | key bytes                           |
//! | 3   | [`WalRecord::Checkpoint`]  | snapshot LSN (u64 LE)               |
//! | 4   | [`WalRecord::PutRun`]      | count (u32 LE), count × (key, value) |
//!
//! The reader classifies every stopping point (see [`FrameOutcome`]):
//! a frame whose bytes run out mid-way is a **torn tail** (the write
//! that was in flight when the process died), a frame whose CRC or
//! tag disagrees is **corrupt** — recovery truncates at either and
//! ignores everything after, so a torn group commit can never smuggle
//! garbage into replay.

use crate::codec::{crc32, WalCodec};

/// Log sequence number. LSN 0 means "nothing": real records start at
/// 1, so a snapshot of an empty index can record LSN 0 and replay
/// still starts strictly after it.
pub type Lsn = u64;

/// Upper bound on a frame body. Real bodies are tens of bytes (fixed
/// width numerics); the guard keeps a corrupt length prefix from
/// looking like a multi-gigabyte "incomplete frame" and masking the
/// corruption as a torn tail.
pub const MAX_FRAME_BODY: usize = 1 << 20;

const TAG_PUT: u8 = 1;
const TAG_TOMBSTONE: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;
const TAG_PUT_RUN: u8 = 4;

/// Largest pair count a [`WalRecord::PutRun`] may carry. Appenders
/// chunk longer runs. Sized so a run of the widest codec pair
/// (16 bytes) stays comfortably under [`MAX_FRAME_BODY`]:
/// `32768 × 16 B = 512 KiB` against the 1 MiB frame cap.
pub const MAX_PUT_RUN_PAIRS: usize = 32_768;

/// One logical WAL record (decoded form).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord<K, V> {
    /// Upsert: on replay the value overwrites whatever `key` holds.
    /// Both fresh inserts and updates log as `Put` — replay cannot
    /// (and need not) tell them apart.
    Put { key: K, value: V },
    /// Deletion marker; replaying it removes `key` if present.
    Tombstone { key: K },
    /// A snapshot at `snapshot_lsn` completed. Purely informational
    /// breadcrumb for log forensics — recovery trusts the manifest,
    /// not checkpoints.
    Checkpoint { snapshot_lsn: Lsn },
    /// A sorted run of upserts under **one** frame + CRC + LSN — the
    /// batched form `bulk_insert` logs instead of one [`WalRecord::Put`]
    /// frame per pair (17 bytes of framing amortized over the run).
    /// Pairs must be strictly increasing by key. Replay upserts them
    /// one by one, in place on the not-yet-shared index, exactly like
    /// a run of `Put`s at the same position in the log: the run saves
    /// log bytes, not replay work.
    PutRun { pairs: Vec<(K, V)> },
}

/// What the frame reader found at one position in a segment.
#[derive(Debug)]
pub enum FrameOutcome<K, V> {
    /// A whole, checksummed frame. `consumed` is its total size.
    Ok { lsn: Lsn, record: WalRecord<K, V>, consumed: usize },
    /// Bytes ran out mid-frame: the torn tail of an interrupted
    /// write. Everything before this offset is intact.
    Torn,
    /// The frame is structurally complete but wrong: bad CRC, unknown
    /// tag, payload length mismatch, or an absurd length prefix.
    Corrupt,
}

/// Append one framed record to `out`. Returns the frame's total size.
pub fn encode_frame<K: WalCodec, V: WalCodec>(
    lsn: Lsn,
    record: &WalRecord<K, V>,
    out: &mut Vec<u8>,
) -> usize {
    let mut body = Vec::with_capacity(32);
    lsn.encode_into(&mut body);
    match record {
        WalRecord::Put { key, value } => {
            body.push(TAG_PUT);
            key.encode_into(&mut body);
            value.encode_into(&mut body);
        }
        WalRecord::Tombstone { key } => {
            body.push(TAG_TOMBSTONE);
            key.encode_into(&mut body);
        }
        WalRecord::Checkpoint { snapshot_lsn } => {
            body.push(TAG_CHECKPOINT);
            snapshot_lsn.encode_into(&mut body);
        }
        WalRecord::PutRun { pairs } => {
            // Key ordering is the appender's contract (checked where
            // `PartialOrd` is in scope); here only the size cap is.
            debug_assert!(pairs.len() <= MAX_PUT_RUN_PAIRS, "chunk runs before framing");
            body.push(TAG_PUT_RUN);
            (pairs.len() as u32).encode_into(&mut body);
            for (key, value) in pairs {
                key.encode_into(&mut body);
                value.encode_into(&mut body);
            }
        }
    }
    debug_assert!(body.len() <= MAX_FRAME_BODY);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    8 + body.len()
}

/// Decode the frame starting at the front of `input`.
pub fn decode_frame<K: WalCodec, V: WalCodec>(input: &[u8]) -> FrameOutcome<K, V> {
    if input.is_empty() {
        // Callers check for emptiness first; an empty suffix is a
        // clean end, reported as Torn only for uniformity.
        return FrameOutcome::Torn;
    }
    if input.len() < 8 {
        return FrameOutcome::Torn;
    }
    let body_len = u32::from_le_bytes(input[0..4].try_into().expect("4 bytes")) as usize;
    if !(9..=MAX_FRAME_BODY).contains(&body_len) {
        // Shorter than lsn+tag or absurdly long: a mangled length
        // prefix, not a torn write.
        return FrameOutcome::Corrupt;
    }
    let expect_crc = u32::from_le_bytes(input[4..8].try_into().expect("4 bytes"));
    if input.len() < 8 + body_len {
        return FrameOutcome::Torn;
    }
    let body = &input[8..8 + body_len];
    if crc32(body) != expect_crc {
        return FrameOutcome::Corrupt;
    }
    let mut cursor = body;
    let Some(lsn) = Lsn::decode_from(&mut cursor) else {
        return FrameOutcome::Corrupt;
    };
    let (tag, mut cursor) = match cursor.split_first() {
        Some((tag, rest)) => (*tag, rest),
        None => return FrameOutcome::Corrupt,
    };
    let record = match tag {
        TAG_PUT => {
            let Some(key) = K::decode_from(&mut cursor) else {
                return FrameOutcome::Corrupt;
            };
            let Some(value) = V::decode_from(&mut cursor) else {
                return FrameOutcome::Corrupt;
            };
            WalRecord::Put { key, value }
        }
        TAG_TOMBSTONE => {
            let Some(key) = K::decode_from(&mut cursor) else {
                return FrameOutcome::Corrupt;
            };
            WalRecord::Tombstone { key }
        }
        TAG_CHECKPOINT => {
            let Some(snapshot_lsn) = Lsn::decode_from(&mut cursor) else {
                return FrameOutcome::Corrupt;
            };
            WalRecord::Checkpoint { snapshot_lsn }
        }
        TAG_PUT_RUN => {
            let Some(count) = u32::decode_from(&mut cursor) else {
                return FrameOutcome::Corrupt;
            };
            let count = count as usize;
            // Each pair needs at least one payload byte, so a count
            // beyond the remaining bytes is a mangled prefix — reject
            // before trusting it with an allocation.
            if count > cursor.len() {
                return FrameOutcome::Corrupt;
            }
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let Some(key) = K::decode_from(&mut cursor) else {
                    return FrameOutcome::Corrupt;
                };
                let Some(value) = V::decode_from(&mut cursor) else {
                    return FrameOutcome::Corrupt;
                };
                pairs.push((key, value));
            }
            WalRecord::PutRun { pairs }
        }
        _ => return FrameOutcome::Corrupt,
    };
    if !cursor.is_empty() {
        // Trailing payload bytes the codec did not account for: the
        // CRC matched garbage-in-garbage-out, still reject.
        return FrameOutcome::Corrupt;
    }
    FrameOutcome::Ok { lsn, record, consumed: 8 + body_len }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(lsn: Lsn, record: &WalRecord<u64, u64>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(lsn, record, &mut out);
        out
    }

    #[test]
    fn all_record_kinds_round_trip() {
        for (lsn, rec) in [
            (1, WalRecord::Put { key: 42u64, value: 7u64 }),
            (2, WalRecord::Tombstone { key: 42 }),
            (3, WalRecord::Checkpoint { snapshot_lsn: 2 }),
            (4, WalRecord::PutRun { pairs: vec![(1, 10), (2, 20), (5, 50)] }),
            (5, WalRecord::PutRun { pairs: vec![] }),
        ] {
            let bytes = frame(lsn, &rec);
            match decode_frame::<u64, u64>(&bytes) {
                FrameOutcome::Ok { lsn: l, record, consumed } => {
                    assert_eq!(l, lsn);
                    assert_eq!(record, rec);
                    assert_eq!(consumed, bytes.len());
                }
                other => panic!("expected Ok, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_point_reads_as_torn() {
        let bytes = frame(9, &WalRecord::Put { key: 1, value: 2 });
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_frame::<u64, u64>(&bytes[..cut]), FrameOutcome::Torn),
                "cut at {cut} must read as a torn tail"
            );
        }
    }

    #[test]
    fn every_bit_flip_reads_as_corrupt_or_torn() {
        let bytes = frame(9, &WalRecord::Put { key: 1, value: 2 });
        for i in 0..bytes.len() * 8 {
            let mut mangled = bytes.clone();
            mangled[i / 8] ^= 1 << (i % 8);
            match decode_frame::<u64, u64>(&mangled) {
                // Flips in the length prefix can make the frame look
                // longer than the buffer (torn) or absurd (corrupt);
                // flips anywhere else must fail the CRC.
                FrameOutcome::Torn | FrameOutcome::Corrupt => {}
                FrameOutcome::Ok { .. } => panic!("bit {i} flip went undetected"),
            }
        }
    }

    #[test]
    fn put_run_amortizes_framing_bytes() {
        let pairs: Vec<(u64, u64)> = (0..100).map(|k| (k, k * 2)).collect();
        let run = frame(1, &WalRecord::PutRun { pairs: pairs.clone() });
        let per_pair: usize = pairs
            .iter()
            .map(|&(k, v)| frame(1, &WalRecord::Put { key: k, value: v }).len())
            .sum();
        // One frame header + LSN + tag for the whole run vs one per
        // pair: 8 + 9 = 17 bytes saved per pair beyond the first,
        // plus the 4-byte count.
        assert_eq!(run.len(), per_pair - 99 * 17 + 4);
        assert!(run.len() * 2 < per_pair, "run framing must at least halve the bytes");
    }

    #[test]
    fn put_run_truncations_and_bit_flips_are_rejected() {
        let pairs: Vec<(u64, u64)> = (0..8).map(|k| (k, k)).collect();
        let bytes = frame(3, &WalRecord::PutRun { pairs });
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_frame::<u64, u64>(&bytes[..cut]), FrameOutcome::Torn),
                "cut at {cut} must read as a torn tail"
            );
        }
        for i in 0..bytes.len() * 8 {
            let mut mangled = bytes.clone();
            mangled[i / 8] ^= 1 << (i % 8);
            match decode_frame::<u64, u64>(&mangled) {
                FrameOutcome::Torn | FrameOutcome::Corrupt => {}
                FrameOutcome::Ok { .. } => panic!("bit {i} flip went undetected"),
            }
        }
    }

    #[test]
    fn put_run_with_a_lying_count_is_corrupt() {
        let pairs: Vec<(u64, u64)> = (0..4).map(|k| (k, k)).collect();
        let mut bytes = frame(1, &WalRecord::PutRun { pairs });
        // The count field sits right after [len:4][crc:4][lsn:8][tag:1].
        let count_at = 4 + 4 + 8 + 1;
        // A count far beyond the body: rejected before any allocation.
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame::<u64, u64>(&bytes), FrameOutcome::Corrupt));
    }

    #[test]
    fn undersized_length_prefix_is_corrupt() {
        let mut bytes = frame(1, &WalRecord::Tombstone { key: 3 });
        bytes[0..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(decode_frame::<u64, u64>(&bytes), FrameOutcome::Corrupt));
    }
}
