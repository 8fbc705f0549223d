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
//! Snapshot files are written in the same frames (see
//! [`crate::snapshot`]), so one decoder reads both kinds of file.
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

/// Upper bound on a frame body. A point record's body is tens of
/// bytes and [`encode_put_runs`] cuts runs to fit; the guard keeps a
/// corrupt length prefix from looking like a multi-gigabyte
/// "incomplete frame" and masking the corruption as a torn tail.
pub const MAX_FRAME_BODY: usize = 1 << 20;

const TAG_PUT: u8 = 1;
const TAG_TOMBSTONE: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;
const TAG_PUT_RUN: u8 = 4;

/// One logical WAL record (decoded form).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord<K, V> {
    /// Upsert: on replay the value overwrites whatever `key` holds.
    /// Both fresh inserts and updates log as `Put` — replay cannot
    /// (and need not) tell them apart.
    Put { key: K, value: V },
    /// Deletion marker; replaying it removes `key` if present.
    Tombstone { key: K },
    /// The end frame of a snapshot file: the file holds every record
    /// up to `snapshot_lsn`, the LSN its name carries. The log itself
    /// never holds one.
    Checkpoint { snapshot_lsn: Lsn },
    /// A sorted run of upserts under **one** frame + CRC + LSN — the
    /// batched form `bulk_insert` logs instead of one [`WalRecord::Put`]
    /// frame per pair (17 bytes of framing amortized over the run),
    /// and the form a snapshot file stores each leaf in. Pairs must be
    /// strictly increasing by key, and the body must fit
    /// [`MAX_FRAME_BODY`]: [`encode_put_runs`] cuts longer runs. Replay
    /// upserts them one by one, in place on the not-yet-shared index,
    /// exactly like a run of `Put`s at the same position in the log:
    /// the run saves log bytes, not replay work.
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
///
/// # Panics
/// Panics if the body exceeds [`MAX_FRAME_BODY`], which only a
/// [`WalRecord::PutRun`] that did not go through [`encode_put_runs`]
/// can: recovery would refuse such a frame and everything after it.
pub fn encode_frame<K: WalCodec, V: WalCodec>(
    lsn: Lsn,
    record: &WalRecord<K, V>,
    out: &mut Vec<u8>,
) -> usize {
    let start = out.len();
    match record {
        WalRecord::Put { key, value } => {
            begin_frame(lsn, TAG_PUT, out);
            key.encode_into(out);
            value.encode_into(out);
        }
        WalRecord::Tombstone { key } => {
            begin_frame(lsn, TAG_TOMBSTONE, out);
            key.encode_into(out);
        }
        WalRecord::Checkpoint { snapshot_lsn } => {
            begin_frame(lsn, TAG_CHECKPOINT, out);
            snapshot_lsn.encode_into(out);
        }
        WalRecord::PutRun { pairs } => {
            // Key ordering is the appender's contract (checked where
            // `PartialOrd` is in scope); here only the size cap is.
            let fitted = encode_run_body(lsn, pairs, out);
            assert_eq!(fitted, pairs.len(), "a PutRun body must fit MAX_FRAME_BODY");
        }
    }
    seal_frame(start, out)
}

/// Append `pairs` as consecutive [`WalRecord::PutRun`] frames numbered
/// `first_lsn`, `first_lsn + 1`, …, cutting a new frame wherever the
/// next pair would take the body past [`MAX_FRAME_BODY`], so every
/// frame decodes for any codec. An empty `pairs` still makes one
/// (empty) frame. Returns the number of frames, i.e. of LSNs used.
pub fn encode_put_runs<K: WalCodec, V: WalCodec>(
    first_lsn: Lsn,
    mut pairs: &[(K, V)],
    out: &mut Vec<u8>,
) -> u64 {
    let mut frames = 0;
    loop {
        let start = out.len();
        let fitted = encode_run_body(first_lsn + frames, pairs, out);
        seal_frame(start, out);
        frames += 1;
        if fitted == pairs.len() {
            return frames;
        }
        assert!(fitted > 0, "one pair is wider than MAX_FRAME_BODY");
        pairs = &pairs[fitted..];
    }
}

/// Reserve the length and CRC words, then write `lsn` and `tag`.
fn begin_frame(lsn: Lsn, tag: u8, out: &mut Vec<u8>) {
    out.extend_from_slice(&[0; 8]);
    lsn.encode_into(out);
    out.push(tag);
}

/// Begin a `PutRun` frame and encode the longest prefix of `pairs`
/// whose body fits [`MAX_FRAME_BODY`]. Returns the pairs encoded.
fn encode_run_body<K: WalCodec, V: WalCodec>(lsn: Lsn, pairs: &[(K, V)], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    begin_frame(lsn, TAG_PUT_RUN, out);
    let count_at = out.len();
    out.extend_from_slice(&[0; 4]);
    let mut fitted = 0;
    for (key, value) in pairs {
        let end = out.len();
        key.encode_into(out);
        value.encode_into(out);
        if out.len() - start - 8 > MAX_FRAME_BODY {
            out.truncate(end);
            break;
        }
        fitted += 1;
    }
    out[count_at..count_at + 4].copy_from_slice(&(fitted as u32).to_le_bytes());
    fitted
}

/// Fill in the length and CRC words of the frame begun at `start`.
/// Returns the frame's total size.
fn seal_frame(start: usize, out: &mut [u8]) -> usize {
    let body_len = out.len() - start - 8;
    assert!(body_len <= MAX_FRAME_BODY, "frame body over MAX_FRAME_BODY");
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    8 + body_len
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
