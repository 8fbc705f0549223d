//! The append-only segment log: LSN assignment, group commit, torn
//! tail repair.
//!
//! A log directory holds segments named `wal-<first-lsn>.log` (20
//! zero-padded digits, so lexicographic order is LSN order). Appends
//! accumulate frames in an in-memory buffer; [`Wal::commit`] pushes
//! the whole buffer to the current segment in **one `write_all`**
//! followed by at most one `fsync` — that single syscall pair is the
//! group commit, however many records the buffer holds. A buffered
//! record is *applied* but not yet *durable*: a crash loses exactly
//! the suffix after [`Wal::committed_lsn`], never a prefix and never
//! a torn interior, because frames are written in LSN order and the
//! reader truncates at the first bad frame.
//!
//! Segments rotate once the current one exceeds
//! [`WalOptions::segment_bytes`]; a whole group commit always lands
//! in one segment, so segment boundaries are also commit boundaries.
//! [`Wal::truncate_before`] deletes segments made obsolete by a
//! snapshot (those fully covered by a newer segment's start LSN).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use crate::codec::WalCodec;
use crate::record::{decode_frame, encode_frame, encode_put_runs, FrameOutcome, Lsn, WalRecord};

/// When `commit` calls `fsync` on the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every commit: a commit survives OS and power
    /// failure. The default.
    #[default]
    Always,
    /// Never `fsync`: a commit survives process death (the bytes are
    /// in the page cache) but not OS failure. The right policy for
    /// tests and benchmarks, which simulate crashes by dropping the
    /// writer.
    Never,
}

/// Tuning knobs for one log (and, by extension, one [`crate::DurableAlex`]).
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// See [`SyncPolicy`].
    pub sync: SyncPolicy,
    /// Auto-commit once this many records are buffered. 1 (the
    /// default) commits every operation; larger values trade a
    /// bounded window of acknowledged-but-volatile operations for a
    /// fraction of the syscalls.
    pub group_commit_ops: usize,
    /// Rotate to a new segment once the current one reaches this many
    /// bytes.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::Always,
            group_commit_ops: 1,
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Counters for the group-commit accounting tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (whether or not committed yet).
    pub appended: u64,
    /// `commit` calls that wrote a non-empty buffer — each one
    /// `write_all` syscall.
    pub commits: u64,
    /// `fsync` calls issued.
    pub syncs: u64,
    /// Segments created.
    pub segments: u64,
}

/// What a directory scan recovered from the log.
#[derive(Debug)]
pub struct WalScan<K, V> {
    /// All intact records across all segments, in LSN order.
    pub records: Vec<(Lsn, WalRecord<K, V>)>,
    /// Highest intact LSN (0 if the log is empty).
    pub last_lsn: Lsn,
    /// Bytes cut off the segment where the first bad frame appeared.
    pub truncated_bytes: u64,
    /// Later segments deleted wholesale after a bad frame.
    pub dropped_segments: usize,
}

/// The append side of one log directory. `K`/`V` fix the record
/// codec; one `Wal` is owned per [`crate::DurableAlex`] (and per
/// shard in the sharded wrapper), serialized by its owner's mutex.
#[derive(Debug)]
pub struct Wal<K, V> {
    dir: PathBuf,
    opts: WalOptions,
    /// LSN the next append receives.
    next_lsn: Lsn,
    /// Highest LSN pushed to the OS by a commit.
    committed: Lsn,
    /// Encoded-but-uncommitted frames.
    buf: Vec<u8>,
    buf_records: usize,
    /// LSN of the first buffered record (valid while `buf_records > 0`).
    buf_first_lsn: Lsn,
    /// Current segment and its size in bytes.
    segment: Option<(File, u64)>,
    stats: WalStats,
    _codec: PhantomData<(K, V)>,
}

fn segment_path(dir: &Path, first_lsn: Lsn) -> PathBuf {
    dir.join(format!("wal-{first_lsn:020}.log"))
}

/// Parse `wal-<lsn>.log` back to its starting LSN.
fn parse_segment_name(name: &str) -> Option<Lsn> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.len() != 20 {
        return None;
    }
    digits.parse().ok()
}

/// All segment files in `dir`, sorted by starting LSN.
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<(Lsn, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(lsn) = name.to_str().and_then(parse_segment_name) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(lsn, _)| *lsn);
    Ok(out)
}

impl<K: WalCodec, V: WalCodec> Wal<K, V> {
    /// Open a fresh log in `dir` (created if missing), starting at
    /// LSN 1. Fails if the directory already holds segments.
    pub fn create(dir: impl Into<PathBuf>, opts: WalOptions) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if !list_segments(&dir)?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "log directory already contains WAL segments",
            ));
        }
        Ok(Self::resume(dir, opts, 1, 0))
    }

    /// Continue an existing log after recovery: the next append gets
    /// `next_lsn`, and everything before it is treated as durable.
    /// New records go to a fresh segment (named by their first LSN) —
    /// the repaired old segments are never appended to again.
    pub fn resume(dir: impl Into<PathBuf>, opts: WalOptions, next_lsn: Lsn, committed: Lsn) -> Self {
        Self {
            dir: dir.into(),
            opts,
            next_lsn,
            committed,
            buf: Vec::new(),
            buf_records: 0,
            buf_first_lsn: 0,
            segment: None,
            stats: WalStats::default(),
            _codec: PhantomData,
        }
    }

    /// Buffer one record, assigning it the next LSN; a
    /// [`WalRecord::PutRun`] too big for one frame is cut into several
    /// ([`encode_put_runs`]), each taking the next LSN. Returns the
    /// last LSN assigned. Nothing touches the disk until
    /// [`Wal::commit`] (or [`Wal::commit_if_due`]).
    pub fn append(&mut self, record: &WalRecord<K, V>) -> Lsn {
        let lsn = self.next_lsn;
        if self.buf_records == 0 {
            self.buf_first_lsn = lsn;
        }
        let frames = match record {
            WalRecord::PutRun { pairs } => encode_put_runs(lsn, pairs, &mut self.buf),
            _ => {
                encode_frame(lsn, record, &mut self.buf);
                1
            }
        };
        self.next_lsn += frames;
        self.buf_records += frames as usize;
        self.stats.appended += frames;
        self.next_lsn - 1
    }

    /// Commit iff the group-commit threshold is reached.
    pub fn commit_if_due(&mut self) -> io::Result<()> {
        if self.buf_records >= self.opts.group_commit_ops.max(1) {
            self.commit()?;
        }
        Ok(())
    }

    /// Push every buffered record to the current segment in one
    /// `write_all` (+ one `fsync` under [`SyncPolicy::Always`]) — the
    /// group commit. No-op on an empty buffer. Returns the highest
    /// committed LSN.
    pub fn commit(&mut self) -> io::Result<Lsn> {
        if self.buf_records == 0 {
            return Ok(self.committed);
        }
        let needs_rotation = match &self.segment {
            None => true,
            Some((_, bytes)) => *bytes >= self.opts.segment_bytes,
        };
        if needs_rotation {
            let path = segment_path(&self.dir, self.buf_first_lsn);
            let file = match OpenOptions::new().create_new(true).append(true).open(&path) {
                Ok(file) => file,
                // A crash between segment creation and its first write
                // strands a zero-length file under exactly this name
                // (recovery re-assigns the lost first LSN). It holds
                // no committed data, so replace it rather than wedge
                // every future commit on AlreadyExists.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists
                    && fs::metadata(&path).map(|m| m.len() == 0).unwrap_or(false) =>
                {
                    fs::remove_file(&path)?;
                    OpenOptions::new().create_new(true).append(true).open(&path)?
                }
                Err(e) => return Err(e),
            };
            self.segment = Some((file, 0));
            self.stats.segments += 1;
        }
        let (file, bytes) = self.segment.as_mut().expect("segment opened above");
        file.write_all(&self.buf)?;
        if self.opts.sync == SyncPolicy::Always {
            file.sync_data()?;
            self.stats.syncs += 1;
            if needs_rotation {
                // The data is durable, but the new file's directory
                // entry is not until the directory itself is synced —
                // without this a power failure can drop the whole
                // committed segment. Its error is still dropped: an
                // `Err` here makes the next commit write the buffer
                // again, a hole the write fence of ROADMAP item 2 is
                // to close first.
                let _ = sync_dir(&self.dir);
            }
        }
        *bytes += self.buf.len() as u64;
        self.committed = self.next_lsn - 1;
        self.buf.clear();
        self.buf_records = 0;
        self.stats.commits += 1;
        Ok(self.committed)
    }

    /// Highest LSN assigned so far (0 if none). May exceed
    /// [`Wal::committed_lsn`] by the buffered records.
    pub fn last_lsn(&self) -> Lsn {
        self.next_lsn - 1
    }

    /// Highest LSN a commit has pushed to the OS (0 if none). A crash
    /// (process death) loses exactly the records above this.
    pub fn committed_lsn(&self) -> Lsn {
        self.committed
    }

    /// Records currently buffered (appended, not yet committed).
    pub fn buffered(&self) -> usize {
        self.buf_records
    }

    /// Counters for the group-commit accounting tests.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Delete segments fully superseded by `lsn` (typically a
    /// snapshot's LSN): a segment can go once the *next* segment
    /// starts at or before `lsn + 1`, i.e. every record the dropped
    /// segment holds is `<= lsn`. The newest segment always stays.
    pub fn truncate_before(&mut self, lsn: Lsn) -> io::Result<usize> {
        let segments = list_segments(&self.dir)?;
        let mut dropped = 0;
        for pair in segments.windows(2) {
            let (_, path) = &pair[0];
            let (next_start, _) = pair[1];
            if next_start <= lsn + 1 {
                fs::remove_file(path)?;
                dropped += 1;
            }
        }
        if dropped > 0 && self.opts.sync == SyncPolicy::Always {
            sync_dir(&self.dir)?;
        }
        Ok(dropped)
    }
}

/// Directory fsync: makes a file creation, deletion, or rename in
/// `dir` durable. A directory that cannot be opened (platforms that do
/// not allow it) is a no-op; a failed fsync is returned.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Read every segment in `dir`, stopping at the first torn or corrupt
/// frame: the offending segment is **truncated in place** to its last
/// intact frame (deleted outright when no frame survives, so the name
/// is free for the resumed log to recreate) and all later segments are
/// deleted (they were written after the damage point, so their
/// contents are unreachable by LSN-order replay anyway). Zero-length
/// segments — a crash between rotation's `create_new` and the first
/// write — are deleted for the same reason. Also enforces LSN
/// continuity: each
/// record must carry the predecessor's LSN + 1, and each segment must
/// start at the LSN its name claims — a mismatch is treated exactly
/// like corruption at that offset.
pub fn scan_and_repair<K: WalCodec, V: WalCodec>(dir: &Path) -> io::Result<WalScan<K, V>> {
    let segments = list_segments(dir)?;
    let mut scan = WalScan {
        records: Vec::new(),
        last_lsn: 0,
        truncated_bytes: 0,
        dropped_segments: 0,
    };
    let mut damage: Option<usize> = None; // index of the damaged segment
    'segments: for (si, (start_lsn, path)) in segments.iter().enumerate() {
        let bytes = fs::read(path)?;
        if bytes.is_empty() {
            // A crash between segment creation and its first write.
            // Resume will hand out the same first LSN again, so the
            // stale name must go or the next commit's create_new
            // collides with it.
            fs::remove_file(path)?;
            continue;
        }
        let mut offset = 0usize;
        while offset < bytes.len() {
            match decode_frame::<K, V>(&bytes[offset..]) {
                FrameOutcome::Ok { lsn, record, consumed } => {
                    let expected = if scan.records.is_empty() { *start_lsn } else { scan.last_lsn + 1 };
                    let name_ok = offset > 0 || lsn == *start_lsn;
                    if lsn != expected || !name_ok {
                        truncate_segment(path, offset, &bytes, &mut scan)?;
                        damage = Some(si);
                        break 'segments;
                    }
                    scan.records.push((lsn, record));
                    scan.last_lsn = lsn;
                    offset += consumed;
                }
                FrameOutcome::Torn | FrameOutcome::Corrupt => {
                    truncate_segment(path, offset, &bytes, &mut scan)?;
                    damage = Some(si);
                    break 'segments;
                }
            }
        }
        // A segment that is not the newest must chain into the next
        // one; if it ends early (e.g. its tail was already truncated
        // by a previous repair), later segments are unreachable.
        if si + 1 < segments.len() && scan.last_lsn + 1 != segments[si + 1].0 {
            damage = Some(si);
            break 'segments;
        }
    }
    if let Some(si) = damage {
        for (_, path) in &segments[si + 1..] {
            fs::remove_file(path)?;
            scan.dropped_segments += 1;
        }
    }
    Ok(scan)
}

fn truncate_segment<K, V>(
    path: &Path,
    keep: usize,
    bytes: &[u8],
    scan: &mut WalScan<K, V>,
) -> io::Result<()> {
    scan.truncated_bytes += (bytes.len() - keep) as u64;
    if keep == 0 {
        // No intact frame survives: delete the segment outright. A
        // zero-length leftover would collide with the segment name
        // the resumed log recreates for these very LSNs.
        fs::remove_file(path)?;
    } else {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(keep as u64)?;
        file.sync_data()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir as TestDir;

    fn no_sync() -> WalOptions {
        WalOptions { sync: SyncPolicy::Never, ..WalOptions::default() }
    }

    fn put(k: u64, v: u64) -> WalRecord<u64, u64> {
        WalRecord::Put { key: k, value: v }
    }

    #[test]
    fn append_commit_scan_round_trips() {
        let dir = TestDir::new("wal-roundtrip");
        let mut wal: Wal<u64, u64> = Wal::create(dir.path(), no_sync()).unwrap();
        assert_eq!(wal.append(&put(1, 10)), 1);
        assert_eq!(wal.append(&WalRecord::Tombstone { key: 1 }), 2);
        assert_eq!(wal.append(&WalRecord::Checkpoint { snapshot_lsn: 0 }), 3);
        assert_eq!(wal.commit().unwrap(), 3);
        drop(wal);
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.last_lsn, 3);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[0], (1, put(1, 10)));
        assert_eq!(scan.records[1], (2, WalRecord::Tombstone { key: 1 }));
    }

    #[test]
    fn group_commit_batches_records_into_one_write() {
        let dir = TestDir::new("wal-group");
        let opts = WalOptions { group_commit_ops: 8, ..no_sync() };
        let mut wal: Wal<u64, u64> = Wal::create(dir.path(), opts).unwrap();
        for k in 0..16u64 {
            wal.append(&put(k, k));
            wal.commit_if_due().unwrap();
        }
        // 16 appends at group size 8: exactly 2 write_all calls.
        assert_eq!(wal.stats().appended, 16);
        assert_eq!(wal.stats().commits, 2);
        assert_eq!(wal.stats().syncs, 0, "SyncPolicy::Never must not fsync");
        assert_eq!(wal.committed_lsn(), 16);
    }

    #[test]
    fn uncommitted_buffer_is_lost_on_drop() {
        let dir = TestDir::new("wal-volatile");
        let opts = WalOptions { group_commit_ops: 100, ..no_sync() };
        let mut wal: Wal<u64, u64> = Wal::create(dir.path(), opts).unwrap();
        for k in 0..5u64 {
            wal.append(&put(k, k));
        }
        wal.commit().unwrap();
        for k in 5..9u64 {
            wal.append(&put(k, k));
            wal.commit_if_due().unwrap(); // never due at group size 100
        }
        assert_eq!(wal.committed_lsn(), 5);
        drop(wal); // crash: the 4 buffered records evaporate
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.last_lsn, 5, "only the committed prefix survives");
        assert_eq!(scan.truncated_bytes, 0, "a clean commit boundary is not a tear");
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let dir = TestDir::new("wal-torn");
        let mut reference: Wal<u64, u64> = Wal::create(dir.path(), no_sync()).unwrap();
        for k in 0..20u64 {
            reference.append(&put(k, k * 7));
        }
        reference.commit().unwrap();
        drop(reference);
        let (_, seg_path) = list_segments(dir.path()).unwrap().pop().unwrap();
        let clean = fs::read(&seg_path).unwrap();
        // Cut the segment at every byte position; recovery must keep
        // exactly the whole frames before the cut.
        for cut in (0..clean.len()).step_by(7) {
            fs::write(&seg_path, &clean[..cut]).unwrap();
            let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
            let frame = clean.len() / 20;
            assert_eq!(scan.records.len(), cut / frame, "cut at {cut}");
            if cut < frame {
                // No whole frame survives the cut: the segment must be
                // gone entirely, not linger as a zero-length file.
                assert!(!seg_path.exists(), "cut at {cut} must delete the segment");
            } else {
                let repaired = fs::read(&seg_path).unwrap();
                assert_eq!(repaired.len() % frame, 0, "repair leaves whole frames only");
                assert_eq!(repaired, clean[..repaired.len()], "repair keeps an exact prefix");
            }
        }
    }

    #[test]
    fn resume_after_torn_at_offset_zero_repair_can_commit() {
        // The crash shape: the newest segment's very first frame is
        // torn (or the file was created during rotation but never
        // written). Repair must leave the directory in a state where
        // the resumed log's first commit — which reuses the lost
        // first LSN for the new segment name — succeeds.
        let dir = TestDir::new("wal-torn-at-zero");
        let mut wal: Wal<u64, u64> = Wal::create(dir.path(), no_sync()).unwrap();
        for k in 0..3u64 {
            wal.append(&put(k, k));
        }
        wal.commit().unwrap();
        drop(wal);
        let (_, seg_path) = list_segments(dir.path()).unwrap().pop().unwrap();
        let clean = fs::read(&seg_path).unwrap();
        fs::write(&seg_path, &clean[..2]).unwrap(); // torn inside frame 1
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.last_lsn, 0, "nothing survives the tear");
        assert!(list_segments(dir.path()).unwrap().is_empty(), "empty segment must be deleted");
        let mut wal: Wal<u64, u64> = Wal::resume(dir.path(), no_sync(), 1, 0);
        assert_eq!(wal.append(&put(7, 70)), 1);
        wal.commit().expect("commit after torn-at-zero repair must not collide");
        drop(wal);
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.records, vec![(1, put(7, 70))]);
    }

    #[test]
    fn zero_length_segment_from_crashed_rotation_does_not_wedge_commits() {
        let dir = TestDir::new("wal-empty-seg");
        let mut wal: Wal<u64, u64> = Wal::create(dir.path(), no_sync()).unwrap();
        for k in 0..4u64 {
            wal.append(&put(k, k));
        }
        wal.commit().unwrap();
        drop(wal);
        // Simulate a crash between rotation's create_new and its
        // first write: a zero-length segment named for LSN 5.
        fs::write(segment_path(dir.path(), 5), b"").unwrap();
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.last_lsn, 4);
        assert_eq!(list_segments(dir.path()).unwrap().len(), 1, "empty segment swept");
        let mut wal: Wal<u64, u64> = Wal::resume(dir.path(), no_sync(), 5, 4);
        assert_eq!(wal.append(&put(9, 90)), 5);
        wal.commit().expect("resumed commit must reclaim the lost segment name");
        drop(wal);
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.last_lsn, 5);
        assert_eq!(scan.records.len(), 5);
    }

    #[test]
    fn commit_replaces_a_stale_zero_length_segment_in_place() {
        // Even without a repair pass (e.g. a caller resumes by LSN
        // bookkeeping alone), commit itself must tolerate a stale
        // empty file squatting on the new segment's name.
        let dir = TestDir::new("wal-stale-name");
        fs::create_dir_all(dir.path()).unwrap();
        fs::write(segment_path(dir.path(), 1), b"").unwrap();
        let mut wal: Wal<u64, u64> = Wal::resume(dir.path(), no_sync(), 1, 0);
        wal.append(&put(1, 10));
        wal.commit().expect("commit must replace the empty squatter");
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.records, vec![(1, put(1, 10))]);
    }

    #[test]
    fn corrupt_interior_frame_cuts_the_log_there() {
        let dir = TestDir::new("wal-corrupt");
        let mut wal: Wal<u64, u64> = Wal::create(dir.path(), no_sync()).unwrap();
        for k in 0..10u64 {
            wal.append(&put(k, k));
        }
        wal.commit().unwrap();
        drop(wal);
        let (_, seg_path) = list_segments(dir.path()).unwrap().pop().unwrap();
        let mut bytes = fs::read(&seg_path).unwrap();
        let frame = bytes.len() / 10;
        // Flip one payload bit in record index 6.
        let hit = 6 * frame + frame - 1;
        bytes[hit] ^= 0x40;
        fs::write(&seg_path, &bytes).unwrap();
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.records.len(), 6, "records before the corrupt frame survive");
        assert_eq!(scan.last_lsn, 6);
        assert_eq!(scan.truncated_bytes, (4 * frame) as u64);
    }

    #[test]
    fn rotation_splits_segments_and_scan_reassembles_them() {
        let dir = TestDir::new("wal-rotate");
        let opts = WalOptions { segment_bytes: 128, ..no_sync() };
        let mut wal: Wal<u64, u64> = Wal::create(dir.path(), opts).unwrap();
        for k in 0..50u64 {
            wal.append(&put(k, k));
            wal.commit().unwrap();
        }
        drop(wal);
        let segments = list_segments(dir.path()).unwrap();
        assert!(segments.len() > 1, "128-byte segments must rotate");
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.records.len(), 50);
        assert_eq!(scan.last_lsn, 50);
        // Damage in an early segment drops every later one.
        let (_, first) = &segments[0];
        let mut bytes = fs::read(first).unwrap();
        let len = bytes.len();
        bytes[len - 1] ^= 0xFF;
        fs::write(first, &bytes).unwrap();
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.dropped_segments, segments.len() - 1);
        assert!(scan.last_lsn < 50);
        assert_eq!(list_segments(dir.path()).unwrap().len(), 1);
    }

    #[test]
    fn truncate_before_drops_only_superseded_segments() {
        let dir = TestDir::new("wal-gc");
        let opts = WalOptions { segment_bytes: 128, ..no_sync() };
        let mut wal: Wal<u64, u64> = Wal::create(dir.path(), opts).unwrap();
        for k in 0..50u64 {
            wal.append(&put(k, k));
            wal.commit().unwrap();
        }
        let before = list_segments(dir.path()).unwrap();
        assert!(before.len() > 2);
        // A snapshot at LSN 50 covers everything: only the newest
        // segment may remain.
        let dropped = wal.truncate_before(50).unwrap();
        assert_eq!(dropped, before.len() - 1);
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.records.first().map(|(l, _)| *l), Some(before.last().unwrap().0));
        assert_eq!(scan.last_lsn, 50);
    }

    #[test]
    fn resume_continues_lsns_in_a_new_segment() {
        let dir = TestDir::new("wal-resume");
        let mut wal: Wal<u64, u64> = Wal::create(dir.path(), no_sync()).unwrap();
        for k in 0..5u64 {
            wal.append(&put(k, k));
        }
        wal.commit().unwrap();
        drop(wal);
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        let mut wal: Wal<u64, u64> = Wal::resume(dir.path(), no_sync(), scan.last_lsn + 1, scan.last_lsn);
        assert_eq!(wal.append(&put(99, 99)), 6);
        wal.commit().unwrap();
        drop(wal);
        let scan: WalScan<u64, u64> = scan_and_repair(dir.path()).unwrap();
        assert_eq!(scan.records.len(), 6);
        assert_eq!(scan.last_lsn, 6);
        assert_eq!(list_segments(dir.path()).unwrap().len(), 2);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sync_dir_returns_a_failed_fsync() {
        // procfs opens as a directory but refuses fsync with EINVAL.
        assert!(sync_dir(Path::new("/proc")).is_err());
        let dir = TestDir::new("wal-syncdir");
        sync_dir(dir.path()).unwrap();
    }

    #[test]
    fn create_refuses_a_dirty_directory() {
        let dir = TestDir::new("wal-dirty");
        let mut wal: Wal<u64, u64> = Wal::create(dir.path(), no_sync()).unwrap();
        wal.append(&put(1, 1));
        wal.commit().unwrap();
        drop(wal);
        let err = Wal::<u64, u64>::create(dir.path(), no_sync()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }
}
