//! Leaf snapshots, written in the log's own frames.
//!
//! A snapshot file `snap-<lsn>.pages` is a sequence of
//! [`crate::record`] frames, the codec WAL segments use:
//!
//! ```text
//! file = PutRun(1) PutRun(2) … PutRun(n) Checkpoint { snapshot_lsn: lsn }(n + 1)
//! ```
//!
//! Each leaf, in key order, becomes one [`WalRecord::PutRun`] frame, a
//! *page*: an empty leaf still gets an empty page, and a leaf whose
//! pairs do not fit one frame body is cut into several
//! ([`encode_put_runs`]). A page's LSN field carries its sequence
//! number 1, 2, …, so the reader checks order and count the way
//! [`crate::log::scan_and_repair`] checks LSN continuity. A
//! [`WalRecord::Checkpoint`] end frame naming the LSN of the file
//! name closes the file. A torn or corrupt frame, a sequence break,
//! another record kind, bytes after the end frame or a missing end
//! frame mean the file is not a restore point.
//!
//! The restore point is the newest `snap-*.pages` that parses, so a
//! crash mid-snapshot leaves the previous snapshot in charge. A
//! snapshot is **complete** once [`SnapshotWriter::finish`] returns:
//! its end frame is synced and the directory fsynced. Only then may
//! older snapshots be deleted ([`remove_snapshots_before`]) and the
//! log truncated.

use std::fs::{self, File};
use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use crate::codec::WalCodec;
use crate::log::sync_dir;
use crate::record::{decode_frame, encode_frame, encode_put_runs, FrameOutcome, Lsn, WalRecord};

/// Encoded pages go to the file once this many bytes are buffered.
const WRITE_CHUNK: usize = 1 << 20;

/// One decoded snapshot: every page's pairs, in key order.
#[derive(Debug)]
pub struct SnapshotData<K, V> {
    /// Every record with LSN `<= snapshot_lsn` is reflected here;
    /// replay starts strictly after it.
    pub snapshot_lsn: Lsn,
    /// Pages the file held: one per serialized leaf, more only for a
    /// leaf too big for one frame.
    pub pages: usize,
    /// All pages' pairs concatenated in file order, hence sorted.
    pub pairs: Vec<(K, V)>,
}

/// Streaming writer for one snapshot file.
#[derive(Debug)]
pub struct SnapshotWriter<K, V> {
    file: File,
    buf: Vec<u8>,
    dir: PathBuf,
    lsn: Lsn,
    /// Pages written so far; the next one carries sequence number
    /// `pages + 1`.
    pages: u64,
    sync: bool,
    _codec: PhantomData<(K, V)>,
}

/// `snap-<lsn>.pages`, zero-padded so name order is LSN order.
pub fn snapshot_path(dir: &Path, lsn: Lsn) -> PathBuf {
    dir.join(format!("snap-{lsn:020}.pages"))
}

fn parse_snapshot_name(name: &str) -> Option<Lsn> {
    let digits = name.strip_prefix("snap-")?.strip_suffix(".pages")?;
    if digits.len() != 20 {
        return None;
    }
    digits.parse().ok()
}

impl<K: WalCodec, V: WalCodec> SnapshotWriter<K, V> {
    /// Start `snap-<lsn>.pages` in `dir`, truncating any half-written
    /// file of the same LSN from an earlier attempt.
    pub fn create(dir: &Path, lsn: Lsn, sync: bool) -> io::Result<Self> {
        let file = File::create(snapshot_path(dir, lsn))?;
        Ok(Self {
            file,
            buf: Vec::new(),
            dir: dir.to_path_buf(),
            lsn,
            pages: 0,
            sync,
            _codec: PhantomData,
        })
    }

    /// Serialize one leaf's merged pairs as the next page (several
    /// only for a leaf too big for one frame).
    pub fn append_leaf(&mut self, pairs: &[(K, V)]) -> io::Result<()> {
        self.pages += encode_put_runs(self.pages + 1, pairs, &mut self.buf);
        if self.buf.len() >= WRITE_CHUNK {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Write the end frame and, under `sync`, fsync the file and then
    /// the directory. Once this returns the snapshot is complete.
    pub fn finish(mut self) -> io::Result<()> {
        let end = WalRecord::<K, V>::Checkpoint { snapshot_lsn: self.lsn };
        encode_frame(self.pages + 1, &end, &mut self.buf);
        self.file.write_all(&self.buf)?;
        if self.sync {
            self.file.sync_data()?;
            sync_dir(&self.dir)?;
        }
        Ok(())
    }
}

/// Parse one snapshot file. `Ok(None)` means the file is absent, its
/// name is not a snapshot name, or it is not a restore point (see the
/// module docs); only I/O failures surface as errors.
pub fn load_snapshot<K: WalCodec, V: WalCodec>(
    path: &Path,
) -> io::Result<Option<SnapshotData<K, V>>> {
    let Some(lsn) = path.file_name().and_then(|n| n.to_str()).and_then(parse_snapshot_name) else {
        return Ok(None);
    };
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(parse_snapshot(&bytes, lsn))
}

fn parse_snapshot<K: WalCodec, V: WalCodec>(mut bytes: &[u8], lsn: Lsn) -> Option<SnapshotData<K, V>> {
    // The numeric codecs encode a pair exactly as wide as it is in
    // memory, so this is their pair count plus the frame headers'
    // share: the decoded pairs take one allocation.
    let pair_bytes = (std::mem::size_of::<K>() + std::mem::size_of::<V>()).max(1);
    let mut pairs = Vec::with_capacity(bytes.len() / pair_bytes);
    let mut seq = 0;
    loop {
        let FrameOutcome::Ok { lsn: frame_seq, record, consumed } = decode_frame::<K, V>(bytes) else {
            return None;
        };
        seq += 1;
        if frame_seq != seq {
            return None;
        }
        bytes = &bytes[consumed..];
        match record {
            WalRecord::PutRun { pairs: page } => pairs.extend(page),
            WalRecord::Checkpoint { snapshot_lsn } if snapshot_lsn == lsn && bytes.is_empty() => {
                let pages = (seq - 1) as usize;
                return Some(SnapshotData { snapshot_lsn, pages, pairs });
            }
            _ => return None,
        }
    }
}

/// Delete the snapshots older than `lsn`; call it only once
/// `snap-<lsn>.pages` is complete. A file that fails to go stays until
/// the next call: recovery restores the newest snapshot that parses,
/// so an older one left behind is never used.
pub fn remove_snapshots_before(dir: &Path, lsn: Lsn) -> io::Result<()> {
    for (old_lsn, path) in list_snapshots(dir)? {
        if old_lsn < lsn {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// All `snap-*.pages` files in `dir`, sorted by LSN ascending.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(Lsn, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(lsn) = name.to_str().and_then(parse_snapshot_name) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(lsn, _)| *lsn);
    Ok(out)
}

/// The restore point in `dir`: the newest `snap-*.pages` that parses.
/// `Ok(None)` means "start empty" (a fresh directory, or every
/// candidate damaged — the WAL still replays from its first record).
pub fn find_best_snapshot<K: WalCodec, V: WalCodec>(
    dir: &Path,
) -> io::Result<Option<SnapshotData<K, V>>> {
    for (_, path) in list_snapshots(dir)?.into_iter().rev() {
        if let Some(data) = load_snapshot(&path)? {
            return Ok(Some(data));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn write_snapshot(dir: &Path, lsn: Lsn, leaves: &[Vec<(u64, u64)>]) -> PathBuf {
        let mut w: SnapshotWriter<u64, u64> = SnapshotWriter::create(dir, lsn, false).unwrap();
        for leaf in leaves {
            w.append_leaf(leaf).unwrap();
        }
        w.finish().unwrap();
        snapshot_path(dir, lsn)
    }

    #[test]
    fn pages_round_trip_including_empty_leaves() {
        let dir = TempDir::new("snap-roundtrip");
        let leaves = vec![
            vec![(1u64, 10u64), (2, 20), (3, 30)],
            vec![],
            vec![(50, 500)],
        ];
        write_snapshot(dir.path(), 7, &leaves);
        let data = load_snapshot::<u64, u64>(&snapshot_path(dir.path(), 7)).unwrap().unwrap();
        assert_eq!(data.snapshot_lsn, 7);
        assert_eq!(data.pages, leaves.len(), "an empty leaf still counts as a page");
        assert_eq!(data.pairs, leaves.concat());
    }

    #[test]
    fn any_truncation_invalidates_the_snapshot() {
        let dir = TempDir::new("snap-truncated");
        let path = write_snapshot(dir.path(), 3, &[vec![(1, 1), (2, 2)]]);
        let bytes = fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(load_snapshot::<u64, u64>(&path).unwrap().is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn page_bit_flip_invalidates_the_snapshot() {
        let dir = TempDir::new("snap-flip");
        let path = write_snapshot(dir.path(), 3, &[vec![(1, 1), (2, 2), (3, 3)]]);
        let clean = fs::read(&path).unwrap();
        for i in (0..clean.len() * 8).step_by(11) {
            let mut mangled = clean.clone();
            mangled[i / 8] ^= 1 << (i % 8);
            fs::write(&path, &mangled).unwrap();
            assert!(
                load_snapshot::<u64, u64>(&path).unwrap().is_none(),
                "bit {i} flip must invalidate"
            );
        }
    }

    #[test]
    fn a_snapshot_whose_frames_disagree_with_its_name_is_refused() {
        let dir = TempDir::new("snap-misnamed");
        let path = write_snapshot(dir.path(), 5, &[vec![(1, 1)], vec![(2, 2)]]);
        let bytes = fs::read(&path).unwrap();
        // Every frame intact, but the end frame names LSN 5.
        let copy = snapshot_path(dir.path(), 9);
        fs::write(&copy, &bytes).unwrap();
        assert!(load_snapshot::<u64, u64>(&copy).unwrap().is_none());
        let found = find_best_snapshot::<u64, u64>(dir.path()).unwrap().unwrap();
        assert_eq!(found.snapshot_lsn, 5, "the misnamed copy is no restore point");
        // The two pages swapped: each passes its CRC, the sequence breaks.
        let FrameOutcome::Ok { consumed: page, .. } = decode_frame::<u64, u64>(&bytes) else {
            panic!("the first page must decode");
        };
        let swapped = [&bytes[page..2 * page], &bytes[..page], &bytes[2 * page..]].concat();
        fs::write(&path, &swapped).unwrap();
        assert!(load_snapshot::<u64, u64>(&path).unwrap().is_none());
    }

    #[test]
    fn the_newest_complete_snapshot_wins_and_older_ones_are_deleted() {
        let dir = TempDir::new("snap-newest");
        write_snapshot(dir.path(), 5, &[vec![(1, 1)]]);
        write_snapshot(dir.path(), 9, &[vec![(2, 2)]]);
        let found = find_best_snapshot::<u64, u64>(dir.path()).unwrap().unwrap();
        assert_eq!(found.snapshot_lsn, 9);
        assert_eq!(found.pairs, vec![(2, 2)]);
        remove_snapshots_before(dir.path(), 9).unwrap();
        let left: Vec<Lsn> = list_snapshots(dir.path()).unwrap().into_iter().map(|(l, _)| l).collect();
        assert_eq!(left, vec![9], "the older snapshot must be deleted");
    }

    #[test]
    fn a_damaged_newest_snapshot_falls_back_to_the_older_one() {
        let dir = TempDir::new("snap-fallback");
        write_snapshot(dir.path(), 5, &[vec![(1, 1)]]);
        let newest = write_snapshot(dir.path(), 9, &[vec![(2, 2)]]);
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() - 1]).unwrap();
        let found = find_best_snapshot::<u64, u64>(dir.path()).unwrap().unwrap();
        assert_eq!(found.snapshot_lsn, 5);
        assert_eq!(found.pairs, vec![(1, 1)]);
    }
}
