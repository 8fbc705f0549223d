//! Leaf snapshots: slotted page files plus the manifest that names
//! the authoritative one.
//!
//! A snapshot file `snap-<lsn>.pages` holds one **slotted page** per
//! leaf, in key order, each page CRC-framed like a WAL record:
//!
//! ```text
//! file   = [magic "ALEXSNP1"][snapshot_lsn u64 LE] page* footer
//! page   = [page_len u32][crc32(page bytes) u32][page bytes]
//! footer = [u32::MAX][page_count u32][crc32(lsn ‖ page_count) u32]
//! ```
//!
//! Inside a page the cells follow the classic slot-array layout (the
//! idiom the exemplar slotted-page codecs use): a slot directory
//! grows from the front — `[num_cells u16][pad u16]` then one
//! `[offset u32][len u32]` per cell — while the cells themselves are
//! packed from the back of the page. A cell is one `key ‖ value`
//! encoding pair ([`crate::codec::WalCodec`]).
//!
//! A snapshot is **complete** only once its footer is on disk and the
//! `MANIFEST` names it. The manifest is written to a temporary file
//! and atomically renamed into place, so at every instant the
//! directory names at most one authoritative snapshot and a crash
//! mid-snapshot leaves the previous one authoritative. The loader
//! trusts the manifest first but falls back to scanning
//! `snap-*.pages` newest-first (a valid snapshot whose manifest
//! rename was lost is still a correct restore point — it just may
//! replay a longer tail).

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use crate::codec::{crc32, WalCodec};
use crate::record::Lsn;

const SNAP_MAGIC: &[u8; 8] = b"ALEXSNP1";
const MANIFEST_MAGIC: &[u8; 8] = b"ALEXMNF1";
const FOOTER_MARK: u32 = u32::MAX;
/// Pages above this are rejected as corrupt rather than allocated.
const MAX_PAGE_BYTES: usize = 1 << 26;
/// A slot directory entry is 8 bytes; the header is 4.
const SLOT_DIR_HEADER: usize = 4;
const SLOT_ENTRY: usize = 8;
/// Cells per page are capped by the u16 cell count; oversized leaves
/// simply span several pages.
const MAX_CELLS_PER_PAGE: usize = u16::MAX as usize;

/// One decoded snapshot: every page's pairs, in key order.
#[derive(Debug)]
pub struct SnapshotData<K, V> {
    /// Every record with LSN `<= snapshot_lsn` is reflected here;
    /// replay starts strictly after it.
    pub snapshot_lsn: Lsn,
    /// Pages the file held (one per serialized leaf, more only for
    /// leaves past 65 535 cells).
    pub pages: usize,
    /// All pages' pairs concatenated in file order, hence sorted.
    pub pairs: Vec<(K, V)>,
}

/// Streaming writer for one snapshot file.
#[derive(Debug)]
pub struct SnapshotWriter<K, V> {
    out: BufWriter<File>,
    path: PathBuf,
    lsn: Lsn,
    pages: u32,
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
        let path = snapshot_path(dir, lsn);
        let file = File::create(&path)?;
        let mut out = BufWriter::new(file);
        out.write_all(SNAP_MAGIC)?;
        out.write_all(&lsn.to_le_bytes())?;
        Ok(Self { out, path, lsn, pages: 0, sync, _codec: PhantomData })
    }

    /// Serialize one leaf's merged pairs as one or more slotted
    /// pages (several only past 65 535 cells).
    pub fn append_leaf(&mut self, pairs: &[(K, V)]) -> io::Result<()> {
        for chunk in pairs.chunks(MAX_CELLS_PER_PAGE.max(1)) {
            let page = encode_page(chunk);
            self.out.write_all(&(page.len() as u32).to_le_bytes())?;
            self.out.write_all(&crc32(&page).to_le_bytes())?;
            self.out.write_all(&page)?;
            self.pages += 1;
        }
        if pairs.is_empty() {
            // An empty leaf still becomes a page: the page count in
            // the footer then always matches the leaf walk.
            let page = encode_page::<K, V>(&[]);
            self.out.write_all(&(page.len() as u32).to_le_bytes())?;
            self.out.write_all(&crc32(&page).to_le_bytes())?;
            self.out.write_all(&page)?;
            self.pages += 1;
        }
        Ok(())
    }

    /// Write the footer and make the file durable. Only after this
    /// returns is the file a candidate restore point.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        self.out.write_all(&FOOTER_MARK.to_le_bytes())?;
        self.out.write_all(&self.pages.to_le_bytes())?;
        self.out.write_all(&footer_crc(self.lsn, self.pages).to_le_bytes())?;
        self.out.flush()?;
        if self.sync {
            self.out.get_ref().sync_data()?;
        }
        Ok(self.path)
    }
}

fn footer_crc(lsn: Lsn, pages: u32) -> u32 {
    let mut bytes = [0u8; 12];
    bytes[..8].copy_from_slice(&lsn.to_le_bytes());
    bytes[8..].copy_from_slice(&pages.to_le_bytes());
    crc32(&bytes)
}

fn encode_page<K: WalCodec, V: WalCodec>(pairs: &[(K, V)]) -> Vec<u8> {
    let mut cells: Vec<Vec<u8>> = Vec::with_capacity(pairs.len());
    for (k, v) in pairs {
        let mut cell = Vec::with_capacity(16);
        k.encode_into(&mut cell);
        v.encode_into(&mut cell);
        cells.push(cell);
    }
    let dir_len = SLOT_DIR_HEADER + SLOT_ENTRY * cells.len();
    let total = dir_len + cells.iter().map(Vec::len).sum::<usize>();
    let mut page = vec![0u8; total];
    page[0..2].copy_from_slice(&(cells.len() as u16).to_le_bytes());
    // Slot directory from the front, cells packed from the back —
    // directory entry i points at cell i, so iteration order (and
    // with it key order) is preserved regardless of placement.
    let mut cursor = total;
    for (i, cell) in cells.iter().enumerate() {
        cursor -= cell.len();
        page[cursor..cursor + cell.len()].copy_from_slice(cell);
        let entry = SLOT_DIR_HEADER + SLOT_ENTRY * i;
        page[entry..entry + 4].copy_from_slice(&(cursor as u32).to_le_bytes());
        page[entry + 4..entry + 8].copy_from_slice(&(cell.len() as u32).to_le_bytes());
    }
    page
}

/// Decode one page's cells onto the end of `out`.
fn decode_page<K: WalCodec, V: WalCodec>(page: &[u8], out: &mut Vec<(K, V)>) -> Option<()> {
    if page.len() < SLOT_DIR_HEADER {
        return None;
    }
    let cells = u16::from_le_bytes(page[0..2].try_into().ok()?) as usize;
    let dir_len = SLOT_DIR_HEADER.checked_add(SLOT_ENTRY.checked_mul(cells)?)?;
    if page.len() < dir_len {
        return None;
    }
    out.reserve(cells);
    for i in 0..cells {
        let entry = SLOT_DIR_HEADER + SLOT_ENTRY * i;
        let offset = u32::from_le_bytes(page[entry..entry + 4].try_into().ok()?) as usize;
        let len = u32::from_le_bytes(page[entry + 4..entry + 8].try_into().ok()?) as usize;
        let end = offset.checked_add(len)?;
        if offset < dir_len || end > page.len() {
            return None;
        }
        let mut cursor = &page[offset..end];
        let key = K::decode_from(&mut cursor)?;
        let value = V::decode_from(&mut cursor)?;
        if !cursor.is_empty() {
            return None;
        }
        out.push((key, value));
    }
    Some(())
}

/// Parse one snapshot file. `Ok(None)` means the file is absent,
/// incomplete (no footer — a crash mid-snapshot), or corrupt (any
/// CRC, count, or structure mismatch); only I/O failures surface as
/// errors.
pub fn load_snapshot<K: WalCodec, V: WalCodec>(
    path: &Path,
) -> io::Result<Option<SnapshotData<K, V>>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(parse_snapshot(&bytes))
}

fn parse_snapshot<K: WalCodec, V: WalCodec>(bytes: &[u8]) -> Option<SnapshotData<K, V>> {
    if bytes.len() < 16 || &bytes[..8] != SNAP_MAGIC {
        return None;
    }
    let snapshot_lsn = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let mut pages = 0usize;
    // No codec encodes a value wider than it is in memory, so this
    // over-counts cells by at most the page headers' share; for the
    // fixed-width numeric codecs it is the cell count within that
    // slack, which keeps the decoded pairs one allocation.
    let cell_bytes = SLOT_ENTRY + std::mem::size_of::<K>() + std::mem::size_of::<V>();
    let mut pairs = Vec::with_capacity(bytes.len() / cell_bytes);
    let mut offset = 16usize;
    loop {
        if bytes.len() < offset + 4 {
            return None; // ran out before a footer: incomplete
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().ok()?);
        if len == FOOTER_MARK {
            if bytes.len() < offset + 12 {
                return None;
            }
            let count = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().ok()?);
            let crc = u32::from_le_bytes(bytes[offset + 8..offset + 12].try_into().ok()?);
            if count as usize != pages || crc != footer_crc(snapshot_lsn, count) {
                return None;
            }
            return Some(SnapshotData { snapshot_lsn, pages, pairs });
        }
        let len = len as usize;
        if len > MAX_PAGE_BYTES || bytes.len() < offset + 8 + len {
            return None;
        }
        let expect_crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().ok()?);
        let page = &bytes[offset + 8..offset + 8 + len];
        if crc32(page) != expect_crc {
            return None;
        }
        decode_page(page, &mut pairs)?;
        pages += 1;
        offset += 8 + len;
    }
}

// ----------------------------------------------------------------------
// Manifest
// ----------------------------------------------------------------------

/// Atomically record `snap-<lsn>.pages` as the authoritative
/// snapshot, then delete snapshot files older than it. The rename is
/// the commit point: a crash on either side leaves a directory whose
/// manifest names a complete snapshot.
pub fn publish_snapshot(dir: &Path, lsn: Lsn, sync: bool) -> io::Result<()> {
    let name = snapshot_path(dir, lsn);
    let name = name.file_name().and_then(|n| n.to_str()).expect("generated name is utf-8");
    let mut body = Vec::with_capacity(64);
    body.extend_from_slice(MANIFEST_MAGIC);
    body.extend_from_slice(&lsn.to_le_bytes());
    body.extend_from_slice(&(name.len() as u16).to_le_bytes());
    body.extend_from_slice(name.as_bytes());
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    let tmp = dir.join("MANIFEST.tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&body)?;
        if sync {
            file.sync_data()?;
        }
    }
    fs::rename(&tmp, dir.join("MANIFEST"))?;
    if sync {
        // Make the rename itself durable where the platform allows
        // opening a directory (best-effort elsewhere).
        crate::log::sync_dir(dir);
    }
    for (old_lsn, path) in list_snapshots(dir)? {
        if old_lsn < lsn {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// The manifest's `(lsn, file name)` claim, if present and intact.
pub fn read_manifest(dir: &Path) -> io::Result<Option<(Lsn, String)>> {
    let bytes = match fs::read(dir.join("MANIFEST")) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if bytes.len() < 22 || &bytes[..8] != MANIFEST_MAGIC {
        return Ok(None);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != crc {
        return Ok(None);
    }
    let lsn = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
    let name_len = u16::from_le_bytes(body[16..18].try_into().expect("2 bytes")) as usize;
    if body.len() != 18 + name_len {
        return Ok(None);
    }
    let Ok(name) = std::str::from_utf8(&body[18..]) else {
        return Ok(None);
    };
    Ok(Some((lsn, name.to_string())))
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

/// The newest restorable snapshot in `dir`: the manifest's choice if
/// it parses and validates, otherwise the newest `snap-*.pages` that
/// does. `Ok(None)` means "start empty" (a fresh directory, or every
/// candidate damaged — the WAL still replays from LSN 1).
pub fn find_best_snapshot<K: WalCodec, V: WalCodec>(
    dir: &Path,
) -> io::Result<Option<SnapshotData<K, V>>> {
    if let Some((lsn, name)) = read_manifest(dir)? {
        if let Some(data) = load_snapshot(&dir.join(&name))? {
            if data.snapshot_lsn == lsn {
                return Ok(Some(data));
            }
        }
    }
    let mut candidates = list_snapshots(dir)?;
    candidates.reverse();
    for (_, path) in candidates {
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
        w.finish().unwrap()
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
    fn missing_footer_invalidates_the_snapshot() {
        let dir = TempDir::new("snap-nofooter");
        let path = write_snapshot(dir.path(), 3, &[vec![(1, 1), (2, 2)]]);
        let bytes = fs::read(&path).unwrap();
        // Chop the footer (12 bytes) plus a little of the last page.
        fs::write(&path, &bytes[..bytes.len() - 13]).unwrap();
        assert!(load_snapshot::<u64, u64>(&path).unwrap().is_none());
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
    fn manifest_names_the_authoritative_snapshot_and_gcs_older_ones() {
        let dir = TempDir::new("snap-manifest");
        write_snapshot(dir.path(), 5, &[vec![(1, 1)]]);
        publish_snapshot(dir.path(), 5, false).unwrap();
        write_snapshot(dir.path(), 9, &[vec![(2, 2)]]);
        publish_snapshot(dir.path(), 9, false).unwrap();
        assert_eq!(read_manifest(dir.path()).unwrap(), Some((9, "snap-00000000000000000009.pages".into())));
        let found = find_best_snapshot::<u64, u64>(dir.path()).unwrap().unwrap();
        assert_eq!(found.snapshot_lsn, 9);
        assert_eq!(list_snapshots(dir.path()).unwrap().len(), 1, "older snapshot must be GC'd");
    }

    #[test]
    fn fallback_scan_survives_a_lost_manifest() {
        let dir = TempDir::new("snap-fallback");
        write_snapshot(dir.path(), 5, &[vec![(1, 1)]]);
        write_snapshot(dir.path(), 9, &[vec![(2, 2)]]);
        // No manifest at all: newest valid file wins.
        let found = find_best_snapshot::<u64, u64>(dir.path()).unwrap().unwrap();
        assert_eq!(found.snapshot_lsn, 9);
        // Damage the newest: the scan falls back to the older one.
        let newest = snapshot_path(dir.path(), 9);
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() - 1]).unwrap();
        let found = find_best_snapshot::<u64, u64>(dir.path()).unwrap().unwrap();
        assert_eq!(found.snapshot_lsn, 5);
    }

    #[test]
    fn manifest_pointing_at_damaged_file_falls_back() {
        let dir = TempDir::new("snap-badptr");
        write_snapshot(dir.path(), 5, &[vec![(1, 1)]]);
        publish_snapshot(dir.path(), 5, false).unwrap();
        let path = write_snapshot(dir.path(), 9, &[vec![(2, 2)]]);
        publish_snapshot(dir.path(), 9, false).unwrap();
        // Re-create the older snapshot the GC removed, then damage
        // the manifest's pick: recovery must fall back to LSN 5.
        write_snapshot(dir.path(), 5, &[vec![(1, 1)]]);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..10]).unwrap();
        let found = find_best_snapshot::<u64, u64>(dir.path()).unwrap().unwrap();
        assert_eq!(found.snapshot_lsn, 5);
    }

    #[test]
    fn corrupt_manifest_is_ignored() {
        let dir = TempDir::new("snap-badmnf");
        write_snapshot(dir.path(), 4, &[vec![(3, 3)]]);
        publish_snapshot(dir.path(), 4, false).unwrap();
        let mpath = dir.path().join("MANIFEST");
        let mut bytes = fs::read(&mpath).unwrap();
        let len = bytes.len();
        bytes[len / 2] ^= 0x10;
        fs::write(&mpath, &bytes).unwrap();
        assert_eq!(read_manifest(dir.path()).unwrap(), None);
        // The snapshot itself is intact, so the fallback still finds it.
        let found = find_best_snapshot::<u64, u64>(dir.path()).unwrap().unwrap();
        assert_eq!(found.snapshot_lsn, 4);
    }
}
