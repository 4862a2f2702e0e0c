//! On-disk index persistence: page-image snapshots + a write-ahead log +
//! a small metadata file.
//!
//! [`crate::UTree::save`] / [`crate::UPcrTree::save`] write a directory of
//! three files:
//!
//! * `index.pg` — the node pages, copied verbatim into a
//!   [`DiskPageFile`] (they are already in on-page codec format, so the
//!   snapshot *is* the serialized tree);
//! * `heap.pg`  — the object-detail heap pages, likewise;
//! * `meta.bin` — everything that lives outside the page space: structure
//!   kind, dimensionality, the U-catalog, R* tuning, root page, height,
//!   record count, and the heap's open page.
//!
//! A directory that has seen post-open commits additionally holds
//!
//! * `wal.log` — the write-ahead log ([`page_store::wal`]): every commit
//!   since the last snapshot/checkpoint as CRC-framed page images,
//!   allocation records and a metadata blob, sealed by commit markers.
//!
//! `open` reverses the process — **with crash recovery**. The log is
//! scanned, a torn or uncommitted tail is discarded, and every committed
//! batch is replayed onto the snapshot files (full page images make the
//! replay idempotent over any partially-applied base, so a crash at any
//! point — mid-append, mid-apply, even mid-checkpoint — lands on some
//! committed prefix). The authoritative superstructure is the log's last
//! committed metadata record when the log is non-empty, `meta.bin`
//! otherwise; the page files are then wrapped in
//! [`WalStore`]s sharing one log (so an index+heap commit is a single
//! atomic batch) behind [`page_store::BufferPool`]s.
//!
//! All replacement writes here are crash-ordered: temp file → fsync →
//! rename → **fsync the parent directory** (a rename is atomic but not
//! durable until the directory entry itself is synced).

use crate::catalog::UCatalog;
use page_store::wal::{self, Wal, WalStore};
use page_store::{
    fsync_dir, BufferPool, ByteReader, ByteWriter, DiskPageFile, ObjectHeap, PageId, PageStore,
    PAGE_SIZE,
};
use rstar_base::TreeConfig;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// File names inside a saved-index directory.
pub(crate) const META_FILE: &str = "meta.bin";
pub(crate) const INDEX_FILE: &str = "index.pg";
pub(crate) const HEAP_FILE: &str = "heap.pg";
pub(crate) const WAL_FILE: &str = "wal.log";

/// WAL store tags: which [`WalStore`] a log record belongs to.
pub(crate) const WAL_TAG_INDEX: u8 = 0;
pub(crate) const WAL_TAG_HEAP: u8 = 1;

/// Structure tags stored in the metadata.
pub(crate) const KIND_UTREE: u8 = 0;
pub(crate) const KIND_UPCR: u8 = 1;

const MAGIC: [u8; 4] = *b"UIDX";
const VERSION: u16 = 1;

/// The node store every disk-backed tree runs on: an LRU pool over a
/// journaling wrapper over the snapshot file.
pub(crate) type DiskStore = BufferPool<WalStore<DiskPageFile>>;

/// The superstructure a saved index needs besides its page images.
pub(crate) struct SavedMeta {
    pub kind: u8,
    pub dims: u8,
    pub catalog: Vec<f64>,
    pub cfg: TreeConfig,
    pub root: PageId,
    pub height: usize,
    pub len: usize,
    pub heap_open_page: Option<PageId>,
}

pub(crate) fn invalid_data(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Sibling scratch path for write-then-rename replacement.
fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Makes a just-renamed directory entry durable.
fn fsync_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => fsync_dir(dir),
        _ => Ok(()),
    }
}

/// Copies every page of `src` (live and freed alike, so page ids are
/// preserved verbatim) into a fresh [`DiskPageFile`] at `path`, replicating
/// the free list, and flushes.
///
/// The snapshot is written to a sibling `.tmp` file and renamed into place
/// only when complete, so saving **over** the directory a disk-backed
/// index was opened from never truncates the file that index is still
/// reading (the open store keeps its pre-save inode; reopen to pick up
/// the new snapshot), and a crash mid-save never leaves a torn file
/// behind. The parent directory is fsynced after the rename — without it
/// the rename itself is not crash-durable.
pub(crate) fn dump_store<S: PageStore>(src: &S, path: &Path) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut dst = DiskPageFile::create(&tmp)?;
        let mut buf = [0u8; PAGE_SIZE];
        for id in 0..src.capacity_pages() as PageId {
            let did = dst.allocate()?;
            debug_assert_eq!(did, id, "snapshot ids must mirror the source");
            src.peek_into(id, &mut buf)?;
            dst.write(did, &buf)?;
        }
        // Replaying releases in free-list order reproduces the exact
        // stack, so reallocation order survives the round trip too.
        for id in src.free_list() {
            dst.release(id);
        }
        dst.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    fsync_parent(path)
}

/// Serializes the metadata to its on-disk/WAL byte form.
pub(crate) fn encode_meta(meta: &SavedMeta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for b in MAGIC {
        w.put_u8(b);
    }
    w.put_u16(VERSION);
    w.put_u8(meta.kind);
    w.put_u8(meta.dims);
    w.put_f64(meta.cfg.min_fill);
    w.put_f64(meta.cfg.reinsert_frac);
    w.put_f64(meta.cfg.covers_tolerance);
    w.put_u64(meta.root);
    w.put_u64(meta.height as u64);
    w.put_u64(meta.len as u64);
    w.put_u64(meta.heap_open_page.unwrap_or(u64::MAX));
    w.put_u16(meta.catalog.len() as u16);
    for &p in &meta.catalog {
        w.put_f64(p);
    }
    w.into_bytes()
}

/// Parses [`encode_meta`] bytes; `origin` labels error messages.
pub(crate) fn decode_meta(bytes: &[u8], origin: &dyn std::fmt::Display) -> io::Result<SavedMeta> {
    // Fixed header + the catalog length field.
    const FIXED: usize = 4 + 2 + 1 + 1 + 3 * 8 + 4 * 8 + 2;
    if bytes.len() < FIXED {
        return Err(invalid_data(format!("{origin}: truncated metadata")));
    }
    if bytes[..4] != MAGIC {
        return Err(invalid_data(format!("{origin}: bad magic")));
    }
    let mut r = ByteReader::new(&bytes[4..]);
    let version = r.get_u16();
    if version != VERSION {
        return Err(invalid_data(format!(
            "{origin}: unsupported metadata version {version}"
        )));
    }
    let kind = r.get_u8();
    let dims = r.get_u8();
    let cfg = TreeConfig {
        min_fill: r.get_f64(),
        reinsert_frac: r.get_f64(),
        covers_tolerance: r.get_f64(),
    };
    let root = r.get_u64();
    let height = r.get_u64() as usize;
    let len = r.get_u64() as usize;
    let heap_open_page = match r.get_u64() {
        u64::MAX => None,
        p => Some(p),
    };
    let m = r.get_u16() as usize;
    if r.remaining() != m * 8 {
        return Err(invalid_data(format!("{origin}: catalog length mismatch")));
    }
    let catalog = (0..m).map(|_| r.get_f64()).collect();
    Ok(SavedMeta {
        kind,
        dims,
        catalog,
        cfg,
        root,
        height,
        len,
        heap_open_page,
    })
}

pub(crate) fn write_meta(path: &Path, meta: &SavedMeta) -> io::Result<()> {
    // Write-then-rename, like the page snapshots: the metadata file is
    // rewritten by every checkpoint and must never be observable
    // half-written. The temp file is fsynced before the rename and the
    // directory after it — the full crash-durable replacement sequence.
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        io::Write::write_all(&mut f, &encode_meta(meta))?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    fsync_parent(path)
}

pub(crate) fn read_meta(path: &Path) -> io::Result<SavedMeta> {
    let bytes = std::fs::read(path)?;
    decode_meta(&bytes, &path.display())
}

/// Writes a complete saved-index directory: both page-image snapshots plus
/// the metadata file. Shared by every tree's `save` and `checkpoint`.
pub(crate) fn save_index<SI: PageStore, SH: PageStore>(
    dir: &Path,
    meta: &SavedMeta,
    index_store: &SI,
    heap_store: &SH,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    dump_store(index_store, &dir.join(INDEX_FILE))?;
    dump_store(heap_store, &dir.join(HEAP_FILE))?;
    write_meta(&dir.join(META_FILE), meta)
}

/// Guards [`crate::UTree::save`]-style snapshots against the directory a
/// disk-backed tree is live on: a fresh snapshot there would disagree with
/// the (possibly non-empty) WAL sitting next to it, so self-saves must go
/// through `checkpoint()`, which commits and truncates the log around the
/// snapshot.
pub(crate) fn reject_live_dir<S: PageStore>(store: &S, dir: &Path) -> io::Result<()> {
    let Some(backing) = store.backing_path() else {
        return Ok(());
    };
    let Some(live) = backing.parent() else {
        return Ok(());
    };
    let same = live == dir
        || match (live.canonicalize(), dir.canonicalize()) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
    if same {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{}: this tree is live on that directory; use checkpoint() instead of save()",
                dir.display()
            ),
        ));
    }
    Ok(())
}

/// A snapshot file being brought forward by WAL replay: the page file plus
/// the allocation state the log reconstructs on top of it.
pub(crate) struct ReplayFile {
    file: DiskPageFile,
    n_pages: u64,
    free: Vec<PageId>,
}

impl ReplayFile {
    pub(crate) fn new(file: DiskPageFile) -> Self {
        let n_pages = file.capacity_pages() as u64;
        let free = file.free_list();
        Self {
            file,
            n_pages,
            free,
        }
    }
}

impl wal::ReplayTarget for ReplayFile {
    fn apply_image(&mut self, page: PageId, data: &[u8; PAGE_SIZE]) -> io::Result<()> {
        self.file.write(page, data)?;
        if page >= self.n_pages {
            self.n_pages = page + 1;
        }
        Ok(())
    }

    fn apply_alloc(&mut self, page: PageId) -> io::Result<()> {
        // Replay can re-allocate a page the snapshot already holds (a
        // crash between snapshot and log truncation): converge, don't
        // assume. The zeroing write also extends the file extent; the
        // batch's paired page image follows and installs the content.
        self.free.retain(|&f| f != page);
        if page >= self.n_pages {
            self.n_pages = page + 1;
        }
        self.file.write(page, &[])
    }

    fn apply_release(&mut self, page: PageId) -> io::Result<()> {
        if !self.free.contains(&page) {
            self.free.push(page);
        }
        Ok(())
    }
}

/// Validates buffer-pool sizing parameters (shared by single-index open
/// and the multi-index catalog open).
pub(crate) fn validate_pool_params(buffer_pages: usize) -> io::Result<()> {
    if buffer_pages == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a buffer pool needs at least one frame",
        ));
    }
    Ok(())
}

/// Wraps a replayed snapshot file in its journaling [`WalStore`] (sharing
/// `wal` under `tag`) behind a `buffer_pages` LRU pool — the standard
/// [`DiskStore`] assembly, shared by single-index open and the catalog.
pub(crate) fn wrap_store(
    rf: ReplayFile,
    wal: &Arc<Mutex<Wal>>,
    tag: u8,
    buffer_pages: usize,
) -> DiskStore {
    let store = WalStore::attach(rf.file, Arc::clone(wal), tag, rf.n_pages, rf.free);
    BufferPool::new(store, buffer_pages)
}

/// Everything `open` reconstructs before the tree-specific metrics/codec
/// are attached: validated (possibly log-recovered) metadata, the shared
/// catalog, and the two journaled, pool-wrapped page files.
pub(crate) struct OpenedParts {
    pub meta: SavedMeta,
    pub catalog: Arc<UCatalog>,
    pub index: DiskStore,
    pub heap: ObjectHeap<DiskStore>,
}

/// Reads and validates a saved-index directory (structure kind,
/// dimensionality, catalog, and that the root / open heap page actually
/// lie inside their files), **recovering any write-ahead log first**, then
/// wrapping each page file in a journaling [`WalStore`] (both sharing one
/// log, so index+heap commits stay atomic) behind a `buffer_pages` LRU
/// pool (latch striping chosen by `BufferPool::new`). Shared by every
/// tree's `open`.
pub(crate) fn open_parts(
    dir: &Path,
    kind: u8,
    dims: usize,
    buffer_pages: usize,
) -> io::Result<OpenedParts> {
    validate_pool_params(buffer_pages)?;

    // Crash recovery: scan the log (discarding a torn/uncommitted tail)
    // and replay every committed batch onto the snapshot files. Full page
    // images make this idempotent whatever prefix of the batches a
    // pre-crash apply already flushed.
    let recovery = Wal::recover(dir.join(WAL_FILE))?;
    let mut index_rf = ReplayFile::new(DiskPageFile::open(dir.join(INDEX_FILE))?);
    let mut heap_rf = ReplayFile::new(DiskPageFile::open(dir.join(HEAP_FILE))?);
    let wal_meta = wal::replay(&recovery.batches, &mut [&mut index_rf, &mut heap_rf])?;

    // The log's last committed metadata is authoritative (it belongs to
    // the replayed page state); `meta.bin` covers the snapshot-only case.
    let meta_path = dir.join(META_FILE);
    let meta = match wal_meta {
        Some(bytes) => decode_meta(&bytes, &format!("{} (wal)", dir.display()))?,
        None => read_meta(&meta_path)?,
    };
    expect(&meta, kind, dims, &meta_path)?;
    let catalog = Arc::new(UCatalog::try_new(meta.catalog.clone()).map_err(invalid_data)?);

    let wal = Arc::new(Mutex::new(recovery.wal));
    let index = wrap_store(index_rf, &wal, WAL_TAG_INDEX, buffer_pages);
    if meta.root as usize >= index.capacity_pages() {
        return Err(invalid_data(format!(
            "{}: root page {} outside the index file",
            dir.display(),
            meta.root
        )));
    }
    let heap_store = wrap_store(heap_rf, &wal, WAL_TAG_HEAP, buffer_pages);
    if let Some(p) = meta.heap_open_page {
        if p as usize >= heap_store.capacity_pages() {
            return Err(invalid_data(format!(
                "{}: open heap page {p} outside the heap file",
                dir.display()
            )));
        }
    }
    let heap = ObjectHeap::from_raw_parts(heap_store, meta.heap_open_page);
    Ok(OpenedParts {
        meta,
        catalog,
        index,
        heap,
    })
}

/// Validates the metadata against what the caller is about to construct.
pub(crate) fn expect(meta: &SavedMeta, kind: u8, dims: usize, path: &Path) -> io::Result<()> {
    if meta.kind != kind {
        return Err(invalid_data(format!(
            "{}: saved index kind {} does not match the requested structure ({kind})",
            path.display(),
            meta.kind
        )));
    }
    if meta.dims as usize != dims {
        return Err(invalid_data(format!(
            "{}: saved index is {}-dimensional, expected {dims}",
            path.display(),
            meta.dims
        )));
    }
    if meta.height == 0 {
        return Err(invalid_data(format!("{}: zero height", path.display())));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use page_store::PageFile;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("utree-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn meta_roundtrip() {
        let dir = temp_dir("meta");
        let path = dir.join(META_FILE);
        let meta = SavedMeta {
            kind: KIND_UPCR,
            dims: 3,
            catalog: vec![0.0, 0.25, 0.5],
            cfg: TreeConfig {
                min_fill: 0.35,
                reinsert_frac: 0.25,
                covers_tolerance: 0.01,
            },
            root: 42,
            height: 3,
            len: 1234,
            heap_open_page: Some(7),
        };
        write_meta(&path, &meta).unwrap();
        let back = read_meta(&path).unwrap();
        assert_eq!(back.kind, meta.kind);
        assert_eq!(back.dims, meta.dims);
        assert_eq!(back.catalog, meta.catalog);
        assert_eq!(back.cfg.min_fill, meta.cfg.min_fill);
        assert_eq!(back.root, 42);
        assert_eq!(back.height, 3);
        assert_eq!(back.len, 1234);
        assert_eq!(back.heap_open_page, Some(7));
        assert!(expect(&back, KIND_UPCR, 3, &path).is_ok());
        assert!(expect(&back, KIND_UTREE, 3, &path).is_err());
        assert!(expect(&back, KIND_UPCR, 2, &path).is_err());
        // The WAL carries the identical byte form.
        let via_wal = decode_meta(&encode_meta(&meta), &"wal").unwrap();
        assert_eq!(via_wal.root, meta.root);
        assert_eq!(via_wal.catalog, meta.catalog);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_meta_rejects_garbage() {
        let dir = temp_dir("garbage");
        let path = dir.join(META_FILE);
        std::fs::write(&path, b"not an index").unwrap();
        assert!(read_meta(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_replicates_pages_and_free_list() {
        let dir = temp_dir("dump");
        let mut src = PageFile::new();
        let ids: Vec<_> = (0..6).map(|_| src.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            src.write(id, &[i as u8 + 10; 32]).unwrap();
        }
        src.release(ids[2]);
        src.release(ids[4]);
        let path = dir.join(INDEX_FILE);
        dump_store(&src, &path).unwrap();
        let dst = DiskPageFile::open(&path).unwrap();
        assert_eq!(dst.capacity_pages(), 6);
        assert_eq!(dst.free_list(), src.free_list());
        for &id in &[ids[0], ids[1], ids[3], ids[5]] {
            assert_eq!(dst.peek_page(id).unwrap()[..], src.peek(id)[..]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_converges_over_a_fresh_snapshot() {
        // A log replayed over a snapshot that already contains its effects
        // (crash between snapshot rename and log truncation) must land on
        // the same state as replaying over the pre-snapshot base.
        let dir = temp_dir("converge");
        let path = dir.join(INDEX_FILE);
        let mut base = DiskPageFile::create(&path).unwrap();
        let p0 = base.allocate().unwrap();
        base.write(p0, b"pre-existing").unwrap();
        base.flush().unwrap();

        let mut rf = ReplayFile::new(base);
        use wal::ReplayTarget;
        let img = {
            let mut b = [0u8; PAGE_SIZE];
            b[..5].copy_from_slice(b"fresh");
            b
        };
        // alloc p1 + image, release p0, then the snapshot-included replay
        // of the same ops again.
        for _ in 0..2 {
            rf.apply_alloc(1).unwrap();
            rf.apply_image(1, &img).unwrap();
            rf.apply_release(0).unwrap();
        }
        assert_eq!(rf.n_pages, 2);
        assert_eq!(rf.free, vec![0]);
        assert_eq!(&rf.file.peek_page(1).unwrap()[..5], b"fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
