//! On-disk index persistence: page-image snapshots + a write-ahead log +
//! a small metadata file — and the **one** recovery and checkpoint path
//! every disk-backed structure goes through.
//!
//! [`crate::UTree::save`] / [`crate::UPcrTree::save`] write a directory of
//! three files:
//!
//! * `index.pg` — the node pages, copied verbatim into a
//!   [`DiskPageFile`] (they are already in on-page codec format, so the
//!   snapshot *is* the serialized tree);
//! * `heap.pg`  — the object-detail heap pages, likewise;
//! * `meta.bin` — everything that lives outside the page space: structure
//!   kind, dimensionality, the U-catalog, R* tuning, and the tree's
//!   [`TreeShape`] (root page, height, record count, the heap's open page).
//!
//! A directory that has seen post-open commits additionally holds
//!
//! * `wal.log` — the write-ahead log ([`page_store::wal`]): every commit
//!   since the last snapshot/checkpoint as CRC-framed page images,
//!   allocation records and a metadata blob, sealed by commit markers.
//!
//! The multi-index catalog ([`crate::catalog_store`]) lays out more files
//! around the same log but owns none of the durability decisions. There
//! are three, each written once:
//!
//! * **commit** is [`page_store::wal::commit_group`] (the write-ahead
//!   rule);
//! * **recovery on open** is [`recover`]: open the snapshot files and
//!   check the caller's metadata first (a directory missing a file, or
//!   holding another kind or dimensionality, is refused before its log
//!   is created or truncated), then let [`Wal::recover`] replay every
//!   committed batch onto them in one pass over the log (store tag =
//!   position in the segment list) and cut off a torn or uncommitted
//!   tail, and hand back the journaled, pool-wrapped stores plus the
//!   log's last metadata blob — which, when present, is authoritative
//!   over the metadata file. Full page images make the replay idempotent
//!   over any partially-applied base, so a crash at any point —
//!   mid-append, mid-apply, even mid-checkpoint — lands on some committed
//!   prefix;
//! * **checkpoint** is [`checkpoint`]: commit (fsynced before it
//!   returns), snapshot, log truncation, in that order.
//!
//! Every replacement write goes through [`page_store::replace_file`]
//! (temp file → fsync → rename → fsync the parent directory).

use crate::DiskStore;
use page_store::{
    replace_file, BufferPool, ByteReader, ByteWriter, DiskPageFile, PageId, PageStore,
    ReplayTarget, Wal, WalStore, PAGE_SIZE,
};
use rstar_base::TreeConfig;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// File names inside a saved-index directory.
pub(crate) const META_FILE: &str = "meta.bin";
pub(crate) const INDEX_FILE: &str = "index.pg";
pub(crate) const HEAP_FILE: &str = "heap.pg";
pub(crate) const WAL_FILE: &str = "wal.log";

/// Structure tags stored in the metadata.
pub(crate) const KIND_UTREE: u8 = 0;
pub(crate) const KIND_UPCR: u8 = 1;

const MAGIC: [u8; 4] = *b"UIDX";
const VERSION: u16 = 1;

/// The part of a tree's superstructure that every update moves: where the
/// root is, how tall and how full the tree is, and which heap page inserts
/// are filling. `meta.bin`, the catalog record and every WAL commit carry
/// it in the same 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TreeShape {
    pub root: PageId,
    pub height: usize,
    pub len: usize,
    pub heap_open_page: Option<PageId>,
}

impl TreeShape {
    /// Encoded size in bytes.
    pub(crate) const ENCODED_LEN: usize = 4 * 8;

    pub(crate) fn put(&self, w: &mut ByteWriter) {
        w.put_u64(self.root);
        w.put_u64(self.height as u64);
        w.put_u64(self.len as u64);
        w.put_u64(self.heap_open_page.unwrap_or(u64::MAX));
    }

    /// Reads what [`put`](Self::put) wrote; the caller has checked that
    /// [`ENCODED_LEN`](Self::ENCODED_LEN) bytes remain.
    pub(crate) fn get(r: &mut ByteReader) -> Self {
        Self {
            root: r.get_u64(),
            height: r.get_u64() as usize,
            len: r.get_u64() as usize,
            heap_open_page: match r.get_u64() {
                u64::MAX => None,
                p => Some(p),
            },
        }
    }

    /// Refuses a shape that points outside the files it was opened with:
    /// height at least one, the root inside the index file, the open heap
    /// page inside the heap file. `origin` labels the error.
    pub(crate) fn check(
        &self,
        index: &DiskStore,
        heap: &DiskStore,
        origin: &dyn std::fmt::Display,
    ) -> io::Result<()> {
        if self.height == 0 {
            return Err(invalid_data(format!("{origin}: zero height")));
        }
        if self.root as usize >= index.capacity_pages() {
            return Err(invalid_data(format!(
                "{origin}: root page {} outside the index file",
                self.root
            )));
        }
        match self.heap_open_page {
            Some(p) if p as usize >= heap.capacity_pages() => Err(invalid_data(format!(
                "{origin}: open heap page {p} outside the heap file"
            ))),
            _ => Ok(()),
        }
    }
}

/// The superstructure a saved index needs besides its page images: what
/// the index *is* (fixed at creation) and its current [`TreeShape`].
pub(crate) struct SavedMeta {
    pub kind: u8,
    pub dims: u8,
    pub catalog: Vec<f64>,
    pub cfg: TreeConfig,
    pub shape: TreeShape,
}

pub(crate) fn invalid_data(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Copies every page of `src` (live and freed alike, so page ids are
/// preserved verbatim) into a fresh [`DiskPageFile`] at `path`, replicating
/// the free list, and flushes.
///
/// The snapshot replaces `path` crash-ordered ([`replace_file`]), so saving
/// **over** the directory a disk-backed index was opened from never
/// truncates the file that index is still reading (the open store keeps
/// its pre-save inode; reopen to pick up the new snapshot), and a crash
/// mid-save never leaves a torn file behind.
pub(crate) fn dump_store<S: PageStore>(src: &S, path: &Path) -> io::Result<()> {
    replace_file(path, |tmp| {
        let mut dst = DiskPageFile::create(tmp)?;
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
        dst.flush()
    })
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
    meta.shape.put(&mut w);
    w.put_u16(meta.catalog.len() as u16);
    for &p in &meta.catalog {
        w.put_f64(p);
    }
    w.into_bytes()
}

/// Parses [`encode_meta`] bytes; `origin` labels error messages.
pub(crate) fn decode_meta(bytes: &[u8], origin: &dyn std::fmt::Display) -> io::Result<SavedMeta> {
    // Fixed header + the catalog length field.
    const FIXED: usize = 4 + 2 + 1 + 1 + 3 * 8 + TreeShape::ENCODED_LEN + 2;
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
    let shape = TreeShape::get(&mut r);
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
        shape,
    })
}

/// Rewrites the metadata file; it is rewritten by every checkpoint and
/// must never be observable half-written.
pub(crate) fn write_meta(path: &Path, meta: &SavedMeta) -> io::Result<()> {
    replace_file(path, |tmp| {
        let mut f = std::fs::File::create(tmp)?;
        io::Write::write_all(&mut f, &encode_meta(meta))?;
        f.sync_all()
    })
}

pub(crate) fn read_meta(path: &Path) -> io::Result<SavedMeta> {
    let bytes = std::fs::read(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
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
    fn new(file: DiskPageFile) -> Self {
        let n_pages = file.capacity_pages() as u64;
        let free = file.free_list();
        Self {
            file,
            n_pages,
            free,
        }
    }
}

impl ReplayTarget for ReplayFile {
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

/// Validates buffer-pool sizing parameters.
pub(crate) fn validate_pool_params(buffer_pages: usize) -> io::Result<()> {
    if buffer_pages == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a buffer pool needs at least one frame",
        ));
    }
    Ok(())
}

/// Opens snapshot files for replay, in order.
pub(crate) fn open_segments(segments: &[PathBuf]) -> io::Result<Vec<ReplayFile>> {
    segments
        .iter()
        .map(|path| DiskPageFile::open(path).map(ReplayFile::new))
        .collect()
}

/// Wraps each (replayed) snapshot file in its journaling [`WalStore`] —
/// file `i` under store tag `first_tag + i` of the shared `wal` — behind a
/// `buffer_pages` LRU pool: the one [`DiskStore`] assembly.
pub(crate) fn wrap_segments(
    files: Vec<ReplayFile>,
    wal: &Arc<Mutex<Wal>>,
    first_tag: usize,
    buffer_pages: usize,
) -> io::Result<Vec<DiskStore>> {
    files
        .into_iter()
        .enumerate()
        .map(|(i, rf)| {
            let tag = u8::try_from(first_tag + i)
                .map_err(|_| invalid_data("more than 256 segments behind one log"))?;
            let store = WalStore::attach(rf.file, Arc::clone(wal), tag, rf.n_pages, rf.free);
            Ok(BufferPool::new(store, buffer_pages))
        })
        .collect()
}

/// What [`recover`] hands back: the segment stores in the order their
/// paths were given (store tag = position), the log they share, and the
/// log's last committed metadata blob, if it held one.
pub(crate) struct Recovered {
    pub stores: Vec<DiskStore>,
    pub wal: Arc<Mutex<Wal>>,
    pub meta: Option<Vec<u8>>,
}

/// Recovery on open, once (see the module docs): every segment is opened
/// first, then `admit` runs — the caller's last chance to refuse the
/// directory — so a missing or foreign segment, or a refusal, comes
/// before `dir`'s log is created or truncated; then the log replays every
/// committed batch onto the segments before any of them is wrapped for
/// use. Returns what `admit` returned beside the recovered parts.
pub(crate) fn recover<T>(
    dir: &Path,
    segments: &[PathBuf],
    buffer_pages: usize,
    admit: impl FnOnce() -> io::Result<T>,
) -> io::Result<(Recovered, T)> {
    validate_pool_params(buffer_pages)?;
    let mut files = open_segments(segments)?;
    let admitted = admit()?;
    let mut targets: Vec<&mut dyn ReplayTarget> = files
        .iter_mut()
        .map(|rf| rf as &mut dyn ReplayTarget)
        .collect();
    let (wal, meta) = Wal::recover(dir.join(WAL_FILE), &mut targets)?;
    let wal = Arc::new(Mutex::new(wal));
    let stores = wrap_segments(files, &wal, 0, buffer_pages)?;
    Ok((Recovered { stores, wal, meta }, admitted))
}

/// The checkpoint sequence, once: `commit` (the owner's commit, fsynced
/// before it returns), then `snapshot` (the owner rewriting its snapshot
/// files), then the log truncation. Every commit is durable when it
/// returns, so the snapshot renames never overtake the log. The log stays
/// locked from the snapshot to the truncation.
pub(crate) fn checkpoint<T>(
    owner: &mut T,
    wal: &Mutex<Wal>,
    commit: impl FnOnce(&mut T) -> io::Result<()>,
    snapshot: impl FnOnce(&mut T) -> io::Result<()>,
) -> io::Result<()> {
    commit(owner)?;
    let mut w = wal.lock().map_err(|_| io::Error::other("wal poisoned"))?;
    snapshot(owner)?;
    w.truncate()
}

/// Opens a saved-index directory through [`recover`], returning the
/// (possibly log-recovered) metadata with the index and heap stores.
/// Shared by every tree's `open`. `meta.bin` must hold the structure kind
/// and dimensionality the caller is about to construct, checked before the
/// log is touched; the log's last committed metadata, if any, then wins.
pub(crate) fn open_parts(
    dir: &Path,
    kind: u8,
    dims: usize,
    buffer_pages: usize,
) -> io::Result<(SavedMeta, DiskStore, DiskStore)> {
    let meta_path = dir.join(META_FILE);
    let segments = [dir.join(INDEX_FILE), dir.join(HEAP_FILE)];
    let (recovered, saved) = recover(dir, &segments, buffer_pages, || {
        let saved = read_meta(&meta_path)?;
        expect(&saved, kind, dims, &meta_path)?;
        Ok(saved)
    })?;
    let meta = match recovered.meta {
        Some(bytes) => decode_meta(&bytes, &format!("{} (wal)", dir.display()))?,
        None => saved,
    };
    let [index, heap]: [DiskStore; 2] = recovered
        .stores
        .try_into()
        .map_err(|_| invalid_data("recovery returned the wrong number of stores"))?;
    Ok((meta, index, heap))
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
    Ok(())
}

/// Lower-case hex of `bytes` (byte-exact format pins).
#[cfg(test)]
pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::UCatalog;
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
            shape: TreeShape {
                root: 42,
                height: 3,
                len: 1234,
                heap_open_page: Some(7),
            },
        };
        write_meta(&path, &meta).unwrap();
        let back = read_meta(&path).unwrap();
        assert_eq!(back.kind, meta.kind);
        assert_eq!(back.dims, meta.dims);
        assert_eq!(back.catalog, meta.catalog);
        assert_eq!(back.cfg.min_fill, meta.cfg.min_fill);
        assert_eq!(back.shape, meta.shape);
        assert!(expect(&back, KIND_UPCR, 3, &path).is_ok());
        assert!(expect(&back, KIND_UTREE, 3, &path).is_err());
        assert!(expect(&back, KIND_UPCR, 2, &path).is_err());
        // The WAL carries the identical byte form.
        let via_wal = decode_meta(&encode_meta(&meta), &"wal").unwrap();
        assert_eq!(via_wal.shape, meta.shape);
        assert_eq!(via_wal.catalog, meta.catalog);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The byte form `meta.bin` and every WAL commit carry, pinned for a
    /// tree without an open heap page (empty) and with one.
    #[test]
    fn meta_bytes_are_pinned() {
        let mut tree = crate::UTree::<2>::new(UCatalog::uniform(3));
        let head = concat!(
            "55494458",
            "0100",
            "00",
            "02", // magic, version, kind, dims
            "9a9999999999d93f",
            "333333333333d33f",
            "9a9999999999a93f", // R* tuning
        );
        let ucat = concat!(
            "0300",
            "0000000000000000",
            "000000000000d03f",
            "000000000000e03f"
        );
        // root 0, height 1, len 0, no open heap page
        let shape = "000000000000000001000000000000000000000000000000ffffffffffffffff";
        assert_eq!(
            hex(&encode_meta(&tree.saved_meta())),
            head.to_string() + shape + ucat
        );
        tree.insert(&uncertain_pdf::UncertainObject::new(
            7,
            uncertain_pdf::ObjectPdf::UniformBall {
                center: uncertain_geom::Point::new([500.0, 500.0]),
                radius: 50.0,
            },
        ));
        // root 0, height 1, len 1, open heap page 0
        let shape = "0000000000000000010000000000000001000000000000000000000000000000";
        assert_eq!(
            hex(&encode_meta(&tree.saved_meta())),
            head.to_string() + shape + ucat
        );
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
