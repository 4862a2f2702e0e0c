//! Write-ahead logging: the crash-durable write path for page stores.
//!
//! The paper's index is pitched as disk-based, but a page-image snapshot
//! alone is only as durable as its last `save`. This module adds the
//! standard database answer — physical redo logging — sized to the
//! repo's page model:
//!
//! * [`Wal`] is an append-only log of CRC-framed, LSN-stamped records.
//!   Each frame is `[len: u32][crc: u32][payload]` with
//!   `payload = [lsn: u64][kind: u8][body]`; the CRC covers the payload,
//!   so a torn tail (a crash mid-append) is detected by length/CRC and
//!   discarded on recovery. Record kinds are full page images, allocation
//!   state changes (`Alloc`/`Release`), an opaque tree-metadata blob, and
//!   a commit marker. Everything between two commit markers is one atomic
//!   batch: [`Wal::recover`] reads the log once, applies each batch to its
//!   [`ReplayTarget`]s when the batch's commit marker arrives (page images
//!   straight from the read buffer, never copied out), and then truncates
//!   the torn or uncommitted rest, so a reopened store always equals some
//!   prefix of commits. [`Wal::commit`] appends the marker and fsyncs the
//!   log before it returns: every commit is durable when it returns.
//! * [`WalStore`] wraps any [`PageStore`] and journals every mutation
//!   *before* it reaches the wrapped backend (write-ahead rule): writes
//!   land in an in-memory shadow table, staging serializes them into the
//!   log, and only after the commit marker is synced are the images
//!   applied to the backend file. Replay is idempotent (full page
//!   images), so a crash at any point — including mid-apply — recovers by
//!   replaying the log over whatever the backend file holds.
//!
//! [`commit_group`] is the **only** commit path: it stages any number of
//! stores sharing one log into one batch, seals and syncs it, and applies
//! it to the backends. Checkpointing is layered above (see
//! `utree::persist`): commit, snapshot the stores via the
//! existing page-image dump, then [`Wal::truncate`] the log.

use crate::codec::byte_array;
use crate::pagefile::{PageId, PageStore, PAGE_SIZE};
use crate::IoStats;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Log header: magic + format version in one 8-byte stamp.
const MAGIC: [u8; 8] = *b"UWALLOG1";
/// Byte offset of the first frame.
const HEADER: u64 = 8;
/// Frame prefix: payload length + CRC.
const FRAME_PREFIX: usize = 4 + 4;
/// Payload prefix: LSN + kind.
const PAYLOAD_PREFIX: usize = 8 + 1;
/// Upper bound on a sane payload (page image + addressing, with slack for
/// large metadata blobs); longer lengths are treated as corruption.
const MAX_PAYLOAD: usize = 1 << 20;

const KIND_PAGE_IMAGE: u8 = 1;
const KIND_ALLOC: u8 = 2;
const KIND_RELEASE: u8 = 3;
const KIND_META: u8 = 4;
const KIND_COMMIT: u8 = 5;

/// CRC-32 (IEEE 802.3, the zlib polynomial), slice-by-16: `CRC_TABLES[0]`
/// is the byte-wise table, and `CRC_TABLES[k][b]` is the CRC register
/// after byte `b` is followed by `k` zero bytes, so sixteen lookups
/// advance the register over sixteen bytes at once. Hand-rolled — the
/// build environment is offline, and safe table code needs no
/// dependency.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 checksum of `bytes` (IEEE polynomial, standard init/final xor).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize];
        for (k, &byte) in b[4..].iter().enumerate() {
            c ^= t[11 - k][byte as usize];
        }
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Fsyncs a directory, making a completed rename/create/truncate of an
/// entry inside it durable. On POSIX the rename itself is atomic but only
/// the directory fsync pins it to disk.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn fsync_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => fsync_dir(dir),
        _ => Ok(()),
    }
}

/// Crash-ordered replacement of the file at `path`: `write` receives a
/// sibling `<name>.tmp` path, fills it and **fsyncs it** before returning;
/// the temp file is then renamed over `path` and the parent directory is
/// fsynced. A reader (or a crash) sees the old file or the complete new
/// one, never a torn mix, and an open handle on the old file keeps its
/// inode.
pub fn replace_file(path: &Path, write: impl FnOnce(&Path) -> io::Result<()>) -> io::Result<()> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    write(&tmp)?;
    std::fs::rename(&tmp, path)?;
    fsync_parent(path)
}

/// One frame as reported by [`Wal::scan`] (crash-test support: the frame
/// boundaries are exactly the interesting truncation points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Byte offset one past the end of the frame.
    pub end: u64,
    /// Record kind, the frame's kind byte as stored.
    pub kind: u8,
}

impl FrameInfo {
    /// True when the frame is a commit marker — a crash just after it
    /// makes one more batch durable.
    pub fn is_commit(&self) -> bool {
        self.kind == KIND_COMMIT
    }
}

/// An append-only, CRC-framed, LSN-stamped log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Append offset (logical end of the log).
    end: u64,
    /// Staging buffer: frames appended since the last write-out.
    buf: Vec<u8>,
    next_lsn: u64,
    syncs: u64,
}

impl Wal {
    /// Creates a fresh log at `path` (truncating any existing file),
    /// fsyncing the header and the parent directory.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all_at(&MAGIC, 0)?;
        file.sync_all()?;
        fsync_parent(&path)?;
        Ok(Self {
            file,
            path,
            end: HEADER,
            buf: Vec::new(),
            next_lsn: 1,
            syncs: 0,
        })
    }

    /// Opens (or creates) the log at `path` with crash recovery, in one
    /// pass over the bytes it reads: each committed batch is applied to
    /// `targets[store tag]` when its commit marker arrives (records for a
    /// tag without a target are ignored), page images straight from the
    /// read buffer. The torn or uncommitted tail is then cut off by
    /// truncating the file back to the last marker. Returns a log ready to
    /// append after that point plus the last committed metadata blob.
    ///
    /// Tolerated states: a missing file and a sub-header file (a crash
    /// during creation) both become a fresh empty log. A present header
    /// with wrong magic is an error — that file is not ours to truncate.
    /// A target's I/O failure aborts recovery before the log is touched.
    pub fn recover<P: AsRef<Path>>(
        path: P,
        targets: &mut [&mut dyn ReplayTarget],
    ) -> io::Result<(Self, Option<Vec<u8>>)> {
        let path = path.as_ref().to_path_buf();
        let bytes = match std::fs::read(&path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            Err(_) => Vec::new(),
            Ok(bytes) => bytes,
        };
        if bytes.len() < HEADER as usize {
            // Missing, or a crash between file creation and the header write.
            return Ok((Self::create(&path)?, None));
        }
        let mut batch: Vec<(u8, &[u8])> = Vec::new();
        let mut meta = None;
        let mut committed_end = HEADER;
        let mut next_lsn = 1u64;
        for (kind, lsn, body, end) in frames(&bytes, &path)? {
            if kind != KIND_COMMIT {
                batch.push((kind, body));
                continue;
            }
            for (kind, body) in batch.drain(..) {
                if kind == KIND_META {
                    meta = Some(body);
                } else if let Some(target) = targets.get_mut(body[0] as usize) {
                    let page = u64::from_le_bytes(byte_array(&body[1..9]));
                    match (kind, body[9..].first_chunk()) {
                        (KIND_PAGE_IMAGE, Some(image)) => target.apply_image(page, image)?,
                        (KIND_ALLOC, _) => target.apply_alloc(page)?,
                        (KIND_RELEASE, _) => target.apply_release(page)?,
                        // `decode_frame` sized every body for its kind.
                        _ => {}
                    }
                }
            }
            committed_end = end as u64;
            next_lsn = lsn + 1;
        }
        let meta = meta.map(<[u8]>::to_vec);
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        if bytes.len() as u64 > committed_end {
            // Torn tail and/or uncommitted trailing records: roll back.
            file.set_len(committed_end)?;
            file.sync_all()?;
        }
        let wal = Self {
            file,
            path,
            end: committed_end,
            buf: Vec::new(),
            next_lsn,
            syncs: 0,
        };
        Ok((wal, meta))
    }

    /// Read-only frame scan (no truncation): the frames [`recover`] reads,
    /// in order, with the same end-of-log rule and the same refusal of a
    /// foreign header. Crash tests use the reported boundaries as
    /// truncation points.
    ///
    /// [`recover`]: Self::recover
    pub fn scan<P: AsRef<Path>>(path: P) -> io::Result<Vec<FrameInfo>> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        Ok(frames(&bytes, path)?
            .map(|(kind, _, _, end)| FrameInfo {
                end: end as u64,
                kind,
            })
            .collect())
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Logical length in bytes (header + all appended frames).
    pub fn len_bytes(&self) -> u64 {
        self.end + self.buf.len() as u64
    }

    /// Number of `fsync`s issued so far: one per commit, plus one per
    /// explicit [`sync`](Self::sync).
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    fn append_frame(&mut self, kind: u8, body: &[&[u8]]) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let body_len: usize = body.iter().map(|b| b.len()).sum();
        let len = (PAYLOAD_PREFIX + body_len) as u32;
        let start = self.buf.len();
        self.buf.reserve(FRAME_PREFIX + len as usize);
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&[0u8; 4]); // CRC backpatched below
        self.buf.extend_from_slice(&lsn.to_le_bytes());
        self.buf.push(kind);
        for part in body {
            self.buf.extend_from_slice(part);
        }
        let crc = crc32(&self.buf[start + FRAME_PREFIX..]);
        self.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        lsn
    }

    /// Appends a full page image of store `store`.
    pub fn append_image(&mut self, store: u8, page: PageId, data: &[u8; PAGE_SIZE]) -> u64 {
        self.append_frame(KIND_PAGE_IMAGE, &[&[store], &page.to_le_bytes(), data])
    }

    /// Appends an allocation record.
    pub fn append_alloc(&mut self, store: u8, page: PageId) -> u64 {
        self.append_frame(KIND_ALLOC, &[&[store], &page.to_le_bytes()])
    }

    /// Appends a release record.
    pub fn append_release(&mut self, store: u8, page: PageId) -> u64 {
        self.append_frame(KIND_RELEASE, &[&[store], &page.to_le_bytes()])
    }

    /// Appends a tree-metadata blob (the last committed one wins at
    /// recovery).
    pub fn append_meta(&mut self, bytes: &[u8]) -> u64 {
        self.append_frame(KIND_META, &[bytes])
    }

    fn write_out(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all_at(&self.buf, self.end)?;
            self.end += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    /// Appends a commit marker sealing everything since the previous one
    /// into an atomic batch, writes the frames out and fsyncs them: the
    /// batch is durable when this returns. Returns the marker's LSN.
    pub fn commit(&mut self) -> io::Result<u64> {
        let lsn = self.append_frame(KIND_COMMIT, &[]);
        self.sync()?;
        Ok(lsn)
    }

    /// Writes out every appended frame and fsyncs the log.
    pub fn sync(&mut self) -> io::Result<()> {
        self.write_out()?;
        self.file.sync_data()?;
        self.syncs += 1;
        Ok(())
    }

    /// Truncates the log back to an empty header — the checkpoint step
    /// after a snapshot has captured everything the log held. LSNs keep
    /// counting monotonically across truncations. Fsyncs the file and its
    /// directory.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.buf.clear();
        self.file.set_len(HEADER)?;
        self.end = HEADER;
        self.file.sync_all()?;
        fsync_parent(&self.path)
    }
}

/// The frames of a whole log image, checked for our header. A file too
/// short to hold the header has no frames; a foreign header is
/// `InvalidData` (`path` labels it).
fn frames<'a>(bytes: &'a [u8], path: &Path) -> io::Result<Frames<'a>> {
    if bytes.len() >= HEADER as usize && bytes[..HEADER as usize] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a WAL file (bad magic)", path.display()),
        ));
    }
    Ok(Frames {
        bytes,
        off: HEADER as usize,
        next_lsn: None,
    })
}

/// Walks a log image frame by frame, yielding `(kind, lsn, body,
/// end_offset)` with the body borrowed from the image. This is the one
/// rule for where a log ends: at the first frame that does not decode (see
/// [`decode_frame`]) or whose LSN does not follow its predecessor's.
struct Frames<'a> {
    bytes: &'a [u8],
    off: usize,
    next_lsn: Option<u64>,
}

impl<'a> Iterator for Frames<'a> {
    type Item = (u8, u64, &'a [u8], usize);

    fn next(&mut self) -> Option<Self::Item> {
        let frame @ (_, lsn, _, end) = decode_frame(self.bytes, self.off)?;
        if self.next_lsn.is_some_and(|want| lsn != want) {
            return None;
        }
        self.next_lsn = Some(lsn + 1);
        self.off = end;
        Some(frame)
    }
}

/// Decodes the frame at `off`, returning `(kind, lsn, body, end_offset)`;
/// any framing violation (short prefix, insane length, bad CRC, unknown
/// kind, a body of the wrong length for its kind) reads as end-of-log.
/// Image, alloc and release bodies are `[store: u8][page: u64]`, an image
/// followed by its `PAGE_SIZE` bytes.
fn decode_frame(bytes: &[u8], off: usize) -> Option<(u8, u64, &[u8], usize)> {
    let prefix = bytes.get(off..off + FRAME_PREFIX)?;
    let len = u32::from_le_bytes(byte_array(&prefix[..4])) as usize;
    let crc = u32::from_le_bytes(byte_array(&prefix[4..8]));
    if !(PAYLOAD_PREFIX..=MAX_PAYLOAD).contains(&len) {
        return None;
    }
    let payload = bytes.get(off + FRAME_PREFIX..off + FRAME_PREFIX + len)?;
    if crc32(payload) != crc {
        return None;
    }
    let lsn = u64::from_le_bytes(byte_array(&payload[..8]));
    let kind = payload[8];
    let body = &payload[PAYLOAD_PREFIX..];
    let well_formed = match kind {
        KIND_PAGE_IMAGE => body.len() == 1 + 8 + PAGE_SIZE,
        KIND_ALLOC | KIND_RELEASE => body.len() == 1 + 8,
        KIND_META => true,
        KIND_COMMIT => body.is_empty(),
        _ => false,
    };
    well_formed.then_some((kind, lsn, body, off + FRAME_PREFIX + len))
}

/// Where committed records land during recovery. Implemented by the
/// persistence layer over its snapshot files; replay order within a batch
/// is append order, and full page images make the whole replay idempotent
/// over any partially-applied base.
pub trait ReplayTarget {
    /// Installs a full page image (extending the page space if needed).
    fn apply_image(&mut self, page: PageId, data: &[u8; PAGE_SIZE]) -> io::Result<()>;
    /// Re-applies an allocation: the page leaves the free list, the extent
    /// grows to cover it, and its content resets to zero.
    fn apply_alloc(&mut self, page: PageId) -> io::Result<()>;
    /// Re-applies a release: the page joins the free list (idempotently).
    fn apply_release(&mut self, page: PageId) -> io::Result<()>;
}

enum PendingOp {
    Alloc(PageId),
    Release(PageId),
    Write(PageId),
}

/// A page image bound for the backend once its commit is synced.
type StagedImage = (PageId, Arc<[u8; PAGE_SIZE]>);

/// A journaling [`PageStore`] wrapper: every mutation is logged to a
/// shared [`Wal`] *before* it reaches the wrapped backend.
///
/// ## Protocol
///
/// Writes land in an in-memory **shadow table** (reads are served from it
/// first), allocation state lives in a shadow free list seeded from the
/// backend at attach time — the backend's own `allocate`/`release` are
/// never called, so its on-disk allocation state stays frozen at the last
/// snapshot. [`commit_group`] then moves the pending ops of every store
/// sharing the log to disk in write-ahead order — one batch, one marker,
/// which is what makes a tree's index + heap commit atomic — and, once the
/// log is synced, copies the batch's images into the backends.
///
/// `flush` (the [`PageStore`] hook, e.g. from a dropping buffer pool)
/// deliberately does **not** commit: it stages and syncs the bytes, but
/// without a marker recovery rolls them back — dropping a store without
/// committing means *rollback to the last commit*, never a half-applied
/// batch.
///
/// The backend must tolerate writes past its current extent by growing
/// (as [`crate::DiskPageFile`] does): committed allocations reach it only
/// as page images.
pub struct WalStore<S: PageStore> {
    inner: S,
    wal: Arc<Mutex<Wal>>,
    tag: u8,
    pending: Vec<PendingOp>,
    dirty: HashSet<PageId>,
    shadow: HashMap<PageId, Arc<[u8; PAGE_SIZE]>>,
    /// Images staged into the log but not yet sealed by a commit marker.
    staged: Vec<StagedImage>,
    /// Committed batches not yet applied to `inner`.
    unapplied: VecDeque<Vec<StagedImage>>,
    n_pages: u64,
    free: Vec<PageId>,
    stats: Arc<IoStats>,
}

impl<S: PageStore> WalStore<S> {
    /// Wraps `inner`, journaling to `wal` under store tag `tag`, with an
    /// explicit shadow allocation state (`n_pages` page extent + free
    /// list) — the state recovery computed by replaying the log.
    pub fn attach(
        inner: S,
        wal: Arc<Mutex<Wal>>,
        tag: u8,
        n_pages: u64,
        free: Vec<PageId>,
    ) -> Self {
        debug_assert!(free.iter().all(|&id| id < n_pages));
        let stats = Arc::new(IoStats::new());
        Self {
            inner,
            wal,
            tag,
            pending: Vec::new(),
            dirty: HashSet::new(),
            shadow: HashMap::new(),
            staged: Vec::new(),
            unapplied: VecDeque::new(),
            n_pages,
            free,
            stats,
        }
    }

    /// [`attach`](Self::attach) seeding the shadow allocation state from
    /// the backend itself (a freshly opened snapshot with no log to
    /// replay).
    pub fn wrap(inner: S, wal: Arc<Mutex<Wal>>, tag: u8) -> Self {
        let n_pages = inner.capacity_pages() as u64;
        let free = inner.free_list();
        Self::attach(inner, wal, tag, n_pages, free)
    }

    /// The shared log handle.
    pub fn wal_handle(&self) -> Arc<Mutex<Wal>> {
        Arc::clone(&self.wal)
    }

    /// The wrapped backend (diagnostics).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Number of committed batches not yet applied to the backend: non-zero
    /// only after a backend write fault, until a later commit or `flush`
    /// applies them.
    pub fn unapplied_batches(&self) -> usize {
        self.unapplied.len()
    }

    /// Serializes every pending op into the log, in mutation order. The
    /// caller holds the log lock and decides when to seal the batch.
    fn stage(&mut self, wal: &mut Wal) {
        for op in self.pending.drain(..) {
            match op {
                PendingOp::Alloc(id) => {
                    wal.append_alloc(self.tag, id);
                }
                PendingOp::Release(id) => {
                    wal.append_release(self.tag, id);
                }
                PendingOp::Write(id) => {
                    let data = self
                        .shadow
                        .get(&id)
                        // xlint: allow(panic-freedom) -- invariant: wal store: dirty page must be shadowed
                        .expect("wal store: dirty page must be shadowed")
                        .clone();
                    wal.append_image(self.tag, id, &data);
                    self.staged.push((id, data));
                }
            }
        }
        self.dirty.clear();
    }

    /// Seals the staged images into a committed batch awaiting apply.
    fn seal(&mut self) {
        if !self.staged.is_empty() {
            self.unapplied.push_back(std::mem::take(&mut self.staged));
        }
    }

    /// Applies every committed batch to the backend, in commit order,
    /// retiring shadow entries that the apply made current.
    ///
    /// On a backend write failure the not-yet-applied images stay queued
    /// (full page images are idempotent, so a later retry — or crash
    /// recovery replaying the synced log — lands the same state) and the
    /// error surfaces to the caller. Reads remain coherent meanwhile: any
    /// unretired page is still served from the shadow table.
    fn apply(&mut self) -> io::Result<()> {
        while let Some(images) = self.unapplied.pop_front() {
            for (i, (id, data)) in images.iter().enumerate() {
                if let Err(e) = self.inner.write(*id, &data[..]) {
                    // Re-queue the unapplied suffix (this image included)
                    // so the batch can be retried or recovered.
                    self.unapplied.push_front(images[i..].to_vec());
                    return Err(e);
                }
                if let Some(cur) = self.shadow.get(id) {
                    if Arc::ptr_eq(cur, data) {
                        self.shadow.remove(id);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The commit protocol — the write-ahead rule — for any number of stores
/// journaling to one log. Under a single hold of the log lock: every
/// store's pending ops are staged in slice order, `meta` (the caller's
/// superstructure blob; the last committed one wins at recovery) is
/// appended, and one commit marker seals it all into **one atomic batch**,
/// fsynced before the lock is released: the batch is durable when this
/// returns. Only then does every store copy the batch's images into its
/// backend — applying them before the sync would let the backend file
/// hold state a crash-truncated log cannot reproduce.
///
/// A backend that fails its apply does not stop the others, and loses
/// nothing: the batch is in the log, the store keeps the unapplied images
/// queued (and serves them to readers), and the first such error is
/// returned so the caller hears about the sick backend. Every store must
/// have been attached to `wal`.
pub fn commit_group<S: PageStore>(
    wal: &Mutex<Wal>,
    stores: &mut [&mut WalStore<S>],
    meta: Option<&[u8]>,
) -> io::Result<()> {
    debug_assert!(stores.iter().all(|s| std::ptr::eq(&*s.wal, wal)));
    {
        let mut w = wal.lock().map_err(|_| io::Error::other("wal poisoned"))?;
        for store in stores.iter_mut() {
            store.stage(&mut w);
        }
        if let Some(meta) = meta {
            w.append_meta(meta);
        }
        w.commit()?;
    }
    let mut applied = Ok(());
    for store in stores.iter_mut() {
        store.seal();
        applied = applied.and(store.apply());
    }
    applied
}

impl<S: PageStore> PageStore for WalStore<S> {
    fn allocate(&mut self) -> io::Result<PageId> {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let id = self.n_pages;
                self.n_pages += 1;
                id
            }
        };
        self.pending.push(PendingOp::Alloc(id));
        // A fresh allocation reads as zeros until written; shadowing the
        // zero page also guarantees every allocated page has an image in
        // the batch (the image is superseded in place by the first real
        // write). The extra Write entry is load-bearing for
        // release-then-reallocate within one batch: replay passes through
        // the zeroing `Alloc`, so the final image must come after it.
        self.shadow.insert(id, Arc::new([0u8; PAGE_SIZE]));
        self.pending.push(PendingOp::Write(id));
        self.dirty.insert(id);
        Ok(id)
    }

    fn release(&mut self, id: PageId) {
        debug_assert!(id < self.n_pages);
        debug_assert!(!self.free.contains(&id), "double free of page {id}");
        self.free.push(id);
        self.pending.push(PendingOp::Release(id));
    }

    fn read_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        self.stats.record_read();
        if let Some(page) = self.shadow.get(&id) {
            out.copy_from_slice(&page[..]);
            Ok(())
        } else {
            self.inner.read_into(id, out)
        }
    }

    fn peek_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        if let Some(page) = self.shadow.get(&id) {
            out.copy_from_slice(&page[..]);
            Ok(())
        } else {
            self.inner.peek_into(id, out)
        }
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        assert!(data.len() <= PAGE_SIZE, "page overflow: {}", data.len());
        self.stats.record_write();
        let mut page = [0u8; PAGE_SIZE];
        page[..data.len()].copy_from_slice(data);
        self.shadow.insert(id, Arc::new(page));
        if self.dirty.insert(id) {
            self.pending.push(PendingOp::Write(id));
        }
        Ok(())
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn live_pages(&self) -> usize {
        self.n_pages as usize - self.free.len()
    }

    fn capacity_pages(&self) -> usize {
        self.n_pages as usize
    }

    fn free_list(&self) -> Vec<PageId> {
        self.free.clone()
    }

    /// Stages pending ops and syncs the log — **without** a commit
    /// marker. The bytes are on disk, but recovery rolls uncommitted
    /// records back: durability with recovery needs a commit (see the
    /// type docs). This is what makes dropping an uncommitted store a
    /// clean rollback instead of a torn half-batch. Committed batches a
    /// backend fault left queued are retried here.
    fn flush(&mut self) -> io::Result<()> {
        let wal = Arc::clone(&self.wal);
        let mut w = wal.lock().map_err(|_| io::Error::other("wal poisoned"))?;
        self.stage(&mut w);
        w.sync()?;
        drop(w);
        self.apply()?;
        self.inner.flush()
    }

    fn backing_path(&self) -> Option<PathBuf> {
        self.inner.backing_path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskPageFile;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("utree-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// The byte-wise table CRC, one lookup per byte: the oracle of the
    /// sliced form.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_form() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        let buf: Vec<u8> = (0..4_113 + 16).map(|_| rng.gen_range(0..=255u8)).collect();
        for len in 0..=4_113 {
            // Every start offset mod 16, so blocks straddle every alignment.
            let start = (len * 7) % 16;
            let bytes = &buf[start..start + len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at {start}");
        }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// One call a [`Recorder`] received.
    #[derive(Debug, Clone, PartialEq)]
    enum Applied {
        Image(PageId, Vec<u8>),
        Alloc(PageId),
        Release(PageId),
    }

    /// A replay target that records every call it receives, in order.
    #[derive(Default)]
    struct Recorder(Vec<Applied>);

    impl ReplayTarget for Recorder {
        fn apply_image(&mut self, page: PageId, data: &[u8; PAGE_SIZE]) -> io::Result<()> {
            self.0.push(Applied::Image(page, data.to_vec()));
            Ok(())
        }
        fn apply_alloc(&mut self, page: PageId) -> io::Result<()> {
            self.0.push(Applied::Alloc(page));
            Ok(())
        }
        fn apply_release(&mut self, page: PageId) -> io::Result<()> {
            self.0.push(Applied::Release(page));
            Ok(())
        }
    }

    /// The last committed meta blob and each store tag's calls.
    type Recorded = (Option<Vec<u8>>, Vec<Vec<Applied>>);

    /// Recovers `path` onto `n` recorders (store tags `0..n`).
    fn recover_recorded(path: &Path, n: usize) -> io::Result<Recorded> {
        let mut recorders: Vec<Recorder> = (0..n).map(|_| Recorder::default()).collect();
        let mut targets: Vec<&mut dyn ReplayTarget> = recorders
            .iter_mut()
            .map(|r| r as &mut dyn ReplayTarget)
            .collect();
        let (_, meta) = Wal::recover(path, &mut targets)?;
        Ok((meta, recorders.into_iter().map(|r| r.0).collect()))
    }

    #[test]
    fn commit_recover_roundtrip() {
        let path = temp_path("roundtrip.wal");
        {
            let mut wal = Wal::create(&path).unwrap();
            let img = [7u8; PAGE_SIZE];
            wal.append_alloc(0, 3);
            wal.append_image(0, 3, &img);
            wal.append_meta(b"meta-1");
            wal.commit().unwrap();
            assert_eq!(wal.sync_count(), 1, "every commit syncs");
            wal.append_release(1, 9);
            wal.commit().unwrap();
        }
        let (meta, applied) = recover_recorded(&path, 2).unwrap();
        assert_eq!(
            applied[0],
            vec![Applied::Alloc(3), Applied::Image(3, vec![7; PAGE_SIZE])]
        );
        assert_eq!(applied[1], vec![Applied::Release(9)]);
        assert_eq!(meta.as_deref(), Some(&b"meta-1"[..]));
        // Records for a tag without a target are ignored.
        let (meta, applied) = recover_recorded(&path, 1).unwrap();
        assert_eq!(applied[0].len(), 2);
        assert_eq!(meta.as_deref(), Some(&b"meta-1"[..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_at_every_truncation_point() {
        let path = temp_path("torn.wal");
        let full_len;
        // What batch `b` applies, in append order.
        let batch_calls = |b: u8| {
            [
                Applied::Alloc(b as u64),
                Applied::Image(b as u64, vec![b + 1; PAGE_SIZE]),
            ]
        };
        {
            let mut wal = Wal::create(&path).unwrap();
            for batch in 0..3u8 {
                let img = [batch + 1; PAGE_SIZE];
                wal.append_alloc(0, batch as u64);
                wal.append_image(0, batch as u64, &img);
                wal.append_meta(&[batch]);
                wal.commit().unwrap();
            }
            full_len = wal.len_bytes();
        }
        let frames = Wal::scan(&path).unwrap();
        assert_eq!(
            frames.len(),
            12,
            "3 batches x (alloc + image + meta + commit)"
        );
        assert_eq!(frames.last().unwrap().end, full_len);
        let original = std::fs::read(&path).unwrap();

        // Truncate at every frame boundary and at a byte inside every
        // frame; recovery must apply exactly the fully committed prefix,
        // in order, and nothing of the tail.
        let mut cut_points: Vec<u64> = vec![HEADER];
        for f in &frames {
            cut_points.push(f.end);
            cut_points.push(f.end - 1); // mid-frame (torn append)
            cut_points.push(f.end + 3); // mid-prefix of the next frame
        }
        for cut in cut_points {
            let cut = cut.min(full_len);
            std::fs::write(&path, &original[..cut as usize]).unwrap();
            let commits_before = frames
                .iter()
                .filter(|f| f.kind == KIND_COMMIT && f.end <= cut)
                .count() as u8;
            let want: Vec<Applied> = (0..commits_before).flat_map(batch_calls).collect();
            let want_meta = commits_before.checked_sub(1).map(|b| vec![b]);
            let (meta, applied) = recover_recorded(&path, 1).unwrap();
            assert_eq!(applied[0], want, "cut at {cut}: wrong committed prefix");
            assert_eq!(meta, want_meta, "cut at {cut}: wrong meta");
            // Recovery truncated the tail: a second recovery agrees.
            let (meta, applied) = recover_recorded(&path, 1).unwrap();
            assert_eq!(applied[0], want);
            assert_eq!(meta, want_meta);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_crc_cuts_the_log_there() {
        let path = temp_path("crc.wal");
        {
            let mut wal = Wal::create(&path).unwrap();
            for i in 0..3u64 {
                wal.append_alloc(0, i);
                wal.commit().unwrap();
            }
        }
        let frames = Wal::scan(&path).unwrap();
        // Flip one byte inside the second batch's alloc record body
        // (frame 2, starting where frame 1 — the first commit — ends).
        let mut bytes = std::fs::read(&path).unwrap();
        let target = frames[1].end as usize + FRAME_PREFIX + PAYLOAD_PREFIX;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, applied) = recover_recorded(&path, 1).unwrap();
        assert_eq!(
            applied[0],
            vec![Applied::Alloc(0)],
            "corruption voids that batch onward"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recover_missing_and_embryonic_files() {
        let path = temp_path("fresh.wal");
        let (meta, applied) = recover_recorded(&path, 1).unwrap();
        assert!(applied[0].is_empty() && meta.is_none());
        // Crash between create and header write: a too-short file.
        std::fs::write(&path, b"UW").unwrap();
        let (meta, applied) = recover_recorded(&path, 1).unwrap();
        assert!(applied[0].is_empty() && meta.is_none());
        // A foreign file is refused, not truncated.
        std::fs::write(&path, vec![0xAB; 64]).unwrap();
        assert!(recover_recorded(&path, 1).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), vec![0xAB; 64]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scan_refuses_a_foreign_file_like_recover() {
        // A crash sweep over `scan`'s boundaries must not pass vacuously
        // on a file that is not a log at all.
        let path = temp_path("foreign.wal");
        std::fs::write(&path, vec![0xAB; 64]).unwrap();
        let scanned = Wal::scan(&path).expect_err("scan must refuse a foreign file");
        let recovered = recover_recorded(&path, 1)
            .map(|_| ())
            .expect_err("so does recover");
        assert_eq!(scanned.kind(), io::ErrorKind::InvalidData);
        assert_eq!(scanned.kind(), recovered.kind());
        // A sub-header file (a crash during creation) is an empty log to
        // both.
        std::fs::write(&path, b"UW").unwrap();
        assert!(Wal::scan(&path).unwrap().is_empty());
        let (meta, applied) = recover_recorded(&path, 1).unwrap();
        assert!(applied[0].is_empty() && meta.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_resets_the_log_but_not_the_lsns() {
        let path = temp_path("trunc.wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append_alloc(0, 1);
        let lsn_before = wal.commit().unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.len_bytes(), HEADER);
        wal.append_alloc(0, 2);
        let lsn = wal.commit().unwrap();
        assert!(lsn > lsn_before, "LSNs stay monotonic across truncate");
        drop(wal);
        let (_, applied) = recover_recorded(&path, 1).unwrap();
        assert_eq!(
            applied[0],
            vec![Applied::Alloc(2)],
            "only the post-truncate batch"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wal_store_journals_before_the_backend_and_rolls_back_uncommitted() {
        let dir = std::env::temp_dir();
        let data_path = dir.join(format!("utree-walstore-{}-data.pg", std::process::id()));
        let wal_path = dir.join(format!("utree-walstore-{}-log.wal", std::process::id()));
        let _ = std::fs::remove_file(&data_path);
        let _ = std::fs::remove_file(&wal_path);

        let expected_a;
        {
            let inner = DiskPageFile::create(&data_path).unwrap();
            let wal = Arc::new(Mutex::new(Wal::create(&wal_path).unwrap()));
            let mut store = WalStore::wrap(inner, Arc::clone(&wal), 0);
            let a = store.allocate().unwrap();
            store.write(a, b"committed").unwrap();
            expected_a = a;
            // Before commit: backend file does not see the page content.
            assert_eq!(store.unapplied_batches(), 0);
            commit_group(&wal, &mut [&mut store], None).unwrap();
            assert_eq!(store.unapplied_batches(), 0, "a commit applies");
            assert_eq!(&store.inner().peek_page(a).unwrap()[..9], b"committed");

            // A second, uncommitted mutation: flush (stage+sync, no
            // marker) then drop — recovery must roll it back.
            let b = store.allocate().unwrap();
            store.write(b, b"uncommitted").unwrap();
            store.flush().unwrap();
        }
        // Rebuild the store from the recovered allocation state.
        struct Sink {
            n_pages: u64,
            free: Vec<PageId>,
        }
        impl ReplayTarget for Sink {
            fn apply_image(&mut self, _page: PageId, _data: &[u8; PAGE_SIZE]) -> io::Result<()> {
                Ok(())
            }
            fn apply_alloc(&mut self, page: PageId) -> io::Result<()> {
                self.free.retain(|&f| f != page);
                if page >= self.n_pages {
                    self.n_pages = page + 1;
                }
                Ok(())
            }
            fn apply_release(&mut self, page: PageId) -> io::Result<()> {
                if !self.free.contains(&page) {
                    self.free.push(page);
                }
                Ok(())
            }
        }
        let mut sink = Sink {
            n_pages: 0,
            free: Vec::new(),
        };
        Wal::recover(&wal_path, &mut [&mut sink]).unwrap();
        let commits = Wal::scan(&wal_path).unwrap();
        assert_eq!(
            commits.iter().filter(|f| f.is_commit()).count(),
            1,
            "uncommitted tail rolled back"
        );
        assert_eq!(commits.last().map(FrameInfo::is_commit), Some(true));
        assert_eq!(sink.n_pages, expected_a + 1, "only the committed page");
        let _ = std::fs::remove_file(&data_path);
        let _ = std::fs::remove_file(&wal_path);
    }

    #[test]
    fn release_then_reallocate_within_one_batch_replays_correctly() {
        let path = temp_path("realloc.wal");
        let data_path = temp_path("realloc.pg");
        let wal = Wal::create(&path).unwrap();
        // The backend must absorb extending writes (the contract the
        // apply path relies on) — that's the disk file, not PageFile.
        let inner = DiskPageFile::create(&data_path).unwrap();
        let wal = Arc::new(Mutex::new(wal));
        let mut store = WalStore::wrap(inner, Arc::clone(&wal), 0);
        let a = store.allocate().unwrap();
        store.write(a, b"first life").unwrap();
        commit_group(&wal, &mut [&mut store], None).unwrap();
        // One batch: release a, reallocate it (same id), write new bytes.
        store.release(a);
        let b = store.allocate().unwrap();
        assert_eq!(b, a, "free list must hand the id back");
        store.write(b, b"second life").unwrap();
        commit_group(&wal, &mut [&mut store], None).unwrap();
        drop(store);

        // Replay into a byte-level target and check the final content.
        struct Pages(HashMap<PageId, [u8; PAGE_SIZE]>, Vec<PageId>);
        impl ReplayTarget for Pages {
            fn apply_image(&mut self, page: PageId, data: &[u8; PAGE_SIZE]) -> io::Result<()> {
                self.0.insert(page, *data);
                Ok(())
            }
            fn apply_alloc(&mut self, page: PageId) -> io::Result<()> {
                self.1.retain(|&f| f != page);
                self.0.insert(page, [0u8; PAGE_SIZE]);
                Ok(())
            }
            fn apply_release(&mut self, page: PageId) -> io::Result<()> {
                if !self.1.contains(&page) {
                    self.1.push(page);
                }
                Ok(())
            }
        }
        let mut pages = Pages(HashMap::new(), Vec::new());
        Wal::recover(&path, &mut [&mut pages]).unwrap();
        assert_eq!(&pages.0[&a][..11], b"second life");
        assert!(pages.1.is_empty(), "the page ends the log allocated");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&data_path);
    }
}
