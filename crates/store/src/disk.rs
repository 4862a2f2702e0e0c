//! A durable [`PageStore`] backed by a real file.
//!
//! Layout: one superblock page at offset 0 (magic, version, page count,
//! an application root pointer and the head of the free list), data page
//! `p` at offset `(1 + p) * PAGE_SIZE`, and — when the free list outgrows
//! the superblock — spill pages appended after the data region.
//! [`DiskPageFile::flush`] rewrites the superblock and spill pages and
//! fsyncs, so a flushed file can be [`DiskPageFile::open`]ed cold with the
//! exact allocation state it was saved with.
//!
//! The **application root** ([`DiskPageFile::app_root`]) is an optional
//! page id persisted in the superblock exactly like the free list: it
//! gives higher layers one durable, crash-ordered anchor into the page
//! space (e.g. the head of a catalog record chain) without inventing a
//! second metadata file.

use crate::codec::byte_array;
use crate::pagefile::{PageId, PageStore, PAGE_SIZE};
use crate::IoStats;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: [u8; 4] = *b"UPGF";
const VERSION: u32 = 2;
/// Superblock header: magic + version + n_pages + app_root + n_free.
const SB_HEADER: usize = 4 + 4 + 8 + 8 + 8;
/// `app_root` encoding of "no root".
const NO_APP_ROOT: u64 = u64::MAX;
/// Free ids stored inline in the superblock.
const SB_INLINE: usize = (PAGE_SIZE - SB_HEADER) / 8;
/// Free ids per spill page.
const SPILL_PER_PAGE: usize = PAGE_SIZE / 8;

/// A page-granular file on disk.
///
/// Counted reads/writes are *physical* page transfers against the file
/// (via positional I/O). The free list lives in memory between
/// [`Self::flush`] calls; dropping the store flushes best-effort.
#[derive(Debug)]
pub struct DiskPageFile {
    file: File,
    path: PathBuf,
    n_pages: u64,
    app_root: Option<PageId>,
    free: Vec<PageId>,
    stats: Arc<IoStats>,
}

impl DiskPageFile {
    /// Creates (or truncates) a page file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut store = Self {
            file,
            path,
            n_pages: 0,
            app_root: None,
            free: Vec::new(),
            stats: Arc::new(IoStats::new()),
        };
        store.flush()?;
        Ok(store)
    }

    /// Opens an existing page file, restoring page count and free list
    /// from the superblock.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let labelled = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(labelled)?;
        let mut sb = [0u8; PAGE_SIZE];
        file.read_exact_at(&mut sb, 0).map_err(labelled)?;
        if sb[..4] != MAGIC {
            return Err(corrupt(&path, "bad superblock magic"));
        }
        let version = u32::from_le_bytes(byte_array(&sb[4..8]));
        if version != VERSION {
            return Err(corrupt(&path, &format!("unsupported version {version}")));
        }
        let n_pages = u64::from_le_bytes(byte_array(&sb[8..16]));
        let app_root = match u64::from_le_bytes(byte_array(&sb[16..24])) {
            NO_APP_ROOT => None,
            p if p < n_pages => Some(p),
            p => return Err(corrupt(&path, &format!("app root {p} out of range"))),
        };
        let n_free = u64::from_le_bytes(byte_array(&sb[24..32])) as usize;
        if n_free > n_pages as usize {
            return Err(corrupt(&path, "free list longer than the file"));
        }
        let mut free = Vec::with_capacity(n_free);
        for i in 0..n_free.min(SB_INLINE) {
            let off = SB_HEADER + i * 8;
            free.push(u64::from_le_bytes(byte_array(&sb[off..off + 8])));
        }
        let mut remaining = n_free.saturating_sub(SB_INLINE);
        let mut spill_idx = 0u64;
        while remaining > 0 {
            let mut page = [0u8; PAGE_SIZE];
            file.read_exact_at(&mut page, (1 + n_pages + spill_idx) * PAGE_SIZE as u64)?;
            for i in 0..remaining.min(SPILL_PER_PAGE) {
                let off = i * 8;
                free.push(u64::from_le_bytes(byte_array(&page[off..off + 8])));
            }
            remaining = remaining.saturating_sub(SPILL_PER_PAGE);
            spill_idx += 1;
        }
        if let Some(&bad) = free.iter().find(|&&id| id >= n_pages) {
            return Err(corrupt(&path, &format!("free id {bad} out of range")));
        }
        Ok(Self {
            file,
            path,
            n_pages,
            app_root,
            free,
            stats: Arc::new(IoStats::new()),
        })
    }

    /// The file path this store was created/opened with.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The application root page anchored in the superblock, if any.
    pub fn app_root(&self) -> Option<PageId> {
        self.app_root
    }

    /// Anchors (or clears) the application root page. Like the free list,
    /// the new value lives in memory until the next [`PageStore::flush`]
    /// persists the superblock.
    ///
    /// # Panics
    /// If `root` names a page outside the file.
    pub fn set_app_root(&mut self, root: Option<PageId>) {
        if let Some(p) = root {
            assert!(p < self.n_pages, "app root {p} outside the file");
        }
        self.app_root = root;
    }

    fn data_offset(id: PageId) -> u64 {
        (1 + id) * PAGE_SIZE as u64
    }
}

fn corrupt(path: &Path, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", path.display()),
    )
}

impl PageStore for DiskPageFile {
    fn allocate(&mut self) -> io::Result<PageId> {
        let reused = self.free.last().copied();
        let id = match reused {
            Some(id) => id,
            None => self.n_pages,
        };
        // Reads of a fresh allocation must see zeros and the file extent
        // must cover the page. Where the file does not yet reach the page,
        // set_len extends with (sparse) zeros for free; only pages whose
        // region already holds bytes — reused free-list pages, regions
        // previously occupied by free-list spill — need an explicit
        // zeroing write. The free list / page count are updated only after
        // the file operations succeed, so a failed allocation leaves the
        // allocation state untouched.
        let end = Self::data_offset(id) + PAGE_SIZE as u64;
        let cur = self.file.metadata()?.len();
        if cur <= Self::data_offset(id) {
            self.file.set_len(end)?;
        } else {
            self.file
                .write_all_at(&[0u8; PAGE_SIZE], Self::data_offset(id))?;
        }
        match reused {
            Some(_) => {
                self.free.pop();
            }
            None => self.n_pages += 1,
        }
        Ok(id)
    }

    fn release(&mut self, id: PageId) {
        debug_assert!(id < self.n_pages);
        debug_assert!(!self.free.contains(&id), "double free of page {id}");
        self.free.push(id);
    }

    fn read_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        self.stats.record_read();
        self.file.read_exact_at(out, Self::data_offset(id))
    }

    fn peek_into(&self, id: PageId, out: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        self.file.read_exact_at(out, Self::data_offset(id))
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        assert!(data.len() <= PAGE_SIZE, "page overflow: {}", data.len());
        self.stats.record_write();
        let mut page = [0u8; PAGE_SIZE];
        page[..data.len()].copy_from_slice(data);
        self.file.write_all_at(&page, Self::data_offset(id))
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

    /// Persists the superblock + free-list spill pages and fsyncs.
    fn flush(&mut self) -> io::Result<()> {
        let mut sb = [0u8; PAGE_SIZE];
        sb[..4].copy_from_slice(&MAGIC);
        sb[4..8].copy_from_slice(&VERSION.to_le_bytes());
        sb[8..16].copy_from_slice(&self.n_pages.to_le_bytes());
        sb[16..24].copy_from_slice(&self.app_root.unwrap_or(NO_APP_ROOT).to_le_bytes());
        sb[24..32].copy_from_slice(&(self.free.len() as u64).to_le_bytes());
        for (i, id) in self.free.iter().take(SB_INLINE).enumerate() {
            let off = SB_HEADER + i * 8;
            sb[off..off + 8].copy_from_slice(&id.to_le_bytes());
        }
        self.file.write_all_at(&sb, 0)?;
        let spilled = &self.free[self.free.len().min(SB_INLINE)..];
        let n_spill = spilled.len().div_ceil(SPILL_PER_PAGE);
        for (k, chunk) in spilled.chunks(SPILL_PER_PAGE).enumerate() {
            let mut page = [0u8; PAGE_SIZE];
            for (i, id) in chunk.iter().enumerate() {
                page[i * 8..i * 8 + 8].copy_from_slice(&id.to_le_bytes());
            }
            self.file
                .write_all_at(&page, (1 + self.n_pages + k as u64) * PAGE_SIZE as u64)?;
        }
        // Trim stale spill pages from earlier flushes.
        self.file
            .set_len((1 + self.n_pages + n_spill as u64) * PAGE_SIZE as u64)?;
        self.file.sync_all()
    }

    fn backing_path(&self) -> Option<std::path::PathBuf> {
        Some(self.path.clone())
    }
}

impl Drop for DiskPageFile {
    fn drop(&mut self) {
        let _ = PageStore::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("utree-disk-{}-{name}.pg", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn write_read_roundtrip_on_disk() {
        let path = temp_path("roundtrip");
        let mut f = DiskPageFile::create(&path).unwrap();
        let a = f.allocate().unwrap();
        let b = f.allocate().unwrap();
        f.write(a, b"hello disk").unwrap();
        f.write(b, &[7u8; PAGE_SIZE]).unwrap();
        let pa = f.read_page(a).unwrap();
        assert_eq!(&pa[..10], b"hello disk");
        assert_eq!(pa[10], 0, "tail must be zeroed");
        assert_eq!(f.read_page(b).unwrap()[PAGE_SIZE - 1], 7);
        assert_eq!(f.stats().reads(), 2);
        assert_eq!(f.stats().writes(), 2);
        drop(f);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_restores_pages_and_free_list() {
        let path = temp_path("reopen");
        let mut f = DiskPageFile::create(&path).unwrap();
        let ids: Vec<PageId> = (0..5).map(|_| f.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            f.write(id, &[i as u8 + 1; 16]).unwrap();
        }
        f.release(ids[1]);
        f.release(ids[3]);
        f.flush().unwrap();
        drop(f);

        let mut g = DiskPageFile::open(&path).unwrap();
        assert_eq!(g.capacity_pages(), 5);
        assert_eq!(g.live_pages(), 3);
        assert_eq!(g.free_list(), vec![ids[1], ids[3]]);
        assert_eq!(g.read_page(ids[4]).unwrap()[0], 5);
        // Reallocation pops the stack like the in-memory store.
        assert_eq!(g.allocate().unwrap(), ids[3]);
        assert!(g.read_page(ids[3]).unwrap().iter().all(|&b| b == 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn long_free_lists_spill_and_survive_reopen() {
        let path = temp_path("spill");
        let mut f = DiskPageFile::create(&path).unwrap();
        let n = SB_INLINE + 700; // forces two spill pages
        let ids: Vec<PageId> = (0..n).map(|_| f.allocate().unwrap()).collect();
        for &id in &ids {
            f.release(id);
        }
        f.flush().unwrap();
        drop(f);
        let g = DiskPageFile::open(&path).unwrap();
        assert_eq!(g.free_list(), ids);
        assert_eq!(g.live_pages(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn app_root_survives_reopen_like_the_free_list() {
        let path = temp_path("approot");
        let mut f = DiskPageFile::create(&path).unwrap();
        assert_eq!(f.app_root(), None);
        let a = f.allocate().unwrap();
        let b = f.allocate().unwrap();
        f.write(b, b"catalog head").unwrap();
        f.set_app_root(Some(b));
        f.release(a);
        f.flush().unwrap();
        drop(f);

        let mut g = DiskPageFile::open(&path).unwrap();
        assert_eq!(g.app_root(), Some(b));
        assert_eq!(g.free_list(), vec![a]);
        assert_eq!(&g.read_page(b).unwrap()[..12], b"catalog head");
        g.set_app_root(None);
        g.flush().unwrap();
        drop(g);
        assert_eq!(DiskPageFile::open(&path).unwrap().app_root(), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "outside the file")]
    fn app_root_must_name_an_existing_page() {
        let path = temp_path("approot-bad");
        let mut f = DiskPageFile::create(&path).unwrap();
        f.set_app_root(Some(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_garbage() {
        let path = temp_path("garbage");
        std::fs::write(&path, vec![0xABu8; PAGE_SIZE]).unwrap();
        let err = DiskPageFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn peek_is_uncounted() {
        let path = temp_path("peek");
        let mut f = DiskPageFile::create(&path).unwrap();
        let a = f.allocate().unwrap();
        f.write(a, b"x").unwrap();
        let _ = f.peek_page(a).unwrap();
        assert_eq!(f.stats().reads(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
