//! The multi-index catalog: many named, sharded indexes in one directory,
//! committing / recovering through **one** write-ahead log.
//!
//! A catalog directory holds:
//!
//! * `catalog.pg` — a [`DiskPageFile`] whose superblock anchors (via
//!   [`DiskPageFile::app_root`], persisted exactly like the free list) a
//!   chain of pages carrying the catalog records: name → index id →
//!   structure kind, dimensionality, shard count, WAL tag range, U-catalog
//!   values, R* tuning, and every shard's superstructure (root page,
//!   height, record count, open heap page);
//! * `wal.log` — one shared log. Every [`IndexCatalog::commit`] stages
//!   *all* indexes' dirty pages and seals them, together with the encoded
//!   catalog, under a **single commit marker** — crash recovery lands all
//!   indexes on the same batch boundary, never on a mix;
//! * `idx-<id>-<shard>.pg` / `heap-<id>-<shard>.pg` — the node and heap
//!   page snapshots of each physical shard tree, each journaled through
//!   the shared log under its own store tag.
//!
//! On [`IndexCatalog::open`], the page-file catalog supplies the segment
//! *set* (which files exist — index DDL rewrites it durably before any
//! commit can reference the new segments), the log is recovered and
//! replayed across every segment, and the log's last committed catalog
//! record — when present — supplies the authoritative per-index
//! superstructure. [`IndexCatalog::checkpoint`] rewrites all snapshots
//! plus the page-file catalog and truncates the log, exactly like the
//! single-tree `checkpoint`.
//!
//! Naming rules: index names are 1–64 characters from `[A-Za-z0-9_.-]`,
//! unique within the catalog. Names are catalog keys, not file names —
//! segment files are keyed by the immutable numeric index id.

use crate::catalog::UCatalog;
use crate::persist::{self, ReplayFile};
use crate::shard::ShardedIndex;
use crate::tree::UTree;
use crate::DiskStore;
use page_store::wal::{self, CommitReceipt, Wal};
use page_store::{
    byte_array, ByteReader, ByteWriter, DiskPageFile, ObjectHeap, PageId, PageStore, PAGE_SIZE,
};
use rstar_base::TreeConfig;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const CATALOG_FILE: &str = "catalog.pg";
const WAL_FILE: &str = "wal.log";
const MAGIC: [u8; 4] = *b"UCAT";
const VERSION: u16 = 1;
/// Catalog chain page: next-page pointer + chunk length + payload.
const CHAIN_HEADER: usize = 8 + 4;
const CHAIN_CHUNK: usize = PAGE_SIZE - CHAIN_HEADER;
const NO_NEXT: u64 = u64::MAX;
/// WAL store tags are `u8`, two per shard — the hard segment budget.
const MAX_TAGS: u32 = 256;

/// The persistent definition of one named index: everything needed to
/// reopen its shard trees except the page images themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    /// The catalog key (see the module docs for the naming rules).
    pub name: String,
    /// Immutable numeric id; segment files are named after it.
    pub id: u32,
    /// Physical shard trees this index is partitioned across.
    pub shard_count: usize,
    /// First WAL store tag of this index's segments (two per shard,
    /// contiguous). Tags are assigned at creation and never reused, so
    /// log records written before any later DDL keep replaying onto the
    /// right files.
    pub(crate) base_tag: u8,
    /// U-catalog values shared by every shard.
    pub catalog: Vec<f64>,
    /// R* tuning shared by every shard.
    pub cfg: TreeConfig,
}

/// Per-shard superstructure as carried by the catalog records (the
/// multi-index analogue of `meta.bin`).
#[derive(Debug, Clone, Copy)]
struct ShardMeta {
    root: PageId,
    height: usize,
    len: usize,
    heap_open_page: Option<PageId>,
}

struct CatalogEntry<const D: usize> {
    def: IndexDef,
    index: ShardedIndex<D, DiskStore>,
}

/// A directory of named, sharded, disk-backed indexes sharing one WAL —
/// see the module docs for the file layout and recovery contract.
pub struct IndexCatalog<const D: usize> {
    dir: PathBuf,
    file: DiskPageFile,
    wal: Arc<Mutex<Wal>>,
    entries: Vec<CatalogEntry<D>>,
    next_id: u32,
    next_tag: u32,
    buffer_pages: usize,
}

fn invalid_input(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.to_string())
}

fn validate_name(name: &str) -> io::Result<()> {
    let ok_len = (1..=64).contains(&name.len());
    let ok_chars = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if !(ok_len && ok_chars) {
        return Err(invalid_input(format!(
            "invalid index name {name:?}: 1-64 characters from [A-Za-z0-9_.-]"
        )));
    }
    Ok(())
}

impl<const D: usize> IndexCatalog<D> {
    /// Creates an empty catalog directory: `catalog.pg` (with an empty,
    /// superblock-anchored record chain) and a fresh `wal.log`.
    pub fn create<P: AsRef<Path>>(dir: P, buffer_pages: usize) -> io::Result<Self> {
        persist::validate_pool_params(buffer_pages)?;
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let file = DiskPageFile::create(dir.join(CATALOG_FILE))?;
        let wal = Wal::create(dir.join(WAL_FILE))?;
        let mut catalog = Self {
            dir,
            file,
            wal: Arc::new(Mutex::new(wal)),
            entries: Vec::new(),
            next_id: 0,
            next_tag: 0,
            buffer_pages,
        };
        catalog.persist_catalog()?;
        Ok(catalog)
    }

    /// Opens an existing catalog directory, recovering the shared log
    /// first: committed batches replay across every segment file, and the
    /// log's last committed catalog record supersedes `catalog.pg`'s
    /// superstructure for the indexes it names.
    pub fn open<P: AsRef<Path>>(dir: P, buffer_pages: usize) -> io::Result<Self> {
        persist::validate_pool_params(buffer_pages)?;
        let dir = dir.as_ref().to_path_buf();
        let file = DiskPageFile::open(dir.join(CATALOG_FILE))?;
        let blob = read_chain(&file, &dir)?;
        let (mut defs, mut metas, next_id) = decode_catalog::<D>(&blob, &dir)?;

        // Recover the shared log and replay committed batches onto every
        // segment in tag order. Records for tags the current catalog does
        // not know are ignored by `replay` — they cannot exist unless the
        // directory is corrupt, and the superstructure check below
        // catches that case.
        let recovery = Wal::recover(dir.join(WAL_FILE))?;
        let mut replay_files: Vec<ReplayFile> = Vec::new();
        for def in &defs {
            debug_assert_eq!(def.base_tag as usize, replay_files.len());
            for shard in 0..def.shard_count {
                for kind in ["idx", "heap"] {
                    let path = seg_path(&dir, kind, def.id, shard);
                    replay_files.push(ReplayFile::new(DiskPageFile::open(path)?));
                }
            }
        }
        let wal_meta = {
            let mut targets: Vec<&mut dyn wal::ReplayTarget> = replay_files
                .iter_mut()
                .map(|rf| rf as &mut dyn wal::ReplayTarget)
                .collect();
            wal::replay(&recovery.batches, &mut targets)?
        };
        // The log's catalog record is authoritative for the indexes it
        // names (it belongs to the replayed page state); indexes created
        // after the last commit keep their `catalog.pg` superstructure.
        if let Some(bytes) = wal_meta {
            let (wal_defs, wal_metas, wal_next_id) = decode_catalog::<D>(&bytes, &dir)?;
            let _ = wal_next_id;
            for (wdef, wmeta) in wal_defs.iter().zip(&wal_metas) {
                let Some(pos) = defs.iter().position(|d| d.id == wdef.id) else {
                    return Err(persist::invalid_data(format!(
                        "{}: log names index id {} missing from catalog.pg",
                        dir.display(),
                        wdef.id
                    )));
                };
                if defs[pos] != *wdef {
                    return Err(persist::invalid_data(format!(
                        "{}: log and catalog.pg disagree on index {:?}",
                        dir.display(),
                        wdef.name
                    )));
                }
                metas[pos] = wmeta.clone();
            }
        }

        let wal = Arc::new(Mutex::new(recovery.wal));
        let mut next_tag = 0u32;
        let mut entries = Vec::with_capacity(defs.len());
        let mut files = replay_files.into_iter();
        for (def, shard_metas) in defs.drain(..).zip(metas) {
            let ucat =
                Arc::new(UCatalog::try_new(def.catalog.clone()).map_err(persist::invalid_data)?);
            let mut shards = Vec::with_capacity(def.shard_count);
            for (shard, sm) in shard_metas.iter().enumerate() {
                let tag = def.base_tag as u32 + 2 * shard as u32;
                // xlint: allow(panic-freedom) -- invariant: one replay file per tag
                let index_rf = files.next().expect("one replay file per tag");
                // xlint: allow(panic-freedom) -- invariant: one replay file per tag
                let heap_rf = files.next().expect("one replay file per tag");
                let index = persist::wrap_store(index_rf, &wal, tag as u8, buffer_pages);
                let heap_store = persist::wrap_store(heap_rf, &wal, (tag + 1) as u8, buffer_pages);
                let meta = persist::SavedMeta {
                    kind: persist::KIND_UTREE,
                    dims: D as u8,
                    catalog: def.catalog.clone(),
                    cfg: def.cfg,
                    root: sm.root,
                    height: sm.height,
                    len: sm.len,
                    heap_open_page: sm.heap_open_page,
                };
                check_segment(&dir, &def, shard, &meta, &index, &heap_store)?;
                let heap = ObjectHeap::from_raw_parts(heap_store, sm.heap_open_page);
                shards.push(UTree::from_opened_parts(persist::OpenedParts {
                    meta,
                    catalog: Arc::clone(&ucat),
                    index,
                    heap,
                }));
            }
            next_tag = next_tag.max(def.base_tag as u32 + 2 * def.shard_count as u32);
            entries.push(CatalogEntry {
                index: ShardedIndex::from_trees(shards),
                def,
            });
        }
        Ok(Self {
            dir,
            file,
            wal,
            entries,
            next_id,
            next_tag,
            buffer_pages,
        })
    }

    /// Creates a new named index partitioned across `shard_count` fresh
    /// shard trees and durably registers it in `catalog.pg` — DDL is
    /// snapshot-ordered: the segment files exist and the catalog names
    /// them before any commit can journal pages against them.
    pub fn create_index(
        &mut self,
        name: &str,
        catalog: UCatalog,
        cfg: TreeConfig,
        shard_count: usize,
    ) -> io::Result<()> {
        validate_name(name)?;
        if self.entries.iter().any(|e| e.def.name == name) {
            return Err(invalid_input(format!("index {name:?} already exists")));
        }
        if shard_count == 0 {
            return Err(invalid_input("an index needs at least one shard"));
        }
        let tags_needed = 2 * shard_count as u32;
        if self.next_tag + tags_needed > MAX_TAGS {
            return Err(invalid_input(format!(
                "catalog is out of WAL store tags ({} used of {MAX_TAGS}, {tags_needed} more needed)",
                self.next_tag
            )));
        }

        let def = IndexDef {
            name: name.to_string(),
            id: self.next_id,
            shard_count,
            base_tag: self.next_tag as u8,
            catalog: catalog.values().to_vec(),
            cfg,
        };
        // Format each shard as an empty in-memory tree and snapshot it to
        // its segment files — crash-ordered ahead of the catalog rewrite,
        // so `catalog.pg` never names files that don't exist.
        let template: UTree<D> = UTree::with_config(catalog, cfg);
        let meta = template.saved_meta();
        let ucat = Arc::new(UCatalog::try_new(def.catalog.clone()).map_err(persist::invalid_data)?);
        let mut shards = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let idx_path = seg_path(&self.dir, "idx", def.id, shard);
            let heap_path = seg_path(&self.dir, "heap", def.id, shard);
            persist::dump_store(template.node_store(), &idx_path)?;
            persist::dump_store(template.heap().file(), &heap_path)?;
            let tag = def.base_tag as u32 + 2 * shard as u32;
            let index = persist::wrap_store(
                ReplayFile::new(DiskPageFile::open(&idx_path)?),
                &self.wal,
                tag as u8,
                self.buffer_pages,
            );
            let heap_store = persist::wrap_store(
                ReplayFile::new(DiskPageFile::open(&heap_path)?),
                &self.wal,
                (tag + 1) as u8,
                self.buffer_pages,
            );
            let heap = ObjectHeap::from_raw_parts(heap_store, meta.heap_open_page);
            shards.push(UTree::from_opened_parts(persist::OpenedParts {
                meta: persist::SavedMeta {
                    catalog: def.catalog.clone(),
                    ..template.saved_meta()
                },
                catalog: Arc::clone(&ucat),
                index,
                heap,
            }));
        }
        self.next_id += 1;
        self.next_tag += tags_needed;
        self.entries.push(CatalogEntry {
            index: ShardedIndex::from_trees(shards),
            def,
        });
        self.persist_catalog()
    }

    /// The named index, if it exists (query surface: `&self` end-to-end).
    pub fn get(&self, name: &str) -> Option<&ShardedIndex<D, DiskStore>> {
        self.entries
            .iter()
            .find(|e| e.def.name == name)
            .map(|e| &e.index)
    }

    /// Mutable access to the named index (inserts/deletes; remember to
    /// [`IndexCatalog::commit`]).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut ShardedIndex<D, DiskStore>> {
        self.entries
            .iter_mut()
            .find(|e| e.def.name == name)
            .map(|e| &mut e.index)
    }

    /// Index names in creation order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.def.name.as_str()).collect()
    }

    /// The persistent definitions, in creation order.
    pub fn defs(&self) -> impl Iterator<Item = &IndexDef> {
        self.entries.iter().map(|e| &e.def)
    }

    /// Number of named indexes.
    pub fn index_count(&self) -> usize {
        self.entries.len()
    }

    /// Commits every update to every index since the last commit as one
    /// atomic WAL batch: all indexes' dirty pages, allocation changes and
    /// the full catalog record, sealed by a single commit marker.
    pub fn commit(&mut self) -> io::Result<CommitReceipt> {
        self.commit_inner(false)
    }

    /// [`IndexCatalog::commit`] with a forced fsync.
    pub fn flush(&mut self) -> io::Result<()> {
        self.commit_inner(true).map(|_| ())
    }

    fn commit_inner(&mut self, force_sync: bool) -> io::Result<CommitReceipt> {
        let blob = encode_catalog(self.next_id, self.entries.iter());
        let (receipt, durable) = {
            let wal = Arc::clone(&self.wal);
            let mut w = wal.lock().map_err(|_| io::Error::other("wal poisoned"))?;
            for entry in &mut self.entries {
                for tree in entry.index.shards_mut() {
                    tree.stage_commit(&mut w)?;
                }
            }
            w.append_meta(&blob);
            let receipt = w.commit()?;
            if force_sync && !receipt.durable {
                w.sync()?;
            }
            (receipt, w.durable_lsn())
        };
        for entry in &mut self.entries {
            for tree in entry.index.shards_mut() {
                tree.finish_commit(receipt.lsn, durable)?;
            }
        }
        Ok(CommitReceipt {
            lsn: receipt.lsn,
            durable: durable >= receipt.lsn,
        })
    }

    /// Sets the group-commit window of the shared log (see
    /// [`crate::DiskUTree`]'s `set_group_commit`).
    pub fn set_group_commit(&mut self, every: u64) {
        self.wal
            .lock()
            // xlint: allow(panic-freedom) -- invariant: wal poisoned — a poisoned lock means a panicked writer, and re-raising is the only sound response
            .expect("wal poisoned")
            .set_group_commit(every);
    }

    /// Durably commits, rewrites every segment snapshot and the page-file
    /// catalog, and truncates the shared log — bounding recovery time for
    /// the whole directory at once.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.flush()?;
        for entry in &mut self.entries {
            for tree in entry.index.shards_mut() {
                if tree.has_deferred_commits() {
                    return Err(io::Error::other(
                        "checkpoint: deferred group commits survived the forced sync",
                    ));
                }
            }
        }
        for entry in &self.entries {
            for (shard, tree) in entry.index.shards().iter().enumerate() {
                persist::dump_store(
                    tree.node_store(),
                    &seg_path(&self.dir, "idx", entry.def.id, shard),
                )?;
                persist::dump_store(
                    tree.heap().file(),
                    &seg_path(&self.dir, "heap", entry.def.id, shard),
                )?;
            }
        }
        self.persist_catalog()?;
        self.wal
            .lock()
            .map_err(|_| io::Error::other("wal poisoned"))?
            .truncate()
    }

    /// Rewrites the catalog record chain in `catalog.pg` and re-anchors
    /// the superblock, crash-ordered: the new chain is written into pages
    /// that are free *under the currently-anchored superblock*, so a crash
    /// before the final flush leaves the old chain fully intact.
    fn persist_catalog(&mut self) -> io::Result<()> {
        let blob = encode_catalog(self.next_id, self.entries.iter());
        let old_chain = chain_pages(&self.file, &self.dir)?;
        let mut next = NO_NEXT;
        let chunks: Vec<&[u8]> = blob.chunks(CHAIN_CHUNK).collect();
        for chunk in chunks.iter().rev() {
            let id = self.file.allocate()?;
            let mut page = Vec::with_capacity(CHAIN_HEADER + chunk.len());
            page.extend_from_slice(&next.to_le_bytes());
            page.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            page.extend_from_slice(chunk);
            self.file.write(id, &page)?;
            next = id;
        }
        debug_assert_ne!(next, NO_NEXT, "catalog blob is never empty");
        self.file.set_app_root(Some(next));
        for page in old_chain {
            self.file.release(page);
        }
        self.file.flush()
    }
}

/// `idx-<id>-<shard>.pg` / `heap-<id>-<shard>.pg` under the catalog dir.
fn seg_path(dir: &Path, kind: &str, id: u32, shard: usize) -> PathBuf {
    dir.join(format!("{kind}-{id}-{shard}.pg"))
}

/// The pages of the anchored record chain, in chain order.
fn chain_pages(file: &DiskPageFile, dir: &Path) -> io::Result<Vec<PageId>> {
    let mut pages = Vec::new();
    let mut cur = file.app_root();
    while let Some(id) = cur {
        if pages.len() > file.capacity_pages() {
            return Err(persist::invalid_data(format!(
                "{}: catalog record chain has a cycle",
                dir.display()
            )));
        }
        pages.push(id);
        let page = file.peek_page(id)?;
        cur = match u64::from_le_bytes(byte_array(&page[..8])) {
            NO_NEXT => None,
            next => Some(next),
        };
    }
    Ok(pages)
}

/// Reassembles the record blob from the anchored chain.
fn read_chain(file: &DiskPageFile, dir: &Path) -> io::Result<Vec<u8>> {
    let mut blob = Vec::new();
    for id in chain_pages(file, dir)? {
        let page = file.peek_page(id)?;
        let len = u32::from_le_bytes(byte_array(&page[8..12])) as usize;
        if len > CHAIN_CHUNK {
            return Err(persist::invalid_data(format!(
                "{}: catalog chain page {id} overflows",
                dir.display()
            )));
        }
        blob.extend_from_slice(&page[CHAIN_HEADER..CHAIN_HEADER + len]);
    }
    Ok(blob)
}

fn encode_catalog<'a, const D: usize>(
    next_id: u32,
    entries: impl Iterator<Item = &'a CatalogEntry<D>>,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for b in MAGIC {
        w.put_u8(b);
    }
    w.put_u16(VERSION);
    w.put_u8(D as u8);
    w.put_u32(next_id);
    let entries: Vec<_> = entries.collect();
    w.put_u16(entries.len() as u16);
    for entry in entries {
        let def = &entry.def;
        w.put_u16(def.name.len() as u16);
        for b in def.name.bytes() {
            w.put_u8(b);
        }
        w.put_u32(def.id);
        w.put_u8(persist::KIND_UTREE);
        w.put_u8(def.base_tag);
        w.put_u16(def.shard_count as u16);
        w.put_f64(def.cfg.min_fill);
        w.put_f64(def.cfg.reinsert_frac);
        w.put_f64(def.cfg.covers_tolerance);
        w.put_u16(def.catalog.len() as u16);
        for &p in &def.catalog {
            w.put_f64(p);
        }
        for tree in entry.index.shards() {
            let m = tree.saved_meta();
            w.put_u64(m.root);
            w.put_u64(m.height as u64);
            w.put_u64(m.len as u64);
            w.put_u64(m.heap_open_page.unwrap_or(u64::MAX));
        }
    }
    w.into_bytes()
}

type DecodedCatalog = (Vec<IndexDef>, Vec<Vec<ShardMeta>>, u32);

fn decode_catalog<const D: usize>(bytes: &[u8], dir: &Path) -> io::Result<DecodedCatalog> {
    let bad = |msg: &str| persist::invalid_data(format!("{}: {msg}", dir.display()));
    if bytes.len() < 4 + 2 + 1 + 4 + 2 || bytes[..4] != MAGIC {
        return Err(bad("not a catalog record"));
    }
    let mut r = ByteReader::new(&bytes[4..]);
    let version = r.get_u16();
    if version != VERSION {
        return Err(bad(&format!("unsupported catalog version {version}")));
    }
    let dims = r.get_u8() as usize;
    if dims != D {
        return Err(bad(&format!("catalog is {dims}-dimensional, expected {D}")));
    }
    let next_id = r.get_u32();
    let n = r.get_u16() as usize;
    let mut defs = Vec::with_capacity(n);
    let mut metas = Vec::with_capacity(n);
    for _ in 0..n {
        if r.remaining() < 2 {
            return Err(bad("truncated catalog record"));
        }
        let name_len = r.get_u16() as usize;
        if r.remaining() < name_len {
            return Err(bad("truncated catalog record"));
        }
        let name_bytes: Vec<u8> = (0..name_len).map(|_| r.get_u8()).collect();
        let name = String::from_utf8(name_bytes).map_err(|_| bad("index name is not UTF-8"))?;
        if r.remaining() < 4 + 1 + 1 + 2 + 3 * 8 + 2 {
            return Err(bad("truncated catalog record"));
        }
        let id = r.get_u32();
        let kind = r.get_u8();
        if kind != persist::KIND_UTREE {
            return Err(bad(&format!("unsupported index kind {kind}")));
        }
        let base_tag = r.get_u8();
        let shard_count = r.get_u16() as usize;
        let cfg = TreeConfig {
            min_fill: r.get_f64(),
            reinsert_frac: r.get_f64(),
            covers_tolerance: r.get_f64(),
        };
        let m = r.get_u16() as usize;
        if r.remaining() < m * 8 + shard_count * 4 * 8 {
            return Err(bad("truncated catalog record"));
        }
        let catalog = (0..m).map(|_| r.get_f64()).collect();
        let shard_metas = (0..shard_count)
            .map(|_| ShardMeta {
                root: r.get_u64(),
                height: r.get_u64() as usize,
                len: r.get_u64() as usize,
                heap_open_page: match r.get_u64() {
                    u64::MAX => None,
                    p => Some(p),
                },
            })
            .collect();
        defs.push(IndexDef {
            name,
            id,
            shard_count,
            base_tag,
            catalog,
            cfg,
        });
        metas.push(shard_metas);
    }
    if r.remaining() != 0 {
        return Err(bad("trailing bytes after catalog record"));
    }
    Ok((defs, metas, next_id))
}

/// Root/open-page bounds checks for one reopened segment, mirroring the
/// single-index `open_parts` validation.
fn check_segment(
    dir: &Path,
    def: &IndexDef,
    shard: usize,
    meta: &persist::SavedMeta,
    index: &DiskStore,
    heap: &DiskStore,
) -> io::Result<()> {
    let label = || format!("{} (index {:?} shard {shard})", dir.display(), def.name);
    if meta.height == 0 {
        return Err(persist::invalid_data(format!("{}: zero height", label())));
    }
    if meta.root as usize >= index.capacity_pages() {
        return Err(persist::invalid_data(format!(
            "{}: root page {} outside the index file",
            label(),
            meta.root
        )));
    }
    if let Some(p) = meta.heap_open_page {
        if p as usize >= heap.capacity_pages() {
            return Err(persist::invalid_data(format!(
                "{}: open heap page {p} outside the heap file",
                label()
            )));
        }
    }
    Ok(())
}
