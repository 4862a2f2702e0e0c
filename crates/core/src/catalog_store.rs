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
//! None of the durability decisions live here — commit is
//! [`page_store::wal::commit_group`] over every shard's stores, recovery
//! and checkpoint are `persist::recover` / `persist::checkpoint`, the same
//! functions a single saved tree goes through. What this module adds is
//! the layout: on [`IndexCatalog::open`] the page-file catalog supplies
//! the segment *list* (index DDL rewrites it durably before any commit can
//! reference the new segments) — a segment's WAL store tag **is** its
//! position in that list — and the log's last committed catalog record,
//! when present, supplies the authoritative per-index superstructure.
//! [`IndexCatalog::checkpoint`] rewrites all segment snapshots plus the
//! page-file catalog.
//!
//! Naming rules: index names are 1–64 characters from `[A-Za-z0-9_.-]`,
//! unique within the catalog. Names are catalog keys, not file names —
//! segment files are keyed by the immutable numeric index id.

use crate::catalog::UCatalog;
use crate::persist::{self, TreeShape};
use crate::shard::ShardedIndex;
use crate::tree::UTree;
use crate::DiskStore;
use page_store::{
    byte_array, commit_group, ByteReader, ByteWriter, DiskPageFile, PageId, PageStore, Wal,
    PAGE_SIZE,
};
use rstar_base::TreeConfig;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

const CATALOG_FILE: &str = "catalog.pg";
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
    /// contiguous): the number of segments of the indexes created before
    /// it. Indexes are never dropped, so log records written before any
    /// later DDL keep replaying onto the right files.
    pub(crate) base_tag: u8,
    /// U-catalog values shared by every shard.
    pub catalog: Vec<f64>,
    /// R* tuning shared by every shard.
    pub cfg: TreeConfig,
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
        let wal = Wal::create(dir.join(persist::WAL_FILE))?;
        let mut catalog = Self {
            dir,
            file,
            wal: Arc::new(Mutex::new(wal)),
            entries: Vec::new(),
            next_id: 0,
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
        let dir = dir.as_ref().to_path_buf();
        let file = DiskPageFile::open(dir.join(CATALOG_FILE))?;
        let blob = read_chain(&file, &dir)?;
        let (defs, mut shapes, next_id) = decode_catalog::<D>(&blob, &dir)?;

        let segments: Vec<PathBuf> = defs
            .iter()
            .flat_map(|def| seg_paths(&dir, def))
            .flatten()
            .collect();
        let (recovered, ()) = persist::recover(&dir, &segments, buffer_pages, || Ok(()))?;
        // The log's catalog record is authoritative for the indexes it
        // names (it belongs to the replayed page state); indexes created
        // after the last commit keep their `catalog.pg` superstructure.
        if let Some(bytes) = recovered.meta {
            let (wal_defs, wal_shapes, _) = decode_catalog::<D>(&bytes, &dir)?;
            for (wdef, wshapes) in wal_defs.iter().zip(wal_shapes) {
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
                shapes[pos] = wshapes;
            }
        }

        let mut stores = recovered.stores.into_iter();
        let mut entries = Vec::with_capacity(defs.len());
        for (def, shard_shapes) in defs.into_iter().zip(shapes) {
            let index = assemble_index(&dir, &def, &shard_shapes, &mut stores)?;
            entries.push(CatalogEntry { def, index });
        }
        Ok(Self {
            dir,
            file,
            wal: recovered.wal,
            entries,
            next_id,
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
        // Two store tags per shard, handed out in creation order.
        let next_tag: u32 = self.defs().map(|d| 2 * d.shard_count as u32).sum();
        let tags_needed = 2 * shard_count as u32;
        if next_tag + tags_needed > MAX_TAGS {
            return Err(invalid_input(format!(
                "catalog is out of WAL store tags ({next_tag} used of {MAX_TAGS}, {tags_needed} more needed)"
            )));
        }

        let def = IndexDef {
            name: name.to_string(),
            id: self.next_id,
            shard_count,
            base_tag: next_tag as u8,
            catalog: catalog.values().to_vec(),
            cfg,
        };
        // Format each shard as an empty in-memory tree and snapshot it to
        // its segment files — crash-ordered ahead of the catalog rewrite,
        // so `catalog.pg` never names files that don't exist.
        let template: UTree<D> = UTree::with_config(catalog, cfg);
        let pairs: Vec<_> = seg_paths(&self.dir, &def).collect();
        for pair in &pairs {
            dump_shard(&template, pair)?;
        }
        let segments: Vec<PathBuf> = pairs.into_iter().flatten().collect();
        let stores = persist::wrap_segments(
            persist::open_segments(&segments)?,
            &self.wal,
            next_tag as usize,
            self.buffer_pages,
        )?;
        let shapes = vec![template.saved_meta().shape; shard_count];
        let index = assemble_index(&self.dir, &def, &shapes, &mut stores.into_iter())?;
        self.next_id += 1;
        self.entries.push(CatalogEntry { def, index });
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

    /// Commits every update to every index since the last commit as one
    /// atomic WAL batch: all indexes' dirty pages, allocation changes and
    /// the full catalog record, sealed by a single commit marker and
    /// fsynced before this returns.
    pub fn commit(&mut self) -> io::Result<()> {
        let blob = encode_catalog(self.next_id, self.entries.iter());
        let mut stores = Vec::new();
        for entry in &mut self.entries {
            for tree in entry.index.shards_mut() {
                stores.extend(tree.journals()?);
            }
        }
        commit_group(&self.wal, &mut stores, Some(&blob))
    }

    /// Same as [`IndexCatalog::commit`].
    pub fn flush(&mut self) -> io::Result<()> {
        self.commit()
    }

    /// Number of fsyncs of the shared log since open (every commit syncs
    /// once).
    pub fn wal_sync_count(&self) -> u64 {
        self.wal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sync_count()
    }

    /// Durably commits, rewrites every segment snapshot and the page-file
    /// catalog, and truncates the shared log — bounding recovery time for
    /// the whole directory at once (`persist::checkpoint`).
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let wal = Arc::clone(&self.wal);
        persist::checkpoint(self, &wal, Self::commit, |cat| {
            for entry in &cat.entries {
                let pairs = seg_paths(&cat.dir, &entry.def);
                for (tree, pair) in entry.index.shards().iter().zip(pairs) {
                    dump_shard(tree, &pair)?;
                }
            }
            cat.persist_catalog()
        })
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

/// The segment files of one index, per shard `[idx-<id>-<shard>.pg,
/// heap-<id>-<shard>.pg]`; flattened, they are in WAL-store-tag order.
fn seg_paths<'a>(dir: &'a Path, def: &'a IndexDef) -> impl Iterator<Item = [PathBuf; 2]> + 'a {
    (0..def.shard_count)
        .map(|shard| ["idx", "heap"].map(|kind| dir.join(format!("{kind}-{}-{shard}.pg", def.id))))
}

/// Snapshots one shard tree into its segment pair.
fn dump_shard<const D: usize, S: PageStore>(
    tree: &UTree<D, S>,
    [idx, heap]: &[PathBuf; 2],
) -> io::Result<()> {
    persist::dump_store(tree.node_store(), idx)?;
    persist::dump_store(tree.heap().file(), heap)
}

/// Assembles one index's shard trees from `stores` — its segments' stores
/// in tag order — checking every shard's shape against its files.
fn assemble_index<const D: usize>(
    dir: &Path,
    def: &IndexDef,
    shapes: &[TreeShape],
    stores: &mut impl Iterator<Item = DiskStore>,
) -> io::Result<ShardedIndex<D, DiskStore>> {
    let ucat = Arc::new(UCatalog::try_new(def.catalog.clone()).map_err(persist::invalid_data)?);
    let mut shards = Vec::with_capacity(shapes.len());
    for (shard, shape) in shapes.iter().enumerate() {
        let origin = format!("{} (index {:?} shard {shard})", dir.display(), def.name);
        let (Some(index), Some(heap)) = (stores.next(), stores.next()) else {
            return Err(persist::invalid_data(format!("{origin}: segment missing")));
        };
        let catalog = Arc::clone(&ucat);
        shards.push(UTree::from_recovered(
            def.cfg, *shape, catalog, index, heap, &origin,
        )?);
    }
    Ok(ShardedIndex::from_trees(shards))
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
            tree.saved_meta().shape.put(&mut w);
        }
    }
    w.into_bytes()
}

/// Definitions, per-index shard shapes (same order), next index id.
type DecodedCatalog = (Vec<IndexDef>, Vec<Vec<TreeShape>>, u32);

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
    let mut shapes = Vec::with_capacity(n);
    let mut tags = 0u32;
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
        // Recovery replays the log positionally — a segment's store tag is
        // its position in the segment list — and later commits journal
        // under the same numbering, so a record whose tags are not exactly
        // the running segment count would cross-write indexes.
        if shard_count == 0 || base_tag as u32 != tags {
            return Err(bad(&format!(
                "index {name:?} has {shard_count} shards at WAL tag {base_tag}, expected tag {tags}"
            )));
        }
        tags += 2 * shard_count as u32;
        if tags > MAX_TAGS {
            return Err(bad("catalog record exceeds the 256 WAL store tags"));
        }
        let cfg = TreeConfig {
            min_fill: r.get_f64(),
            reinsert_frac: r.get_f64(),
            covers_tolerance: r.get_f64(),
        };
        let m = r.get_u16() as usize;
        if r.remaining() < m * 8 + shard_count * TreeShape::ENCODED_LEN {
            return Err(bad("truncated catalog record"));
        }
        let catalog = (0..m).map(|_| r.get_f64()).collect();
        let shard_shapes = (0..shard_count).map(|_| TreeShape::get(&mut r)).collect();
        defs.push(IndexDef {
            name,
            id,
            shard_count,
            base_tag,
            catalog,
            cfg,
        });
        shapes.push(shard_shapes);
    }
    if r.remaining() != 0 {
        return Err(bad("trailing bytes after catalog record"));
    }
    Ok((defs, shapes, next_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ProbIndex;
    use uncertain_geom::Point;
    use uncertain_pdf::{ObjectPdf, UncertainObject};

    /// A well-formed catalog record naming `(name, first tag, shards)`
    /// indexes with empty trees.
    fn record(indexes: &[(&str, u8, u16)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for b in MAGIC {
            w.put_u8(b);
        }
        w.put_u16(VERSION);
        w.put_u8(2);
        w.put_u32(indexes.len() as u32);
        w.put_u16(indexes.len() as u16);
        for (id, &(name, base_tag, shards)) in indexes.iter().enumerate() {
            w.put_u16(name.len() as u16);
            for b in name.bytes() {
                w.put_u8(b);
            }
            w.put_u32(id as u32);
            w.put_u8(persist::KIND_UTREE);
            w.put_u8(base_tag);
            w.put_u16(shards);
            for tuning in [0.4, 0.3, 0.05] {
                w.put_f64(tuning);
            }
            w.put_u16(0);
            let empty = TreeShape {
                root: 0,
                height: 1,
                len: 0,
                heap_open_page: None,
            };
            for _ in 0..shards {
                empty.put(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Store tags are positions in the segment list: a record decodes only
    /// when every index's tags start where the previous index's end, and
    /// the total fits the `u8` tag space.
    #[test]
    fn catalog_records_must_tile_the_tag_space() {
        let decode = |indexes| decode_catalog::<2>(&record(indexes), Path::new("test"));
        let (defs, shapes, next_id) = decode(&[("aa", 0, 2), ("bb", 4, 1)]).unwrap();
        assert_eq!((defs.len(), shapes[0].len(), next_id), (2, 2, 2));
        assert_eq!(defs[1].base_tag, 4);
        // Exactly 256 tags is the budget...
        decode(&[("aa", 0, 127), ("bb", 254, 1)]).unwrap();
        // ...one shard more overflows `u8`, and gaps, overlaps and empty
        // indexes would all replay onto the wrong files.
        for bad in [
            &[("aa", 0, 127), ("bb", 254, 2)][..],
            &[("aa", 0, 2), ("bb", 0, 1)],
            &[("aa", 0, 2), ("bb", 6, 1)],
            &[("aa", 2, 2)],
            &[("aa", 0, 0), ("bb", 0, 1)],
        ] {
            let err = decode(bad).map(|_| ()).expect_err("must not decode");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}: {err}");
        }
    }

    /// The catalog record `catalog.pg` and every catalog commit carry,
    /// pinned for two indexes over three shards.
    #[test]
    fn catalog_bytes_are_pinned() {
        let dir = std::env::temp_dir().join(format!("utree-catalog-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cat = IndexCatalog::<2>::create(&dir, 8).unwrap();
        cat.create_index("aa", UCatalog::uniform(3), TreeConfig::default(), 2)
            .unwrap();
        cat.create_index("bb", UCatalog::uniform(4), TreeConfig::default(), 1)
            .unwrap();
        for id in 0..200u64 {
            let name = if id % 4 == 0 { "bb" } else { "aa" };
            cat.get_mut(name).unwrap().insert(&UncertainObject::new(
                id,
                ObjectPdf::UniformBall {
                    center: Point::new([45.0 * id as f64 + 100.0, 9500.0 - 40.0 * id as f64]),
                    radius: 40.0,
                },
            ));
        }
        let blob = encode_catalog(cat.next_id, cat.entries.iter());
        let tuning = "9a9999999999d93f333333333333d33f9a9999999999a93f";
        let pinned = [
            // magic, version, dims, next id, index count
            "55434154",
            "0100",
            "02",
            "02000000",
            "0200",
            // "aa": id 0, kind 0, base tag 0, 2 shards, tuning, U-catalog
            "0200",
            "6161",
            "00000000",
            "00",
            "00",
            "0200",
            tuning,
            "0300",
            "0000000000000000",
            "000000000000d03f",
            "000000000000e03f",
            // per shard: root, height, len, open heap page
            "0200000000000000",
            "0200000000000000",
            "4900000000000000",
            "0000000000000000",
            "0200000000000000",
            "0200000000000000",
            "4d00000000000000",
            "0000000000000000",
            // "bb": id 1, kind 0, base tag 4, 1 shard, tuning, U-catalog
            "0200",
            "6262",
            "01000000",
            "00",
            "04",
            "0100",
            tuning,
            "0400",
            "0000000000000000",
            "555555555555c53f",
            "555555555555d53f",
            "000000000000e03f",
            "0200000000000000",
            "0200000000000000",
            "3200000000000000",
            "0000000000000000",
        ]
        .concat();
        assert_eq!(persist::hex(&blob), pinned);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
