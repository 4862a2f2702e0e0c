//! The generic disk-based R*-tree.
//!
//! Implements insertion with forced reinsertion, deletion with tree
//! condensation, and pruned traversal — all in terms of [`KeyMetrics`], so
//! the same code drives the baseline R*-tree, the U-tree (summed metrics)
//! and U-PCR.

use crate::codec::{InnerEntry, NodeCodec};
use crate::metrics::{KeyMetrics, LeafRecord};
use crate::split::rstar_split;
use page_store::{IoStats, PageFile, PageId, PageStore, PAGE_SIZE};
use std::io;
use std::sync::Arc;

/// ChooseSubtree examines at most this many candidates with the overlap
/// criterion (the R*-tree paper's constant).
const CHOOSE_SUBTREE_CANDIDATES: usize = 32;

/// The fewest entries a node page may hold, leaf and inner alike (the
/// split and the packer's minimum fill assume it).
/// [`RStarTreeBase::with_store`] asserts it of the codec's capacities.
pub const MIN_FANOUT: usize = 4;

/// Tuning knobs (R* defaults from Beckmann et al.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Minimum node fill as a fraction of capacity (R*: 40%).
    pub min_fill: f64,
    /// Fraction of entries removed by forced reinsertion (R*: 30%).
    pub reinsert_frac: f64,
    /// Containment slack for the deletion descent (absorbs the f32 on-page
    /// rounding of keys; see `KeyMetrics::covers`).
    pub covers_tolerance: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            min_fill: 0.4,
            reinsert_frac: 0.3,
            covers_tolerance: 0.05,
        }
    }
}

/// Per-level structure statistics (diagnostics; computed without touching
/// the I/O counters).
#[derive(Debug, Clone, Default)]
pub struct TreeStats {
    /// Number of nodes per level (index 0 = leaves).
    pub nodes_per_level: Vec<usize>,
    /// Total entries per level.
    pub entries_per_level: Vec<usize>,
}

impl TreeStats {
    /// Total node count.
    pub fn total_nodes(&self) -> usize {
        self.nodes_per_level.iter().sum()
    }
}

/// An entry waiting to be (re)inserted. A leaf record belongs at level 0;
/// an inner entry carries the level of the node it belongs in.
enum Entry<K, L> {
    Leaf(L),
    Inner(usize, InnerEntry<K>),
}

impl<K: Clone, L: LeafRecord<K>> Entry<K, L> {
    fn level(&self) -> usize {
        match self {
            Entry::Leaf(_) => 0,
            Entry::Inner(level, _) => *level,
        }
    }

    fn key(&self) -> K {
        match self {
            Entry::Leaf(r) => r.key(),
            Entry::Inner(_, e) => e.key.clone(),
        }
    }
}

/// The two kinds of node a page holds. The tree does the same things to
/// both — load, store, bound, reinsert, split, pack — so each is written
/// once over this, and the level a caller expects picks the kind: level 0
/// is [`LeafNode`], every level above it [`InnerNode`].
trait Kind<K, L, C> {
    /// What a node of this kind holds.
    type Entry;
    fn key(e: &Self::Entry) -> K;
    fn capacity(codec: &C) -> usize;
    fn encode(codec: &C, es: &[Self::Entry], out: &mut Vec<u8>);
    fn decode(codec: &C, bytes: &[u8]) -> io::Result<Vec<Self::Entry>>;
    /// `e` as pending (re)insertion into a node at `level`.
    fn pending(e: Self::Entry, level: usize) -> Entry<K, L>;
}

/// Level-0 nodes: leaf records.
enum LeafNode {}

/// Nodes above level 0: bounding keys and child pages.
enum InnerNode {}

impl<K, L: LeafRecord<K>, C: NodeCodec<K, L>> Kind<K, L, C> for LeafNode {
    type Entry = L;
    fn key(e: &L) -> K {
        e.key()
    }
    fn capacity(codec: &C) -> usize {
        codec.leaf_capacity()
    }
    fn encode(codec: &C, es: &[L], out: &mut Vec<u8>) {
        codec.encode_leaf(es, out);
    }
    fn decode(codec: &C, bytes: &[u8]) -> io::Result<Vec<L>> {
        codec.decode_leaf(bytes)
    }
    fn pending(e: L, _level: usize) -> Entry<K, L> {
        Entry::Leaf(e)
    }
}

impl<K: Clone, L, C: NodeCodec<K, L>> Kind<K, L, C> for InnerNode {
    type Entry = InnerEntry<K>;
    fn key(e: &InnerEntry<K>) -> K {
        e.key.clone()
    }
    fn capacity(codec: &C) -> usize {
        codec.inner_capacity()
    }
    fn encode(codec: &C, es: &[InnerEntry<K>], out: &mut Vec<u8>) {
        codec.encode_inner(es, out);
    }
    fn decode(codec: &C, bytes: &[u8]) -> io::Result<Vec<InnerEntry<K>>> {
        codec.decode_inner(bytes)
    }
    fn pending(e: InnerEntry<K>, level: usize) -> Entry<K, L> {
        Entry::Inner(level, e)
    }
}

struct InsertResult<K> {
    key: K,
    split: Option<InnerEntry<K>>,
}

enum DeleteOutcome<K> {
    NotFound,
    /// The child stays, bounded by this key.
    Kept(K),
    Dropped,
}

/// A disk-based R*-tree over records `L` bounded by keys `M::Key`,
/// generic over the [`PageStore`] its nodes live on (in-memory page file,
/// disk file, or a buffer pool over either).
pub struct RStarTreeBase<const D: usize, M, L, C, S = PageFile>
where
    M: KeyMetrics<D>,
    L: LeafRecord<M::Key>,
    C: NodeCodec<M::Key, L>,
    S: PageStore,
{
    file: S,
    root: PageId,
    /// Number of levels (1 = the root is a leaf).
    height: usize,
    len: usize,
    metrics: M,
    codec: C,
    cfg: TreeConfig,
    _leaf: std::marker::PhantomData<L>,
}

impl<const D: usize, M, L, C, S> RStarTreeBase<D, M, L, C, S>
where
    M: KeyMetrics<D>,
    L: LeafRecord<M::Key>,
    C: NodeCodec<M::Key, L>,
    S: PageStore,
{
    /// Creates an empty tree (one empty leaf page) on a default store.
    /// Default stores are in-memory and cannot fail.
    pub fn new(metrics: M, codec: C, cfg: TreeConfig) -> Self
    where
        S: Default,
    {
        Self::with_store(S::default(), metrics, codec, cfg)
            // xlint: allow(panic-freedom) -- invariant: in-memory page store cannot fail
            .expect("in-memory page store cannot fail")
    }

    /// Creates an empty tree on the given store.
    ///
    /// # Panics
    ///
    /// If the codec fits fewer than [`MIN_FANOUT`] leaf or inner entries
    /// to a page.
    pub fn with_store(mut file: S, metrics: M, codec: C, cfg: TreeConfig) -> io::Result<Self> {
        assert!(codec.leaf_capacity() >= MIN_FANOUT, "leaf fanout too small");
        assert!(
            codec.inner_capacity() >= MIN_FANOUT,
            "inner fanout too small"
        );
        let root = file.allocate()?;
        let mut tree = Self {
            file,
            root,
            height: 1,
            len: 0,
            metrics,
            codec,
            cfg,
            _leaf: std::marker::PhantomData,
        };
        tree.write_node::<LeafNode>(root, 0, &[])?;
        Ok(tree)
    }

    /// Fills this (empty) tree from pre-ordered records by bottom-up
    /// packing (Sort-Tile-Recursive bulk loading; see
    /// [`crate::str_order_by`] for the ordering step). `records` are packed
    /// into leaves at full fan-out in the order given, then each internal
    /// level is packed the same way over the level below, so sibling
    /// records land in sibling pages and every bounding key is computed
    /// exactly once.
    ///
    /// Two structural guarantees the insert path cannot give:
    ///
    /// * **Zero-waste packing** — every node except at most the last two
    ///   per level is at full fan-out (the trailing pair is rebalanced so
    ///   both meet the R* minimum fill).
    /// * **Level-contiguous layout** — the seed root page is released
    ///   first, so on a fresh store pages are allocated from page 0
    ///   leaves-first in record order, then each internal level, root
    ///   last; traversals of nearby records touch nearby pages.
    pub fn bulk_rebuild_ordered(&mut self, records: Vec<L>) -> io::Result<()> {
        assert!(
            self.is_empty(),
            "bulk_rebuild_ordered requires an empty tree"
        );
        if records.is_empty() {
            return Ok(());
        }
        self.file.release(self.root);
        self.len = records.len();
        let mut level = 0;
        let mut entries = self.pack::<LeafNode>(level, records)?;
        // Internal levels, bottom-up, until one node bounds everything.
        while entries.len() > 1 {
            level += 1;
            entries = self.pack::<InnerNode>(level, entries)?;
        }
        self.root = entries[0].child;
        self.height = level + 1;
        Ok(())
    }

    /// Packs `entries`, in order, into new nodes at `level`, returning an
    /// entry for each node for the level above.
    fn pack<N: Kind<M::Key, L, C>>(
        &mut self,
        level: usize,
        entries: Vec<N::Entry>,
    ) -> io::Result<Vec<InnerEntry<M::Key>>> {
        let sizes = pack_sizes(
            entries.len(),
            N::capacity(&self.codec),
            self.min_fill::<N>(),
        );
        let mut packed = Vec::with_capacity(sizes.len());
        let mut it = entries.into_iter();
        for sz in sizes {
            let node: Vec<N::Entry> = it.by_ref().take(sz).collect();
            let page = self.file.allocate()?;
            self.write_node::<N>(page, level, &node)?;
            packed.push(InnerEntry {
                key: self.node_key::<N>(&node),
                child: page,
            });
        }
        Ok(packed)
    }

    /// Reattaches a tree whose pages already live in `file` (persistence):
    /// `root`/`height`/`len` are the superstructure saved alongside the
    /// page data. No validation is performed here; callers verify the
    /// store's provenance (magic numbers, catalogs) first, and every page
    /// is level-checked as it is loaded.
    pub fn from_raw_parts(
        file: S,
        root: PageId,
        height: usize,
        len: usize,
        metrics: M,
        codec: C,
        cfg: TreeConfig,
    ) -> Self {
        Self {
            file,
            root,
            height,
            len,
            metrics,
            codec,
            cfg,
            _leaf: std::marker::PhantomData,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The node codec.
    pub fn codec(&self) -> &C {
        &self.codec
    }

    /// The R* tuning knobs this tree runs with.
    pub fn config(&self) -> TreeConfig {
        self.cfg
    }

    /// Shared I/O counters of the node store (logical accesses when the
    /// store is a buffer pool).
    pub fn io_stats(&self) -> &Arc<IoStats> {
        self.file.stats()
    }

    /// The node store.
    pub fn store(&self) -> &S {
        &self.file
    }

    /// Mutable access to the node store (flushing, pool tuning).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.file
    }

    /// Page id of the root node (persistence metadata).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Size of the node file in bytes (Table 1's metric).
    pub fn size_bytes(&self) -> u64 {
        self.file.size_bytes()
    }

    /// Live node count.
    pub fn node_count(&self) -> usize {
        self.file.live_pages()
    }

    // ---- node I/O -------------------------------------------------------

    /// Reads node `page` (a counted access) as the node at `level`.
    fn load<N: Kind<M::Key, L, C>>(&self, page: PageId, level: usize) -> io::Result<Vec<N::Entry>> {
        let mut bytes = [0u8; PAGE_SIZE];
        self.file.read_into(page, &mut bytes)?;
        self.decode::<N>(page, level, &bytes)
    }

    /// [`Self::load`] without touching the I/O counters (diagnostics).
    fn peek<N: Kind<M::Key, L, C>>(&self, page: PageId, level: usize) -> io::Result<Vec<N::Entry>> {
        let mut bytes = [0u8; PAGE_SIZE];
        self.file.peek_into(page, &mut bytes)?;
        self.decode::<N>(page, level, &bytes)
    }

    /// The one check of a page's level byte: a page that is not the node
    /// at the level its parent (or the root) puts it is `InvalidData`
    /// naming the page, as is a body its codec refuses.
    fn decode<N: Kind<M::Key, L, C>>(
        &self,
        page: PageId,
        level: usize,
        bytes: &[u8; PAGE_SIZE],
    ) -> io::Result<Vec<N::Entry>> {
        let corrupt = |msg: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("node page {page}: {msg}"),
            )
        };
        if usize::from(bytes[0]) != level {
            return Err(corrupt(format!(
                "level byte {}, expected {level}",
                bytes[0]
            )));
        }
        N::decode(&self.codec, &bytes[1..]).map_err(|e| corrupt(e.to_string()))
    }

    fn write_node<N: Kind<M::Key, L, C>>(
        &mut self,
        page: PageId,
        level: usize,
        es: &[N::Entry],
    ) -> io::Result<()> {
        let mut out = Vec::with_capacity(PAGE_SIZE);
        out.push(level as u8);
        N::encode(&self.codec, es, &mut out);
        self.file.write(page, &out)
    }

    fn min_fill<N: Kind<M::Key, L, C>>(&self) -> usize {
        ((N::capacity(&self.codec) as f64 * self.cfg.min_fill) as usize).max(1)
    }

    /// The union of the entries' keys ([`KeyMetrics::empty_key`] for none).
    fn node_key<N: Kind<M::Key, L, C>>(&self, es: &[N::Entry]) -> M::Key {
        let mut acc = self.metrics.empty_key();
        for e in es {
            self.metrics.union_with(&mut acc, &N::key(e));
        }
        acc
    }

    // ---- insertion ------------------------------------------------------

    /// Inserts a record (R* insertion with forced reinsertion).
    pub fn insert(&mut self, record: L) -> io::Result<()> {
        self.len += 1;
        let mut reinserted = vec![false; self.height];
        self.run_inserts(vec![Entry::Leaf(record)], &mut reinserted)
    }

    fn run_inserts(
        &mut self,
        mut pending: Vec<Entry<M::Key, L>>,
        reinserted: &mut Vec<bool>,
    ) -> io::Result<()> {
        while let Some(entry) = pending.pop() {
            debug_assert!(entry.level() < self.height);
            let res =
                self.insert_rec(self.root, self.height - 1, entry, reinserted, &mut pending)?;
            if let Some(sibling) = res.split {
                // Root split: grow the tree by one level.
                let new_root = self.file.allocate()?;
                let entries = [
                    InnerEntry {
                        key: res.key,
                        child: self.root,
                    },
                    sibling,
                ];
                let new_level = self.height;
                self.write_node::<InnerNode>(new_root, new_level, &entries)?;
                self.root = new_root;
                self.height += 1;
                reinserted.push(true); // no forced reinsert at a brand-new root level
            }
        }
        Ok(())
    }

    fn insert_rec(
        &mut self,
        page: PageId,
        level: usize,
        entry: Entry<M::Key, L>,
        reinserted: &mut [bool],
        pending: &mut Vec<Entry<M::Key, L>>,
    ) -> io::Result<InsertResult<M::Key>> {
        if level <= entry.level() {
            return match entry {
                Entry::Leaf(r) => self.land::<LeafNode>(page, level, r, reinserted, pending),
                Entry::Inner(_, e) => self.land::<InnerNode>(page, level, e, reinserted, pending),
            };
        }
        // Above the entry's level, so `level ≥ 1`.
        let ekey = entry.key();
        let mut entries = self.load::<InnerNode>(page, level)?;
        let idx = self.choose_subtree(&entries, &ekey, level == 1);
        let child = entries[idx].child;
        // Recurse with the decoded entries kept, patching them afterwards
        // instead of reloading the node.
        let child_res = self.insert_rec(child, level - 1, entry, reinserted, pending)?;
        entries[idx].key = child_res.key;
        if let Some(sib) = child_res.split {
            entries.push(sib);
        }
        self.finish_overflow::<InnerNode>(page, level, entries, reinserted, pending)
    }

    /// Adds `e` to node `page`, the node at its level.
    fn land<N: Kind<M::Key, L, C>>(
        &mut self,
        page: PageId,
        level: usize,
        e: N::Entry,
        reinserted: &mut [bool],
        pending: &mut Vec<Entry<M::Key, L>>,
    ) -> io::Result<InsertResult<M::Key>> {
        let mut es = self.load::<N>(page, level)?;
        es.push(e);
        self.finish_overflow::<N>(page, level, es, reinserted, pending)
    }

    /// Stores a node that just gained an entry, handling overflow by
    /// forced reinsertion or split.
    fn finish_overflow<N: Kind<M::Key, L, C>>(
        &mut self,
        page: PageId,
        level: usize,
        mut es: Vec<N::Entry>,
        reinserted: &mut [bool],
        pending: &mut Vec<Entry<M::Key, L>>,
    ) -> io::Result<InsertResult<M::Key>> {
        let cap = N::capacity(&self.codec);
        if es.len() <= cap {
            self.write_node::<N>(page, level, &es)?;
            return Ok(InsertResult {
                key: self.node_key::<N>(&es),
                split: None,
            });
        }

        // Overflow treatment (R* §4.3): first overflow at each level per
        // insertion (root excluded) triggers forced reinsertion.
        if page != self.root && !reinserted[level] {
            reinserted[level] = true;
            let victims = self.pick_reinsert_victims::<N>(&mut es, cap);
            self.write_node::<N>(page, level, &es)?;
            // Pushed in far-to-near order so the LIFO pending stack
            // performs "close reinsert" (nearest first), the variant R*
            // recommends.
            pending.extend(victims.into_iter().map(|v| N::pending(v, level)));
            return Ok(InsertResult {
                key: self.node_key::<N>(&es),
                split: None,
            });
        }

        // Split (paper Sec 5.3: R*-split over the split rectangles).
        let rects: Vec<_> = es
            .iter()
            .map(|e| self.metrics.split_rect(&N::key(e)))
            .collect();
        let (g1, g2) = rstar_split(&rects, self.min_fill::<N>());
        let (a, b) = partition(es, &g1, &g2);
        self.write_node::<N>(page, level, &a)?;
        let sib_page = self.file.allocate()?;
        self.write_node::<N>(sib_page, level, &b)?;
        Ok(InsertResult {
            key: self.node_key::<N>(&a),
            split: Some(InnerEntry {
                key: self.node_key::<N>(&b),
                child: sib_page,
            }),
        })
    }

    /// Removes the `reinsert_frac` entries whose keys are farthest (summed
    /// centroid distance) from the node's bounding key.
    fn pick_reinsert_victims<N: Kind<M::Key, L, C>>(
        &self,
        es: &mut Vec<N::Entry>,
        cap: usize,
    ) -> Vec<N::Entry> {
        let p = ((cap as f64 * self.cfg.reinsert_frac) as usize).max(1);
        let bound = self.node_key::<N>(es);
        let dist: Vec<f64> = es
            .iter()
            .map(|e| self.metrics.centroid_distance(&N::key(e), &bound))
            .collect();
        let mut order: Vec<usize> = (0..es.len()).collect();
        order.sort_by(|&i, &j| dist[j].total_cmp(&dist[i]));
        extract(es, &order[..p])
    }

    /// R* ChooseSubtree: overlap-enlargement for leaf parents, area
    /// enlargement above (ties: area enlargement, then area).
    ///
    /// As in the R*-tree paper, the O(n²) overlap criterion only examines
    /// the [`CHOOSE_SUBTREE_CANDIDATES`] entries with the least area
    /// enlargement; overlap itself runs on precomputed profiles so the
    /// U-tree's summed metric does not re-interpolate per pair.
    fn choose_subtree(
        &self,
        entries: &[InnerEntry<M::Key>],
        ekey: &M::Key,
        children_are_leaves: bool,
    ) -> usize {
        debug_assert!(!entries.is_empty());
        // Rank everything by (area enlargement, area).
        let scored: Vec<(f64, f64)> = entries
            .iter()
            .map(|cand| {
                let enlarged = self.metrics.union(&cand.key, ekey);
                let area_before = self.metrics.area(&cand.key);
                (self.metrics.area(&enlarged) - area_before, area_before)
            })
            .collect();
        if !children_are_leaves {
            let mut best = 0usize;
            for i in 1..entries.len() {
                if scored[i] < scored[best] {
                    best = i;
                }
            }
            return best;
        }
        // Leaf parents: overlap criterion over the best few candidates.
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            scored[a]
                .0
                .total_cmp(&scored[b].0)
                .then(scored[a].1.total_cmp(&scored[b].1))
        });
        order.truncate(CHOOSE_SUBTREE_CANDIDATES);
        let profiles: Vec<M::OverlapProfile> = entries
            .iter()
            .map(|e| self.metrics.overlap_profile(&e.key))
            .collect();
        let mut best = order[0];
        let mut best_score = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &i in &order {
            let enlarged = self.metrics.union(&entries[i].key, ekey);
            let enlarged_profile = self.metrics.overlap_profile(&enlarged);
            let mut delta = 0.0;
            for (j, other) in profiles.iter().enumerate() {
                if j == i {
                    continue;
                }
                delta += self.metrics.profile_overlap(&enlarged_profile, other)
                    - self.metrics.profile_overlap(&profiles[i], other);
            }
            let score = (delta, scored[i].0, scored[i].1);
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    // ---- deletion -------------------------------------------------------

    /// Deletes the record with identifier `id` whose key is covered by
    /// `probe_key` (usually the record's own key, possibly rounded by the
    /// on-page codec). Returns the removed record when found. Dissolved
    /// under-full nodes are condensed and their entries reinserted (R-tree
    /// CondenseTree).
    pub fn delete(&mut self, probe_key: &M::Key, id: u64) -> io::Result<Option<L>> {
        if self.len == 0 {
            return Ok(None);
        }
        let mut orphans: Vec<Entry<M::Key, L>> = Vec::new();
        let mut removed: Option<L> = None;
        let outcome = self.delete_rec(
            self.root,
            self.height - 1,
            probe_key,
            id,
            &mut orphans,
            &mut removed,
        )?;
        debug_assert!(
            !matches!(outcome, DeleteOutcome::Dropped),
            "root must never report Dropped"
        );
        if matches!(outcome, DeleteOutcome::NotFound) {
            return Ok(None);
        }
        self.len -= 1;
        // Reinsert orphans (highest level first so inner subtrees are
        // re-attached before the leaf entries that might land under them).
        orphans.sort_by_key(|e| std::cmp::Reverse(e.level()));
        for entry in orphans {
            let mut flags = vec![false; self.height];
            self.run_inserts(vec![entry], &mut flags)?;
        }
        self.shrink_root()?;
        Ok(removed)
    }

    fn delete_rec(
        &mut self,
        page: PageId,
        level: usize,
        probe: &M::Key,
        id: u64,
        orphans: &mut Vec<Entry<M::Key, L>>,
        removed: &mut Option<L>,
    ) -> io::Result<DeleteOutcome<M::Key>> {
        if level == 0 {
            let mut es = self.load::<LeafNode>(page, 0)?;
            let Some(pos) = es.iter().position(|e| e.id() == id) else {
                return Ok(DeleteOutcome::NotFound);
            };
            *removed = Some(es.remove(pos));
            return self.settle::<LeafNode>(page, 0, es, orphans);
        }
        let mut es = self.load::<InnerNode>(page, level)?;
        for i in 0..es.len() {
            if !self
                .metrics
                .covers(&es[i].key, probe, self.cfg.covers_tolerance)
            {
                continue;
            }
            match self.delete_rec(es[i].child, level - 1, probe, id, orphans, removed)? {
                DeleteOutcome::NotFound => continue,
                DeleteOutcome::Kept(k) => es[i].key = k,
                DeleteOutcome::Dropped => {
                    es.remove(i);
                }
            }
            return self.settle::<InnerNode>(page, level, es, orphans);
        }
        Ok(DeleteOutcome::NotFound)
    }

    /// Stores node `page` after a deletion below it, or — when it is not
    /// the root and fell under the minimum fill — releases it and hands
    /// its entries to `orphans` for reinsertion.
    fn settle<N: Kind<M::Key, L, C>>(
        &mut self,
        page: PageId,
        level: usize,
        es: Vec<N::Entry>,
        orphans: &mut Vec<Entry<M::Key, L>>,
    ) -> io::Result<DeleteOutcome<M::Key>> {
        if page != self.root && es.len() < self.min_fill::<N>() {
            orphans.extend(es.into_iter().map(|e| N::pending(e, level)));
            self.file.release(page);
            return Ok(DeleteOutcome::Dropped);
        }
        self.write_node::<N>(page, level, &es)?;
        Ok(DeleteOutcome::Kept(self.node_key::<N>(&es)))
    }

    /// Collapses trivial roots after deletions.
    fn shrink_root(&mut self) -> io::Result<()> {
        while self.height > 1 {
            let level = self.height - 1;
            match self.load::<InnerNode>(self.root, level)?.as_slice() {
                [only] => {
                    let child = only.child;
                    self.file.release(self.root);
                    self.root = child;
                    self.height = level;
                }
                // Everything deleted through condensation: reset to an
                // empty leaf root.
                [] => {
                    self.height = 1;
                    return self.write_node::<LeafNode>(self.root, 0, &[]);
                }
                _ => break,
            }
        }
        Ok(())
    }

    // ---- traversal ------------------------------------------------------

    /// Depth-first traversal. `descend(key, child_level)` decides whether a
    /// subtree is entered; `on_record` sees every reached leaf record.
    /// Returns the number of node pages read — the query's own "node
    /// accesses" count, independent of any other traversal running
    /// concurrently (the shared [`Self::io_stats`] counters still record
    /// every read globally).
    ///
    /// The traversal stack is the caller's, so per-query contexts can
    /// reuse the allocation across queries (one stack per worker thread);
    /// it is cleared on entry.
    ///
    /// Takes `&self`: traversal never mutates the tree, so any number of
    /// concurrent queries can run over one shared (read-only) tree.
    pub fn visit_with<FI, FL>(
        &self,
        stack: &mut Vec<(PageId, usize)>,
        mut descend: FI,
        mut on_record: FL,
    ) -> io::Result<u64>
    where
        FI: FnMut(&M::Key, usize) -> bool,
        FL: FnMut(&L),
    {
        stack.clear();
        stack.push((self.root, self.height - 1));
        let mut nodes_read = 0u64;
        while let Some((page, level)) = stack.pop() {
            self.read_node(
                page,
                level,
                |key, child| {
                    if descend(key, level - 1) {
                        stack.push((child, level - 1));
                    }
                },
                &mut on_record,
            )?;
            nodes_read += 1;
        }
        Ok(nodes_read)
    }

    /// Visits every record (uncounted traversal would lie; this one counts).
    pub fn for_each_record<FL: FnMut(&L)>(&self, on_record: FL) -> io::Result<()> {
        self.visit_with(&mut Vec::new(), |_, _| true, on_record)
            .map(|_| ())
    }

    /// Loads **one** node page, the node at `level` (0 = leaf), and
    /// streams its contents to the caller: inner entries as
    /// `(key, child_page)` pairs (each child is the node at `level - 1`),
    /// leaf records by reference. A page that is not the node at `level`
    /// is `InvalidData` naming the page.
    ///
    /// This is the primitive behind best-first traversals: unlike
    /// [`Self::visit_with`] (depth-first, tree-owned stack), the frontier
    /// — priority queue, bounds, stopping rule — lives with the caller,
    /// who decides *when* each child is expanded, not only whether. One
    /// call costs exactly one counted node read; callers charge their own
    /// per-query counters. The descent starts at [`Self::root_page`], the
    /// node at level [`Self::height`]` - 1`.
    pub fn read_node<FI, FL>(
        &self,
        page: PageId,
        level: usize,
        mut on_child: FI,
        mut on_record: FL,
    ) -> io::Result<()>
    where
        FI: FnMut(&M::Key, PageId),
        FL: FnMut(&L),
    {
        if level == 0 {
            for r in &self.load::<LeafNode>(page, 0)? {
                on_record(r);
            }
        } else {
            for e in &self.load::<InnerNode>(page, level)? {
                on_child(&e.key, e.child);
            }
        }
        Ok(())
    }

    /// Structure statistics without touching the I/O counters.
    ///
    /// Fallible: the walk peeks every node page through the store, so a
    /// failing backend or a corrupt page surfaces as an `io::Error`
    /// instead of a panic.
    pub fn stats(&self) -> io::Result<TreeStats> {
        let mut stats = TreeStats {
            nodes_per_level: vec![0; self.height],
            entries_per_level: vec![0; self.height],
        };
        let mut stack = vec![(self.root, self.height - 1)];
        while let Some((page, level)) = stack.pop() {
            stats.nodes_per_level[level] += 1;
            stats.entries_per_level[level] += if level == 0 {
                self.peek::<LeafNode>(page, 0)?.len()
            } else {
                let es = self.peek::<InnerNode>(page, level)?;
                stack.extend(es.iter().map(|e| (e.child, level - 1)));
                es.len()
            };
        }
        Ok(stats)
    }

    /// Checks the R-tree bounding invariant everywhere (test helper):
    /// every inner entry's key must cover the key of its child node, every
    /// non-root node must meet the minimum fill, and the leaves must hold
    /// [`Self::len`] records. A violation is `InvalidData`.
    pub fn check_invariants(&self) -> io::Result<()> {
        let broken = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut stack = vec![(self.root, self.height - 1)];
        let mut seen = 0usize;
        while let Some((page, level)) = stack.pop() {
            if level == 0 {
                let n = self.peek::<LeafNode>(page, 0)?.len();
                if page != self.root && n < self.min_fill::<LeafNode>() {
                    return Err(broken(format!("leaf {page} underfull: {n}")));
                }
                seen += n;
                continue;
            }
            let es = self.peek::<InnerNode>(page, level)?;
            if es.is_empty() || (page != self.root && es.len() < self.min_fill::<InnerNode>()) {
                return Err(broken(format!("inner {page} underfull: {}", es.len())));
            }
            for e in &es {
                let child_key = if level == 1 {
                    self.peek_key::<LeafNode>(e.child, 0)?
                } else {
                    self.peek_key::<InnerNode>(e.child, level - 1)?
                };
                if !self
                    .metrics
                    .covers(&e.key, &child_key, self.cfg.covers_tolerance)
                {
                    return Err(broken(format!(
                        "entry in {page} does not cover child {}: {:?} !⊇ {child_key:?}",
                        e.child, e.key
                    )));
                }
                stack.push((e.child, level - 1));
            }
        }
        if seen != self.len {
            return Err(broken(format!(
                "len {} but traversal found {seen}",
                self.len
            )));
        }
        Ok(())
    }

    /// The bounding key of node `page`, the node at `level` (uncounted).
    fn peek_key<N: Kind<M::Key, L, C>>(&self, page: PageId, level: usize) -> io::Result<M::Key> {
        Ok(self.node_key::<N>(&self.peek::<N>(page, level)?))
    }
}

/// Node sizes for packing `n` entries into nodes of capacity `cap` at full
/// fan-out. Every node but the last is full; a trailing remainder below
/// `min` is fixed by rebalancing the final two nodes evenly, so every
/// non-root node satisfies the R* minimum fill (`cap ≥ MIN_FANOUT` and
/// `min ≤ 0.4·cap` guarantee the even split clears `min` on both sides).
fn pack_sizes(n: usize, cap: usize, min: usize) -> Vec<usize> {
    debug_assert!(n > 0 && cap >= MIN_FANOUT && min <= cap);
    let mut sizes = vec![cap; n / cap];
    let rem = n % cap;
    if rem == 0 {
        return sizes;
    }
    match sizes.pop() {
        // A short remainder is rebalanced with the full node before it.
        Some(last) if rem < min => sizes.extend([(last + rem) / 2, (last + rem).div_ceil(2)]),
        // Otherwise it is a node of its own (a single root needs no
        // minimum fill).
        last => sizes.extend(last.into_iter().chain([rem])),
    }
    sizes
}

/// Removes the elements at `victims` (any order) from `v`, returning them.
fn extract<T>(v: &mut Vec<T>, victims: &[usize]) -> Vec<T> {
    let mut sorted: Vec<usize> = victims.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut out = Vec::with_capacity(sorted.len());
    for i in sorted {
        out.push(v.swap_remove(i));
    }
    out.reverse();
    out
}

/// Consumes `v`, distributing elements into the two index groups (a
/// partition of `0..v.len()`), each in its group's order.
fn partition<T>(v: Vec<T>, g1: &[usize], g2: &[usize]) -> (Vec<T>, Vec<T>) {
    debug_assert_eq!(g1.len() + g2.len(), v.len());
    let mut slots: Vec<Option<T>> = v.into_iter().map(Some).collect();
    let mut take =
        |idxs: &[usize]| -> Vec<T> { idxs.iter().filter_map(|&i| slots[i].take()).collect() };
    let a = take(g1);
    let b = take(g2);
    debug_assert_eq!(a.len() + b.len(), slots.len(), "split groups overlap");
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_removes_and_returns() {
        let mut v = vec![10, 11, 12, 13, 14];
        let out = extract(&mut v, &[1, 3]);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&11) && out.contains(&13));
        assert_eq!(v.len(), 3);
        assert!(v.contains(&10) && v.contains(&12) && v.contains(&14));
    }

    #[test]
    fn partition_splits_ownership() {
        let v = vec!["a", "b", "c", "d"];
        let (x, y) = partition(v, &[2, 0], &[1, 3]);
        assert_eq!(x, vec!["c", "a"]);
        assert_eq!(y, vec!["b", "d"]);
    }

    #[test]
    fn pack_sizes_fill_everything_and_respect_min_fill() {
        for cap in [4usize, 10, 50, 113] {
            let min = ((cap as f64 * 0.4) as usize).max(1);
            for n in 1..=(4 * cap + 3) {
                let sizes = pack_sizes(n, cap, min);
                assert_eq!(sizes.iter().sum::<usize>(), n, "n={n} cap={cap}");
                assert!(sizes.iter().all(|&s| s <= cap), "n={n} cap={cap}");
                if sizes.len() > 1 {
                    assert!(
                        sizes.iter().all(|&s| s >= min),
                        "n={n} cap={cap}: underfull node in {sizes:?}"
                    );
                }
            }
        }
    }
}
