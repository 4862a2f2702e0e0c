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

enum Node<K, L> {
    Leaf(Vec<L>),
    Inner(Vec<InnerEntry<K>>),
}

enum Entry<K, L> {
    Leaf(L),
    Inner(InnerEntry<K>),
}

struct InsertResult<K> {
    key: K,
    split: Option<InnerEntry<K>>,
}

enum DeleteOutcome<K> {
    NotFound,
    Kept(Option<K>),
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
        tree.store_node(root, 0, &Node::Leaf(Vec::new()))?;
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
        // Leaves, in record order.
        let sizes = pack_sizes(self.len, self.codec.leaf_capacity(), self.min_fill_count(0));
        let mut level_entries: Vec<InnerEntry<M::Key>> = Vec::with_capacity(sizes.len());
        let mut it = records.into_iter();
        for sz in sizes {
            let node = Node::Leaf(it.by_ref().take(sz).collect());
            let page = self.file.allocate()?;
            self.store_node(page, 0, &node)?;
            level_entries.push(InnerEntry {
                // xlint: allow(panic-freedom) -- invariant: packed chunk is non-empty
                key: self.node_key(&node).expect("packed chunk is non-empty"),
                child: page,
            });
        }
        // Internal levels, bottom-up, until one node bounds everything.
        let mut level = 0;
        while level_entries.len() > 1 {
            level += 1;
            let sizes = pack_sizes(
                level_entries.len(),
                self.codec.inner_capacity(),
                self.min_fill_count(level),
            );
            let mut next = Vec::with_capacity(sizes.len());
            let mut it = level_entries.into_iter();
            for sz in sizes {
                let node = Node::Inner(it.by_ref().take(sz).collect());
                let page = self.file.allocate()?;
                self.store_node(page, level, &node)?;
                next.push(InnerEntry {
                    // xlint: allow(panic-freedom) -- invariant: packed chunk is non-empty
                    key: self.node_key(&node).expect("packed chunk is non-empty"),
                    child: page,
                });
            }
            level_entries = next;
        }
        self.root = level_entries[0].child;
        self.height = level + 1;
        Ok(())
    }

    /// Reattaches a tree whose pages already live in `file` (persistence):
    /// `root`/`height`/`len` are the superstructure saved alongside the
    /// page data. No validation is performed here; callers verify the
    /// store's provenance (magic numbers, catalogs) first.
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

    fn load(&self, page: PageId) -> io::Result<(usize, Node<M::Key, L>)> {
        let mut bytes = [0u8; PAGE_SIZE];
        self.file.read_into(page, &mut bytes)?;
        let level = bytes[0] as usize;
        let node = if level == 0 {
            Node::Leaf(self.codec.decode_leaf(&bytes[1..]))
        } else {
            Node::Inner(self.codec.decode_inner(&bytes[1..]))
        };
        Ok((level, node))
    }

    fn store_node(&mut self, page: PageId, level: usize, node: &Node<M::Key, L>) -> io::Result<()> {
        let mut out = Vec::with_capacity(page_store::PAGE_SIZE);
        out.push(level as u8);
        match node {
            Node::Leaf(es) => {
                debug_assert_eq!(level, 0);
                debug_assert!(es.len() <= self.codec.leaf_capacity());
                self.codec.encode_leaf(es, &mut out);
            }
            Node::Inner(es) => {
                debug_assert!(level > 0);
                debug_assert!(es.len() <= self.codec.inner_capacity());
                self.codec.encode_inner(es, &mut out);
            }
        }
        self.file.write(page, &out)
    }

    fn node_len(node: &Node<M::Key, L>) -> usize {
        match node {
            Node::Leaf(es) => es.len(),
            Node::Inner(es) => es.len(),
        }
    }

    fn node_capacity(&self, level: usize) -> usize {
        if level == 0 {
            self.codec.leaf_capacity()
        } else {
            self.codec.inner_capacity()
        }
    }

    fn min_fill_count(&self, level: usize) -> usize {
        ((self.node_capacity(level) as f64 * self.cfg.min_fill) as usize).max(1)
    }

    fn node_key(&self, node: &Node<M::Key, L>) -> Option<M::Key> {
        match node {
            Node::Leaf(es) => {
                let mut it = es.iter();
                let first = it.next()?;
                let mut acc = first.key();
                for e in it {
                    self.metrics.union_with(&mut acc, &e.key());
                }
                Some(acc)
            }
            Node::Inner(es) => {
                let mut it = es.iter();
                let first = it.next()?;
                let mut acc = first.key.clone();
                for e in it {
                    self.metrics.union_with(&mut acc, &e.key);
                }
                Some(acc)
            }
        }
    }

    // ---- insertion ------------------------------------------------------

    /// Inserts a record (R* insertion with forced reinsertion).
    pub fn insert(&mut self, record: L) -> io::Result<()> {
        self.len += 1;
        let mut reinserted = vec![false; self.height];
        self.run_inserts(vec![(0usize, Entry::Leaf(record))], &mut reinserted)
    }

    fn run_inserts(
        &mut self,
        mut pending: Vec<(usize, Entry<M::Key, L>)>,
        reinserted: &mut Vec<bool>,
    ) -> io::Result<()> {
        while let Some((level, entry)) = pending.pop() {
            debug_assert!(level < self.height);
            let res = self.insert_rec(
                self.root,
                self.height - 1,
                entry,
                level,
                reinserted,
                &mut pending,
            )?;
            if let Some(sibling) = res.split {
                // Root split: grow the tree by one level.
                let new_root = self.file.allocate()?;
                let entries = vec![
                    InnerEntry {
                        key: res.key,
                        child: self.root,
                    },
                    sibling,
                ];
                let new_level = self.height;
                self.store_node(new_root, new_level, &Node::Inner(entries))?;
                self.root = new_root;
                self.height += 1;
                reinserted.push(true); // no forced reinsert at a brand-new root level
            }
        }
        Ok(())
    }

    fn entry_key(&self, e: &Entry<M::Key, L>) -> M::Key {
        match e {
            Entry::Leaf(r) => r.key(),
            Entry::Inner(ie) => ie.key.clone(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_rec(
        &mut self,
        page: PageId,
        level: usize,
        entry: Entry<M::Key, L>,
        target_level: usize,
        reinserted: &mut [bool],
        pending: &mut Vec<(usize, Entry<M::Key, L>)>,
    ) -> io::Result<InsertResult<M::Key>> {
        let (lvl, mut node) = self.load(page)?;
        debug_assert_eq!(lvl, level, "page level mismatch");

        if level > target_level {
            let ekey = self.entry_key(&entry);
            let Node::Inner(ref mut entries) = node else {
                // xlint: allow(panic-freedom) -- invariant: non-leaf level must hold an inner node
                unreachable!("non-leaf level must hold an inner node")
            };
            let idx = self.choose_subtree(entries, &ekey, level == 1);
            let child = entries[idx].child;
            // Recurse with `node` set aside; reload cost avoided by keeping
            // the decoded entries and patching them afterwards.
            let child_res =
                self.insert_rec(child, level - 1, entry, target_level, reinserted, pending)?;
            entries[idx].key = child_res.key;
            if let Some(sib) = child_res.split {
                entries.push(sib);
            }
            return self.finish_overflow(page, level, node, reinserted, pending);
        }

        // level == target_level: the entry lands here.
        match (&mut node, entry) {
            (Node::Leaf(es), Entry::Leaf(r)) => es.push(r),
            (Node::Inner(es), Entry::Inner(ie)) => es.push(ie),
            // xlint: allow(panic-freedom) -- invariant: entry kind must match node kind at its level
            _ => unreachable!("entry kind must match node kind at its level"),
        }
        self.finish_overflow(page, level, node, reinserted, pending)
    }

    /// Stores `node`, handling overflow by forced reinsertion or split.
    fn finish_overflow(
        &mut self,
        page: PageId,
        level: usize,
        mut node: Node<M::Key, L>,
        reinserted: &mut [bool],
        pending: &mut Vec<(usize, Entry<M::Key, L>)>,
    ) -> io::Result<InsertResult<M::Key>> {
        let cap = self.node_capacity(level);
        if Self::node_len(&node) <= cap {
            self.store_node(page, level, &node)?;
            return Ok(InsertResult {
                // xlint: allow(panic-freedom) -- invariant: non-empty after insert
                key: self.node_key(&node).expect("non-empty after insert"),
                split: None,
            });
        }

        // Overflow treatment (R* §4.3): first overflow at each level per
        // insertion (root excluded) triggers forced reinsertion.
        if page != self.root && !reinserted[level] {
            reinserted[level] = true;
            let victims = self.pick_reinsert_victims(&mut node, cap);
            self.store_node(page, level, &node)?;
            // Push in far-to-near order so the LIFO pending stack performs
            // "close reinsert" (nearest first), the variant R* recommends.
            for v in victims {
                pending.push((level, v));
            }
            return Ok(InsertResult {
                key: self
                    .node_key(&node)
                    // xlint: allow(panic-freedom) -- invariant: reinsertion leaves entries behind
                    .expect("reinsertion leaves entries behind"),
                split: None,
            });
        }

        // Split (paper Sec 5.3: R*-split over the split rectangles).
        let (a, b) = self.split_node(node);
        self.store_node(page, level, &a)?;
        let sib_page = self.file.allocate()?;
        self.store_node(sib_page, level, &b)?;
        Ok(InsertResult {
            // xlint: allow(panic-freedom) -- invariant: split group A non-empty
            key: self.node_key(&a).expect("split group A non-empty"),
            split: Some(InnerEntry {
                // xlint: allow(panic-freedom) -- invariant: split group B non-empty
                key: self.node_key(&b).expect("split group B non-empty"),
                child: sib_page,
            }),
        })
    }

    /// Removes the `reinsert_frac` entries whose keys are farthest (summed
    /// centroid distance) from the node's bounding key.
    fn pick_reinsert_victims(
        &self,
        node: &mut Node<M::Key, L>,
        cap: usize,
    ) -> Vec<Entry<M::Key, L>> {
        let p = ((cap as f64 * self.cfg.reinsert_frac) as usize).max(1);
        // xlint: allow(panic-freedom) -- invariant: overflowing node is non-empty
        let bound = self.node_key(node).expect("overflowing node is non-empty");
        match node {
            Node::Leaf(es) => {
                let mut order: Vec<usize> = (0..es.len()).collect();
                order.sort_by(|&i, &j| {
                    let di = self.metrics.centroid_distance(&es[i].key(), &bound);
                    let dj = self.metrics.centroid_distance(&es[j].key(), &bound);
                    dj.total_cmp(&di)
                });
                let victims: Vec<usize> = order[..p].to_vec();
                extract(es, &victims).into_iter().map(Entry::Leaf).collect()
            }
            Node::Inner(es) => {
                let mut order: Vec<usize> = (0..es.len()).collect();
                order.sort_by(|&i, &j| {
                    let di = self.metrics.centroid_distance(&es[i].key, &bound);
                    let dj = self.metrics.centroid_distance(&es[j].key, &bound);
                    dj.total_cmp(&di)
                });
                let victims: Vec<usize> = order[..p].to_vec();
                extract(es, &victims)
                    .into_iter()
                    .map(Entry::Inner)
                    .collect()
            }
        }
    }

    fn split_node(&self, node: Node<M::Key, L>) -> (Node<M::Key, L>, Node<M::Key, L>) {
        match node {
            Node::Leaf(es) => {
                let rects: Vec<_> = es
                    .iter()
                    .map(|e| self.metrics.split_rect(&e.key()))
                    .collect();
                let min_fill = self.min_fill_count(0);
                let (g1, g2) = rstar_split(&rects, min_fill);
                let (a, b) = partition(es, &g1, &g2);
                (Node::Leaf(a), Node::Leaf(b))
            }
            Node::Inner(es) => {
                let rects: Vec<_> = es.iter().map(|e| self.metrics.split_rect(&e.key)).collect();
                let min_fill = self.min_fill_count(1);
                let (g1, g2) = rstar_split(&rects, min_fill);
                let (a, b) = partition(es, &g1, &g2);
                (Node::Inner(a), Node::Inner(b))
            }
        }
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
        let mut orphans: Vec<(usize, Entry<M::Key, L>)> = Vec::new();
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
        orphans.sort_by_key(|(lvl, _)| std::cmp::Reverse(*lvl));
        for (lvl, entry) in orphans {
            let mut flags = vec![false; self.height];
            self.run_inserts(vec![(lvl, entry)], &mut flags)?;
        }
        self.shrink_root()?;
        Ok(removed)
    }

    #[allow(clippy::too_many_arguments)]
    fn delete_rec(
        &mut self,
        page: PageId,
        level: usize,
        probe: &M::Key,
        id: u64,
        orphans: &mut Vec<(usize, Entry<M::Key, L>)>,
        removed: &mut Option<L>,
    ) -> io::Result<DeleteOutcome<M::Key>> {
        let (_, mut node) = self.load(page)?;
        match node {
            Node::Leaf(ref mut es) => {
                let Some(pos) = es.iter().position(|e| e.id() == id) else {
                    return Ok(DeleteOutcome::NotFound);
                };
                *removed = Some(es.remove(pos));
                if page != self.root && es.len() < self.min_fill_count(0) {
                    for e in es.drain(..) {
                        orphans.push((0, Entry::Leaf(e)));
                    }
                    self.file.release(page);
                    return Ok(DeleteOutcome::Dropped);
                }
                let key = self.node_key(&node);
                self.store_node(page, 0, &node)?;
                Ok(DeleteOutcome::Kept(key))
            }
            Node::Inner(ref mut es) => {
                let mut hit: Option<usize> = None;
                let mut dropped = false;
                for i in 0..es.len() {
                    if !self
                        .metrics
                        .covers(&es[i].key, probe, self.cfg.covers_tolerance)
                    {
                        continue;
                    }
                    match self.delete_rec(es[i].child, level - 1, probe, id, orphans, removed)? {
                        DeleteOutcome::NotFound => continue,
                        DeleteOutcome::Kept(Some(k)) => {
                            es[i].key = k;
                            hit = Some(i);
                            break;
                        }
                        DeleteOutcome::Kept(None) => {
                            // Only an empty root leaf reports no key, and the
                            // root has no parent — unreachable here.
                            // xlint: allow(panic-freedom) -- invariant: non-root child kept with empty key
                            unreachable!("non-root child kept with empty key")
                        }
                        DeleteOutcome::Dropped => {
                            es.remove(i);
                            dropped = true;
                            hit = Some(i);
                            break;
                        }
                    }
                }
                if hit.is_none() {
                    return Ok(DeleteOutcome::NotFound);
                }
                if dropped && page != self.root && es.len() < self.min_fill_count(level) {
                    for e in es.drain(..) {
                        orphans.push((level, Entry::Inner(e)));
                    }
                    self.file.release(page);
                    return Ok(DeleteOutcome::Dropped);
                }
                let key = self.node_key(&node);
                self.store_node(page, level, &node)?;
                Ok(DeleteOutcome::Kept(key))
            }
        }
    }

    /// Collapses trivial roots after deletions.
    fn shrink_root(&mut self) -> io::Result<()> {
        loop {
            let (level, node) = self.load(self.root)?;
            match node {
                Node::Inner(es) if es.len() == 1 => {
                    let child = es[0].child;
                    self.file.release(self.root);
                    self.root = child;
                    self.height = level; // child level = level - 1 ⇒ height = level
                }
                Node::Inner(es) if es.is_empty() => {
                    // Everything deleted through condensation: reset to an
                    // empty leaf root.
                    self.height = 1;
                    self.store_node(self.root, 0, &Node::Leaf(Vec::new()))?;
                    return Ok(());
                }
                _ => return Ok(()),
            }
        }
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
            let (_, node) = self.load(page)?;
            nodes_read += 1;
            match node {
                Node::Leaf(es) => {
                    for r in &es {
                        on_record(r);
                    }
                }
                Node::Inner(es) => {
                    for e in &es {
                        if descend(&e.key, level - 1) {
                            stack.push((e.child, level - 1));
                        }
                    }
                }
            }
        }
        Ok(nodes_read)
    }

    /// Visits every record (uncounted traversal would lie; this one counts).
    pub fn for_each_record<FL: FnMut(&L)>(&self, on_record: FL) -> io::Result<()> {
        self.visit_with(&mut Vec::new(), |_, _| true, on_record)
            .map(|_| ())
    }

    /// Loads **one** node page and streams its contents to the caller:
    /// inner entries as `(key, child_page)` pairs, leaf records by
    /// reference. Returns the node's level (0 = leaf).
    ///
    /// This is the primitive behind best-first traversals: unlike
    /// [`Self::visit_with`] (depth-first, tree-owned stack), the frontier
    /// — priority queue, bounds, stopping rule — lives with the caller,
    /// who decides *when* each child is expanded, not only whether. One
    /// call costs exactly one counted node read; callers charge their own
    /// per-query counters. Entry point for the descent is
    /// [`Self::root_page`].
    pub fn read_node<FI, FL>(
        &self,
        page: PageId,
        mut on_child: FI,
        mut on_record: FL,
    ) -> io::Result<usize>
    where
        FI: FnMut(&M::Key, PageId),
        FL: FnMut(&L),
    {
        let (level, node) = self.load(page)?;
        match node {
            Node::Leaf(es) => {
                for r in &es {
                    on_record(r);
                }
            }
            Node::Inner(es) => {
                for e in &es {
                    on_child(&e.key, e.child);
                }
            }
        }
        Ok(level)
    }

    /// Structure statistics without touching the I/O counters.
    ///
    /// Fallible: the walk peeks every node page through the store, so a
    /// failing backend surfaces as the underlying `io::Error` instead of
    /// a panic (PR-6 fallible-store contract).
    pub fn stats(&self) -> io::Result<TreeStats> {
        let mut stats = TreeStats {
            nodes_per_level: vec![0; self.height],
            entries_per_level: vec![0; self.height],
        };
        let mut stack = vec![(self.root, self.height - 1)];
        let mut bytes = [0u8; PAGE_SIZE];
        while let Some((page, level)) = stack.pop() {
            self.file.peek_into(page, &mut bytes)?;
            let lvl = bytes[0] as usize;
            debug_assert_eq!(lvl, level);
            stats.nodes_per_level[level] += 1;
            if level == 0 {
                stats.entries_per_level[0] += self.codec.decode_leaf(&bytes[1..]).len();
            } else {
                let es = self.codec.decode_inner(&bytes[1..]);
                stats.entries_per_level[level] += es.len();
                for e in &es {
                    stack.push((e.child, level - 1));
                }
            }
        }
        Ok(stats)
    }

    /// Checks the R-tree bounding invariant everywhere (test helper):
    /// every inner entry's key must cover the key of its child node.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut stack = vec![(self.root, self.height - 1)];
        let mut seen = 0usize;
        let mut bytes = [0u8; PAGE_SIZE];
        let mut child_bytes = [0u8; PAGE_SIZE];
        while let Some((page, level)) = stack.pop() {
            self.file
                .peek_into(page, &mut bytes)
                .map_err(|e| format!("page {page} unreadable: {e}"))?;
            let lvl = bytes[0] as usize;
            if lvl != level {
                return Err(format!("page {page} level {lvl}, expected {level}"));
            }
            if level == 0 {
                let es = self.codec.decode_leaf(&bytes[1..]);
                if page != self.root && es.len() < self.min_fill_count(0) {
                    return Err(format!("leaf {page} underfull: {}", es.len()));
                }
                seen += es.len();
            } else {
                let es = self.codec.decode_inner(&bytes[1..]);
                if es.is_empty() || (page != self.root && es.len() < self.min_fill_count(level)) {
                    return Err(format!("inner {page} underfull: {}", es.len()));
                }
                for e in &es {
                    self.file
                        .peek_into(e.child, &mut child_bytes)
                        .map_err(|err| format!("page {} unreadable: {err}", e.child))?;
                    let child_key = if child_bytes[0] == 0 {
                        let ces = self.codec.decode_leaf(&child_bytes[1..]);
                        self.node_key(&Node::Leaf(ces))
                    } else {
                        let ces = self.codec.decode_inner(&child_bytes[1..]);
                        self.node_key(&Node::Inner(ces))
                    };
                    if let Some(ck) = child_key {
                        if !self.metrics.covers(&e.key, &ck, self.cfg.covers_tolerance) {
                            return Err(format!(
                                "entry in {page} does not cover child {}: {:?} !⊇ {:?}",
                                e.child, e.key, ck
                            ));
                        }
                    }
                    stack.push((e.child, level - 1));
                }
            }
        }
        if seen != self.len {
            return Err(format!("len {} but traversal found {seen}", self.len));
        }
        Ok(())
    }
}

/// Node sizes for packing `n` entries into nodes of capacity `cap` at full
/// fan-out. Every node but the last is full; a trailing remainder below
/// `min` is fixed by rebalancing the final two nodes evenly, so every
/// non-root node satisfies the R* minimum fill (`cap ≥ MIN_FANOUT` and
/// `min ≤ 0.4·cap` guarantee the even split clears `min` on both sides).
fn pack_sizes(n: usize, cap: usize, min: usize) -> Vec<usize> {
    debug_assert!(n > 0 && cap >= MIN_FANOUT && min <= cap);
    let full = n / cap;
    let rem = n % cap;
    if rem == 0 {
        return vec![cap; full];
    }
    if full == 0 {
        return vec![rem]; // a single (root) node; min fill does not apply
    }
    let mut sizes = vec![cap; full];
    if rem >= min {
        sizes.push(rem);
    } else {
        let total = cap + rem;
        // xlint: allow(panic-freedom) -- invariant: full > 0
        *sizes.last_mut().expect("full > 0") = total / 2;
        sizes.push(total - total / 2);
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

/// Consumes `v`, distributing elements into the two index groups.
fn partition<T>(v: Vec<T>, g1: &[usize], g2: &[usize]) -> (Vec<T>, Vec<T>) {
    debug_assert_eq!(g1.len() + g2.len(), v.len());
    let mut slots: Vec<Option<T>> = v.into_iter().map(Some).collect();
    let take = |slots: &mut Vec<Option<T>>, idxs: &[usize]| {
        idxs.iter()
            // xlint: allow(panic-freedom) -- invariant: index used twice in split
            .map(|&i| slots[i].take().expect("index used twice in split"))
            .collect::<Vec<T>>()
    };
    let a = take(&mut slots, g1);
    let b = take(&mut slots, g2);
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
