//! Best-first top-k ranking over PCR-derived probability bounds.
//!
//! The PCR/CFB machinery of Sec 4–5 yields cheap per-entry *bounds* on
//! appearance probability ([`crate::filter::prob_bounds_planned`]), which is
//! exactly what probabilistic ranking needs (cf. Bernecker et al.,
//! probabilistic pruning for similarity ranking in uncertain databases):
//!
//! * the frontier is a priority queue over tree nodes and undecided
//!   objects, keyed by an **upper** probability bound — nodes by the
//!   graded Observation-4 bound (smallest catalog value whose
//!   `e.MBR(p_j)` misses `r_q`), objects by their filter bounds;
//! * refinement is **lazy**: a popped object is integrated only while its
//!   upper bound still beats the current k-th best *lower* bound (exact
//!   probabilities of refined hits merged with the lower bounds of
//!   objects still in the frontier), so most probability computations are
//!   skipped;
//! * the traversal stops as soon as the best remaining upper bound falls
//!   below that k-th lower bound — everything still unexpanded is
//!   provably outside the top k. Ties are never pruned (strict
//!   comparisons throughout), so the answer equals the refine-everything
//!   oracle's under a deterministic refinement mode.
//!
//! The driver is generic over the tree ([`RStarTreeBase`]) and leaf-entry
//! shape, so [`crate::UTree`] (CFB bounds) and [`crate::UPcrTree`] (exact
//! PCR bounds) share it verbatim; [`crate::SeqScan`] implements the
//! oracle by scanning.

use crate::api::{Provenance, RankOutcome, RankQuery, RankedMatch};
use crate::query::{refine_one, QueryCtx};
use page_store::{ObjectHeap, PageId, PageStore, RecordAddr};
use rstar_base::{KeyMetrics, LeafRecord, NodeCodec, RStarTreeBase};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::io;
use std::time::Instant;
use uncertain_geom::Rect;

/// What a frontier entry points at.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RankTarget {
    /// An unexpanded tree node: its page and its level (0 = leaf).
    Node(PageId, usize),
    /// An undecided object (heap address, id, lower probability bound).
    Object {
        /// Heap address of the object's pdf record.
        addr: RecordAddr,
        /// Object id.
        id: u64,
        /// The lower bound registered in the pending set.
        lb: f64,
    },
}

/// A frontier entry, ordered by its upper probability bound (max-heap).
///
/// Bounds live in `[0, 1]`, so the IEEE bit pattern orders like the
/// value; ties break on kind (objects before nodes — an exact result
/// tightens the k-th bound sooner) and then on id/page for a fully
/// deterministic pop order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankItem {
    /// Sound upper bound on any reachable object's appearance probability.
    pub(crate) upper: f64,
    /// The node or object this bound belongs to.
    pub(crate) target: RankTarget,
}

impl RankItem {
    fn order_key(&self) -> (u64, u8, u64) {
        let (kind, tag) = match self.target {
            RankTarget::Object { id, .. } => (1u8, id),
            RankTarget::Node(page, _) => (0u8, page),
        };
        (self.upper.to_bits(), kind, tag)
    }
}

impl PartialEq for RankItem {
    fn eq(&self, other: &Self) -> bool {
        self.order_key() == other.order_key()
    }
}

impl Eq for RankItem {}

impl Ord for RankItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

impl PartialOrd for RankItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl RankedMatch {
    /// A hit pinned to `p = 1` by the validation bound, no integration.
    pub(crate) fn validated(id: u64) -> Self {
        Self {
            id,
            p: 1.0,
            provenance: Provenance::Validated,
        }
    }

    /// A hit whose probability `p` was computed from `samples` Monte-Carlo
    /// samples (0 under quadrature).
    pub(crate) fn refined(id: u64, p: f64, samples: usize) -> Self {
        Self {
            id,
            p,
            provenance: Provenance::Refined { p, samples },
        }
    }
}

/// The ranking order: descending probability, ties by ascending id — the
/// one total order every ranked answer, partial or merged, is sorted by.
pub(crate) fn rank_order(a: &RankedMatch, b: &RankedMatch) -> Ordering {
    b.p.total_cmp(&a.p).then(a.id.cmp(&b.id))
}

/// The leaf-entry surface the ranking driver needs, shared by the U-tree
/// and U-PCR entry types.
pub trait RankLeaf<const D: usize> {
    /// MBR of the object's uncertainty region.
    fn mbr(&self) -> &Rect<D>;
    /// Heap address of the pdf record.
    fn addr(&self) -> RecordAddr;
    /// Object id.
    fn oid(&self) -> u64;
}

impl<const D: usize> RankLeaf<D> for crate::entry::ULeafEntry<D> {
    fn mbr(&self) -> &Rect<D> {
        &self.mbr
    }
    fn addr(&self) -> RecordAddr {
        self.addr
    }
    fn oid(&self) -> u64 {
        self.id
    }
}

impl<const D: usize> RankLeaf<D> for crate::entry::UPcrLeafEntry<D> {
    fn mbr(&self) -> &Rect<D> {
        &self.mbr
    }
    fn addr(&self) -> RecordAddr {
        self.addr
    }
    fn oid(&self) -> u64 {
        self.id
    }
}

/// Inserts a hit keeping `ranked` sorted by [`rank_order`] and capped at
/// `k` — entries that fall off the end are exact and below the k-th exact
/// value, so they can never re-enter.
pub(crate) fn push_hit(ranked: &mut Vec<RankedMatch>, k: usize, hit: RankedMatch) {
    let at = ranked.partition_point(|h| rank_order(h, &hit) == Ordering::Less);
    ranked.insert(at, hit);
    ranked.truncate(k);
}

/// The current k-th best guaranteed lower bound: exact probabilities of
/// ranked hits merged with the lower bounds of objects still in the
/// frontier. Returns `-1.0` while fewer than `k` bounds exist (every
/// upper bound beats it). Each object contributes exactly once — its
/// pending entry is removed before it is refined.
pub(crate) fn kth_bound(ranked: &[RankedMatch], pending: &BTreeSet<(u64, u64)>, k: usize) -> f64 {
    let mut exact = ranked.iter().map(|h| h.p).peekable();
    let mut lbs = pending
        .iter()
        .rev()
        .map(|(bits, _)| f64::from_bits(*bits))
        .peekable();
    let mut kth = -1.0;
    for _ in 0..k {
        kth = match (exact.peek(), lbs.peek()) {
            (Some(&a), Some(&b)) if a >= b => {
                exact.next();
                a
            }
            (Some(&a), None) => {
                exact.next();
                a
            }
            (_, Some(&b)) => {
                lbs.next();
                b
            }
            (None, None) => return -1.0,
        };
    }
    kth
}

/// Runs the best-first bounded ranking over a tree + heap pair.
///
/// `node_upper` maps a bounding key to a sound upper bound on every
/// object in its subtree; `entry_bounds` maps a leaf entry to its
/// `(lower, upper)` probability bounds. All per-query state lives in
/// `ctx` (`&self` on the index end-to-end).
pub(crate) fn rank_best_first<const D: usize, M, L, C, S, NB, EB>(
    tree: &RStarTreeBase<D, M, L, C, S>,
    heap: &ObjectHeap<S>,
    query: &RankQuery<D>,
    ctx: &mut QueryCtx,
    node_upper: NB,
    entry_bounds: EB,
) -> io::Result<RankOutcome>
where
    M: KeyMetrics<D>,
    L: LeafRecord<M::Key> + RankLeaf<D>,
    C: NodeCodec<M::Key, L>,
    S: PageStore,
    NB: Fn(&M::Key) -> f64,
    EB: Fn(&L) -> (f64, f64),
{
    ctx.begin();
    let t_total = Instant::now();
    let rq = query.region();
    let k = query.k();
    let mode = query.refine_mode();

    ctx.frontier.push(RankItem {
        upper: 1.0,
        target: RankTarget::Node(tree.root_page(), tree.height() - 1),
    });
    // Staging buffers for one node expansion (the two `read_node`
    // callbacks each own one, the frontier absorbs both afterwards).
    let mut staged_nodes: Vec<RankItem> = Vec::new();
    let mut staged_objs: Vec<RankItem> = Vec::new();

    while let Some(item) = ctx.frontier.pop() {
        // An object's own lower bound must not defend it against itself.
        if let RankTarget::Object { id, lb, .. } = item.target {
            ctx.pending.remove(&(lb.to_bits(), id));
        }
        let tau = kth_bound(&ctx.ranked, &ctx.pending, k);
        if item.upper < tau {
            // The frontier pops in descending upper-bound order, so every
            // remaining node/object is provably outside the top k — and
            // all pending lower bounds sit below `tau` too, which means
            // the k bounds at or above it are exact hits already.
            break;
        }
        match item.target {
            RankTarget::Node(page, level) => {
                let QueryCtx {
                    stats,
                    frontier,
                    pending,
                    ranked,
                    ..
                } = &mut *ctx;
                stats.node_reads += 1;
                tree.read_node(
                    page,
                    level,
                    |key, child| {
                        let b = node_upper(key).min(item.upper);
                        // Strict pruning only: a subtree tying `tau` may
                        // still hold an object that ties into the top k.
                        if b > 0.0 && b >= tau {
                            staged_nodes.push(RankItem {
                                upper: b,
                                target: RankTarget::Node(child, level - 1),
                            });
                        }
                    },
                    |rec| {
                        stats.visited += 1;
                        if rq.contains_rect(rec.mbr()) {
                            // Pinned to P = 1 by the MBR alone — the one
                            // refinement-free report, identical on every
                            // backend because it ignores the tightness of
                            // the PCR approximation at hand.
                            stats.validated += 1;
                            push_hit(ranked, k, RankedMatch::validated(rec.oid()));
                            return;
                        }
                        let (lb, ub) = entry_bounds(rec);
                        let ub = ub.min(item.upper);
                        let lb = lb.min(ub);
                        if ub <= 0.0 {
                            stats.pruned += 1;
                            return;
                        }
                        stats.candidates += 1;
                        pending.insert((lb.to_bits(), rec.oid()));
                        staged_objs.push(RankItem {
                            upper: ub,
                            target: RankTarget::Object {
                                addr: rec.addr(),
                                id: rec.oid(),
                                lb,
                            },
                        });
                    },
                )?;
                frontier.extend(staged_nodes.drain(..));
                frontier.extend(staged_objs.drain(..));
            }
            RankTarget::Object { addr, id, .. } => {
                let (p, samples) = refine_one(heap, addr, id, rq, mode, ctx)?;
                if p > 0.0 {
                    push_hit(&mut ctx.ranked, k, RankedMatch::refined(id, p, samples));
                }
            }
        }
    }

    Ok(finish(ctx, t_total))
}

/// Assembles the outcome from a context's ranked hits (shared with the
/// sequential-scan oracle) and settles the wall-clock split.
pub(crate) fn finish(ctx: &mut QueryCtx, t_total: Instant) -> RankOutcome {
    let matches = ctx.ranked.clone();
    ctx.stats.results = matches.len() as u64;
    ctx.stats.filter_nanos = t_total
        .elapsed()
        .as_nanos()
        .saturating_sub(ctx.stats.refine_nanos);
    RankOutcome {
        matches,
        stats: ctx.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(p: f64, id: u64) -> RankedMatch {
        RankedMatch::refined(id, p, 0)
    }

    #[test]
    fn push_hit_keeps_descending_order_capped_at_k() {
        let mut ranked = Vec::new();
        for (p, id) in [(0.4, 1), (0.9, 2), (0.6, 3), (0.9, 0), (0.5, 4)] {
            push_hit(&mut ranked, 3, hit(p, id));
        }
        let got: Vec<(f64, u64)> = ranked.iter().map(|h| (h.p, h.id)).collect();
        // Ties (0.9) order by ascending id; 0.5 and 0.4 fell off the cap.
        assert_eq!(got, vec![(0.9, 0), (0.9, 2), (0.6, 3)]);
    }

    #[test]
    fn push_hit_places_ties_exactly_as_rank_order_says() {
        // Equal probabilities pushed in a scrambled order come out by
        // ascending id — the order `rank_order` states, nothing else.
        let mut ranked = Vec::new();
        for id in [5, 1, 9, 3, 7] {
            push_hit(&mut ranked, 4, hit(0.5, id));
        }
        let ids: Vec<u64> = ranked.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![1, 3, 5, 7]);
        assert!(ranked
            .windows(2)
            .all(|w| rank_order(&w[0], &w[1]) == Ordering::Less));
        assert_eq!(rank_order(&hit(0.5, 2), &hit(0.5, 2)), Ordering::Equal);
        assert_eq!(rank_order(&hit(0.6, 9), &hit(0.5, 1)), Ordering::Less);
    }

    #[test]
    fn kth_bound_merges_exact_and_pending() {
        let ranked = vec![hit(0.8, 1), hit(0.3, 2)];
        let mut pending = BTreeSet::new();
        pending.insert((0.5f64.to_bits(), 7));
        pending.insert((0.1f64.to_bits(), 8));
        // Merged descending: 0.8, 0.5, 0.3, 0.1.
        assert_eq!(kth_bound(&ranked, &pending, 1), 0.8);
        assert_eq!(kth_bound(&ranked, &pending, 2), 0.5);
        assert_eq!(kth_bound(&ranked, &pending, 3), 0.3);
        assert_eq!(kth_bound(&ranked, &pending, 4), 0.1);
        // Fewer than k known bounds: every upper bound must beat it.
        assert_eq!(kth_bound(&ranked, &pending, 5), -1.0);
    }

    #[test]
    fn rank_items_order_by_upper_bound_then_kind() {
        let node = |upper: f64, page: u64| RankItem {
            upper,
            target: RankTarget::Node(page, 0),
        };
        let obj = |upper: f64, id: u64| RankItem {
            upper,
            target: RankTarget::Object {
                addr: RecordAddr { page: 0, slot: 0 },
                id,
                lb: 0.0,
            },
        };
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(node(0.5, 1));
        heap.push(obj(0.9, 10));
        heap.push(node(0.9, 2));
        heap.push(obj(0.2, 11));
        // Highest bound first; at equal bounds the object pops before the
        // node (an exact result tightens tau sooner).
        assert!(matches!(
            heap.pop().unwrap().target,
            RankTarget::Object { id: 10, .. }
        ));
        assert!(matches!(heap.pop().unwrap().target, RankTarget::Node(2, _)));
        assert!(matches!(heap.pop().unwrap().target, RankTarget::Node(1, _)));
        assert!(matches!(
            heap.pop().unwrap().target,
            RankTarget::Object { id: 11, .. }
        ));
    }
}
