//! Leaf entries and their codecs for the U-tree and U-PCR.
//!
//! Each codec encodes one entry; the node page around it (level byte,
//! count, entry loop, capacity) belongs to [`rstar_base`] (see
//! [`rstar_base::NodeCodec`]).
//!
//! Sec 5.1: "A leaf entry contains the `o.cfb_out` and `o.cfb_in` of an
//! object `o`, the MBR of its uncertainty region `o.ur`, together with a
//! disk address where the details of `o.ur` and the parameters of `o.pdf`
//! are stored." U-PCR replaces the two CFBs with all m PCRs — that size
//! difference (8d vs 2d·m values) is the paper's Table 1 story.

use crate::catalog::UCatalog;
use crate::cfb::CfbPair;
use crate::key::{PcrKey, UKey};
use crate::pcr::PcrSet;
use page_store::{ByteReader, ByteWriter, PageId, RecordAddr};
use rstar_base::{InnerEntry, LeafRecord, NodeCodec};
use std::sync::Arc;
use uncertain_geom::Rect;

/// A U-tree leaf entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ULeafEntry<const D: usize> {
    /// The object's conservative functional boxes (f32-exact values).
    pub cfbs: CfbPair<D>,
    /// MBR of the uncertainty region (f32-exact, outward-rounded).
    pub mbr: Rect<D>,
    /// Heap address of the object's pdf record.
    pub addr: RecordAddr,
    /// Object identifier.
    pub id: u64,
    /// Derived bounding key (`cfb_out` evaluated at `p₁` and `p_m`);
    /// not serialised.
    key: UKey<D>,
}

impl<const D: usize> ULeafEntry<D> {
    /// Builds an entry; `cfbs` and `mbr` must already be conservatively
    /// f32-rounded (see [`crate::cfb::Cfb::round_outward`]) so that the key
    /// derived here is byte-identical after an encode/decode round trip.
    pub fn new(
        cfbs: CfbPair<D>,
        mbr: Rect<D>,
        addr: RecordAddr,
        id: u64,
        catalog: &UCatalog,
    ) -> Self {
        Self {
            key: Self::key_of(&cfbs, catalog),
            cfbs,
            mbr,
            addr,
            id,
        }
    }

    /// The bounding key an entry holding `cfbs` contributes to its node:
    /// `cfb_out` evaluated at `p₁` and `p_m`.
    pub fn key_of(cfbs: &CfbPair<D>, catalog: &UCatalog) -> UKey<D> {
        UKey {
            lo: cfbs.outer.eval(catalog.first()),
            hi: cfbs.outer.eval(catalog.last()),
        }
    }
}

impl<const D: usize> LeafRecord<UKey<D>> for ULeafEntry<D> {
    fn key(&self) -> UKey<D> {
        self.key
    }

    fn id(&self) -> u64 {
        self.id
    }
}

fn put_rect<const D: usize>(w: &mut ByteWriter, r: &Rect<D>) {
    for i in 0..D {
        w.put_f32(r.min[i]);
    }
    for i in 0..D {
        w.put_f32(r.max[i]);
    }
}

/// Writes a bounding rectangle with outward f32 rounding.
///
/// U-tree inner keys hold CFB evaluations at `p_m`, which are f64 products
/// not generally f32-representable; nearest rounding could shrink a bound
/// below a child's box and break the bounding invariant by an ulp.
fn put_rect_outward<const D: usize>(w: &mut ByteWriter, r: &Rect<D>) {
    for i in 0..D {
        w.put_f32(page_store::f32_round_down(r.min[i]));
    }
    for i in 0..D {
        w.put_f32(page_store::f32_round_up(r.max[i]));
    }
}

fn get_rect<const D: usize>(r: &mut ByteReader<'_>) -> Rect<D> {
    let mut min = [0.0; D];
    let mut max = [0.0; D];
    for m in min.iter_mut() {
        *m = r.get_f32();
    }
    for m in max.iter_mut() {
        *m = r.get_f32();
    }
    for i in 0..D {
        if min[i] > max[i] {
            std::mem::swap(&mut min[i], &mut max[i]);
        }
    }
    Rect { min, max }
}

fn put_addr(w: &mut ByteWriter, a: &RecordAddr) {
    w.put_u64(a.page);
    w.put_u16(a.slot);
}

fn get_addr(r: &mut ByteReader<'_>) -> RecordAddr {
    RecordAddr {
        page: r.get_u64() as PageId,
        slot: r.get_u16(),
    }
}

/// Entry codec for U-tree nodes.
///
/// Leaf entry: 8·D f32 (both CFBs) + 2·D f32 (MBR) + 10 B addr + 8 B id.
/// Inner entry: 4·D f32 (`MBR⊥`, `MBR̄`) + 8 B child pointer.
#[derive(Debug, Clone)]
pub struct UCodec<const D: usize> {
    catalog: Arc<UCatalog>,
}

impl<const D: usize> UCodec<D> {
    /// Codec bound to a catalog (needed to re-derive leaf keys on decode).
    pub fn new(catalog: Arc<UCatalog>) -> Self {
        Self { catalog }
    }

    fn put_cfb(w: &mut ByteWriter, c: &crate::cfb::Cfb<D>) {
        put_rect(w, &c.alpha);
        for i in 0..D {
            w.put_f32(c.beta_lo[i]);
        }
        for i in 0..D {
            w.put_f32(c.beta_hi[i]);
        }
    }

    fn get_cfb(r: &mut ByteReader<'_>) -> crate::cfb::Cfb<D> {
        // Alpha needs raw reads: a CFB alpha is a valid Rect, but the
        // generic get_rect's inversion repair must not kick in here.
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for m in min.iter_mut() {
            *m = r.get_f32();
        }
        for m in max.iter_mut() {
            *m = r.get_f32();
        }
        let mut beta_lo = [0.0; D];
        let mut beta_hi = [0.0; D];
        for b in beta_lo.iter_mut() {
            *b = r.get_f32();
        }
        for b in beta_hi.iter_mut() {
            *b = r.get_f32();
        }
        crate::cfb::Cfb {
            alpha: Rect { min, max },
            beta_lo,
            beta_hi,
        }
    }
}

impl<const D: usize> NodeCodec<UKey<D>, ULeafEntry<D>> for UCodec<D> {
    fn leaf_entry_size(&self) -> usize {
        8 * D * 4 + 2 * D * 4 + 10 + 8
    }

    fn inner_entry_size(&self) -> usize {
        4 * D * 4 + 8
    }

    fn put_leaf(&self, e: &ULeafEntry<D>, w: &mut ByteWriter) {
        Self::put_cfb(w, &e.cfbs.outer);
        Self::put_cfb(w, &e.cfbs.inner);
        put_rect(w, &e.mbr);
        put_addr(w, &e.addr);
        w.put_u64(e.id);
    }

    fn get_leaf(&self, r: &mut ByteReader<'_>) -> ULeafEntry<D> {
        let outer = Self::get_cfb(r);
        let inner = Self::get_cfb(r);
        let mbr = get_rect(r);
        let addr = get_addr(r);
        let id = r.get_u64();
        ULeafEntry::new(CfbPair { outer, inner }, mbr, addr, id, &self.catalog)
    }

    fn put_inner(&self, e: &InnerEntry<UKey<D>>, w: &mut ByteWriter) {
        put_rect_outward(w, &e.key.lo);
        put_rect_outward(w, &e.key.hi);
        w.put_u64(e.child);
    }

    fn get_inner(&self, r: &mut ByteReader<'_>) -> InnerEntry<UKey<D>> {
        let lo = get_rect(r);
        let hi = get_rect(r);
        InnerEntry {
            key: UKey { lo, hi },
            child: r.get_u64(),
        }
    }
}

/// A U-PCR leaf entry: the m PCRs stored verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct UPcrLeafEntry<const D: usize> {
    /// The object's PCRs at every catalog value (f32-exact).
    pub pcrs: PcrSet<D>,
    /// MBR of the uncertainty region.
    pub mbr: Rect<D>,
    /// Heap address of the object's pdf record.
    pub addr: RecordAddr,
    /// Object identifier.
    pub id: u64,
}

impl<const D: usize> LeafRecord<PcrKey<D>> for UPcrLeafEntry<D> {
    fn key(&self) -> PcrKey<D> {
        PcrKey {
            rects: self.pcrs.rects().to_vec(),
        }
    }

    fn id(&self) -> u64 {
        self.id
    }
}

/// Entry codec for U-PCR nodes.
///
/// Leaf entry: 2·D·m f32 (PCRs) + 2·D f32 (MBR) + 10 B addr + 8 B id.
/// Inner entry: 2·D·m f32 + 8 B child — the fanout penalty of Sec 4.3.
#[derive(Debug, Clone)]
pub struct UPcrCodec<const D: usize> {
    catalog: Arc<UCatalog>,
}

impl<const D: usize> UPcrCodec<D> {
    /// Codec bound to a catalog (supplies m).
    pub fn new(catalog: Arc<UCatalog>) -> Self {
        Self { catalog }
    }
}

impl<const D: usize> NodeCodec<PcrKey<D>, UPcrLeafEntry<D>> for UPcrCodec<D> {
    fn leaf_entry_size(&self) -> usize {
        2 * D * 4 * self.catalog.len() + 2 * D * 4 + 10 + 8
    }

    fn inner_entry_size(&self) -> usize {
        2 * D * 4 * self.catalog.len() + 8
    }

    fn put_leaf(&self, e: &UPcrLeafEntry<D>, w: &mut ByteWriter) {
        debug_assert_eq!(e.pcrs.len(), self.catalog.len());
        for r in e.pcrs.rects() {
            put_rect(w, r);
        }
        put_rect(w, &e.mbr);
        put_addr(w, &e.addr);
        w.put_u64(e.id);
    }

    fn get_leaf(&self, r: &mut ByteReader<'_>) -> UPcrLeafEntry<D> {
        let rects: Vec<Rect<D>> = (0..self.catalog.len()).map(|_| get_rect(r)).collect();
        UPcrLeafEntry {
            pcrs: PcrSet::from_rects(rects),
            mbr: get_rect(r),
            addr: get_addr(r),
            id: r.get_u64(),
        }
    }

    fn put_inner(&self, e: &InnerEntry<PcrKey<D>>, w: &mut ByteWriter) {
        debug_assert_eq!(e.key.rects.len(), self.catalog.len());
        for r in &e.key.rects {
            put_rect(w, r);
        }
        w.put_u64(e.child);
    }

    fn get_inner(&self, r: &mut ByteReader<'_>) -> InnerEntry<PcrKey<D>> {
        let rects: Vec<Rect<D>> = (0..self.catalog.len()).map(|_| get_rect(r)).collect();
        InnerEntry {
            key: PcrKey { rects },
            child: r.get_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfb::fit_cfb_pair;
    use uncertain_geom::Point;
    use uncertain_pdf::ObjectPdf;

    fn sample_entry(cat: &Arc<UCatalog>) -> ULeafEntry<2> {
        let pdf: ObjectPdf<2> = ObjectPdf::UniformBall {
            center: Point::new([5000.0, 5000.0]),
            radius: 250.0,
        };
        let pcrs = PcrSet::compute(&pdf, cat);
        let cfbs = fit_cfb_pair(&pcrs, cat);
        let mbr = Rect {
            min: [
                page_store::f32_round_down(pdf.mbr().min[0]),
                page_store::f32_round_down(pdf.mbr().min[1]),
            ],
            max: [
                page_store::f32_round_up(pdf.mbr().max[0]),
                page_store::f32_round_up(pdf.mbr().max[1]),
            ],
        };
        ULeafEntry::new(cfbs, mbr, RecordAddr { page: 7, slot: 3 }, 42, cat)
    }

    #[test]
    fn utree_leaf_roundtrip_is_exact() {
        let cat = Arc::new(UCatalog::paper_utree_default());
        let codec = UCodec::<2>::new(cat.clone());
        let e = sample_entry(&cat);
        let mut bytes = Vec::new();
        codec.encode_leaf(std::slice::from_ref(&e), &mut bytes);
        let back = codec.decode_leaf(&bytes).unwrap();
        assert_eq!(back.len(), 1);
        // Pre-rounded values survive the f32 narrowing byte-exactly, so the
        // whole entry (including the derived key) must be identical.
        assert_eq!(back[0], e);
        assert_eq!(back[0].key(), e.key());
    }

    #[test]
    fn utree_inner_roundtrip() {
        let cat = Arc::new(UCatalog::paper_utree_default());
        let codec = UCodec::<2>::new(cat.clone());
        let e = sample_entry(&cat);
        let inner = vec![
            InnerEntry {
                key: e.key(),
                child: 11,
            },
            InnerEntry {
                key: e.key(),
                child: 12,
            },
        ];
        let mut bytes = Vec::new();
        codec.encode_inner(&inner, &mut bytes);
        let back = codec.decode_inner(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        // Inner keys round outward: the decoded key must cover the
        // original (bounding invariant) and stay within an f32 ulp of it.
        for i in 0..2 {
            assert!(back[0].key.lo.min[i] <= inner[0].key.lo.min[i]);
            assert!(back[0].key.lo.max[i] >= inner[0].key.lo.max[i]);
            assert!(back[0].key.hi.min[i] <= inner[0].key.hi.min[i]);
            assert!(back[0].key.hi.max[i] >= inner[0].key.hi.max[i]);
            assert!((back[0].key.hi.min[i] - inner[0].key.hi.min[i]).abs() < 1e-2);
        }
        assert_eq!(back[1].child, 12);
    }

    #[test]
    fn capacities_match_paper_arithmetic() {
        // 2D U-tree: leaf entry = 16 CFB values + 4 MBR values (f32) + 18B
        // = 98B ⇒ 41 per page; inner = 8 values + 8B = 40B ⇒ 102.
        let cat = Arc::new(UCatalog::paper_utree_default());
        let codec = UCodec::<2>::new(cat.clone());
        assert_eq!(codec.leaf_entry_size(), 98);
        assert_eq!(codec.leaf_capacity(), 41);
        assert_eq!(codec.inner_entry_size(), 40);
        assert_eq!(codec.inner_capacity(), 102);
        // 2D U-PCR with the paper's m = 9: leaf entry = 36 PCR values + 4
        // MBR values + 18B = 178B ⇒ 22 per page; inner = 152B ⇒ 26. The
        // U-tree's fanout advantage is the whole point of CFBs.
        let cat9 = Arc::new(UCatalog::uniform(9));
        let pcodec = UPcrCodec::<2>::new(cat9);
        assert_eq!(pcodec.leaf_entry_size(), 178);
        assert_eq!(pcodec.leaf_capacity(), 22);
        assert_eq!(pcodec.inner_capacity(), 26);
    }

    #[test]
    fn upcr_leaf_roundtrip() {
        let cat = Arc::new(UCatalog::uniform(5));
        let codec = UPcrCodec::<2>::new(cat.clone());
        let pdf: ObjectPdf<2> = ObjectPdf::UniformBall {
            center: Point::new([100.0, 100.0]),
            radius: 50.0,
        };
        let pcrs = PcrSet::compute(&pdf, &cat);
        // Round PCRs to their stored f32 values first so equality is exact.
        let rounded = PcrSet::from_rects(
            pcrs.rects()
                .iter()
                .map(|r| Rect {
                    min: [r.min[0] as f32 as f64, r.min[1] as f32 as f64],
                    max: [r.max[0] as f32 as f64, r.max[1] as f32 as f64],
                })
                .collect(),
        );
        let e = UPcrLeafEntry {
            pcrs: rounded,
            mbr: Rect::new([50.0, 50.0], [150.0, 150.0]),
            addr: RecordAddr { page: 1, slot: 0 },
            id: 5,
        };
        let mut bytes = Vec::new();
        codec.encode_leaf(std::slice::from_ref(&e), &mut bytes);
        let back = codec.decode_leaf(&bytes).unwrap();
        assert_eq!(back[0], e);
    }
}
