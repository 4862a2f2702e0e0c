//! Property tests for the on-disk codecs: seeded-random objects (all pdf
//! families, including histograms with degenerate bins and zero-mass
//! regions, in 1/2/3 dimensions) must survive encode→decode byte-exactly,
//! and the rstar node codecs must round-trip whole pages of entries.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use utree_repro::index::entry::{UCodec, ULeafEntry, UPcrCodec, UPcrLeafEntry};
use utree_repro::index::object_codec::{decode_object, encode_object};
use utree_repro::index::{fit_cfb_pair, PcrSet};
use utree_repro::prelude::*;
use utree_repro::rstar::{InnerEntry, NodeCodec};
use utree_repro::store::{f32_round_down, f32_round_up, RecordAddr};

const CASES: usize = 120;

fn random_point<const D: usize>(rng: &mut SmallRng) -> Point<D> {
    let mut c = [0.0; D];
    for x in c.iter_mut() {
        *x = rng.gen_range(-5_000.0..5_000.0);
    }
    Point::new(c)
}

fn random_rect<const D: usize>(rng: &mut SmallRng) -> Rect<D> {
    let mut min = [0.0; D];
    let mut max = [0.0; D];
    for i in 0..D {
        let a = rng.gen_range(-5_000.0..5_000.0);
        min[i] = a;
        max[i] = a + rng.gen_range(0.5..800.0);
    }
    Rect { min, max }
}

/// A histogram with adversarial structure: some dimensions collapse to a
/// single (degenerate) bin, and a random subset of cells carries zero mass.
fn random_histogram<const D: usize>(rng: &mut SmallRng) -> HistogramPdf<D> {
    let rect = random_rect::<D>(rng);
    let mut bins = [1usize; D];
    for b in bins.iter_mut() {
        // gen_range(1..=4) keeps degenerate single-bin dimensions common.
        *b = rng.gen_range(1..=4usize);
    }
    let cells: usize = bins.iter().product();
    let mut weights: Vec<f64> = (0..cells)
        .map(|_| {
            if rng.gen_range(0..10u32) < 3 {
                0.0 // zero-mass region
            } else {
                rng.gen_range(0.01..5.0)
            }
        })
        .collect();
    // At least one cell must carry mass.
    let idx = rng.gen_range(0..cells);
    weights[idx] = weights[idx].max(0.5);
    HistogramPdf::new(rect, bins, weights)
}

fn random_object<const D: usize>(id: u64, rng: &mut SmallRng) -> UncertainObject<D> {
    let pdf = match rng.gen_range(0..4u32) {
        0 => ObjectPdf::UniformBall {
            center: random_point(rng),
            radius: rng.gen_range(0.5..400.0),
        },
        1 => ObjectPdf::UniformBox {
            rect: random_rect(rng),
        },
        2 => ObjectPdf::ConGauBall {
            center: random_point(rng),
            radius: rng.gen_range(1.0..400.0),
            sigma: rng.gen_range(0.5..200.0),
        },
        _ => ObjectPdf::Histogram(random_histogram(rng)),
    };
    UncertainObject::new(id, pdf)
}

fn check_roundtrips<const D: usize>(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for id in 0..CASES as u64 {
        let obj = random_object::<D>(id, &mut rng);
        let bytes = encode_object(&obj);
        let back = decode_object::<D>(&bytes);
        assert_eq!(back, obj, "object codec round trip failed (D={D}, id={id})");
        // Encoding is deterministic: same object, same bytes.
        assert_eq!(encode_object(&back), bytes);
    }
}

#[test]
fn object_codec_roundtrips_random_objects_1d() {
    check_roundtrips::<1>(101);
}

#[test]
fn object_codec_roundtrips_random_objects_2d() {
    check_roundtrips::<2>(202);
}

#[test]
fn object_codec_roundtrips_random_objects_3d() {
    check_roundtrips::<3>(303);
}

/// A random ball prepared exactly like `UTree::insert` prepares entries:
/// PCRs → CFB pair → outward-rounded MBR, all f32-exact on the page.
fn random_uleaf_entry<const D: usize>(
    id: u64,
    catalog: &Arc<UCatalog>,
    rng: &mut SmallRng,
) -> ULeafEntry<D> {
    let pdf: ObjectPdf<D> = ObjectPdf::UniformBall {
        center: random_point(rng),
        radius: rng.gen_range(10.0..400.0),
    };
    let pcrs = PcrSet::compute(&pdf, catalog);
    let cfbs = fit_cfb_pair(&pcrs, catalog);
    let raw = pdf.mbr();
    let mut mbr = raw;
    for i in 0..D {
        mbr.min[i] = f32_round_down(raw.min[i]);
        mbr.max[i] = f32_round_up(raw.max[i]);
    }
    let addr = RecordAddr {
        page: rng.gen_range(0..1_000u64),
        slot: rng.gen_range(0..64u16),
    };
    ULeafEntry::new(cfbs, mbr, addr, id, catalog)
}

#[test]
fn utree_node_codec_roundtrips_random_pages() {
    let catalog = Arc::new(UCatalog::paper_utree_default());
    let codec = UCodec::<2>::new(catalog.clone());
    let mut rng = SmallRng::seed_from_u64(77);
    for round in 0..20 {
        let n = rng.gen_range(1..=codec.leaf_capacity());
        let entries: Vec<ULeafEntry<2>> = (0..n as u64)
            .map(|id| random_uleaf_entry(id, &catalog, &mut rng))
            .collect();
        let mut bytes = Vec::new();
        codec.encode_leaf(&entries, &mut bytes);
        assert!(bytes.len() < utree_repro::store::PAGE_SIZE);
        let back = codec.decode_leaf(&bytes).unwrap();
        assert_eq!(back, entries, "leaf page round trip failed (round {round})");

        // Inner entries: keys round outward, so the decoded key must cover
        // the original within an f32 ulp.
        let inner: Vec<InnerEntry<_>> = entries
            .iter()
            .map(|e| {
                use utree_repro::rstar::LeafRecord;
                InnerEntry {
                    key: e.key(),
                    child: e.id * 3 + 1,
                }
            })
            .collect();
        let mut ibytes = Vec::new();
        codec.encode_inner(&inner, &mut ibytes);
        let iback = codec.decode_inner(&ibytes).unwrap();
        assert_eq!(iback.len(), inner.len());
        for (got, want) in iback.iter().zip(&inner) {
            assert_eq!(got.child, want.child);
            for i in 0..2 {
                assert!(got.key.lo.min[i] <= want.key.lo.min[i]);
                assert!(got.key.lo.max[i] >= want.key.lo.max[i]);
                assert!(got.key.hi.min[i] <= want.key.hi.min[i]);
                assert!(got.key.hi.max[i] >= want.key.hi.max[i]);
            }
        }
    }
}

#[test]
fn upcr_node_codec_roundtrips_random_pages() {
    let catalog = Arc::new(UCatalog::uniform(9));
    let codec = UPcrCodec::<2>::new(catalog.clone());
    let mut rng = SmallRng::seed_from_u64(99);
    for round in 0..20 {
        let n = rng.gen_range(1..=codec.leaf_capacity());
        let entries: Vec<UPcrLeafEntry<2>> = (0..n as u64)
            .map(|id| {
                let pdf: ObjectPdf<2> = ObjectPdf::UniformBall {
                    center: random_point(&mut rng),
                    radius: rng.gen_range(10.0..400.0),
                };
                let pcrs = PcrSet::compute(&pdf, &catalog);
                // Round to the stored f32 values first (as UPcrTree does)
                // so equality after decoding is exact.
                let rounded = PcrSet::from_rects(
                    pcrs.rects()
                        .iter()
                        .map(|r| {
                            let mut min = [0.0; 2];
                            let mut max = [0.0; 2];
                            for i in 0..2 {
                                min[i] = r.min[i] as f32 as f64;
                                max[i] = r.max[i] as f32 as f64;
                                if min[i] > max[i] {
                                    std::mem::swap(&mut min[i], &mut max[i]);
                                }
                            }
                            Rect { min, max }
                        })
                        .collect(),
                );
                let raw = pdf.mbr();
                UPcrLeafEntry {
                    pcrs: rounded,
                    mbr: Rect {
                        min: [f32_round_down(raw.min[0]), f32_round_down(raw.min[1])],
                        max: [f32_round_up(raw.max[0]), f32_round_up(raw.max[1])],
                    },
                    addr: RecordAddr {
                        page: rng.gen_range(0..500u64),
                        slot: rng.gen_range(0..32u16),
                    },
                    id,
                }
            })
            .collect();
        let mut bytes = Vec::new();
        codec.encode_leaf(&entries, &mut bytes);
        let back = codec.decode_leaf(&bytes).unwrap();
        assert_eq!(
            back, entries,
            "U-PCR leaf round trip failed (round {round})"
        );
    }
}

/// Decoded objects must not just be equal — they must *behave* equally:
/// the appearance probability drives query answers after a reopen.
#[test]
fn decoded_objects_preserve_appearance_probabilities() {
    let mut rng = SmallRng::seed_from_u64(55);
    for id in 0..30u64 {
        let obj = random_object::<2>(id, &mut rng);
        let back = decode_object::<2>(&encode_object(&obj));
        let rq = Rect::cube(&obj.mbr().center(), rng.gen_range(50.0..1_000.0));
        let p0 = utree_repro::pdf::appearance_reference(&obj.pdf, &rq, 1e-9);
        let p1 = utree_repro::pdf::appearance_reference(&back.pdf, &rq, 1e-9);
        assert_eq!(p0, p1, "object {id} changed behaviour through the codec");
    }
}

/// `page` mutated 500 seeded ways — bytes flipped, the count replaced,
/// the tail cut — each of which `decode` reads or refuses as
/// `InvalidData`, never panicking.
fn sweep_mutations<T>(page: &[u8], seed: u64, decode: impl Fn(&[u8]) -> std::io::Result<Vec<T>>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for round in 0..500 {
        let mut m = page.to_vec();
        let how = rng.gen_range(0..4u32);
        if how & 1 == 0 {
            for _ in 0..rng.gen_range(1..8) {
                let at = rng.gen_range(0..m.len());
                m[at] ^= rng.gen_range(1..=255u8);
            }
        }
        if how == 1 || how == 3 {
            m[..2].copy_from_slice(&rng.gen_range(0..=u16::MAX).to_le_bytes());
        }
        if how >= 2 {
            m.truncate(rng.gen_range(0..=m.len()));
        }
        if let Err(e) = decode(&m) {
            assert_eq!(
                e.kind(),
                std::io::ErrorKind::InvalidData,
                "round {round}: {e}"
            );
        }
    }
}

/// Encoded U-tree and U-PCR pages, leaf and inner, mutated: every decode
/// is `Ok` or `InvalidData` (a count over the page's capacity or past its
/// bytes is refused before any entry is read).
#[test]
fn node_codecs_decode_or_refuse_mutated_pages() {
    use utree_repro::rstar::LeafRecord;
    let mut rng = SmallRng::seed_from_u64(43);
    let catalog = Arc::new(UCatalog::paper_utree_default());
    let ucodec = UCodec::<2>::new(catalog.clone());
    let leaves: Vec<ULeafEntry<2>> = (0..30)
        .map(|id| random_uleaf_entry(id, &catalog, &mut rng))
        .collect();
    let inner: Vec<_> = leaves
        .iter()
        .map(|e| InnerEntry {
            key: e.key(),
            child: e.id,
        })
        .collect();
    let (mut leaf_page, mut inner_page) = (Vec::new(), Vec::new());
    ucodec.encode_leaf(&leaves, &mut leaf_page);
    ucodec.encode_inner(&inner, &mut inner_page);
    sweep_mutations(&leaf_page, 1, |b| ucodec.decode_leaf(b));
    sweep_mutations(&inner_page, 2, |b| ucodec.decode_inner(b));

    let catalog = Arc::new(UCatalog::uniform(9));
    let pcodec = UPcrCodec::<2>::new(catalog.clone());
    let leaves: Vec<UPcrLeafEntry<2>> = (0..10u64)
        .map(|id| UPcrLeafEntry {
            pcrs: PcrSet::from_rects((0..9).map(|_| random_rect(&mut rng)).collect()),
            mbr: random_rect(&mut rng),
            addr: RecordAddr { page: id, slot: 0 },
            id,
        })
        .collect();
    let inner: Vec<_> = leaves
        .iter()
        .map(|e| InnerEntry {
            key: e.key(),
            child: e.id,
        })
        .collect();
    let (mut leaf_page, mut inner_page) = (Vec::new(), Vec::new());
    pcodec.encode_leaf(&leaves, &mut leaf_page);
    pcodec.encode_inner(&inner, &mut inner_page);
    sweep_mutations(&leaf_page, 3, |b| pcodec.decode_leaf(b));
    sweep_mutations(&inner_page, 4, |b| pcodec.decode_inner(b));
}
