//! Regression tests for the fallible-store paths: every I/O
//! call site converted away from `unwrap()` must surface an injected
//! [`FaultStore`] error as `Err` instead of panicking.

use crate::rect_tree::{RectCodec, RectLeaf, RectMetrics};
use crate::{str_order_by, NodeCodec, RStarTreeBase, TreeConfig};
use page_store::{FaultMode, FaultStore, PageFile};
use std::io;
use uncertain_geom::Rect;

type FaultTree = RStarTreeBase<2, RectMetrics<2>, RectLeaf<2>, RectCodec<2>, FaultStore<PageFile>>;

fn new_tree(store: FaultStore<PageFile>) -> io::Result<FaultTree> {
    RStarTreeBase::with_store(store, RectMetrics, RectCodec, TreeConfig::default())
}

/// STR-packs `data` onto `store` instead of inserting record by record.
fn bulk_tree(store: FaultStore<PageFile>, mut data: Vec<RectLeaf<2>>) -> io::Result<FaultTree> {
    let cap = NodeCodec::<Rect<2>, RectLeaf<2>>::leaf_capacity(&RectCodec::<2>);
    str_order_by(&mut data, cap, &|e: &RectLeaf<2>| e.rect.center().coords);
    let mut tree = new_tree(store)?;
    tree.bulk_rebuild_ordered(data)?;
    Ok(tree)
}

/// Conventional range query: ids of rectangles intersecting `query`.
fn range(tree: &FaultTree, query: &Rect<2>) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    tree.visit_with(
        &mut Vec::new(),
        |key, _| key.intersects(query),
        |rec| {
            if rec.rect.intersects(query) {
                out.push(rec.id);
            }
        },
    )?;
    Ok(out)
}

fn leaf(i: u64) -> RectLeaf<2> {
    let x = (i % 100) as f64 * 10.0;
    let y = (i / 100) as f64 * 10.0;
    RectLeaf {
        rect: Rect::new([x, y], [x + 5.0, y + 5.0]),
        id: i,
    }
}

/// A tree on a disarmed FaultStore behaves exactly like one on PageFile.
#[test]
fn disarmed_fault_store_is_a_clean_passthrough() {
    let store = FaultStore::new(PageFile::new(), 0, FaultMode::Fail);
    let mut tree = new_tree(store).expect("disarmed store");
    for i in 0..500 {
        tree.insert(leaf(i)).expect("disarmed insert");
    }
    assert_eq!(tree.len(), 500);
    let hits = range(&tree, &Rect::new([0.0, 0.0], [49.0, 49.0])).expect("disarmed range");
    assert!(!hits.is_empty());
    tree.check_invariants().unwrap();
}

/// A write fault mid-insert surfaces as `Err` from `insert`, not a
/// panic — the exact regression the xlint io-fallibility conversions fix.
#[test]
fn write_fault_surfaces_from_try_insert() {
    let store = FaultStore::new(PageFile::new(), 40, FaultMode::Fail);
    let mut tree = new_tree(store).expect("store healthy at build");
    let mut saw_err = false;
    for i in 0..5_000 {
        if tree.insert(leaf(i)).is_err() {
            saw_err = true;
            break;
        }
    }
    assert!(saw_err, "the injected write fault must reach the caller");
    assert!(tree.store().tripped());
}

/// A write fault during STR bulk construction surfaces from
/// `bulk_rebuild_ordered` (the split.rs/bulk path).
#[test]
fn write_fault_surfaces_from_bulk_load() {
    let store = FaultStore::new(PageFile::new(), 5, FaultMode::Fail);
    let data: Vec<RectLeaf<2>> = (0..10_000).map(leaf).collect();
    let err = bulk_tree(store, data);
    assert!(err.is_err(), "bulk build over a dying store must fail");
}

/// A torn (short) write also surfaces as an error rather than silently
/// persisting a corrupt page.
#[test]
fn short_write_surfaces_from_try_insert() {
    let store = FaultStore::new(PageFile::new(), 25, FaultMode::ShortWrite(64));
    let mut tree = new_tree(store).expect("store healthy at build");
    let mut saw_err = false;
    for i in 0..5_000 {
        if tree.insert(leaf(i)).is_err() {
            saw_err = true;
            break;
        }
    }
    assert!(saw_err, "the torn write must reach the caller");
}

/// `stats()` walks pages via the uncounted peek path; a read fault there
/// must come back as `Err` (this used to be an `unwrap()` inside the
/// walk).
#[test]
fn read_fault_surfaces_from_stats_walk() {
    let store = FaultStore::new(PageFile::new(), 0, FaultMode::Fail);
    let mut tree = new_tree(store).expect("disarmed store");
    for i in 0..2_000 {
        tree.insert(leaf(i)).expect("disarmed insert");
    }
    // Healthy store: the walk succeeds.
    let stats = tree.stats().expect("healthy stats walk");
    assert!(stats.total_nodes() > 1, "tree must have split");

    // Arm the read path: the walk must propagate the error.
    tree.store().arm_read_fault(1);
    assert!(
        tree.stats().is_err(),
        "stats() must surface the injected read fault"
    );
    assert!(tree.store().read_tripped());
}

/// A read fault during query descent surfaces from `visit_with`.
#[test]
fn read_fault_surfaces_from_try_range() {
    let store = FaultStore::new(PageFile::new(), 0, FaultMode::Fail);
    let mut tree = new_tree(store).expect("disarmed store");
    for i in 0..2_000 {
        tree.insert(leaf(i)).expect("disarmed insert");
    }
    tree.store().arm_read_fault(1);
    assert!(
        range(&tree, &Rect::new([0.0, 0.0], [990.0, 200.0])).is_err(),
        "the range visit must surface the injected read fault"
    );
}
