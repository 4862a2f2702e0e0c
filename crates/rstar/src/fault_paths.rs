//! Regression tests for the fallible paths: every I/O call site
//! converted away from `unwrap()` must surface an injected [`FaultStore`]
//! error as `Err` instead of panicking, and every reader of a corrupt node
//! page must return `InvalidData` naming it.

use crate::rect_tree::{RectCodec, RectLeaf, RectMetrics};
use crate::{str_order_by, NodeCodec, RStarTreeBase, TreeConfig};
use page_store::{FaultMode, FaultStore, PageFile, PageId, PageStore, PAGE_SIZE};
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

/// A two-level tree of 1 000 STR-packed grid rectangles (six leaves under
/// the root), the page ids of its root and first leaf, and that leaf's
/// records.
fn two_level_tree() -> io::Result<(FaultTree, PageId, PageId, Vec<RectLeaf<2>>)> {
    let store = FaultStore::new(PageFile::new(), 0, FaultMode::Fail);
    let tree = bulk_tree(store, (0..1_000).map(leaf).collect())?;
    assert_eq!(tree.height(), 2);
    let root = tree.root_page();
    let mut leaves = Vec::new();
    tree.read_node(root, 1, |_, child| leaves.push(child), |_| {})?;
    let mut records = Vec::new();
    tree.read_node(leaves[0], 0, |_, _| {}, |r| records.push(*r))?;
    Ok((tree, root, leaves[0], records))
}

/// Rewrites node `page` of `tree` with `edit` applied to its bytes.
fn corrupt(
    tree: &mut FaultTree,
    page: PageId,
    edit: impl FnOnce(&mut [u8; PAGE_SIZE]),
) -> io::Result<()> {
    let mut bytes = [0u8; PAGE_SIZE];
    tree.store().peek_into(page, &mut bytes)?;
    edit(&mut bytes);
    tree.store_mut().write(page, &bytes)
}

/// `result` must be `InvalidData` naming `page`.
fn assert_refused<T: std::fmt::Debug>(op: &str, page: PageId, result: io::Result<T>) {
    let err = result.expect_err(op);
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{op}: {err}");
    assert!(
        err.to_string().contains(&format!("page {page}")),
        "{op}: error does not name page {page}: {err}"
    );
}

/// Every reader of a corrupt node page — the walk, a single-node read,
/// insert, delete, the stats walk and the invariant check — returns
/// `InvalidData` naming the page, whichever kind of node was corrupted and
/// however: a leaf claiming level 1, an inner node claiming level 0, and a
/// count of 0xFFFF on either.
#[test]
fn corrupt_node_pages_are_typed_errors() {
    type Edit = fn(&mut [u8; PAGE_SIZE]);
    let level_1: Edit = |b| b[0] = 1;
    let level_0: Edit = |b| b[0] = 0;
    let count_max: Edit = |b| b[1..3].copy_from_slice(&[0xFF, 0xFF]);
    for (case, corrupt_leaf, edit) in [
        ("leaf at level 1", true, level_1),
        ("inner at level 0", false, level_0),
        ("leaf count 0xFFFF", true, count_max),
        ("inner count 0xFFFF", false, count_max),
    ] {
        let (mut tree, root, leaf_page, records) = two_level_tree().unwrap();
        let (page, level) = if corrupt_leaf {
            (leaf_page, 0)
        } else {
            (root, 1)
        };
        corrupt(&mut tree, page, edit).unwrap();
        let everything = Rect::new([-1.0, -1.0], [2_000.0, 2_000.0]);
        let op = |name: &str| format!("{case}: {name}");
        assert_refused(&op("visit_with"), page, range(&tree, &everything));
        assert_refused(
            &op("read_node"),
            page,
            tree.read_node(page, level, |_, _| {}, |_| {}),
        );
        assert_refused(&op("stats"), page, tree.stats());
        assert_refused(&op("check_invariants"), page, tree.check_invariants());
        // A record of the corrupted leaf routes both updates through it.
        let r = records[0];
        assert_refused(&op("delete"), page, tree.delete(&r.rect, r.id));
        assert_refused(
            &op("insert"),
            page,
            tree.insert(RectLeaf {
                rect: r.rect,
                id: 1_000_000,
            }),
        );
    }
}
