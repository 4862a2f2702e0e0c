//! Integration tests pinning the paper's qualitative claims — the "shape"
//! of the evaluation that any reproduction must preserve.

use utree_repro::prelude::*;

fn build_pair(n: usize) -> (UTree<2>, UPcrTree<2>, Vec<UncertainObject<2>>) {
    let objs = datagen::lb_dataset(n, 11);
    let mut tree = UTree::<2>::builder().build().expect("valid default");
    let mut upcr = UPcrTree::<2>::builder().build().expect("valid default");
    tree.bulk_load(&objs);
    upcr.bulk_load(&objs);
    (tree, upcr, objs)
}

/// Table 1's headline: "U-trees are much smaller due to their greater node
/// capacities" — CFBs (8d values) vs m PCRs (2d·m values).
#[test]
fn utree_is_substantially_smaller_than_upcr() {
    let (tree, upcr, _) = build_pair(4_000);
    let ratio = upcr.index_size_bytes() as f64 / tree.index_size_bytes() as f64;
    assert!(
        ratio > 1.5,
        "paper reports ~2.4x (11.9M/5.0M); got only {ratio:.2}x"
    );
}

/// Fig 9's I/O panels: the U-tree significantly outperforms U-PCR on node
/// accesses "in all cases, again due to its much larger node fanout".
#[test]
fn utree_beats_upcr_on_node_accesses() {
    let (tree, upcr, objs) = build_pair(6_000);
    let centers: Vec<Point<2>> = objs.iter().map(|o| o.mbr().center()).collect();
    let w = datagen::workload(&centers, 1_500.0, 0.6, 20, 3);
    let mut tree_io = 0u64;
    let mut upcr_io = 0u64;
    for q in &w.queries {
        let builder = q.refine(Refine::reference(1e-6));
        let a = builder.run(&tree).unwrap();
        let b = builder.run(&upcr).unwrap();
        assert_eq!(
            a.sorted_ids(),
            b.sorted_ids(),
            "result agreement is a precondition"
        );
        tree_io += a.stats.node_reads;
        upcr_io += b.stats.node_reads;
    }
    assert!(
        tree_io < upcr_io,
        "U-tree I/O {tree_io} must beat U-PCR {upcr_io}"
    );
}

/// Fig 9/10's CPU panels: most qualifying objects are reported without any
/// appearance-probability computation (the percentages atop the bars reach
/// 83–97% for 2D datasets at qs >= 1000).
#[test]
fn most_results_are_validated_without_integration() {
    let (tree, _, objs) = build_pair(6_000);
    let centers: Vec<Point<2>> = objs.iter().map(|o| o.mbr().center()).collect();
    let w = datagen::workload(&centers, 1_500.0, 0.6, 20, 5);
    let mut acc = QueryStats::default();
    for q in &w.queries {
        let outcome = q.refine(Refine::reference(1e-6)).run(&tree).unwrap();
        acc += &outcome.stats;
    }
    assert!(acc.results > 0);
    let frac = acc.directly_reported_fraction();
    assert!(
        frac > 0.5,
        "only {:.0}% of results validated for free (paper: 83–97%)",
        frac * 100.0
    );
}

/// Sec 6.2: U-PCR degrades when the catalog grows too large (fanout loss
/// dominates), so very large m must cost more I/O than a moderate m.
#[test]
fn upcr_io_grows_with_catalog_size() {
    let objs = datagen::lb_dataset(4_000, 13);
    let centers: Vec<Point<2>> = objs.iter().map(|o| o.mbr().center()).collect();
    let w = datagen::workload(&centers, 500.0, 0.5, 15, 9);
    let io_for = |m: usize| {
        let mut t = UPcrTree::<2>::builder().uniform_catalog(m).build().unwrap();
        t.bulk_load(&objs);
        let mut io = 0u64;
        for q in &w.queries {
            let outcome = q.refine(Refine::reference(1e-6)).run(&t).unwrap();
            io += outcome.stats.node_reads;
        }
        io
    };
    let small = io_for(3);
    let large = io_for(12);
    assert!(
        large > small,
        "m=12 I/O ({large}) should exceed m=3 I/O ({small}) — fat entries shrink fanout"
    );
}

/// The dynamic-structure claim: a U-tree built by random insertions and
/// thinned by deletions answers exactly like a freshly built one.
#[test]
fn incremental_equals_rebuilt() {
    let objs = datagen::ca_dataset(1_500, 21);
    let mut incremental = UTree::<2>::builder().uniform_catalog(10).build().unwrap();
    incremental.bulk_load(&objs);
    // Delete the middle third.
    for o in &objs[500..1000] {
        assert!(incremental.delete(o));
    }
    let mut rebuilt = UTree::<2>::builder().uniform_catalog(10).build().unwrap();
    rebuilt.bulk_load(objs[..500].iter().chain(objs[1000..].iter()));
    let centers: Vec<Point<2>> = objs.iter().map(|o| o.mbr().center()).collect();
    let w = datagen::workload(&centers, 1_200.0, 0.4, 15, 77);
    for q in &w.queries {
        let builder = q.refine(Refine::reference(1e-8));
        let a = builder.run(&incremental).unwrap().sorted_ids();
        let b = builder.run(&rebuilt).unwrap().sorted_ids();
        assert_eq!(a, b);
    }
}

/// Fig 7's premise: Monte-Carlo is expensive — and the filter's purpose is
/// to avoid it. On a typical workload the filter must decide the vast
/// majority of inspected leaf entries.
#[test]
fn filter_decides_most_inspected_entries() {
    let (tree, _, objs) = build_pair(6_000);
    let centers: Vec<Point<2>> = objs.iter().map(|o| o.mbr().center()).collect();
    let w = datagen::workload(&centers, 1_000.0, 0.6, 20, 31);
    let mut decided = 0u64;
    let mut undecided = 0u64;
    for q in &w.queries {
        let s = q.refine(Refine::reference(1e-6)).run(&tree).unwrap().stats;
        decided += s.pruned + s.validated;
        undecided += s.candidates;
        assert_eq!(s.visited, s.pruned + s.validated + s.candidates);
    }
    assert!(
        decided > 3 * undecided,
        "filter decided {decided}, left {undecided} to refinement"
    );
}
