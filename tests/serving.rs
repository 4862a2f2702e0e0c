//! The multi-index serving engine, end to end: named sharded indexes in
//! one catalog directory must answer byte-identically to a single-tree
//! oracle — through scatter-gather, through save/open, and through WAL
//! crash recovery at every log cut — and the query service must
//! agree with direct execution.

mod common;

use std::path::{Path, PathBuf};

use utree_repro::prelude::*;
use utree_repro::store::Wal;

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("utree-serving-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Two scripted datasets, one per named index.
fn lb_objects(n: usize) -> Vec<UncertainObject<2>> {
    datagen::lb_dataset(n, 41)
}

fn ca_objects(n: usize) -> Vec<UncertainObject<2>> {
    datagen::lb_dataset(n, 43)
        .into_iter()
        .enumerate()
        .map(|(i, o)| UncertainObject::new(10_000 + i as u64, o.pdf))
        .collect()
}

fn oracle_tree(objects: &[UncertainObject<2>]) -> UTree<2> {
    let mut tree = UTree::<2>::builder()
        .uniform_catalog(8)
        .build()
        .expect("valid catalog");
    for o in objects {
        tree.insert(o);
    }
    tree
}

fn probe_range_queries() -> Vec<Query<2>> {
    let mode = Refine::reference(1e-6);
    vec![
        Query::range(Rect::new([1500.0, 1500.0], [5200.0, 5200.0]))
            .threshold(0.5)
            .refine(mode)
            .build()
            .unwrap(),
        Query::range(Rect::new([4800.0, 4800.0], [9000.0, 9000.0]))
            .threshold(0.3)
            .refine(mode)
            .build()
            .unwrap(),
        Query::range(Rect::new([0.0, 0.0], [10_000.0, 10_000.0]))
            .threshold(0.9)
            .refine(mode)
            .build()
            .unwrap(),
    ]
}

fn probe_rank_queries() -> Vec<RankQuery<2>> {
    vec![
        Query::range(Rect::new([1000.0, 1000.0], [6000.0, 6000.0]))
            .top(5)
            .refine(Refine::monte_carlo(3_000, 17))
            .build()
            .unwrap(),
        Query::range(Rect::new([2000.0, 2000.0], [9500.0, 9500.0]))
            .top(12)
            .refine(Refine::monte_carlo(3_000, 23))
            .build()
            .unwrap(),
    ]
}

/// Demands the sharded index answer every probe byte-identically (matches
/// and provenance; match order via [`canonicalize`]) to the oracle.
fn assert_matches_oracle<I: ProbIndex<2> + ?Sized>(index: &I, oracle: &UTree<2>, label: &str) {
    for q in &probe_range_queries() {
        let got = canonicalize(index.execute(q));
        let want = canonicalize(oracle.execute(q));
        assert_eq!(got.matches, want.matches, "{label}: range {:?}", q.region());
    }
    for q in &probe_rank_queries() {
        let got = index.rank_topk(q);
        let want = oracle.rank_topk(q);
        assert_eq!(got.matches, want.matches, "{label}: top-{}", q.k());
    }
}

/// Scatter-gather over a *disk-backed* catalog index equals the oracle for
/// every shard count, before and after save/open.
#[test]
fn sharded_catalog_answers_match_the_oracle_at_every_shard_count() {
    let objects = lb_objects(180);
    let oracle = oracle_tree(&objects);
    for shard_count in [1usize, 2, 4, 7] {
        let dir = temp_dir(&format!("shards-{shard_count}"));
        {
            let mut cat = IndexCatalog::<2>::create(&dir, 64).unwrap();
            cat.create_index(
                "lb",
                UCatalog::uniform(8),
                TreeConfig::default(),
                shard_count,
            )
            .unwrap();
            let index = cat.get_mut("lb").unwrap();
            for o in &objects {
                index.insert(o);
            }
            assert_matches_oracle(cat.get("lb").unwrap(), &oracle, "live");
            cat.flush().unwrap();
        }
        let cat = IndexCatalog::<2>::open(&dir, 64).unwrap();
        let index = cat.get("lb").unwrap();
        assert_eq!(index.shard_count(), shard_count);
        assert_eq!(index.len(), objects.len());
        assert_matches_oracle(index, &oracle, &format!("reopened x{shard_count}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A catalog holding several named indexes saves and opens as one unit:
/// definitions, shard layout and answers all survive.
#[test]
fn a_multi_index_catalog_survives_save_and_open() {
    let lb = lb_objects(150);
    let ca = ca_objects(120);
    let (lb_oracle, ca_oracle) = (oracle_tree(&lb), oracle_tree(&ca));
    let dir = temp_dir("multi");
    {
        let mut cat = IndexCatalog::<2>::create(&dir, 64).unwrap();
        cat.create_index("lb", UCatalog::uniform(8), TreeConfig::default(), 3)
            .unwrap();
        cat.create_index("ca", UCatalog::uniform(8), TreeConfig::default(), 2)
            .unwrap();
        for o in &lb {
            cat.get_mut("lb").unwrap().insert(o);
        }
        for o in &ca {
            cat.get_mut("ca").unwrap().insert(o);
        }
        cat.flush().unwrap();
    }

    let cat = IndexCatalog::<2>::open(&dir, 64).unwrap();
    assert_eq!(cat.names(), vec!["lb", "ca"]);
    let defs: Vec<_> = cat.defs().collect();
    assert_eq!(defs[0].shard_count, 3);
    assert_eq!(defs[1].shard_count, 2);
    assert_matches_oracle(cat.get("lb").unwrap(), &lb_oracle, "lb");
    assert_matches_oracle(cat.get("ca").unwrap(), &ca_oracle, "ca");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Catalog naming rules: 1–64 chars of `[A-Za-z0-9_.-]`, unique.
#[test]
fn index_names_are_validated_and_unique() {
    let dir = temp_dir("names");
    let mut cat = IndexCatalog::<2>::create(&dir, 16).unwrap();
    cat.create_index(
        "ok-name_1.x",
        UCatalog::uniform(4),
        TreeConfig::default(),
        1,
    )
    .unwrap();
    for bad in ["", "has space", "semi;colon", &"x".repeat(65)] {
        assert!(
            cat.create_index(bad, UCatalog::uniform(4), TreeConfig::default(), 1)
                .is_err(),
            "name {bad:?} must be rejected"
        );
    }
    assert!(
        cat.create_index(
            "ok-name_1.x",
            UCatalog::uniform(4),
            TreeConfig::default(),
            1
        )
        .is_err(),
        "duplicate names must be rejected"
    );
    assert!(
        cat.create_index("zero", UCatalog::uniform(4), TreeConfig::default(), 0)
            .is_err(),
        "zero shards must be rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole recovery property, lifted to the whole catalog: crash the
/// shared log anywhere — every frame boundary and a torn tail short of it
/// — and the reopened catalog must answer for *both* indexes exactly like
/// the oracles replaying the committed prefix. One commit marker covers
/// all indexes, so both always land on the same batch boundary.
#[test]
fn catalog_recovery_equals_a_committed_prefix_at_every_crash_point() {
    const BATCHES: usize = 4;
    let lb_all = lb_objects(BATCHES * 12);
    let ca_all = ca_objects(BATCHES * 9);

    let dir = temp_dir("crash");
    {
        let mut cat = IndexCatalog::<2>::create(&dir, 64).unwrap();
        cat.create_index("lb", UCatalog::uniform(8), TreeConfig::default(), 3)
            .unwrap();
        cat.create_index("ca", UCatalog::uniform(8), TreeConfig::default(), 2)
            .unwrap();
    }
    // The backend as the last DDL left it: both indexes empty, all
    // segment files named by catalog.pg, nothing in the log.
    let pristine = temp_dir("crash-pristine");
    copy_dir(&dir, &pristine);

    {
        let mut cat = IndexCatalog::<2>::open(&dir, 64).unwrap();
        for b in 0..BATCHES {
            for o in &lb_all[b * 12..(b + 1) * 12] {
                cat.get_mut("lb").unwrap().insert(o);
            }
            for o in &ca_all[b * 9..(b + 1) * 9] {
                cat.get_mut("ca").unwrap().insert(o);
            }
            cat.flush().unwrap();
        }
    }

    // Oracles per committed prefix k, per index.
    let oracles: Vec<(UTree<2>, UTree<2>)> = (0..=BATCHES)
        .map(|k| {
            (
                oracle_tree(&lb_all[..k * 12]),
                oracle_tree(&ca_all[..k * 9]),
            )
        })
        .collect();

    let frames = Wal::scan(dir.join("wal.log")).unwrap();
    let commit_ends: Vec<u64> = frames
        .iter()
        .filter(|f| f.is_commit())
        .map(|f| f.end)
        .collect();
    assert!(commit_ends.len() >= BATCHES);
    let committed_under = |cut: u64| commit_ends.iter().filter(|&&e| e <= cut).count();

    let mut crash_points = vec![8u64];
    for f in &frames {
        crash_points.push(f.end - 3);
        crash_points.push(f.end);
    }

    let scratch = temp_dir("crash-scratch");
    for &cut in &crash_points {
        let _ = std::fs::remove_dir_all(&scratch);
        copy_dir(&pristine, &scratch);
        std::fs::copy(dir.join("wal.log"), scratch.join("wal.log")).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.join("wal.log"))
            .unwrap()
            .set_len(cut)
            .unwrap();

        let k = committed_under(cut);
        let cat = IndexCatalog::<2>::open(&scratch, 64)
            .unwrap_or_else(|e| panic!("open after crash at byte {cut} failed: {e}"));
        let (lb_oracle, ca_oracle) = &oracles[k];
        let lb = cat.get("lb").unwrap();
        let ca = cat.get("ca").unwrap();
        assert_eq!(
            (lb.len(), ca.len()),
            (k * 12, k * 9),
            "crash at byte {cut} must recover exactly {k} committed batches in BOTH indexes"
        );
        assert_matches_oracle(lb, lb_oracle, &format!("crash at {cut}, lb"));
        assert_matches_oracle(ca, ca_oracle, &format!("crash at {cut}, ca"));
    }

    for d in [&dir, &pristine, &scratch] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The shared log's format, pinned: a two-index catalog session leaves a
/// log of this exact length holding these exact records per batch (sorted —
/// see [`common::wal_digest`]), every shard under its positional store tag
/// and one catalog record per commit.
#[test]
fn catalog_session_log_is_byte_stable() {
    let lb = lb_objects(48);
    let ca = ca_objects(36);
    let dir = temp_dir("pin-log");
    {
        let mut cat = IndexCatalog::<2>::create(&dir, 64).unwrap();
        cat.create_index("lb", UCatalog::uniform(8), TreeConfig::default(), 3)
            .unwrap();
        cat.create_index("ca", UCatalog::uniform(8), TreeConfig::default(), 2)
            .unwrap();
        for b in 0..4 {
            for o in &lb[b * 12..(b + 1) * 12] {
                cat.get_mut("lb").unwrap().insert(o);
            }
            for o in &ca[b * 9..(b + 1) * 9] {
                cat.get_mut("ca").unwrap().insert(o);
            }
            cat.flush().unwrap();
        }
    }
    let (len, batches) = common::wal_digest(&dir.join("wal.log"));
    assert_eq!(len, 166_662, "log length moved");
    let pinned = vec![
        (16, 2868566222603139398),
        (11, 1297727419677099611),
        (11, 1707270860996339490),
        (11, 6937823675171571652),
    ];
    assert_eq!(batches, pinned, "log records moved");
    let _ = std::fs::remove_dir_all(&dir);
}

/// DDL is snapshot-ordered, not journaled: an index created *after* the
/// last commit survives a crash as an empty index, while the committed
/// data of the older index recovers from the log.
#[test]
fn an_index_created_after_the_last_commit_survives_a_crash_empty() {
    let lb = lb_objects(60);
    let oracle = oracle_tree(&lb);
    let dir = temp_dir("ddl-crash");
    {
        let mut cat = IndexCatalog::<2>::create(&dir, 64).unwrap();
        cat.create_index("lb", UCatalog::uniform(8), TreeConfig::default(), 2)
            .unwrap();
        for o in &lb {
            cat.get_mut("lb").unwrap().insert(o);
        }
        cat.flush().unwrap();
        let committed = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        // DDL after the commit, then uncommitted inserts into both — the
        // "crash" truncates the log back to the last commit marker.
        cat.create_index("late", UCatalog::uniform(8), TreeConfig::default(), 2)
            .unwrap();
        for o in ca_objects(10).iter() {
            cat.get_mut("late").unwrap().insert(o);
            cat.get_mut("lb").unwrap().insert(o);
        }
        drop(cat);
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap()
            .set_len(committed)
            .unwrap();
    }

    let cat = IndexCatalog::<2>::open(&dir, 64).unwrap();
    assert_eq!(cat.names(), vec!["lb", "late"]);
    assert_eq!(cat.get("late").unwrap().len(), 0, "uncommitted rolls back");
    assert_eq!(cat.get("lb").unwrap().len(), 60);
    assert_matches_oracle(cat.get("lb").unwrap(), &oracle, "lb after ddl crash");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment's WAL store tag is its position in the catalog's segment
/// list; a `catalog.pg` claiming anything else — here one corrupted byte,
/// the second index's first tag — must be refused. Opened as written, the
/// next commit would journal `bb`'s pages under `aa`'s tags (or, for 255,
/// wrap around the tag space onto them) and the open after that would
/// replay them onto `aa`'s files.
#[test]
fn a_catalog_whose_wal_tags_do_not_tile_the_segment_list_is_refused() {
    let dir = temp_dir("tags");
    {
        let mut cat = IndexCatalog::<2>::create(&dir, 64).unwrap();
        cat.create_index("aa", UCatalog::uniform(8), TreeConfig::default(), 2)
            .unwrap();
        cat.create_index("bb", UCatalog::uniform(8), TreeConfig::default(), 1)
            .unwrap();
        for o in &lb_objects(200) {
            cat.get_mut("aa").unwrap().insert(o);
        }
        for o in &ca_objects(200) {
            cat.get_mut("bb").unwrap().insert(o);
        }
        cat.commit().unwrap();
        // No log record is left to cross-check the catalog against.
        cat.checkpoint().unwrap();
    }
    let healthy = std::fs::read(dir.join("catalog.pg")).unwrap();
    // `bb`'s record up to its tag: name, id 1, kind 0, first tag 4 (after
    // `aa`'s two shards). Checkpoints leave dead copies of the record in
    // freed pages; patching those too is harmless.
    let needle = b"\x02\x00bb\x01\x00\x00\x00\x00\x04";
    let tag_bytes: Vec<usize> = healthy
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| w == needle)
        .map(|(at, _)| at + needle.len() - 1)
        .collect();
    assert!(!tag_bytes.is_empty(), "catalog.pg must hold bb's record");

    for bad_tag in [0u8, 255] {
        let mut corrupt = healthy.clone();
        for &at in &tag_bytes {
            corrupt[at] = bad_tag;
        }
        std::fs::write(dir.join("catalog.pg"), &corrupt).unwrap();
        match IndexCatalog::<2>::open(&dir, 64) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
            Ok(_) => panic!("first tag {bad_tag} for bb must not open"),
        }
    }

    std::fs::write(dir.join("catalog.pg"), &healthy).unwrap();
    let cat = IndexCatalog::<2>::open(&dir, 64).unwrap();
    assert_matches_oracle(cat.get("aa").unwrap(), &oracle_tree(&lb_objects(200)), "aa");
    assert_matches_oracle(cat.get("bb").unwrap(), &oracle_tree(&ca_objects(200)), "bb");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint folds every index's log state into its segment snapshots,
/// truncates the shared log, and later commits keep recovering.
#[test]
fn catalog_checkpoint_truncates_the_shared_log_and_later_commits_survive() {
    let lb = lb_objects(80);
    let ca = ca_objects(50);
    let dir = temp_dir("ckpt");
    {
        let mut cat = IndexCatalog::<2>::create(&dir, 64).unwrap();
        cat.create_index("lb", UCatalog::uniform(8), TreeConfig::default(), 3)
            .unwrap();
        cat.create_index("ca", UCatalog::uniform(8), TreeConfig::default(), 2)
            .unwrap();
        for o in &lb[..40] {
            cat.get_mut("lb").unwrap().insert(o);
        }
        cat.flush().unwrap();
        cat.checkpoint().unwrap();
        assert_eq!(
            std::fs::metadata(dir.join("wal.log")).unwrap().len(),
            8,
            "checkpoint leaves only the log header"
        );
        for o in &lb[40..] {
            cat.get_mut("lb").unwrap().insert(o);
        }
        for o in &ca {
            cat.get_mut("ca").unwrap().insert(o);
        }
        cat.flush().unwrap();
    }

    let cat = IndexCatalog::<2>::open(&dir, 64).unwrap();
    assert_matches_oracle(cat.get("lb").unwrap(), &oracle_tree(&lb), "lb");
    assert_matches_oracle(cat.get("ca").unwrap(), &oracle_tree(&ca), "ca");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The query service over a reopened catalog answers exactly like
/// direct scatter-gather execution, and its report covers every request.
#[test]
fn the_query_service_agrees_with_direct_execution_on_a_reopened_catalog() {
    let lb = lb_objects(100);
    let ca = ca_objects(80);
    let dir = temp_dir("service");
    {
        let mut cat = IndexCatalog::<2>::create(&dir, 64).unwrap();
        cat.create_index("lb", UCatalog::uniform(8), TreeConfig::default(), 3)
            .unwrap();
        cat.create_index("ca", UCatalog::uniform(8), TreeConfig::default(), 2)
            .unwrap();
        for o in &lb {
            cat.get_mut("lb").unwrap().insert(o);
        }
        for o in &ca {
            cat.get_mut("ca").unwrap().insert(o);
        }
        cat.flush().unwrap();
    }
    let cat = IndexCatalog::<2>::open(&dir, 64).unwrap();

    let mut requests = Vec::new();
    for (i, q) in probe_range_queries()
        .into_iter()
        .cycle()
        .take(24)
        .enumerate()
    {
        requests.push(ServiceRequest::Range {
            index: if i % 2 == 0 { "lb" } else { "ca" }.to_string(),
            query: q,
        });
    }
    for (i, q) in probe_rank_queries()
        .into_iter()
        .cycle()
        .take(12)
        .enumerate()
    {
        requests.push(ServiceRequest::TopK {
            index: if i % 2 == 0 { "ca" } else { "lb" }.to_string(),
            query: q,
        });
    }

    let (replies, report) = QueryService::new(4, 6).serve(&cat, requests.clone());
    assert_eq!(report.served, requests.len());
    assert!(report.queries_per_sec().is_finite());
    assert!(report.p50_nanos().unwrap() <= report.p99_nanos().unwrap());

    for (request, reply) in requests.iter().zip(&replies) {
        match (request, reply) {
            (ServiceRequest::Range { index, query }, ServiceReply::Range(out)) => {
                let want = cat.get(index).unwrap().execute(query);
                assert_eq!(out.matches, want.matches);
            }
            (ServiceRequest::TopK { index, query }, ServiceReply::TopK(out)) => {
                let want = cat.get(index).unwrap().rank_topk(query);
                assert_eq!(out.matches, want.matches);
            }
            other => panic!("reply kind mismatch: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request that blows up costs exactly its own reply. `ca`'s node file
/// is corrupted on disk — every data page's entry count (the two bytes
/// after the level byte) set to 0xFFFF, so decoding any of them runs off
/// the page — and requests against it alternate with requests against the
/// healthy `lb`. Today the decoder panics; whether the failure arrives as
/// a panic or as a typed error, it must come back as an `Error` reply for
/// that request alone, with the healthy requests answered in place.
#[test]
fn a_request_that_fails_in_the_decoder_costs_only_its_own_reply() {
    const PAGE: usize = utree_repro::store::PAGE_SIZE;
    let dir = temp_dir("isolation");
    {
        let mut cat = IndexCatalog::<2>::create(&dir, 64).unwrap();
        cat.create_index("lb", UCatalog::uniform(8), TreeConfig::default(), 1)
            .unwrap();
        cat.create_index("ca", UCatalog::uniform(8), TreeConfig::default(), 1)
            .unwrap();
        for o in &lb_objects(100) {
            cat.get_mut("lb").unwrap().insert(o);
        }
        for o in &ca_objects(80) {
            cat.get_mut("ca").unwrap().insert(o);
        }
        cat.commit().unwrap();
        // Fold the log into the segment files, so they are all `open` reads.
        cat.checkpoint().unwrap();
    }
    let ca_nodes = dir.join("idx-1-0.pg");
    let mut bytes = std::fs::read(&ca_nodes).unwrap();
    assert!(
        bytes.len() >= 2 * PAGE,
        "ca must hold at least one node page"
    );
    for page in bytes.chunks_exact_mut(PAGE).skip(1) {
        page[1..3].fill(0xFF);
    }
    std::fs::write(&ca_nodes, &bytes).unwrap();

    let cat = IndexCatalog::<2>::open(&dir, 64).unwrap();
    let query = probe_range_queries().remove(0);
    let requests: Vec<_> = ["lb", "ca", "lb", "ca", "lb"]
        .into_iter()
        .map(|index| ServiceRequest::Range {
            index: index.to_string(),
            query,
        })
        .collect();
    let (replies, report) = QueryService::new(2, 2).serve(&cat, requests);

    assert_eq!(replies.len(), 5);
    assert_eq!(report.served, 5, "a failed request is still a served one");
    assert!(report.percentile_nanos(100.0).is_some());
    let want = cat.get("lb").unwrap().execute(&query);
    for (i, reply) in replies.iter().enumerate() {
        match reply {
            ServiceReply::Range(out) if i % 2 == 0 => assert_eq!(out.matches, want.matches),
            ServiceReply::Error(msg) if i % 2 == 1 => {
                assert!(!msg.is_empty(), "reply {i}: an error must say something")
            }
            other => panic!("reply {i}: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
