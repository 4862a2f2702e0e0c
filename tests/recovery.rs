//! Crash recovery: a disk-backed tree must reopen to *some committed
//! prefix* of its update batches no matter where the crash lands — at any
//! WAL frame boundary, mid-frame, or mid-apply under an injected backend
//! fault — and answer byte-identically to an in-memory oracle replaying
//! that prefix.

mod common;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use utree_repro::index::{Cfbs, FilterPayload, Pcrs, ProbTree};
use utree_repro::prelude::*;
use utree_repro::store::wal::commit_group;
use utree_repro::store::{
    DiskPageFile, FaultMode, FaultStore, PageId, ReplayTarget, Wal, WalStore, PAGE_SIZE,
};

/// A disk-backed tree of either payload.
type DiskTree<P> = ProbTree<2, P, utree_repro::index::DiskStore>;

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("utree-recovery-{}-{name}", std::process::id()));
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

#[derive(Clone)]
enum Op {
    Insert(UncertainObject<2>),
    Delete(UncertainObject<2>),
}

fn apply_ops<P: FilterPayload<2>, S: PageStore>(tree: &mut ProbTree<2, P, S>, batch: &[Op]) {
    for op in batch {
        match op {
            Op::Insert(o) => {
                tree.insert(o);
            }
            Op::Delete(o) => {
                assert!(tree.delete(o), "scripted delete must find its object");
            }
        }
    }
}

/// The scripted workload: a bulk-loaded base plus `BATCHES` update batches
/// mixing inserts of new objects with deletes of base objects.
const BASE_N: usize = 150;
const BATCHES: usize = 5;

fn base_objects() -> Vec<UncertainObject<2>> {
    datagen::lb_dataset(BASE_N, 101)
}

fn scripted_batches(base: &[UncertainObject<2>]) -> Vec<Vec<Op>> {
    let extra = datagen::lb_dataset(BATCHES * 6, 103);
    (0..BATCHES)
        .map(|b| {
            let mut batch: Vec<Op> = extra[b * 6..(b + 1) * 6]
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    Op::Insert(UncertainObject::new(
                        50_000 + (b * 6 + i) as u64,
                        o.pdf.clone(),
                    ))
                })
                .collect();
            // Two deletes per batch, from disjoint slices of the base.
            batch.push(Op::Delete(base[b * 2].clone()));
            batch.push(Op::Delete(base[b * 2 + 1].clone()));
            batch
        })
        .collect()
}

fn fresh_tree<P: FilterPayload<2>>(base: &[UncertainObject<2>]) -> ProbTree<2, P> {
    let mut tree = ProbTree::<2, P>::builder()
        .uniform_catalog(8)
        .build()
        .expect("valid catalog");
    tree.bulk_load(base);
    tree
}

fn probe_queries() -> Vec<Query<2>> {
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
    ]
}

type Oracle = (usize, Vec<QueryOutcome>);

/// Opens `scratch` (a fabricated crash state) and demands it answer
/// byte-identically to the oracle for `k` committed batches.
fn assert_recovers_prefix<P: FilterPayload<2>>(
    scratch: &Path,
    cut: u64,
    k: usize,
    oracles: &[Oracle],
    queries: &[Query<2>],
) {
    let (want_len, want_outcomes) = &oracles[k];
    let recovered = DiskTree::<P>::open(scratch, 32)
        .unwrap_or_else(|e| panic!("open after crash at byte {cut} failed: {e}"));
    assert_eq!(
        recovered.len(),
        *want_len,
        "crash at byte {cut} must recover exactly {k} committed batches"
    );
    recovered
        .check_invariants()
        .unwrap_or_else(|e| panic!("crash at byte {cut}: recovered tree unsound: {e}"));
    for (q, want) in queries.iter().zip(want_outcomes) {
        let got = recovered.execute(q);
        assert_eq!(got.matches, want.matches, "crash at byte {cut}");
        assert_eq!(
            got.stats.node_reads, want.stats.node_reads,
            "crash at byte {cut}: recovered structure must equal the oracle's"
        );
    }
}

/// The tentpole property: crash anywhere, recover a committed prefix.
///
/// A crash state is a WAL prefix plus whatever the backend had absorbed
/// when the crash hit. Write-ahead ordering (pages apply only after their
/// commit is durable) means every reachable state pairs a WAL cut with a
/// backend holding the applies of `j ≤ k` committed batches, where `k` is
/// the number of commit markers under the cut. This test fabricates both
/// extremes and a mixed middle:
///
/// * every frame boundary AND a torn tail 3 bytes short of it, over the
///   pristine (`j = 0`) backend — pure log replay;
/// * each intermediate backend capture (`j` batches applied, stale
///   superblock and all) under cuts with `k ≥ j` — replay converging
///   over a half-applied base.
#[test]
fn recovery_equals_a_committed_prefix_at_every_crash_point() {
    let base = base_objects();
    let batches = scripted_batches(&base);
    let dir = temp_dir("prefix");
    fresh_tree::<Cfbs>(&base).save(&dir).unwrap();

    // The backend as it was before any batch applied.
    let pristine = temp_dir("prefix-pristine");
    copy_dir(&dir, &pristine);

    // Write the batches through the WAL, committing each; capture the
    // live page files after every commit (the `j`-batches-applied
    // backends, mid-run superblocks included).
    let captures: Vec<PathBuf> = (1..=BATCHES)
        .map(|j| temp_dir(&format!("prefix-applied-{j}")))
        .collect();
    {
        let mut disk = DiskUTree::<2>::open(&dir, 32).unwrap();
        for (j, batch) in batches.iter().enumerate() {
            apply_ops(&mut disk, batch);
            let syncs = disk.wal_sync_count();
            disk.commit().unwrap();
            assert_eq!(disk.wal_sync_count() - syncs, 1, "every commit syncs");
            std::fs::create_dir_all(&captures[j]).unwrap();
            for f in ["index.pg", "heap.pg"] {
                std::fs::copy(dir.join(f), captures[j].join(f)).unwrap();
            }
        }
    }

    // Oracles: the committed prefixes k = 0..=BATCHES, with their answers.
    let queries = probe_queries();
    let oracles: Vec<Oracle> = (0..=BATCHES)
        .map(|k| {
            let mut t = fresh_tree::<Cfbs>(&base);
            for batch in &batches[..k] {
                apply_ops(&mut t, batch);
            }
            let outcomes: Vec<_> = queries.iter().map(|q| t.execute(q)).collect();
            (t.len(), outcomes)
        })
        .collect();

    let frames = Wal::scan(dir.join("wal.log")).unwrap();
    let commit_ends: Vec<u64> = frames
        .iter()
        .filter(|f| f.is_commit())
        .map(|f| f.end)
        .collect();
    assert!(
        commit_ends.len() >= BATCHES,
        "every batch leaves a commit marker"
    );
    let committed_under = |cut: u64| commit_ends.iter().filter(|&&e| e <= cut).count();

    // Crash offsets: the empty log, every frame boundary, and a torn tail
    // 3 bytes short of each boundary.
    let mut crash_points = vec![8u64];
    for f in &frames {
        crash_points.push(f.end - 3);
        crash_points.push(f.end);
    }

    let scratch = temp_dir("prefix-scratch");
    let fabricate = |backend: &Path, cut: u64| {
        let _ = std::fs::remove_dir_all(&scratch);
        copy_dir(&pristine, &scratch);
        for f in ["index.pg", "heap.pg"] {
            let src = backend.join(f);
            if src.exists() {
                std::fs::copy(src, scratch.join(f)).unwrap();
            }
        }
        std::fs::copy(dir.join("wal.log"), scratch.join("wal.log")).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.join("wal.log"))
            .unwrap()
            .set_len(cut)
            .unwrap();
    };

    // Extreme 1: nothing applied, every possible log length.
    for &cut in &crash_points {
        fabricate(&pristine, cut);
        assert_recovers_prefix::<Cfbs>(&scratch, cut, committed_under(cut), &oracles, &queries);
    }

    // Mixed: j batches applied, log cut at the j-th commit, at the next
    // commit (if any), and at the full log.
    let full = frames.last().unwrap().end;
    for j in 1..=BATCHES {
        let mut cuts = vec![commit_ends[j - 1], full];
        if j < commit_ends.len() {
            cuts.push(commit_ends[j]);
        }
        for cut in cuts {
            fabricate(&captures[j - 1], cut);
            assert_recovers_prefix::<Cfbs>(&scratch, cut, committed_under(cut), &oracles, &queries);
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&pristine);
    let _ = std::fs::remove_dir_all(&scratch);
    for c in &captures {
        let _ = std::fs::remove_dir_all(c);
    }
}

/// The log format, pinned: the scripted session (snapshot, then every
/// batch committed through the WAL) leaves a log of this exact length
/// holding these exact records per batch — see [`common::wal_digest`] for
/// why the records are compared as a sorted set.
#[test]
fn scripted_session_log_is_byte_stable() {
    let base = base_objects();
    let dir = temp_dir("pin-log");
    fresh_tree::<Cfbs>(&base).save(&dir).unwrap();
    {
        let mut disk = DiskUTree::<2>::open(&dir, 32).unwrap();
        for batch in &scripted_batches(&base) {
            apply_ops(&mut disk, batch);
            disk.commit().unwrap();
        }
    }
    let (len, batches) = common::wal_digest(&dir.join("wal.log"));
    assert_eq!(len, 141_028, "log length moved");
    let pinned = vec![
        (10, 8297454792146040763),
        (8, 898271317239314815),
        (8, 16901269014737723773),
        (7, 18160976746767590648),
        (8, 10697198756919325137),
    ];
    assert_eq!(batches, pinned, "log records moved");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Updates that were never committed roll back on reopen: dropping the
/// tree stages them into the log (no marker), and recovery discards the
/// uncommitted tail — on either payload.
#[test]
fn uncommitted_tail_rolls_back_to_the_last_commit() {
    uncommitted_tail_rolls_back::<Cfbs>();
    uncommitted_tail_rolls_back::<Pcrs>();
}

fn uncommitted_tail_rolls_back<P: FilterPayload<2>>() {
    let base = base_objects();
    let dir = temp_dir(&format!("rollback-{}", P::NAME));
    fresh_tree::<P>(&base).save(&dir).unwrap();

    {
        let mut disk = DiskTree::<P>::open(&dir, 32).unwrap();
        let extra = datagen::lb_dataset(10, 107);
        for (i, o) in extra.iter().take(5).enumerate() {
            disk.insert(&UncertainObject::new(60_000 + i as u64, o.pdf.clone()));
        }
        disk.commit().unwrap();
        // Five more inserts that never see a commit marker.
        for (i, o) in extra.iter().skip(5).enumerate() {
            disk.insert(&UncertainObject::new(61_000 + i as u64, o.pdf.clone()));
        }
    }

    let reopened = DiskTree::<P>::open(&dir, 32).unwrap();
    assert_eq!(
        reopened.len(),
        BASE_N + 5,
        "the uncommitted second half must roll back"
    );
    reopened.check_invariants().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An `open` that is refused leaves the directory as it found it: an
/// empty directory stays empty (no log is created), and a directory opened
/// as the other payload or at another dimensionality, or whose `meta.bin`
/// or `heap.pg` is gone, keeps its log byte-identical, uncommitted tail
/// and all. An error for a missing file names it.
#[test]
fn a_refused_open_leaves_the_log_untouched() {
    let dir = temp_dir("refused-open");
    std::fs::create_dir_all(&dir).unwrap();
    let err = DiskUTree::<2>::open(&dir, 32).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(err.to_string().contains("index.pg"), "unnamed file: {err}");
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a refused open wrote into the directory"
    );

    let base = base_objects();
    fresh_tree::<Cfbs>(&base).save(&dir).unwrap();
    {
        let mut disk = DiskUTree::<2>::open(&dir, 32).unwrap();
        let extra = datagen::lb_dataset(10, 107);
        for (i, o) in extra.iter().take(5).enumerate() {
            disk.insert(&UncertainObject::new(60_000 + i as u64, o.pdf.clone()));
        }
        disk.commit().unwrap();
        // Dropped without a commit: the pool's flush stages and syncs
        // these, and no marker seals them.
        for (i, o) in extra.iter().skip(5).enumerate() {
            disk.insert(&UncertainObject::new(61_000 + i as u64, o.pdf.clone()));
        }
    }
    let log = dir.join("wal.log");
    let frames = Wal::scan(&log).unwrap();
    assert!(
        frames.last().is_some_and(|f| !f.is_commit()),
        "the log must end in an uncommitted tail"
    );
    let before = std::fs::read(&log).unwrap();
    let untouched = || std::fs::read(&log).unwrap() == before;

    // Another payload, another dimensionality, no metadata file: each is
    // refused before the log is replayed or its tail cut.
    let err = DiskTree::<Pcrs>::open(&dir, 32).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(untouched(), "an open as the other payload touched the log");
    let err = DiskUTree::<3>::open(&dir, 32).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(
        untouched(),
        "an open at another dimensionality touched the log"
    );
    let meta = dir.join("meta.bin");
    let aside = dir.join("meta.bin.aside");
    std::fs::rename(&meta, &aside).unwrap();
    let err = DiskUTree::<2>::open(&dir, 32).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(err.to_string().contains("meta.bin"), "unnamed file: {err}");
    assert!(untouched(), "an open without meta.bin touched the log");
    std::fs::rename(&aside, &meta).unwrap();

    std::fs::remove_file(dir.join("heap.pg")).unwrap();
    let err = DiskUTree::<2>::open(&dir, 32).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(err.to_string().contains("heap.pg"), "unnamed file: {err}");
    // (Compared as one bool: a failing `assert_eq!` would print both logs.)
    assert!(
        std::fs::read(&log).unwrap() == before,
        "a refused open touched the log"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint folds the log into the snapshot (truncating it to its
/// header), and commits after the checkpoint keep recovering — on either
/// payload.
#[test]
fn checkpoint_truncates_the_log_and_later_commits_survive() {
    checkpoint_truncates_the_log::<Cfbs>();
    checkpoint_truncates_the_log::<Pcrs>();
}

fn checkpoint_truncates_the_log<P: FilterPayload<2>>() {
    let base = base_objects();
    let batches = scripted_batches(&base);
    let dir = temp_dir(&format!("checkpoint-{}", P::NAME));
    fresh_tree::<P>(&base).save(&dir).unwrap();

    let mut oracle = fresh_tree::<P>(&base);
    {
        let mut disk = DiskTree::<P>::open(&dir, 32).unwrap();
        for batch in &batches[..2] {
            apply_ops(&mut disk, batch);
            disk.commit().unwrap();
        }
        disk.checkpoint().unwrap();
        assert_eq!(
            std::fs::metadata(dir.join("wal.log")).unwrap().len(),
            8,
            "checkpoint leaves only the log header"
        );
        for batch in &batches[2..] {
            apply_ops(&mut disk, batch);
            disk.commit().unwrap();
        }
    }
    for batch in &batches {
        apply_ops(&mut oracle, batch);
    }

    let reopened = DiskTree::<P>::open(&dir, 32).unwrap();
    assert_eq!(reopened.len(), oracle.len());
    reopened.check_invariants().unwrap();
    for q in &probe_queries() {
        assert_eq!(reopened.execute(q).matches, oracle.execute(q).matches);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One durability policy: every commit is fsynced before it returns. N
/// commits cost exactly N log syncs; an index dropped with no flush and no
/// checkpoint reopens holding all N; and after a checkpoint the log is
/// just its header, so the snapshot alone reopens holding all N — on
/// either payload and on a two-index catalog.
#[test]
fn every_commit_is_durable_when_it_returns() {
    every_commit_is_durable::<Cfbs>();
    every_commit_is_durable::<Pcrs>();
    every_catalog_commit_is_durable();
}

const COMMITS: usize = 4;

/// Asserts the log holds only its header, then deletes it, so the next
/// open reads the snapshot alone.
fn assert_checkpointed_and_drop_log(dir: &Path) {
    let log = dir.join("wal.log");
    assert_eq!(
        std::fs::metadata(&log).unwrap().len(),
        8,
        "checkpoint leaves only the log header"
    );
    std::fs::remove_file(log).unwrap();
}

fn every_commit_is_durable<P: FilterPayload<2>>() {
    let base = base_objects();
    let dir = temp_dir(&format!("durable-{}", P::NAME));
    fresh_tree::<P>(&base).save(&dir).unwrap();
    let extra = datagen::lb_dataset(COMMITS, 227);
    {
        let mut disk = DiskTree::<P>::open(&dir, 32).unwrap();
        let syncs = disk.wal_sync_count();
        for (i, o) in extra.iter().enumerate() {
            disk.insert(&UncertainObject::new(90_000 + i as u64, o.pdf.clone()));
            disk.commit().unwrap();
        }
        assert_eq!(disk.wal_sync_count() - syncs, COMMITS as u64);
        // No flush, no checkpoint.
    }
    {
        let mut disk = DiskTree::<P>::open(&dir, 32).unwrap();
        assert_eq!(disk.len(), BASE_N + COMMITS, "a returned commit was lost");
        disk.checkpoint().unwrap();
    }
    assert_checkpointed_and_drop_log(&dir);
    let reopened = DiskTree::<P>::open(&dir, 32).unwrap();
    assert_eq!(reopened.len(), BASE_N + COMMITS);
    reopened.check_invariants().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

fn every_catalog_commit_is_durable() {
    let dir = temp_dir("durable-catalog");
    let extra = datagen::lb_dataset(2 * COMMITS, 229);
    let lens = |cat: &IndexCatalog<2>| {
        cat.names()
            .iter()
            .map(|n| cat.get(n).unwrap().len())
            .collect::<Vec<_>>()
    };
    {
        let mut cat = IndexCatalog::<2>::create(&dir, 64).unwrap();
        cat.create_index("aa", UCatalog::uniform(8), TreeConfig::default(), 2)
            .unwrap();
        cat.create_index("bb", UCatalog::uniform(8), TreeConfig::default(), 1)
            .unwrap();
        let syncs = cat.wal_sync_count();
        for (i, pair) in extra.chunks(2).enumerate() {
            cat.get_mut("aa").unwrap().insert(&pair[0]);
            cat.get_mut("bb").unwrap().insert(&pair[1]);
            cat.commit().unwrap();
            assert_eq!(cat.wal_sync_count() - syncs, i as u64 + 1);
        }
        // No flush, no checkpoint.
    }
    {
        let mut cat = IndexCatalog::<2>::open(&dir, 64).unwrap();
        assert_eq!(
            lens(&cat),
            vec![COMMITS, COMMITS],
            "a returned commit was lost"
        );
        cat.checkpoint().unwrap();
    }
    assert_checkpointed_and_drop_log(&dir);
    let reopened = IndexCatalog::<2>::open(&dir, 64).unwrap();
    assert_eq!(lens(&reopened), vec![COMMITS, COMMITS]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-memory replay target mirroring what recovery rebuilds, for
/// store-level fault tests.
#[derive(Default)]
struct MemTarget {
    pages: HashMap<PageId, [u8; PAGE_SIZE]>,
}

impl ReplayTarget for MemTarget {
    fn apply_image(&mut self, page: PageId, data: &[u8; PAGE_SIZE]) -> std::io::Result<()> {
        self.pages.insert(page, *data);
        Ok(())
    }
    fn apply_alloc(&mut self, page: PageId) -> std::io::Result<()> {
        self.pages.insert(page, [0u8; PAGE_SIZE]);
        Ok(())
    }
    fn apply_release(&mut self, page: PageId) -> std::io::Result<()> {
        self.pages.remove(&page);
        Ok(())
    }
}

/// Injected backend faults during the apply phase cannot lose committed
/// data: whatever the backend managed to absorb, replaying the log onto a
/// fresh target reconstructs every committed page image. Two stores share
/// the log and commit as a group — a healthy one and one whose backend
/// trips — so the sick backend is also shown not to hold the healthy one
/// back, and to keep every batch it could not apply queued.
#[test]
fn committed_batches_survive_backend_write_faults() {
    for trip_at in 1..=6u64 {
        for mode in [FaultMode::Fail, FaultMode::ShortWrite(100)] {
            let dir = temp_dir(&format!("fault-{trip_at}-{mode:?}"));
            std::fs::create_dir_all(&dir).unwrap();
            let wal = std::sync::Arc::new(std::sync::Mutex::new(
                Wal::create(dir.join("wal.log")).unwrap(),
            ));
            let open = |file: &str, tag: u8, nth_write: u64| {
                let backend = FaultStore::new(
                    DiskPageFile::create(dir.join(file)).unwrap(),
                    nth_write,
                    mode,
                );
                WalStore::wrap(backend, std::sync::Arc::clone(&wal), tag)
            };
            let mut stores = [open("healthy.pg", 0, 0), open("sick.pg", 1, trip_at)];

            // Two committed batches of three page writes per store;
            // remember what each page must hold afterwards.
            let mut expected: HashMap<(usize, PageId), [u8; PAGE_SIZE]> = HashMap::new();
            for batch in 0..2u8 {
                for (tag, store) in stores.iter_mut().enumerate() {
                    for i in 0..3u8 {
                        let id = store.allocate().unwrap();
                        let mut img = [0u8; PAGE_SIZE];
                        img[..3].copy_from_slice(&[tag as u8 + 1, batch + 1, i + 1]);
                        store.write(id, &img[..]).unwrap();
                        expected.insert((tag, id), img);
                    }
                }
                // The apply phase behind this commit is where the fault
                // trips (the sick backend's `trip_at`-th write, three per
                // batch); the commit then reports the sick backend, but
                // the log write itself is unaffected — recovery below is
                // what must not lose data.
                let [healthy, sick] = &mut stores;
                let committed = commit_group(&wal, &mut [healthy, sick], None);
                assert_eq!(committed.is_err(), trip_at <= 3 * (batch as u64 + 1));
            }
            assert_eq!(stores[0].unapplied_batches(), 0, "healthy store held back");
            assert_eq!(
                stores[1].unapplied_batches(),
                if trip_at <= 3 { 2 } else { 1 },
                "every batch since the trip stays queued for a retry"
            );
            for ((tag, id), img) in &expected {
                let page = stores[*tag].peek_page(*id).unwrap();
                assert_eq!(page[..], img[..], "live read of store {tag} page {id} tore");
            }

            // "Crash": drop everything, then recover from the log alone.
            drop(stores);
            let log = dir.join("wal.log");
            let commits = Wal::scan(&log).unwrap();
            assert_eq!(commits.iter().filter(|f| f.is_commit()).count(), 2);
            let mut targets = [MemTarget::default(), MemTarget::default()];
            let [healthy, sick] = &mut targets;
            Wal::recover(&log, &mut [healthy, sick]).unwrap();
            assert_eq!(
                targets[0].pages.len() + targets[1].pages.len(),
                expected.len()
            );
            for ((tag, id), img) in &expected {
                assert_eq!(
                    targets[*tag].pages.get(id),
                    Some(img),
                    "store {tag} page {id} lost under fault at write {trip_at} ({mode:?})"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
