//! Epoch-swap serving: readers keep answering on a consistent tree while
//! a writer installs the next one.
//!
//! The PR-3 query path is `&self` end-to-end, but structural updates still
//! take `&mut UTree` — a live service would stall every reader for every
//! insert. [`EpochIndex`] removes the stall with the classic shadow-paging
//! move (cf. the meta-page pointer swap of append-only B-tree stores):
//!
//! * the in-memory [`page_store::PageFile`] shares pages between clones
//!   copy-on-write, so cloning a tree is O(pages) pointer bumps and a
//!   write after the clone copies only that page;
//! * the *published* tree sits behind an `Arc` that readers grab with
//!   [`EpochIndex::snapshot`] — a consistent epoch they keep for as long
//!   as they like, wholly unaffected by later writes;
//! * a writer mutates the private writer tree under a mutex, then
//!   *publishes* a clone of it — one pointer swap — and bumps the epoch
//!   counter. Readers that grabbed the old `Arc` finish on the old epoch;
//!   new snapshots see the new one. Nothing blocks readers, ever.
//!
//! The write surface is batch-shaped ([`EpochIndex::commit_with`] and the
//! `insert_batch`/`delete_batch` conveniences) and takes `&self`, so it
//! composes with the shared-read fleet: one thread can commit batches
//! while others run [`crate::engine::BatchExecutor`] workloads against
//! snapshots.
//!
//! Epochs are an **in-memory** serving structure; pair them with a
//! disk-backed tree's WAL commits (see [`crate::DiskUTree`]) when the
//! update stream must also be durable.

use crate::catalog::UCatalog;
use crate::tree::{InsertStats, UTree};
use rstar_base::TreeConfig;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use uncertain_pdf::UncertainObject;

/// A published epoch: a consistent, immutable, shareable U-tree. Queries
/// run on it like on any `&UTree` — including through
/// [`crate::engine::BatchExecutor`].
pub type EpochSnapshot<const D: usize> = Arc<UTree<D>>;

/// A U-tree served via epoch swaps: lock-free consistent snapshots for
/// readers, batched copy-on-write commits for one writer at a time.
pub struct EpochIndex<const D: usize> {
    /// The current epoch number and its tree, swapped together at publish
    /// time. Stamping the number into the published pair is what lets a
    /// reader observe `(epoch, snapshot)` atomically — a separate counter
    /// could be read before or after an in-flight publish and label the
    /// new tree with the old number (or vice versa).
    published: RwLock<(u64, EpochSnapshot<D>)>,
    /// The writer's private successor tree (COW fork of the published
    /// one). The mutex serialises writers; readers never touch it.
    writer: Mutex<UTree<D>>,
}

impl<const D: usize> EpochIndex<D> {
    /// An empty epoch-served U-tree over the given catalog.
    pub fn new(catalog: UCatalog) -> Self {
        Self::with_config(catalog, TreeConfig::default())
    }

    /// An empty epoch-served U-tree with explicit R* tuning.
    pub fn with_config(catalog: UCatalog, cfg: TreeConfig) -> Self {
        Self::from_tree(UTree::with_config(catalog, cfg))
    }

    /// Starts serving an existing in-memory tree — builder-, insert- or
    /// bulk-built — as epoch 0.
    pub fn from_tree(tree: UTree<D>) -> Self {
        Self {
            published: RwLock::new((0, Arc::new(tree.clone()))),
            writer: Mutex::new(tree),
        }
    }

    /// The current epoch number (bumped by every commit).
    pub fn epoch(&self) -> u64 {
        self.published
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    /// Grabs the published epoch: a consistent tree that stays exactly as
    /// it is — run any number of queries against it — no matter how many
    /// commits happen meanwhile. Cheap (one `Arc` clone under a read
    /// lock held for nanoseconds).
    pub fn snapshot(&self) -> EpochSnapshot<D> {
        Arc::clone(
            &self
                .published
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .1,
        )
    }

    /// Grabs the published epoch *with* its epoch number, read under one
    /// lock acquisition: the number always labels exactly that tree, even
    /// while commits race. Pairing separate [`EpochIndex::epoch`] and
    /// [`EpochIndex::snapshot`] calls cannot make that guarantee.
    pub fn snapshot_pair(&self) -> (u64, EpochSnapshot<D>) {
        let guard = self
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        (guard.0, Arc::clone(&guard.1))
    }

    /// Number of objects in the current epoch.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when the current epoch holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` against the writer tree, then publishes the result as the
    /// next epoch (readers on older epochs are unaffected). Returns the
    /// new epoch number and `f`'s result. Writers serialise on an
    /// internal mutex; `&self` keeps the whole surface shareable.
    ///
    /// The batch is all-or-nothing *visibility-wise*: no reader ever
    /// observes a prefix of `f`'s updates. A panic inside `f` aborts the
    /// batch: the writer is re-forked from the last published epoch (so
    /// none of the half-applied updates survive), the panic is re-raised
    /// to the caller, and the index keeps serving — readers and later
    /// commits are unaffected.
    pub fn commit_with<R>(&self, f: impl FnOnce(&mut UTree<D>) -> R) -> (u64, R) {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        match catch_unwind(AssertUnwindSafe(|| f(&mut writer))) {
            Ok(result) => {
                // COW fork: the published clone shares every page with the
                // writer until the *next* batch rewrites some of them.
                let next = Arc::new(writer.clone());
                let mut published = self
                    .published
                    .write()
                    .unwrap_or_else(PoisonError::into_inner);
                let epoch = published.0 + 1;
                *published = (epoch, next);
                (epoch, result)
            }
            Err(payload) => {
                // `f` left the writer in an unknown half-applied state.
                // Discard it and re-fork from the last published epoch;
                // the guard then drops normally (no poisoning) before the
                // panic resumes on the caller's stack.
                let fork = (*self.snapshot()).clone();
                *writer = fork;
                drop(writer);
                resume_unwind(payload);
            }
        }
    }

    /// Commits one batch of insertions, returning the new epoch number and
    /// the accumulated insertion cost breakdown.
    pub fn insert_batch(&self, objs: &[UncertainObject<D>]) -> (u64, InsertStats) {
        self.commit_with(|tree| {
            let mut total = InsertStats::default();
            for obj in objs {
                let s = tree.insert(obj);
                total += &s;
            }
            total
        })
    }

    /// Commits one batch of deletions, returning the new epoch number and
    /// how many of the objects were actually found and removed.
    pub fn delete_batch(&self, objs: &[UncertainObject<D>]) -> (u64, usize) {
        self.commit_with(|tree| objs.iter().filter(|o| tree.delete(o)).count())
    }

    /// Bulk-loads through the epoch machinery and publishes the result as
    /// one epoch: on an empty index the writer takes the packed STR build
    /// ([`UTree::bulk_load`]), so the published snapshot serves the
    /// read-optimised layout; on a non-empty index this degrades to
    /// [`EpochIndex::insert_batch`] semantics.
    pub fn bulk_load(&self, objs: &[UncertainObject<D>]) -> (u64, InsertStats) {
        self.commit_with(|tree| tree.bulk_load(objs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncertain_geom::Point;
    use uncertain_pdf::ObjectPdf;

    fn ball(id: u64, x: f64, y: f64, r: f64) -> UncertainObject<2> {
        UncertainObject::new(
            id,
            ObjectPdf::UniformBall {
                center: Point::new([x, y]),
                radius: r,
            },
        )
    }

    #[test]
    fn snapshots_are_immutable_epochs() {
        let index = EpochIndex::<2>::new(UCatalog::uniform(6));
        let (e1, _) = index.insert_batch(&[ball(1, 500.0, 500.0, 50.0)]);
        assert_eq!(e1, 1);
        let old = index.snapshot();
        assert_eq!(old.len(), 1);

        let (e2, _) = index.insert_batch(&[ball(2, 800.0, 800.0, 50.0)]);
        assert_eq!(e2, 2);
        // The old epoch still answers as of its publication...
        assert_eq!(old.len(), 1);
        // ...while a fresh snapshot sees the new batch.
        assert_eq!(index.snapshot().len(), 2);
        old.check_invariants().unwrap();
        index.snapshot().check_invariants().unwrap();
    }

    #[test]
    fn delete_batch_reports_found_count() {
        let index = EpochIndex::<2>::new(UCatalog::uniform(6));
        let objs: Vec<_> = (0..10)
            .map(|i| ball(i, 100.0 * i as f64 + 100.0, 500.0, 30.0))
            .collect();
        index.insert_batch(&objs);
        let ghost = ball(99, 5000.0, 5000.0, 10.0);
        let (_, removed) = index.delete_batch(&[objs[0].clone(), ghost, objs[1].clone()]);
        assert_eq!(removed, 2);
        assert_eq!(index.len(), 8);
    }

    #[test]
    fn bulk_loaded_epoch_serves_snapshots_like_insert_built() {
        use crate::api::{Query, Refine};
        use uncertain_geom::Rect;

        let objs: Vec<_> = (0..300)
            .map(|i| {
                ball(
                    i,
                    150.0 + 31.0 * i as f64,
                    150.0 + 17.0 * ((i * 7) % 300) as f64,
                    40.0,
                )
            })
            .collect();
        let bulk = EpochIndex::<2>::new(UCatalog::uniform(6));
        let (epoch, stats) = bulk.bulk_load(&objs);
        assert_eq!(epoch, 1);
        assert!(stats.pcr_nanos > 0);
        let incremental = EpochIndex::<2>::new(UCatalog::uniform(6));
        incremental.insert_batch(&objs);

        let snap = bulk.snapshot();
        snap.check_invariants().unwrap();
        assert_eq!(snap.len(), 300);
        let q = Query::range(Rect::new([500.0, 500.0], [4000.0, 4000.0]))
            .threshold(0.4)
            .refine(Refine::reference(1e-8))
            .build()
            .unwrap();
        let mut a = snap.execute(&q).ids();
        let mut b = incremental.snapshot().execute(&q).ids();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "bulk-loaded epoch must answer like insert-built");

        // A later batch forks COW pages off the packed build.
        bulk.insert_batch(&[ball(1000, 2000.0, 2000.0, 60.0)]);
        assert_eq!(snap.len(), 300, "published epoch stays frozen");
        assert_eq!(bulk.snapshot().len(), 301);
    }

    #[test]
    fn snapshot_pair_never_tears_under_racing_commits() {
        // Each commit inserts exactly one object starting from empty, so
        // the invariant `snapshot.len() == epoch` holds for every
        // published pair. A reader pairing separate epoch()/snapshot()
        // calls could see them disagree mid-publish; snapshot_pair() may
        // not, ever.
        let index = Arc::new(EpochIndex::<2>::new(UCatalog::uniform(6)));
        let commits = 200u64;
        std::thread::scope(|scope| {
            let writer = Arc::clone(&index);
            scope.spawn(move || {
                for id in 0..commits {
                    let x = 100.0 + (id % 97) as f64 * 100.0;
                    let y = 100.0 + (id % 89) as f64 * 110.0;
                    writer.insert_batch(&[ball(id, x, y, 20.0)]);
                }
            });
            for _ in 0..2 {
                let reader = Arc::clone(&index);
                scope.spawn(move || loop {
                    let (epoch, snap) = reader.snapshot_pair();
                    assert_eq!(
                        snap.len() as u64,
                        epoch,
                        "published tree labelled with the wrong epoch number"
                    );
                    if epoch == commits {
                        break;
                    }
                    std::hint::spin_loop();
                });
            }
        });
        assert_eq!(index.epoch(), commits);
        assert_eq!(index.len() as u64, commits);
    }

    #[test]
    fn readers_survive_a_panicking_commit() {
        let index = EpochIndex::<2>::new(UCatalog::uniform(6));
        index.insert_batch(&[ball(1, 500.0, 500.0, 50.0)]);
        assert_eq!(index.epoch(), 1);

        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            index.commit_with(|tree| {
                // Half-apply, then die: none of this may ever publish or
                // linger in the writer fork.
                tree.insert(&ball(2, 800.0, 800.0, 50.0));
                panic!("bad batch");
            })
        }));
        let payload = boom.expect_err("the panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("bad batch"),
            "the original panic payload must resurface"
        );

        // The index is still in service: readers see the last good epoch.
        assert_eq!(index.epoch(), 1);
        assert_eq!(index.len(), 1);
        index.snapshot().check_invariants().unwrap();

        // The writer recovered from the published epoch, so the
        // half-applied insert is gone and the next commit works.
        let (epoch, _) = index.insert_batch(&[ball(3, 200.0, 200.0, 30.0)]);
        assert_eq!(epoch, 2);
        let snap = index.snapshot();
        assert_eq!(snap.len(), 2, "half-applied insert must not survive");
        snap.check_invariants().unwrap();
    }

    #[test]
    fn epoch_index_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EpochIndex<2>>();
        assert_send_sync::<EpochSnapshot<3>>();
    }
}
