//! Helpers shared by the integration suites: the digests the format-pin
//! tests reduce to literals (what a refactor of the persistence layer
//! promises not to change), and the parallel-equals-sequential check of
//! the concurrency contract.
#![allow(dead_code)]

use std::fmt::Debug;
use std::path::Path;
use utree_repro::prelude::{QueryCtx, QueryOutcome, QueryStats, RankOutcome};
use utree_repro::store::Wal;

/// What the parallel-equals-sequential check compares of one outcome.
pub trait Answer: Send {
    /// The per-object answer type.
    type Match: PartialEq + Debug;
    /// The answer itself, in the backend's order.
    fn matches(&self) -> &[Self::Match];
    /// The query's cost counters.
    fn stats(&self) -> &QueryStats;
}

impl Answer for QueryOutcome {
    type Match = utree_repro::prelude::Match;
    fn matches(&self) -> &[Self::Match] {
        &self.matches
    }
    fn stats(&self) -> &QueryStats {
        &self.stats
    }
}

impl Answer for RankOutcome {
    type Match = utree_repro::prelude::RankedMatch;
    fn matches(&self) -> &[Self::Match] {
        &self.matches
    }
    fn stats(&self) -> &QueryStats {
        &self.stats
    }
}

/// The concurrency contract, checked: runs `queries` once on this thread
/// with one reused [`QueryCtx`], and once split into contiguous chunks
/// over `threads` scoped threads with one context each. Asserts that
/// every query's matches and count statistics agree, and returns the
/// sequential outcomes in query order.
pub fn parallel_equals_sequential<Q, O, F>(queries: &[Q], threads: usize, run: F) -> Vec<O>
where
    Q: Sync,
    O: Answer,
    F: Fn(&Q, &mut QueryCtx) -> O + Sync,
{
    let mut ctx = QueryCtx::new();
    let seq: Vec<O> = queries.iter().map(|q| run(q, &mut ctx)).collect();
    let chunk = queries.len().div_ceil(threads).max(1);
    let run = &run;
    let par: Vec<O> = std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut ctx = QueryCtx::new();
                    part.iter().map(|q| run(q, &mut ctx)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(par.len(), seq.len());
    for (i, (p, s)) in par.iter().zip(&seq).enumerate() {
        assert_eq!(
            p.matches(),
            s.matches(),
            "query {i}: {threads} threads diverged from sequential"
        );
        assert!(
            p.stats().same_counts(s.stats()),
            "query {i}: stats diverged: {:?} vs {:?}",
            p.stats(),
            s.stats()
        );
    }
    seq
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of a whole file.
pub fn file_fnv(path: &Path) -> u64 {
    fnv1a(&std::fs::read(path).unwrap())
}

/// The reproducible content of a write-ahead log: its byte length and, per
/// committed batch, the record count plus a digest of the *sorted*
/// `(kind, store tag, page, fnv(data))` list. Sorting is what makes this
/// repeat: a buffer pool writes its dirty frames back in `HashMap` order,
/// so the frame order inside a batch varies from run to run while the set
/// of frames does not.
///
/// Frames are cut at [`Wal::scan`]'s boundaries and read by the documented
/// layout `[len: u32][crc: u32][lsn: u64][kind: u8][body]`; image, alloc
/// and release bodies start `[store: u8][page: u64]`, an image's data
/// follows. Records after the last commit marker are left out.
pub fn wal_digest(path: &Path) -> (u64, Vec<(usize, u64)>) {
    let bytes = std::fs::read(path).unwrap();
    let mut digests = Vec::new();
    let mut batch: Vec<[u64; 4]> = Vec::new();
    let mut start = 8; // past the `UWALLOG1` header
    for frame in Wal::scan(path).unwrap() {
        let end = frame.end as usize;
        let (kind, body) = (bytes[start + 16], &bytes[start + 17..end]);
        start = end;
        let addr = |body: &[u8]| {
            let page = u64::from_le_bytes(body[1..9].try_into().unwrap());
            (body[0] as u64, page)
        };
        let record = match kind {
            1 => {
                let (store, page) = addr(body);
                [1, store, page, fnv1a(&body[9..])]
            }
            2 | 3 => {
                let (store, page) = addr(body);
                [kind as u64, store, page, 0]
            }
            4 => [4, 0, 0, fnv1a(body)],
            _ => {
                assert!(frame.is_commit(), "unknown record kind {kind}");
                batch.sort_unstable();
                let flat: Vec<u8> = batch
                    .iter()
                    .flatten()
                    .flat_map(|v| v.to_le_bytes())
                    .collect();
                digests.push((batch.len(), fnv1a(&flat)));
                batch.clear();
                continue;
            }
        };
        batch.push(record);
    }
    (bytes.len() as u64, digests)
}
