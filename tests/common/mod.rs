//! Digests shared by the format-pin tests: what a refactor of the
//! persistence layer promises not to change, reduced to literals.
#![allow(dead_code)]

use std::path::Path;
use utree_repro::store::{Wal, WalRecord};

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
pub fn wal_digest(path: &Path) -> (u64, Vec<(usize, u64)>) {
    let len = std::fs::metadata(path).unwrap().len();
    let batches = Wal::recover(path).unwrap().batches;
    let digests = batches
        .iter()
        .map(|batch| {
            let mut records: Vec<[u64; 4]> = batch
                .iter()
                .map(|rec| match rec {
                    WalRecord::PageImage { store, page, data } => {
                        [1, *store as u64, *page, fnv1a(&data[..])]
                    }
                    WalRecord::Alloc { store, page } => [2, *store as u64, *page, 0],
                    WalRecord::Release { store, page } => [3, *store as u64, *page, 0],
                    WalRecord::Meta(bytes) => [4, 0, 0, fnv1a(bytes)],
                    WalRecord::Commit => [5, 0, 0, 0],
                })
                .collect();
            records.sort_unstable();
            let flat: Vec<u8> = records
                .iter()
                .flatten()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            (records.len(), fnv1a(&flat))
        })
        .collect();
    (len, digests)
}
