//! Paged storage with I/O accounting: one trait, three backends.
//!
//! The paper measures query cost in *node accesses* against a 4096-byte
//! page size (Sec 6). This crate provides the storage substrate both trees
//! sit on, behind the [`PageStore`] trait
//! (allocate / release / read / write / stats):
//!
//! * [`PageFile`] — the in-memory reference backend where every counted
//!   read/write bumps simulated counters (one tree node = one page,
//!   exactly like the paper's setup);
//! * [`DiskPageFile`] — the same page space on a real file
//!   (positional I/O, free list persisted in a superblock), so indexes can
//!   be saved and reopened cold;
//! * [`BufferPool`] — a capacity-bounded LRU cache over any backend with
//!   dirty-page write-back behind one latch, so a shared index can serve
//!   concurrent readers. Its own [`IoStats`] count *logical* accesses (plus cache
//!   hits/misses); the wrapped backend keeps counting *physical*
//!   transfers.
//!
//! All three backends are `Send + Sync`; the counted/uncounted read paths
//! take `&self`, so one store can serve many reader threads at once (see
//! the [`PageStore`] sharing contract).
//!
//! ## Counting contract
//!
//! [`PageStore::read_into`] and [`PageStore::write`] are counted: one call,
//! one recorded access on [`PageStore::stats`]. [`PageStore::peek_into`]
//! bypasses counting on **every** backend — it exists for in-place page
//! editors that account for I/O themselves (a read-modify-write charged as
//! one read + one write, as [`ObjectHeap::insert`] does) and for
//! out-of-model access (invariant checks, structure statistics,
//! persistence snapshots). A [`BufferPool`] still serves `peek` from the
//! coherent cached view, but touches neither its logical counters nor its
//! hit/miss counters.
//!
//! The other pieces:
//!
//! * [`ObjectHeap`] — a slotted-page heap file (generic over its store)
//!   holding the "details of `o.ur` and the parameters of `o.pdf`" that
//!   leaf entries point to; the refinement step groups candidates by page
//!   and performs **one I/O per page** (Sec 5.2);
//! * [`codec`] — little-endian byte readers/writers. On-page floats are
//!   stored as `f32` (computation stays `f64`): this matches the paper's
//!   entry-size arithmetic (Table 1) and is standard practice for
//!   coordinate data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod codec;
pub mod wal;

mod buffer;
mod disk;
mod fault;
mod heap;
mod iostats;
mod pagefile;

pub use buffer::BufferPool;
pub use codec::{byte_array, f32_round_down, f32_round_up, ByteReader, ByteWriter};
pub use disk::DiskPageFile;
pub use fault::{FaultCounters, FaultMode, FaultStore};
pub use heap::{ObjectHeap, RecordAddr};
pub use iostats::IoStats;
pub use pagefile::{PageFile, PageId, PageStore, PAGE_SIZE};
pub use wal::{commit_group, fsync_dir, replace_file, ReplayTarget, Wal, WalStore};
