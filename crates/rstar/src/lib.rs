//! Generic, disk-based R*-tree machinery.
//!
//! The U-tree (paper Sec 5.3) "is performed in exactly the same way as the
//! R*-tree, except that each metric is replaced with its summed
//! counterpart", and its split "is decided using the R*-split, passing all
//! the rectangles obtained in the previous step" (the entry rectangles at
//! the median U-catalog value). This crate therefore implements the R*-tree
//! (Beckmann et al., SIGMOD 1990) **once**, parameterised over:
//!
//! * a key type `K` (plain MBRs for the baseline R*-tree; `(MBR⊥, MBR̄)`
//!   pairs for the U-tree; arrays of PCRs for U-PCR), and
//! * a [`KeyMetrics`] strategy supplying area / margin / overlap / centroid
//!   distance (the summed counterparts) and the *split rectangle* proxy.
//!
//! Nodes live on 4096-byte pages of any [`page_store::PageStore`] (the
//! in-memory [`page_store::PageFile`] by default, or a disk file / buffer
//! pool); every counted node access lands in the store's
//! [`page_store::IoStats`], which is the paper's I/O metric.
//!
//! The tree owns the page format, `[level u8][count u16][entries]`: it
//! writes the level byte and checks it against the level it expects on
//! every load (a page that disagrees is `InvalidData` naming the page), and
//! [`NodeCodec`]'s provided methods own the count, the fixed-stride entry
//! loop and the capacity formula. A codec encodes only one entry.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod bulk;
mod codec;
#[cfg(test)]
mod fault_paths;
mod metrics;
#[cfg(test)]
mod rect_tree;
mod split;
mod tree;

pub use bulk::str_order_by;
pub use codec::{InnerEntry, NodeCodec};
pub use metrics::{rect_covers_eps, KeyMetrics, LeafRecord};
pub use split::rstar_split;
pub use tree::{RStarTreeBase, TreeConfig, TreeStats, MIN_FANOUT};
