//! The node page format, `[level u8][count u16][count × entry]`, written
//! once. The tree ([`crate::RStarTreeBase`]) owns the level byte and checks
//! it on every load; [`NodeCodec`]'s provided methods own the count, the
//! fixed-stride entry loop and the capacity formula; a codec encodes one
//! entry.

use page_store::{ByteReader, ByteWriter, PageId, PAGE_SIZE};
use std::io;

/// The level byte and the `u16` entry count.
const HEADER: usize = 3;

/// An intermediate entry: bounding key + child page pointer.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerEntry<K> {
    /// Bounding key covering everything in the child's subtree.
    pub key: K,
    /// Page of the child node.
    pub child: PageId,
}

/// Encodes and decodes one node entry; the page around it (count, entry
/// loop, capacity) is provided.
///
/// Capacities derive from the *encoded entry size* against the 4096-byte
/// page — node fanout is the quantity the whole paper's size/performance
/// story hinges on (CFBs exist to keep entries small, Sec 4.3).
pub trait NodeCodec<K, L> {
    /// Encoded size of one leaf entry in bytes.
    fn leaf_entry_size(&self) -> usize;

    /// Encoded size of one inner entry in bytes.
    fn inner_entry_size(&self) -> usize;

    /// Writes one leaf entry: exactly [`Self::leaf_entry_size`] bytes.
    fn put_leaf(&self, entry: &L, w: &mut ByteWriter);

    /// Reads one leaf entry from its [`Self::leaf_entry_size`] bytes.
    fn get_leaf(&self, r: &mut ByteReader<'_>) -> L;

    /// Writes one inner entry: exactly [`Self::inner_entry_size`] bytes.
    fn put_inner(&self, entry: &InnerEntry<K>, w: &mut ByteWriter);

    /// Reads one inner entry from its [`Self::inner_entry_size`] bytes.
    fn get_inner(&self, r: &mut ByteReader<'_>) -> InnerEntry<K>;

    /// Maximum number of leaf entries per page.
    fn leaf_capacity(&self) -> usize {
        capacity(self.leaf_entry_size())
    }

    /// Maximum number of inner entries per page.
    fn inner_capacity(&self) -> usize {
        capacity(self.inner_entry_size())
    }

    /// Appends `[count u16][entries]` of a leaf page to `out`.
    fn encode_leaf(&self, entries: &[L], out: &mut Vec<u8>) {
        encode(entries, self.leaf_entry_size(), out, |e, w| {
            self.put_leaf(e, w)
        });
    }

    /// Reads the entries of a leaf page body (the bytes after the level
    /// byte). A count over [`Self::leaf_capacity`] or a body too short for
    /// it is `InvalidData`.
    fn decode_leaf(&self, bytes: &[u8]) -> io::Result<Vec<L>> {
        decode(bytes, self.leaf_entry_size(), |r| self.get_leaf(r))
    }

    /// Appends `[count u16][entries]` of an inner page to `out`.
    fn encode_inner(&self, entries: &[InnerEntry<K>], out: &mut Vec<u8>) {
        encode(entries, self.inner_entry_size(), out, |e, w| {
            self.put_inner(e, w)
        });
    }

    /// Reads the entries of an inner page body, refusing a bad count as
    /// [`Self::decode_leaf`] does.
    fn decode_inner(&self, bytes: &[u8]) -> io::Result<Vec<InnerEntry<K>>> {
        decode(bytes, self.inner_entry_size(), |r| self.get_inner(r))
    }
}

/// Entries of `entry_size` bytes that fit a page after its header.
fn capacity(entry_size: usize) -> usize {
    (PAGE_SIZE - HEADER) / entry_size
}

fn encode<T>(entries: &[T], size: usize, out: &mut Vec<u8>, put: impl Fn(&T, &mut ByteWriter)) {
    debug_assert!(entries.len() <= capacity(size));
    let mut w = ByteWriter::with_capacity(2 + entries.len() * size);
    w.put_u16(entries.len() as u16);
    for e in entries {
        put(e, &mut w);
    }
    debug_assert_eq!(
        w.len(),
        2 + entries.len() * size,
        "entries off their stride"
    );
    out.extend_from_slice(w.as_slice());
}

fn decode<T>(
    bytes: &[u8],
    size: usize,
    get: impl Fn(&mut ByteReader<'_>) -> T,
) -> io::Result<Vec<T>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let Some((count, body)) = bytes.split_first_chunk::<2>() else {
        return Err(invalid(format!("{} B hold no entry count", bytes.len())));
    };
    let (n, cap) = (usize::from(u16::from_le_bytes(*count)), capacity(size));
    match body.get(..n * size) {
        Some(entries) if n <= cap => Ok(entries
            .chunks_exact(size)
            .map(|e| get(&mut ByteReader::new(e)))
            .collect()),
        _ => Err(invalid(format!(
            "entry count {n} over capacity {cap} or past the {} B body",
            body.len()
        ))),
    }
}
