//! Slotted-page heap file for object detail records.
//!
//! Leaf entries of both trees carry a [`RecordAddr`] pointing at the page
//! (and slot) holding the serialized uncertainty region + pdf parameters.
//! During refinement the query engine groups candidates by page so that
//! "for each address, one I/O is performed to load the detailed information
//! of all relevant candidates" (paper Sec 5.2).
//!
//! The heap is generic over its [`PageStore`], so the same slotted-page
//! code runs over the in-memory [`PageFile`], a [`crate::DiskPageFile`],
//! or a [`crate::BufferPool`] — only the I/O cost changes.

use crate::{PageFile, PageId, PageStore, PAGE_SIZE};
use std::io;

/// Page layout:
/// `[n_slots: u16][data_start: u16]` then `n_slots` descriptors of
/// `[offset: u16][len: u16]`; record bytes grow downward from the page end.
/// A zero-length descriptor is a tombstone.
const HEADER: usize = 4;
const SLOT: usize = 4;

/// Address of a record: page + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordAddr {
    /// Heap page holding the record.
    pub page: PageId,
    /// Slot index within the page.
    pub slot: u16,
}

/// An append-mostly heap of variable-length records packed into pages.
#[derive(Debug, Default)]
pub struct ObjectHeap<S: PageStore = PageFile> {
    file: S,
    /// Page currently being filled.
    open_page: Option<PageId>,
}

impl ObjectHeap<PageFile> {
    /// An empty in-memory heap.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S: PageStore> ObjectHeap<S> {
    /// An empty heap over the given store.
    pub fn with_store(file: S) -> Self {
        Self {
            file,
            open_page: None,
        }
    }

    /// Reattaches a heap persisted elsewhere: the store already holds the
    /// pages; `open_page` is the page inserts were filling (if any).
    pub fn from_raw_parts(file: S, open_page: Option<PageId>) -> Self {
        Self { file, open_page }
    }

    /// Underlying page store (for I/O statistics and size reporting).
    pub fn file(&self) -> &S {
        &self.file
    }

    /// Mutable access to the underlying store (flushing, pool tuning).
    pub fn file_mut(&mut self) -> &mut S {
        &mut self.file
    }

    /// The page inserts are currently filling (persistence metadata).
    pub fn open_page(&self) -> Option<PageId> {
        self.open_page
    }

    /// Inserts a record; returns its address.
    ///
    /// Records must fit a page (`len + 8 <= PAGE_SIZE`); the object records
    /// of the paper's datasets are well under 100 bytes.
    pub fn insert(&mut self, record: &[u8]) -> io::Result<RecordAddr> {
        assert!(
            record.len() + HEADER + SLOT <= PAGE_SIZE,
            "record of {} bytes cannot fit a page",
            record.len()
        );
        if let Some(page) = self.open_page {
            if let Some(addr) = self.try_append(page, record)? {
                return Ok(addr);
            }
        }
        let page = self.file.allocate()?;
        // Fresh page: initialise header (n=0, data_start=PAGE_SIZE).
        let mut buf = [0u8; PAGE_SIZE];
        buf[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        self.file.write(page, &buf)?;
        self.open_page = Some(page);
        Ok(self
            .try_append(page, record)?
            // xlint: allow(panic-freedom) -- invariant: fresh page must accept the record
            .expect("fresh page must accept the record"))
    }

    /// Appends to `page` if space allows; one read + one write when it does.
    fn try_append(&mut self, page: PageId, record: &[u8]) -> io::Result<Option<RecordAddr>> {
        let mut buf = self.file.peek_page(page)?;
        let n_slots = u16::from_le_bytes([buf[0], buf[1]]) as usize;
        let data_start = u16::from_le_bytes([buf[2], buf[3]]) as usize;
        let slot_table_end = HEADER + (n_slots + 1) * SLOT;
        if slot_table_end + record.len() > data_start {
            return Ok(None);
        }
        self.file.stats().record_read();
        let new_start = data_start - record.len();
        buf[new_start..data_start].copy_from_slice(record);
        let slot_off = HEADER + n_slots * SLOT;
        buf[slot_off..slot_off + 2].copy_from_slice(&(new_start as u16).to_le_bytes());
        buf[slot_off + 2..slot_off + 4].copy_from_slice(&(record.len() as u16).to_le_bytes());
        buf[0..2].copy_from_slice(&((n_slots + 1) as u16).to_le_bytes());
        buf[2..4].copy_from_slice(&(new_start as u16).to_le_bytes());
        self.file.write(page, &buf[..])?;
        Ok(Some(RecordAddr {
            page,
            slot: n_slots as u16,
        }))
    }

    /// Reads one record (counted as one page read).
    pub fn get(&self, addr: RecordAddr) -> io::Result<Option<Vec<u8>>> {
        let buf = self.file.read_page(addr.page)?;
        Self::record_in(&buf, addr)
    }

    /// Reads a whole page and returns every live record with its slot —
    /// the refinement step's one-I/O-per-page access path.
    pub fn page_records(&self, page: PageId) -> io::Result<Vec<(u16, Vec<u8>)>> {
        let buf = self.file.read_page(page)?;
        let n_slots = u16::from_le_bytes([buf[0], buf[1]]);
        let mut out = Vec::with_capacity(n_slots as usize);
        for slot in 0..n_slots {
            if let Some(rec) = Self::record_in(&buf, RecordAddr { page, slot })? {
                out.push((slot, rec));
            }
        }
        Ok(out)
    }

    /// The record at `addr` in its page image `buf`: `None` for a
    /// tombstone or a slot past the table.
    fn record_in(buf: &[u8; PAGE_SIZE], addr: RecordAddr) -> io::Result<Option<Vec<u8>>> {
        let Some(off) = slot_offset(buf, addr)? else {
            return Ok(None);
        };
        let start = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
        let len = u16::from_le_bytes([buf[off + 2], buf[off + 3]]) as usize;
        if len == 0 {
            return Ok(None);
        }
        buf.get(start..start + len)
            .map(|rec| Some(rec.to_vec()))
            .ok_or_else(|| corrupt_slot(addr, "record runs past the page end"))
    }

    /// Tombstones a record (read + write of its page). Space is not
    /// compacted — deletions in the paper's workload are index-side.
    pub fn remove(&mut self, addr: RecordAddr) -> io::Result<()> {
        let mut buf = self.file.read_page(addr.page)?;
        let Some(off) = slot_offset(&buf, addr)? else {
            return Err(corrupt_slot(addr, "slot past the slot table"));
        };
        buf[off + 2..off + 4].copy_from_slice(&0u16.to_le_bytes());
        self.file.write(addr.page, &buf[..])
    }

    /// Size of the heap in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.file.size_bytes()
    }
}

/// Byte offset of `addr`'s slot descriptor in its page image `buf`:
/// `None` for a slot past the table, `InvalidData` when the table itself
/// runs past the page.
fn slot_offset(buf: &[u8; PAGE_SIZE], addr: RecordAddr) -> io::Result<Option<usize>> {
    if addr.slot >= u16::from_le_bytes([buf[0], buf[1]]) {
        return Ok(None);
    }
    let off = HEADER + addr.slot as usize * SLOT;
    if off + SLOT > PAGE_SIZE {
        return Err(corrupt_slot(addr, "slot table runs past the page end"));
    }
    Ok(Some(off))
}

fn corrupt_slot(addr: RecordAddr, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("heap page {} slot {}: {msg}", addr.page, addr.slot),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut h = ObjectHeap::new();
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(h.get(a).unwrap().unwrap(), b"alpha");
        assert_eq!(h.get(b).unwrap().unwrap(), b"beta");
    }

    #[test]
    fn records_pack_into_shared_pages() {
        let mut h = ObjectHeap::new();
        let a = h.insert(&[1u8; 100]).unwrap();
        let b = h.insert(&[2u8; 100]).unwrap();
        assert_eq!(a.page, b.page, "small records should share a page");
        assert_ne!(a.slot, b.slot);
    }

    #[test]
    fn page_overflows_to_next() {
        let mut h = ObjectHeap::new();
        let big = vec![7u8; 1500];
        let a = h.insert(&big).unwrap();
        let b = h.insert(&big).unwrap();
        let c = h.insert(&big).unwrap();
        assert_eq!(a.page, b.page);
        assert_ne!(a.page, c.page, "third 1500B record cannot fit the page");
    }

    #[test]
    fn page_records_returns_all_live() {
        let mut h = ObjectHeap::new();
        let a = h.insert(b"one").unwrap();
        let _b = h.insert(b"two").unwrap();
        let _c = h.insert(b"three").unwrap();
        h.remove(a).unwrap();
        let recs = h.page_records(a.page).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().any(|(_, r)| r == b"two"));
        assert!(recs.iter().any(|(_, r)| r == b"three"));
    }

    #[test]
    fn removed_record_is_gone() {
        let mut h = ObjectHeap::new();
        let a = h.insert(b"dead").unwrap();
        h.remove(a).unwrap();
        assert!(h.get(a).unwrap().is_none());
    }

    #[test]
    fn corrupt_slots_are_invalid_data_not_panics() {
        let mut h = ObjectHeap::new();
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        // Slot `b` now claims 100 bytes from offset 4090: past the page end.
        let mut page = h.file().peek_page(a.page).unwrap();
        let off = HEADER + b.slot as usize * SLOT;
        page[off..off + 2].copy_from_slice(&4090u16.to_le_bytes());
        page[off + 2..off + 4].copy_from_slice(&100u16.to_le_bytes());
        h.file_mut().write(a.page, &page[..]).unwrap();
        let names_it = |e: io::Error| {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(
                e.to_string().contains(&format!("page {} slot 1", a.page)),
                "{e}"
            );
        };
        assert_eq!(h.get(a).unwrap().unwrap(), b"alpha", "slot 0 is intact");
        names_it(h.get(b).unwrap_err());
        names_it(h.page_records(a.page).unwrap_err());
        // A slot count whose table runs past the page end.
        page[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        h.file_mut().write(a.page, &page[..]).unwrap();
        let far = RecordAddr {
            page: a.page,
            slot: u16::MAX - 1,
        };
        assert_eq!(h.get(far).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(h.page_records(a.page).is_err());
        assert_eq!(
            h.remove(far).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Removing a slot the page never had is refused the same way.
        page[0..2].copy_from_slice(&2u16.to_le_bytes());
        h.file_mut().write(a.page, &page[..]).unwrap();
        let unknown = RecordAddr {
            page: a.page,
            slot: 2,
        };
        let e = h.remove(unknown).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(
            e.to_string().contains(&format!("page {} slot 2", a.page)),
            "{e}"
        );
    }

    #[test]
    fn many_records_addressable() {
        let mut h = ObjectHeap::new();
        let addrs: Vec<_> = (0..500u32)
            .map(|i| {
                let mut rec = vec![0u8; 40];
                rec[..4].copy_from_slice(&i.to_le_bytes());
                h.insert(&rec).unwrap()
            })
            .collect();
        for (i, addr) in addrs.iter().enumerate() {
            let rec = h.get(*addr).unwrap().unwrap();
            assert_eq!(u32::from_le_bytes(rec[..4].try_into().unwrap()), i as u32);
        }
        assert!(
            h.file().live_pages() > 1,
            "40B x500 records must span pages"
        );
    }

    #[test]
    fn heap_works_over_a_buffer_pool() {
        let pool = crate::BufferPool::new(PageFile::new(), 2);
        let mut h = ObjectHeap::with_store(pool);
        let addrs: Vec<_> = (0..300u32)
            .map(|i| h.insert(&i.to_le_bytes()).unwrap())
            .collect();
        for (i, addr) in addrs.iter().enumerate() {
            let rec = h.get(*addr).unwrap().unwrap();
            assert_eq!(u32::from_le_bytes(rec[..4].try_into().unwrap()), i as u32);
        }
        assert!(h.file().resident_pages() <= 2);
    }
}
