//! Fixed-size pages of trace records.

use crate::codec::TraceRecord;
use bytes::{Bytes, BytesMut};

/// The page size in bytes (8 KiB, the common database default).
pub const PAGE_SIZE: usize = 8 * 1024;

/// Number of records that fit in one page.
pub(crate) const RECORDS_PER_PAGE: usize =
    (PAGE_SIZE - Page::HEADER_LEN) / TraceRecord::ENCODED_LEN;

/// A fixed-size page holding up to `RECORDS_PER_PAGE` (292) encoded trace records.
///
/// The layout is a 4-byte little-endian record count followed by densely packed
/// records.  Pages are immutable once frozen into [`Bytes`], which is what the
/// virtual disk stores.
#[derive(Debug, Clone, Default)]
pub struct Page {
    records: Vec<TraceRecord>,
}

impl Page {
    /// Size of the page header in bytes (the record count).
    pub(crate) const HEADER_LEN: usize = 4;

    /// Creates an empty page.
    pub(crate) fn new() -> Self {
        Page { records: Vec::with_capacity(RECORDS_PER_PAGE) }
    }

    /// True when the page holds no records.
    pub(crate) fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// True when no further record can be appended.
    pub(crate) fn is_full(&self) -> bool {
        self.records.len() >= RECORDS_PER_PAGE
    }

    /// Appends a record; returns `false` (and leaves the page unchanged) when the
    /// page is already full.
    pub(crate) fn push(&mut self, record: TraceRecord) -> bool {
        if self.is_full() {
            return false;
        }
        self.records.push(record);
        true
    }

    /// The records stored in the page.
    pub(crate) fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Serialises the page into exactly [`PAGE_SIZE`] bytes.
    pub(crate) fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(PAGE_SIZE);
        buf.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for rec in &self.records {
            rec.encode(&mut buf);
        }
        buf.resize(PAGE_SIZE, 0);
        buf.freeze()
    }

    /// Parses a page from its serialised form (the external sort's runs;
    /// queries decode only the records they need, see [`entity_records`]).
    ///
    /// # Panics
    /// Panics when the buffer is shorter than the header or the declared record
    /// count does not fit in the buffer.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Self {
        Page { records: (0..record_count(bytes)).map(|i| record_at(bytes, i)).collect() }
    }
}

/// The record count an encoded page declares, checked against its length.
///
/// # Panics
/// Panics when the buffer is shorter than the header or the declared record
/// count does not fit in the buffer.
fn record_count(bytes: &[u8]) -> usize {
    assert!(bytes.len() >= Page::HEADER_LEN, "page buffer too small");
    let count = u32::from_le_bytes(bytes[..4].try_into().expect("4 header bytes")) as usize;
    let needed = Page::HEADER_LEN + count * TraceRecord::ENCODED_LEN;
    assert!(bytes.len() >= needed, "page buffer truncated: {} < {needed}", bytes.len());
    count
}

/// The encoded bytes of record `i` of a page of `record_count(bytes)`.
fn encoded(bytes: &[u8], i: usize) -> &[u8; TraceRecord::ENCODED_LEN] {
    let at = Page::HEADER_LEN + i * TraceRecord::ENCODED_LEN;
    bytes[at..at + TraceRecord::ENCODED_LEN].try_into().expect("a whole record")
}

/// Decodes record `i` of an encoded page.
fn record_at(bytes: &[u8], i: usize) -> TraceRecord {
    TraceRecord::from_encoded(encoded(bytes, i))
}

/// The records of `entity` on an encoded page, decoded one by one as they
/// are iterated: the run is found by binary search over the encoded entity
/// column (records are entity-sorted), and no other record is decoded.
pub(crate) fn entity_records(bytes: &[u8], entity: u64) -> impl Iterator<Item = TraceRecord> + '_ {
    let entity_of = move |i: usize| {
        u64::from_le_bytes(encoded(bytes, i)[..8].try_into().expect("8 entity bytes"))
    };
    let count = record_count(bytes);
    let (mut first, mut end) = (0, count);
    while first < end {
        let mid = (first + end) / 2;
        if entity_of(mid) < entity {
            first = mid + 1;
        } else {
            end = mid;
        }
    }
    (first..count).take_while(move |&i| entity_of(i) == entity).map(move |i| record_at(bytes, i))
}

impl FromIterator<TraceRecord> for Page {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        let mut page = Page::new();
        for rec in iter {
            assert!(page.push(rec), "too many records for one page");
        }
        page
    }
}

/// Packs an iterator of records into as many pages as needed, in order.
pub(crate) fn pack_pages<I: IntoIterator<Item = TraceRecord>>(records: I) -> Vec<Page> {
    let mut pages = Vec::new();
    let mut current = Page::new();
    for rec in records {
        if !current.push(rec) {
            pages.push(std::mem::take(&mut current));
            current.push(rec);
        }
    }
    if !current.is_empty() {
        pages.push(current);
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord::new(i, i as u32, i * 10, i * 10 + 5)
    }

    #[test]
    fn capacity_is_derived_from_sizes() {
        assert_eq!(RECORDS_PER_PAGE, (PAGE_SIZE - 4) / TraceRecord::ENCODED_LEN);
        const { assert!(RECORDS_PER_PAGE > 200, "a page should hold a few hundred records") };
    }

    #[test]
    fn push_until_full() {
        let mut page = Page::new();
        for i in 0..RECORDS_PER_PAGE {
            assert!(page.push(rec(i as u64)));
        }
        assert!(page.is_full());
        assert!(!page.push(rec(0)));
        assert_eq!(page.records().len(), RECORDS_PER_PAGE);
    }

    #[test]
    fn serialisation_round_trip() {
        let page: Page = (0..100).map(rec).collect();
        let bytes = page.to_bytes();
        assert_eq!(bytes.len(), PAGE_SIZE);
        let parsed = Page::from_bytes(&bytes);
        assert_eq!(parsed.records(), page.records());
    }

    #[test]
    fn empty_page_round_trip() {
        let page = Page::new();
        let parsed = Page::from_bytes(&page.to_bytes());
        assert!(parsed.is_empty());
    }

    #[test]
    #[should_panic(expected = "page buffer too small")]
    fn from_bytes_rejects_tiny_buffers() {
        let _ = Page::from_bytes(&[0u8; 2]);
    }

    #[test]
    fn pack_pages_splits_at_capacity() {
        let n = RECORDS_PER_PAGE + 10;
        let pages = pack_pages((0..n as u64).map(rec));
        assert_eq!(pages.len(), 2);
        // No record lost or duplicated.
        assert_eq!(pages[0].records().len(), RECORDS_PER_PAGE);
        assert_eq!(pages[1].records().len(), 10);
    }

    /// The binary-searched run of every entity — first and last on the
    /// page, one record or many, absent — is what a full decode filters.
    #[test]
    fn entity_records_decode_exactly_the_entitys_run() {
        let page: Page =
            [1u64, 1, 4, 4, 4, 9, 12, 12].iter().enumerate().map(|(i, &e)| rec_of(e, i)).collect();
        let bytes = page.to_bytes();
        for entity in 0..14 {
            let run: Vec<TraceRecord> = entity_records(&bytes, entity).collect();
            let filtered: Vec<TraceRecord> =
                page.records().iter().filter(|r| r.entity == entity).copied().collect();
            assert_eq!(run, filtered, "entity {entity}");
        }
        assert_eq!(entity_records(&Page::new().to_bytes(), 3).count(), 0);
    }

    fn rec_of(entity: u64, i: usize) -> TraceRecord {
        TraceRecord::new(entity, i as u32, i as u64 * 10, i as u64 * 10 + 5)
    }

    #[test]
    fn pack_pages_of_empty_input_is_empty() {
        assert!(pack_pages(std::iter::empty()).is_empty());
    }

    proptest! {
        #[test]
        fn pack_preserves_order_and_count(count in 0usize..1000) {
            let records: Vec<TraceRecord> = (0..count as u64).map(rec).collect();
            let pages = pack_pages(records.iter().copied());
            let unpacked: Vec<TraceRecord> =
                pages.iter().flat_map(|p| p.records().iter().copied()).collect();
            prop_assert_eq!(unpacked, records);
        }
    }
}
