//! Record layout in the log (Fig 2, §4).
//!
//! ```text
//!   [ header: u64 ][ key: K ][ value: V ]   (8-byte aligned total)
//! ```
//!
//! The header packs the previous-record address (48 bits) with status bits:
//!
//! | bit | name      | meaning                                              |
//! |-----|-----------|------------------------------------------------------|
//! | 48  | invalid   | CAS on the index entry failed; skip this record (§5.3)|
//! | 49  | tombstone | deletion marker (§5.3)                               |
//! | 50  | delta     | CRDT partial-value record (§6.3)                     |
//! | 51  | merge     | index-shrink meta record pointing at two chains (App B)|
//! | 52  | overwrite | superseded by a later record (GC hint, Appendix C)   |
//! | 53  | live      | always set on real records, so an all-zero header     |
//! |     |           | unambiguously marks page padding for log scans        |
//!
//! The header is a single `AtomicU64`: latch-free delete splices and invalid
//! markings are CAS/fetch-or operations on it, exactly as in the paper.

use faster_util::{align_up, Address, Pod};
use std::sync::atomic::{AtomicU64, Ordering};

const ADDR_MASK: u64 = Address::MASK;
pub const INVALID_BIT: u64 = 1 << 48;
pub const TOMBSTONE_BIT: u64 = 1 << 49;
pub const DELTA_BIT: u64 = 1 << 50;
pub const MERGE_BIT: u64 = 1 << 51;
pub const OVERWRITE_BIT: u64 = 1 << 52;
pub const LIVE_BIT: u64 = 1 << 53;

/// Decoded record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader(pub u64);

impl RecordHeader {
    pub fn new(prev: Address) -> Self {
        Self((prev.raw() & ADDR_MASK) | LIVE_BIT)
    }

    pub fn with(mut self, bits: u64) -> Self {
        self.0 |= bits;
        self
    }

    #[inline]
    pub fn prev(self) -> Address {
        Address::new(self.0 & ADDR_MASK)
    }

    #[inline]
    pub fn is_live(self) -> bool {
        self.0 & LIVE_BIT != 0
    }

    #[inline]
    pub fn is_invalid(self) -> bool {
        self.0 & INVALID_BIT != 0
    }

    #[inline]
    pub fn is_tombstone(self) -> bool {
        self.0 & TOMBSTONE_BIT != 0
    }

    #[inline]
    pub fn is_delta(self) -> bool {
        self.0 & DELTA_BIT != 0
    }

    #[inline]
    pub fn is_merge(self) -> bool {
        self.0 & MERGE_BIT != 0
    }

    #[inline]
    pub fn is_overwritten(self) -> bool {
        self.0 & OVERWRITE_BIT != 0
    }
}

/// Typed view over an in-memory record. Carries no lifetime of its own: the
/// caller's epoch guard is what keeps the underlying page frame alive (§4).
pub struct RecordRef<K: Pod, V: Pod> {
    base: *mut u8,
    _marker: std::marker::PhantomData<(K, V)>,
}

impl<K: Pod, V: Pod> Clone for RecordRef<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Pod, V: Pod> Copy for RecordRef<K, V> {}

impl<K: Pod, V: Pod> RecordRef<K, V> {
    /// Byte offset of the key within a record.
    pub const KEY_OFFSET: usize = 8;

    /// Byte offset of the value within a record.
    pub const fn value_offset() -> usize {
        8 + align_up(std::mem::size_of::<K>(), 8)
    }

    /// Total record size, 8-byte aligned.
    pub const fn size() -> usize {
        align_up(Self::value_offset() + std::mem::size_of::<V>(), 8)
    }

    /// Wraps a raw pointer previously obtained from the log.
    ///
    /// # Safety
    ///
    /// `base` must point at `Self::size()` readable/writable bytes laid out
    /// as a record, and must stay valid for the caller's epoch-protected
    /// scope.
    #[inline]
    pub unsafe fn from_raw(base: *mut u8) -> Self {
        debug_assert!(!base.is_null());
        debug_assert_eq!(base as usize % 8, 0, "records are 8-byte aligned");
        Self { base, _marker: std::marker::PhantomData }
    }

    /// The header word as an atomic (shared mutation point).
    #[inline]
    pub fn header_atomic(&self) -> &AtomicU64 {
        // Safety: base is 8-aligned and valid; AtomicU64 has the same layout
        // as u64.
        unsafe { &*(self.base as *const AtomicU64) }
    }

    /// Decoded header snapshot.
    #[inline]
    pub fn header(&self) -> RecordHeader {
        RecordHeader(self.header_atomic().load(Ordering::SeqCst))
    }

    /// Stores a fresh header (record initialization only).
    #[inline]
    pub fn init_header(&self, h: RecordHeader) {
        self.header_atomic().store(h.0, Ordering::SeqCst);
    }

    /// Sets status bits with fetch-or (e.g. invalid after a failed CAS).
    #[inline]
    pub fn set_bits(&self, bits: u64) {
        self.header_atomic().fetch_or(bits, Ordering::SeqCst);
    }

    /// CAS the full header (delete splices, prev rewrites during resize).
    #[inline]
    pub fn cas_header(&self, expected: RecordHeader, new: RecordHeader) -> Result<(), RecordHeader> {
        self.header_atomic()
            .compare_exchange(expected.0, new.0, Ordering::SeqCst, Ordering::SeqCst)
            .map(|_| ())
            .map_err(RecordHeader)
    }

    /// Rewrites only the previous-address bits, preserving status bits.
    pub fn set_prev(&self, prev: Address) {
        let a = self.header_atomic();
        let mut cur = a.load(Ordering::SeqCst);
        loop {
            let new = (cur & !ADDR_MASK) | prev.raw();
            match a.compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Reads the key (immutable after initialization).
    #[inline]
    pub fn key(&self) -> K {
        // Safety: layout contract of from_raw.
        unsafe { std::ptr::read(self.base.add(Self::KEY_OFFSET) as *const K) }
    }

    /// Writes the key (record initialization only).
    #[inline]
    pub fn init_key(&self, key: &K) {
        // Safety: layout contract; exclusive during init.
        unsafe { std::ptr::write(self.base.add(Self::KEY_OFFSET) as *mut K, *key) }
    }

    /// Raw value pointer.
    #[inline]
    pub fn value_ptr(&self) -> *mut V {
        // Safety: layout contract.
        unsafe { self.base.add(Self::value_offset()) as *mut V }
    }

    /// Copies the value out (single-reader contexts: immutable regions).
    #[inline]
    pub fn read_value(&self) -> V {
        // Safety: layout contract.
        unsafe { std::ptr::read(self.value_ptr()) }
    }

    /// Exclusive value reference (record initialization / copy-update target).
    ///
    /// # Safety
    ///
    /// Caller must have exclusive access (freshly allocated, unpublished
    /// record).
    #[inline]
    #[allow(clippy::mut_from_ref)] // interior mutability; safety contract above
    pub unsafe fn value_mut(&self) -> &mut V {
        &mut *self.value_ptr()
    }

    /// Shared-mutation cell for the concurrent user functions.
    #[inline]
    pub fn value_cell(&self) -> &crate::functions::ValueCell<V> {
        // Safety: ValueCell is a #[repr(transparent)] UnsafeCell<V> view.
        unsafe { &*(self.value_ptr() as *const crate::functions::ValueCell<V>) }
    }

    /// Decodes a record image (a log-scan slice or a storage read):
    /// `None` for a short image or page padding.
    pub fn parse_bytes(bytes: &[u8]) -> Option<(RecordHeader, K, V)> {
        RecordBytes::<_, K, V>::parse(bytes).map(|r| (r.header(), r.key(), r.value()))
    }
}

/// A record a chain walk can inspect, wherever its bytes are: resident in a
/// log frame ([`RecordRef`]) or read back from storage ([`RecordBytes`]).
pub trait RecordView<K: Pod, V: Pod> {
    fn header(&self) -> RecordHeader;
    fn key(&self) -> K;
    fn value(&self) -> V;
    /// A merge record's second chain address (Appendix B), kept in the key
    /// slot. Only meaningful when the header's merge bit is set.
    fn merge_second(&self) -> Address;
}

impl<K: Pod, V: Pod> RecordView<K, V> for RecordRef<K, V> {
    fn header(&self) -> RecordHeader {
        RecordRef::header(self)
    }
    fn key(&self) -> K {
        RecordRef::key(self)
    }
    fn value(&self) -> V {
        self.read_value()
    }
    fn merge_second(&self) -> Address {
        // Safety: layout contract of from_raw.
        unsafe { MergeRecord::second_address(self.base) }
    }
}

/// A record image held in a byte buffer (`&[u8]` from a log scan, or the
/// `Vec<u8>` a storage read returned), validated as a live record.
pub struct RecordBytes<B, K, V> {
    bytes: B,
    _marker: std::marker::PhantomData<(K, V)>,
}

impl<B: AsRef<[u8]>, K: Pod, V: Pod> RecordBytes<B, K, V> {
    /// `None` for a short image or page padding (an all-zero header).
    pub fn parse(bytes: B) -> Option<Self> {
        let img = Self { bytes, _marker: std::marker::PhantomData };
        (img.bytes.as_ref().len() >= RecordRef::<K, V>::size() && img.header().is_live()).then_some(img)
    }

    fn word(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.bytes.as_ref()[at..at + 8].try_into().expect("8 bytes"))
    }

    fn field<T: Pod>(&self, at: usize) -> T {
        faster_util::pod_from_bytes::<T>(&self.bytes.as_ref()[at..at + std::mem::size_of::<T>()])
    }
}

impl<B: AsRef<[u8]>, K: Pod, V: Pod> RecordView<K, V> for RecordBytes<B, K, V> {
    fn header(&self) -> RecordHeader {
        RecordHeader(self.word(0))
    }
    fn key(&self) -> K {
        self.field(RecordRef::<K, V>::KEY_OFFSET)
    }
    fn value(&self) -> V {
        self.field(RecordRef::<K, V>::value_offset())
    }
    fn merge_second(&self) -> Address {
        Address::new(self.word(RecordRef::<K, V>::KEY_OFFSET) & ADDR_MASK)
    }
}

/// For merge meta-records (index shrink): the second chain address is stored
/// in the key slot. Only meaningful when [`RecordHeader::is_merge`] is set.
pub struct MergeRecord;

impl MergeRecord {
    /// Record size of a merge record for stores with key type `K`, value `V`
    /// (same as a normal record so log strides stay uniform).
    pub const fn size<K: Pod, V: Pod>() -> usize {
        RecordRef::<K, V>::size()
    }

    /// Reads the second chain address from the key slot.
    ///
    /// # Safety
    ///
    /// `base` must be a valid merge record.
    pub unsafe fn second_address(base: *mut u8) -> Address {
        Address::new(std::ptr::read(base.add(8) as *const u64) & Address::MASK)
    }

    /// Writes the second chain address.
    ///
    /// # Safety
    ///
    /// Exclusive access during initialization.
    pub unsafe fn set_second_address(base: *mut u8, addr: Address) {
        std::ptr::write(base.add(8) as *mut u64, addr.raw());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_bits_round_trip() {
        let h = RecordHeader::new(Address::new(0xABCD)).with(TOMBSTONE_BIT | DELTA_BIT);
        assert_eq!(h.prev(), Address::new(0xABCD));
        assert!(h.is_live());
        assert!(h.is_tombstone());
        assert!(h.is_delta());
        assert!(!h.is_invalid());
        assert!(!h.is_merge());
        assert!(!h.is_overwritten());
    }

    #[test]
    fn zero_header_is_padding() {
        assert!(!RecordHeader(0).is_live());
        assert!(RecordHeader::new(Address::INVALID).is_live());
    }

    #[test]
    fn record_size_is_aligned() {
        assert_eq!(RecordRef::<u64, u64>::size(), 24);
        assert_eq!(RecordRef::<u64, [u8; 100]>::size() % 8, 0);
        assert_eq!(RecordRef::<u64, [u8; 100]>::size(), 8 + 8 + 104);
        assert_eq!(RecordRef::<u32, u8>::size(), 24); // 8 + pad(4->8) + pad(1->8)
    }

    #[test]
    fn record_read_write() {
        let mut buf = vec![0u8; RecordRef::<u64, u64>::size()];
        let r = unsafe { RecordRef::<u64, u64>::from_raw(buf.as_mut_ptr()) };
        r.init_header(RecordHeader::new(Address::new(64)));
        r.init_key(&0xFEED);
        unsafe { *r.value_mut() = 777 };
        assert_eq!(r.header().prev(), Address::new(64));
        assert_eq!(r.key(), 0xFEED);
        assert_eq!(r.read_value(), 777);
        // Bit marking
        r.set_bits(INVALID_BIT);
        assert!(r.header().is_invalid());
        assert_eq!(r.header().prev(), Address::new(64), "prev survives bit sets");
        // Prev rewrite preserves bits
        r.set_prev(Address::new(128));
        assert!(r.header().is_invalid());
        assert_eq!(r.header().prev(), Address::new(128));
    }

    #[test]
    fn parse_bytes_matches_layout() {
        let mut buf = vec![0u8; RecordRef::<u64, u64>::size()];
        {
            let r = unsafe { RecordRef::<u64, u64>::from_raw(buf.as_mut_ptr()) };
            r.init_header(RecordHeader::new(Address::new(96)).with(TOMBSTONE_BIT));
            r.init_key(&11);
            unsafe { *r.value_mut() = 22 };
        }
        let (h, k, v) = RecordRef::<u64, u64>::parse_bytes(&buf).unwrap();
        assert_eq!(h.prev(), Address::new(96));
        assert!(h.is_tombstone());
        assert_eq!(k, 11);
        assert_eq!(v, 22);
        // Padding (all zero) is rejected.
        let zeros = vec![0u8; RecordRef::<u64, u64>::size()];
        assert!(RecordRef::<u64, u64>::parse_bytes(&zeros).is_none());
    }

    #[test]
    fn merge_record_second_address() {
        let mut buf = vec![0u8; MergeRecord::size::<u64, u64>()];
        unsafe {
            let r = RecordRef::<u64, u64>::from_raw(buf.as_mut_ptr());
            r.init_header(RecordHeader::new(Address::new(100)).with(MERGE_BIT));
            MergeRecord::set_second_address(buf.as_mut_ptr(), Address::new(200));
            assert!(r.header().is_merge());
            assert_eq!(r.header().prev(), Address::new(100));
            assert_eq!(MergeRecord::second_address(buf.as_mut_ptr()), Address::new(200));
        }
        let img = RecordBytes::<_, u64, u64>::parse(&buf[..]).expect("live merge record");
        assert!(img.header().is_merge());
        assert_eq!(img.merge_second(), Address::new(200));
    }
}
