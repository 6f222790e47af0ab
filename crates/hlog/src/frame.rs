//! Page frames of the in-memory circular buffer (§5.1).
//!
//! "The circular buffer is a linear array of fixed-size page frames, each of
//! size 2^F bytes, that are each allocated sector-aligned with the underlying
//! storage device, in order to allow unbuffered reads and writes without
//! additional memory copies."

use std::alloc::{alloc_zeroed, dealloc, Layout};

/// Alignment of every frame: covers common sector sizes (512/4096).
pub const FRAME_ALIGN: usize = 4096;

/// One sector-aligned, heap-allocated page frame.
pub struct Frame {
    /// `base` rounded up to [`FRAME_ALIGN`].
    ptr: *mut u8,
    len: usize,
    /// The underlying allocation: `len + FRAME_ALIGN - 1` bytes at the
    /// allocator's default alignment.
    base: *mut u8,
    layout: Layout,
}

// Safety: the frame is plain memory; all concurrent-access discipline is
// enforced by the log's epoch machinery, not by this type.
unsafe impl Send for Frame {}
unsafe impl Sync for Frame {}

impl Frame {
    /// Allocates a zeroed frame of `size` bytes.
    ///
    /// The allocation over-asks by `FRAME_ALIGN - 1` bytes at default
    /// alignment and aligns inside it: an over-aligned `alloc_zeroed` takes
    /// the allocator's allocate-then-memset path, touching every byte of
    /// every frame at store build and recovery, while a default-aligned one
    /// is `calloc`, which hands large requests fresh zero pages untouched.
    pub fn new(size: usize) -> Self {
        let layout = Layout::from_size_align(size + FRAME_ALIGN - 1, std::mem::align_of::<u64>())
            .expect("valid frame layout");
        // Safety: layout has nonzero size.
        let base = unsafe { alloc_zeroed(layout) };
        assert!(!base.is_null(), "frame allocation failed");
        let pad = (FRAME_ALIGN - base as usize % FRAME_ALIGN) % FRAME_ALIGN;
        // Safety: `pad < FRAME_ALIGN`, so `[ptr, ptr + size)` lies inside
        // the `size + FRAME_ALIGN - 1` allocated bytes.
        let ptr = unsafe { base.add(pad) };
        Self { ptr, len: size, base, layout }
    }

    /// Base pointer of the frame.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Frame size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the frame contents out (used by the flush path; the frame is
    /// immutable by then, see §5.2).
    pub fn snapshot(&self) -> Vec<u8> {
        // Safety: ptr covers len() bytes, initialized (zeroed at alloc).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len()).to_vec() }
    }

    /// Zeroes the frame for reuse by a new page (single claimant only —
    /// enforced by the Opening state in the frame status array).
    pub fn zero(&self) {
        // Safety: exclusive claim during the Opening state.
        unsafe { std::ptr::write_bytes(self.ptr, 0, self.len()) };
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        // Safety: base/layout came from alloc_zeroed above.
        unsafe { dealloc(self.base, self.layout) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroed_and_aligned() {
        let f = Frame::new(8192);
        assert_eq!(f.as_ptr() as usize % FRAME_ALIGN, 0);
        assert_eq!(f.len(), 8192);
        assert!(f.snapshot().iter().all(|&b| b == 0));
    }

    #[test]
    fn write_snapshot_zero() {
        let f = Frame::new(1024);
        unsafe { *f.as_ptr().add(10) = 0xAB };
        assert_eq!(f.snapshot()[10], 0xAB);
        f.zero();
        assert_eq!(f.snapshot()[10], 0);
    }
}
