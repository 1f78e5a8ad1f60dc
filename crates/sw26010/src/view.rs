//! Shared views of main memory used by DMA operations.
//!
//! On the real chip, all 64 CPEs DMA into the same DDR3 address space and
//! disjointness of writes is the programmer's responsibility. We mirror that
//! contract: a [`MemView`] (read) or [`MemViewMut`] (write) is a `Copy`
//! handle to a host slice that every CPE body of a mesh launch can hold
//! simultaneously. The bodies of one launch write disjoint element
//! ranges, which kernel plans guarantee by construction (each CPE owns
//! distinct output rows/tiles). A launch runs on one thread, and the
//! views are neither `Send` nor `Sync`, so no two threads ever touch one.
//!
//! All `unsafe` in the simulator is confined to this module,
//! and the public kernel API only exposes memory through DMA calls.

use std::marker::PhantomData;

/// Read-only view of a `[f32]` region of simulated main memory.
#[derive(Clone, Copy)]
pub struct MemView<'a> {
    ptr: *const f32,
    len: usize,
    _marker: PhantomData<&'a [f32]>,
}

impl<'a> MemView<'a> {
    pub fn new(slice: &'a [f32]) -> Self {
        MemView {
            ptr: slice.as_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Copy `dst.len()` elements starting at `offset` into `dst`.
    ///
    /// Panics if the range is out of bounds (DMA beyond the region is a bug
    /// in the kernel plan, not a recoverable condition).
    #[inline]
    pub fn read(&self, offset: usize, dst: &mut [f32]) {
        assert!(
            offset + dst.len() <= self.len,
            "DMA get out of bounds: {}+{} > {}",
            offset,
            dst.len(),
            self.len
        );
        // SAFETY: bounds checked above; source is valid for `len` reads.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(offset), dst.as_mut_ptr(), dst.len());
        }
    }
}

/// Mutable view of a `[f32]` region of simulated main memory.
///
/// `Copy` so that all CPE bodies of a launch can address the output buffer,
/// matching the hardware contract. Callers must ensure the element ranges
/// the CPEs write are disjoint.
#[derive(Clone, Copy)]
pub struct MemViewMut<'a> {
    ptr: *mut f32,
    len: usize,
    _marker: PhantomData<&'a mut [f32]>,
}

impl<'a> MemViewMut<'a> {
    pub fn new(slice: &'a mut [f32]) -> Self {
        MemViewMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Copy `src` into the region starting at `offset`.
    #[inline]
    pub fn write(&self, offset: usize, src: &[f32]) {
        assert!(
            offset + src.len() <= self.len,
            "DMA put out of bounds: {}+{} > {}",
            offset,
            src.len(),
            self.len
        );
        // SAFETY: bounds checked; the view is the only live access to the
        // slice while it exists (module docs).
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(offset), src.len());
        }
    }

    /// Downgrade to a read-only view.
    #[inline]
    pub fn as_view(&self) -> MemView<'a> {
        MemView {
            ptr: self.ptr,
            len: self.len,
            _marker: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut mem = vec![0.0f32; 16];
        let view = MemViewMut::new(&mut mem);
        view.write(4, &[1.0, 2.0, 3.0]);
        let mut out = [0.0f32; 3];
        view.as_view().read(4, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert_eq!(mem[5], 2.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let mem = vec![0.0f32; 4];
        let view = MemView::new(&mem);
        let mut dst = [0.0f32; 8];
        view.read(0, &mut dst);
    }
}
