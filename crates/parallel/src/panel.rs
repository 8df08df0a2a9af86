//! Disjoint-write primitives and panel-grid scheduling for parallel
//! kernels.
//!
//! The packed GEMM engine (and the convolution executors in
//! `cnn-stack-nn`) split one output buffer into provably disjoint
//! regions — one per parallel grain — and let every worker write its own
//! region with no synchronisation, exactly as the paper's OpenMP C code
//! writes disjoint output rows of a shared array. [`DisjointWriter`] is
//! the shared-pointer capability that makes that pattern expressible
//! under the borrow checker, and [`parallel_tiles`] is the 2-D grid
//! driver that dispatches `(row-block, column-panel)` grains over
//! [`parallel_for`].

use crate::schedule::{parallel_for, Schedule};

/// A raw pointer to an output buffer that parallel workers write through,
/// each touching a provably disjoint region (e.g. one output-channel
/// plane, or one MR×NR GEMM tile, per grain).
///
/// # Example
///
/// ```
/// use cnn_stack_parallel::{parallel_for, DisjointWriter, Schedule};
///
/// let mut buf = vec![0.0f32; 16];
/// let w = DisjointWriter::new(&mut buf);
/// let w = &w;
/// parallel_for(2, 4, Schedule::Static, |range| {
///     for i in range {
///         // Grain i owns elements [i*4, i*4+4): ranges never overlap.
///         let s = unsafe { w.slice_mut(i * 4, i * 4 + 4) };
///         s.fill(i as f32);
///     }
/// });
/// assert_eq!(buf[4], 1.0);
/// ```
pub struct DisjointWriter {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: the pointer is only dereferenced through `slice_mut`, whose
// callers guarantee disjoint ranges across threads (enforced by the
// parallel-loop structure: each loop index owns a unique output region).
unsafe impl Sync for DisjointWriter {}
// SAFETY: as above — the writer is a capability for disjoint writes, and
// moving it between threads does not change which ranges are written.
unsafe impl Send for DisjointWriter {}

impl DisjointWriter {
    /// Wraps a mutable buffer for the duration of a parallel region.
    pub fn new(buf: &mut [f32]) -> Self {
        DisjointWriter {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }

    /// Total length of the wrapped buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wrapped buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The start of the wrapped buffer, for writes no subslice can
    /// express (a masked SIMD scatter). Writing through it carries the
    /// contract of [`slice_mut`](Self::slice_mut): only inside the
    /// buffer, and never to an element another worker writes.
    pub fn as_mut_ptr(&self) -> *mut f32 {
        self.ptr
    }

    /// Returns a mutable subslice `[start, end)`.
    ///
    /// # Safety
    ///
    /// Callers must guarantee that concurrently outstanding ranges never
    /// overlap and that the underlying buffer outlives the region (the
    /// borrow in [`new`](Self::new) enforces the lifetime at the call
    /// site).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, end: usize) -> &mut [f32] {
        debug_assert!(
            start <= end && end <= self.len,
            "disjoint write out of bounds"
        );
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

/// Runs `body(row_block, col_panel)` for every cell of a
/// `row_blocks × col_panels` grid, distributing the flattened grid over
/// `threads` workers.
///
/// This is the scheduling shape of a packed GEMM: the output matrix is
/// cut into row blocks (MC rows) × column panels (NR columns), every
/// grid cell is an independent grain, and dynamic scheduling soaks up
/// the imbalance between edge tiles and interior tiles. With
/// `threads <= 1` the grid runs inline with zero allocation.
pub fn parallel_tiles(
    threads: usize,
    row_blocks: usize,
    col_panels: usize,
    schedule: Schedule,
    body: impl Fn(usize, usize) + Sync,
) {
    let total = row_blocks * col_panels;
    if total == 0 {
        return;
    }
    parallel_for(threads, total, schedule, |range| {
        for idx in range {
            body(idx / col_panels, idx % col_panels);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_disjoint_writes_land() {
        let mut buf = vec![0.0f32; 64];
        {
            let w = DisjointWriter::new(&mut buf);
            assert_eq!(w.len(), 64);
            assert!(!w.is_empty());
            let w = &w;
            parallel_for(4, 16, Schedule::Dynamic { chunk: 1 }, |range| {
                for i in range {
                    // Each grain owns elements [i*4, i*4+4).
                    let s = unsafe { w.slice_mut(i * 4, i * 4 + 4) };
                    for (k, v) in s.iter_mut().enumerate() {
                        *v = (i * 4 + k) as f32;
                    }
                }
            });
        }
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn tile_grid_covers_every_cell_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (rows, cols) = (5, 7);
        let hits: Vec<AtomicUsize> = (0..rows * cols).map(|_| AtomicUsize::new(0)).collect();
        parallel_tiles(3, rows, cols, Schedule::Dynamic { chunk: 2 }, |r, c| {
            hits[r * cols + c].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn empty_grid_is_noop() {
        parallel_tiles(4, 0, 9, Schedule::Static, |_, _| {
            panic!("must not run");
        });
    }
}
