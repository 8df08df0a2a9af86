//! Cache-line-aligned `f32` storage.
//!
//! The packed GEMM streams its B operand with one 64-byte vector load
//! per reduction step. A large `Vec<f32>` comes back from glibc at
//! page + 16, so every such load straddles two cache lines; an
//! [`AlignedBuf`] starts on a line, and because a packed-B panel is a
//! whole number of lines every panel and every `kc` block inside it
//! then starts on one too. Alignment is a property of the type, so the
//! session arena, the prepacked weight panels and the convenience
//! scratch of `gemm_into` get it by construction rather than by luck.
//!
//! Tried first and withdrawn: a `Vec` of `#[repr(align(64))]` lines
//! cast to `[f32]`. It needs `unsafe`, takes glibc's `memalign` path,
//! and that placement alone left MobileNet's resident set 11 % higher
//! (41.5 → 46.0 MB after nine set-ups) with not one byte more live.

use std::ops::{Deref, DerefMut};

/// Floats per 64-byte cache line.
pub const LINE_ELEMS: usize = 16;

/// A zero-initialised, fixed-length `[f32]` whose first element sits on
/// a 64-byte boundary. Derefs to the slice; there is no way to grow it.
///
/// The storage is an ordinary zeroed `Vec<f32>` one line longer than
/// asked, viewed from its first line boundary — safe code, and the same
/// allocator path (`calloc`, so untouched pages stay unmapped) as the
/// `vec![0.0; len]` it replaces.
pub struct AlignedBuf {
    /// Never grown or shrunk, so it never moves and `start` stays true.
    storage: Vec<f32>,
    /// Index of the first element on a line boundary.
    start: usize,
    len: usize,
}

impl AlignedBuf {
    /// `len` zeros, starting on a cache line.
    pub fn zeroed(len: usize) -> Self {
        let storage = vec![0.0f32; len + LINE_ELEMS - 1];
        // A `Vec<f32>` is 4-byte aligned, so the distance to the next
        // line boundary is a whole number of floats below `LINE_ELEMS`.
        let past_line = storage.as_ptr() as usize % 64;
        let start = (64 - past_line) % 64 / std::mem::size_of::<f32>();
        AlignedBuf {
            storage,
            start,
            len,
        }
    }
}

impl Clone for AlignedBuf {
    /// A fresh allocation has its own line phase: re-align, then copy.
    fn clone(&self) -> Self {
        let mut copy = AlignedBuf::zeroed(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl Deref for AlignedBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.storage[self.start..self.start + self.len]
    }
}

impl DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.storage[self.start..self.start + self.len]
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_on_a_line_and_holds_exactly_len_zeros() {
        for len in [0, 1, 15, 16, 17, 1000] {
            let mut buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_ptr() as usize % 64, 0, "len {len}");
            assert!(buf.iter().all(|&v| v == 0.0));
            buf.fill(1.5);
            let copy = buf.clone();
            assert_eq!(&*copy, &*buf);
            assert_eq!(copy.as_ptr() as usize % 64, 0);
        }
    }
}
