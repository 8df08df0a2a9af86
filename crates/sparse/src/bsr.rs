//! Block Compressed Sparse Row (BSR): CSR over fixed-size dense blocks.
//!
//! Part of the format exploration the paper defers (§IV-C). BSR stores
//! one column index per *block* instead of per element, amortising index
//! overhead by `block_size²` and restoring dense-kernel locality inside
//! blocks — the structured-sparsity story of the paper's \[26\]/\[30\]
//! citations (group Lasso pushes weights towards exactly this layout).
//! The trade-off: zeros inside a partially occupied block are stored
//! explicitly, so unstructured pruning fills many blocks and erases the
//! advantage. The `format_comparison` bench quantifies both regimes.

use cnn_stack_tensor::Tensor;
use std::fmt;

/// A BSR matrix with square `b × b` blocks.
///
/// # Example
///
/// ```
/// use cnn_stack_sparse::BsrMatrix;
/// use cnn_stack_tensor::Tensor;
///
/// let d = Tensor::from_vec([2, 4], vec![1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0]);
/// let m = BsrMatrix::from_dense(&d, 2, 0.0);
/// assert_eq!(m.occupied_blocks(), 1);
/// assert!(m.to_dense().allclose(&d, 0.0));
/// ```
#[derive(Clone, PartialEq)]
pub struct BsrMatrix {
    rows: usize,
    cols: usize,
    block: usize,
    /// Block-row pointers: `indptr[br]..indptr[br+1]` spans block row `br`.
    indptr: Vec<usize>,
    /// Block-column indices.
    indices: Vec<u32>,
    /// Dense `block*block` payloads, row-major within each block.
    values: Vec<f32>,
}

impl BsrMatrix {
    /// Converts a dense matrix into BSR with `block × block` blocks; a
    /// block is stored iff it contains any `|v| > threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero or does not divide both dimensions.
    pub fn from_dense(dense: &Tensor, block: usize, threshold: f32) -> Self {
        let (rows, cols) = dense.shape().matrix();
        assert!(block > 0, "block size must be non-zero");
        assert!(
            rows % block == 0 && cols % block == 0,
            "block {block} must divide {rows}x{cols}"
        );
        let data = dense.data();
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for br in 0..rows / block {
            for bc in 0..cols / block {
                let mut occupied = false;
                'scan: for dy in 0..block {
                    for dx in 0..block {
                        if data[(br * block + dy) * cols + bc * block + dx].abs() > threshold {
                            occupied = true;
                            break 'scan;
                        }
                    }
                }
                if occupied {
                    indices.push(bc as u32);
                    for dy in 0..block {
                        for dx in 0..block {
                            values.push(data[(br * block + dy) * cols + bc * block + dx]);
                        }
                    }
                }
            }
            indptr.push(indices.len());
        }
        BsrMatrix {
            rows,
            cols,
            block,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block edge length.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Number of stored blocks.
    pub fn occupied_blocks(&self) -> usize {
        self.indices.len()
    }

    /// Stored element count (including explicit zeros inside blocks).
    pub fn stored_elems(&self) -> usize {
        self.values.len()
    }

    /// Fraction of stored elements that are actually zero — the
    /// "fill waste" of unstructured sparsity under a blocked format.
    pub fn fill_waste(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let zeros = self.values.iter().filter(|v| **v == 0.0).count();
        zeros as f64 / self.values.len() as f64
    }

    /// Expands back to dense.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros([self.rows, self.cols]);
        let odata = out.data_mut();
        let bb = self.block * self.block;
        for br in 0..self.rows / self.block {
            for (slot, p) in (self.indptr[br]..self.indptr[br + 1]).enumerate() {
                let _ = slot;
                let bc = self.indices[p] as usize;
                let payload = &self.values[p * bb..(p + 1) * bb];
                for dy in 0..self.block {
                    for dx in 0..self.block {
                        odata[(br * self.block + dy) * self.cols + bc * self.block + dx] =
                            payload[dy * self.block + dx];
                    }
                }
            }
        }
        out
    }

    /// Block-sparse × dense product `C = self · B`: dense micro-kernels
    /// over occupied blocks.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not rank-2 or dimensions disagree.
    pub fn spmm(&self, b: &Tensor) -> Tensor {
        let (bk, bn) = b.shape().matrix();
        assert_eq!(bk, self.cols, "inner dimension mismatch");
        let mut out = Tensor::zeros([self.rows, bn]);
        let odata = out.data_mut();
        let bb = self.block * self.block;
        for br in 0..self.rows / self.block {
            for p in self.indptr[br]..self.indptr[br + 1] {
                let bc = self.indices[p] as usize;
                let payload = &self.values[p * bb..(p + 1) * bb];
                for dy in 0..self.block {
                    let orow =
                        &mut odata[(br * self.block + dy) * bn..(br * self.block + dy + 1) * bn];
                    for dx in 0..self.block {
                        let v = payload[dy * self.block + dx];
                        if v == 0.0 {
                            continue;
                        }
                        let brow =
                            &b.data()[(bc * self.block + dx) * bn..(bc * self.block + dx + 1) * bn];
                        for (o, &bv) in orow.iter_mut().zip(brow) {
                            *o += v * bv;
                        }
                    }
                }
            }
        }
        out
    }

    /// Exact heap bytes: block pointers + one u32 per block + dense
    /// payloads.
    pub fn storage_bytes(&self) -> usize {
        self.indptr.len() * 8 + self.indices.len() * 4 + self.values.len() * 4
    }
}

impl fmt::Debug for BsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BsrMatrix({}x{}, block {}, {} blocks, fill waste {:.0}%)",
            self.rows,
            self.cols,
            self.block,
            self.occupied_blocks(),
            self.fill_waste() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_stack_tensor::matmul;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn block_structured(rows: usize, cols: usize, block: usize, keep: f64, seed: u64) -> Tensor {
        // Whole blocks are either dense or zero — the structured case.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut keep_mask = vec![false; (rows / block) * (cols / block)];
        for k in keep_mask.iter_mut() {
            *k = rng.gen_bool(keep);
        }
        Tensor::from_fn([rows, cols], |i| {
            let (r, c) = (i / cols, i % cols);
            if keep_mask[(r / block) * (cols / block) + c / block] {
                rng.gen_range(0.1..1.0)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn roundtrip_structured() {
        let d = block_structured(8, 12, 4, 0.5, 1);
        let m = BsrMatrix::from_dense(&d, 4, 0.0);
        assert!(m.to_dense().allclose(&d, 0.0));
        assert_eq!(m.fill_waste(), 0.0);
    }

    #[test]
    fn roundtrip_unstructured() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let d = Tensor::from_fn([6, 6], |_| {
            if rng.gen_bool(0.3) {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        let m = BsrMatrix::from_dense(&d, 3, 0.0);
        assert!(m.to_dense().allclose(&d, 0.0));
        assert!(m.fill_waste() > 0.0, "random sparsity should waste fill");
    }

    #[test]
    fn spmm_matches_dense() {
        let a = block_structured(8, 8, 2, 0.6, 3);
        let b = Tensor::from_fn([8, 5], |i| i as f32 * 0.1 - 1.0);
        let want = matmul(&a, &b);
        let got = BsrMatrix::from_dense(&a, 2, 0.0).spmm(&b);
        assert!(want.allclose(&got, 1e-4));
    }

    #[test]
    fn storage_beats_csr_for_structured_sparsity() {
        use crate::csr::CsrMatrix;
        let d = block_structured(64, 64, 8, 0.25, 4);
        let bsr = BsrMatrix::from_dense(&d, 8, 0.0);
        let csr = CsrMatrix::from_dense(&d, 0.0);
        assert!(
            bsr.storage_bytes() < csr.storage_bytes(),
            "bsr {} vs csr {}",
            bsr.storage_bytes(),
            csr.storage_bytes()
        );
    }

    #[test]
    fn storage_loses_to_csr_for_scattered_sparsity() {
        use crate::csr::CsrMatrix;
        // One non-zero per block: BSR stores the whole block anyway.
        let d = Tensor::from_fn([32, 32], |i| if i % 17 == 0 { 1.0 } else { 0.0 });
        let bsr = BsrMatrix::from_dense(&d, 4, 0.0);
        let csr = CsrMatrix::from_dense(&d, 0.0);
        assert!(bsr.storage_bytes() > csr.storage_bytes());
        assert!(bsr.fill_waste() > 0.5);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_block_rejected() {
        let _ = BsrMatrix::from_dense(&Tensor::zeros([6, 6]), 4, 0.0);
    }

    #[test]
    fn empty_matrix_has_no_blocks() {
        let m = BsrMatrix::from_dense(&Tensor::zeros([4, 4]), 2, 0.0);
        assert_eq!(m.occupied_blocks(), 0);
        assert_eq!(m.fill_waste(), 0.0);
        assert_eq!(m.spmm(&Tensor::ones([4, 2])).sum(), 0.0);
    }
}
