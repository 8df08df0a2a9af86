//! Compressed Sparse Row matrices.

use cnn_stack_tensor::Tensor;
use std::fmt;

/// A Compressed Sparse Row (CSR) matrix over `f32`.
///
/// CSR stores three arrays — row pointers, column indices and non-zero
/// values — exactly as the paper describes for its weight-pruned and
/// quantised models (§IV-C). Column indices use `u32` (no layer in any of
/// the paper's models has more than 2³² columns) to keep the per-nonzero
/// overhead at 4 bytes of index + 4 bytes of value, matching the C
/// implementation the paper benchmarks.
///
/// # Example
///
/// ```
/// use cnn_stack_sparse::CsrMatrix;
/// use cnn_stack_tensor::Tensor;
///
/// let m = CsrMatrix::from_dense(&Tensor::from_vec([2, 2], vec![0.0, 5.0, 0.0, 0.0]), 0.0);
/// assert_eq!(m.nnz(), 1);
/// assert_eq!(m.get(0, 1), 5.0);
/// assert_eq!(m.get(1, 1), 0.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `indptr[r]..indptr[r+1]` is the slice of `indices`/`values` for row `r`.
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent: `indptr` must have
    /// `rows + 1` monotonically non-decreasing entries ending at
    /// `values.len()`, `indices` and `values` must have equal lengths, and
    /// every column index must be `< cols` and strictly increasing within
    /// its row.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr must have rows+1 entries");
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        assert_eq!(
            *indptr.last().unwrap(),
            values.len(),
            "indptr must end at nnz"
        );
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        for r in 0..rows {
            assert!(indptr[r] <= indptr[r + 1], "indptr must be non-decreasing");
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(
                    w[0] < w[1],
                    "column indices must be strictly increasing per row"
                );
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < cols, "column index {last} out of bounds");
            }
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Converts a dense matrix to CSR, dropping entries with
    /// `|v| <= threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is not rank-2.
    pub fn from_dense(dense: &Tensor, threshold: f32) -> Self {
        let (rows, cols) = dense.shape().matrix();
        let data = dense.data();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = data[r * cols + c];
                if v.abs() > threshold {
                    indices.push(c as u32);
                    values.push(v);
                }
            }
            indptr.push(values.len());
        }
        CsrMatrix {
            rows,
            cols,
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

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// The row-pointer array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The column-index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The non-zero values array.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The `(indices, values)` slice for one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        assert!(r < self.rows, "row {r} out of bounds");
        let span = self.indptr[r]..self.indptr[r + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// Value at `(r, c)`, zero if not stored.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let (idx, val) = self.row(r);
        match idx.binary_search(&(c as u32)) {
            Ok(pos) => val[pos],
            Err(_) => 0.0,
        }
    }

    /// Expands back to a dense tensor.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros([self.rows, self.cols]);
        let data = out.data_mut();
        for r in 0..self.rows {
            for p in self.indptr[r]..self.indptr[r + 1] {
                data[r * self.cols + self.indices[p] as usize] = self.values[p];
            }
        }
        out
    }

    /// Sparse × dense product: `C[rows × n] = self · B[cols × n]`.
    ///
    /// This is the kernel the paper's CSR inference path runs: for each
    /// stored non-zero, one multiply-accumulate plus one index load — the
    /// per-nonzero overhead that explains Fig. 4's "sparse methods fail to
    /// provide any speedup" observation.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not rank-2 or its row count differs from `cols()`.
    pub fn spmm(&self, b: &Tensor) -> Tensor {
        let (bk, bn) = b.shape().matrix();
        assert_eq!(
            bk, self.cols,
            "inner dimension mismatch: {} vs {bk}",
            self.cols
        );
        let mut out = Tensor::zeros([self.rows, bn]);
        self.spmm_rows_into(b.data(), out.data_mut(), bn, 0, self.rows);
        out
    }

    /// SpMM over the output rows `row_start..row_end`, accumulating into
    /// `c`, which holds exactly those rows: the unit of work a parallel
    /// executor hands each grain, with its own disjoint slice of the
    /// output.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions or row range.
    pub fn spmm_rows_into(
        &self,
        b: &[f32],
        c: &mut [f32],
        n: usize,
        row_start: usize,
        row_end: usize,
    ) {
        assert!(
            row_start <= row_end && row_end <= self.rows,
            "row range out of bounds"
        );
        assert_eq!(b.len(), self.cols * n, "B length mismatch");
        assert_eq!(c.len(), (row_end - row_start) * n, "C length mismatch");
        for (r, c_row) in (row_start..row_end).zip(c.chunks_exact_mut(n)) {
            for p in self.indptr[r]..self.indptr[r + 1] {
                let col = self.indices[p] as usize;
                let v = self.values[p];
                let b_row = &b[col * n..(col + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += v * bv;
                }
            }
        }
    }

    /// Sparse matrix–vector product `y = self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols()`.
    #[allow(clippy::needless_range_loop)]
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        let mut y = vec![0.0; self.rows];
        for r in 0..self.rows {
            let mut acc = 0.0;
            for p in self.indptr[r]..self.indptr[r + 1] {
                acc += self.values[p] * x[self.indices[p] as usize];
            }
            y[r] = acc;
        }
        y
    }

    /// Transposed matrix as CSR (equivalently, this matrix in CSC order).
    pub fn transpose(&self) -> CsrMatrix {
        // Counting sort by column.
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            for p in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[p] as usize;
                let dst = cursor[c];
                indices[dst] = r as u32;
                values[dst] = self.values[p];
                cursor[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Exact heap bytes of the three CSR arrays, the number the paper's
    /// memory-footprint tables charge for sparse weights.
    pub fn storage_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f32>()
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}x{}, nnz={}, sparsity={:.1}%)",
            self.rows,
            self.cols,
            self.nnz(),
            self.sparsity() * 100.0
        )
    }
}

impl From<&Tensor> for CsrMatrix {
    /// Converts a rank-2 dense tensor, keeping all exactly-non-zero values.
    fn from(dense: &Tensor) -> Self {
        CsrMatrix::from_dense(dense, 0.0)
    }
}

/// Dense×sparse helper: `A[m×k] · Bᵀ` where `B` is CSR of shape `[n×k]`.
/// Used by backward passes that need the transposed sparse operand without
/// materialising it.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn dense_times_csr_t(a: &Tensor, b: &CsrMatrix) -> Tensor {
    let (m, k) = a.shape().matrix();
    assert_eq!(k, b.cols(), "inner dimension mismatch");
    let n = b.rows();
    let adata = a.data();
    let mut out = Tensor::zeros([m, n]);
    let odata = out.data_mut();
    for i in 0..m {
        let a_row = &adata[i * k..(i + 1) * k];
        for r in 0..n {
            let (idx, val) = b.row(r);
            let mut acc = 0.0;
            for (&c, &v) in idx.iter().zip(val) {
                acc += a_row[c as usize] * v;
            }
            odata[i * n + r] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn_stack_tensor::{matmul, ops};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_sparse_dense(rows: usize, cols: usize, density: f64, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn([rows, cols], |_| {
            if rng.gen_bool(density) {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn dense_roundtrip() {
        let d = random_sparse_dense(13, 17, 0.3, 1);
        let m = CsrMatrix::from_dense(&d, 0.0);
        assert!(m.to_dense().allclose(&d, 0.0));
    }

    #[test]
    fn threshold_drops_small_values() {
        let d = Tensor::from_vec([1, 4], vec![0.05, -0.5, 0.2, -0.01]);
        let m = CsrMatrix::from_dense(&d, 0.1);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), -0.5);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn nnz_and_sparsity() {
        let d = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 0.0]);
        let m = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(m.nnz(), 1);
        assert!((m.sparsity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        for seed in 0..4 {
            let a = random_sparse_dense(9, 14, 0.25, seed);
            let b = random_sparse_dense(14, 6, 1.0, seed + 100);
            let want = matmul(&a, &b);
            let got = CsrMatrix::from_dense(&a, 0.0).spmm(&b);
            assert!(want.allclose(&got, 1e-5), "seed {seed}");
        }
    }

    #[test]
    fn spmm_row_partition_matches_full() {
        let a = random_sparse_dense(8, 10, 0.4, 5);
        let b = random_sparse_dense(10, 7, 1.0, 6);
        let csr = CsrMatrix::from_dense(&a, 0.0);
        let full = csr.spmm(&b);
        let mut c = vec![0.0; 8 * 7];
        let (top, bottom) = c.split_at_mut(3 * 7);
        csr.spmm_rows_into(b.data(), top, 7, 0, 3);
        csr.spmm_rows_into(b.data(), bottom, 7, 3, 8);
        assert!(full.allclose(&Tensor::from_vec([8, 7], c), 1e-6));
    }

    #[test]
    fn spmv_matches_spmm() {
        let a = random_sparse_dense(6, 9, 0.5, 9);
        let x: Vec<f32> = (0..9).map(|i| i as f32 * 0.1).collect();
        let csr = CsrMatrix::from_dense(&a, 0.0);
        let y = csr.spmv(&x);
        let want = csr.spmm(&Tensor::from_vec([9, 1], x));
        for (a, b) in y.iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let d = random_sparse_dense(7, 11, 0.3, 2);
        let t = CsrMatrix::from_dense(&d, 0.0).transpose();
        assert!(t.to_dense().allclose(&ops::transpose(&d), 0.0));
    }

    #[test]
    fn transpose_involution() {
        let d = random_sparse_dense(5, 8, 0.4, 3);
        let m = CsrMatrix::from_dense(&d, 0.0);
        assert!(m.transpose().transpose().to_dense().allclose(&d, 0.0));
    }

    #[test]
    fn storage_bytes_formula() {
        let d = Tensor::from_vec([2, 3], vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let m = CsrMatrix::from_dense(&d, 0.0);
        // 3 indptr entries * 8 + 3 indices * 4 + 3 values * 4 = 24+12+12.
        assert_eq!(m.storage_bytes(), 3 * 8 + 3 * 4 + 3 * 4);
    }

    #[test]
    fn csr_costs_more_than_dense_for_3x3() {
        // The paper's §V-D observation: a 3x3 filter (9 floats = 36 bytes
        // dense) in CSR needs more bytes once it is less than ~half empty.
        let filter = Tensor::from_vec([1, 9], vec![0.5, 0.0, -0.3, 0.0, 0.8, 0.0, 0.1, 0.0, -0.2]);
        let dense_bytes = filter.storage_bytes();
        let csr = CsrMatrix::from_dense(&filter, 0.0);
        assert!(csr.storage_bytes() > dense_bytes);
    }

    #[test]
    fn from_raw_validates() {
        let m = CsrMatrix::from_raw(2, 3, vec![0, 1, 2], vec![0, 2], vec![1.0, 2.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 2.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_raw_rejects_unsorted_columns() {
        let _ = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_raw_rejects_bad_column() {
        let _ = CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn empty_rows_handled() {
        let d = Tensor::from_vec([3, 2], vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        let m = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(m.row(0).0.len(), 0);
        assert_eq!(m.row(1).0.len(), 1);
        assert_eq!(m.row(2).0.len(), 0);
        let b = Tensor::ones([2, 2]);
        let c = m.spmm(&b);
        assert_eq!(c.data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn dense_times_csr_t_matches_explicit_transpose() {
        let a = random_sparse_dense(5, 9, 1.0, 11);
        let bd = random_sparse_dense(7, 9, 0.4, 12);
        let b = CsrMatrix::from_dense(&bd, 0.0);
        let want = matmul(&a, &ops::transpose(&bd));
        let got = dense_times_csr_t(&a, &b);
        assert!(want.allclose(&got, 1e-5));
    }

    #[test]
    fn debug_shows_sparsity() {
        let m = CsrMatrix::from_dense(&Tensor::zeros([2, 2]), 0.0);
        assert!(format!("{m:?}").contains("sparsity"));
    }
}
