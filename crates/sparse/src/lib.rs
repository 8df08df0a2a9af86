//! Sparse data formats and kernels.
//!
//! The paper's "Data Formats and Algorithms" layer (§IV-C) stores
//! weight-pruned and ternary-quantised models in Compressed Sparse Row
//! (CSR) format. This crate provides CSR (and its column-major dual, CSC),
//! the sparse matrix kernels (the CSR convolutions themselves live with
//! `nn::Conv2d`, whose kernel registry picks them), and — crucially for
//! Tables IV and VI — *byte-exact memory accounting* for both formats,
//! which is how the paper demonstrates that CSR storage of small 3×3
//! filters costs **more** memory than dense storage.
//!
//! # Example
//!
//! ```
//! use cnn_stack_sparse::CsrMatrix;
//! use cnn_stack_tensor::Tensor;
//!
//! let dense = Tensor::from_vec([2, 3], vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0]);
//! let csr = CsrMatrix::from_dense(&dense, 0.0);
//! assert_eq!(csr.nnz(), 3);
//! assert!(csr.to_dense().allclose(&dense, 0.0));
//! ```

pub mod bsr;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod memory;
pub mod stats;

pub use bsr::BsrMatrix;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use memory::{csr_bytes, dense_bytes, FormatCost};
pub use stats::SparsityStats;
