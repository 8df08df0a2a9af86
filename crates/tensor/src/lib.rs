//! Dense tensor library for the cnn-stack workspace.
//!
//! This crate is the lowest layer of the reproduction: a small, fully
//! self-contained dense tensor library in the NCHW convention, together
//! with the data-layout transformations (`im2col`/`col2im`) and the GEMM
//! kernels (naive, blocked, and tile-parameterised) that the paper's
//! "Data Formats and Algorithms" stack layer (§IV-C/§IV-D) evaluates.
//!
//! # Example
//!
//! ```
//! use cnn_stack_tensor::{Tensor, gemm};
//!
//! let a = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
//! let b = Tensor::from_vec([3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
//! let c = gemm::matmul(&a, &b);
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
//! ```

pub mod aligned;
pub mod depthwise;
pub mod error;
pub mod gemm;
pub mod im2col;
pub mod init;
pub mod ops;
pub mod shape;
pub mod tensor;
pub mod winograd;

pub use aligned::AlignedBuf;
pub use depthwise::depthwise_conv2d_into;
pub use error::KernelError;
pub use gemm::{
    gemm_kernel_name, gemm_naive_into, gemm_packed_into, gemm_prepacked, gemm_prepacked_epilogue,
    gemm_tiled_into, matmul, pack_a_codes_into, pack_a_into, pack_b_into, pack_b_transposed_into,
    CodePanels, GemmAlgorithm, GemmEpilogue, GemmPlan, PackedA, TileConfig, MR, NR,
};
pub use im2col::{
    col2im, im2col, im2col_into, pack_b_im2col_batch_into, pack_b_im2col_into, Conv2dGeometry,
};
pub use shape::Shape;
pub use tensor::Tensor;
pub use winograd::{
    pack_winograd_bank_into, winograd4_conv2d, winograd_bank_elems, winograd_conv2d,
    winograd_conv2d_into, WinogradGeometry, WinogradTile,
};
