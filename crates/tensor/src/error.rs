//! Typed errors for fallible kernel entry points.
//!
//! The Winograd convolution kernels ([`crate::winograd`]) originally
//! panicked on misuse (wrong kernel rank, channel mismatches,
//! undersized buffers). Those invariants are now
//! surfaced as [`KernelError`] values from `Result`-returning entry
//! points, matching the fallible-API convention of the `nn` crate, so
//! planners and serving code can reject a bad configuration instead of
//! aborting the process.

/// A kernel entry point rejected its arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// A weight tensor did not have the expected rank.
    WeightRank {
        /// Rank the kernel requires (4 for `[out_c, in_c, k, k]`).
        expected: usize,
        /// Rank it was given.
        got: usize,
    },
    /// A kernel window had the wrong spatial extent for the algorithm
    /// (e.g. Winograd F(m×m,3×3) requires 3×3 filters).
    KernelShape {
        /// The algorithm that rejected the filters.
        algo: &'static str,
        /// Required `(k_h, k_w)`.
        expected: (usize, usize),
        /// Given `(k_h, k_w)`.
        got: (usize, usize),
    },
    /// Weight and input channel counts disagree.
    ChannelMismatch {
        /// Input channels according to the weights.
        weights: usize,
        /// Channels of the actual input.
        input: usize,
    },
    /// The bias slice does not have one entry per output channel.
    BiasLength {
        /// Output channel count.
        expected: usize,
        /// Given bias length.
        got: usize,
    },
    /// The padded input is smaller than the kernel window, so the
    /// output would collapse to zero extent.
    InputTooSmall {
        /// Padded input height.
        padded_h: usize,
        /// Padded input width.
        padded_w: usize,
        /// Kernel height.
        k_h: usize,
        /// Kernel width.
        k_w: usize,
    },
    /// A flat buffer (input, output, or weights) had the wrong length
    /// for the stated geometry.
    BufferSize {
        /// Which buffer was rejected.
        what: &'static str,
        /// Length the geometry implies.
        expected: usize,
        /// Length it was given.
        got: usize,
    },
    /// A caller-provided scratch region is too small for the
    /// algorithm's workspace (see the per-algorithm `*_scratch_elems`
    /// sizing functions).
    ScratchTooSmall {
        /// Elements the algorithm needs.
        needed: usize,
        /// Elements provided.
        got: usize,
    },
    /// A flattened `[out_c, in_c*9]` filter matrix whose width is not a
    /// multiple of 9 (see [`crate::winograd::filters_from_matrix`]).
    FilterMatrixWidth {
        /// The offending width.
        width: usize,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::WeightRank { expected, got } => {
                write!(f, "weights must be rank-{expected}, got rank-{got}")
            }
            KernelError::KernelShape {
                algo,
                expected,
                got,
            } => write!(
                f,
                "{algo} requires {}x{} kernels, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            KernelError::ChannelMismatch { weights, input } => write!(
                f,
                "channel mismatch: weights expect {weights} input channels, input has {input}"
            ),
            KernelError::BiasLength { expected, got } => {
                write!(f, "bias length {got} does not match {expected} output channels")
            }
            KernelError::InputTooSmall {
                padded_h,
                padded_w,
                k_h,
                k_w,
            } => write!(
                f,
                "kernel {k_h}x{k_w} does not fit the padded {padded_h}x{padded_w} input: output collapses to zero extent"
            ),
            KernelError::BufferSize {
                what,
                expected,
                got,
            } => write!(f, "{what} buffer holds {got} elements, geometry requires {expected}"),
            KernelError::ScratchTooSmall { needed, got } => {
                write!(f, "scratch of {got} elements is too small: kernel needs {needed}")
            }
            KernelError::FilterMatrixWidth { width } => {
                write!(f, "filter matrix width {width} must be a multiple of 9 (in_c * 3 * 3)")
            }
        }
    }
}

impl std::error::Error for KernelError {}
