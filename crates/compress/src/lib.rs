//! The paper's "Machine Learning Techniques" stack layer (§III, §IV-B):
//! the three compression techniques it characterises, plus the calibrated
//! accuracy-response curves that regenerate Fig. 3.
//!
//! * [`magnitude`] — **Deep Compression** weight pruning (Han et al.):
//!   iterative magnitude thresholding with mask-pinned fine-tuning.
//! * [`fisher`] — **Fisher channel pruning** (Theis et al.): second-order
//!   Taylor saliency accumulated from batch-norm scale gradients, with
//!   the paper's FLOP penalty β, followed by structural surgery that
//!   recasts the network as a smaller dense network.
//! * [`ttq`] — **Trained Ternary Quantisation** (Zhu et al.): per-layer
//!   thresholded ternarisation with learned positive/negative scales,
//!   trained by projection during fine-tuning. A ternarised layer
//!   labelled `WeightFormat::Ternary` deploys as 2-bit code panels the
//!   packed GEMM decodes in its tile — the paper's "hashing at the level
//!   of bits" remark (§V-D), realised in `cnn_stack_nn`'s weight store.
//! * [`huffman`] — Deep Compression's third storage stage: Huffman
//!   coding of the quantised weight stream.
//! * [`random`] — random pruning baselines (the paper's \[35\]).
//! * [`binary`], [`hashed`], [`inq`] — the rest of the §III-C
//!   quantisation family: BinaryConnect \[19\], HashedNet \[20\] and
//!   Incremental Network Quantisation \[18\], implemented as projection
//!   passes for the quantisation-family ablation.
//! * [`accuracy`] — per-model accuracy-response functions calibrated to
//!   the paper's reported anchor points (see `DESIGN.md` §4.3); these
//!   regenerate the Fig. 3 Pareto curves and drive Table III/V operating
//!   -point selection.
//!
//! # Example
//!
//! ```
//! use cnn_stack_compress::magnitude;
//! use cnn_stack_models::vgg16_width;
//!
//! let mut model = vgg16_width(10, 0.1);
//! let report = magnitude::prune_network(&mut model.network, 0.5);
//! assert!(report.overall_sparsity > 0.45);
//! ```

pub mod accuracy;
pub mod binary;
pub mod fisher;
pub mod hashed;
pub mod huffman;
pub mod inq;
pub mod magnitude;
pub mod random;
pub mod ttq;
pub mod visit;

pub use accuracy::{AccuracyModel, Technique};
pub use binary::{binarise_network, BinaryReport};
pub use fisher::FisherPruner;
pub use hashed::{hash_network, HashedReport};
pub use huffman::{code_ternary_network, HuffmanCode, HuffmanReport};
pub use inq::{inq_quantise, inq_step, InqReport};
pub use magnitude::{prune_network, PruneReport};
pub use ttq::{ttq_quantise, TtqReport};
pub use visit::for_each_weight_param;
