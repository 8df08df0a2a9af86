//! The **Deep Learning Inference Stack** (§II) — the paper's primary
//! contribution — as an executable artifact.
//!
//! A [`StackConfig`] fixes one choice at each of the five layers of
//! Table I:
//!
//! 1. **Neural network model** — VGG-16 / ResNet-18 / MobileNet.
//! 2. **Machine learning technique** — plain, weight pruning, channel
//!    pruning, or ternary quantisation, at an operating point.
//! 3. **Data format & algorithm** — dense or CSR weights; direct or
//!    im2col convolution.
//! 4. **Systems technique** — OpenMP threads, hand-tuned OpenCL, or
//!    CLBlast.
//! 5. **Hardware** — Odroid-XU4 or Intel Core i7.
//!
//! [`build`] materialises the configured network (performing real
//! pruning/quantisation surgery), [`runner`] evaluates a configuration
//! end-to-end (modelled time, optionally measured host time, memory,
//! accuracy), and [`pareto`] explores the accuracy trade-off curves and
//! selects operating points (Fig. 3 / Tables III & V).
//!
//! # Example
//!
//! ```
//! use cnn_stack_core::{PlatformChoice, StackConfig};
//! use cnn_stack_models::ModelKind;
//!
//! let cfg = StackConfig::plain(ModelKind::ResNet18, PlatformChoice::IntelI7).threads(4);
//! let cell = cnn_stack_core::runner::evaluate(&cfg);
//! assert!(cell.modelled_s > 0.0);
//! assert!(cell.memory_mb > 0.0);
//! ```

pub mod build;
pub mod config;
pub mod pareto;
pub mod runner;
pub mod serve;

pub use build::{materialise, try_materialise};
pub use cnn_stack_nn::{GuardConfig, HealthReport};
pub use cnn_stack_obs::ObsLevel;
pub use config::{CompressionChoice, PlatformChoice, StackConfig};
pub use pareto::{detect_elbow, pareto_curve, ParetoPoint};
pub use runner::{evaluate, try_evaluate_with, CellResult};
pub use serve::serve_cell;
