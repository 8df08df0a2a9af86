//! CNN inference and training engine.
//!
//! This crate implements the paper's "Neural Network Models" execution
//! substrate: every layer type needed by VGG-16, ResNet-18 and MobileNet
//! (§IV-A), with
//!
//! * three interchangeable convolution algorithms — direct, im2col+GEMM
//!   and CSR sparse-direct — matching the paper's "Data Formats and
//!   Algorithms" layer;
//! * OpenMP-style multi-threaded execution of the convolution outer loop
//!   (via `cnn-stack-parallel`) with a barrier per layer, as §IV-D
//!   describes;
//! * full backpropagation and SGD with the paper's stepped learning-rate
//!   schedule, so the prune → fine-tune pipelines run for real;
//! * per-layer descriptors (MACs, weight bytes, parallel grains) that
//!   drive the `cnn-stack-hwsim` platform timing model;
//! * runtime memory accounting following §V-D ("network parameters ...
//!   input and output buffers and intermediate allocation for padding").
//!
//! # Example
//!
//! ```
//! use cnn_stack_nn::{Conv2d, ExecConfig, Network, Phase, ReLU};
//! use cnn_stack_tensor::Tensor;
//!
//! let mut net = Network::new(vec![
//!     Box::new(Conv2d::new(3, 8, 3, 1, 1, 0)),
//!     Box::new(ReLU::new()),
//! ])
//! .unwrap();
//! let x = Tensor::zeros([1, 3, 32, 32]);
//! let y = net.forward(&x, Phase::Eval, &ExecConfig::default());
//! assert_eq!(y.shape().dims(), &[1, 8, 32, 32]);
//! ```
//!
//! For repeated inference, compile the network once into an
//! [`engine::InferencePlan`] and execute it through an
//! [`engine::InferenceSession`]: a [`liveness`] pass colours every
//! activation and workspace interval into one arena sized at compile
//! time (dead buffers are reused in place), so steady-state forward
//! passes allocate nothing. [`layer::ExecConfig::plan_budget`] asks
//! the plan compiler for the fastest plan whose arena fits a byte
//! budget.

pub mod activations;
pub mod algo;
pub mod batchnorm;
pub mod conv;
pub mod depthwise;
pub mod descriptor;
pub mod engine;
pub mod error;
pub mod fold;
pub mod guard;
mod ir;
pub mod layer;
pub mod linear;
pub mod liveness;
pub mod memory;
pub mod network;
pub mod passes;

pub mod pool;
pub mod residual;
pub mod serialize;
pub mod train;
mod weights;

pub use activations::ReLU;
pub use algo::{AlgoChoice, LayerShape};
pub use batchnorm::BatchNorm2d;
pub use cnn_stack_obs::ObsLevel;
pub use conv::Conv2d;
pub use depthwise::DepthwiseConv2d;
pub use descriptor::{LayerDescriptor, LayerKind};
pub use engine::{InferencePlan, InferenceSession, PlanStep, SessionProfile};
pub use error::{Error, PlanError};
pub use fold::{fold_batchnorm, strip_identity_batchnorms};
#[cfg(feature = "fault-inject")]
pub use guard::Fault;
pub use guard::{
    BudgetBreachRecord, DemotionReason, DemotionRecord, FaultPlan, GuardConfig, GuardReport,
    GuardViolation, HealthReport, NonFiniteKind, ServeBatchFault,
};
pub use layer::{
    ConvAlgorithm, ExecConfig, ExecConfigBuilder, Layer, Mask, Param, Phase, WeightFormat,
};
pub use linear::Linear;
pub use liveness::{ArenaLayout, MemoryFootprint, StepExtent, StepSlots};
pub use memory::{network_memory, MemoryBreakdown};
pub use network::Network;
pub use passes::PlanCompiler;
pub use pool::{Flatten, GlobalAvgPool, MaxPool2d};
pub use residual::ResidualBlock;
pub use serialize::{load_params, save_params, LoadParamsError};
pub use train::{LrSchedule, Sgd, TrainConfig};
pub use weights::WeightStorage;
