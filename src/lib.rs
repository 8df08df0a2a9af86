//! # cnn-stack
//!
//! A Rust reproduction of *"Characterising Across-Stack Optimisations for
//! Deep Convolutional Neural Networks"* (Turner et al., IEEE IISWC 2018).
//!
//! This facade crate re-exports every subsystem of the workspace so that
//! examples and downstream users can depend on a single crate:
//!
//! * [`tensor`] — dense NCHW tensors, im2col, GEMM kernels.
//! * [`sparse`] — CSR/CSC formats, sparse kernels, memory accounting.
//! * [`nn`] — layers, forward/backward, SGD training.
//! * [`models`] — VGG-16, ResNet-18, MobileNet for CIFAR-10.
//! * [`dataset`] — synthetic CIFAR-10-shaped data with planted structure.
//! * [`compress`] — weight pruning, Fisher channel pruning, TTQ.
//! * [`parallel`] — OpenMP-style fork-join loops and scheduling.
//! * [`hwsim`] — platform timing models and the simulated OpenCL device.
//! * [`obs`] — metrics registry, span tracer, Chrome-trace export.
//! * [`serve`] — multi-tenant serving: dynamic batching, session pool,
//!   deadline shedding.
//! * [`stack`] — the five-layer Deep Learning Inference Stack itself.
//!
//! Most programs only need [`prelude`], which curates one coherent
//! surface across those crates — model constructors, the engine types,
//! and the serving layer:
//!
//! ```
//! use cnn_stack::prelude::*;
//!
//! let cfg = ServeConfig::builder([3, 32, 32]).max_batch(4).build().unwrap();
//! let server = Server::start(cfg, || mobilenet_width(10, 0.25).network).unwrap();
//! let ticket = server.submit(Tensor::zeros([3, 32, 32])).unwrap();
//! assert!(matches!(ticket.wait().outcome, Outcome::Served(_)));
//! ```
//!
//! ## Quickstart (engine level)
//!
//! ```
//! use cnn_stack::prelude::*;
//!
//! let mut model = resnet18(10);
//! let input = Tensor::zeros([1, 3, 32, 32]);
//! let logits = model.network.forward(&input, Phase::Eval, &ExecConfig::default());
//! assert_eq!(logits.shape().dims(), &[1, 10]);
//! ```

pub use cnn_stack_compress as compress;
pub use cnn_stack_core as stack;
pub use cnn_stack_dataset as dataset;
pub use cnn_stack_hwsim as hwsim;
pub use cnn_stack_models as models;
pub use cnn_stack_nn as nn;
pub use cnn_stack_obs as obs;
pub use cnn_stack_parallel as parallel;
pub use cnn_stack_serve as serve;
pub use cnn_stack_sparse as sparse;
pub use cnn_stack_tensor as tensor;

/// The curated import surface: everything a program that builds,
/// compiles, runs, or serves one of the paper's models needs, in one
/// `use cnn_stack::prelude::*;`.
///
/// Deeper or rarer items (sparse formats, the hardware simulator,
/// training) stay behind their subsystem modules.
pub mod prelude {
    pub use crate::models::{
        mobilenet, mobilenet_width, resnet18, resnet18_width, vgg16, vgg16_width, Model, ModelKind,
    };
    pub use crate::nn::{
        ConvAlgorithm, ExecConfig, GuardConfig, HealthReport, InferencePlan, InferenceSession,
        Network, Phase, PlanCompiler, PlanError,
    };
    pub use crate::obs::ObsLevel;
    pub use crate::serve::{
        run_open_loop, BreakerPolicy, FailureCause, LoadReport, LoadSpec, Outcome, RetryPolicy,
        ServeConfig, Served, Server, ServerHealth, ShedReason, SupervisionPolicy, Ticket,
    };
    pub use crate::stack::{serve_cell, CellResult, PlatformChoice, StackConfig};
    pub use crate::tensor::{ops, Tensor};
}
