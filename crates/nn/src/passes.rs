//! The pass-based plan compiler.
//!
//! [`InferencePlan::compile`] maps every layer to one step under one
//! global [`ExecConfig`] — the paper's "pick a configuration for the
//! whole network" baseline. This module replaces that construction with
//! a compilation pipeline: the network is lowered to a typed op list
//! ([`crate::ir`]), a sequence of [`PlanPass`]es rewrites it, and the
//! result is lowered to [`PlanStep`]s with
//! per-step spans and per-step configurations.
//!
//! The three shipped passes implement the paper's across-stack levers:
//!
//! * [`FoldAndFuse`] — folds batch norms into their producing
//!   convolutions ([`crate::fold_batchnorm`]), then absorbs the exact
//!   identity batch norms and trailing ReLUs into the producing step, so
//!   `conv → BN → ReLU` executes as **one kernel** (the ReLU runs in the
//!   packed GEMM write-back epilogue — no extra sweep over the output).
//! * [`SelectAlgorithms`] — a per-layer cost model (FLOPs, im2col
//!   footprint, *measured* weight sparsity) choosing among the kernel
//!   registry's rows ([`crate::algo`]) that apply to the layer. The
//!   global `conv_algo`/`gemm_algo` knobs remain available as
//!   overrides: a non-default base value wins over the model, and each
//!   step is tagged with the row it resolves to.
//! * [`Autotune`] — opt-in empirical refinement: micro-benchmarks the
//!   top-2 cost-model candidates per layer shape and persists winners to
//!   a tuning cache keyed by shape and thread count, reused across
//!   sessions (`CNN_STACK_TUNE_CACHE`, then `~/.cache/cnn-stack/`).
//!
//! Compilation mutates the network (folding rewrites weights, selection
//! may switch weight formats) — it is a deployment-time transformation,
//! like calling [`crate::fold_batchnorm`] by hand. Pass order matters:
//! fusion first (it re-lowers after folding), selection second (it keeps
//! fusion's `fused_relu` flags), autotune last.
//!
//! # Example
//!
//! ```
//! use cnn_stack_nn::{
//!     BatchNorm2d, Conv2d, ExecConfig, Flatten, InferencePlan, InferenceSession, Linear,
//!     MaxPool2d, Network, PlanCompiler, ReLU,
//! };
//! use cnn_stack_tensor::Tensor;
//!
//! let mut net = Network::new(vec![
//!     Box::new(Conv2d::new(3, 8, 3, 1, 1, 1)),
//!     Box::new(BatchNorm2d::new(8)),
//!     Box::new(ReLU::new()),
//!     Box::new(MaxPool2d::new(2)),
//!     Box::new(Flatten::new()),
//!     Box::new(Linear::new(8 * 4 * 4, 10, 2)),
//! ])
//! .unwrap();
//! let cfg = ExecConfig::serial();
//! let plan = PlanCompiler::standard()
//!     .run(&mut net, &[1, 3, 8, 8], &cfg)
//!     .unwrap();
//! // conv+bn+relu collapsed into one step; 6 layers, 4 steps.
//! assert_eq!(plan.steps().len(), 4);
//! assert_eq!(plan.steps()[0].span, 3);
//! let mut session = InferenceSession::new(&mut net, plan).unwrap();
//! let y = session.run(&Tensor::zeros([1, 3, 8, 8])).unwrap();
//! assert_eq!(y.shape().dims(), &[1, 10]);
//! ```

pub use crate::algo::AlgoChoice;
use crate::algo::{self, LayerShape};
use crate::engine::{compile_step, InferencePlan, PlanStep};
use crate::error::{Error, PlanError};
use crate::fold;
use crate::ir::{self, IrOp, OpKind};
use crate::layer::{ExecConfig, Phase, WeightFormat};
use crate::liveness::{MemoryFootprint, StepExtent};
use crate::network::Network;
use crate::weights::Weights;
use cnn_stack_tensor::{winograd_bank_elems, Tensor, WinogradGeometry, WinogradTile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Mutable compilation state handed to each [`PlanPass`]: the network,
/// the base configuration, and the op list being rewritten.
pub struct PassContext<'a> {
    net: &'a mut Network,
    input_shape: Vec<usize>,
    base_cfg: ExecConfig,
    /// The op list; passes rewrite it in place.
    pub ops: Vec<IrOp>,
}

impl PassContext<'_> {
    /// The network under compilation.
    pub fn net(&mut self) -> &mut Network {
        self.net
    }

    /// The compilation input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// The base (global) configuration compilation started from.
    pub fn base_cfg(&self) -> &ExecConfig {
        &self.base_cfg
    }

    /// Re-lowers the network into a fresh op list, discarding all spans
    /// and per-op configuration decisions made so far. Passes that
    /// mutate network weights (e.g. batch-norm folding) call this before
    /// making structural decisions.
    pub fn relower(&mut self) -> Result<(), Error> {
        self.ops = ir::lower(self.net, &self.input_shape, &self.base_cfg)?;
        Ok(())
    }
}

/// One rewrite of the op list; see the [module docs](self) for the
/// shipped passes and their ordering contract.
pub trait PlanPass {
    /// Pass name, for diagnostics.
    fn name(&self) -> &'static str;
    /// Rewrites `ctx.ops` (and possibly the network).
    fn run(&self, ctx: &mut PassContext) -> Result<(), Error>;
}

/// An ordered pass pipeline that compiles a network into an
/// [`InferencePlan`]; see the [module docs](self).
#[derive(Default)]
pub struct PlanCompiler {
    passes: Vec<Box<dyn PlanPass>>,
}

impl PlanCompiler {
    /// An empty pipeline — [`run`](Self::run) then matches
    /// [`InferencePlan::compile`] step for step.
    pub fn new() -> Self {
        PlanCompiler { passes: Vec::new() }
    }

    /// The default deployment pipeline: [`FoldAndFuse`] then
    /// [`SelectAlgorithms`].
    pub fn standard() -> Self {
        Self::new()
            .with_pass(FoldAndFuse)
            .with_pass(SelectAlgorithms)
    }

    /// Appends a pass to the pipeline.
    pub fn with_pass(mut self, pass: impl PlanPass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs the pipeline: lower, apply every pass in order, solve the
    /// memory budget if one is set, lower the final op list to plan
    /// steps.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on a zero thread count, an
    /// empty/zero-extent input shape, or a layer/shape rank mismatch —
    /// the same contract as [`InferencePlan::compile`]. With
    /// `cfg.plan_budget` set, returns
    /// [`PlanError::BudgetInfeasible`] (as [`Error::Plan`]) when even
    /// the smallest-workspace algorithm selection cannot fit the
    /// budget; the error carries the smallest feasible budget.
    pub fn run(
        &self,
        net: &mut Network,
        input_shape: &[usize],
        cfg: &ExecConfig,
    ) -> Result<InferencePlan, Error> {
        if cfg.threads == 0 {
            return Err(Error::InvalidConfig(
                "at least one thread required".to_string(),
            ));
        }
        if input_shape.is_empty() || input_shape.contains(&0) {
            return Err(Error::InvalidConfig(format!(
                "input shape {input_shape:?} must be non-empty with non-zero extents"
            )));
        }
        let mut ctx = PassContext {
            ops: ir::lower(net, input_shape, cfg)?,
            net,
            input_shape: input_shape.to_vec(),
            base_cfg: *cfg,
        };
        for pass in &self.passes {
            pass.run(&mut ctx)?;
        }
        if let Some(budget) = cfg.plan_budget {
            fit_budget(&mut ctx, budget)?;
        }
        let mut steps: Vec<PlanStep> = Vec::with_capacity(ctx.ops.len());
        for op in &ctx.ops {
            let layer = ctx.net.layers()[op.layer].as_ref();
            let mut step = compile_step(layer, op.layer, &op.input_shape, &op.cfg)?;
            step.span = op.span;
            step.name = op.name.clone();
            step.macs = op.macs;
            steps.push(step);
        }
        let plan = InferencePlan::from_parts(input_shape.to_vec(), *cfg, steps);
        // Admission: after best-effort solving (or a standdown on user
        // overrides) the plan either fits or nothing reachable does —
        // the solved plan's peak *is* the smallest feasible budget.
        if let Some(budget) = cfg.plan_budget {
            let peak = plan.footprint().peak_bytes;
            if peak > budget {
                return Err(Error::Plan(PlanError::BudgetInfeasible {
                    budget_bytes: budget,
                    min_feasible_bytes: peak,
                }));
            }
        }
        Ok(plan)
    }
}

// ---------------------------------------------------------------------
// Pass 1: fold-and-fuse
// ---------------------------------------------------------------------

/// Folds batch norms into their producers, then absorbs exact-identity
/// batch norms and trailing ReLUs into the producing conv/depthwise/linear
/// step;
/// see the [module docs](self).
pub struct FoldAndFuse;

impl PlanPass for FoldAndFuse {
    fn name(&self) -> &'static str {
        "fold-and-fuse"
    }

    fn run(&self, ctx: &mut PassContext) -> Result<(), Error> {
        // The exact variant also folds near-identity batch norms
        // (`scale = 1/sqrt(1 + eps)`), which must execute if kept but
        // become absorbable exact identities once folded.
        fold::fold_batchnorm_exact(ctx.net);
        // Folding rewrote weights and turned batch norms into exact
        // identities — re-derive the op facts before fusing.
        ctx.relower()?;
        let ops = std::mem::take(&mut ctx.ops);
        let mut fused: Vec<IrOp> = Vec::with_capacity(ops.len());
        let mut iter = ops.into_iter().peekable();
        while let Some(mut op) = iter.next() {
            // conv/dw/linear + exact-identity BN → skip the BN.
            if op.kind.absorbs_identity_bn()
                && matches!(
                    iter.peek().map(|n| &n.kind),
                    Some(OpKind::BatchNorm { identity: true, .. })
                )
            {
                let bn = iter.next().expect("peeked");
                op.span += bn.span;
                op.macs += bn.macs;
                op.output_shape = bn.output_shape;
                op.name.push_str(" + bn");
            }
            // conv/dw/linear + ReLU → one kernel (GEMM write-back epilogue,
            // or the depthwise kernel's final write).
            if op.kind.fuses_relu() && matches!(iter.peek().map(|n| &n.kind), Some(OpKind::Relu)) {
                let relu = iter.next().expect("peeked");
                op.span += relu.span;
                op.macs += relu.macs;
                op.output_shape = relu.output_shape;
                op.cfg.fused_relu = true;
                op.name.push_str(" + relu");
            }
            fused.push(op);
        }
        ctx.ops = fused;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Pass 2: algorithm selection
// ---------------------------------------------------------------------

// Cost-model throughput anchors, measured on this crate's own kernels
// (BENCH_gemm.json as first checked in — the AVX2 tile's single-thread
// `packed` rows, 52.8–58.8 GFLOP/s over the four shapes; the AVX-512
// tile's rows are about twice that and the anchors have not followed,
// which is ROADMAP item 2(b)'s calibration): the packed micro-kernel engine
// sustains ~54 GFLOP/s where the scalar blocked/naive kernels sustain
// ~1.8. CSR pays per-nonzero index chasing (~1.2 GFLOP/s dense-equivalent
// on its stored nonzeros), which reproduces the paper's §V finding that
// sparse formats only win at extreme sparsity: against the packed engine
// the crossover density is ≈ 1.2/54 ≈ 2%. Both Winograd rows run their
// frequency products on the packed engine and are priced with its
// anchors (see the Winograd arm of `predicted_seconds`).
const PACKED_GFLOPS: f64 = 54.0;
const SCALAR_GFLOPS: f64 = 1.8;
const SPARSE_GFLOPS: f64 = 1.2;
/// Streaming bandwidth charged for building/packing the im2col matrix,
/// for weight-panel and Winograd-bank traffic and for the Winograd
/// transforms.
const PACK_BYTES_PER_SEC: f64 = 4.0e9;
/// The decode of a 2-bit weight into its f32 panel value, charged as
/// bytes streamed at [`PACK_BYTES_PER_SEC`]: one more pass over the
/// codes.
const CODE_DECODE_BYTES: f64 = 0.25;
/// Weight of a Winograd bank byte against a weight-panel byte. Measured
/// in whole VGG-16 sessions, where every run evicts it, a bank's α²
/// operands stream at about two thirds of the rate im2col's single
/// weight stream sustains beside its products: at batch 1 conv3_1's
/// F(2×2) step streams its 2.1 MB bank in 0.35 ms, the im2col step its
/// 1.2 MB of panels in 0.27 ms.
const BANK_STREAM_COST: f64 = 1.5;

/// FLOPs the packed tile grid actually executes for an `[m × k]·[k × n]`
/// product: ragged edges run whole micro-kernels on zero-padded lanes,
/// so tiny dimensions pay their round-up — rows to `MR`, columns to `NR`,
/// except that a last panel of at most `NR / 2` live columns runs the
/// half-width tile.
fn tile_padded_flops(m: usize, k: usize, n: usize) -> f64 {
    use cnn_stack_tensor::{MR, NR};
    let m_pad = m.div_ceil(MR) * MR;
    let last = match n % NR {
        0 => 0,
        live if live <= NR / 2 => NR / 2,
        _ => NR,
    };
    let n_pad = n / NR * NR + last;
    2.0 * m_pad as f64 * k as f64 * n_pad as f64
}

/// Bytes the packed engine streams, and decodes, for one pass over a
/// layer's `weights` under `choice`: 4 per f32 panel value; on 2-bit
/// codes 0.25, plus their decode into f32 panels, priced as one more
/// pass over the codes.
fn weight_bytes(choice: AlgoChoice, weights: usize) -> f64 {
    let per_weight = match choice {
        AlgoChoice::TernaryConv | AlgoChoice::TernaryLinear => 0.25 + CODE_DECODE_BYTES,
        _ => 4.0,
    };
    per_weight * weights as f64
}

/// Predicted seconds for one single-thread forward of `op` under
/// `choice`. Relative accuracy is all that matters: every path
/// parallelises over the same outer loop, so thread count scales all
/// candidates alike.
fn predicted_seconds(op: &IrOp, choice: AlgoChoice) -> f64 {
    let flops = 2.0 * op.macs as f64;
    let batch = op.input_shape.first().copied().unwrap_or(1).max(1);
    match choice {
        AlgoChoice::DirectConv | AlgoChoice::Im2colScalar | AlgoChoice::ScalarLinear => {
            flops / (SCALAR_GFLOPS * 1e9)
        }
        AlgoChoice::Im2colPacked | AlgoChoice::TernaryConv => {
            let OpKind::Conv {
                geom, out_channels, ..
            } = &op.kind
            else {
                return f64::INFINITY;
            };
            let plane = geom.out_positions();
            let k = geom.patch_len();
            // The engine's small-plane batching: images merge their
            // columns until one column chunk of the GEMM's loop nest is
            // filled, so the panel round-up is paid once per group, not
            // per image.
            let group = crate::conv::packed_group_for(*out_channels, k, plane, batch);
            let groups = batch as f64 / group as f64;
            let eff = groups * tile_padded_flops(*out_channels, k, group * plane);
            let weight_traffic = groups * weight_bytes(choice, out_channels * k);
            let footprint = (k * plane * 4) as f64 * batch as f64;
            // Pointwise stride-1 convolutions skip the im2col
            // indirection entirely (the image is the column matrix) —
            // only the panel repack remains.
            let pack = if geom.is_pointwise_identity() {
                footprint * 0.5
            } else {
                footprint
            };
            eff / (PACKED_GFLOPS * 1e9) + (pack + weight_traffic) / PACK_BYTES_PER_SEC
        }
        AlgoChoice::PackedLinear | AlgoChoice::TernaryLinear => {
            let OpKind::Linear {
                in_features,
                out_features,
                ..
            } = &op.kind
            else {
                return f64::INFINITY;
            };
            // On codes the product runs as `W · Xᵀ`: the batch is the
            // column dimension.
            let eff = if choice == AlgoChoice::PackedLinear {
                tile_padded_flops(batch, *in_features, *out_features)
            } else {
                tile_padded_flops(*out_features, *in_features, batch)
            };
            // At serving batch sizes the product is bound by streaming
            // the weights.
            let weight_traffic = weight_bytes(choice, in_features * out_features);
            eff / (PACKED_GFLOPS * 1e9) + weight_traffic / PACK_BYTES_PER_SEC
        }
        AlgoChoice::Winograd | AlgoChoice::WinogradF4 => {
            let OpKind::Conv {
                geom, out_channels, ..
            } = &op.kind
            else {
                return f64::INFINITY;
            };
            let tile = if choice == AlgoChoice::Winograd {
                WinogradTile::F2
            } else {
                WinogradTile::F4
            };
            let Ok(wino) = WinogradGeometry::new(
                tile,
                (batch, geom.in_channels, geom.in_h, geom.in_w),
                *out_channels,
                geom.padding,
            ) else {
                return f64::INFINITY;
            };
            let (ic, oc, freqs) = (geom.in_channels, *out_channels, tile.frequencies());
            // Per chunk of tiles: α² products on the packed engine
            // (whole tiles, tile-padded panels) and one pass over the
            // bank, which is 4× (F(4×4)) or 1.78× (F(2×2)) the weights —
            // on a 2×2 plane F(4×4) multiplies a whole 4×4 tile for a
            // quarter of one, and on a small batch streaming the bank
            // outweighs the multiplies it saves.
            let (tiles, chunk) = (wino.tiles(), wino.chunk_tiles());
            let products: f64 = (0..tiles)
                .step_by(chunk)
                .map(|t0| freqs as f64 * tile_padded_flops(oc, ic, chunk.min(tiles - t0)))
                .sum();
            let bank = winograd_bank_elems(tile, ic, oc) * 4;
            let bank_traffic = BANK_STREAM_COST * (tiles.div_ceil(chunk) * bank) as f64;
            // The transforms: every tile's α² frequencies of every input
            // channel into the products, and of every output channel out.
            let transforms = (freqs * (ic + oc) * tiles * 4) as f64;
            products / (PACKED_GFLOPS * 1e9) + (bank_traffic + transforms) / PACK_BYTES_PER_SEC
        }
        AlgoChoice::CsrConv | AlgoChoice::CsrIm2col | AlgoChoice::CsrLinear => {
            let density = match &op.kind {
                OpKind::Conv { sparsity, .. } | OpKind::Linear { sparsity, .. } => 1.0 - sparsity,
                _ => 1.0,
            };
            flops * density / (SPARSE_GFLOPS * 1e9)
        }
    }
}

/// What the registry needs to know about a conv/linear op — geometry,
/// label, exact ternarity; `None` for ops the selector does not touch.
fn facts(op: &IrOp) -> Option<(LayerShape, WeightFormat, bool)> {
    match &op.kind {
        OpKind::Conv {
            geom,
            format,
            ternary,
            ..
        } => {
            let shape = LayerShape::Conv {
                k_h: geom.k_h,
                k_w: geom.k_w,
                stride: geom.stride,
            };
            Some((shape, *format, *ternary))
        }
        OpKind::Linear {
            format, ternary, ..
        } => Some((LayerShape::Linear, *format, *ternary)),
        _ => None,
    }
}

/// The kernel `op` runs under its current label and config.
fn resolved(op: &IrOp) -> Option<AlgoChoice> {
    let (shape, label, ternary) = facts(op)?;
    Some(algo::resolve(shape, label, &op.cfg, || ternary))
}

/// Valid candidates for `op` — the proposable registry rows that apply
/// to it — cheapest predicted first; empty for ops the selector does
/// not touch.
fn candidates(op: &IrOp) -> Vec<(AlgoChoice, f64)> {
    let Some((shape, _, ternary)) = facts(op) else {
        return Vec::new();
    };
    let mut c: Vec<(AlgoChoice, f64)> = AlgoChoice::ALL
        .into_iter()
        .filter(|row| row.applies(shape, ternary) && row.proposed())
        .map(|row| (row, predicted_seconds(op, row)))
        .collect();
    c.sort_by(|a, b| a.1.total_cmp(&b.1));
    c
}

/// Applies `choice` to the op's config and to the layer's label.
fn apply_choice(net: &mut Network, op: &mut IrOp, choice: AlgoChoice) {
    let weights = Weights::of_mut(net.layers_mut()[op.layer].as_mut())
        .expect("choices are only proposed for conv/linear ops");
    choice.apply(&mut op.cfg, weights);
    // Keep the IR's format fact in sync for later passes.
    if let OpKind::Conv { format, .. } | OpKind::Linear { format, .. } = &mut op.kind {
        *format = weights.format();
    }
    // Tag the step name with the winning algorithm so plan reports show
    // per-layer choices. Replace any tag from an earlier pass (autotune
    // re-applies on top of cost-model selection).
    if op.name.ends_with(']') {
        if let Some(pos) = op.name.rfind(" [") {
            op.name.truncate(pos);
        }
    }
    let _ = write!(op.name, " [{}]", choice.tag());
}

/// Whether the base config carries a user override: a non-default
/// `conv_algo` or `gemm_algo` is the caller's choice, and neither
/// [`SelectAlgorithms`] nor the budget solver rewrites it.
fn user_override(base: &ExecConfig) -> bool {
    let defaults = ExecConfig::serial();
    base.conv_algo != defaults.conv_algo || base.gemm_algo != defaults.gemm_algo
}

/// Chooses an execution strategy per conv/linear op from the cost model;
/// see the [module docs](self). A non-default `conv_algo` or `gemm_algo`
/// in the base config is a user override: the model chooses nothing,
/// and each op is put on the row the override resolves to, so its step
/// names and records the kernel it runs.
pub struct SelectAlgorithms;

impl PlanPass for SelectAlgorithms {
    fn name(&self) -> &'static str {
        "select-algorithms"
    }

    fn run(&self, ctx: &mut PassContext) -> Result<(), Error> {
        let overridden = user_override(&ctx.base_cfg);
        let mut ops = std::mem::take(&mut ctx.ops);
        for op in &mut ops {
            let choice = if overridden {
                resolved(op)
            } else {
                candidates(op).first().map(|&(best, _)| best)
            };
            if let Some(choice) = choice {
                apply_choice(ctx.net, op, choice);
            }
        }
        ctx.ops = ops;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Budget solver: fastest plan under N bytes
// ---------------------------------------------------------------------

/// One algorithm option for one op during budget solving. `choice` is
/// `None` for ops the selector does not touch (their extent is fixed);
/// `Some` entries can be (re-)applied via [`apply_choice`].
struct BudgetCand {
    choice: Option<AlgoChoice>,
    secs: f64,
    extent: StepExtent,
}

/// Memory extent of one op compiled under its current per-op config —
/// a real `compile_step` probe, so the workspace numbers are the
/// kernels' own, not a cost-model estimate.
fn op_extent(net: &Network, op: &IrOp) -> Result<StepExtent, Error> {
    let step = compile_step(
        net.layers()[op.layer].as_ref(),
        op.layer,
        &op.input_shape,
        &op.cfg,
    )?;
    Ok(StepExtent {
        output_elems: step.output_elems,
        workspace_elems: step.workspace_elems,
    })
}

/// Solves "fastest plan under the budget" over the pipeline's op list.
///
/// The solver first checks the liveness-derived peak of the current
/// selection; when it already fits, nothing changes (an autotuned
/// winner stays an autotuned winner). When over budget, it probes every
/// conv/linear candidate's true workspace via [`compile_step`] and then
/// greedily demotes: each round it evaluates, for every op, a move to
/// that op's fastest strictly-smaller-workspace algorithm (im2col +
/// packed falls back towards Winograd/direct, packed linear towards
/// blocked), recomputes the coloured peak each move would produce, and
/// applies the move with the lowest resulting peak, breaking ties
/// towards the smallest predicted slowdown. Once the plan fits, demotions
/// the budget turns out not to need are handed back, largest predicted
/// saving first. When every op sits at its
/// smallest workspace and the plan still exceeds the budget, the floor
/// selection is left applied and the caller's admission check reports
/// [`PlanError::BudgetInfeasible`] with that floor as the smallest
/// feasible budget.
///
/// A non-default `conv_algo`/`gemm_algo` in the base config is a user
/// override and the solver stands down, exactly like
/// [`SelectAlgorithms`]: the admission check then reports infeasibility
/// rather than silently rewriting the user's plan.
fn fit_budget(ctx: &mut PassContext, budget_bytes: usize) -> Result<(), Error> {
    if user_override(&ctx.base_cfg) {
        return Ok(());
    }
    let peak_bytes = |extents: &[StepExtent]| MemoryFootprint::of(extents).peak_bytes;
    let current: Vec<StepExtent> = ctx
        .ops
        .iter()
        .map(|op| op_extent(ctx.net, op))
        .collect::<Result<_, _>>()?;
    if peak_bytes(&current) <= budget_bytes {
        return Ok(());
    }

    let mut ops = std::mem::take(&mut ctx.ops);
    let mut tables: Vec<Vec<BudgetCand>> = Vec::with_capacity(ops.len());
    let mut selected: Vec<usize> = Vec::with_capacity(ops.len());
    for (op, cur) in ops.iter_mut().zip(&current) {
        let cands = candidates(op);
        if cands.is_empty() {
            tables.push(vec![BudgetCand {
                choice: None,
                secs: 0.0,
                extent: *cur,
            }]);
            selected.push(0);
            continue;
        }
        // Record which candidate the pipeline currently has applied
        // *before* probing overwrites the op's config, so the solver
        // starts from the pipeline's selection (including an autotuned
        // winner) rather than from the predicted-fastest.
        let current = resolved(op);
        let init = cands
            .iter()
            .position(|&(c, _)| Some(c) == current)
            .unwrap_or(0);
        let mut table = Vec::with_capacity(cands.len());
        for (choice, secs) in cands {
            apply_choice(ctx.net, op, choice);
            table.push(BudgetCand {
                choice: Some(choice),
                secs,
                extent: op_extent(ctx.net, op)?,
            });
        }
        tables.push(table);
        selected.push(init);
    }
    let init_of = selected.clone();

    loop {
        let extents: Vec<StepExtent> = tables
            .iter()
            .zip(&selected)
            .map(|(t, &j)| t[j].extent)
            .collect();
        if peak_bytes(&extents) <= budget_bytes {
            break;
        }
        let mut best: Option<(usize, usize, usize, f64)> = None;
        for (i, table) in tables.iter().enumerate() {
            let cur = &table[selected[i]];
            // Candidates are sorted fastest-first, so `position` finds
            // the fastest algorithm that actually shrinks this op.
            let Some(j) = table
                .iter()
                .position(|c| c.extent.workspace_elems < cur.extent.workspace_elems)
            else {
                continue;
            };
            let mut trial = extents.clone();
            trial[i] = table[j].extent;
            let new_peak = peak_bytes(&trial);
            let dsecs = table[j].secs - cur.secs;
            let better = match best {
                None => true,
                Some((_, _, bp, bd)) => new_peak < bp || (new_peak == bp && dsecs < bd),
            };
            if better {
                best = Some((i, j, new_peak, dsecs));
            }
        }
        let Some((i, j, _, _)) = best else {
            // Every op already sits at its smallest workspace; the
            // caller's admission check reports the floor.
            break;
        };
        selected[i] = j;
    }

    // Undo what the budget no longer needs. A round whose every move
    // leaves the peak where it was still takes one, so the loop can end
    // with demotions that saved nothing. While the plan fits, hand back
    // the largest predicted saving: a demoted op's fastest candidate
    // between its starting one and its current one that still fits.
    loop {
        let extents: Vec<StepExtent> = tables
            .iter()
            .zip(&selected)
            .map(|(t, &j)| t[j].extent)
            .collect();
        if peak_bytes(&extents) > budget_bytes {
            break;
        }
        let mut best: Option<(usize, usize, f64)> = None;
        for (i, table) in tables.iter().enumerate() {
            let init = init_of[i];
            let Some(j) = (init..selected[i]).find(|&j| {
                let mut trial = extents.clone();
                trial[i] = table[j].extent;
                peak_bytes(&trial) <= budget_bytes
            }) else {
                continue;
            };
            let saved = table[selected[i]].secs - table[j].secs;
            if best.is_none_or(|(_, _, bs)| saved > bs) {
                best = Some((i, j, saved));
            }
        }
        let Some((i, j, _)) = best else { break };
        selected[i] = j;
    }

    // Leave the network and op list in the solved state (probing left
    // them on each op's last-probed candidate).
    for (op, (table, &j)) in ops.iter_mut().zip(tables.iter().zip(&selected)) {
        if let Some(choice) = table[j].choice {
            apply_choice(ctx.net, op, choice);
        }
    }
    ctx.ops = ops;
    Ok(())
}

// ---------------------------------------------------------------------
// Pass 3: empirical autotune
// ---------------------------------------------------------------------

/// Opt-in empirical refinement of the cost model: micro-benchmarks the
/// top-2 predicted candidates per conv/linear op and applies the
/// measured winner, persisting it to a tuning cache so later
/// compilations of the same shape skip the measurement.
///
/// Cache resolution order: an explicit
/// [`with_cache_path`](Autotune::with_cache_path) argument, the
/// `CNN_STACK_TUNE_CACHE` environment variable, then
/// `~/.cache/cnn-stack/tune.tsv`. Entries are keyed by op kind, GEMM
/// dimensions, kernel extent and stride (convolutions), batch,
/// measured-sparsity bucket, and thread count. Cache I/O is best-effort:
/// an unreadable or unwritable cache degrades to measuring every
/// compilation.
pub struct Autotune {
    cache_path: Option<PathBuf>,
    samples: u32,
}

impl Autotune {
    /// Autotuner with the default cache resolution.
    pub fn new() -> Self {
        Autotune {
            cache_path: None,
            samples: 3,
        }
    }

    /// Autotuner writing to an explicit cache file (tests point this at
    /// a temp dir for determinism).
    pub fn with_cache_path(path: impl Into<PathBuf>) -> Self {
        Autotune {
            cache_path: Some(path.into()),
            samples: 3,
        }
    }

    fn resolve_cache_path(&self) -> Option<PathBuf> {
        if let Some(p) = &self.cache_path {
            return Some(p.clone());
        }
        if let Ok(p) = std::env::var("CNN_STACK_TUNE_CACHE") {
            if !p.is_empty() {
                return Some(PathBuf::from(p));
            }
        }
        std::env::var_os("HOME").map(|h| PathBuf::from(h).join(".cache/cnn-stack/tune.tsv"))
    }

    /// Best-of-`samples` wall-clock seconds for one forward of the op's
    /// primary layer under `cfg`, after a warm-up run (which also packs
    /// any plan-time panels via `prepare`).
    fn measure(net: &mut Network, op: &IrOp, cfg: &ExecConfig, samples: u32) -> f64 {
        let layer = &mut net.layers_mut()[op.layer];
        layer.visit_mut(&mut |l| {
            l.prepare(cfg);
        });
        let x = Tensor::from_fn(op.input_shape.clone(), |i| ((i % 23) as f32 - 11.0) * 0.05);
        let _ = layer.forward(&x, Phase::Eval, cfg);
        let mut best = f64::INFINITY;
        for _ in 0..samples.max(1) {
            let t = Instant::now();
            let _ = layer.forward(&x, Phase::Eval, cfg);
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    }
}

impl Default for Autotune {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable cache key for an op at one shape and thread count. A conv key
/// states the kernel extent and stride beside the GEMM dimensions: the
/// candidate list depends on them (Winograd is 3×3 stride-1 only), and
/// two layers equal in `m·k·n` alone — conv3x3(3→8) and conv1x1(27→8)
/// on one plane — are different problems for every kernel.
fn tune_key(op: &IrOp, threads: usize) -> Option<String> {
    let batch = op.input_shape.first().copied().unwrap_or(1);
    match &op.kind {
        OpKind::Conv {
            geom,
            out_channels,
            sparsity,
            ..
        } => Some(format!(
            "conv:m{}k{}n{}:k{}x{}s{}:b{batch}:sp{:.2}:t{threads}",
            out_channels,
            geom.patch_len(),
            geom.out_positions(),
            geom.k_h,
            geom.k_w,
            geom.stride,
            sparsity,
        )),
        OpKind::Linear {
            in_features,
            out_features,
            sparsity,
            ..
        } => Some(format!(
            "linear:m{batch}k{in_features}n{out_features}:sp{:.2}:t{threads}",
            sparsity,
        )),
        _ => None,
    }
}

fn load_cache(path: &Path) -> Vec<(String, AlgoChoice)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let (key, tag) = line.split_once('\t')?;
            Some((key.to_string(), AlgoChoice::from_tag(tag)?))
        })
        .collect()
}

fn store_cache(path: &Path, entries: &[(String, AlgoChoice)]) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut text = String::new();
    for (key, choice) in entries {
        text.push_str(key);
        text.push('\t');
        text.push_str(choice.tag());
        text.push('\n');
    }
    let _ = std::fs::write(path, text);
}

impl PlanPass for Autotune {
    fn name(&self) -> &'static str {
        "autotune"
    }

    fn run(&self, ctx: &mut PassContext) -> Result<(), Error> {
        let cache_path = self.resolve_cache_path();
        let mut cache = cache_path.as_deref().map(load_cache).unwrap_or_default();
        let mut dirty = false;
        let threads = ctx.base_cfg.threads;
        let mut ops = std::mem::take(&mut ctx.ops);
        for op in &mut ops {
            let Some(key) = tune_key(op, threads) else {
                continue;
            };
            let cands = candidates(op);
            if let Some(pos) = cache.iter().position(|(k, _)| *k == key) {
                let cached = cache[pos].1;
                if cands.iter().any(|&(c, _)| c == cached) {
                    apply_choice(ctx.net, op, cached);
                    continue;
                }
                // The line names a kernel that is no candidate for this
                // op (a colliding key, a relabelled layer, a hand-edited
                // file): drop it and measure, like a miss.
                cache.remove(pos);
                dirty = true;
            }
            let mut top: Vec<AlgoChoice> = cands.into_iter().take(2).map(|(c, _)| c).collect();
            if top.len() < 2 {
                continue; // nothing to compare; keep the selector's pick
            }
            // Light budget filter: a candidate whose own step residency
            // (input + output + workspace are simultaneously live)
            // exceeds the budget can never appear in a feasible plan,
            // so don't spend samples measuring it. A budget-influenced
            // winner must not enter the budget-agnostic tuning cache.
            let mut cacheable = true;
            if let Some(budget) = ctx.base_cfg.plan_budget {
                let input_elems: usize = op.input_shape.iter().product();
                let mut keep = Vec::with_capacity(top.len());
                for &choice in &top {
                    apply_choice(ctx.net, op, choice);
                    let ext = op_extent(ctx.net, op)?;
                    let resident = 4 * (input_elems + ext.output_elems + ext.workspace_elems);
                    if resident <= budget {
                        keep.push(choice);
                    }
                }
                cacheable = keep.len() == top.len();
                top = keep;
                if top.is_empty() {
                    continue; // nothing fits here; the budget solver repairs later
                }
                if top.len() == 1 {
                    apply_choice(ctx.net, op, top[0]);
                    continue;
                }
            }
            let mut winner = top[0];
            let mut best = f64::INFINITY;
            for &choice in &top {
                apply_choice(ctx.net, op, choice);
                let t = Self::measure(ctx.net, op, &op.cfg, self.samples);
                if t < best {
                    best = t;
                    winner = choice;
                }
            }
            apply_choice(ctx.net, op, winner);
            if cacheable {
                cache.push((key, winner));
                dirty = true;
            }
        }
        ctx.ops = ops;
        if dirty {
            if let Some(path) = &cache_path {
                store_cache(path, &cache);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvAlgorithm, Layer};
    use crate::{BatchNorm2d, Conv2d, Flatten, InferenceSession, Linear, MaxPool2d, Network, ReLU};
    use cnn_stack_tensor::GemmAlgorithm;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random(shape: impl Into<cnn_stack_tensor::Shape>, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_fn(shape.into(), |_| rng.gen_range(-1.0..1.0))
    }

    fn fusable_net(seed: u64) -> Network {
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(3, 6, 3, 1, 1, seed)),
            Box::new(BatchNorm2d::new(6)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(6 * 4 * 4, 5, seed + 1)),
            Box::new(ReLU::new()),
        ])
        .unwrap();
        // Give the batch norm non-trivial statistics so folding does
        // real work.
        let bn = net.layers_mut()[1]
            .as_any_mut()
            .downcast_mut::<BatchNorm2d>()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed + 7);
        for g in bn.gamma_mut().value.data_mut() {
            *g = rng.gen_range(0.5..1.5);
        }
        net
    }

    #[test]
    fn empty_pipeline_matches_compile() {
        let mut net = fusable_net(11);
        let cfg = ExecConfig::serial();
        let direct = InferencePlan::compile(&net, &[2, 3, 8, 8], &cfg).unwrap();
        let built = PlanCompiler::new()
            .run(&mut net, &[2, 3, 8, 8], &cfg)
            .unwrap();
        assert_eq!(built.steps().len(), direct.steps().len());
        for (a, b) in built.steps().iter().zip(direct.steps()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.span, 1);
            assert_eq!(a.output_shape, b.output_shape);
        }
    }

    #[test]
    fn fold_and_fuse_collapses_conv_bn_relu() {
        let mut net = fusable_net(3);
        let cfg = ExecConfig::serial();
        let plan = PlanCompiler::new()
            .with_pass(FoldAndFuse)
            .run(&mut net, &[2, 3, 8, 8], &cfg)
            .unwrap();
        // 7 layers → 4 steps: [conv+bn+relu][pool][flatten][linear+relu].
        assert_eq!(plan.steps().len(), 4);
        assert_eq!(plan.steps()[0].span, 3);
        assert!(plan.steps()[0].cfg.fused_relu);
        assert_eq!(plan.steps()[3].span, 2);
        assert!(plan.steps()[3].cfg.fused_relu);
        let covered: usize = plan.steps().iter().map(|s| s.span).sum();
        assert_eq!(covered, 7);
    }

    #[test]
    fn fused_plan_matches_unfused_execution() {
        let x = random([2, 3, 8, 8], 42);
        let cfg = ExecConfig::serial();
        // Reference: unfused network, uniform plan (folding is applied
        // to both networks first so the weights are identical).
        let mut reference = fusable_net(3);
        crate::fold_batchnorm(&mut reference);
        let ref_plan = InferencePlan::compile(&reference, &[2, 3, 8, 8], &cfg).unwrap();
        let mut ref_session = InferenceSession::new(&mut reference, ref_plan).unwrap();
        let want = ref_session.run(&x).unwrap();

        let mut net = fusable_net(3);
        let plan = PlanCompiler::new()
            .with_pass(FoldAndFuse)
            .run(&mut net, &[2, 3, 8, 8], &cfg)
            .unwrap();
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        let got = session.run(&x).unwrap();
        assert_eq!(got.shape().dims(), want.shape().dims());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert_eq!(g, w, "fused and unfused outputs must agree exactly");
        }
    }

    #[test]
    fn near_identity_batchnorm_is_not_absorbed() {
        // A fresh (unfolded, never-folded) batch norm scales by
        // 1/sqrt(1+eps) — skipping it would change outputs, so the
        // fuser must keep it when folding cannot run (e.g. after a
        // non-conv producer).
        let mut net = Network::new(vec![
            Box::new(MaxPool2d::new(2)),
            Box::new(BatchNorm2d::new(3)),
        ])
        .unwrap();
        let cfg = ExecConfig::serial();
        let plan = PlanCompiler::new()
            .with_pass(FoldAndFuse)
            .run(&mut net, &[1, 3, 8, 8], &cfg)
            .unwrap();
        assert_eq!(plan.steps().len(), 2);
    }

    #[test]
    fn selection_picks_packed_for_dense_and_csr_for_extreme_sparsity() {
        // out_c of 16 keeps the dense stem on the packed engine: per
        // tile F(4×4) moves 36·(in_c + out_c) transformed values where
        // im2col packs 27 per output, so below ~12 output channels the
        // transforms are the cheaper traffic and F(4×4) wins the stem
        // instead.
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(3, 16, 3, 1, 1, 2)),
            Box::new(Conv2d::new(16, 16, 3, 1, 1, 3)),
        ])
        .unwrap();
        // Prune the second conv to ~99% sparsity: CSR beats packed
        // only beyond the ≈98% crossover.
        {
            let conv = net.layers_mut()[1]
                .as_any_mut()
                .downcast_mut::<Conv2d>()
                .unwrap();
            let data = conv.weight_mut().value.data_mut();
            let keep = data.len() / 100;
            for v in data.iter_mut().skip(keep) {
                *v = 0.0;
            }
        }
        let cfg = ExecConfig::serial();
        let plan = PlanCompiler::standard()
            .run(&mut net, &[1, 3, 16, 16], &cfg)
            .unwrap();
        assert_eq!(plan.steps()[0].cfg.conv_algo, ConvAlgorithm::Im2col);
        assert_eq!(plan.steps()[0].cfg.gemm_algo, GemmAlgorithm::Packed);
        // The sparse layer went CSR + direct.
        assert_eq!(plan.steps()[1].cfg.conv_algo, ConvAlgorithm::Direct);
        let sparse_layer = net.layers_mut()[1]
            .as_any_mut()
            .downcast_mut::<Conv2d>()
            .unwrap();
        assert_eq!(sparse_layer.format(), WeightFormat::Csr);
    }

    #[test]
    fn selection_honours_global_override() {
        let mut net = Network::new(vec![Box::new(Conv2d::new(3, 8, 3, 1, 1, 2))]).unwrap();
        let cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            gemm_algo: GemmAlgorithm::Blocked,
            ..ExecConfig::serial()
        };
        let plan = PlanCompiler::standard()
            .run(&mut net, &[1, 3, 8, 8], &cfg)
            .unwrap();
        // Non-default base knobs are a user override: kept verbatim.
        assert_eq!(plan.steps()[0].cfg.conv_algo, ConvAlgorithm::Im2col);
        assert_eq!(plan.steps()[0].cfg.gemm_algo, GemmAlgorithm::Blocked);
    }

    #[test]
    fn selected_plan_executes_and_matches_reference() {
        let x = random([2, 3, 8, 8], 9);
        let cfg = ExecConfig::serial();
        let mut reference = fusable_net(5);
        let want = reference.forward(&x, Phase::Eval, &cfg);

        let mut net = fusable_net(5);
        let plan = PlanCompiler::standard()
            .run(&mut net, &[2, 3, 8, 8], &cfg)
            .unwrap();
        let mut session = InferenceSession::new(&mut net, plan).unwrap();
        let got = session.run(&x).unwrap();
        assert_eq!(got.shape().dims(), want.shape().dims());
        for (g, w) in got.data().iter().zip(want.data()) {
            let err = (g - w).abs();
            // Folding changes the arithmetic (BN absorbed into the
            // weights), so exact equality is not expected — agreement
            // to folding tolerance is.
            assert!(err <= 1e-4 * w.abs().max(1.0), "got {g}, want {w}");
        }
    }

    #[test]
    fn autotune_persists_and_reuses_cache() {
        let dir = std::env::temp_dir().join(format!("cnn-stack-tune-test-{}", std::process::id()));
        let path = dir.join("tune.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = ExecConfig::serial();

        let mut net = fusable_net(13);
        let plan_a = PlanCompiler::standard()
            .with_pass(Autotune::with_cache_path(path.clone()))
            .run(&mut net, &[1, 3, 8, 8], &cfg)
            .unwrap();
        let text = std::fs::read_to_string(&path).expect("cache written");
        assert!(text.lines().count() >= 2, "conv and linear entries: {text}");

        // Second compilation replays the cache: identical selections,
        // no re-measurement dependence.
        let mut net_b = fusable_net(13);
        let plan_b = PlanCompiler::standard()
            .with_pass(Autotune::with_cache_path(path.clone()))
            .run(&mut net_b, &[1, 3, 8, 8], &cfg)
            .unwrap();
        for (a, b) in plan_a.steps().iter().zip(plan_b.steps()) {
            assert_eq!(a.cfg.conv_algo, b.cfg.conv_algo, "step {}", a.name);
            assert_eq!(a.cfg.gemm_algo, b.cfg.gemm_algo, "step {}", a.name);
        }
        let text_b = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, text_b, "cache hit must not rewrite the file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_round_trips_tags() {
        for choice in AlgoChoice::ALL {
            assert_eq!(AlgoChoice::from_tag(choice.tag()), Some(choice));
        }
        assert_eq!(AlgoChoice::from_tag("nonsense"), None);
    }

    /// Compiles `net` through `standard() + Autotune` against a cache
    /// file holding exactly `line`, returning the plan and the file's
    /// contents afterwards.
    fn compile_with_cache_line(
        net: &mut Network,
        shape: &[usize],
        line: &str,
        name: &str,
    ) -> (InferencePlan, String) {
        let dir = std::env::temp_dir().join(format!("cnn-stack-{name}-{}", std::process::id()));
        let path = dir.join("tune.tsv");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, format!("{line}\n")).unwrap();
        let plan = PlanCompiler::standard()
            .with_pass(Autotune::with_cache_path(path.clone()))
            .run(net, shape, &ExecConfig::serial())
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (plan, text)
    }

    /// The `[tag]` the compiler left on a step name.
    fn step_tag(step: &PlanStep) -> &str {
        let open = step.name.rfind(" [").expect("tagged step");
        &step.name[open + 2..step.name.len() - 1]
    }

    #[test]
    fn autotune_drops_lines_naming_withdrawn_kernels() {
        // `gemm-int8` and `fft` named registry rows that were withdrawn:
        // a line whose tag no longer parses is dropped on load, the op is
        // measured like a miss, and the stale line does not survive.
        let shape = [1usize, 64];
        let line = "linear:m1k64n10:sp0.00:t1\tgemm-int8";
        let mut net = Network::new(vec![Box::new(Linear::new(64, 10, 3))]).unwrap();
        let (plan, text) = compile_with_cache_line(&mut net, &shape, line, "replay-int8");
        let fc = net.layers()[0].as_any().downcast_ref::<Linear>().unwrap();
        assert_eq!(fc.format(), WeightFormat::Dense);
        let cfg = plan.steps()[0].cfg;
        assert_eq!(step_tag(&plan.steps()[0]), fc.runs(&cfg).tag());
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.starts_with("linear:m1k64n10:sp0.00:t1\t"), "{text}");
        assert!(!text.contains("gemm-int8"), "stale line survived: {text}");
        // The output is the f32 kernel's the step names, bit for bit —
        // what compiling without the cache line produces.
        let x = random(shape, 5);
        let want = Linear::new(64, 10, 3).forward(&x, Phase::Eval, &cfg);
        let got = InferenceSession::new(&mut net, plan)
            .unwrap()
            .run(&x)
            .unwrap();
        assert_eq!(got.data(), want.data());

        let shape = [1usize, 3, 8, 8];
        let line = "conv:m8k75n64:k5x5s1:b1:sp0.00:t1\tfft";
        let mut net = Network::new(vec![Box::new(Conv2d::new(3, 8, 5, 1, 2, 4))]).unwrap();
        let (plan, text) = compile_with_cache_line(&mut net, &shape, line, "replay-fft");
        let conv = net.layers()[0].as_any().downcast_ref::<Conv2d>().unwrap();
        let step = &plan.steps()[0];
        assert_eq!(step_tag(step), conv.runs(&step.cfg).tag());
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(
            text.starts_with("conv:m8k75n64:k5x5s1:b1:sp0.00:t1\t"),
            "{text}"
        );
        assert!(!text.contains("fft"), "stale line survived: {text}");
    }

    #[test]
    fn autotune_ignores_winograd_line_on_colliding_pointwise_key() {
        // A line keyed for the 1×1 layer but naming a kernel that is no
        // candidate for it (a hand-edited file): dropped, not replayed.
        let shape = [1usize, 27, 8, 8];
        let line = "conv:m8k27n64:k1x1s1:b1:sp0.00:t1\twinograd-f4";
        let mut net = Network::new(vec![Box::new(Conv2d::new(27, 8, 1, 1, 0, 4))]).unwrap();
        let (plan, _) = compile_with_cache_line(&mut net, &shape, line, "replay-f4");
        let conv = net.layers()[0].as_any().downcast_ref::<Conv2d>().unwrap();
        let step = &plan.steps()[0];
        assert_ne!(step.cfg.conv_algo, ConvAlgorithm::WinogradF4);
        assert_eq!(step_tag(step), conv.runs(&step.cfg).tag());
    }

    #[test]
    fn colliding_gemm_dims_get_their_own_cache_lines() {
        // conv3x3(3->8) and conv1x1(27->8) over an 8×8 map are both
        // m8·k27·n64; keyed by that alone, the second layer compiled
        // through the file replayed the first one's winner unmeasured.
        let dir = std::env::temp_dir().join(format!("cnn-stack-tune-clash-{}", std::process::id()));
        let path = dir.join("tune.tsv");
        let _ = std::fs::remove_file(&path);
        let wide = || Network::new(vec![Box::new(Conv2d::new(3, 8, 3, 1, 1, 4))]).unwrap();
        let point = || Network::new(vec![Box::new(Conv2d::new(27, 8, 1, 1, 0, 4))]).unwrap();
        let compile = |mut net: Network, shape: [usize; 4]| {
            let plan = PlanCompiler::standard()
                .with_pass(Autotune::with_cache_path(path.clone()))
                .run(&mut net, &shape, &ExecConfig::serial())
                .unwrap();
            step_tag(&plan.steps()[0]).to_string()
        };
        let measured_wide = compile(wide(), [1, 3, 8, 8]);
        let measured_point = compile(point(), [1, 27, 8, 8]);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one line per layer: {text}");
        assert_eq!(
            lines[0],
            format!("conv:m8k27n64:k3x3s1:b1:sp0.00:t1\t{measured_wide}")
        );
        assert_eq!(
            lines[1],
            format!("conv:m8k27n64:k1x1s1:b1:sp0.00:t1\t{measured_point}")
        );
        // Each layer replays the row measured on it, and a hit rewrites
        // nothing.
        assert_eq!(compile(point(), [1, 27, 8, 8]), measured_point);
        assert_eq!(compile(wide(), [1, 3, 8, 8]), measured_wide);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn autotune_ignores_ternary_line_on_non_ternary_weights() {
        let shape = [1usize, 3, 8, 8];
        let line = "conv:m8k27n64:k3x3s1:b1:sp0.00:t1\tim2col-ternary";
        let mut net = Network::new(vec![Box::new(Conv2d::new(3, 8, 3, 1, 1, 4))]).unwrap();
        let (plan, _) = compile_with_cache_line(&mut net, &shape, line, "replay-ternary");
        let conv = net.layers()[0].as_any().downcast_ref::<Conv2d>().unwrap();
        assert_ne!(conv.format(), WeightFormat::Ternary);
        let step = &plan.steps()[0];
        assert_eq!(step_tag(step), conv.runs(&step.cfg).tag());
    }

    fn budget_net(seed: u64) -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(3, 16, 3, 1, 1, seed)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(16 * 6 * 6, 10, seed + 1)),
        ])
        .unwrap()
    }

    #[test]
    fn loose_budget_keeps_pipeline_selection() {
        let shape = [2usize, 3, 12, 12];
        let mut free_net = budget_net(31);
        let free = PlanCompiler::standard()
            .run(&mut free_net, &shape, &ExecConfig::serial())
            .unwrap();
        let mut capped_net = budget_net(31);
        let cfg = ExecConfig::builder().plan_budget(1 << 30).build().unwrap();
        let capped = PlanCompiler::standard()
            .run(&mut capped_net, &shape, &cfg)
            .unwrap();
        for (a, b) in free.steps().iter().zip(capped.steps()) {
            assert_eq!(a.cfg.conv_algo, b.cfg.conv_algo, "step {}", a.name);
            assert_eq!(a.cfg.gemm_algo, b.cfg.gemm_algo, "step {}", a.name);
        }
    }

    #[test]
    fn tight_budget_demotes_to_smaller_workspace() {
        let shape = [2usize, 3, 12, 12];
        let mut free_net = budget_net(32);
        let free = PlanCompiler::standard()
            .run(&mut free_net, &shape, &ExecConfig::serial())
            .unwrap();
        let free_peak = free.footprint().peak_bytes;
        assert!(free_peak > 0);
        // Ask for just under the unconstrained peak: the solver must
        // demote at least one step onto a smaller-workspace algorithm.
        let budget = free_peak - 4;
        let mut capped_net = budget_net(32);
        let cfg = ExecConfig::builder().plan_budget(budget).build().unwrap();
        let capped = PlanCompiler::standard()
            .run(&mut capped_net, &shape, &cfg)
            .unwrap();
        assert!(capped.footprint().peak_bytes <= budget);
        assert!(
            free.steps()
                .iter()
                .zip(capped.steps())
                .any(|(a, b)| a.cfg.conv_algo != b.cfg.conv_algo
                    || a.cfg.gemm_algo != b.cfg.gemm_algo),
            "a demotion must have happened"
        );
        // The demoted plan still computes the right function.
        let x = random(shape, 77);
        let mut free_sess = InferenceSession::new(&mut free_net, free).unwrap();
        let mut capped_sess = InferenceSession::new(&mut capped_net, capped).unwrap();
        let ya = free_sess.run(&x).unwrap();
        let yb = capped_sess.run(&x).unwrap();
        for (a, b) in ya.data().iter().zip(yb.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn infeasible_budget_reports_achievable_floor() {
        let shape = [2usize, 3, 12, 12];
        let mut net = budget_net(33);
        let cfg = ExecConfig::builder().plan_budget(64).build().unwrap();
        let err = PlanCompiler::standard()
            .run(&mut net, &shape, &cfg)
            .unwrap_err();
        let Error::Plan(PlanError::BudgetInfeasible {
            budget_bytes,
            min_feasible_bytes,
        }) = err
        else {
            panic!("expected BudgetInfeasible, got {err:?}");
        };
        assert_eq!(budget_bytes, 64);
        assert!(min_feasible_bytes > 64);
        // The reported floor is itself achievable.
        let mut net2 = budget_net(33);
        let cfg2 = ExecConfig::builder()
            .plan_budget(min_feasible_bytes)
            .build()
            .unwrap();
        let plan = PlanCompiler::standard()
            .run(&mut net2, &shape, &cfg2)
            .unwrap();
        assert!(plan.footprint().peak_bytes <= min_feasible_bytes);
    }

    #[test]
    fn user_override_stands_down_solver() {
        // An explicit conv_algo override must not be rewritten to fit;
        // the compiler reports infeasibility instead.
        let shape = [2usize, 3, 12, 12];
        let mut net = budget_net(34);
        let cfg = ExecConfig::builder()
            .conv_algo(ConvAlgorithm::Im2col)
            .plan_budget(64)
            .build()
            .unwrap();
        let err = PlanCompiler::standard()
            .run(&mut net, &shape, &cfg)
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Plan(PlanError::BudgetInfeasible { .. })
        ));
    }
}
