//! The plan compiler: one fixed pipeline from a network to an
//! [`InferencePlan`].
//!
//! [`PlanCompiler::run`] compiles in one fixed sequence:
//!
//! 1. **validate** — a non-zero thread count, a non-empty input shape
//!    with non-zero extents, and every layer's [`Layer::check_input`] on
//!    the shape that reaches it;
//! 2. **fold** — batch norms into their producing convolutions
//!    ([`crate::fold_batchnorm`]);
//! 3. **lower** — one typed op per layer, carrying the shape-resolved
//!    facts selection prices: geometry, *measured* weight sparsity,
//!    exact ternarity;
//! 4. **fuse** — exact-identity batch norms and trailing ReLUs are
//!    absorbed into the producing conv/depthwise/linear step, so
//!    `conv → BN → ReLU` executes as **one kernel** (the ReLU runs in the
//!    packed GEMM write-back epilogue — no extra sweep over the output);
//! 5. **select** — a per-layer cost model (FLOPs, im2col footprint,
//!    measured weight sparsity) puts each conv/linear op on the cheapest
//!    of the kernel registry's rows ([`crate::algo`]) that apply to it,
//!    and each residual block on the cheapest row all its convolutions
//!    run under their own labels (priced as the sum of theirs; a
//!    composite is never relabelled). A non-default
//!    `conv_algo`/`gemm_algo` in the config is a user override: the
//!    model chooses nothing and each conv/linear op goes on the row the
//!    override resolves to. Either way the step name is tagged with the
//!    row it runs;
//! 6. **fit** — with [`ExecConfig::plan_budget`] set, the fastest
//!    selection whose liveness-coloured arena fits the budget;
//! 7. **emit** — one [`PlanStep`] per op, with its span and its own
//!    configuration;
//! 8. **admit** — with a budget set, a plan whose peak still exceeds it
//!    is [`PlanError::BudgetInfeasible`].
//!
//! [`InferencePlan::compile`] is the same function without steps 2, 4, 5
//! and 6: one step per layer under the one global configuration — the
//! paper's "pick a configuration for the whole network" baseline. Both
//! share the validation, the lowering, the step emission and the
//! admission check.
//!
//! Compilation mutates the network (folding rewrites weights, selection
//! may switch weight formats) — it is a deployment-time transformation,
//! like calling [`crate::fold_batchnorm`] by hand. A rejected input
//! leaves it untouched: validation runs before anything folds. It reads
//! no environment variable and touches no file.
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
//!
//! [`Layer::check_input`]: crate::Layer::check_input

pub use crate::algo::AlgoChoice;
use crate::algo::{self, LayerShape};
use crate::engine::{InferencePlan, PlanStep};
use crate::error::{Error, PlanError};
use crate::fold;
use crate::ir::{self, IrOp, OpKind};
use crate::layer::{ExecConfig, WeightFormat};
use crate::liveness::{MemoryFootprint, StepExtent};
use crate::network::Network;
use crate::weights::Weights;
use cnn_stack_tensor::{winograd_bank_elems, WinogradGeometry, WinogradTile};
use std::fmt::Write as _;

/// The plan compiler; see the [module docs](self) for its one pipeline.
#[derive(Clone, Copy, Debug)]
pub struct PlanCompiler;

impl PlanCompiler {
    /// The deployment pipeline — the only one there is.
    pub fn standard() -> Self {
        PlanCompiler
    }

    /// Compiles `net` for `input_shape` under `cfg`: validate, fold,
    /// lower, fuse, select, fit the budget if one is set, emit the
    /// steps, admit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on a zero thread count, an
    /// empty/zero-extent input shape, or a shape some layer's
    /// [`Layer::check_input`] refuses (a rank, channel or feature
    /// mismatch) — the same contract as [`InferencePlan::compile`], and
    /// the network is left untouched. With `cfg.plan_budget` set,
    /// returns [`PlanError::BudgetInfeasible`] (as [`Error::Plan`]) when
    /// even the smallest-workspace algorithm selection cannot fit the
    /// budget; the error carries the smallest feasible budget.
    ///
    /// [`Layer::check_input`]: crate::Layer::check_input
    pub fn run(
        &self,
        net: &mut Network,
        input_shape: &[usize],
        cfg: &ExecConfig,
    ) -> Result<InferencePlan, Error> {
        validate(net, input_shape, cfg)?;
        // Folding also takes near-identity batch norms (`scale =
        // 1/sqrt(1 + eps)`), which must execute if kept but become
        // absorbable exact identities once folded.
        fold::fold_batchnorm(net);
        let mut ops = fuse(ir::lower(net, input_shape, cfg));
        select(net, &mut ops, cfg);
        if let Some(budget) = cfg.plan_budget {
            fit_budget(net, &mut ops, cfg, budget);
        }
        emit(net, input_shape, cfg, &ops)
    }
}

/// [`InferencePlan::compile`]: the pipeline without fold, fuse, select
/// and fit — one unfused step per layer under `cfg`.
pub(crate) fn compile_global(
    net: &Network,
    input_shape: &[usize],
    cfg: &ExecConfig,
) -> Result<InferencePlan, Error> {
    validate(net, input_shape, cfg)?;
    emit(net, input_shape, cfg, &ir::lower(net, input_shape, cfg))
}

/// Step 1: rejects a zero thread count, an empty or zero-extent input
/// shape, and the first layer whose [`Layer::check_input`] refuses the
/// shape reaching it. Reads the network only, so a rejected input
/// leaves it untouched, and everything after may index shapes freely.
///
/// [`Layer::check_input`]: crate::Layer::check_input
fn validate(net: &Network, input_shape: &[usize], cfg: &ExecConfig) -> Result<(), Error> {
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
    let mut shape = input_shape.to_vec();
    for layer in net.layers() {
        layer.check_input(&shape)?;
        shape = layer.descriptor(&shape).output_shape;
    }
    Ok(())
}

/// Steps 7 and 8: one [`PlanStep`] per op, then the budget's admission
/// check. After best-effort solving — or a standdown on a user override,
/// or a global compile, which has no per-layer freedom — the plan either
/// fits or nothing reachable does: its peak *is* the smallest feasible
/// budget.
fn emit(
    net: &Network,
    input_shape: &[usize],
    cfg: &ExecConfig,
    ops: &[IrOp],
) -> Result<InferencePlan, Error> {
    let steps = ops.iter().map(|op| step(net, op)).collect();
    let plan = InferencePlan::from_parts(input_shape.to_vec(), *cfg, steps);
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

/// The plan step for `op` under its current configuration: the primary
/// layer's shapes and traffic, the kernel's own workspace, and the op's
/// name, span and fused MACs.
fn step(net: &Network, op: &IrOp) -> PlanStep {
    let layer = net.layers()[op.layer].as_ref();
    let shape = &op.input_shape;
    let d = layer.descriptor(shape);
    PlanStep {
        name: op.name.clone(),
        layer: op.layer,
        span: op.span,
        cfg: op.cfg,
        input_shape: shape.clone(),
        output_shape: d.output_shape,
        input_elems: d.input_elems,
        output_elems: d.output_elems,
        workspace_elems: layer.forward_scratch_elems(shape, &op.cfg),
        macs: op.macs,
        bytes: 4 * (d.input_elems + d.output_elems + d.weight_nnz) as u64,
    }
}

/// Step 4: absorbs each exact-identity batch norm and each trailing
/// ReLU into the conv/depthwise/linear op that produces its input.
fn fuse(ops: Vec<IrOp>) -> Vec<IrOp> {
    let mut fused: Vec<IrOp> = Vec::with_capacity(ops.len());
    let mut iter = ops.into_iter().peekable();
    while let Some(mut op) = iter.next() {
        // conv/dw/linear + exact-identity BN → skip the BN.
        if op.kind.absorbs_identity_bn()
            && matches!(
                iter.peek().map(|n| &n.kind),
                Some(OpKind::BatchNorm { identity: true })
            )
        {
            let bn = iter.next().expect("peeked");
            op.span += bn.span;
            op.macs += bn.macs;
            op.name.push_str(" + bn");
        }
        // conv/dw/linear + ReLU → one kernel (GEMM write-back epilogue,
        // or the depthwise kernel's final write).
        if op.kind.fuses_relu() && matches!(iter.peek().map(|n| &n.kind), Some(OpKind::Relu)) {
            let relu = iter.next().expect("peeked");
            op.span += relu.span;
            op.macs += relu.macs;
            op.cfg.fused_relu = true;
            op.name.push_str(" + relu");
        }
        fused.push(op);
    }
    fused
}

// ---------------------------------------------------------------------
// Step 5: algorithm selection
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
/// skinny tile, priced as half a panel.
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
    if let OpKind::Composite { children } = &op.kind {
        return children.iter().map(|c| predicted_seconds(c, choice)).sum();
    }
    let flops = 2.0 * op.macs as f64;
    let batch = op.input_shape.first().copied().unwrap_or(1).max(1);
    match choice {
        AlgoChoice::DirectConv | AlgoChoice::ScalarLinear => flops / (SCALAR_GFLOPS * 1e9),
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
            // Both rows run `Outᵀ = W · Xᵀ`: the batch is the column
            // dimension.
            let eff = tile_padded_flops(*out_features, *in_features, batch);
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
        AlgoChoice::CsrConv | AlgoChoice::CsrLinear => {
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

/// The kernel `op` runs under its current label and `cfg`.
fn resolved(op: &IrOp, cfg: &ExecConfig) -> Option<AlgoChoice> {
    let (shape, label, ternary) = facts(op)?;
    Some(algo::resolve(shape, label, cfg, || ternary))
}

/// Whether `row` is a candidate for `op`: it applies to a conv/linear
/// op; every child conv of a composite runs it, under its own label.
fn proposable(op: &IrOp, row: AlgoChoice) -> bool {
    if let OpKind::Composite { children } = &op.kind {
        let mut cfg = op.cfg;
        row.select(&mut cfg);
        return children
            .iter()
            .all(|child| resolved(child, &cfg) == Some(row));
    }
    facts(op).is_some_and(|(shape, _, ternary)| row.applies(shape, ternary))
}

/// Valid candidates for `op` — the registry rows [`proposable`] for
/// it — cheapest predicted first; empty for ops the selector does not
/// touch.
fn candidates(op: &IrOp) -> Vec<(AlgoChoice, f64)> {
    let mut c: Vec<(AlgoChoice, f64)> = AlgoChoice::ALL
        .into_iter()
        .filter(|&row| proposable(op, row))
        .map(|row| (row, predicted_seconds(op, row)))
        .collect();
    c.sort_by(|a, b| a.1.total_cmp(&b.1));
    c
}

/// Applies `choice` to the op's config and, for a conv/linear op, to
/// the layer's label, and tags the step name with it.
fn apply_choice(net: &mut Network, op: &mut IrOp, choice: AlgoChoice) {
    match Weights::of_mut(net.layers_mut()[op.layer].as_mut()) {
        Some(weights) => {
            choice.apply(&mut op.cfg, weights);
            // Keep the IR's format fact in sync with the label.
            if let OpKind::Conv { format, .. } | OpKind::Linear { format, .. } = &mut op.kind {
                *format = weights.format();
            }
        }
        // A composite: its candidates run under the children's labels.
        None => _ = choice.select(&mut op.cfg),
    }
    // Tag the step name with the algorithm so plan reports show
    // per-layer choices, replacing the tag of an earlier application
    // (the budget solver re-applies on top of selection).
    if op.name.ends_with(']') {
        if let Some(pos) = op.name.rfind(" [") {
            op.name.truncate(pos);
        }
    }
    let _ = write!(op.name, " [{}]", choice.tag());
}

/// Whether the config carries a user override: a non-default
/// `conv_algo` or `gemm_algo` is the caller's choice, and neither
/// [`select`] nor the budget solver rewrites it.
fn user_override(cfg: &ExecConfig) -> bool {
    let defaults = ExecConfig::serial();
    cfg.conv_algo != defaults.conv_algo || cfg.gemm_algo != defaults.gemm_algo
}

/// Step 5: puts each conv/linear op on its cheapest candidate — or,
/// under a user override, on the row the override resolves to, so its
/// step names and records the kernel it runs.
fn select(net: &mut Network, ops: &mut [IrOp], cfg: &ExecConfig) {
    let overridden = user_override(cfg);
    for op in ops {
        let choice = if overridden {
            resolved(op, &op.cfg)
        } else {
            candidates(op).first().map(|&(best, _)| best)
        };
        if let Some(choice) = choice {
            apply_choice(net, op, choice);
        }
    }
}

// ---------------------------------------------------------------------
// Step 6: budget solver — fastest plan under N bytes
// ---------------------------------------------------------------------

/// One algorithm option for one op during budget solving. `choice` is
/// `None` for ops the selector does not touch (their extent is fixed);
/// `Some` entries can be (re-)applied via [`apply_choice`].
struct BudgetCand {
    choice: Option<AlgoChoice>,
    secs: f64,
    extent: StepExtent,
}

/// Memory extent of one op under its current per-op config — the
/// emitted step's own, so the workspace numbers are the kernels', not a
/// cost-model estimate.
fn op_extent(net: &Network, op: &IrOp) -> StepExtent {
    let step = step(net, op);
    StepExtent {
        output_elems: step.output_elems,
        workspace_elems: step.workspace_elems,
    }
}

/// Step 6: solves "fastest plan under the budget" over the op list.
///
/// The solver first checks the liveness-derived peak of the selection;
/// when it already fits, nothing changes. When over budget, it probes
/// every conv/linear candidate's true workspace and then greedily
/// demotes, starting from each op's cheapest candidate (the one
/// [`select`] left): each round it evaluates, for every op, a move to
/// that op's fastest strictly-smaller-workspace algorithm (im2col +
/// packed falls back towards Winograd/direct, packed linear towards
/// blocked), recomputes the coloured peak each move would produce, and
/// applies the move with the lowest resulting peak, breaking ties
/// towards the smallest predicted slowdown. Once the plan fits,
/// demotions the budget turns out not to need are handed back, largest
/// predicted saving first. When every op sits at its smallest workspace
/// and the plan still exceeds the budget, the floor selection is left
/// applied and the admission check reports
/// [`PlanError::BudgetInfeasible`] with that floor as the smallest
/// feasible budget.
///
/// A non-default `conv_algo`/`gemm_algo` in the config is a user
/// override and the solver stands down, exactly like [`select`]: the
/// admission check then reports infeasibility rather than silently
/// rewriting the user's plan.
fn fit_budget(net: &mut Network, ops: &mut [IrOp], cfg: &ExecConfig, budget_bytes: usize) {
    if user_override(cfg) {
        return;
    }
    let peak_bytes = |extents: &[StepExtent]| MemoryFootprint::of(extents).peak_bytes;
    let current: Vec<StepExtent> = ops.iter().map(|op| op_extent(net, op)).collect();
    if peak_bytes(&current) <= budget_bytes {
        return;
    }

    let mut tables: Vec<Vec<BudgetCand>> = Vec::with_capacity(ops.len());
    for (op, cur) in ops.iter_mut().zip(&current) {
        let cands = candidates(op);
        if cands.is_empty() {
            tables.push(vec![BudgetCand {
                choice: None,
                secs: 0.0,
                extent: *cur,
            }]);
            continue;
        }
        let mut table = Vec::with_capacity(cands.len());
        for (choice, secs) in cands {
            apply_choice(net, op, choice);
            table.push(BudgetCand {
                choice: Some(choice),
                secs,
                extent: op_extent(net, op),
            });
        }
        tables.push(table);
    }
    // Every op starts on its cheapest candidate, where selection put it.
    let mut selected = vec![0usize; ops.len()];

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
            // admission check reports the floor.
            break;
        };
        selected[i] = j;
    }

    // Undo what the budget no longer needs. A round whose every move
    // leaves the peak where it was still takes one, so the loop can end
    // with demotions that saved nothing. While the plan fits, hand back
    // the largest predicted saving: a demoted op's fastest candidate
    // faster than its current one that still fits.
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
            let Some(j) = (0..selected[i]).find(|&j| {
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
            apply_choice(net, op, choice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvAlgorithm, Phase};
    use crate::{BatchNorm2d, Conv2d, Flatten, InferenceSession, Linear, MaxPool2d, Network, ReLU};
    use cnn_stack_tensor::{GemmAlgorithm, Tensor};
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

    /// A user override (`conv_algo: Im2col`): selection and the budget
    /// solver stand down, so what is left to observe is fold and fuse.
    fn fold_only() -> ExecConfig {
        ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            ..ExecConfig::serial()
        }
    }

    #[test]
    fn fold_and_fuse_collapses_conv_bn_relu() {
        let mut net = fusable_net(3);
        let plan = PlanCompiler::standard()
            .run(&mut net, &[2, 3, 8, 8], &fold_only())
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
        let cfg = fold_only();
        // Reference: unfused network, uniform plan (folding is applied
        // to both networks first so the weights are identical).
        let mut reference = fusable_net(3);
        crate::fold_batchnorm(&mut reference);
        let ref_plan = InferencePlan::compile(&reference, &[2, 3, 8, 8], &cfg).unwrap();
        let mut ref_session = InferenceSession::new(&mut reference, ref_plan).unwrap();
        let want = ref_session.run(&x).unwrap();

        let mut net = fusable_net(3);
        let plan = PlanCompiler::standard()
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
        let plan = PlanCompiler::standard()
            .run(&mut net, &[1, 3, 8, 8], &fold_only())
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
        // The sparse layer went CSR, which selects itself with its
        // im2col lowering.
        assert_eq!(plan.steps()[1].cfg.conv_algo, ConvAlgorithm::Im2col);
        assert!(plan.steps()[1].name.ends_with(" [csr]"));
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
        // Non-default base knobs are a user override: the step goes on
        // the row they resolve to, which on a conv under the scalar GEMM
        // is the direct floor.
        assert!(plan.steps()[0].name.ends_with(" [direct]"));
        assert_eq!(plan.steps()[0].cfg.conv_algo, ConvAlgorithm::Direct);
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
