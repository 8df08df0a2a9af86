//! The kernel registry: one row per kernel a [`Conv2d`] or [`Linear`]
//! can execute, and the one function that says which row a layer runs.
//!
//! The paper's result is that layer-3 choices (dense vs CSR, direct vs
//! im2col) and layer-4 choices (which GEMM) only mean something in
//! combination. The combination is stored as three independent values —
//! the layer's [`WeightFormat`] label, [`ExecConfig::conv_algo`] and
//! [`ExecConfig::gemm_algo`] — and [`resolve`] is the only place they
//! are read together. Everything else reads a row:
//!
//! * the layers dispatch, size their workspace, warm their weight form
//!   and report their GEMM plan by matching on the resolved row;
//! * the plan compiler proposes every row that [`applies`] to an op,
//!   prices them, puts the layer on the winner ([`select`] it in the
//!   op's config, relabel the weights) and names it by its [`tag`] in
//!   the step name;
//! * the guard ladder follows the [`demotes_to`] edge of the row that
//!   *ran*, and puts the step on the target the same way;
//! * the conformance suite runs every conv row in [`ALL`].
//!
//! [`applies`]: AlgoChoice::applies
//! [`select`]: AlgoChoice::select
//! [`tag`]: AlgoChoice::tag
//! [`demotes_to`]: AlgoChoice::demotes_to
//! [`ALL`]: AlgoChoice::ALL

use crate::layer::{ConvAlgorithm, ExecConfig, Layer, WeightFormat};
use crate::weights::{Form, Weights};
use crate::{Conv2d, Linear};
use cnn_stack_tensor::{GemmAlgorithm, WinogradTile};

/// A kernel: what one conv or linear step executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgoChoice {
    /// Direct 7-loop dense convolution. Zero workspace: the budget
    /// solver's refuge and the conv ladder's floor.
    DirectConv,
    /// im2col lowering into the packed GEMM engine.
    Im2colPacked,
    /// im2col lowering multiplied by the CSR weight rows: each stored
    /// weight scales one row of the per-image column matrix. What a
    /// CSR-labelled layer runs under every `conv_algo`.
    CsrConv,
    /// F(2×2, 3×3) Winograd (3×3 stride-1 convolutions only): its 16
    /// frequency products run on the packed engine against the layer's
    /// transformed filter bank. Wins where a small plane leaves F(4×4)
    /// mostly padding (VGG-16's 4×4 planes at batch 8).
    Winograd,
    /// F(4×4, 3×3) Winograd (3×3 stride-1 convolutions only): 36
    /// frequency products on the packed engine, 4× fewer multiplies than
    /// direct. Wins VGG-16's planes of 8×8 and up at batch 8 but only the
    /// 32×32 one at batch 1: its bank is 4× the weights it replaces, and
    /// with few tiles streaming it costs more than the multiplies save.
    WinogradF4,
    /// [`Im2colPacked`](Self::Im2colPacked) reading the layer's 2-bit
    /// weight codes: the packed engine decodes them block by block into
    /// the same f32 tile, so the output bits are `Im2colPacked`'s on the
    /// same values while the resident weights shrink 16×. What a
    /// `Ternary`-labelled layer with exactly-ternary weights runs under
    /// im2col and the packed engine.
    TernaryConv,
    /// Packed GEMM linear layer, lowered as `Outᵀ = W · Xᵀ` so its f32
    /// weight panels are the packed engine's A operand, as a
    /// convolution's are.
    PackedLinear,
    /// Scalar row-loop linear layer; the linear ladder's floor.
    ScalarLinear,
    /// CSR sparse linear layer.
    CsrLinear,
    /// [`PackedLinear`](Self::PackedLinear) reading the layer's 2-bit
    /// weight codes as its A operand: bit for bit `PackedLinear` on the
    /// same values. What a `Ternary`-labelled layer with exactly-ternary
    /// weights runs on the packed engine.
    TernaryLinear,
}

/// The linear rows as one pattern: the arm on which a convolution's
/// exhaustive `match` over its resolved row ends, so that a new conv row
/// is a compile error in `conv.rs` and nowhere in `linear.rs`.
macro_rules! linear_rows {
    () => {
        AlgoChoice::PackedLinear
            | AlgoChoice::ScalarLinear
            | AlgoChoice::CsrLinear
            | AlgoChoice::TernaryLinear
    };
}
/// The conv rows as one pattern; see [`linear_rows`].
macro_rules! conv_rows {
    () => {
        AlgoChoice::DirectConv
            | AlgoChoice::Im2colPacked
            | AlgoChoice::CsrConv
            | AlgoChoice::Winograd
            | AlgoChoice::WinogradF4
            | AlgoChoice::TernaryConv
    };
}
pub(crate) use {conv_rows, linear_rows};

/// What the registry needs to know about a layer's geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerShape {
    /// A standard convolution.
    Conv {
        /// Kernel height.
        k_h: usize,
        /// Kernel width.
        k_w: usize,
        /// Stride (both axes).
        stride: usize,
    },
    /// A fully connected layer.
    Linear,
}

/// Everything a row states about its kernel.
struct Row {
    /// Stable name: the `[tag]` on step names.
    tag: &'static str,
    /// The config fields that select the row (`None` = the row does not
    /// read the field) and the label it puts the layer in.
    conv_algo: Option<ConvAlgorithm>,
    gemm_algo: Option<GemmAlgorithm>,
    format: WeightFormat,
    /// The derived weight form the kernel reads; `None` = the master.
    form: Option<Form>,
    /// The next-safer row, `None` on a floor.
    demotes_to: Option<AlgoChoice>,
}

impl AlgoChoice {
    /// Every row. Conv rows first, in the order the planner breaks
    /// cost ties.
    pub const ALL: [AlgoChoice; 10] = [
        AlgoChoice::DirectConv,
        AlgoChoice::Im2colPacked,
        AlgoChoice::CsrConv,
        AlgoChoice::Winograd,
        AlgoChoice::WinogradF4,
        AlgoChoice::TernaryConv,
        AlgoChoice::PackedLinear,
        AlgoChoice::ScalarLinear,
        AlgoChoice::CsrLinear,
        AlgoChoice::TernaryLinear,
    ];

    #[rustfmt::skip]
    const fn row(self) -> Row {
        use {AlgoChoice as K, ConvAlgorithm as C, GemmAlgorithm as G, WeightFormat as F};
        use {Form::*, WinogradTile::*};
        let (tag, conv_algo, gemm_algo, format, form, demotes_to) = match self {
            //                  tag               conv_algo            gemm_algo               label       form read             demotes to
            K::DirectConv    => ("direct",         Some(C::Direct),     None,                   F::Dense,   None,                 None),
            K::Im2colPacked  => ("im2col-packed",  Some(C::Im2col),     Some(G::Packed),        F::Dense,   Some(Panels),         Some(K::DirectConv)),
            K::CsrConv       => ("csr",            Some(C::Im2col),     None,                   F::Csr,     Some(Csr),            Some(K::Im2colPacked)),
            K::Winograd      => ("winograd",       Some(C::Winograd),   None,                   F::Dense,   Some(Winograd(F2)),   Some(K::Im2colPacked)),
            K::WinogradF4    => ("winograd-f4",    Some(C::WinogradF4), None,                   F::Dense,   Some(Winograd(F4)),   Some(K::Winograd)),
            K::TernaryConv   => ("im2col-ternary", Some(C::Im2col),     Some(G::TernaryPacked), F::Ternary, Some(Codes),          Some(K::Im2colPacked)),
            K::PackedLinear  => ("gemm-packed",    None,                Some(G::Packed),        F::Dense,   Some(Panels),         Some(K::ScalarLinear)),
            K::ScalarLinear  => ("gemm-scalar",    None,                Some(G::Blocked),       F::Dense,   None,                 None),
            K::CsrLinear     => ("gemm-csr",       None,                None,                   F::Csr,     Some(Csr),            Some(K::PackedLinear)),
            K::TernaryLinear => ("gemm-ternary",   None,                Some(G::TernaryPacked), F::Ternary, Some(Codes),          Some(K::PackedLinear)),
        };
        Row { tag, conv_algo, gemm_algo, format, form, demotes_to }
    }

    /// Stable name: the `[tag]` the plan compiler appends to step names
    /// (the conformance suite names its rows by it too).
    pub fn tag(self) -> &'static str {
        self.row().tag
    }

    /// Whether this is a convolution kernel (else a linear one).
    pub fn is_conv(self) -> bool {
        match self {
            conv_rows!() => true,
            linear_rows!() => false,
        }
    }

    /// The derived weight form the kernel reads (`None` = the master).
    pub(crate) fn form(self) -> Option<Form> {
        self.row().form
    }

    /// The next-safer kernel the guard ladder moves a failing step to;
    /// `None` on a floor row, whose failures surface typed.
    pub fn demotes_to(self) -> Option<AlgoChoice> {
        self.row().demotes_to
    }

    /// The kernel's precondition on the layer's geometry and weight
    /// values: where it holds, [`select`](Self::select)ing the row makes
    /// the layer run it; where it does not, [`resolve`] routes the same
    /// selection to a row that does apply.
    pub fn applies(self, shape: LayerShape, exactly_ternary: bool) -> bool {
        if self.is_conv() != matches!(shape, LayerShape::Conv { .. }) {
            return false;
        }
        match self {
            AlgoChoice::Winograd | AlgoChoice::WinogradF4 => matches!(
                shape,
                LayerShape::Conv {
                    k_h: 3,
                    k_w: 3,
                    stride: 1
                }
            ),
            AlgoChoice::TernaryConv | AlgoChoice::TernaryLinear => exactly_ternary,
            _ => true,
        }
    }

    /// Writes the `conv_algo`/`gemm_algo` values that select this row
    /// into `cfg` (a field the row does not read is left alone) and
    /// returns the label the layer must carry.
    pub fn select(self, cfg: &mut ExecConfig) -> WeightFormat {
        let row = self.row();
        if let Some(conv_algo) = row.conv_algo {
            cfg.conv_algo = conv_algo;
        }
        if let Some(gemm_algo) = row.gemm_algo {
            cfg.gemm_algo = gemm_algo;
        }
        row.format
    }

    /// Puts a layer on this row: [`select`](Self::select)s it in `cfg`
    /// and relabels the weights. The one way a choice is applied — by
    /// the plan compiler and by the guard ladder alike.
    pub(crate) fn apply(self, cfg: &mut ExecConfig, weights: &mut Weights) {
        let format = self.select(cfg);
        if weights.format() != format {
            weights.set_format(format);
        }
    }

    /// The row `layer` runs under `cfg`; `None` for layers that are
    /// neither a convolution nor linear (composites included).
    pub(crate) fn of(layer: &dyn Layer, cfg: &ExecConfig) -> Option<AlgoChoice> {
        let any = layer.as_any();
        let conv = any.downcast_ref::<Conv2d>().map(|c| c.runs(cfg));
        conv.or_else(|| any.downcast_ref::<Linear>().map(|fc| fc.runs(cfg)))
    }
}

/// The kernel a layer of `shape`, labelled `label`, runs under `cfg` —
/// the routing, including every fall-back:
///
/// * CSR storage has one conv kernel, whatever `conv_algo` says;
/// * a Winograd `conv_algo` on a layer it does not apply to runs the
///   direct kernel, and so does im2col under the scalar `gemm_algo`:
///   `Blocked` is the scalar floor on both layer kinds;
/// * the packed engine reads a layer's 2-bit codes exactly when its
///   label is `Ternary` and its weights are exactly ternary, whichever
///   packed `gemm_algo` asked (`TernaryPacked` is how a code row records
///   itself in a step's config); any other label or weights run f32
///   panels.
///
/// `exactly_ternary` is asked only when the answer decides the row.
pub fn resolve(
    shape: LayerShape,
    label: WeightFormat,
    cfg: &ExecConfig,
    exactly_ternary: impl FnOnce() -> bool,
) -> AlgoChoice {
    use AlgoChoice as K;
    use ConvAlgorithm as C;
    use GemmAlgorithm as G;
    use WeightFormat as F;
    match shape {
        LayerShape::Conv { .. } if label == F::Csr => K::CsrConv,
        LayerShape::Conv { .. } => match cfg.conv_algo {
            C::Winograd if K::Winograd.applies(shape, false) => K::Winograd,
            C::WinogradF4 if K::WinogradF4.applies(shape, false) => K::WinogradF4,
            C::Direct | C::Winograd | C::WinogradF4 => K::DirectConv,
            C::Im2col => match cfg.gemm_algo {
                G::Blocked => K::DirectConv,
                G::Packed | G::TernaryPacked => {
                    if label == F::Ternary && K::TernaryConv.applies(shape, exactly_ternary()) {
                        K::TernaryConv
                    } else {
                        K::Im2colPacked
                    }
                }
            },
        },
        LayerShape::Linear if label == F::Csr => K::CsrLinear,
        LayerShape::Linear => match cfg.gemm_algo {
            G::Blocked => K::ScalarLinear,
            G::Packed | G::TernaryPacked => {
                if label == F::Ternary && K::TernaryLinear.applies(shape, exactly_ternary()) {
                    K::TernaryLinear
                } else {
                    K::PackedLinear
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Phase;
    use cnn_stack_tensor::Tensor;
    use std::cell::Cell;

    const LABELS: [WeightFormat; 3] = [
        WeightFormat::Dense,
        WeightFormat::Csr,
        WeightFormat::Ternary,
    ];
    const CONV_ALGOS: [ConvAlgorithm; 4] = [
        ConvAlgorithm::Direct,
        ConvAlgorithm::Im2col,
        ConvAlgorithm::Winograd,
        ConvAlgorithm::WinogradF4,
    ];
    const GEMM_ALGOS: [GemmAlgorithm; 3] = [
        GemmAlgorithm::Blocked,
        GemmAlgorithm::Packed,
        GemmAlgorithm::TernaryPacked,
    ];

    /// Conv 1×1/3×3/5×5 at stride 1/2, and linear.
    fn shapes() -> Vec<LayerShape> {
        let mut shapes = vec![LayerShape::Linear];
        for k in [1, 3, 5] {
            for stride in [1, 2] {
                shapes.push(LayerShape::Conv {
                    k_h: k,
                    k_w: k,
                    stride,
                });
            }
        }
        shapes
    }

    /// Snaps every value to `{-0.25, 0, +0.5}`.
    fn ternarise(data: &mut [f32]) {
        for v in data {
            *v = match *v {
                x if x > 0.2 => 0.5,
                x if x < -0.2 => -0.25,
                _ => 0.0,
            };
        }
    }

    /// A small layer of `shape`, labelled `label`, with exactly ternary
    /// weights on request, and an input for it.
    fn build(shape: LayerShape, label: WeightFormat, ternary: bool) -> (Box<dyn Layer>, Tensor) {
        let ramp = |i: usize| ((i * 37 % 23) as f32 - 11.0) * 0.07;
        let (mut layer, x): (Box<dyn Layer>, Tensor) = match shape {
            LayerShape::Conv { k_h, stride, .. } => (
                Box::new(Conv2d::new(2, 3, k_h, stride, k_h / 2, 7)),
                Tensor::from_fn([2, 2, 6, 5], ramp),
            ),
            LayerShape::Linear => (
                Box::new(Linear::new(11, 4, 7)),
                Tensor::from_fn([3, 11], ramp),
            ),
        };
        let mut params = layer.params_mut();
        if ternary {
            ternarise(params[0].value.data_mut());
        }
        // A non-zero bias, so a missed prefill shows.
        params[1].value.data_mut()[0] = 0.3;
        Weights::of_mut(layer.as_mut()).unwrap().set_format(label);
        (layer, x)
    }

    #[test]
    fn tags_are_unique_and_rows_are_grouped_by_kind() {
        for (i, a) in AlgoChoice::ALL.into_iter().enumerate() {
            for b in &AlgoChoice::ALL[i + 1..] {
                assert_ne!(a.tag(), b.tag());
                assert!(a.is_conv() || !b.is_conv(), "conv rows come first in ALL");
            }
            // A row selects itself through the fields of its own kind.
            assert_eq!(a.row().conv_algo.is_some(), a.is_conv(), "{a:?}");
        }
    }

    #[test]
    fn resolve_returns_only_rows_that_apply_and_asks_for_ternarity_lazily() {
        for shape in shapes() {
            for label in LABELS {
                for conv_algo in CONV_ALGOS {
                    for gemm_algo in GEMM_ALGOS {
                        for ternary in [false, true] {
                            let cfg = ExecConfig {
                                conv_algo,
                                gemm_algo,
                                ..ExecConfig::serial()
                            };
                            let asked = Cell::new(false);
                            let row = resolve(shape, label, &cfg, || {
                                asked.set(true);
                                ternary
                            });
                            let at = format!("{shape:?} {label:?} {conv_algo:?} {gemm_algo:?}");
                            assert!(row.applies(shape, ternary), "{row:?} at {at}");
                            // A reachable kernel missing from `ALL` would
                            // be invisible to every consumer of the table.
                            assert!(AlgoChoice::ALL.contains(&row), "{row:?}");
                            // Weights are scanned for ternarity only when
                            // the label and a packed cfg leave the codes
                            // one fact away.
                            let decides = label == WeightFormat::Ternary
                                && gemm_algo != GemmAlgorithm::Blocked
                                && (shape == LayerShape::Linear
                                    || conv_algo == ConvAlgorithm::Im2col);
                            assert_eq!(asked.get(), decides, "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn applying_a_row_selects_it_or_its_documented_fall_back() {
        for shape in shapes() {
            for label in LABELS {
                for ternary in [false, true] {
                    for row in AlgoChoice::ALL {
                        if row.is_conv() != matches!(shape, LayerShape::Conv { .. }) {
                            assert!(!row.applies(shape, ternary));
                            continue;
                        }
                        let (mut layer, _) = build(shape, label, ternary);
                        let mut cfg = ExecConfig::serial();
                        row.apply(&mut cfg, Weights::of_mut(layer.as_mut()).unwrap());
                        let runs = AlgoChoice::of(layer.as_ref(), &cfg).unwrap();
                        let want = if row.applies(shape, ternary) {
                            row
                        } else {
                            match row {
                                AlgoChoice::Winograd | AlgoChoice::WinogradF4 => {
                                    AlgoChoice::DirectConv
                                }
                                AlgoChoice::TernaryConv => AlgoChoice::Im2colPacked,
                                AlgoChoice::TernaryLinear => AlgoChoice::PackedLinear,
                                other => panic!("{other:?} has no precondition"),
                            }
                        };
                        assert_eq!(runs, want, "{row:?} on {shape:?}, ternary {ternary}");
                        assert!(runs.applies(shape, ternary));
                    }
                }
            }
        }
    }

    #[test]
    fn demotion_graph_is_acyclic_and_every_edge_stays_applicable() {
        for row in AlgoChoice::ALL {
            // Every chain ends on a floor within |ALL| steps.
            let mut at = row;
            let mut steps = 0;
            while let Some(next) = at.demotes_to() {
                assert_eq!(next.is_conv(), row.is_conv(), "{at:?} -> {next:?}");
                at = next;
                steps += 1;
                assert!(steps < AlgoChoice::ALL.len(), "cycle through {row:?}");
            }
            let Some(to) = row.demotes_to() else { continue };
            for shape in shapes() {
                for ternary in [false, true] {
                    if row.applies(shape, ternary) {
                        assert!(to.applies(shape, ternary), "{row:?} -> {to:?} on {shape:?}");
                    }
                }
            }
        }
        let floors: Vec<_> = AlgoChoice::ALL
            .into_iter()
            .filter(|r| r.demotes_to().is_none())
            .collect();
        assert_eq!(floors, [AlgoChoice::DirectConv, AlgoChoice::ScalarLinear]);
    }

    #[test]
    fn every_row_runs_in_exactly_its_advertised_workspace() {
        for shape in shapes() {
            for row in AlgoChoice::ALL {
                if !row.applies(shape, true) {
                    continue;
                }
                let mut cfg = ExecConfig::serial();
                let label = row.select(&mut cfg);
                let (mut layer, x) = build(shape, label, true);
                assert_eq!(AlgoChoice::of(layer.as_ref(), &cfg), Some(row));
                let want = layer.forward(&x, Phase::Eval, &cfg);
                layer.prepare(&cfg);
                let dims = x.shape().dims();
                let mut scratch = vec![f32::NAN; layer.forward_scratch_elems(dims, &cfg)];
                let mut out = vec![f32::NAN; want.len()];
                layer.forward_into(x.data(), dims, &mut out, &mut scratch, &cfg);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(want.data()), "{row:?} on {shape:?}");
                // The bound does not move with the weight values: the
                // same label and cfg over non-ternary weights (running
                // the row's fall-back) is sized identically.
                let (other, _) = build(shape, label, false);
                assert_eq!(
                    other.forward_scratch_elems(dims, &cfg),
                    scratch.len(),
                    "{row:?} on {shape:?}"
                );
            }
        }
    }
}
