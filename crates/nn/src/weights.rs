//! The one owner of a layer's weights and everything derived from them.
//!
//! [`Conv2d`](crate::Conv2d) and [`Linear`](crate::Linear) keep a dense
//! master [`Param`], a [`WeightFormat`] label, and up to three storage
//! forms *derived* from that pair: a CSR matrix, packed f32 GEMM panels,
//! and quantised code panels. A derived form is a function of
//! `(master, format)`, never state kept beside them:
//!
//! * the only `&mut` routes to the master or the label —
//!   [`master_mut`](Weights::master_mut), [`replace`](Weights::replace),
//!   [`set_format`](Weights::set_format) — drop every derived form;
//! * each form is built on first read and kept until the next reset,
//!   so a kernel can observe neither an absent nor a stale form.
//!
//! Built forms sit behind `Arc`s that are never written through: a form
//! is a fresh `Vec` wrapped once, and a reset drops the handle. A
//! [`WeightPanels`] clone held by another replica therefore stays a
//! complete, consistent prepack whatever happens to the donor.

use crate::layer::{Param, WeightFormat};
use cnn_stack_sparse::CsrMatrix;
use cnn_stack_tensor::{gemm, GemmPlan, Tensor};
use std::sync::{Arc, OnceLock};

/// Which GEMM operand a layer's f32 panels are: convolution multiplies
/// `W · cols` (weights are the MR-row A operand), linear multiplies
/// `X · Wᵀ` (weights are the NR-column B operand, packed transposed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PanelOperand {
    A,
    BTransposed,
}

/// One of the three derived storage forms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Form {
    Csr,
    Panels,
    Quant,
}

/// Quantised code panels of the `Wᵀ` B operand; the layout depends only
/// on the weight matrix extents, so one build serves every input shape.
#[derive(Clone, Debug)]
enum QuantPanels {
    /// 2-bit sign codes (see `pack_b_ternary_transposed_into`) plus the
    /// two per-layer magnitudes (`negative` stored positive).
    Ternary {
        codes: Arc<Vec<u32>>,
        positive: f32,
        negative: f32,
    },
    /// Int8 panels plus the weight scale `qw = 127 / max|W|`.
    Int8 { codes: Arc<Vec<i8>>, scale: f32 },
}

/// Borrowed view of built ternary codes.
#[derive(Clone, Copy)]
pub(crate) struct TernaryCodes<'a> {
    pub codes: &'a [u32],
    pub positive: f32,
    pub negative: f32,
}

/// Borrowed view of built int8 codes.
#[derive(Clone, Copy)]
pub(crate) struct Int8Codes<'a> {
    pub codes: &'a [i8],
    pub scale: f32,
}

/// The derived forms, each built at most once per reset. `quant` holds
/// `None` when the label is `Ternary` but the master is not exactly
/// ternary: such weights have no code form and run the f32 kernels.
#[derive(Clone, Debug, Default)]
struct Derived {
    csr: OnceLock<Arc<CsrMatrix>>,
    panels: OnceLock<Arc<Vec<f32>>>,
    quant: OnceLock<Option<QuantPanels>>,
}

impl Derived {
    /// Buffer address of each built form: identity, not content.
    fn addresses(&self) -> [Option<*const ()>; 3] {
        [
            self.csr.get().map(|a| Arc::as_ptr(a).cast()),
            self.panels.get().map(|a| Arc::as_ptr(a).cast()),
            self.quant.get().and_then(Option::as_ref).map(|q| match q {
                QuantPanels::Ternary { codes, .. } => Arc::as_ptr(codes).cast(),
                QuantPanels::Int8 { codes, .. } => Arc::as_ptr(codes).cast(),
            }),
        ]
    }
}

/// Shared handle to the derived forms a layer had built when it was
/// exported, for adoption by replicas of the same model (compile once,
/// serve many). It records the format label and a 64-bit fingerprint of
/// the master it was derived from; [`Layer::adopt_panels`] refuses a
/// handle whose source differs from the adopting layer's own weights.
/// The fingerprint guards against accidents (a replica built from
/// another seed or checkpoint), not adversaries.
///
/// [`Layer::adopt_panels`]: crate::Layer::adopt_panels
#[derive(Clone, Debug)]
pub struct WeightPanels {
    fingerprint: u64,
    format: WeightFormat,
    derived: Derived,
}

impl WeightPanels {
    /// Whether both handles point at the same physical buffers (and
    /// have the same forms built) — sharing, not equal copies.
    pub fn ptr_eq(&self, other: &WeightPanels) -> bool {
        self.derived.addresses() == other.derived.addresses()
    }
}

/// Scans a weight slice for exact ternary structure: at most one
/// distinct positive magnitude and one distinct negative magnitude, all
/// values finite. Returns `(positive, negative)` magnitudes (both
/// non-negative; zero when that sign is absent), or `None` when the
/// weights are not ternary.
pub(crate) fn scan_ternary(data: &[f32]) -> Option<(f32, f32)> {
    let mut positive = 0.0f32;
    let mut negative = 0.0f32;
    for &v in data {
        if !v.is_finite() {
            return None;
        }
        if v > 0.0 {
            if positive == 0.0 {
                positive = v;
            } else if positive != v {
                return None;
            }
        } else if v < 0.0 {
            if negative == 0.0 {
                negative = -v;
            } else if negative != -v {
                return None;
            }
        }
    }
    Some((positive, negative))
}

/// Master weights, format label and derived forms of one layer; see the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct Weights {
    master: Param,
    format: WeightFormat,
    operand: PanelOperand,
    derived: Derived,
}

impl Weights {
    /// Wraps `master` (leading extent = output rows) in `Dense` format.
    pub(crate) fn new(master: Param, operand: PanelOperand) -> Self {
        Weights {
            master,
            format: WeightFormat::Dense,
            operand,
            derived: Derived::default(),
        }
    }

    /// The dense master copy.
    pub(crate) fn master(&self) -> &Param {
        &self.master
    }

    /// Mutable master; the caller may rewrite it, so every derived form
    /// goes.
    pub(crate) fn master_mut(&mut self) -> &mut Param {
        self.drop_derived();
        &mut self.master
    }

    /// Replaces the master with a re-shaped value (channel surgery).
    pub(crate) fn replace(&mut self, value: Tensor) {
        self.drop_derived();
        self.master = Param::new(value);
    }

    /// The inference storage format label.
    pub(crate) fn format(&self) -> WeightFormat {
        self.format
    }

    /// Relabels the storage format; forms are rebuilt on next read.
    pub(crate) fn set_format(&mut self, format: WeightFormat) {
        self.drop_derived();
        self.format = format;
    }

    /// Drops every derived form. Always safe: the next read rebuilds.
    pub(crate) fn drop_derived(&mut self) {
        self.derived = Derived::default();
    }

    /// Whether no derived form is resident.
    pub(crate) fn is_cold(&self) -> bool {
        self.derived.addresses().iter().all(Option::is_none)
    }

    /// The master viewed as a `[rows × cols]` matrix (same memory).
    fn matrix_extents(&self) -> (usize, usize) {
        let rows = self.master.value.shape().dims()[0];
        (rows, self.master.value.len() / rows)
    }

    /// CSR form of the master (exact zeros dropped).
    pub(crate) fn csr(&self) -> &CsrMatrix {
        self.derived.csr.get_or_init(|| {
            let (rows, cols) = self.matrix_extents();
            let matrix = self.master.value.reshape([rows, cols]);
            Arc::new(CsrMatrix::from_dense(&matrix, 0.0))
        })
    }

    /// Packed f32 GEMM panels of the master. The layout depends only on
    /// the weight matrix extents, not on the other operand's, so one
    /// build serves every input shape.
    pub(crate) fn panels(&self) -> &[f32] {
        self.derived.panels.get_or_init(|| {
            let (rows, cols) = self.matrix_extents();
            let data = self.master.value.data();
            Arc::new(match self.operand {
                PanelOperand::A => {
                    let plan = GemmPlan::new(rows, cols, 1);
                    let mut panels = vec![0.0f32; plan.packed_a_elems()];
                    gemm::pack_a_into(&plan, data, &mut panels);
                    panels
                }
                PanelOperand::BTransposed => {
                    let plan = GemmPlan::new(1, cols, rows);
                    let mut panels = vec![0.0f32; plan.packed_b_elems()];
                    gemm::pack_b_transposed_into(&plan, data, &mut panels);
                    panels
                }
            })
        })
    }

    /// The code form the label asks for, if the master has one.
    fn quant(&self) -> Option<&QuantPanels> {
        self.derived
            .quant
            .get_or_init(|| {
                let (rows, cols) = self.matrix_extents();
                let data = self.master.value.data();
                // Both code forms are the B operand of `X · Wᵀ` (the
                // ternary convolution runs its product transposed).
                let plan = GemmPlan::new(1, cols, rows);
                match self.format {
                    WeightFormat::Ternary => {
                        let (positive, negative) = scan_ternary(data)?;
                        let mut codes = vec![0u32; plan.ternary_b_words()];
                        gemm::pack_b_ternary_transposed_into(&plan, data, &mut codes);
                        Some(QuantPanels::Ternary {
                            codes: Arc::new(codes),
                            positive,
                            negative,
                        })
                    }
                    WeightFormat::Int8 => {
                        let scale = gemm::quantise_scale_i8(data);
                        let mut codes = vec![0i8; plan.packed_b_elems()];
                        gemm::pack_b_transposed_i8_into(&plan, data, scale, &mut codes);
                        Some(QuantPanels::Int8 {
                            codes: Arc::new(codes),
                            scale,
                        })
                    }
                    WeightFormat::Dense | WeightFormat::Csr => None,
                }
            })
            .as_ref()
    }

    /// Ternary codes: `Some` iff the label is `Ternary` and the master
    /// is exactly ternary.
    pub(crate) fn ternary(&self) -> Option<TernaryCodes<'_>> {
        if self.format != WeightFormat::Ternary {
            return None;
        }
        match self.quant()? {
            QuantPanels::Ternary {
                codes,
                positive,
                negative,
            } => Some(TernaryCodes {
                codes,
                positive: *positive,
                negative: *negative,
            }),
            QuantPanels::Int8 { .. } => None,
        }
    }

    /// Int8 codes: `Some` iff the label is `Int8`.
    pub(crate) fn int8(&self) -> Option<Int8Codes<'_>> {
        if self.format != WeightFormat::Int8 {
            return None;
        }
        match self.quant()? {
            QuantPanels::Int8 { codes, scale } => Some(Int8Codes {
                codes,
                scale: *scale,
            }),
            QuantPanels::Ternary { .. } => None,
        }
    }

    /// Plan-time warm-up: drops the forms the coming runs will not read
    /// (resident set stays one form per layer) and builds the one they
    /// will (so steady-state runs allocate nothing).
    pub(crate) fn prepare(&mut self, keep: Option<Form>) {
        let built = std::mem::take(&mut self.derived);
        match keep {
            Some(Form::Csr) => {
                self.derived.csr = built.csr;
                self.csr();
            }
            Some(Form::Panels) => {
                self.derived.panels = built.panels;
                self.panels();
            }
            Some(Form::Quant) => {
                self.derived.quant = built.quant;
                self.quant();
            }
            None => {}
        }
    }

    /// Fingerprint of what every derived form is a function of besides
    /// the label: the panel operand, the master's extents and its bit
    /// pattern (word-wise FNV-1a).
    fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |word: u64| hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        mix(self.operand as u64);
        for &d in self.master.value.shape().dims() {
            mix(d as u64);
        }
        for v in self.master.value.data() {
            mix(u64::from(v.to_bits()));
        }
        hash
    }

    /// Handle to the forms currently built; `None` when there are none.
    pub(crate) fn export(&self) -> Option<WeightPanels> {
        (!self.is_cold()).then(|| WeightPanels {
            fingerprint: self.fingerprint(),
            format: self.format,
            derived: self.derived.clone(),
        })
    }

    /// Adopts a donor's built forms in place of this layer's own.
    /// Returns `false`, leaving the layer untouched, unless the donor
    /// had the same label and was derived from bit-identical weights.
    pub(crate) fn adopt(&mut self, panels: &WeightPanels) -> bool {
        let matches = panels.format == self.format && panels.fingerprint == self.fingerprint();
        if matches {
            self.derived = panels.derived.clone();
        }
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(seed: f32, operand: PanelOperand) -> Weights {
        let value = Tensor::from_fn([5, 7], |i| ((i as f32 + seed) * 0.37).sin());
        Weights::new(Param::new(value), operand)
    }

    #[test]
    fn every_mut_route_drops_every_form() {
        let mut w = weights(0.0, PanelOperand::A);
        let warm = |w: &mut Weights| {
            w.csr();
            w.panels();
            assert!(!w.is_cold());
        };
        warm(&mut w);
        let _ = w.master_mut();
        assert!(w.is_cold());
        warm(&mut w);
        w.replace(Tensor::zeros([4, 7]));
        assert!(w.is_cold());
        warm(&mut w);
        w.set_format(WeightFormat::Csr);
        assert!(w.is_cold());
        assert_eq!(w.format(), WeightFormat::Csr);
    }

    #[test]
    fn code_forms_follow_the_label() {
        let mut w = weights(0.0, PanelOperand::BTransposed);
        assert!(w.ternary().is_none() && w.int8().is_none());
        w.set_format(WeightFormat::Ternary);
        assert!(w.ternary().is_none(), "sine weights are not ternary");
        assert!(w.is_cold(), "a master without a code form keeps nothing");
        w.master_mut().value.map_inplace(|v| v.signum() * 0.5);
        assert_eq!(w.ternary().map(|t| t.positive), Some(0.5));
        assert!(w.int8().is_none());
        w.set_format(WeightFormat::Int8);
        assert!(w.int8().is_some() && w.ternary().is_none());
    }

    #[test]
    fn prepare_keeps_exactly_one_form() {
        let mut w = weights(0.0, PanelOperand::A);
        w.csr();
        w.prepare(Some(Form::Panels));
        assert!(w.derived.csr.get().is_none() && w.derived.panels.get().is_some());
        w.prepare(None);
        assert!(w.is_cold());
    }

    #[test]
    fn adoption_checks_source_and_label() {
        let mut donor = weights(0.0, PanelOperand::A);
        donor.panels();
        let handle = donor.export().expect("a built form exports");

        let mut twin = weights(0.0, PanelOperand::A);
        assert!(twin.adopt(&handle));
        assert!(twin.export().unwrap().ptr_eq(&handle));

        // The donor moving on never disturbs the twin's clone.
        donor.master_mut().value.fill(0.0);
        assert!(twin.export().unwrap().ptr_eq(&handle));

        let mut other_seed = weights(1.0, PanelOperand::A);
        let mut other_operand = weights(0.0, PanelOperand::BTransposed);
        let mut other_label = weights(0.0, PanelOperand::A);
        other_label.set_format(WeightFormat::Ternary);
        for foreign in [&mut other_seed, &mut other_operand, &mut other_label] {
            assert!(!foreign.adopt(&handle));
            assert!(foreign.is_cold(), "a refused handle leaves no trace");
        }
        assert!(weights(0.0, PanelOperand::A).export().is_none());
    }
}
