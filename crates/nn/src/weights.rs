//! The one owner of a layer's weights and everything derived from them.
//!
//! [`Conv2d`](crate::Conv2d) and [`Linear`](crate::Linear) keep a dense
//! master [`Param`], a [`WeightFormat`] label, and storage forms
//! *derived* from that pair — a CSR matrix, packed f32 GEMM panels,
//! quantised code panels, a Winograd filter bank per tile size — plus
//! two facts about the master that each cost a pass over it (its
//! non-zero count, whether it is exactly ternary). A derived form or
//! fact is a function of `(master,
//! format)`, never state kept beside them:
//!
//! * the only `&mut` routes to the master or the label —
//!   [`master_mut`](Weights::master_mut), [`replace`](Weights::replace),
//!   [`set_format`](Weights::set_format) — drop every derived form;
//! * each form is built on first read and kept until the next reset,
//!   so a kernel can observe neither an absent nor a stale form.
//!
//! The master and every built form sit behind `Arc`s, and a
//! [`replica`](Weights::replica) is a second set of handles to the same
//! buffers: any number of sessions serve one physical model. Nothing is
//! ever written through a shared handle — a form is a fresh `Vec`
//! wrapped once and a reset drops the handle, and `master_mut` goes
//! through [`Arc::make_mut`] — so writing to one replica un-shares
//! exactly the layer written (copy-on-write) and leaves every other
//! holder a complete, consistent model.

use crate::layer::{Layer, Param, WeightFormat};
use crate::{Conv2d, Linear};
use cnn_stack_sparse::CsrMatrix;
use cnn_stack_tensor::{
    gemm, pack_winograd_bank_into, winograd_bank_elems, AlignedBuf, GemmPlan, Tensor, WinogradTile,
};
use std::sync::{Arc, OnceLock};

/// Which GEMM operand a layer's f32 panels are: convolution multiplies
/// `W · cols` (weights are the MR-row A operand), linear multiplies
/// `X · Wᵀ` (weights are the NR-column B operand, packed transposed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PanelOperand {
    A,
    BTransposed,
}

/// One of the derived storage forms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Form {
    Csr,
    Panels,
    Quant,
    /// The transformed filter bank of a 3×3 convolution: one A-packed
    /// `out_c × in_c` operand per frequency of the tile.
    Winograd(WinogradTile),
}

/// Slot of a tile's bank in [`Derived::winograd`].
fn bank_slot(tile: WinogradTile) -> usize {
    match tile {
        WinogradTile::F2 => 0,
        WinogradTile::F4 => 1,
    }
}

/// Ternary code panels of the `Wᵀ` B operand — 2-bit sign codes (see
/// `pack_b_ternary_transposed_into`) plus the two per-layer magnitudes
/// (`negative` stored positive). The layout depends only on the weight
/// matrix extents, so one build serves every input shape.
#[derive(Clone, Debug)]
struct QuantPanels {
    codes: Arc<Vec<u32>>,
    positive: f32,
    negative: f32,
}

/// Borrowed view of built ternary codes.
#[derive(Clone, Copy)]
pub(crate) struct TernaryCodes<'a> {
    pub codes: &'a [u32],
    pub positive: f32,
    pub negative: f32,
}

/// The derived forms, each built at most once per reset. `quant` holds
/// `None` when the label is `Ternary` but the master is not exactly
/// ternary: such weights have no code form and run the f32 kernels.
/// `nnz` and `ternary` are facts about the master, not storage forms:
/// a few bytes each, so [`Weights::prepare`] keeps them whichever form
/// it keeps. Each costs a pass over the weights, and plan compilation
/// asks for both several times per layer.
#[derive(Clone, Debug, Default)]
struct Derived {
    csr: OnceLock<Arc<CsrMatrix>>,
    panels: OnceLock<Arc<AlignedBuf>>,
    quant: OnceLock<Option<QuantPanels>>,
    /// Winograd banks, F(2×2) then F(4×4): the tile is a config choice,
    /// not a label, so a demotion from one to the other rebuilds nothing
    /// else.
    winograd: [OnceLock<Arc<AlignedBuf>>; 2],
    nnz: OnceLock<usize>,
    ternary: OnceLock<Option<(f32, f32)>>,
}

impl Derived {
    /// Buffer address of each built form: identity, not content.
    fn addresses(&self) -> [Option<usize>; 5] {
        let bank = |slot: &OnceLock<Arc<AlignedBuf>>| slot.get().map(|a| Arc::as_ptr(a) as usize);
        [
            self.csr.get().map(|a| Arc::as_ptr(a) as usize),
            self.panels.get().map(|a| Arc::as_ptr(a) as usize),
            self.quant
                .get()
                .and_then(Option::as_ref)
                .map(|q| Arc::as_ptr(&q.codes) as usize),
            bank(&self.winograd[0]),
            bank(&self.winograd[1]),
        ]
    }
}

/// Identity — addresses, not contents — of the buffers behind one
/// layer's weights. Two layers with equal `master` read one physical
/// parameter; equal `Some` entries in `forms` read one physical prepack.
/// This is how tests and probes tell a replica from an equal copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightStorage {
    /// Address of the master parameter.
    pub master: usize,
    /// Address of each resident derived form — CSR, f32 panels, code
    /// panels, the F(2×2) and the F(4×4) Winograd bank, in that order —
    /// or `None` where none is built.
    pub forms: [Option<usize>; 5],
}

/// Scans a weight slice for exact ternary structure: at most one
/// distinct positive magnitude and one distinct negative magnitude, all
/// values finite. Returns `(positive, negative)` magnitudes (both
/// non-negative; zero when that sign is absent), or `None` when the
/// weights are not ternary.
fn scan_ternary(data: &[f32]) -> Option<(f32, f32)> {
    // The only candidates are the first value of each sign; every
    // element must then be one of them or zero.
    let first = |wanted: fn(&f32) -> bool| data.iter().copied().find(wanted);
    let positive = first(|v| *v > 0.0).unwrap_or(0.0);
    let negative = first(|v| *v < 0.0).map_or(0.0, |v| -v);
    if !positive.is_finite() || !negative.is_finite() {
        return None;
    }
    // Branch-free within a block, so the membership test vectorises
    // (NaN equals nothing and fails it); block by block, so weights
    // that are not ternary are still rejected early.
    let member = |v: f32| (v == 0.0) | (v == positive) | (v == -negative);
    data.chunks(4096)
        .all(|block| block.iter().fold(true, |all, &v| all & member(v)))
        .then_some((positive, negative))
}

/// Master weights, format label and derived forms of one layer; see the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct Weights {
    master: Arc<Param>,
    format: WeightFormat,
    operand: PanelOperand,
    derived: Derived,
}

impl Weights {
    /// Wraps `master` (leading extent = output rows) in `Dense` format.
    pub(crate) fn new(master: Param, operand: PanelOperand) -> Self {
        Weights {
            master: Arc::new(master),
            format: WeightFormat::Dense,
            operand,
            derived: Derived::default(),
        }
    }

    /// The weights of a conv or linear layer; `None` for every other
    /// layer (composites included: a downcast, not their first child).
    pub(crate) fn of(layer: &dyn Layer) -> Option<&Weights> {
        let any = layer.as_any();
        let conv = any.downcast_ref::<Conv2d>().map(Conv2d::weights);
        conv.or_else(|| any.downcast_ref::<Linear>().map(Linear::weights))
    }

    /// [`of`](Self::of), mutably — the route by which a plan pass or a
    /// demotion relabels whichever layer type it was handed.
    pub(crate) fn of_mut(layer: &mut dyn Layer) -> Option<&mut Weights> {
        let any = layer.as_any_mut();
        if any.is::<Conv2d>() {
            return any.downcast_mut::<Conv2d>().map(Conv2d::weights_mut);
        }
        any.downcast_mut::<Linear>().map(Linear::weights_mut)
    }

    /// A second set of handles to this master and to every form built
    /// so far: no weight is copied. The label is per replica.
    pub(crate) fn replica(&self) -> Weights {
        Weights {
            master: Arc::clone(&self.master),
            format: self.format,
            operand: self.operand,
            derived: self.derived.clone(),
        }
    }

    /// Which buffers this layer reads, by address.
    pub(crate) fn storage(&self) -> WeightStorage {
        WeightStorage {
            master: Arc::as_ptr(&self.master) as usize,
            forms: self.derived.addresses(),
        }
    }

    /// The dense master copy.
    pub(crate) fn master(&self) -> &Param {
        &self.master
    }

    /// Mutable master; the caller may rewrite it, so every derived form
    /// goes, and a master shared with replicas is copied first — they
    /// keep the old one.
    pub(crate) fn master_mut(&mut self) -> &mut Param {
        self.drop_derived();
        Arc::make_mut(&mut self.master)
    }

    /// Replaces the master with a re-shaped value (channel surgery);
    /// replicas keep the old one.
    pub(crate) fn replace(&mut self, value: Tensor) {
        self.drop_derived();
        self.master = Arc::new(Param::new(value));
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

    /// Whether no derived storage form is resident.
    pub(crate) fn is_cold(&self) -> bool {
        self.derived.addresses().iter().all(Option::is_none)
    }

    /// Exactly non-zero master elements, counted once per reset: every
    /// descriptor and the plan compiler's sparsity measure read this.
    pub(crate) fn nnz(&self) -> usize {
        *self.derived.nnz.get_or_init(|| {
            let value = &self.master.value;
            value.len() - value.count_zeros(0.0)
        })
    }

    /// [`scan_ternary`] of the master, scanned once per reset: the
    /// `(positive, negative)` magnitudes iff it is exactly ternary.
    pub(crate) fn ternary_magnitudes(&self) -> Option<(f32, f32)> {
        *self
            .derived
            .ternary
            .get_or_init(|| scan_ternary(self.master.value.data()))
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

    /// Packed f32 GEMM panels of the master, cache-line-aligned (they are
    /// the streamed B operand of a linear layer). The layout depends only
    /// on the weight matrix extents, not on the other operand's, so one
    /// build serves every input shape.
    pub(crate) fn panels(&self) -> &[f32] {
        self.derived.panels.get_or_init(|| {
            let (rows, cols) = self.matrix_extents();
            let data = self.master.value.data();
            Arc::new(match self.operand {
                PanelOperand::A => {
                    let plan = GemmPlan::new(rows, cols, 1);
                    let mut panels = AlignedBuf::zeroed(plan.packed_a_elems());
                    gemm::pack_a_into(&plan, data, &mut panels);
                    panels
                }
                PanelOperand::BTransposed => {
                    let plan = GemmPlan::new(1, cols, rows);
                    let mut panels = AlignedBuf::zeroed(plan.packed_b_elems());
                    gemm::pack_b_transposed_into(&plan, data, &mut panels);
                    panels
                }
            })
        })
    }

    /// The Winograd bank of `tile`, transformed from the master (a
    /// `[out_c, in_c, 3, 3]` convolution) straight into its packed
    /// operands. Like the f32 panels it does not depend on the input
    /// shape, so one build serves every batch.
    pub(crate) fn winograd_bank(&self, tile: WinogradTile) -> &[f32] {
        self.derived.winograd[bank_slot(tile)].get_or_init(|| {
            let (out_c, cols) = self.matrix_extents();
            let in_c = cols / 9;
            let mut bank = AlignedBuf::zeroed(winograd_bank_elems(tile, in_c, out_c));
            pack_winograd_bank_into(tile, self.master.value.data(), out_c, in_c, &mut bank);
            Arc::new(bank)
        })
    }

    /// The code form, if the label asks for it and the master has one.
    fn quant(&self) -> Option<&QuantPanels> {
        self.derived
            .quant
            .get_or_init(|| {
                if self.format != WeightFormat::Ternary {
                    return None;
                }
                let (positive, negative) = self.ternary_magnitudes()?;
                let (rows, cols) = self.matrix_extents();
                // The codes are the B operand of `X · Wᵀ` (the ternary
                // convolution runs its product transposed).
                let plan = GemmPlan::new(1, cols, rows);
                let mut codes = vec![0u32; plan.ternary_b_words()];
                gemm::pack_b_ternary_transposed_into(&plan, self.master.value.data(), &mut codes);
                Some(QuantPanels {
                    codes: Arc::new(codes),
                    positive,
                    negative,
                })
            })
            .as_ref()
    }

    /// Ternary codes: `Some` iff the label is `Ternary` and the master
    /// is exactly ternary.
    pub(crate) fn ternary(&self) -> Option<TernaryCodes<'_>> {
        self.quant().map(|q| TernaryCodes {
            codes: &q.codes,
            positive: q.positive,
            negative: q.negative,
        })
    }

    /// Plan-time warm-up: drops the forms the coming runs will not read
    /// (resident set stays one form per layer) and builds the one they
    /// will (so steady-state runs allocate nothing).
    pub(crate) fn prepare(&mut self, keep: Option<Form>) {
        let built = std::mem::take(&mut self.derived);
        self.derived.nnz = built.nnz;
        self.derived.ternary = built.ternary;
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
            Some(Form::Winograd(tile)) => {
                let (slot, mut banks) = (bank_slot(tile), built.winograd);
                self.derived.winograd[slot] = std::mem::take(&mut banks[slot]);
                self.winograd_bank(tile);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(seed: f32, operand: PanelOperand) -> Weights {
        let value = Tensor::from_fn([5, 7], |i| ((i as f32 + seed) * 0.37).sin());
        Weights::new(Param::new(value), operand)
    }

    /// A 2 → 5 channel 3×3 convolution's weights: every form, the
    /// Winograd banks included, can be built from them.
    fn conv_weights() -> Weights {
        let value = Tensor::from_fn([5, 2, 3, 3], |i| (i as f32 * 0.37).sin());
        Weights::new(Param::new(value), PanelOperand::A)
    }

    #[test]
    fn every_mut_route_drops_every_form() {
        let mut w = conv_weights();
        let warm = |w: &mut Weights| {
            w.csr();
            w.panels();
            w.winograd_bank(WinogradTile::F2);
            w.winograd_bank(WinogradTile::F4);
            w.nnz();
            w.ternary_magnitudes();
            let forms = w.storage().forms;
            assert!(forms[..2].iter().chain(&forms[3..]).all(Option::is_some));
        };
        let cold = |w: &Weights| {
            w.is_cold() && w.derived.nnz.get().is_none() && w.derived.ternary.get().is_none()
        };
        warm(&mut w);
        let _ = w.master_mut();
        assert!(cold(&w));
        warm(&mut w);
        w.replace(Tensor::zeros([4, 2, 3, 3]));
        assert!(cold(&w));
        warm(&mut w);
        w.set_format(WeightFormat::Csr);
        assert!(cold(&w));
        assert_eq!(w.format(), WeightFormat::Csr);
    }

    #[test]
    fn nnz_follows_the_master() {
        let mut w = weights(0.0, PanelOperand::A);
        assert_eq!(w.nnz(), 34, "sin(0) is the one exact zero of 35");
        w.master_mut().value.data_mut()[..10].fill(0.0);
        assert_eq!(w.nnz(), 25);
        w.replace(Tensor::zeros([4, 7]));
        assert_eq!(w.nnz(), 0);
    }

    #[test]
    fn ternary_scan_matches_the_one_pass_definition() {
        /// The definition, one element at a time.
        fn reference(data: &[f32]) -> Option<(f32, f32)> {
            let (mut positive, mut negative) = (0.0f32, 0.0f32);
            for &v in data {
                if !v.is_finite() {
                    return None;
                }
                let (seen, magnitude) = if v > 0.0 {
                    (&mut positive, v)
                } else if v < 0.0 {
                    (&mut negative, -v)
                } else {
                    continue;
                };
                if *seen == 0.0 {
                    *seen = magnitude;
                } else if *seen != magnitude {
                    return None;
                }
            }
            Some((positive, negative))
        }
        let pattern = |len: usize, values: &[f32]| -> Vec<f32> {
            (0..len)
                .map(|i| values[(i * 2654435761) % values.len()])
                .collect()
        };
        let mut cases = vec![
            Vec::new(),
            pattern(9000, &[0.0]),
            pattern(9000, &[0.0, -0.0, 0.5]),
            pattern(9000, &[0.0, -0.25]),
            pattern(9000, &[0.5, 0.0, -0.25, 0.0, 0.0]),
            pattern(9000, &[0.5, 0.0, -0.25, 0.75]),
            pattern(9000, &[f32::INFINITY, 0.0]),
            pattern(9000, &[0.0, f32::NEG_INFINITY]),
        ];
        // One stray value in an otherwise ternary tensor, in the first
        // block, across a block boundary, and last.
        for at in [0usize, 4095, 4096, 8999] {
            for stray in [0.75, -0.5, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE] {
                let mut data = pattern(9000, &[0.5, 0.0, -0.25]);
                data[at] = stray;
                cases.push(data);
            }
        }
        for data in cases {
            let (got, want) = (scan_ternary(&data), reference(&data));
            let bits = |m: Option<(f32, f32)>| m.map(|(p, n)| (p.to_bits(), n.to_bits()));
            assert_eq!(bits(got), bits(want), "{:?}…", &data[..data.len().min(4)]);
        }
    }

    #[test]
    fn code_forms_follow_the_label() {
        let mut w = weights(0.0, PanelOperand::BTransposed);
        assert!(w.ternary().is_none());
        w.set_format(WeightFormat::Ternary);
        assert!(w.ternary().is_none(), "sine weights are not ternary");
        assert!(w.is_cold(), "a master without a code form keeps nothing");
        w.master_mut().value.map_inplace(|v| v.signum() * 0.5);
        assert_eq!(w.ternary().map(|t| t.positive), Some(0.5));
        w.set_format(WeightFormat::Csr);
        assert!(w.ternary().is_none());
    }

    #[test]
    fn prepare_keeps_exactly_one_form() {
        let mut w = conv_weights();
        w.csr();
        w.nnz();
        w.ternary_magnitudes();
        w.prepare(Some(Form::Panels));
        assert!(w.derived.csr.get().is_none() && w.derived.panels.get().is_some());
        // A bank is one form like any other, and a tile's bank is not
        // the other tile's.
        w.winograd_bank(WinogradTile::F2);
        let f4 = w.winograd_bank(WinogradTile::F4).as_ptr();
        w.prepare(Some(Form::Winograd(WinogradTile::F4)));
        let forms = w.storage().forms;
        assert_eq!(forms[..4], [None; 4]);
        assert_eq!(
            w.winograd_bank(WinogradTile::F4).as_ptr(),
            f4,
            "kept, not rebuilt"
        );
        w.prepare(None);
        assert!(w.is_cold());
        let facts = w.derived.nnz.get().is_some() && w.derived.ternary.get().is_some();
        assert!(facts, "facts about the master are not forms");
    }

    #[test]
    fn replica_shares_until_written() {
        let source = weights(0.0, PanelOperand::A);
        source.panels();
        source.nnz();
        let mut replica = source.replica();
        assert_eq!(replica.storage(), source.storage());
        assert_eq!(replica.derived.nnz.get(), Some(&34));

        // So does a bank, until that side's master is written.
        let conv = conv_weights();
        conv.winograd_bank(WinogradTile::F4);
        let mut twin = conv.replica();
        assert_eq!(twin.storage(), conv.storage());
        assert!(twin.storage().forms[4].is_some());
        twin.master_mut().value.fill(0.5);
        assert_eq!(twin.storage().forms, [None; 5]);
        assert!(conv.storage().forms[4].is_some());

        // A relabel is per replica: it drops that side's forms only and
        // copies nothing.
        replica.set_format(WeightFormat::Csr);
        assert!(replica.is_cold());
        assert_eq!(replica.storage().master, source.storage().master);
        assert_eq!(source.format(), WeightFormat::Dense);

        // A write copies first: the source keeps the old master and the
        // panels packed from it.
        let before = source.storage();
        let packed = source.panels().to_vec();
        replica.master_mut().value.fill(0.0);
        assert_ne!(replica.storage().master, before.master);
        assert_eq!(source.storage(), before);
        assert_eq!(source.panels(), packed.as_slice());
        assert!(source.master().value.data().iter().any(|&v| v != 0.0));

        // Once un-shared, further writes stay in place.
        let own = replica.storage().master;
        replica.master_mut().value.fill(1.0);
        assert_eq!(replica.storage().master, own);
    }
}
