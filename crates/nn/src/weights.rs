//! The one owner of a layer's weights, in whichever physical form the
//! layer's kernel reads.
//!
//! [`Conv2d`](crate::Conv2d) and [`Linear`](crate::Linear) keep the
//! weights' extents, a [`WeightFormat`] label and a pruning bit mask.
//! The values live in *forms*: the dense master [`Param`], a CSR
//! matrix, packed f32 GEMM panels, 2-bit code panels, a Winograd filter
//! bank per tile size. After [`prepare`](Weights::prepare) one physical
//! form is resident, and every other form is a function of it:
//!
//! * f32 panels (the master as the GEMM's zero-padded MR-row A operand)
//!   and the codes of an exactly-ternary master (`0b11` is `−0.0`) re-encode
//!   the master losslessly, so while one of them is kept and no gradient
//!   is held the master is dropped, and [`master`](Weights::master)
//!   rebuilds it bit for bit on demand;
//! * a Winograd bank keeps the master beside it, because the filter
//!   transform does not round-trip bit-exactly, and so does CSR, because
//!   `CsrMatrix::from_dense` drops `−0.0`.
//!
//! Two facts about the master that each cost a pass over it — its
//! non-zero count and whether it is exactly ternary — are kept
//! whichever form is. A form or fact is a function of `(master,
//! format)`, never state kept beside them:
//!
//! * the only `&mut` routes to the master or the label —
//!   [`master_mut`](Weights::master_mut), [`replace`](Weights::replace),
//!   [`set_format`](Weights::set_format),
//!   [`drop_derived`](Weights::drop_derived) — rebuild the master first
//!   and then drop every other form, so the resident set is never empty;
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
//! holder a complete, consistent model. A master rebuilt on one replica
//! is that replica's own.

use crate::guard::scan_non_finite;
use crate::layer::{Layer, Mask, Param, WeightFormat};
use crate::{Conv2d, Linear};
use cnn_stack_sparse::CsrMatrix;
use cnn_stack_tensor::{
    gemm, pack_winograd_bank_into, winograd_bank_elems, AlignedBuf, CodePanels, GemmPlan, Shape,
    Tensor, WinogradTile,
};
use std::sync::{Arc, OnceLock};

/// One of the derived storage forms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Form {
    Csr,
    Panels,
    Codes,
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

/// The code form of an exactly-ternary master: its MR-row A panels as
/// 2-bit codes (`pack_a_codes_into`) plus the two per-layer magnitudes
/// (`negative` stored positive). The layout depends only on the weight
/// matrix extents, so one build serves every input shape.
#[derive(Clone, Debug)]
struct Codes {
    words: Arc<Vec<u32>>,
    positive: f32,
    negative: f32,
}

impl Codes {
    fn panels(&self) -> CodePanels<'_> {
        CodePanels {
            words: &self.words,
            positive: self.positive,
            negative: self.negative,
        }
    }
}

/// The derived forms, each built at most once per reset. `codes` holds
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
    codes: OnceLock<Option<Codes>>,
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
            self.codes
                .get()
                .and_then(Option::as_ref)
                .map(|c| Arc::as_ptr(&c.words) as usize),
            bank(&self.winograd[0]),
            bank(&self.winograd[1]),
        ]
    }
}

/// Identity — addresses, not contents — of the buffers behind one
/// layer's weights. Two layers with equal `Some` masters read one
/// physical parameter; equal `Some` entries in `forms` read one
/// physical prepack. This is how tests and probes tell a replica from
/// an equal copy, and which forms a layer holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightStorage {
    /// Address of the master parameter, or `None` while a lossless form
    /// (f32 or code panels) stands in for it.
    pub master: Option<usize>,
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

/// Returns the pages of freed heap memory to the kernel. glibc's
/// dynamic mmap threshold rises each time a large mapped buffer is
/// freed, so later weight buffers land in the brk heap, and dropping
/// a master there would not lower the resident set. Costs 1–7 ms, so
/// the engine calls it once per prepare sweep that freed a master.
pub(crate) fn release_freed_pages() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointer; it only hands free
        // pages of glibc's own heap back to the kernel, under the
        // allocator's own locks.
        unsafe { malloc_trim(0) };
    }
}

/// Extents, label, mask and resident forms of one layer's weights; see
/// the [module docs](self).
#[derive(Debug)]
pub(crate) struct Weights {
    /// Extents of the master (leading extent = output rows), which
    /// outlive its values.
    shape: Shape,
    /// The dense master; empty while a lossless form stands in for it.
    master: OnceLock<Arc<Param>>,
    /// The master's pruning mask, kept from the first time the master is
    /// dropped until the next write, so that a rebuilt master carries it.
    mask: Option<Arc<Mask>>,
    format: WeightFormat,
    derived: Derived,
}

impl Weights {
    /// Wraps `master` (leading extent = output rows) in `Dense` format.
    pub(crate) fn new(master: Param) -> Self {
        Weights {
            shape: master.value.shape().clone(),
            master: OnceLock::from(Arc::new(master)),
            mask: None,
            format: WeightFormat::Dense,
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

    /// [`of`](Self::of), mutably — the route by which plan compilation or
    /// a demotion relabels whichever layer type it was handed.
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
            shape: self.shape.clone(),
            master: self.master.clone(),
            mask: self.mask.clone(),
            format: self.format,
            derived: self.derived.clone(),
        }
    }

    /// Which buffers this layer reads, by address.
    pub(crate) fn storage(&self) -> WeightStorage {
        WeightStorage {
            master: self.master.get().map(|m| Arc::as_ptr(m) as usize),
            forms: self.derived.addresses(),
        }
    }

    /// The dense master, rebuilt bit for bit from the resident form if
    /// [`prepare`](Self::prepare) dropped it; the rebuilt copy stays
    /// until the next `prepare`.
    pub(crate) fn master(&self) -> &Param {
        self.master.get_or_init(|| {
            let mut master = Param::new(Tensor::from_vec(self.shape.clone(), self.decode()));
            master.mask = self.mask.as_deref().cloned();
            Arc::new(master)
        })
    }

    /// The master's values, decoded from the lossless form that stands
    /// in for it. Reads built forms only: building one reads the master.
    fn decode(&self) -> Vec<f32> {
        let mut values = vec![0.0; self.elems()];
        let plan = self.panel_plan();
        if let Some(Some(codes)) = self.derived.codes.get() {
            gemm::unpack_a_codes_into(&plan, codes.panels(), &mut values);
        } else {
            let panels = self.derived.panels.get();
            let panels = panels.expect("a dropped master leaves a lossless form");
            gemm::unpack_a_into(&plan, panels, &mut values);
        }
        values
    }

    /// Mutable master; the caller may rewrite it, so every derived form
    /// goes, and a master shared with replicas is copied first — they
    /// keep the old one.
    pub(crate) fn master_mut(&mut self) -> &mut Param {
        self.drop_derived();
        Arc::make_mut(self.master.get_mut().expect("drop_derived rebuilt it"))
    }

    /// Replaces the master with a re-shaped value (channel surgery);
    /// replicas keep the old one.
    pub(crate) fn replace(&mut self, value: Tensor) {
        self.shape = value.shape().clone();
        self.master = OnceLock::from(Arc::new(Param::new(value)));
        self.mask = None;
        self.derived = Derived::default();
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

    /// Drops every derived form, after rebuilding the master if one of
    /// them stood in for it. Always safe: the next read rebuilds.
    pub(crate) fn drop_derived(&mut self) {
        self.master();
        self.mask = None;
        self.derived = Derived::default();
    }

    /// Whether the master is the only resident form.
    pub(crate) fn is_cold(&self) -> bool {
        self.derived.addresses().iter().all(Option::is_none)
    }

    /// Element count of the master, resident or not.
    pub(crate) fn elems(&self) -> usize {
        self.shape.len()
    }

    /// Exactly non-zero master elements, counted once per reset: every
    /// descriptor and the plan compiler's sparsity measure read this.
    pub(crate) fn nnz(&self) -> usize {
        *self.derived.nnz.get_or_init(|| {
            let value = &self.master().value;
            value.len() - value.count_zeros(0.0)
        })
    }

    /// [`scan_ternary`] of the master, scanned once per reset: the
    /// `(positive, negative)` magnitudes iff it is exactly ternary.
    pub(crate) fn ternary_magnitudes(&self) -> Option<(f32, f32)> {
        *self
            .derived
            .ternary
            .get_or_init(|| scan_ternary(self.master().value.data()))
    }

    /// The master viewed as a `[rows × cols]` matrix (same memory).
    fn matrix_extents(&self) -> (usize, usize) {
        let rows = self.shape.dims()[0];
        (rows, self.elems() / rows)
    }

    /// The blocking plan whose A panel layout the f32 and code panels
    /// take: the weights as the `[rows × cols]` A operand.
    fn panel_plan(&self) -> GemmPlan {
        let (rows, cols) = self.matrix_extents();
        GemmPlan::new(rows, cols, 1)
    }

    /// CSR form of the master (exact zeros dropped).
    pub(crate) fn csr(&self) -> &CsrMatrix {
        self.derived.csr.get_or_init(|| {
            let (rows, cols) = self.matrix_extents();
            let matrix = self.master().value.reshape([rows, cols]);
            Arc::new(CsrMatrix::from_dense(&matrix, 0.0))
        })
    }

    /// Packed f32 GEMM panels of the master: its MR-row A panels, on a
    /// cache line. The layout depends only on the weight matrix extents,
    /// not on the other operand's, so one build serves every input shape.
    pub(crate) fn panels(&self) -> &[f32] {
        self.derived.panels.get_or_init(|| {
            let plan = self.panel_plan();
            let mut panels = AlignedBuf::zeroed(plan.packed_a_elems());
            gemm::pack_a_into(&plan, self.master().value.data(), &mut panels);
            Arc::new(panels)
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
            pack_winograd_bank_into(tile, self.master().value.data(), out_c, in_c, &mut bank);
            Arc::new(bank)
        })
    }

    /// The code form, if the label asks for it and the master has one.
    fn code_form(&self) -> Option<&Codes> {
        self.derived
            .codes
            .get_or_init(|| {
                if self.format != WeightFormat::Ternary {
                    return None;
                }
                let (positive, negative) = self.ternary_magnitudes()?;
                let plan = self.panel_plan();
                let mut words = vec![0u32; plan.packed_a_code_words()];
                gemm::pack_a_codes_into(&plan, self.master().value.data(), &mut words);
                Some(Codes {
                    words: Arc::new(words),
                    positive,
                    negative,
                })
            })
            .as_ref()
    }

    /// The master as 2-bit A code panels: `Some` iff the label is
    /// `Ternary` and the master is exactly ternary.
    pub(crate) fn codes(&self) -> Option<CodePanels<'_>> {
        self.code_form().map(Codes::panels)
    }

    /// Whether `form` — `None` for the master — is resident.
    fn holds(&self, form: Option<Form>) -> bool {
        match form {
            None => self.master.get().is_some(),
            Some(Form::Csr) => self.derived.csr.get().is_some(),
            Some(Form::Panels) => self.derived.panels.get().is_some(),
            Some(Form::Codes) => self.derived.codes.get().is_some(),
            Some(Form::Winograd(tile)) => self.derived.winograd[bank_slot(tile)].get().is_some(),
        }
    }

    /// Plan-time warm-up: builds the one form the coming runs read (so
    /// steady-state runs allocate nothing) and drops every other — the
    /// master too, when the kept form re-encodes it losslessly and it
    /// holds no gradient. Returns whether that freed the master's buffer
    /// (not so while a replica still holds it).
    pub(crate) fn prepare(&mut self, keep: Option<Form>) -> bool {
        if !self.holds(keep) {
            // The kept form is built from the master, and the forms about
            // to go may be all that holds it.
            self.master();
        }
        let built = std::mem::take(&mut self.derived);
        self.derived.nnz = built.nnz;
        self.derived.ternary = built.ternary;
        let lossless = match keep {
            Some(Form::Csr) => {
                self.derived.csr = built.csr;
                self.csr();
                false
            }
            Some(Form::Panels) => {
                self.derived.panels = built.panels;
                self.panels();
                true
            }
            Some(Form::Codes) => {
                self.derived.codes = built.codes;
                self.code_form().is_some()
            }
            Some(Form::Winograd(tile)) => {
                let (slot, mut banks) = (bank_slot(tile), built.winograd);
                self.derived.winograd[slot] = std::mem::take(&mut banks[slot]);
                self.winograd_bank(tile);
                false
            }
            None => false,
        };
        if !lossless || self.master.get().is_none_or(|m| m.grad().is_some()) {
            return false;
        }
        // Both facts are read from the master while it is here.
        self.nnz();
        self.ternary_magnitudes();
        let master = self.master.take().expect("checked above");
        if let Some(mask) = &master.mask {
            self.mask.get_or_insert_with(|| Arc::new(mask.clone()));
        }
        Arc::into_inner(master).is_some()
    }

    /// [`Layer::first_non_finite_param`] of a layer whose parameters are
    /// these weights and `bias`.
    pub(crate) fn first_non_finite_param(
        &self,
        bias: &Param,
        scanned: &mut usize,
    ) -> Option<(usize, usize)> {
        *scanned += 1;
        if let Some(index) = self.first_non_finite() {
            return Some((0, index));
        }
        *scanned += 1;
        scan_non_finite(bias.value.data()).map(|(index, ..)| (1, index))
    }

    /// The first non-finite weight as an index into the master, read
    /// from what the kernel reads: the master while it is resident, else
    /// the f32 panels or the two code magnitudes. Only a form that holds
    /// one is decoded, to name its master index.
    fn first_non_finite(&self) -> Option<usize> {
        let first = |values: &[f32]| scan_non_finite(values).map(|(index, ..)| index);
        if let Some(master) = self.master.get() {
            return first(master.value.data());
        }
        let clean = match self.derived.codes.get() {
            Some(Some(c)) => c.positive.is_finite() && c.negative.is_finite(),
            _ => first(self.derived.panels.get().expect("a lossless form")).is_none(),
        };
        if clean {
            None
        } else {
            first(&self.decode())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 7 → 5 linear layer's weights.
    fn weights() -> Weights {
        let value = Tensor::from_fn([5, 7], |i| (i as f32 * 0.37).sin());
        Weights::new(Param::new(value))
    }

    /// A 2 → 5 channel 3×3 convolution's weights: every form, the
    /// Winograd banks included, can be built from them.
    fn conv_weights() -> Weights {
        let value = Tensor::from_fn([5, 2, 3, 3], |i| (i as f32 * 0.37).sin());
        Weights::new(Param::new(value))
    }

    /// Bit patterns of the master's values.
    fn master_bits(w: &Weights) -> Vec<u32> {
        w.master()
            .value
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect()
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
            w.is_cold()
                && w.storage().master.is_some()
                && w.derived.nnz.get().is_none()
                && w.derived.ternary.get().is_none()
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

        // With the master dropped behind the panels, every route rebuilds
        // it, bit for bit, before it drops them: the resident set is
        // never empty.
        type Route = fn(&mut Weights);
        let routes: [(&str, Route); 4] = [
            ("master_mut", |w| {
                w.master_mut();
            }),
            ("set_format", |w| w.set_format(WeightFormat::Dense)),
            ("drop_derived", Weights::drop_derived),
            ("prepare(None)", |w| {
                w.prepare(None);
            }),
        ];
        for (name, route) in routes {
            let mut w = conv_weights();
            let want = master_bits(&w);
            w.prepare(Some(Form::Panels));
            assert_eq!(
                w.storage().master,
                None,
                "{name}: dropped behind the panels"
            );
            route(&mut w);
            assert!(w.is_cold(), "{name} left a derived form");
            let master = w.master.get().map(|m| m.value.data().to_vec());
            let bits: Option<Vec<u32>> = master.map(|v| v.iter().map(|x| x.to_bits()).collect());
            assert_eq!(bits, Some(want), "{name} did not rebuild the master first");
        }
    }

    #[test]
    fn nnz_follows_the_master() {
        let mut w = weights();
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
        let mut w = weights();
        assert!(w.codes().is_none());
        w.set_format(WeightFormat::Ternary);
        assert!(w.codes().is_none(), "sine weights are not ternary");
        assert!(w.is_cold(), "a master without a code form keeps nothing");
        w.master_mut().value.map_inplace(|v| v.signum() * 0.5);
        assert_eq!(w.codes().map(|c| c.positive), Some(0.5));
        w.set_format(WeightFormat::Csr);
        assert!(w.codes().is_none());
    }

    /// Which forms are resident: the master, then `WeightStorage::forms`.
    fn resident(w: &Weights) -> [bool; 6] {
        let s = w.storage();
        let mut held = [s.master.is_some(); 6];
        for (h, f) in held[1..].iter_mut().zip(s.forms) {
            *h = f.is_some();
        }
        held
    }

    #[test]
    fn prepare_keeps_exactly_one_form() {
        const MASTER: [bool; 6] = [true, false, false, false, false, false];
        let mut w = conv_weights();
        let want = master_bits(&w);
        w.csr();
        w.nnz();
        w.ternary_magnitudes();
        // CSR drops −0.0, so the master stays beside it.
        w.prepare(Some(Form::Csr));
        assert_eq!(resident(&w), [true, true, false, false, false, false]);
        // The panels re-encode the master losslessly: it goes, and comes
        // back bit for bit.
        assert!(w.prepare(Some(Form::Panels)), "the master was freed");
        assert_eq!(resident(&w), [false, false, true, false, false, false]);
        assert_eq!(master_bits(&w.replica()), want);
        // A bank is one form like any other, and a tile's bank is not
        // the other tile's; a bank keeps the master (its transform does
        // not round-trip bit-exactly), rebuilt from the panels first.
        w.winograd_bank(WinogradTile::F2);
        let f4 = w.winograd_bank(WinogradTile::F4).as_ptr();
        assert!(!w.prepare(Some(Form::Winograd(WinogradTile::F4))));
        assert_eq!(resident(&w), [true, false, false, false, false, true]);
        assert_eq!(
            w.winograd_bank(WinogradTile::F4).as_ptr(),
            f4,
            "kept, not rebuilt"
        );
        assert_eq!(master_bits(&w), want);
        w.prepare(None);
        assert_eq!(resident(&w), MASTER);
        let facts = w.derived.nnz.get().is_some() && w.derived.ternary.get().is_some();
        assert!(facts, "facts about the master are not forms");

        // The codes of an exactly-ternary master, −0.0 and a pruning
        // mask included, stand in for it the same way.
        let mut t = conv_weights();
        t.master_mut()
            .value
            .map_inplace(|v| match (v * 10.0) as i32 {
                0 => -0.0,
                1.. => 0.5,
                _ => -0.25,
            });
        t.master_mut()
            .set_mask(Tensor::from_fn([5, 2, 3, 3], |i| (i % 5 != 0) as u8 as f32));
        t.set_format(WeightFormat::Ternary);
        let (want, mask) = (master_bits(&t), t.master().mask.clone());
        assert!(t.prepare(Some(Form::Codes)));
        assert_eq!(resident(&t), [false, false, false, true, false, false]);
        assert_eq!(t.nnz(), want.iter().filter(|&&b| b << 1 != 0).count());
        assert_eq!(master_bits(&t), want, "the codes decode to the master");
        assert_eq!(t.master().mask, mask, "the rebuilt master keeps its mask");

        // A held gradient keeps the master: the values it belongs to
        // are the ones a training step updates.
        let mut g = conv_weights();
        g.master_mut().grad_mut();
        assert!(!g.prepare(Some(Form::Panels)));
        assert_eq!(resident(&g), [true, false, true, false, false, false]);
    }

    #[test]
    fn a_dropped_master_reads_from_what_the_kernel_reads() {
        let mut w = weights();
        w.master_mut().value.data_mut()[23] = f32::NAN;
        w.master_mut().value.data_mut()[30] = f32::INFINITY;
        let bias = Param::new(Tensor::zeros([5]));
        let mut scanned = 0;
        let at_master = w.first_non_finite_param(&bias, &mut scanned);
        w.prepare(Some(Form::Panels));
        let mut on_panels = 0;
        assert_eq!(w.first_non_finite_param(&bias, &mut on_panels), at_master);
        assert_eq!((at_master, scanned, on_panels), (Some((0, 23)), 1, 1));
        assert_eq!(w.storage().master, None, "the scan rebuilt nothing");
        assert_eq!(w.elems(), 35);
        assert_eq!(w.storage().master, None, "neither did the count");
    }

    #[test]
    fn replica_shares_until_written() {
        let source = weights();
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
