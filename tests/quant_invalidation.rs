//! Derived weight forms track the master, whatever happens to it.
//!
//! `Conv2d` and `Linear` derive up to three storage forms (CSR, packed
//! f32 panels, ternary/int8 codes) from `(master weights, format
//! label)`. One property covers the lifecycle: after *any* sequence of
//! weight writes, relabels, surgery, warm-ups, adoptions and TTQ
//! reprojections, every kernel computes exactly what a freshly
//! constructed layer holding the same master and label computes — under
//! all four weight routes, over NaN-poisoned scratch of exactly the one
//! bound the layer states. `ci.sh` runs this file under both
//! `CNN_STACK_GEMM_FORCE_SCALAR` settings. The named cases pin
//! sequences that were once hand-written tests (or bugs) as fixed
//! inputs of the same check.

use cnn_stack::compress::for_each_weight_param;
use cnn_stack::compress::ttq::reproject;
use cnn_stack::nn::network::set_network_format;
use cnn_stack::nn::{
    adopt_panels, export_panels, Conv2d, ConvAlgorithm, ExecConfig, Layer, Linear, Network,
    WeightFormat,
};
use cnn_stack::tensor::{GemmAlgorithm, Tensor};
use proptest::prelude::*;
use Op::*;
use WeightFormat::{Csr, Dense, Int8, Ternary};

/// The four weight routes: master (direct conv / scalar linear), f32
/// panels, ternary codes, int8 codes (linear only; conv runs f32).
fn cfgs() -> [ExecConfig; 4] {
    use {ConvAlgorithm::*, GemmAlgorithm::*};
    let routes = [
        (Direct, Blocked),
        (Im2col, Packed),
        (Im2col, TernaryPacked),
        (Im2col, Int8Packed),
    ];
    routes.map(|(conv_algo, gemm_algo)| ExecConfig {
        conv_algo,
        gemm_algo,
        ..ExecConfig::serial()
    })
}

/// `fill` seeds: two exactly-ternary patterns with different magnitudes,
/// one with mixed magnitudes and planted zeros, one all zero.
const TERNARY_A: u64 = 3;
const TERNARY_B: u64 = 6;
const MIXED: u64 = 1;
const ZERO: u64 = 2;

/// Deterministic weight pattern; `seed % 3` picks ternary / mixed / zero.
fn fill(data: &mut [f32], seed: u64) {
    let (wp, wn) = (
        0.25 + (seed % 5) as f32 * 0.125,
        0.5 + (seed % 4) as f32 * 0.25,
    );
    for (i, v) in data.iter_mut().enumerate() {
        let draw = (i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 7;
        *v = match (seed % 3, draw) {
            (0, 0 | 1) => wp,
            (0, 2) => -wn,
            (1, d) => [1.0, 0.8, -0.3, -0.2, 0.04, 0.0, 0.0][d as usize],
            _ => 0.0,
        };
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Rewrite the weights through `weight_mut`.
    WeightMut(u64),
    /// Rewrite them through `params_mut` (masked pruning's route).
    ParamsMut(u64),
    SetFormat(WeightFormat),
    /// `remove_out_channel` / `remove_in_channel` / `remove_in_features`.
    Remove(u64),
    /// `prepare` under `cfgs()[i]`.
    Prepare(usize),
    /// Adopt what a fresh twin exports after preparing under `cfgs()[i]`.
    Adopt(usize),
    /// TTQ re-projection at one of three thresholds.
    Reproject(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..7, 0u64..1000).prop_map(|(kind, seed)| match kind {
        0 => WeightMut(seed),
        1 => ParamsMut(seed),
        2 => SetFormat([Dense, Csr, Ternary, Int8][seed as usize % 4]),
        3 => Remove(seed),
        4 => Prepare(seed as usize % 4),
        5 => Adopt(seed as usize % 4),
        _ => Reproject(seed),
    })
}

/// The layer under test, as a one-layer network so the network-level
/// passes (`reproject`, `set_network_format`, panel sharing) reach it.
struct Subject(Network);

impl Subject {
    fn of(layer: impl Layer) -> Subject {
        Subject(Network::new(vec![Box::new(layer)]).unwrap())
    }

    fn layer(&self) -> &dyn Layer {
        self.0.layers()[0].as_ref()
    }

    fn layer_mut(&mut self) -> &mut dyn Layer {
        self.0.layers_mut()[0].as_mut()
    }

    /// A freshly constructed layer with this one's extents, parameters
    /// and format label — and nothing derived yet.
    fn fresh_twin(&self) -> Subject {
        let any = self.layer().as_any();
        let (mut twin, format) = match any.downcast_ref::<Conv2d>() {
            Some(c) => (
                Subject::of(Conv2d::new(c.in_channels(), c.out_channels(), 3, 1, 1, 0)),
                c.format(),
            ),
            None => {
                let fc = any.downcast_ref::<Linear>().unwrap();
                let twin = Subject::of(Linear::new(fc.in_features(), fc.out_features(), 0));
                (twin, fc.format())
            }
        };
        let params = twin.layer_mut().params_mut();
        for (dst, src) in params.into_iter().zip(self.layer().params()) {
            dst.value = src.value.clone();
        }
        set_network_format(&mut twin.0, format);
        twin
    }

    fn input(&self) -> Tensor {
        let any = self.layer().as_any();
        let shape = match any.downcast_ref::<Conv2d>() {
            Some(c) => vec![2, c.in_channels(), 6, 6],
            None => vec![3, any.downcast_ref::<Linear>().unwrap().in_features()],
        };
        Tensor::from_fn(shape, |i| (i as f32 * 0.17).sin())
    }

    /// `forward_into` over NaN-poisoned buffers of exactly the stated
    /// sizes; output as bit patterns.
    fn run(&self, x: &Tensor, cfg: &ExecConfig) -> Vec<u32> {
        let (shape, layer) = (x.shape().dims(), self.layer());
        let mut out = vec![f32::NAN; layer.descriptor(shape).output_elems];
        let mut scratch = vec![f32::NAN; layer.forward_scratch_elems(shape, cfg)];
        layer.forward_into(x.data(), shape, &mut out, &mut scratch, cfg);
        out.iter().map(|v| v.to_bits()).collect()
    }

    fn apply(&mut self, op: Op) {
        match op {
            WeightMut(seed) => {
                for_each_weight_param(&mut self.0, |_, p| fill(p.value.data_mut(), seed))
            }
            ParamsMut(seed) => fill(self.layer_mut().params_mut()[0].value.data_mut(), seed),
            SetFormat(format) => set_network_format(&mut self.0, format),
            Remove(seed) => {
                let (any, pick) = (self.layer_mut().as_any_mut(), seed as usize / 2);
                if let Some(c) = any.downcast_mut::<Conv2d>() {
                    if seed % 2 == 0 && c.out_channels() > 1 {
                        c.remove_out_channel(pick % c.out_channels());
                    } else if c.in_channels() > 1 {
                        c.remove_in_channel(pick % c.in_channels());
                    }
                } else if let Some(fc) = any.downcast_mut::<Linear>() {
                    if fc.in_features() > 1 {
                        fc.remove_in_features(pick % fc.in_features(), 1);
                    }
                }
            }
            Prepare(i) => self.layer_mut().prepare(&cfgs()[i]),
            Adopt(i) => {
                let mut twin = self.fresh_twin();
                twin.layer_mut().prepare(&cfgs()[i]);
                let offered = export_panels(&mut twin.0);
                let adopted = adopt_panels(&mut self.0, &offered);
                assert_eq!(adopted, offered.iter().flatten().count(), "twin refused");
            }
            Reproject(seed) => {
                reproject(&mut self.0, [0.05, 0.2, 0.4][seed as usize % 3]);
            }
        }
    }

    /// Every weight route agrees, bit for bit, with a fresh twin (int8
    /// included: both quantise the same master), and a layer with
    /// ternary codes agrees with itself on f32 panels.
    fn check(&self, after: &[Op]) {
        let (twin, x) = (self.fresh_twin(), self.input());
        for cfg in &cfgs() {
            assert!(
                self.run(&x, cfg) == twin.run(&x, cfg),
                "{} diverged from a fresh layer under {:?}/{:?} after {after:?}",
                self.layer().name(),
                cfg.conv_algo,
                cfg.gemm_algo,
            );
        }
        if self.layer().descriptor(x.shape().dims()).format == Ternary {
            assert!(self.run(&x, &cfgs()[2]) == self.run(&x, &cfgs()[1]));
        }
    }
}

/// Applies `ops` to a conv and a linear layer, checking after each.
fn check_sequence(ops: &[Op]) {
    for mut subject in [
        Subject::of(Conv2d::new(3, 5, 3, 1, 1, 9)),
        Subject::of(Linear::new(12, 7, 5)),
    ] {
        subject.check(&[]);
        for (i, &op) in ops.iter().enumerate() {
            subject.apply(op);
            subject.check(&ops[..=i]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn derived_forms_equal_a_fresh_layers_after_any_sequence(
        ops in collection::vec(op_strategy(), 1..8),
    ) {
        check_sequence(&ops);
    }
}

/// Declares one `#[test]` per pinned sequence.
macro_rules! pinned {
    ($($(#[$doc:meta])* $name:ident: [$($op:expr),+];)+) => {$(
        $(#[$doc])*
        #[test]
        fn $name() {
            check_sequence(&[$($op),+]);
        }
    )+};
}

pinned! {
    conv_ternary_snapshot_bit_matches_f32_packed: [WeightMut(TERNARY_A), SetFormat(Ternary), Prepare(2)];
    linear_ternary_snapshot_bit_matches_f32_packed: [SetFormat(Ternary), ParamsMut(TERNARY_B), Adopt(2)];
    conv_weight_mut_drops_stale_ternary_panels:
        [WeightMut(TERNARY_A), SetFormat(Ternary), Prepare(2), WeightMut(TERNARY_B)];
    linear_weight_mut_drops_stale_ternary_panels:
        [SetFormat(Ternary), WeightMut(TERNARY_A), WeightMut(MIXED), WeightMut(TERNARY_B)];
    linear_format_flips_replace_or_drop_panels:
        [WeightMut(TERNARY_A), SetFormat(Ternary), SetFormat(Int8), SetFormat(Dense)];
    conv_non_ternary_weights_fall_back_defined: [WeightMut(MIXED), SetFormat(Ternary), Prepare(2)];
    reproject_drops_stale_quant_panels:
        [WeightMut(MIXED), Reproject(0), SetFormat(Ternary), Prepare(2), Reproject(2)];
    /// A CSR-labelled layer keeps running CSR — rebuilt, never missing,
    /// never silently dense — after `weight_mut` and channel surgery.
    csr_layers_rebuild_after_weight_mut_and_surgery:
        [SetFormat(Csr), WeightMut(MIXED), Remove(0), Remove(1)];
    /// Weights rewritten through `params_mut` reach the sparse kernel.
    csr_layers_follow_params_mut_writes:
        [SetFormat(Csr), Prepare(0), ParamsMut(ZERO), ParamsMut(MIXED)];
}

#[test]
fn adoption_shares_storage_and_rejects_foreign_donors() {
    let build = |in_features, fill_seed, format| {
        let mut subject = Subject::of(Linear::new(in_features, 7, 31));
        subject.apply(WeightMut(fill_seed));
        subject.apply(SetFormat(format));
        subject
    };
    let ternary = cfgs()[2];
    let mut donor = build(12, TERNARY_A, Ternary);
    donor.apply(Prepare(2));
    let panels = export_panels(&mut donor.0);
    assert_eq!(panels.iter().flatten().count(), 1);

    // A replica holding the same weights shares the donor's buffers.
    let mut replica = build(12, TERNARY_A, Ternary);
    assert_eq!(adopt_panels(&mut replica.0, &panels), 1);
    let shared = export_panels(&mut replica.0);
    assert!(shared[0]
        .as_ref()
        .unwrap()
        .ptr_eq(panels[0].as_ref().unwrap()));
    let x = replica.input();
    assert_eq!(replica.run(&x, &ternary), donor.run(&x, &ternary));

    // Same shape, same label, other weights: refused, and the layer
    // computes exactly what it computes cold.
    let cold = build(12, TERNARY_B, Ternary).run(&x, &ternary);
    let mut foreign = build(12, TERNARY_B, Ternary);
    assert_eq!(adopt_panels(&mut foreign.0, &panels), 0);
    assert_eq!(foreign.run(&x, &ternary), cold);
    assert_ne!(cold, donor.run(&x, &ternary));

    // Other label, other shape: refused.
    for mut misfit in [build(12, TERNARY_A, Dense), build(10, TERNARY_A, Ternary)] {
        assert_eq!(adopt_panels(&mut misfit.0, &panels), 0);
    }
}
