//! Weight forms track the master, whatever happens to it — and to any
//! replica sharing it.
//!
//! `Conv2d` and `Linear` derive storage forms (CSR, packed f32 panels,
//! ternary codes, the F(2×2) and F(4×4) Winograd banks) from `(master
//! weights, format label)`, a warm-up keeps one of them and drops the
//! master behind a lossless one (the panels or the codes), and a
//! replica shares the master and the built forms instead of copying
//! them. One property covers the lifecycle: after *any* interleaving of
//! weight writes, relabels, surgery, warm-ups, master reads, saves,
//! replicas and TTQ reprojections on a layer and its replica, every
//! kernel of each side computes exactly what a freshly constructed
//! layer holding that side's master and label computes — under all
//! five weight routes, over NaN-poisoned scratch of exactly the one
//! bound the layer states — `save_params` writes that layer's bytes, a
//! warm-up leaves one physical form resident, and the two sides share
//! a buffer only when they may: the master until either side writes, a
//! form only while master and label agree. The check reads each side
//! through a replica, so it never rebuilds a master the ops dropped.
//! `ci.sh` runs this file under both `CNN_STACK_GEMM_FORCE_SCALAR`
//! settings. The named cases pin sequences that were once hand-written
//! tests (or bugs) as fixed inputs of the same check.

use cnn_stack::compress::for_each_weight_param;
use cnn_stack::compress::ttq::reproject;
use cnn_stack::nn::network::set_network_format;
use cnn_stack::nn::{
    save_params, Conv2d, ConvAlgorithm, ExecConfig, Flatten, Layer, Linear, Network, ReLU,
    WeightFormat, WeightStorage,
};
use cnn_stack::tensor::{GemmAlgorithm, Tensor};
use proptest::prelude::*;
use Op::*;
use WeightFormat::{Csr, Dense, Ternary};

/// The five weight routes: master (direct conv / scalar linear), the
/// packed engine asked for as `Packed` and as `TernaryPacked` (the value
/// a code row records) — f32 panels, or the 2-bit codes of a `Ternary`
/// label on exactly-ternary weights — and the two Winograd banks (a
/// linear layer runs its packed route under those).
fn cfgs() -> [ExecConfig; 5] {
    use {ConvAlgorithm::*, GemmAlgorithm::*};
    let routes = [
        (Direct, Blocked),
        (Im2col, Packed),
        (Im2col, TernaryPacked),
        (Winograd, Packed),
        (WinogradF4, Packed),
    ];
    routes.map(|(conv_algo, gemm_algo)| ExecConfig {
        conv_algo,
        gemm_algo,
        ..ExecConfig::serial()
    })
}

/// `fill` seeds: two exactly-ternary patterns with different magnitudes
/// (`−0.0` among their zeros), one with mixed magnitudes and planted
/// zeros, one all zero.
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
            (0, 3) => -0.0,
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
    /// Become a replica of the other side, built forms included.
    Replica,
    /// Read the master through `params` (rebuilding it if dropped).
    ReadMaster,
    /// `save_params` on the side's network.
    Save,
    /// TTQ re-projection at one of three thresholds.
    Reproject(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..9, 0u64..1000).prop_map(|(kind, seed)| match kind {
        0 => WeightMut(seed),
        1 => ParamsMut(seed),
        2 => SetFormat([Dense, Csr, Ternary][seed as usize % 3]),
        3 => Remove(seed),
        4 => Prepare(seed as usize % 5),
        5 => Replica,
        6 => ReadMaster,
        7 => Save,
        _ => Reproject(seed),
    })
}

/// The layer under test, as a one-layer network so the network-level
/// passes (`reproject`, `set_network_format`, `replica`) reach it.
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

    /// A replica: what the checks read through, so that a master they
    /// rebuild is the replica's, not this side's.
    fn probe(&self) -> Subject {
        Subject(self.0.replica())
    }

    /// A freshly constructed layer with this one's extents, parameters
    /// (masks included) and format label — and nothing derived yet.
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
        let probe = self.probe();
        let params = twin.layer_mut().params_mut();
        for (dst, src) in params.into_iter().zip(probe.layer().params()) {
            dst.value = src.value.clone();
            dst.mask = src.mask.clone();
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

    /// Which buffers the layer's weights live in.
    fn storage(&self) -> WeightStorage {
        self.0.weight_storage()[0]
    }

    fn format(&self) -> WeightFormat {
        self.layer().descriptor(self.input().shape().dims()).format
    }

    /// Applies a one-sided `op` (`Pair::step` handles `Replica`).
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
            Prepare(i) => {
                self.layer_mut().prepare(&cfgs()[i]);
            }
            Replica => unreachable!("needs the other side"),
            ReadMaster => assert_eq!(self.layer().params().len(), 2),
            Save => unreachable!("`Pair::step` compares the bytes"),
            Reproject(seed) => {
                reproject(&mut self.0, [0.05, 0.2, 0.4][seed as usize % 3]);
            }
        }
    }

    /// `save_params` of this side, read through a replica.
    fn saved(&self) -> Vec<u8> {
        save_params(&mut self.probe().0)
    }

    /// Every weight route agrees, bit for bit, with a fresh twin, and a
    /// `Ternary`-labelled layer's packed routes agree with a
    /// dense-labelled twin's f32 panels. Reads through a replica, so
    /// this side's resident set stays as it was.
    fn check(&self, after: &[Op]) {
        let before = self.storage();
        let (twin, x, probe) = (self.fresh_twin(), self.input(), self.probe());
        for cfg in &cfgs() {
            assert!(
                probe.run(&x, cfg) == twin.run(&x, cfg),
                "{} diverged from a fresh layer under {:?}/{:?} after {after:?}",
                self.layer().name(),
                cfg.conv_algo,
                cfg.gemm_algo,
            );
        }
        if self.format() == Ternary {
            let mut dense = self.fresh_twin();
            set_network_format(&mut dense.0, Dense);
            let f32_panels = dense.run(&x, &cfgs()[1]);
            for cfg in &cfgs()[1..3] {
                assert!(
                    probe.run(&x, cfg) == f32_panels,
                    "{} on its codes left the f32 panels' bits after {after:?}",
                    self.layer().name()
                );
            }
        }
        assert_eq!(self.storage(), before, "the check reached the side it read");
    }
}

/// A layer and its replica. The model of what they may share is two
/// lines: a `Replica` op shares the master, a write to either side
/// un-shares it for good (until the next `Replica`). A side that drops
/// its master and rebuilds it holds a copy of its own, so the model
/// bounds physical sharing from above. `saved` is each side's
/// `save_params` bytes, taken when it was last written (its master
/// resident then): what every later save, of a rebuilt master
/// included, must write.
struct Pair {
    sides: [Subject; 2],
    master_shared: bool,
    saved: [Vec<u8>; 2],
}

impl Pair {
    fn of(layer: impl Layer) -> Pair {
        let source = Subject::of(layer);
        let replica = Subject(source.0.replica());
        let saved = [source.saved(), replica.saved()];
        Pair {
            sides: [source, replica],
            master_shared: true,
            saved,
        }
    }

    /// Applies `op` to side `on`, then checks both sides' kernels and
    /// what the sides share.
    fn step(&mut self, on: usize, op: Op, after: &[(usize, Op)]) {
        let [a, b] = &mut self.sides;
        let (subject, other) = if on == 0 { (a, &*b) } else { (b, &*a) };
        let (before, bystander) = (subject.storage(), other.storage());
        match op {
            Replica => subject.0 = other.0.replica(),
            Save => assert!(
                save_params(&mut subject.0) == self.saved[on],
                "a save wrote other bytes than the layer holds, after {after:?}"
            ),
            _ => subject.apply(op),
        }
        let now = subject.storage();
        // `Remove` writes unless the layer is down to one channel.
        let wrote = match op {
            WeightMut(_) | ParamsMut(_) | Reproject(_) => true,
            Remove(_) => now.master != before.master,
            Replica | SetFormat(_) | Prepare(_) | ReadMaster | Save => false,
        };
        // A master that was resident stays put unless written or prepared
        // away, and every route but a warm-up leaves one resident.
        let kept = before.master.is_none() || now.master == before.master;
        if wrote {
            assert_eq!(now.forms, [None; 5], "a write drops every form");
            assert!(now.master.is_some(), "a write leaves the master it wrote");
            self.master_shared = false;
            self.saved[on] = subject.saved();
        } else if let SetFormat(_) = op {
            assert_eq!(now.forms, [None; 5], "a relabel drops every form");
            assert!(now.master.is_some() && kept, "a relabel is not a write");
        } else if let Replica = op {
            assert_eq!(now, bystander, "a replica shares everything built");
            self.master_shared = true;
            self.saved[on] = self.saved[1 - on].clone();
        } else if let Prepare(_) = op {
            // One physical form: a lossless one (f32 or code panels)
            // alone, or the master with at most one form beside it.
            let lossless = now.forms[1].is_some() || now.forms[2].is_some();
            assert!(now.forms.iter().flatten().count() <= 1, "{now:?}");
            assert_eq!(now.master.is_none(), lossless, "{now:?} after {after:?}");
        } else {
            assert!(now.master.is_some() || before.master.is_none(), "{op:?}");
            assert!(kept && now.forms == before.forms, "{op:?} is not a write");
        }
        assert_eq!(other.storage(), bystander, "{op:?} reached the other side");

        let [a, b] = &self.sides;
        let (sa, sb) = (a.storage(), b.storage());
        if sa.master.is_some() && sa.master == sb.master {
            assert!(self.master_shared, "master sharing after {after:?}");
        }
        for (fa, fb) in sa.forms.iter().zip(&sb.forms) {
            if fa.is_some() && fa == fb {
                assert!(
                    self.master_shared && a.format() == b.format(),
                    "a form outlived the master or label it was derived from, after {after:?}"
                );
            }
        }
        let ops: Vec<Op> = after.iter().map(|&(_, op)| op).collect();
        for (side, saved) in [a, b].into_iter().zip(&self.saved) {
            assert!(
                side.saved() == *saved,
                "saved bytes drifted after {after:?}"
            );
            side.check(&ops);
        }
    }
}

/// Applies `ops` to a conv and a linear layer (or to its replica, per
/// the side index), checking both sides after each.
fn check_interleaving(ops: &[(usize, Op)]) {
    for mut pair in [
        Pair::of(Conv2d::new(3, 5, 3, 1, 1, 9)),
        Pair::of(Linear::new(12, 7, 5)),
    ] {
        pair.sides[0].check(&[]);
        pair.sides[1].check(&[]);
        for (i, &(on, op)) in ops.iter().enumerate() {
            pair.step(on, op, &ops[..=i]);
        }
    }
}

/// The single-layer lifecycle: every op on the source side.
fn check_sequence(ops: &[Op]) {
    let ops: Vec<(usize, Op)> = ops.iter().map(|&op| (0, op)).collect();
    check_interleaving(&ops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn derived_forms_equal_a_fresh_layers_after_any_sequence(
        ops in collection::vec((0usize..2, op_strategy()), 1..8),
    ) {
        check_interleaving(&ops);
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
    linear_ternary_snapshot_bit_matches_f32_packed: [SetFormat(Ternary), ParamsMut(TERNARY_B), Prepare(2)];
    conv_weight_mut_drops_stale_ternary_panels:
        [WeightMut(TERNARY_A), SetFormat(Ternary), Prepare(2), WeightMut(TERNARY_B)];
    linear_weight_mut_drops_stale_ternary_panels:
        [SetFormat(Ternary), WeightMut(TERNARY_A), WeightMut(MIXED), WeightMut(TERNARY_B)];
    linear_format_flips_replace_or_drop_panels:
        [WeightMut(TERNARY_A), SetFormat(Ternary), SetFormat(Csr), SetFormat(Dense)];
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
    /// A built bank is dropped by `master_mut`, `replace` and
    /// `set_format`, and whichever bank the next step reads is rebuilt
    /// from the weights it then holds.
    winograd_banks_follow_writes_surgery_and_relabels:
        [Prepare(4), WeightMut(MIXED), Prepare(3), Remove(0), Prepare(4), SetFormat(Dense), Prepare(4)];
    /// A master dropped behind its codes or panels comes back bit for
    /// bit for a read, a save, a write, surgery and a warm-up that
    /// switches forms, and goes again at the next lossless warm-up.
    dropped_masters_rebuild_for_every_reader_and_writer:
        [WeightMut(TERNARY_A), SetFormat(Ternary), Prepare(2), ReadMaster, Prepare(2), Save,
         Prepare(1), Prepare(4), Prepare(1), Remove(3), Prepare(2), WeightMut(MIXED)];
}

/// A guard demotion from a layer whose master is dropped — codes → f32
/// panels, packed → direct — rebuilds the master from the form it
/// leaves and lands bit-identical to a cold compile of the demoted plan.
#[cfg(feature = "fault-inject")]
#[test]
fn demotion_from_a_dropped_master_matches_a_cold_compile() {
    use cnn_stack::nn::{AlgoChoice, FaultPlan, InferencePlan, InferenceSession};
    let x = Tensor::from_fn([2, 3, 6, 6], |i| (i as f32 * 0.17).sin());
    let net = |label| {
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(3, 5, 3, 1, 1, 9)),
            Box::new(ReLU::new()),
        ])
        .unwrap();
        for_each_weight_param(&mut net, |_, p| fill(p.value.data_mut(), TERNARY_A));
        set_network_format(&mut net, label);
        net
    };
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    use {AlgoChoice::*, GemmAlgorithm::*};
    for (label, gemm_algo, from, to) in [
        (Ternary, TernaryPacked, TernaryConv, Im2colPacked),
        (Dense, Packed, Im2colPacked, DirectConv),
    ] {
        let cfg = ExecConfig {
            conv_algo: ConvAlgorithm::Im2col,
            gemm_algo,
            ..ExecConfig::serial()
        };
        let mut hot = net(label);
        let plan = InferencePlan::compile(&hot, x.shape().dims(), &cfg).unwrap();
        let mut session = InferenceSession::new(&mut hot, plan).unwrap();
        assert_eq!(session.network().weight_storage()[0].master, None);
        session.inject_faults(FaultPlan::new().panic_in_kernel(0, 0));
        let got = session.run(&x).expect("the session recovers by demotion");
        let demotions = &session.health().demotions;
        assert_eq!((demotions[0].from, demotions[0].to), (from, to));
        // The direct kernel reads the master; the f32 panels stand in for
        // it again.
        let storage = session.network().weight_storage()[0];
        assert_eq!(storage.master.is_some(), to == DirectConv, "{storage:?}");

        let mut cold_cfg = cfg;
        let mut cold = net(to.select(&mut cold_cfg));
        let plan = InferencePlan::compile(&cold, x.shape().dims(), &cold_cfg).unwrap();
        let want = InferenceSession::new(&mut cold, plan)
            .unwrap()
            .run(&x)
            .unwrap();
        assert_eq!(bits(&got), bits(&want), "{from:?} -> {to:?}");
    }
}

/// A replica reads the source's buffers, not equal copies of them;
/// each side's label is its own; and in a multi-layer network a write
/// un-shares exactly the layer written.
#[test]
fn replica_shares_storage_until_written() {
    let ternary = cfgs()[2];
    let mut source = Subject::of(Linear::new(12, 7, 31));
    source.apply(WeightMut(TERNARY_A));
    source.apply(SetFormat(Ternary));
    source.apply(Prepare(2));
    assert!(
        source.storage().forms[2].is_some(),
        "ternary codes are built"
    );

    let mut replica = Subject(source.0.replica());
    assert_eq!(replica.storage(), source.storage());
    let x = replica.input();
    assert_eq!(replica.run(&x, &ternary), source.run(&x, &ternary));

    // The codes stand in for the master on both sides. A relabel is per
    // side: the replica rebuilds a master of its own from the shared
    // codes, and the source keeps its codes alone.
    assert_eq!(source.storage().master, None);
    replica.apply(SetFormat(Dense));
    assert!(replica.storage().master.is_some());
    assert_eq!(source.storage().master, None);
    assert_eq!(replica.storage().forms, [None; 5]);
    assert!(source.storage().forms[2].is_some());
    assert_eq!(source.format(), Ternary);

    // A write copies: the source computes what it did.
    let before = source.run(&x, &ternary);
    replica.apply(WeightMut(TERNARY_B));
    assert_ne!(replica.storage().master, source.storage().master);
    assert_eq!(source.run(&x, &ternary), before);
    assert_ne!(replica.run(&x, &ternary), before);

    // f32 panels under im2col, the F(4×4) bank under Winograd: the
    // convolutions' form is shared, written, and un-shared alike.
    for (cfg, conv_form) in [(cfgs()[1], 1), (cfgs()[4], 4)] {
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, 1)),
            Box::new(ReLU::new()),
            Box::new(Conv2d::new(4, 4, 3, 1, 1, 2)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 6 * 6, 5, 3)),
        ])
        .unwrap();
        for layer in net.layers_mut() {
            layer.prepare(&cfg);
        }
        let mut twin = net.replica();
        assert_eq!(twin.weight_storage(), net.weight_storage());
        assert!(net.weight_storage()[..2]
            .iter()
            .all(|s| s.forms[conv_form].is_some()));
        let middle = twin.layers_mut()[2].as_any_mut();
        let middle = middle.downcast_mut::<Conv2d>().unwrap();
        middle.weight_mut().value.fill(0.5);
        let (ours, theirs) = (twin.weight_storage(), net.weight_storage());
        assert_ne!(ours[1].master, theirs[1].master);
        assert_eq!(ours[1].forms, [None; 5]);
        assert!(
            theirs[1].forms[conv_form].is_some(),
            "the source keeps its form"
        );
        assert_eq!((ours[0], ours[2]), (theirs[0], theirs[2]));
    }
}
