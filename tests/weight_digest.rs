//! Every weight the model builders draw is pinned: a digest of every
//! parameter of VGG-16, MobileNet and ResNet-18 at full width, and of the
//! ternary-quantised VGG-16 the served workload materialises, against
//! constants recorded before the initialisers were vectorised. The
//! end-to-end correctness check cannot see an initialisation drift (its
//! reference is built by the same `initialise`); this test fails on one.

use cnn_stack::models::ModelKind;
use cnn_stack::nn::{Network, WeightFormat};
use cnn_stack::stack::{try_materialise, CompressionChoice, PlatformChoice, StackConfig};

/// FNV-1a over the bits of every parameter value, each layer's
/// `params_mut` in `visit_mut` order (a composite's parameters are folded
/// once for the block and once per child), and the count of values
/// folded.
fn digest(network: &mut Network) -> (u64, usize) {
    let (mut h, mut count) = (0xcbf2_9ce4_8422_2325u64, 0usize);
    for layer in network.layers_mut() {
        layer.visit_mut(&mut |l| {
            for p in l.params_mut() {
                for v in p.value.data() {
                    h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
                }
                count += p.value.len();
            }
        });
    }
    (h, count)
}

#[test]
fn full_width_weights_are_pinned() {
    for (kind, want) in [
        (ModelKind::Vgg16, (0x13d5_b613_7d42_a38e, 14_990_922)),
        (ModelKind::MobileNet, (0x7509_8e00_5c14_3588, 3_228_170)),
        (ModelKind::ResNet18, (0x5019_21f7_aa9b_c4bf, 22_350_474)),
    ] {
        let mut model = kind.build_width(10, 1.0);
        let (h, count) = digest(&mut model.network);
        assert_eq!(count, want.1, "{kind} folds a different number of values");
        assert_eq!(h, want.0, "{kind}'s weights drifted: digest {h:#018x}");
    }
}

#[test]
fn ternary_vgg16_weights_are_pinned() {
    let cfg = StackConfig::plain(ModelKind::Vgg16, PlatformChoice::IntelI7)
        .compress(CompressionChoice::TernaryQuantisation { threshold: 0.09 })
        .format(WeightFormat::Ternary);
    let mut model = try_materialise(&cfg, 1.0).expect("a valid operating point");
    let (h, _) = digest(&mut model.network);
    assert_eq!(
        h, 0xec71_fa1f_aa6c_dfa8,
        "TTQ VGG-16 drifted: digest {h:#018x}"
    );
}
