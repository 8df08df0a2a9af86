//! The deployment endgame: take a trained, compressed model all the way
//! to a shippable artifact — batch-norm folding, parameter
//! serialisation, and the Deep Compression storage pipeline
//! (prune → ternarise → Huffman) with the 2-bit code panels a compiled
//! plan runs as the on-device format.
//!
//! ```bash
//! cargo run --release --example storage_deployment
//! ```

use cnn_stack::compress::{code_ternary_network, magnitude, ttq};
use cnn_stack::models::vgg16_width;
use cnn_stack::nn::network::set_network_format;
use cnn_stack::nn::{
    fold_batchnorm, load_params, save_params, strip_identity_batchnorms, ConvAlgorithm, ExecConfig,
    InferencePlan, InferenceSession, Phase, WeightFormat,
};
use cnn_stack::tensor::{GemmPlan, Tensor};

fn main() {
    let mut model = vgg16_width(10, 0.25);
    let exec = ExecConfig::default();
    let probe = Tensor::from_fn([1, 3, 32, 32], |i| (i as f32 * 0.001).sin());

    // Warm the batch statistics (stands in for training).
    for seed in 0..3u64 {
        let x = Tensor::from_fn([4, 3, 32, 32], |i| {
            ((i as u64 * 31 + seed) % 23) as f32 * 0.08
        });
        let _ = model.network.forward(&x, Phase::Train, &exec);
    }
    let reference = model.network.forward(&probe, Phase::Eval, &exec);

    // Step 1: deployment-time graph surgery — fold + strip batch norms.
    let folded = fold_batchnorm(&mut model.network);
    let stripped = strip_identity_batchnorms(&mut model.network);
    let after = model.network.forward(&probe, Phase::Eval, &exec);
    println!(
        "step 1: folded {folded} batch norms, stripped {stripped}; \
         output drift {:.2e}",
        max_abs_diff(&reference, &after)
    );

    // Step 2: serialise the deployable parameters.
    let blob = save_params(&mut model.network);
    println!(
        "step 2: serialised {} parameters to {:.2} MB",
        model.network.num_params(),
        blob.len() as f64 / 1e6
    );
    let mut reloaded = vgg16_width(10, 0.25);
    fold_batchnorm(&mut reloaded.network);
    strip_identity_batchnorms(&mut reloaded.network);
    load_params(&mut reloaded.network, &blob).expect("same architecture");
    let reload_out = reloaded.network.forward(&probe, Phase::Eval, &exec);
    assert!(after.allclose(&reload_out, 0.0), "reload must be exact");
    println!("        reloaded blob reproduces outputs bit-exactly");

    // Step 3: the Deep Compression storage pipeline on the weights.
    magnitude::prune_network(&mut model.network, 0.7654); // Table III VGG
    ttq::ttq_quantise(&mut model.network, 0.0);
    let report = code_ternary_network(&mut model.network);
    println!(
        "step 3: prune+ternarise+Huffman: {:.2} MB -> {:.3} MB \
         ({:.2} bits/weight, {:.0}x)",
        report.dense_bytes as f64 / 1e6,
        report.coded_bytes as f64 / 1e6,
        report.bits_per_weight,
        report.dense_bytes as f64 / report.coded_bytes as f64,
    );

    // Step 4: the on-device format — a plan compiled for the packed
    // engine runs each `Ternary`-labelled layer on 2-bit code panels, and
    // its session holds them in place of the f32 weights.
    let extents: Vec<(usize, usize)> = model
        .network
        .params()
        .iter()
        .filter(|p| p.value.shape().rank() > 1)
        .map(|p| {
            (
                p.value.shape().dims()[0],
                p.value.len() / p.value.shape().dims()[0],
            )
        })
        .collect();
    set_network_format(&mut model.network, WeightFormat::Ternary);
    let deploy = ExecConfig {
        conv_algo: ConvAlgorithm::Im2col,
        ..ExecConfig::serial()
    };
    let plan = InferencePlan::compile(&model.network, &[1, 3, 32, 32], &deploy)
        .expect("VGG-16 compiles for the packed engine");
    let session = InferenceSession::new(&mut model.network, plan).expect("session builds");
    let storage = session.network().weight_storage();
    let (mut dense_bytes, mut code_bytes, mut coded) = (0usize, 0usize, 0usize);
    for (&(rows, cols), layer) in extents.iter().zip(&storage) {
        dense_bytes += rows * cols * 4;
        if layer.forms[2].is_some() {
            code_bytes += GemmPlan::new(rows, cols, 1).packed_a_code_words() * 4;
            coded += 1;
        }
    }
    println!(
        "step 4: the compiled plan holds {coded}/{} layers as 2-bit code panels: \
         {:.2} MB of f32 weights -> {:.3} MB of codes ({:.1}x)",
        storage.len(),
        dense_bytes as f64 / 1e6,
        code_bytes as f64 / 1e6,
        dense_bytes as f64 / code_bytes as f64,
    );
    println!(
        "\nThe across-stack caveat (Tables IV/VI): these storage wins do not\n\
         translate to runtime memory or speed on unmodified kernels — that\n\
         requires the layer-3/4 co-design the paper argues for."
    );
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}
