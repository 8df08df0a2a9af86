//! Ablation: direct vs im2col convolution, dense vs CSR weights —
//! *measured on the build host* with real kernel executions (width-scaled
//! models so a run takes seconds).

use cnn_stack_bench::{fmt_seconds, render_table};
use cnn_stack_models::ModelKind;
use cnn_stack_nn::network::set_network_format;
use cnn_stack_nn::{ConvAlgorithm, ExecConfig, Phase, WeightFormat};
use cnn_stack_tensor::Tensor;
use std::time::Instant;

fn measure(kind: ModelKind, format: WeightFormat, algo: ConvAlgorithm, sparsity: f64) -> f64 {
    let mut model = kind.build_width(10, 0.25);
    if sparsity > 0.0 {
        cnn_stack_compress::magnitude::prune_network(&mut model.network, sparsity);
    }
    set_network_format(&mut model.network, format);
    let exec = ExecConfig {
        conv_algo: algo,
        ..ExecConfig::serial()
    };
    let input = Tensor::zeros([1, 3, 32, 32]);
    let _ = model.network.forward(&input, Phase::Eval, &exec); // warm
    let repeats = 3;
    let start = Instant::now();
    for _ in 0..repeats {
        let _ = model.network.forward(&input, Phase::Eval, &exec);
    }
    start.elapsed().as_secs_f64() / repeats as f64
}

fn main() {
    let mut rows = Vec::new();
    for kind in ModelKind::all() {
        for (label, format, sparsity) in [
            ("dense", WeightFormat::Dense, 0.0),
            ("CSR 80% sparse", WeightFormat::Csr, 0.8),
        ] {
            let direct = measure(kind, format, ConvAlgorithm::Direct, sparsity);
            let im2col = measure(kind, format, ConvAlgorithm::Im2col, sparsity);
            let winograd = measure(kind, format, ConvAlgorithm::Winograd, sparsity);
            rows.push(vec![
                kind.name().to_string(),
                label.to_string(),
                fmt_seconds(direct),
                fmt_seconds(im2col),
                fmt_seconds(winograd),
                format!("{:.2}x", im2col / direct),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            "Ablation: convolution algorithm x weight format (host-measured, width 0.25, 1 thread)",
            &[
                "Model",
                "Weights",
                "Direct",
                "im2col+GEMM",
                "Winograd",
                "im2col/direct"
            ],
            &rows,
        )
    );
    println!(
        "\nReal executions on this host. Winograd applies to dense 3x3 stride-1\n\
         layers only. A CSR layer runs its one kernel (CSR rows times the\n\
         im2col columns) under every algorithm, so its three columns time\n\
         the same kernel. Note that on this x86\n\
         machine with these Rust kernels, CSR at 80% sparsity *does* beat\n\
         dense — unlike the paper's ARM/C measurements. Kernel-level sparse\n\
         performance is implementation- and platform-specific, which is why\n\
         the figure harness reproduces the paper's platforms with the\n\
         calibrated analytic model (DESIGN.md section 4) instead of host\n\
         wall-clock."
    );
}
