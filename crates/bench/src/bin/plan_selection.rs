//! Prints the cost model's per-layer algorithm selection over a mixed
//! VGG-16 / MobileNet layer sweep, both unbudgeted and under a tight
//! arena budget — the source of the plan-selection table in
//! `EXPERIMENTS.md`.
//!
//!   cargo run --release -p cnn-stack-bench --bin plan_selection

use cnn_stack_nn::{Conv2d, ExecConfig, Layer, Network, PlanCompiler};

struct Row {
    name: &'static str,
    in_c: usize,
    out_c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
}

fn net(r: &Row) -> Network {
    Network::new(vec![
        Box::new(Conv2d::new(r.in_c, r.out_c, r.k, r.stride, r.pad, 7)) as Box<dyn Layer>,
    ])
    .expect("single-layer net")
}

/// The tag selection appended to the step name, e.g. "im2col-packed".
fn chosen(name: &str) -> String {
    name.rsplit_once(" [")
        .map(|(_, tag)| tag.trim_end_matches(']').to_string())
        .unwrap_or_else(|| "(base)".to_string())
}

fn main() {
    let rows = [
        Row {
            name: "vgg16 conv1_1  3->64    32x32 k3 s1",
            in_c: 3,
            out_c: 64,
            h: 32,
            w: 32,
            k: 3,
            stride: 1,
            pad: 1,
        },
        Row {
            name: "vgg16 conv2_2  128->128 16x16 k3 s1",
            in_c: 128,
            out_c: 128,
            h: 16,
            w: 16,
            k: 3,
            stride: 1,
            pad: 1,
        },
        Row {
            name: "vgg16 conv4_1  512->512 4x4   k3 s1",
            in_c: 512,
            out_c: 512,
            h: 4,
            w: 4,
            k: 3,
            stride: 1,
            pad: 1,
        },
        Row {
            name: "vgg16 conv5_3  512->512 2x2   k3 s1",
            in_c: 512,
            out_c: 512,
            h: 2,
            w: 2,
            k: 3,
            stride: 1,
            pad: 1,
        },
        Row {
            name: "mobilenet stem 3->32    32x32 k3 s2",
            in_c: 3,
            out_c: 32,
            h: 32,
            w: 32,
            k: 3,
            stride: 2,
            pad: 1,
        },
        Row {
            name: "mobilenet pw   64->128  16x16 k1 s1",
            in_c: 64,
            out_c: 128,
            h: 16,
            w: 16,
            k: 1,
            stride: 1,
            pad: 0,
        },
        Row {
            name: "mobilenet pw   256->256 8x8   k1 s1",
            in_c: 256,
            out_c: 256,
            h: 8,
            w: 8,
            k: 1,
            stride: 1,
            pad: 0,
        },
    ];
    println!(
        "{:<38} {:>15} {:>15}",
        "layer", "unbudgeted", "tight budget"
    );
    for r in &rows {
        let shape = [1usize, r.in_c, r.h, r.w];
        let mut free_net = net(r);
        let free = PlanCompiler::standard()
            .run(&mut free_net, &shape, &ExecConfig::serial())
            .expect("plan compiles");
        let free_choice = chosen(&free.steps()[0].name);
        let peak = free.footprint().peak_bytes;

        let capped_cfg = ExecConfig::builder()
            .plan_budget(peak.saturating_sub(1).max(1))
            .build()
            .expect("valid config");
        let mut capped_net = net(r);
        let capped_choice = match PlanCompiler::standard().run(&mut capped_net, &shape, &capped_cfg)
        {
            Ok(plan) => chosen(&plan.steps()[0].name),
            Err(_) => "(infeasible)".to_string(),
        };
        println!("{:<38} {:>15} {:>15}", r.name, free_choice, capped_choice);
    }
}
