//! Quickstart: build one of the paper's models, run inference on
//! CIFAR-10-shaped data, inspect the workload the way the paper's
//! characterisation does (MACs, parameters, per-layer timing) — then
//! serve the same model under concurrent traffic through the serving
//! layer.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use cnn_stack::dataset::{DatasetConfig, SyntheticCifar};
use cnn_stack::prelude::*;

fn main() {
    // A width-scaled ResNet-18 so the example runs in seconds; pass 1.0
    // for the paper's full-size model.
    let mut model = resnet18_width(10, 0.25);
    println!("model: {} (width 0.25)", model.kind.name());

    let input_shape = [8usize, 3, 32, 32];
    println!("parameters: {}", model.network.num_params());
    println!("MACs/batch8: {}", model.network.macs(&input_shape));

    // CIFAR-10-shaped synthetic data (geometry-identical substitute; see
    // DESIGN.md section 5).
    let data = SyntheticCifar::new(DatasetConfig::tiny(0));
    let (images, labels) = data.test_batch(0, 8);

    // Compile the network once into an inference plan (shapes, conv
    // algorithm choices, arena size), then execute through the session:
    // repeat runs reuse the same activation arena with no per-layer
    // allocation, and the session keeps per-layer counters.
    let exec = ExecConfig::default();
    let plan = InferencePlan::compile(&model.network, &input_shape, &exec)
        .expect("the model accepts CIFAR-shaped input");
    println!(
        "plan: {} steps, {:.1} KiB activation arena",
        plan.steps().len(),
        plan.footprint().peak_bytes as f64 / 1024.0
    );
    let mut session =
        InferenceSession::new(&mut model.network, plan).expect("plan matches this network");
    let logits = session.run(&images).expect("input matches the plan shape");
    let preds = ops::argmax_rows(&logits);
    println!("\npredictions (untrained net): {preds:?}");
    println!("labels:                      {labels:?}");

    println!("\nfive most expensive layers this run:");
    let times = session.profile().mean_layer_times();
    let mut ranked: Vec<_> = times.iter().collect();
    ranked.sort_by_key(|(_, t)| std::cmp::Reverse(*t));
    for (name, t) in ranked.iter().take(5) {
        println!("  {name:<28} {:>8.2?}", t);
    }

    let total = session.profile().total_time();
    println!("\ntotal forward time (host, 1 thread): {total:.2?}");

    // --- Serving the same architecture under traffic ----------------
    // One ServeConfig gathers the serving knobs (batching, queue,
    // deadlines, guard, threads); the server pre-warms one session per
    // worker, compiled at max_batch over one set of prepacked weight
    // panels, then coalesces concurrent requests into batched runs of
    // whatever size arrived.
    let cfg = ServeConfig::builder([3, 32, 32])
        .max_batch(4)
        .build()
        .expect("serving config is valid");
    let server =
        Server::start(cfg, || resnet18_width(10, 0.25).network).expect("serving sessions compile");

    let elems = 3 * 32 * 32;
    let tickets: Vec<Ticket> = (0..8)
        .map(|i| {
            let image = images.data()[i * elems..(i + 1) * elems].to_vec();
            server
                .submit(Tensor::from_vec(vec![3, 32, 32], image))
                .expect("request shape matches the server")
        })
        .collect();
    println!("\nserving 8 concurrent requests (max_batch 4):");
    for ticket in tickets {
        match ticket.wait().outcome {
            Outcome::Served(s) => println!(
                "  request served in {:>8.2?} (co-batched with {} other(s))",
                s.latency,
                s.batch_size - 1
            ),
            other => println!("  request not served: {other:?}"),
        }
    }
    let health = server.shutdown();
    println!(
        "server health: {} served / {} submitted, {} shed",
        health.served,
        health.submitted,
        health.shed_queue_full + health.shed_deadline
    );

    println!(
        "\nNext: examples/train_baseline.rs trains this model; \
              examples/compress_and_deploy.rs compresses it."
    );
}
