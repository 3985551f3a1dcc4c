//! Quickstart: train a small road-sign classifier, attack it with RP2, and
//! defend it with the paper's total-variation regularization.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use blurnet::{ModelZoo, Scale};
use blurnet_attacks::{
    batch_l2_dissimilarity, targeted_success_rate, AttackEvaluation, Rp2Attack, Rp2Config,
};
use blurnet_defenses::DefenseKind;
use blurnet_nn::Sequential;
use blurnet_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A model zoo bundles the synthetic LISA-like dataset with a cache of
    // trained models. Smoke scale keeps this example under a minute.
    let mut zoo = ModelZoo::new(Scale::Smoke, 7)?;
    println!(
        "dataset: {} training images, {} test images, {} stop signs for attack evaluation",
        zoo.dataset().train_len(),
        zoo.dataset().test_len(),
        zoo.dataset().stop_eval_images().len()
    );

    // 1. Train the undefended baseline and the TV-regularized defense.
    let baseline = zoo.get_or_train_shared(&DefenseKind::Baseline)?;
    let defended = zoo.get_or_train_shared(&DefenseKind::TotalVariation { alpha: 1e-4 })?;
    println!(
        "clean test accuracy — baseline: {:.1}%, TV-regularized: {:.1}%",
        baseline.training_report().test_accuracy * 100.0,
        defended.training_report().test_accuracy * 100.0
    );

    // 2. Run the RP2 sticker attack against both, targeting 'speedLimit25'.
    let attack = Rp2Attack::new(Rp2Config {
        iterations: 40,
        ..Rp2Config::default()
    })?;
    let stop_signs: Vec<Tensor> = zoo.dataset().stop_eval_images().to_vec();
    let target = 12; // speedLimit25
    let baseline_eval = white_box(&attack, baseline.network(), &stop_signs, target)?;
    let defended_eval = white_box(&attack, defended.network(), &stop_signs, target)?;

    println!(
        "RP2 targeted success rate — baseline: {:.1}%, TV-regularized: {:.1}%",
        baseline_eval.success_rate * 100.0,
        defended_eval.success_rate * 100.0
    );
    println!(
        "L2 dissimilarity — baseline: {:.3}, TV-regularized: {:.3}",
        baseline_eval.l2_dissimilarity, defended_eval.l2_dissimilarity
    );
    println!("(the paper's Table II shows the same qualitative gap at full scale)");
    Ok(())
}

/// Attacks `images` towards `target` on `net` and judges the stickers on
/// the same network: the targeted success rate and the mean relative L2
/// dissimilarity.
fn white_box(
    attack: &Rp2Attack,
    net: &Sequential,
    images: &[Tensor],
    target: usize,
) -> Result<AttackEvaluation, Box<dyn std::error::Error>> {
    let adversarial: Vec<Tensor> = attack
        .generate_batch(net, images, target)?
        .into_iter()
        .map(|result| result.adversarial)
        .collect();
    let adversarial = Tensor::stack(&adversarial)?;
    let predictions = net.batch_engine()?.predict(&adversarial)?;
    let dissims = batch_l2_dissimilarity(&Tensor::stack(images)?, &adversarial)?;
    Ok(AttackEvaluation {
        success_rate: targeted_success_rate(&predictions, target)?,
        l2_dissimilarity: dissims.iter().sum::<f32>() / dissims.len() as f32,
        count: images.len(),
    })
}
