//! Cross-crate integration tests: train → attack → defend → evaluate,
//! exercising the same paths the paper's experiments use, at smoke scale.

use blurnet::experiments::grid::{CellKind, CellSpec, ExperimentGrid};
use blurnet::{CellOutput, ExperimentScheduler, RunReport, Scale};
use blurnet_attacks::{targeted_success_rate, PgdAttack, PgdConfig, Rp2Attack, Rp2Config};
use blurnet_data::{DatasetConfig, SignDataset, STOP_CLASS_ID};
use blurnet_defenses::{train_defended_model, DefenseKind, DiskVariantCache};
use blurnet_nn::persist::{sequential_from_bytes, sequential_to_bytes};
use blurnet_tensor::Tensor;
use blurnet_test_support::smoke_train_config;

/// Runs `grid` through a 1-worker scheduler at smoke scale; every cell
/// must complete.
fn smoke_run(grid: &ExperimentGrid) -> RunReport {
    let report = ExperimentScheduler::new(Scale::Smoke, 7)
        .threads(1)
        .run(grid)
        .unwrap()
        .report;
    assert!(report.all_ok());
    report
}

#[test]
fn baseline_learns_above_chance_accuracy() {
    let dataset = SignDataset::generate(&DatasetConfig::smoke(), 7).unwrap();
    let model =
        train_defended_model(&DefenseKind::Baseline, &dataset, &smoke_train_config(4)).unwrap();
    let accuracy = model.training_report().test_accuracy;
    // 18 classes -> chance is ~5.6%. Even a few smoke epochs should beat it
    // by a wide margin on the synthetic dataset.
    assert!(
        accuracy > 0.3,
        "baseline accuracy {accuracy} should be well above chance"
    );
}

#[test]
fn rp2_succeeds_against_the_baseline_and_stays_on_the_sticker() {
    let dataset = SignDataset::generate(&DatasetConfig::smoke(), 7).unwrap();
    let model =
        train_defended_model(&DefenseKind::Baseline, &dataset, &smoke_train_config(4)).unwrap();
    let engine = model.network().batch_engine().unwrap();
    let classify = |image: &Tensor| {
        let batch = Tensor::stack(std::slice::from_ref(image)).unwrap();
        model.classify(&engine, &batch).unwrap()[0].0
    };
    let attack = Rp2Attack::new(Rp2Config {
        iterations: 60,
        ..Rp2Config::default()
    })
    .unwrap();
    let image = dataset.stop_eval_images()[0].clone();
    let clean_pred = classify(&image);
    let result = attack.generate(model.network(), &image, 12).unwrap();
    // The perturbation must be confined to the sticker mask and valid range.
    assert!(result.adversarial.min().unwrap() >= 0.0);
    assert!(result.adversarial.max().unwrap() <= 1.0);
    let changed_pixels = result
        .perturbation
        .data()
        .iter()
        .filter(|v| v.abs() > 1e-6)
        .count();
    assert!(changed_pixels > 0, "attack must actually perturb the sign");
    assert!(
        (changed_pixels as f32) < 0.25 * result.perturbation.len() as f32,
        "perturbation must stay localized"
    );
    // The attack should at least degrade the classifier's view of the sign:
    // either the prediction changes or the stop-sign confidence drops.
    let adv_pred = classify(&result.adversarial);
    let loss_first = result.loss_trace.first().copied().unwrap();
    let loss_last = result.loss_trace.last().copied().unwrap();
    assert!(
        adv_pred != clean_pred || loss_last < loss_first,
        "attack had no effect at all (pred {clean_pred} -> {adv_pred}, loss {loss_first} -> {loss_last})"
    );
}

#[test]
fn feature_map_blur_reduces_transfer_attack_success() {
    // The core Table I claim at smoke scale: transferring baseline
    // adversarial examples to a 5x5 feature-map-filtered victim succeeds
    // no more often than against the baseline itself.
    let report = smoke_run(&ExperimentGrid::named("table1", Scale::Smoke).unwrap());
    let asr = |label: &str| match &report.cell("table1", label).unwrap().output {
        Some(CellOutput::Table1(row)) => row.attack_success_rate,
        other => panic!("{label}: not a Table I row: {other:?}"),
    };
    let baseline_asr = asr("Baseline");
    let feature5_asr = asr("5x5 filter on L1 maps");
    assert!(
        feature5_asr <= baseline_asr,
        "feature-map filtering should not increase transfer success \
         (baseline {baseline_asr}, filtered {feature5_asr})"
    );
}

#[test]
fn white_box_row_has_consistent_statistics() {
    let defense = DefenseKind::TotalVariation { alpha: 1e-4 };
    let report = smoke_run(&ExperimentGrid::custom(vec![CellSpec {
        experiment: "table2",
        label: defense.label(),
        kind: CellKind::Table2(defense),
    }]));
    let Some(CellOutput::Table2(row)) = &report.cells[0].output else {
        panic!("not a Table II row");
    };
    assert!((0.0..=1.0).contains(&row.legitimate_accuracy));
    assert!((0.0..=1.0).contains(&row.average_success_rate));
    assert!(row.worst_success_rate >= row.average_success_rate - 1e-6);
    assert!(row.l2_dissimilarity >= 0.0 && row.l2_dissimilarity < 2.0);
}

#[test]
fn pgd_is_stronger_than_rp2_under_its_own_threat_model() {
    // Table IV's point: the unconstrained pixel adversary succeeds at least
    // as often as the sticker-constrained one against the same model.
    let dataset = SignDataset::generate(&DatasetConfig::smoke(), 9).unwrap();
    let model =
        train_defended_model(&DefenseKind::Baseline, &dataset, &smoke_train_config(4)).unwrap();
    let images: Vec<Tensor> = dataset.stop_eval_images()[..3].to_vec();
    let labels = vec![STOP_CLASS_ID; images.len()];

    let pgd = PgdAttack::new(PgdConfig {
        epsilon: 0.06,
        step_size: 0.02,
        steps: 8,
        random_start: false,
    })
    .unwrap();
    let pgd_eval = pgd.evaluate(model.network(), &images, &labels).unwrap();

    let rp2 = Rp2Attack::new(Rp2Config {
        iterations: 20,
        ..Rp2Config::default()
    })
    .unwrap();
    let stickers: Vec<Tensor> = rp2
        .generate_batch(model.network(), &images, 12)
        .unwrap()
        .into_iter()
        .map(|result| result.adversarial)
        .collect();
    let engine = model.network().batch_engine().unwrap();
    let predictions = engine.predict(&Tensor::stack(&stickers).unwrap()).unwrap();
    let rp2_success = targeted_success_rate(&predictions, 12).unwrap();
    assert!(
        pgd_eval.success_rate + 1e-6 >= rp2_success,
        "PGD ({}) should be at least as successful as RP2 ({}) on the undefended model",
        pgd_eval.success_rate,
        rp2_success
    );
}

#[test]
fn trained_models_serialize_and_keep_their_predictions() {
    let dataset = SignDataset::generate(&DatasetConfig::tiny(), 11).unwrap();
    let model =
        train_defended_model(&DefenseKind::Baseline, &dataset, &smoke_train_config(1)).unwrap();
    let image = Tensor::stack(&dataset.stop_eval_images()[..1]).unwrap();
    let engine = model.network().batch_engine().unwrap();
    let before = model.classify(&engine, &image).unwrap()[0].0;
    let bytes = sequential_to_bytes(model.network());
    let restored = sequential_from_bytes(&bytes).unwrap();
    let after = restored.batch_engine().unwrap().predict(&image).unwrap()[0];
    assert_eq!(before, after);
}

/// A retrained baseline (here: one trained on another seed's dataset,
/// stored under the same cache key) must never read the transfer set or
/// sticker an older baseline left in the cache: the rerun over the warm
/// cache equals a cold run that only ever saw the new baseline.
#[test]
fn a_replaced_baseline_never_reads_an_older_baselines_artifacts() {
    let scale = Scale::Smoke;
    let grid = ExperimentGrid::named("table1,figure1", scale).unwrap();
    let run = |dir: &std::path::Path| {
        let run = ExperimentScheduler::new(scale, 7)
            .threads(1)
            .cache_dir(dir)
            .run(&grid)
            .unwrap();
        assert!(run.report.all_ok());
        run.report.to_json()
    };
    let dataset = SignDataset::generate(&scale.dataset_config(), 7).unwrap();
    let other = SignDataset::generate(&scale.dataset_config(), 8).unwrap();
    let replacement =
        train_defended_model(&DefenseKind::Baseline, &other, &scale.train_config()).unwrap();
    let install = |dir: &std::path::Path| {
        DiskVariantCache::open(dir)
            .unwrap()
            .store(
                &replacement,
                &scale.train_config(),
                dataset.image_size(),
                dataset.num_classes(),
                7,
            )
            .unwrap();
    };
    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("blurnet-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };

    let warm = scratch("warm");
    let first = run(&warm);
    install(&warm);
    let rerun = run(&warm);
    let cold = scratch("cold");
    install(&cold);
    let expected = run(&cold);
    assert_ne!(first, expected, "the replacement baseline changes Table I");
    assert_eq!(rerun, expected);
    let _ = std::fs::remove_dir_all(&warm);
    let _ = std::fs::remove_dir_all(&cold);
}
