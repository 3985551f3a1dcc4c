//! Golden smoke suite for the cells `micro_grid.json` does not pin: one
//! 1-worker scheduler run of a "paper subset" grid — all five Table I
//! victims, the σ=0.2 randomized-smoothing Table II row (a sweep judged
//! through smoothing's seeded votes), the 5×5 depthwise Table III row (the
//! low-frequency DCT attack), the `Tik_hf (1e-4)` and `Tik_pseudo (1e-6)`
//! Table III rows (Tikhonov-trained models under their own penalty), the
//! three Table V attacks, Figures 1, 2 and
//! 4, Figure 3 at DCT dims {8, 16}, and the 5×5 depthwise Figure 5 point
//! series — whose `results.json` must match
//! `tests/golden/paper_subset.json` byte for byte. The remaining tests
//! check the paper's qualitative claims over the same report's cells.
//!
//! Regenerate the golden file after an *intentional* numeric change with:
//!
//! ```bash
//! BLURNET_BLESS=1 cargo test --test experiment_smoke
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;

use blurnet::experiments::grid::{CellKind, CellSpec, ExperimentGrid};
use blurnet::{CellOutput, CellStatus, ExperimentScheduler, RunReport, Scale};
use blurnet_defenses::DefenseKind;

/// The shared experiment seed of `reproduce`.
const SEED: u64 = 7;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("paper_subset.json")
}

/// The subset of [`ExperimentGrid::full`] this suite pins, in full-grid
/// order, with the Figure 3 sweep cut to two dims.
fn paper_subset() -> ExperimentGrid {
    let depthwise5 = DefenseKind::DepthwiseLinf {
        kernel: 5,
        alpha: 0.1,
    };
    let cells = ExperimentGrid::full(Scale::Smoke)
        .cells()
        .iter()
        .filter_map(|cell| match &cell.kind {
            CellKind::Table2(_) => (cell.label == "Rand. sm (sigma=0.2)").then(|| cell.clone()),
            CellKind::Table3(defense) => (*defense == depthwise5
                || matches!(
                    defense,
                    DefenseKind::TikhonovHf { .. } | DefenseKind::TikhonovPseudo { .. }
                ))
            .then(|| cell.clone()),
            CellKind::Scatter { defense } if cell.experiment == "figure5" => {
                (*defense == depthwise5).then(|| cell.clone())
            }
            CellKind::Figure3 { .. } => Some(CellSpec {
                kind: CellKind::Figure3 { dims: vec![8, 16] },
                ..cell.clone()
            }),
            _ => ["table1", "table5", "figure1", "figure2", "figure4"]
                .contains(&cell.experiment)
                .then(|| cell.clone()),
        })
        .collect();
    ExperimentGrid::custom(cells)
}

/// The subset's report, run once per test binary and shared by every test.
fn report() -> &'static RunReport {
    static REPORT: OnceLock<RunReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        ExperimentScheduler::new(Scale::Smoke, SEED)
            .threads(1)
            .run(&paper_subset())
            .expect("paper subset schedules")
            .report
    })
}

/// The outputs of one experiment's cells, which must all have completed.
fn outputs(experiment: &str) -> Vec<&'static CellOutput> {
    report()
        .experiment_cells(experiment)
        .into_iter()
        .map(|cell| {
            assert_eq!(cell.status, CellStatus::Ok, "{experiment}/{}", cell.label);
            cell.output.as_ref().expect("an ok cell carries its output")
        })
        .collect()
}

#[test]
fn paper_subset_matches_the_checked_in_golden_report() {
    let json = report().to_json();
    let path = golden_path();
    if std::env::var_os("BLURNET_BLESS").is_some() {
        std::fs::write(&path, &json).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run BLURNET_BLESS=1 cargo test --test experiment_smoke",
            path.display()
        )
    });
    assert_eq!(report().cells.len(), 17);
    assert!(
        json == golden,
        "paper-subset results drifted from {}",
        path.display()
    );
}

#[test]
fn table1_reproduction_runs_and_renders() {
    let rows: Vec<_> = outputs("table1")
        .into_iter()
        .map(|output| match output {
            CellOutput::Table1(row) => row,
            other => panic!("not a Table I row: {other:?}"),
        })
        .collect();
    assert_eq!(rows.len(), 5);
    let rendered = report().experiment_tables("table1")[0].to_string();
    assert!(rendered.contains("Input filter 3x3"));
    assert!(rendered.contains("Accuracy"));
    // The core Table I claim: filtering the first-layer feature maps with
    // a 5x5 blur does not make the transferred examples more successful.
    let asr = |label: &str| {
        rows.iter()
            .find(|r| r.defense == label)
            .unwrap_or_else(|| panic!("missing row {label}"))
            .attack_success_rate
    };
    assert!(asr("5x5 filter on L1 maps") <= asr("Baseline"));
}

#[test]
fn table3_and_table4_share_trained_models() {
    // The scheduler trains a variant once, however many cells use it; the
    // Table III row reads the variant's adaptive (DCT dim 16) sweep node.
    let defense = DefenseKind::DepthwiseLinf {
        kernel: 5,
        alpha: 0.1,
    };
    let grid = ExperimentGrid::custom(vec![
        CellSpec {
            experiment: "table3",
            label: defense.label(),
            kind: CellKind::Table3(defense.clone()),
        },
        CellSpec {
            experiment: "table4",
            label: defense.label(),
            kind: CellKind::Table4(defense.clone()),
        },
    ]);
    let plan = ExperimentScheduler::new(Scale::Smoke, SEED).plan(&grid);
    let label = defense.label();
    let train = format!("train:{label}");
    let sweep = format!("artifact:sweep/{label}/dct-16");
    assert_eq!(
        plan,
        [
            (train.clone(), vec![]),
            (sweep.clone(), vec![train.clone()]),
            (format!("cell:table3/{label}"), vec![train.clone(), sweep]),
            (format!("cell:table4/{label}"), vec![train]),
        ]
    );

    let cell = report()
        .cell("table3", &label)
        .expect("the 5x5 depthwise row");
    assert_eq!(cell.status, CellStatus::Ok);
    let Some(CellOutput::Table3(row)) = &cell.output else {
        panic!("expected a Table III row");
    };
    assert!((0.0..=1.0).contains(&row.average_success_rate));
    assert!(row.worst_success_rate >= row.average_success_rate);
}

#[test]
fn table5_reports_all_three_adaptive_attacks() {
    let labels: Vec<&str> = outputs("table5")
        .into_iter()
        .map(|output| match output {
            CellOutput::Table5(row) => row.attack.as_str(),
            other => panic!("not a Table V row: {other:?}"),
        })
        .collect();
    assert_eq!(
        labels,
        ["TV adaptive attack", "Tik_hf attack", "Tik_pseudo attack"]
    );
}

#[test]
fn figure2_blur_reduces_difference_spectrum() {
    let [CellOutput::Figure2(fig2)] = outputs("figure2")[..] else {
        panic!("expected one Figure 2 analysis");
    };
    assert!(!fig2.channels.is_empty());
    // The paper's qualitative claim: blurring the difference map removes
    // high-frequency energy (or at least never adds any).
    assert!(
        fig2.mean_blurred_difference_fraction() <= fig2.mean_difference_fraction() + 1e-3,
        "blur should not increase the high-frequency share ({} -> {})",
        fig2.mean_difference_fraction(),
        fig2.mean_blurred_difference_fraction()
    );
}

#[test]
fn figure3_sweep_returns_one_point_per_dimension() {
    let [CellOutput::Figure3(fig3)] = outputs("figure3")[..] else {
        panic!("expected one Figure 3 sweep");
    };
    let dims: Vec<usize> = fig3.points.iter().map(|(dim, _)| *dim).collect();
    assert_eq!(dims, [8, 16]);
    assert!(fig3.points.iter().all(|(_, asr)| (0.0..=1.0).contains(asr)));
    assert!(fig3.table().to_string().contains("DCT mask dim"));
}
