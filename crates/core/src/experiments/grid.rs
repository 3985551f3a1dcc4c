//! Declarative experiment grids: every table row and figure sweep as a
//! cell spec.
//!
//! A [`CellSpec`] names one unit of evaluation work — a (model variant ×
//! attack × metric) cell of a paper table, or one figure analysis/series —
//! without running anything. The [`crate::ExperimentScheduler`] is the one
//! executor: it turns the specs into a DAG over shared artifacts and runs
//! every cell through `execute_cell`, which dispatches to the per-cell
//! function of the table/figure module. A 1-worker run is the reference
//! run; the report is byte-identical at every worker count.
//!
//! [`ExperimentGrid::named`] maps a `reproduce --grid` argument to a grid,
//! so any subset of the paper's experiments runs through the same path.

use blurnet_attacks::{Rp2Result, TargetSweep, TransferSet};
use blurnet_defenses::{DefendedModel, DefenseKind};
use blurnet_tensor::Tensor;

use crate::experiments::table1::Table1Victim;
use crate::experiments::table5::Table5Attack;
use crate::experiments::{figures, table1, table2, table3, table4, table5, SweepObjective};
use crate::report::CellOutput;
use crate::{BlurNetError, Result, Scale};

/// One experiment cell, declaratively.
#[derive(Debug, Clone, PartialEq)]
pub enum CellKind {
    /// A Table I victim row (needs the shared transfer artifact).
    Table1(Table1Victim),
    /// A Table II white-box row for one defense.
    Table2(DefenseKind),
    /// A Table III adaptive row for one defense.
    Table3(DefenseKind),
    /// A Table IV PGD row for one defense.
    Table4(DefenseKind),
    /// A Table V adaptive adversary against the adversarially-trained
    /// model.
    Table5(Table5Attack),
    /// The Figure 1 input-spectrum analysis (needs the sticker artifact).
    Figure1,
    /// The Figure 2 feature-map-spectrum analysis (needs the sticker
    /// artifact).
    Figure2 {
        /// Number of channels to summarize.
        max_channels: usize,
    },
    /// The Figure 3 DCT-dimension sweep on the 7×7 depthwise model.
    Figure3 {
        /// The mask dimensions to sweep.
        dims: Vec<usize>,
    },
    /// The Figure 4 layer-depth spectrum comparison.
    Figure4,
    /// One scatter series of Figure 5 or 6 (the owning figure is the
    /// cell's `experiment` string, which is also how the report renders
    /// the two figures' series apart).
    Scatter {
        /// The defense whose sweep is plotted.
        defense: DefenseKind,
    },
}

/// A named cell in a grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// The experiment the cell belongs to (`"table1"` … `"figure6"`).
    pub experiment: &'static str,
    /// Row/series label within the experiment.
    pub label: String,
    /// What the cell evaluates.
    pub kind: CellKind,
}

impl CellSpec {
    /// The trained model variant this cell evaluates.
    pub fn required_defense(&self, scale: Scale) -> DefenseKind {
        match &self.kind {
            CellKind::Table1(_) | CellKind::Figure1 | CellKind::Figure2 { .. } => {
                DefenseKind::Baseline
            }
            CellKind::Figure4 => DefenseKind::Baseline,
            CellKind::Table2(d) | CellKind::Table3(d) | CellKind::Table4(d) => d.clone(),
            CellKind::Table5(_) => table5::defense_for(scale),
            CellKind::Figure3 { .. } => figures::figure3_defense(),
            CellKind::Scatter { defense } => defense.clone(),
        }
    }

    /// The shared artifacts the cell reads, in the order
    /// [`execute_cell`] receives them. Every artifact is generated on the
    /// cell's own model ([`CellSpec::required_defense`]), so equal keys
    /// from different cells name one scheduler node.
    pub(crate) fn artifacts(&self, scale: Scale) -> Vec<ArtifactKey> {
        let sweep = |objective| ArtifactKey::Sweep {
            defense: self.required_defense(scale).label(),
            objective,
        };
        match &self.kind {
            CellKind::Table1(_) => vec![ArtifactKey::Transfer],
            CellKind::Figure1 | CellKind::Figure2 { .. } => vec![ArtifactKey::Sticker],
            CellKind::Table2(_) | CellKind::Scatter { .. } => vec![sweep(SweepObjective::Standard)],
            CellKind::Table3(defense) => vec![sweep(SweepObjective::adaptive_for(defense))],
            CellKind::Table5(attack) => vec![sweep(attack.sweep_objective())],
            CellKind::Figure3 { dims } => dims
                .iter()
                .map(|&dim| sweep(SweepObjective::LowFrequencyDct { dim }))
                .collect(),
            CellKind::Table4(_) | CellKind::Figure4 => vec![],
        }
    }
}

/// A shared prerequisite the scheduler generates once per run, however
/// many cells read it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum ArtifactKey {
    /// The Table I transfer set (RP2 on the baseline).
    Transfer,
    /// The Figure 1/2 single-image sticker (RP2 on the baseline).
    Sticker,
    /// A targeted RP2 sweep of one trained variant under one objective.
    Sweep {
        /// Label of the swept variant.
        defense: String,
        /// The attacker's objective.
        objective: SweepObjective,
    },
}

impl std::fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactKey::Transfer => write!(f, "transfer-set"),
            ArtifactKey::Sticker => write!(f, "sticker"),
            ArtifactKey::Sweep { defense, objective } => write!(f, "sweep/{defense}/{objective}"),
        }
    }
}

/// A generated artifact, as the scheduler hands it to its consumers.
#[derive(Debug)]
pub(crate) enum Artifact {
    /// See [`ArtifactKey::Transfer`].
    Transfer(TransferSet),
    /// See [`ArtifactKey::Sticker`].
    Sticker(Rp2Result),
    /// See [`ArtifactKey::Sweep`].
    Sweep(TargetSweep),
}

/// Executes one cell against an already-trained, shared model and the
/// artifacts [`CellSpec::artifacts`] declares, in declared order: the
/// scheduler's one way to run a cell.
///
/// # Errors
///
/// Returns [`BlurNetError::BadConfig`] when the artifacts do not match
/// the cell's declaration; propagates evaluation errors.
pub(crate) fn execute_cell(
    kind: &CellKind,
    scale: Scale,
    images: &[Tensor],
    model: &DefendedModel,
    artifacts: &[&Artifact],
) -> Result<CellOutput> {
    let mismatch = || BlurNetError::BadConfig("cell artifacts do not match its declaration".into());
    let sweep = || match artifacts {
        [Artifact::Sweep(sweep)] => Ok(sweep),
        _ => Err(mismatch()),
    };
    let sticker = || match artifacts {
        [Artifact::Sticker(result)] => Ok(result),
        _ => Err(mismatch()),
    };
    let image = || {
        images
            .first()
            .ok_or_else(|| BlurNetError::BadConfig("no stop-sign image available".into()))
    };
    Ok(match kind {
        CellKind::Table1(victim) => {
            let [Artifact::Transfer(set)] = artifacts else {
                return Err(mismatch());
            };
            CellOutput::Table1(table1::victim_row(victim, model, set)?)
        }
        CellKind::Table2(_) => CellOutput::Table2(table2::row_from_sweep(model, sweep()?)),
        CellKind::Table3(_) => CellOutput::Table3(table3::row_from_sweep(model, sweep()?)),
        CellKind::Table4(_) => CellOutput::Table4(table4::row_for_model(scale, model, images)?),
        CellKind::Table5(attack) => CellOutput::Table5(table5::row_from_sweep(*attack, sweep()?)),
        CellKind::Figure1 => {
            CellOutput::Figure1(figures::figure1_from_parts(image()?, sticker()?)?)
        }
        CellKind::Figure2 { max_channels } => CellOutput::Figure2(figures::figure2_from_parts(
            model,
            image()?,
            &sticker()?.adversarial,
            *max_channels,
        )?),
        CellKind::Figure3 { dims } => {
            let sweeps = artifacts
                .iter()
                .map(|artifact| match artifact {
                    Artifact::Sweep(sweep) => Ok(sweep),
                    _ => Err(mismatch()),
                })
                .collect::<Result<Vec<_>>>()?;
            CellOutput::Figure3(figures::figure3_from_sweeps(dims, &sweeps)?)
        }
        CellKind::Figure4 => CellOutput::Figure4(figures::figure4_for_model(model, image()?)?),
        CellKind::Scatter { .. } => {
            CellOutput::Scatter(figures::scatter_series_from_sweep(model, sweep()?))
        }
    })
}

/// An ordered set of cell specs — the declarative form of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentGrid {
    cells: Vec<CellSpec>,
}

impl ExperimentGrid {
    /// A grid from explicit cells.
    pub fn custom(cells: Vec<CellSpec>) -> Self {
        ExperimentGrid { cells }
    }

    /// The cells, in report order.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The full paper grid: every row of Tables I–V plus the Figure 1–6
    /// analyses and sweeps.
    pub fn full(scale: Scale) -> Self {
        let mut cells = Self::tables(scale).cells;
        cells.push(CellSpec {
            experiment: "figure1",
            label: "input spectrum".into(),
            kind: CellKind::Figure1,
        });
        cells.push(CellSpec {
            experiment: "figure2",
            label: "feature-map spectra".into(),
            kind: CellKind::Figure2 {
                max_channels: figures::FIGURE2_CHANNELS,
            },
        });
        cells.push(CellSpec {
            experiment: "figure3",
            label: "DCT sweep (7x7 depthwise)".into(),
            kind: CellKind::Figure3 {
                dims: figures::FIGURE3_DIMS.to_vec(),
            },
        });
        cells.push(CellSpec {
            experiment: "figure4",
            label: "second-layer spectra".into(),
            kind: CellKind::Figure4,
        });
        for defense in figures::figure5_defenses() {
            cells.push(CellSpec {
                experiment: "figure5",
                label: defense.label(),
                kind: CellKind::Scatter { defense },
            });
        }
        for defense in figures::figure6_defenses() {
            cells.push(CellSpec {
                experiment: "figure6",
                label: defense.label(),
                kind: CellKind::Scatter { defense },
            });
        }
        ExperimentGrid { cells }
    }

    /// The table-only grid: every row of Tables I–V.
    fn tables(scale: Scale) -> Self {
        let mut cells = Vec::new();
        for victim in Table1Victim::roster() {
            cells.push(CellSpec {
                experiment: "table1",
                label: victim.label(),
                kind: CellKind::Table1(victim),
            });
        }
        for defense in super::table2_defenses(scale) {
            cells.push(CellSpec {
                experiment: "table2",
                label: defense.label(),
                kind: CellKind::Table2(defense),
            });
        }
        for defense in super::blurnet_defenses(scale) {
            cells.push(CellSpec {
                experiment: "table3",
                label: defense.label(),
                kind: CellKind::Table3(defense),
            });
        }
        cells.push(CellSpec {
            experiment: "table4",
            label: DefenseKind::Baseline.label(),
            kind: CellKind::Table4(DefenseKind::Baseline),
        });
        for defense in super::blurnet_defenses(scale) {
            cells.push(CellSpec {
                experiment: "table4",
                label: defense.label(),
                kind: CellKind::Table4(defense),
            });
        }
        for attack in Table5Attack::roster() {
            cells.push(CellSpec {
                experiment: "table5",
                label: attack.label().to_string(),
                kind: CellKind::Table5(attack),
            });
        }
        ExperimentGrid { cells }
    }

    /// The seeded micro-grid the golden reproduction tests pin: 2 defenses
    /// (5×5 depthwise, TV 1e-4) × 2 attacks (white-box RP2 via Table II,
    /// PGD via Table IV).
    pub fn micro() -> Self {
        let defenses = [
            DefenseKind::DepthwiseLinf {
                kernel: 5,
                alpha: 0.1,
            },
            DefenseKind::TotalVariation { alpha: 1e-4 },
        ];
        let mut cells = Vec::new();
        for defense in &defenses {
            cells.push(CellSpec {
                experiment: "table2",
                label: defense.label(),
                kind: CellKind::Table2(defense.clone()),
            });
        }
        for defense in &defenses {
            cells.push(CellSpec {
                experiment: "table4",
                label: defense.label(),
                kind: CellKind::Table4(defense.clone()),
            });
        }
        ExperimentGrid { cells }
    }

    /// The grid a `reproduce --grid` argument names: `full`, `tables`,
    /// `micro`, or a comma-separated list of experiment names (`table1` …
    /// `table5`, `figure1` … `figure6`) that filters [`ExperimentGrid::full`]
    /// down to those experiments' cells, in full-grid order.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownExperiment`] for a list entry that names no
    /// experiment of the full grid (including an empty entry).
    pub fn named(spec: &str, scale: Scale) -> std::result::Result<Self, UnknownExperiment> {
        match spec {
            "full" => return Ok(Self::full(scale)),
            "tables" => return Ok(Self::tables(scale)),
            "micro" => return Ok(Self::micro()),
            _ => {}
        }
        let full = Self::full(scale);
        let wanted: Vec<&str> = spec.split(',').map(str::trim).collect();
        if let Some(unknown) = wanted
            .iter()
            .find(|name| !full.cells.iter().any(|c| c.experiment == **name))
        {
            return Err(UnknownExperiment(unknown.to_string()));
        }
        Ok(ExperimentGrid {
            cells: full
                .cells
                .into_iter()
                .filter(|c| wanted.contains(&c.experiment))
                .collect(),
        })
    }
}

/// A `--grid` list entry that names no experiment of the paper grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment(pub(crate) String);

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown experiment {:?} (expected full, tables, micro, or a comma-separated \
             list of table1..table5 and figure1..figure6)",
            self.0
        )
    }
}

impl std::error::Error for UnknownExperiment {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_covers_every_table_row_and_figure() {
        let grid = ExperimentGrid::full(Scale::Smoke);
        // 5 (t1) + 15 (t2) + 7 (t3) + 8 (t4) + 3 (t5) = 38 table cells,
        // plus 4 figure analyses and 10 scatter series.
        assert_eq!(grid.len(), 38 + 4 + 10);
        assert_eq!(
            grid.cells()
                .iter()
                .filter(|c| c.experiment == "table2")
                .count(),
            15
        );
        assert_eq!(
            grid.cells()
                .iter()
                .filter(|c| c.experiment == "figure5")
                .count(),
            5
        );
        assert!(!grid.is_empty());
    }

    #[test]
    fn named_grids_filter_the_full_grid_by_experiment() {
        let scale = Scale::Smoke;
        assert_eq!(
            ExperimentGrid::named("full", scale),
            Ok(ExperimentGrid::full(scale))
        );
        assert_eq!(
            ExperimentGrid::named("micro", scale),
            Ok(ExperimentGrid::micro())
        );
        let grid = ExperimentGrid::named("table3,figure3", scale).unwrap();
        assert_eq!(grid.len(), 8);
        assert!(grid.cells()[..7].iter().all(|c| c.experiment == "table3"));
        assert_eq!(grid.cells()[7].experiment, "figure3");
        // Full-grid order wins over list order.
        assert_eq!(
            ExperimentGrid::named("figure6,figure5", scale),
            ExperimentGrid::named("figure5,figure6", scale)
        );
        for bad in ["nope", "table1,", "table6", ""] {
            assert!(ExperimentGrid::named(bad, scale).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn micro_grid_is_two_defenses_by_two_attacks() {
        let grid = ExperimentGrid::micro();
        assert_eq!(grid.len(), 4);
        let experiments: Vec<&str> = grid.cells().iter().map(|c| c.experiment).collect();
        assert_eq!(experiments, ["table2", "table2", "table4", "table4"]);
    }

    #[test]
    fn required_defenses_dedup_to_the_zoo_roster() {
        let grid = ExperimentGrid::full(Scale::Smoke);
        let mut labels: Vec<String> = grid
            .cells()
            .iter()
            .map(|c| c.required_defense(Scale::Smoke).label())
            .collect();
        labels.sort();
        labels.dedup();
        // The full grid trains exactly the Table II roster (which includes
        // the baseline and the adversarial-training model).
        assert_eq!(labels.len(), 15);
    }

    #[test]
    fn artifact_needs_are_limited_to_their_consumers() {
        let grid = ExperimentGrid::full(Scale::Smoke);
        let consumers = |key: &ArtifactKey| {
            grid.cells()
                .iter()
                .filter(|c| c.artifacts(Scale::Smoke).contains(key))
                .count()
        };
        assert_eq!(consumers(&ArtifactKey::Transfer), 5);
        assert_eq!(consumers(&ArtifactKey::Sticker), 2);
        // Figure 3's dim-16 point is Table III's 7x7 sweep.
        let dct16 = ArtifactKey::Sweep {
            defense: figures::figure3_defense().label(),
            objective: SweepObjective::LowFrequencyDct { dim: 16 },
        };
        assert_eq!(consumers(&dct16), 2);
    }
}
