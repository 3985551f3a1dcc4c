//! Plain-text table rendering and machine-readable run reports for the
//! reproduced experiments.
//!
//! [`Table`] is the human-facing presentation form; [`RunReport`] is the
//! machine-readable `results.json` a grid run emits. A `RunReport`
//! contains **only deterministic content** — cell identities, statuses and
//! typed outputs, in grid order — never timings or thread counts, so the
//! serialized report is bit-identical for the same grid/scale/seed at
//! every worker count (pinned by `tests/golden_repro.rs`). Timing lives in
//! the scheduler's separate `RunProfile`.

use serde::{Deserialize, Serialize};

use crate::experiments::figures::{Figure1, Figure2, Figure3, Figure4, ScatterSeries};
use crate::experiments::table1::Table1Row;
use crate::experiments::table2::Table2Row;
use crate::experiments::table3::Table3Row;
use crate::experiments::table4::Table4Row;
use crate::experiments::table5::Table5Row;

/// A rendered experiment table: a title, column headers and string rows.
///
/// Experiment modules produce typed row structs; this is the common
/// presentation form `reproduce` prints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    /// Table caption (e.g. "Table II — white-box evaluation").
    title: String,
    /// Column headers.
    headers: Vec<String>,
    /// Row cells, one `Vec<String>` per row.
    pub(crate) rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table from a title and headers.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; extra or missing cells are allowed but will render
    /// ragged.
    pub(crate) fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:width$}", width = widths[i]))
            .collect();
        writeln!(f, "| {} |", header_line.join(" | "))?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "|-{}-|", rule.join("-|-"))?;
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:width$}", width = widths.get(i).copied().unwrap_or(0)))
                .collect();
            writeln!(f, "| {} |", line.join(" | "))?;
        }
        Ok(())
    }
}

/// Outcome of one experiment cell in a grid run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellStatus {
    /// The cell ran to completion and produced its output.
    Ok,
    /// The cell itself failed (error or panic); siblings are unaffected.
    Failed {
        /// The cell's error or panic message.
        error: String,
    },
    /// A prerequisite artifact failed, so the cell never ran.
    Skipped {
        /// Which prerequisite failed and why.
        reason: String,
    },
}

/// The typed output of one experiment cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellOutput {
    /// A Table I row (black-box transfer victim).
    Table1(Table1Row),
    /// A Table II row (white-box RP2 evaluation).
    Table2(Table2Row),
    /// A Table III row (adaptive attack evaluation).
    Table3(Table3Row),
    /// A Table IV row (PGD evaluation).
    Table4(Table4Row),
    /// A Table V row (adaptive attack vs adversarial training).
    Table5(Table5Row),
    /// The Figure 1 input-spectrum analysis.
    Figure1(Figure1),
    /// The Figure 2 feature-map-spectrum analysis.
    Figure2(Figure2),
    /// The Figure 3 DCT-dimension sweep.
    Figure3(Figure3),
    /// The Figure 4 layer-depth spectrum comparison.
    Figure4(Figure4),
    /// One scatter series of Figures 5–6.
    Scatter(ScatterSeries),
}

/// One cell's entry in a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// The experiment this cell belongs to (`"table1"` … `"figure6"`).
    pub experiment: String,
    /// The cell's row/series label within its experiment.
    pub label: String,
    /// How the cell ended.
    pub status: CellStatus,
    /// The cell's typed output when `status` is [`CellStatus::Ok`].
    pub output: Option<CellOutput>,
}

/// The machine-readable result of one experiment-grid run
/// (`results.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema tag (`"blurnet-results/v1"`).
    pub(crate) schema: String,
    /// The scale profile the run used (`"smoke"`, `"quick"`, `"paper"`).
    pub scale: String,
    /// The dataset/zoo seed.
    pub seed: u64,
    /// Per-cell outcomes, **in grid order** (never completion order).
    pub cells: Vec<CellReport>,
}

/// Schema tag written into every [`RunReport`].
pub const RESULTS_SCHEMA: &str = "blurnet-results/v1";

impl RunReport {
    /// Serializes the report to deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Writes [`RunReport::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// The cells belonging to one experiment, in grid order.
    pub fn experiment_cells(&self, experiment: &str) -> Vec<&CellReport> {
        self.cells
            .iter()
            .filter(|c| c.experiment == experiment)
            .collect()
    }

    /// Looks up one cell by experiment and label.
    pub fn cell(&self, experiment: &str, label: &str) -> Option<&CellReport> {
        self.cells
            .iter()
            .find(|c| c.experiment == experiment && c.label == label)
    }

    /// Whether every cell completed successfully.
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.status == CellStatus::Ok)
    }

    /// The experiments present in the report, each once, in grid order.
    pub fn experiments(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for cell in &self.cells {
            if !seen.contains(&cell.experiment.as_str()) {
                seen.push(&cell.experiment);
            }
        }
        seen
    }

    /// Renders one experiment's cells as printable tables (row-based
    /// experiments collate rows; figure analyses render their own tables;
    /// cells that did not complete get a table of their own).
    pub fn experiment_tables(&self, experiment: &str) -> Vec<Table> {
        let cells = self.experiment_cells(experiment);
        let mut failures = Vec::new();
        let mut tables = Vec::new();
        let mut t1 = crate::experiments::table1::Table1 { rows: vec![] };
        let mut t2 = crate::experiments::table2::Table2 { rows: vec![] };
        let mut t3 = crate::experiments::table3::Table3 { rows: vec![] };
        let mut t4 = crate::experiments::table4::Table4 { rows: vec![] };
        let mut t5 = crate::experiments::table5::Table5 { rows: vec![] };
        let mut scatter5 = Vec::new();
        let mut scatter6 = Vec::new();
        for cell in &cells {
            match (&cell.status, &cell.output) {
                (CellStatus::Ok, Some(output)) => match output.clone() {
                    CellOutput::Table1(row) => t1.rows.push(row),
                    CellOutput::Table2(row) => t2.rows.push(row),
                    CellOutput::Table3(row) => t3.rows.push(row),
                    CellOutput::Table4(row) => t4.rows.push(row),
                    CellOutput::Table5(row) => t5.rows.push(row),
                    CellOutput::Figure1(f) => tables.push(f.table()),
                    CellOutput::Figure2(f) => tables.push(f.table()),
                    CellOutput::Figure3(f) => tables.push(f.table()),
                    CellOutput::Figure4(f) => tables.push(f.table()),
                    CellOutput::Scatter(series) => {
                        if cell.experiment == "figure5" {
                            scatter5.push(series);
                        } else {
                            scatter6.push(series);
                        }
                    }
                },
                (CellStatus::Failed { error }, _) => {
                    failures.push((cell.label.clone(), error.clone()));
                }
                (CellStatus::Skipped { reason }, _) => {
                    failures.push((cell.label.clone(), reason.clone()));
                }
                // An Ok cell always carries its output; nothing to render
                // otherwise.
                _ => {}
            }
        }
        if !t1.rows.is_empty() {
            tables.push(t1.table());
        }
        if !t2.rows.is_empty() {
            tables.push(t2.table());
        }
        if !t3.rows.is_empty() {
            tables.push(t3.table());
        }
        if !t4.rows.is_empty() {
            tables.push(t4.table());
        }
        if !t5.rows.is_empty() {
            tables.push(t5.table());
        }
        if !scatter5.is_empty() || !scatter6.is_empty() {
            let fig = crate::experiments::figures::Figure5And6 {
                figure5: scatter5,
                figure6: scatter6,
            };
            tables.push(fig.table());
        }
        if !failures.is_empty() {
            let mut table = Table::new(
                format!("{experiment} — cells that did not complete"),
                &["Cell", "Reason"],
            );
            for (label, reason) in failures {
                table.push_row(vec![label, reason]);
            }
            tables.push(table);
        }
        tables
    }
}

/// Formats a fraction as a percentage with one decimal place (the paper
/// reports success rates and accuracies as percentages).
pub(crate) fn pct(value: f32) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Formats a dissimilarity / loss value with three decimal places.
pub(crate) fn num3(value: f32) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_aligns_columns() {
        let mut table = Table::new("Demo", &["Defense", "ASR"]);
        table.push_row(vec!["Baseline".into(), pct(0.9)]);
        table.push_row(vec!["TV (1e-4)".into(), pct(0.175)]);
        let rendered = table.to_string();
        assert!(rendered.contains("Demo"));
        assert!(rendered.contains("| Baseline "));
        assert!(rendered.contains("90.0%"));
        assert!(rendered.contains("17.5%"));
        assert_eq!(table.rows.len(), 2);
    }

    #[test]
    fn json_roundtrip() {
        let mut table = Table::new("T", &["a"]);
        table.push_row(vec!["1".into()]);
        let json = serde_json::to_string_pretty(&table).unwrap();
        let parsed: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, table);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.905), "90.5%");
        assert_eq!(num3(0.20749), "0.207");
    }
}
