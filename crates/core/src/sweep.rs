//! The scenario sweep: run a [`ScenarioMatrix`] and tabulate which
//! claims survive each perturbation.
//!
//! The product is the *claim-survival table*: one row per scenario, one
//! cell per claim, each cell `pass` / `fail` / `starved`. Starvation is
//! data here, not an error — a scenario that drains a cell (tiny scale,
//! coarse sampling, a CDN migration the §2 filter misses) shows up as a
//! `starved` column, never as an aborted sweep.
//!
//! Every scenario runs over the existing sharded workers; the table is
//! derived only from [`StudyReport`] fields that are bit-identical
//! across shard counts, so the same matrix + seed produces a
//! byte-identical table serial or sharded (asserted by tests).

use std::fmt;

use serde::{Deserialize, Serialize};

use cwa_geo::Germany;

use crate::scenario::{ScenarioError, ScenarioMatrix};
use crate::study::{Study, StudyConfig, StudyError};
use crate::StudyReport;

/// A structured sweep failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The scenario file was invalid or a district did not resolve.
    Scenario(ScenarioError),
    /// One scenario's study run failed (misconfiguration — starvation
    /// never errors in a sweep).
    Study {
        /// The failing scenario's name.
        scenario: String,
        /// The underlying error.
        err: StudyError,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Scenario(e) => write!(f, "{e}"),
            SweepError::Study { scenario, err } => {
                write!(f, "scenario '{scenario}': {err}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ScenarioError> for SweepError {
    fn from(e: ScenarioError) -> Self {
        SweepError::Scenario(e)
    }
}

/// One claim's outcome in one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurvivalCell {
    /// Claim code ("C1", "C4a", …).
    pub claim: String,
    /// "pass" / "fail" / "starved".
    pub verdict: String,
    /// The measured value, formatted (stable across shard counts; "NaN"
    /// when the starved pipeline produced no number at all).
    pub measured: String,
}

/// One scenario's row in the survival table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurvivalRow {
    /// Scenario name (file order is preserved).
    pub scenario: String,
    /// Config hash of the *effective* configuration the row ran under.
    pub config_hash: String,
    /// §2 matching flows of the run.
    pub matching_flows: u64,
    /// Per-claim outcomes, in claim-table order.
    pub cells: Vec<SurvivalCell>,
}

/// The claim-survival table: scenario × claim → verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurvivalTable {
    /// One row per scenario, in file order.
    pub rows: Vec<SurvivalRow>,
}

impl SurvivalTable {
    /// JSON export (deterministic: derived only from shard-invariant
    /// report fields).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("table serializes")
    }

    /// Renders the scenario × claim grid as text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let codes: Vec<&str> = self
            .rows
            .first()
            .map(|r| r.cells.iter().map(|c| c.claim.as_str()).collect())
            .unwrap_or_default();
        let name_w = self
            .rows
            .iter()
            .map(|r| r.scenario.chars().count())
            .chain(std::iter::once("scenario".len()))
            .max()
            .unwrap_or(8);
        out.push_str("== claim survival: scenario × claim ==\n\n");
        out.push_str(&format!("{:<name_w$}", "scenario"));
        for code in &codes {
            out.push_str(&format!("  {code:<7}"));
        }
        out.push_str("  matching_flows\n");
        for row in &self.rows {
            out.push_str(&format!("{:<name_w$}", row.scenario));
            for cell in &row.cells {
                out.push_str(&format!("  {:<7}", cell.verdict));
            }
            out.push_str(&format!("  {}\n", row.matching_flows));
        }
        let starved: usize = self
            .rows
            .iter()
            .flat_map(|r| &r.cells)
            .filter(|c| c.verdict == "starved")
            .count();
        let failed: usize = self
            .rows
            .iter()
            .flat_map(|r| &r.cells)
            .filter(|c| c.verdict == "fail")
            .count();
        out.push_str(&format!(
            "\n{} row(s), {} starved cell(s), {} failed cell(s)\n",
            self.rows.len(),
            starved,
            failed
        ));
        out
    }
}

/// Deterministic measured-value formatting for table cells.
fn format_measured(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4e}")
    } else {
        "NaN".to_owned()
    }
}

fn row_from(name: &str, report: &StudyReport) -> SurvivalRow {
    SurvivalRow {
        scenario: name.to_owned(),
        config_hash: report.manifest.config_hash.clone(),
        matching_flows: report.matching_flows,
        cells: report
            .claims
            .iter()
            .map(|c| SurvivalCell {
                claim: c.id.code().to_owned(),
                verdict: c.verdict.label().to_owned(),
                measured: format_measured(c.measured),
            })
            .collect(),
    }
}

/// Runs every scenario in the matrix over the sharded workers and
/// returns the survival table.
///
/// `shards` is a *request*: each row clamps it to its own
/// scenario-effective router count (a fleet-shrinking scenario must not
/// trip `InvalidShardCount` mid-sweep), and a request of 0 or 1 runs one
/// shard inline, the streaming single-pass path. Either way the table is
/// byte-identical — it is derived only from shard-invariant report
/// fields.
pub fn run_sweep(
    matrix: &ScenarioMatrix,
    base: &StudyConfig,
    shards: usize,
) -> Result<SurvivalTable, SweepError> {
    let germany = Germany::build();
    let mut rows = Vec::with_capacity(matrix.scenarios.len());
    for spec in &matrix.scenarios {
        let cfg = spec.apply(base, &germany)?;
        let effective = shards.clamp(1, usize::from(cfg.sim.vantage.routers).max(1));
        let report = Study::new(cfg)
            .run_sharded(effective)
            .map_err(|err| SweepError::Study {
                scenario: spec.name.clone(),
                err,
            })?;
        rows.push(row_from(&spec.name, &report));
    }
    Ok(SurvivalTable { rows })
}

/// One claim's verdict tally across the seeds of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedFractionCell {
    /// Claim code ("C1", "C4a", …).
    pub claim: String,
    /// Seeds whose run passed the claim.
    pub passes: u32,
    /// Seeds whose run failed the claim (genuinely out of band).
    pub fails: u32,
    /// Seeds whose run starved the claim's input cell.
    pub starved: u32,
}

impl SeedFractionCell {
    /// Compact grid label: `passes/evaluated`, where starved runs don't
    /// count as evaluated; `—` when every seed starved the cell.
    pub fn label(&self) -> String {
        let evaluated = self.passes + self.fails;
        if evaluated == 0 {
            "—".to_owned()
        } else {
            format!("{}/{}", self.passes, evaluated)
        }
    }
}

/// One scenario's verdict tallies across seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedFractionRow {
    /// Scenario name (file order is preserved).
    pub scenario: String,
    /// Seeds run for this row.
    pub seeds: u32,
    /// Per-claim tallies, in claim-table order.
    pub cells: Vec<SeedFractionCell>,
}

/// The seed-robustness table: scenario × claim → pass fraction over N
/// seeds. Where [`SurvivalTable`] answers "does the claim survive this
/// perturbation at all", this answers "how often", separating flaky
/// borderline cells from solid ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedFractionTable {
    /// One row per scenario, in file order.
    pub rows: Vec<SeedFractionRow>,
}

impl SeedFractionTable {
    /// JSON export.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("table serializes")
    }

    /// Renders the scenario × claim pass-fraction grid as text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let codes: Vec<&str> = self
            .rows
            .first()
            .map(|r| r.cells.iter().map(|c| c.claim.as_str()).collect())
            .unwrap_or_default();
        let name_w = self
            .rows
            .iter()
            .map(|r| r.scenario.chars().count())
            .chain(std::iter::once("scenario".len()))
            .max()
            .unwrap_or(8);
        let seeds = self.rows.first().map(|r| r.seeds).unwrap_or(0);
        out.push_str(&format!(
            "== claim robustness: pass fraction over {seeds} seed(s) ==\n\
             (cells are passes/evaluated; starved runs are not evaluated, — = all starved)\n\n"
        ));
        out.push_str(&format!("{:<name_w$}", "scenario"));
        for code in &codes {
            out.push_str(&format!("  {code:<7}"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<name_w$}", row.scenario));
            for cell in &row.cells {
                out.push_str(&format!("  {:<7}", cell.label()));
            }
            out.push('\n');
        }
        let flaky: usize = self
            .rows
            .iter()
            .flat_map(|r| &r.cells)
            .filter(|c| c.passes > 0 && c.fails > 0)
            .count();
        out.push_str(&format!(
            "\n{} row(s), {} flaky cell(s) (mixed pass/fail across seeds)\n",
            self.rows.len(),
            flaky
        ));
        out
    }
}

/// Runs every scenario under `seeds` seeds (the scenario-effective seed,
/// then successive increments) and tallies per-claim verdicts into pass
/// fractions. The `shards` request is clamped per scenario exactly like
/// [`run_sweep`]; the table is shard-invariant for the same reason.
pub fn run_seed_sweep(
    matrix: &ScenarioMatrix,
    base: &StudyConfig,
    shards: usize,
    seeds: u32,
) -> Result<SeedFractionTable, SweepError> {
    assert!(seeds >= 1, "a seed sweep needs at least one seed");
    let germany = Germany::build();
    let mut rows = Vec::with_capacity(matrix.scenarios.len());
    for spec in &matrix.scenarios {
        let cfg0 = spec.apply(base, &germany)?;
        let effective = shards.clamp(1, usize::from(cfg0.sim.vantage.routers).max(1));
        let mut cells: Vec<SeedFractionCell> = Vec::new();
        for i in 0..seeds {
            let mut cfg = cfg0;
            cfg.sim.seed = cfg0.sim.seed.wrapping_add(u64::from(i));
            let report =
                Study::new(cfg)
                    .run_sharded(effective)
                    .map_err(|err| SweepError::Study {
                        scenario: spec.name.clone(),
                        err,
                    })?;
            if cells.is_empty() {
                cells = report
                    .claims
                    .iter()
                    .map(|c| SeedFractionCell {
                        claim: c.id.code().to_owned(),
                        passes: 0,
                        fails: 0,
                        starved: 0,
                    })
                    .collect();
            }
            // The claim table is fixed; every seed reports the same
            // claims in the same order.
            assert_eq!(cells.len(), report.claims.len());
            for (cell, claim) in cells.iter_mut().zip(&report.claims) {
                assert_eq!(cell.claim, claim.id.code());
                if claim.verdict.is_pass() {
                    cell.passes += 1;
                } else if claim.verdict.is_fail() {
                    cell.fails += 1;
                } else {
                    cell.starved += 1;
                }
            }
        }
        rows.push(SeedFractionRow {
            scenario: spec.name.clone(),
            seeds,
            cells,
        });
    }
    Ok(SeedFractionTable { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SurvivalTable {
        SurvivalTable {
            rows: vec![SurvivalRow {
                scenario: "baseline".to_owned(),
                config_hash: "abcd".to_owned(),
                matching_flows: 42,
                cells: vec![
                    SurvivalCell {
                        claim: "C1".to_owned(),
                        verdict: "pass".to_owned(),
                        measured: "3.3000e6".to_owned(),
                    },
                    SurvivalCell {
                        claim: "C5b".to_owned(),
                        verdict: "starved".to_owned(),
                        measured: "NaN".to_owned(),
                    },
                ],
            }],
        }
    }

    #[test]
    fn text_grid_contains_verdicts() {
        let text = table().render_text();
        assert!(text.contains("scenario"));
        assert!(text.contains("C1"));
        assert!(text.contains("C5b"));
        assert!(text.contains("pass"));
        assert!(text.contains("starved"));
        assert!(text.contains("1 starved cell(s)"));
    }

    #[test]
    fn json_roundtrip() {
        let t = table();
        let back: SurvivalTable = serde_json::from_str(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn measured_formatting_is_deterministic() {
        assert_eq!(format_measured(3.3e6), "3.3000e6");
        assert_eq!(format_measured(f64::NAN), "NaN");
        assert_eq!(format_measured(f64::INFINITY), "NaN");
    }

    fn fraction_table() -> SeedFractionTable {
        SeedFractionTable {
            rows: vec![SeedFractionRow {
                scenario: "baseline".to_owned(),
                seeds: 5,
                cells: vec![
                    SeedFractionCell {
                        claim: "C1".to_owned(),
                        passes: 5,
                        fails: 0,
                        starved: 0,
                    },
                    SeedFractionCell {
                        claim: "C2".to_owned(),
                        passes: 3,
                        fails: 1,
                        starved: 1,
                    },
                    SeedFractionCell {
                        claim: "C5b".to_owned(),
                        passes: 0,
                        fails: 0,
                        starved: 5,
                    },
                ],
            }],
        }
    }

    #[test]
    fn fraction_labels_separate_starved_from_evaluated() {
        let t = fraction_table();
        let labels: Vec<String> = t.rows[0]
            .cells
            .iter()
            .map(SeedFractionCell::label)
            .collect();
        assert_eq!(labels, ["5/5", "3/4", "—"]);
        let text = t.render_text();
        assert!(text.contains("5 seed(s)"));
        assert!(text.contains("3/4"));
        assert!(text.contains("1 flaky cell(s)"), "{text}");
    }

    #[test]
    fn fraction_json_roundtrip() {
        let t = fraction_table();
        let back: SeedFractionTable = serde_json::from_str(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }
}
