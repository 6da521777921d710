//! The study report: figures, claims, rendering, JSON export.

use serde::{Deserialize, Serialize};

use cwa_analysis::figures::{Figure2, Figure3};

use crate::claims::{Claim, Verdict};
use crate::study::StudyConfig;

/// Wall time of one named pipeline phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase name (e.g. `analysis.filter`).
    pub phase: String,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
}

/// Provenance of a study run: what produced this report, and how long
/// each phase took. Everything except `phase_timings` is a pure
/// function of the configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Master seed of the simulation.
    pub seed: u64,
    /// Traffic scale of the run.
    pub scale: f64,
    /// Simulated days.
    pub days: u32,
    /// SHA-256 (hex, first 16 chars) over the canonical JSON of the
    /// full study configuration.
    pub config_hash: String,
    /// Per-phase wall times, in execution order (volatile: differs
    /// between runs; strip with [`StudyReport::strip_volatile`] before
    /// comparing reports).
    pub phase_timings: Vec<PhaseTiming>,
}

/// Everything a study run produces, serializable to JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyReport {
    /// The configuration that produced this report.
    pub config: StudyConfig,
    /// Run provenance: seed, scale, config hash, per-phase timings.
    pub manifest: RunManifest,
    /// Figure 2 reproduction.
    pub figure2: Figure2,
    /// Figure 3 reproduction.
    pub figure3: Figure3,
    /// All evaluated claims.
    pub claims: Vec<Claim>,
    /// §2 matching flows (at the run's scale).
    pub matching_flows: u64,
    /// All collected records (matching + rejected).
    pub total_records: u64,
    /// C4a measured value.
    pub persistence_median: f64,
    /// C4b measured value.
    pub persistence_p75: f64,
    /// C7c measured value.
    pub ground_truth_share: f64,
    /// C2 measured value.
    pub release_jump: f64,
    /// Raw per-district flow counts behind Figure 3 (10-day window),
    /// indexed by `DistrictId`.
    pub district_flows: Vec<u64>,
    /// Daily Umbrella-model rank of the API name.
    pub api_rank_by_day: Vec<u64>,
    /// Daily rank of the website name.
    pub website_rank_by_day: Vec<u64>,
}

impl StudyReport {
    /// True if every claim passed.
    pub fn all_passed(&self) -> bool {
        self.claims.iter().all(|c| c.pass)
    }

    /// A copy with the wall-clock phase timings removed. Everything
    /// left is a pure function of the configuration, so two runs of
    /// the same config — any driver or shard count, metrics on or off —
    /// compare equal (asserted by the integration tests).
    pub fn strip_volatile(&self) -> StudyReport {
        let mut report = self.clone();
        report.manifest.phase_timings.clear();
        report
    }

    /// The claims with a genuine out-of-band failure ([`Verdict::Fail`]).
    /// Starved claims are *not* failures — they carry no evidence either
    /// way and are listed by [`starved`](StudyReport::starved) instead.
    pub fn failures(&self) -> Vec<&Claim> {
        self.claims.iter().filter(|c| c.verdict.is_fail()).collect()
    }

    /// The claims whose input cell lacked data ([`Verdict::Starved`]).
    pub fn starved(&self) -> Vec<&Claim> {
        self.claims
            .iter()
            .filter(|c| c.verdict.is_starved())
            .collect()
    }

    /// Renders the paper-vs-measured table plus figure summaries.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== CWA reproduction: paper vs. measured ==\n\n");
        out.push_str(&format!(
            "records: {} total, {} matching the §2 filter (scale {})\n\n",
            self.total_records, self.matching_flows, self.config.sim.scale
        ));
        out.push_str(
            "id    paper                          measured      band             verdict\n",
        );
        out.push_str(
            "----  -----------------------------  ------------  ---------------  -------\n",
        );
        for c in &self.claims {
            let paper = c
                .paper_value
                .map(format_value)
                .unwrap_or_else(|| "(qualitative)".to_owned());
            out.push_str(&format!(
                "{:<5} {:<30} {:<13} [{}, {}]  {}\n",
                c.id.code(),
                paper,
                format_value(c.measured),
                format_value(c.band.0),
                format_value(c.band.1),
                match c.verdict {
                    Verdict::Pass => "ok",
                    Verdict::Fail => "FAIL",
                    Verdict::Starved { .. } => "starved",
                }
            ));
        }
        out.push('\n');
        let starved = self.starved();
        if !starved.is_empty() {
            out.push_str(&format!(
                "{} claim(s) starved at scale {} (insufficient data, not a failure): {}\n\n",
                starved.len(),
                self.config.sim.scale,
                starved
                    .iter()
                    .map(|c| c.id.code())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out.push_str("Figure 2 (hourly flows normed to min, one char per hour):\n");
        out.push_str(&self.figure2.ascii_flows(self.figure2.flows_normed.len()));
        out.push('\n');
        out.push('\n');
        out.push_str(&format!(
            "Figure 3 (district coverage {:.1}%), top districts:\n",
            self.figure3.coverage * 100.0
        ));
        out.push_str(&self.figure3.top_table(10));
        out
    }

    /// JSON export of the full report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Figure 2 as a standalone SVG document.
    pub fn figure2_svg(&self) -> String {
        cwa_analysis::svg::figure2_svg(&self.figure2, 1000, 360)
    }

    /// Figure 3 as a standalone SVG bubble map.
    pub fn figure3_svg(&self) -> String {
        let germany = cwa_geo::Germany::build();
        let geo = cwa_analysis::geoloc::GeoResult {
            district_flows: self.district_flows.clone(),
            attribution_counts: std::collections::HashMap::new(),
        };
        cwa_analysis::svg::figure3_svg(&germany, &geo, 520, 640)
    }

    /// EXPERIMENTS.md-style markdown rows (one per claim).
    pub fn to_markdown_rows(&self) -> String {
        let mut out = String::new();
        for c in &self.claims {
            let paper = c
                .paper_value
                .map(format_value)
                .unwrap_or_else(|| "qualitative".to_owned());
            out.push_str(&format!(
                "| {} | {} | {} | {} | [{}, {}] | {} |\n",
                c.id.code(),
                c.paper_statement.replace('|', "/"),
                paper,
                format_value(c.measured),
                format_value(c.band.0),
                format_value(c.band.1),
                match c.verdict {
                    Verdict::Pass => "✅",
                    Verdict::Fail => "❌",
                    Verdict::Starved { .. } => "⚠️ starved",
                }
            ));
        }
        out
    }
}

/// Compact human formatting: 3.30M, 7.50, 0.67.
fn format_value(v: f64) -> String {
    if !v.is_finite() {
        return "NaN".to_owned();
    }
    if v.abs() >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v.abs() >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::{Claim, ClaimId};
    use cwa_analysis::geoloc::GeoResult;
    use cwa_geo::Germany;
    use cwa_simnet::SimConfig;
    use std::collections::HashMap;

    fn dummy_report(pass: bool) -> StudyReport {
        let g = Germany::build();
        let geo = GeoResult {
            district_flows: vec![1; g.len()],
            attribution_counts: HashMap::new(),
        };
        StudyReport {
            config: crate::study::StudyConfig {
                sim: SimConfig::test_small(),
                persistence_prefix_len: 24,
            },
            manifest: RunManifest {
                seed: SimConfig::test_small().seed,
                scale: SimConfig::test_small().scale,
                days: 11,
                config_hash: "0123456789abcdef".to_owned(),
                phase_timings: vec![PhaseTiming {
                    phase: "analysis.filter".to_owned(),
                    duration_ns: 12_345,
                }],
            },
            figure2: Figure2 {
                flows_normed: vec![1.0, 2.0],
                bytes_normed: vec![1.0, 2.0],
                downloads_millions: vec![None, Some(1.0)],
            },
            figure3: Figure3::assemble(&g, &geo),
            claims: vec![Claim::evaluate(
                ClaimId::C2ReleaseJump,
                "7.5x jump",
                Some(7.5),
                if pass { 7.0 } else { 1.0 },
                (4.0, 12.0),
                String::new(),
            )],
            matching_flows: 123,
            total_records: 456,
            district_flows: vec![1; g.len()],
            persistence_median: 0.67,
            persistence_p75: 0.8,
            ground_truth_share: 0.18,
            release_jump: 7.0,
            api_rank_by_day: vec![2_000_000, 900_000],
            website_rank_by_day: vec![9_000_000, 8_000_000],
        }
    }

    #[test]
    fn pass_fail_logic() {
        assert!(dummy_report(true).all_passed());
        let failing = dummy_report(false);
        assert!(!failing.all_passed());
        assert_eq!(failing.failures().len(), 1);
        assert!(failing.starved().is_empty());
    }

    #[test]
    fn starved_claims_are_not_failures() {
        use crate::claims::Cell;
        let mut report = dummy_report(true);
        report.claims[0] = report.claims[0]
            .clone()
            .with_starvation(Cell::GeoWindow, 0, 100, 123);
        assert!(report.failures().is_empty(), "starved ≠ failed");
        assert_eq!(report.starved().len(), 1);
        assert!(!report.all_passed(), "but starved is not a pass either");
        let text = report.render_text();
        assert!(text.contains("starved"), "rendering names the verdict");
        let md = report.to_markdown_rows();
        assert!(md.contains("starved"));
    }

    #[test]
    fn text_rendering_contains_key_parts() {
        let text = dummy_report(true).render_text();
        assert!(text.contains("C2"));
        assert!(text.contains("7.50"));
        assert!(text.contains("Figure 2"));
        assert!(text.contains("Figure 3"));
        assert!(text.contains("ok"));
    }

    #[test]
    fn json_roundtrip() {
        let report = dummy_report(true);
        let json = report.to_json();
        let back: StudyReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn strip_volatile_clears_timings_only() {
        let report = dummy_report(true);
        let stripped = report.strip_volatile();
        assert!(stripped.manifest.phase_timings.is_empty());
        assert_eq!(stripped.manifest.config_hash, report.manifest.config_hash);
        assert_eq!(stripped.manifest.seed, report.manifest.seed);
        assert_eq!(stripped.claims, report.claims);
        assert_ne!(stripped, report, "timings were present before stripping");
    }

    #[test]
    fn markdown_rows() {
        let md = dummy_report(false).to_markdown_rows();
        assert!(md.contains("| C2 |"));
        assert!(md.contains("❌"));
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(3.3e6), "3.30M");
        assert_eq!(format_value(7.5), "7.50");
        assert_eq!(format_value(1500.0), "1.5k");
        assert_eq!(format_value(f64::NAN), "NaN");
    }
}
