//! Live-mode publication: options for
//! [`Study::run_live`](crate::Study::run_live) and the JSON documents a
//! live run publishes into the scrape server's [`LiveSnapshot`] mailbox.
//!
//! The documents are pre-rendered strings (`cwa-obs` sits below this
//! crate, so the server cannot serialize them itself) with stable
//! schema tags:
//!
//! * `/report` — a [`LIVE_REPORT_SCHEMA`] envelope wrapping the full
//!   interim [`StudyReport`] plus the stream position (`day`,
//!   `hours_seen`) and a `done` flag,
//! * `/figures/adoption`, `/figures/geo`, `/figures/outbreak` —
//!   [`LIVE_FIGURE_SCHEMA`] documents carrying the matching slice of
//!   the current [`WindowedSnapshot`].

use std::sync::Arc;

use serde::Serialize;

use cwa_analysis::windowed::{DaySummary, WindowedSnapshot};
use cwa_obs::{LiveFigure, LiveSnapshot};

use crate::claims::Claim;
use crate::report::StudyReport;

/// Options for [`Study::run_live`](crate::Study::run_live).
#[derive(Clone)]
pub struct LiveOptions {
    /// Vantage shards, each run by one worker beside the generating
    /// thread. One shard publishes from its worker after every export
    /// hour; two or more publish merged interim documents once per
    /// simulated day (from day-boundary shard snapshots merged off the
    /// hot path).
    pub shards: usize,
    /// Simulated-time multiple of the wall clock: `N` replays one
    /// export hour every `3600 / N` wall seconds, at any shard count.
    /// `None` replays as fast as possible.
    pub replay_speed: Option<f64>,
    /// Mailbox the rendered documents are published into (share it with
    /// the scrape server's `TelemetryState::live`). `None` disables
    /// publication.
    pub publish: Option<Arc<LiveSnapshot>>,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            shards: 1,
            replay_speed: None,
            publish: None,
        }
    }
}

/// Schema tag of the `/report` envelope.
pub const LIVE_REPORT_SCHEMA: &str = "cwa-live/v1";
/// Schema tag of the `/figures/*` documents.
pub const LIVE_FIGURE_SCHEMA: &str = "cwa-live-figure/v1";

// The vendored serde derive does not support generic (or
// lifetime-parameterized) types, so every document struct below owns
// its data — publication cadence is per export hour at most, so the
// clones are cheap next to the snapshot itself.

#[derive(Serialize)]
struct ReportEnvelope {
    schema: &'static str,
    day: u64,
    hours_seen: u64,
    horizon_days: u32,
    done: bool,
    window_from_day: u64,
    window_to_day: u64,
    window_verdicts: Vec<Claim>,
    report: StudyReport,
}

/// The sliding-window slice a set of window verdicts was evaluated
/// over, plus the verdicts themselves: the report's own claim table run
/// over the window's tables. Claims the window cannot judge (public
/// side data, lifetime persistence, anchor days already evicted) are
/// absent from `verdicts`.
#[derive(Debug, Clone, Default)]
pub struct WindowVerdicts {
    /// First day (inclusive) of the evaluated window.
    pub from_day: u64,
    /// One past the last day of the evaluated window.
    pub to_day: u64,
    /// The claims the window can judge, judged over the window only.
    pub verdicts: Vec<Claim>,
}

/// Renders the `/report` envelope around an interim (or final) report.
pub fn render_report(
    report: &StudyReport,
    day: u64,
    hours_seen: u64,
    horizon_days: u32,
    done: bool,
    window: &WindowVerdicts,
) -> String {
    serde_json::to_string_pretty(&ReportEnvelope {
        schema: LIVE_REPORT_SCHEMA,
        day,
        hours_seen,
        horizon_days,
        done,
        window_from_day: window.from_day,
        window_to_day: window.to_day,
        window_verdicts: window.verdicts.clone(),
        report: report.clone(),
    })
    .expect("report envelope serializes")
}

#[derive(Serialize)]
struct FigureDoc {
    schema: &'static str,
    figure: &'static str,
    day: u64,
    hours_seen: u64,
    window_from_day: u64,
    window_to_day: u64,
    data: serde_json::Value,
}

fn doc(figure: &'static str, snap: &WindowedSnapshot, data: serde_json::Value) -> String {
    serde_json::to_string_pretty(&FigureDoc {
        schema: LIVE_FIGURE_SCHEMA,
        figure,
        day: snap.day,
        hours_seen: snap.hours_seen,
        window_from_day: snap.window.from_day,
        window_to_day: snap.window.to_day,
        data,
    })
    .expect("figure document serializes")
}

/// Figure-2 slice: the hourly series across the sliding window plus the
/// retained cumulative per-day series.
#[derive(Serialize)]
struct AdoptionData {
    hourly_flows: Vec<u64>,
    hourly_bytes: Vec<u64>,
    daily: Vec<DaySummary>,
    total_flows: u64,
    total_bytes: u64,
    days_collapsed: u64,
}

/// Figure-3 slice: district intensities and attribution split, both for
/// the window and the lifetime.
#[derive(Serialize)]
struct GeoData {
    window_district_flows: Vec<u64>,
    window_attributions: [u64; 3],
    cumulative_district_flows: Vec<u64>,
    cumulative_attributions: [u64; 3],
    distinct_prefixes: u64,
}

/// §3 outbreak slice: per-day state tables and the Berlin per-ISP split
/// across the window.
#[derive(Serialize)]
struct OutbreakData {
    state_daily: Vec<[u64; 16]>,
    berlin_isp_daily: Vec<(u8, Vec<u64>)>,
    cumulative_state_flows: [u64; 16],
}

/// Renders one figure document from a live snapshot.
pub fn render_figure(figure: LiveFigure, snap: &WindowedSnapshot) -> String {
    match figure {
        LiveFigure::Adoption => doc(
            "adoption",
            snap,
            serde_json::to_value(&AdoptionData {
                hourly_flows: snap.window.hourly_flows.clone(),
                hourly_bytes: snap.window.hourly_bytes.clone(),
                daily: snap.cumulative.daily.clone(),
                total_flows: snap.cumulative.flows,
                total_bytes: snap.cumulative.bytes,
                days_collapsed: snap.cumulative.days_collapsed,
            }),
        ),
        LiveFigure::Geo => doc(
            "geo",
            snap,
            serde_json::to_value(&GeoData {
                window_district_flows: snap.window.district_flows.clone(),
                window_attributions: snap.window.attributions,
                cumulative_district_flows: snap.cumulative.district_flows.clone(),
                cumulative_attributions: snap.cumulative.attributions,
                distinct_prefixes: snap.window.distinct_prefixes,
            }),
        ),
        LiveFigure::Outbreak => doc(
            "outbreak",
            snap,
            serde_json::to_value(&OutbreakData {
                state_daily: snap.window.state_daily.clone(),
                berlin_isp_daily: snap.window.berlin_isp_daily.clone(),
                cumulative_state_flows: snap.cumulative.state_flows,
            }),
        ),
    }
}

/// Renders and publishes all three figure documents.
pub fn publish_figures(live: &Arc<LiveSnapshot>, snap: &WindowedSnapshot) {
    for figure in LiveFigure::ALL {
        live.publish_figure(figure, render_figure(figure, snap));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwa_analysis::windowed::{CumulativeSnapshot, WindowSnapshot};

    fn snapshot() -> WindowedSnapshot {
        WindowedSnapshot {
            hours_seen: 49,
            day: 2,
            cumulative: CumulativeSnapshot {
                flows: 10,
                bytes: 4_000,
                attributions: [2, 7, 1],
                district_flows: vec![3, 0, 6],
                state_flows: [0; 16],
                daily: vec![DaySummary {
                    day: 0,
                    flows: 4,
                    bytes: 1_600,
                    located: 4,
                }],
                days_collapsed: 0,
            },
            window: WindowSnapshot {
                from_day: 0,
                to_day: 3,
                hourly_flows: vec![1; 72],
                hourly_bytes: vec![400; 72],
                district_flows: vec![3, 0, 6],
                attributions: [2, 7, 1],
                state_daily: vec![[0; 16]; 3],
                berlin_isp_daily: vec![(1, vec![0, 2, 1])],
                distinct_prefixes: 5,
            },
        }
    }

    fn num(v: Option<&serde_json::Value>) -> Option<u64> {
        match v {
            Some(serde_json::Value::Num(n)) => n.as_u64(),
            _ => None,
        }
    }

    #[test]
    fn figure_documents_parse_and_carry_position() {
        let snap = snapshot();
        for figure in LiveFigure::ALL {
            let body = render_figure(figure, &snap);
            let value: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
            assert_eq!(
                value.get("schema").and_then(|v| v.as_str()),
                Some(LIVE_FIGURE_SCHEMA)
            );
            assert_eq!(num(value.get("day")), Some(2));
            assert_eq!(num(value.get("hours_seen")), Some(49));
            assert_eq!(num(value.get("window_from_day")), Some(0));
            assert!(
                value.get("data").and_then(|v| v.as_object()).is_some(),
                "{figure:?}: {body}"
            );
        }
        let adoption: serde_json::Value =
            serde_json::from_str(&render_figure(LiveFigure::Adoption, &snap)).unwrap();
        let data = adoption.get("data").expect("data object");
        assert_eq!(
            data.get("hourly_flows")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(72)
        );
        assert_eq!(num(data.get("total_flows")), Some(10));
    }

    #[test]
    fn publish_figures_fills_every_slot() {
        let live = Arc::new(LiveSnapshot::new());
        publish_figures(&live, &snapshot());
        for figure in LiveFigure::ALL {
            let body = live.figure(figure).expect("published");
            assert!(body.contains(LIVE_FIGURE_SCHEMA));
        }
    }
}
