//! Live-mode equivalence: the windowed live pipeline
//! (`Study::run_live`) must end a replay with a report byte-identical
//! to the batch streaming path (`Study::run_streaming`) after the
//! volatile timings are stripped — for the serial driver and for
//! sharded views — while the mailbox it publishes into serves the same
//! final report plus monotonically advancing figure documents during
//! the replay.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cwa_repro::core::live::{LiveOptions, LIVE_FIGURE_SCHEMA, LIVE_REPORT_SCHEMA};
use cwa_repro::core::{Study, StudyConfig};
use cwa_repro::obs::{LiveFigure, LiveSnapshot};

fn canonical_json(report: &cwa_repro::core::StudyReport) -> String {
    serde_json::to_string(&report.strip_volatile()).expect("report serializes")
}

fn num(v: Option<&serde_json::Value>) -> Option<u64> {
    match v {
        Some(serde_json::Value::Num(n)) => n.as_u64(),
        _ => None,
    }
}

#[test]
fn live_replay_ends_bit_identical_to_streaming() {
    let baseline = Study::new(StudyConfig::test_small())
        .run_streaming()
        .expect("small study produces matching flows");
    let baseline_json = canonical_json(&baseline);

    for shards in [1usize, 2, 4] {
        let live = Arc::new(LiveSnapshot::new());
        let opts = LiveOptions {
            shards,
            publish: Some(Arc::clone(&live)),
            ..LiveOptions::default()
        };
        let report = Study::new(StudyConfig::test_small())
            .run_live(&opts)
            .expect("small study produces matching flows");
        assert_eq!(
            baseline_json,
            canonical_json(&report),
            "run_live(shards={shards}) == run_streaming"
        );

        // The served end state is exactly the returned report, wrapped
        // in the live envelope.
        let body = live.report().expect("final report published");
        let envelope: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
        assert_eq!(
            envelope.get("schema").and_then(|v| v.as_str()),
            Some(LIVE_REPORT_SCHEMA)
        );
        assert!(
            matches!(envelope.get("done"), Some(serde_json::Value::Bool(true))),
            "end-of-replay envelope is marked done"
        );
        assert_eq!(
            num(envelope.get("day")),
            Some(u64::from(report.config.sim.days)),
            "the replay covered every simulated day"
        );
        // Round-trip the returned report through the same renderer so
        // non-finite floats normalize identically (NaN → null).
        let report_value: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&report).expect("report serializes"))
                .expect("valid JSON");
        assert_eq!(
            envelope.get("report"),
            Some(&report_value),
            "served /report payload equals the returned report"
        );

        // Every figure endpoint got its final document.
        for figure in LiveFigure::ALL {
            let body = live.figure(figure).expect("figure published");
            let value: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
            assert_eq!(
                value.get("schema").and_then(|v| v.as_str()),
                Some(LIVE_FIGURE_SCHEMA)
            );
            assert_eq!(num(value.get("day")), num(envelope.get("day")));
        }
    }
}

/// The window verdicts are the report's own claim code run over the
/// window: on the final envelope of a replay whose window covers the
/// whole study, the day-anchored claims measure exactly what the report
/// measures, and every window verdict carries its report claim's
/// statement, paper value and band. C5a and C7c differ by design — the
/// window counts day 0, the report's ten-day map (days 1..11) does not —
/// so over a superset of days the window's district coverage can only
/// be higher.
#[test]
fn window_verdicts_share_the_report_claim_code() {
    for shards in [1usize, 2] {
        let live = Arc::new(LiveSnapshot::new());
        let opts = LiveOptions {
            shards,
            publish: Some(Arc::clone(&live)),
            ..LiveOptions::default()
        };
        let report = Study::new(StudyConfig::test_small())
            .run_live(&opts)
            .expect("small study produces matching flows");
        let body = live.report().expect("final report published");
        let envelope: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
        assert_eq!(num(envelope.get("window_from_day")), Some(0));
        assert!(num(envelope.get("window_to_day")) > Some(u64::from(report.config.sim.days)));
        let claims = envelope
            .get("report")
            .and_then(|r| r.get("claims"))
            .and_then(|c| c.as_array())
            .expect("report claims");
        let window = envelope
            .get("window_verdicts")
            .and_then(|v| v.as_array())
            .expect("window_verdicts");
        let id = |c: &serde_json::Value| c.get("id").and_then(|v| v.as_str()).map(str::to_owned);
        let ids: Vec<_> = window.iter().filter_map(id).collect();
        assert_eq!(
            ids,
            [
                "C1MatchingFlows",
                "C2ReleaseJump",
                "C5aCoverage10Day",
                "C6aNrwVsRest",
                "C6cBerlinSingleIsp",
                "C7cGroundTruthShare",
            ],
            "shards={shards}: a whole-study window judges all six"
        );
        for verdict in window {
            let code = id(verdict).expect("verdict id");
            let claim = claims
                .iter()
                .find(|c| id(c).as_deref() == Some(code.as_str()))
                .expect("the report judges every window claim");
            for field in ["paper_statement", "paper_value", "band"] {
                assert_eq!(
                    verdict.get(field),
                    claim.get(field),
                    "shards={shards} {code}: {field}"
                );
            }
            // NaN serializes as null, so equal JSON values count NaN as
            // equal to NaN.
            let measured = |c: &serde_json::Value| c.get("measured").cloned();
            match code.as_str() {
                "C5aCoverage10Day" => {
                    let as_f64 = |c: &serde_json::Value| match c.get("measured") {
                        Some(serde_json::Value::Num(n)) => n.as_f64(),
                        other => panic!("{code}: non-numeric measured {other:?}"),
                    };
                    assert!(
                        as_f64(verdict) >= as_f64(claim),
                        "shards={shards}: window coverage below the ten-day map's"
                    );
                }
                "C7cGroundTruthShare" => {}
                _ => assert_eq!(
                    measured(verdict),
                    measured(claim),
                    "shards={shards} {code}: measured"
                ),
            }
        }
    }
}

/// The sharded live driver publishes merged interim state once per
/// simulated day: mid-run envelopes are well-formed and advance
/// monotonically, and the publish count is exactly `days` interim
/// reports plus the final one (the deposit queues drain fully before
/// the end-of-run publication).
#[test]
fn sharded_replay_publishes_interim_merged_documents() {
    let config = StudyConfig::test_small();
    let days = u64::from(config.sim.days);
    let live = Arc::new(LiveSnapshot::new());
    let opts = LiveOptions {
        shards: 2,
        publish: Some(Arc::clone(&live)),
        ..LiveOptions::default()
    };
    let observer = Arc::clone(&live);
    let worker = std::thread::spawn(move || {
        Study::new(config)
            .run_live(&opts)
            .expect("small study produces matching flows")
    });

    // Opportunistic mid-run observation: whatever envelopes we catch
    // must be schema-tagged, carry well-formed window verdicts, and
    // advance monotonically in stream position.
    let mut observed: Vec<u64> = Vec::new();
    while !worker.is_finished() {
        if let Some(body) = observer.report() {
            let envelope: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
            assert_eq!(
                envelope.get("schema").and_then(|v| v.as_str()),
                Some(LIVE_REPORT_SCHEMA)
            );
            let verdicts = envelope
                .get("window_verdicts")
                .and_then(|v| v.as_array())
                .expect("window_verdicts is an array");
            for claim in verdicts {
                assert!(claim.get("id").is_some(), "verdict has an id: {claim:?}");
                assert!(
                    claim.get("verdict").is_some(),
                    "verdict has an outcome: {claim:?}"
                );
            }
            let hours = num(envelope.get("hours_seen")).expect("position present");
            if observed.last() != Some(&hours) {
                assert!(
                    observed.last().is_none_or(|last| *last < hours),
                    "interim positions must advance: {observed:?} then {hours}"
                );
                // The final (done) envelope sits one post-finish
                // checkpoint past the last day boundary and can be
                // observed before the worker thread retires; only
                // interim publishes are day-aligned.
                if !matches!(envelope.get("done"), Some(serde_json::Value::Bool(true))) {
                    assert_eq!(hours % 24, 0, "sharded interim publishes at day boundaries");
                }
                observed.push(hours);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = worker.join().expect("live run succeeds");
    assert!(report.matching_flows > 0);

    // Deterministic publish accounting: one merged interim report per
    // simulated day, plus the final done=true publication.
    assert_eq!(
        live.report_publishes(),
        days + 1,
        "one interim report per day plus the final publication"
    );
    let body = live.report().expect("final report published");
    let envelope: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
    assert!(matches!(
        envelope.get("done"),
        Some(serde_json::Value::Bool(true))
    ));
    assert_eq!(num(envelope.get("window_from_day")), Some(0));
    // The post-finish checkpoint opens (empty) day `days`, so the
    // final window is days 0 .. days+1.
    assert_eq!(num(envelope.get("window_to_day")), Some(days + 1));
    let verdicts = envelope
        .get("window_verdicts")
        .and_then(|v| v.as_array())
        .expect("window_verdicts present");
    assert!(
        !verdicts.is_empty(),
        "the final window evaluates at least C1/C5a/C7c"
    );
    assert!(
        verdicts
            .iter()
            .any(|c| c.get("id").and_then(|v| v.as_str()) == Some("C1MatchingFlows")),
        "C1 is window-evaluable: {body}"
    );
}

/// While a paced replay runs, the published figure documents advance
/// monotonically — the observable half of the endless-mode guarantee
/// (the memory bound itself is asserted in `cwa-analysis`'s windowed
/// tests).
#[test]
fn paced_replay_publishes_advancing_documents() {
    let live = Arc::new(LiveSnapshot::new());
    let opts = LiveOptions {
        shards: 1,
        // ~2.5 ms of wall clock per simulated hour: the 11-day replay
        // takes ~0.7 s, slow enough to observe several interim states.
        replay_speed: Some(1_440_000.0),
        publish: Some(Arc::clone(&live)),
        ..LiveOptions::default()
    };
    let worker = std::thread::spawn(move || {
        Study::new(StudyConfig::test_small())
            .run_live(&opts)
            .expect("small study produces matching flows")
    });

    let mut observed: Vec<u64> = Vec::new();
    while !worker.is_finished() {
        if let Some(body) = live.figure(LiveFigure::Adoption) {
            let value: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
            let hours = num(value.get("hours_seen")).expect("position present");
            if observed.last() != Some(&hours) {
                assert!(
                    observed.last().is_none_or(|last| *last < hours),
                    "stream position must advance monotonically: {observed:?} then {hours}"
                );
                observed.push(hours);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = worker.join().expect("live run succeeds");
    assert!(report.matching_flows > 0);
    assert!(
        observed.len() >= 2,
        "expected several interim publications, saw positions {observed:?}"
    );
    // An interim (not-done) report was served before the final one.
    let body = live.report().expect("report published");
    assert!(body.contains("\"done\": true"));
}

/// Pacing holds at any shard count: every shard worker sleeps once per
/// export hour at its checkpoint (the bounded feed channels carry that
/// back to the generator), so a paced 2-shard replay takes at least
/// hours × pace of wall clock.
#[test]
fn paced_sharded_replay_takes_hours_times_pace() {
    let mut config = StudyConfig::test_small();
    config.sim.days = 2;
    let hours = config.sim.days * 24;
    // 50 ms of wall clock per simulated hour: at least 2.4 s for the
    // 48-hour replay, several times what the unpaced replay takes.
    let speed = 72_000.0;
    let pace = Duration::from_secs_f64(3600.0 / speed);
    let opts = LiveOptions {
        shards: 2,
        replay_speed: Some(speed),
        ..LiveOptions::default()
    };
    let started = Instant::now();
    let report = Study::new(config)
        .run_live(&opts)
        .expect("small study produces matching flows");
    let elapsed = started.elapsed();
    assert!(report.matching_flows > 0);
    assert!(
        elapsed >= pace * hours,
        "paced 2-shard replay took {elapsed:?}, below {hours} hours × {pace:?}"
    );
}
