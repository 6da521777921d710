//! Streaming-pipeline equivalence: the fused single-pass
//! simulate+analyze path (`Study::run_streaming`) must produce a report
//! byte-identical to the batch path (`Study::run`) once the volatile
//! wall-clock phase timings are stripped — with metrics on or off —
//! while never materializing the full flow-record vector. The sharded
//! path (`Study::run_sharded`) must in turn match the streaming report
//! for any shard count, with per-shard memory still bounded to one
//! export-hour chunk. One shard runs through the sharded path too; a
//! compact copy of the serial day loop it replaced is the oracle for
//! its record stream.

use std::sync::Arc;

use cwa_repro::core::study::persistence_len_for_scale;
use cwa_repro::core::{Study, StudyConfig, StudyError};
use cwa_repro::netflow::{CountingSink, FlowChunk, FlowRecord, FlowSink};
use cwa_repro::obs::Registry;
use cwa_repro::simnet::vantage::{ExportFormat, VantageConfig, VantagePoint, VantageRunStats};
use cwa_repro::simnet::{ShardKeyMode, SimConfig, Simulation};

/// Strips the volatile timings and serializes — byte-level equality is
/// the strongest statement we can make about the two paths.
fn canonical_json(report: &cwa_repro::core::StudyReport) -> String {
    serde_json::to_string(&report.strip_volatile()).expect("report serializes")
}

#[test]
fn streaming_report_is_bit_identical_to_batch() {
    let batch = Study::new(StudyConfig::test_small())
        .run()
        .expect("small study produces matching flows");
    let streaming = Study::new(StudyConfig::test_small())
        .run_streaming()
        .expect("small study produces matching flows");
    assert_eq!(
        canonical_json(&batch),
        canonical_json(&streaming),
        "streaming == batch (serial, metrics off)"
    );
    // The scientific payload is populated, not just trivially equal.
    assert_eq!(streaming.claims.len(), 14);
    assert!(streaming.matching_flows > 0);
    assert!(streaming.total_records > streaming.matching_flows);
}

#[test]
fn streaming_matches_batch_with_metrics() {
    // Metrics on, serial driver.
    let reg_batch = Arc::new(Registry::new());
    let batch = Study::new(StudyConfig::test_small())
        .with_metrics(Arc::clone(&reg_batch))
        .run()
        .expect("small study produces matching flows");
    let reg_stream = Arc::new(Registry::new());
    let streaming = Study::new(StudyConfig::test_small())
        .with_metrics(Arc::clone(&reg_stream))
        .run_streaming()
        .expect("small study produces matching flows");
    assert_eq!(
        canonical_json(&batch),
        canonical_json(&streaming),
        "streaming == batch (serial, metrics on)"
    );

    // The streaming registry carries the per-consumer stream counters …
    let json = reg_stream.to_json_pretty();
    for key in [
        "\"analysis.stream.records_in\"",
        "\"analysis.stream.records_matched\"",
        "\"analysis.stream.timeseries.records\"",
        "\"analysis.stream.geoloc.records\"",
        "\"analysis.stream.persistence.records\"",
        "\"analysis.stream.outbreak.records\"",
        "\"phase.simulate_analyze\"",
    ] {
        assert!(json.contains(key), "streaming snapshot missing {key}");
    }
    // … that are live and consistent with the report and with the
    // batch pipeline's counter vocabulary.
    assert_eq!(
        reg_stream.counter("analysis.stream.records_in").get(),
        streaming.total_records
    );
    assert_eq!(
        reg_stream.counter("analysis.stream.records_matched").get(),
        streaming.matching_flows
    );
    assert_eq!(
        reg_stream.counter("analysis.stream.geoloc.records").get(),
        streaming.matching_flows,
        "every consumer sees every matching record exactly once"
    );
    assert_eq!(
        reg_stream.counter("analysis.filter.records_matched").get(),
        reg_batch.counter("analysis.filter.records_matched").get(),
        "legacy counter parity between the two paths"
    );
}

#[test]
fn chunked_emission_bounds_resident_records() {
    let config = StudyConfig::test_small();
    let prepared = Simulation::new(config.sim).prepare();
    let mut sink = CountingSink::default();
    let (_truth, stats) = prepared.run_traffic(&mut sink);
    assert!(sink.finished, "producer closes the stream");
    assert!(sink.records > 0);
    assert!(
        stats.peak_resident_records < sink.records,
        "peak resident ({}) must stay below the total emitted ({}) — \
         only one export hour is buffered at a time",
        stats.peak_resident_records,
        sink.records
    );
}

/// Every call a producer makes on its sink, in order: the records of
/// each chunk, checkpoints and the end of the stream.
#[derive(Debug, Default, PartialEq)]
struct Transcript(Vec<SinkCall>);

#[derive(Debug, PartialEq)]
enum SinkCall {
    Chunk(Vec<FlowRecord>),
    Checkpoint,
    Finish,
}

impl FlowSink for Transcript {
    fn observe(&mut self, rec: &FlowRecord) {
        self.0.push(SinkCall::Chunk(vec![*rec]));
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        self.0.push(SinkCall::Chunk(chunk.iter().collect()));
    }

    fn checkpoint(&mut self) {
        self.0.push(SinkCall::Checkpoint);
    }

    fn finish(&mut self) {
        self.0.push(SinkCall::Finish);
    }
}

/// The serial day loop `run_traffic` replaced, kept as its oracle: the
/// whole fleet observes each generated hour on one thread, exports and
/// drains it, and flushes after the last hour.
fn day_loop(sim: SimConfig, chunk_capacity: Option<usize>) -> (Transcript, VantageRunStats) {
    let prepared = Simulation::new(sim).prepare();
    let mut model = prepared.traffic_model();
    let mut vantage = VantagePoint::new(
        sim.vantage,
        prepared.cdn.service_prefixes.to_vec(),
        sim.plan.prefix_len,
    );
    if let Some(capacity) = chunk_capacity {
        vantage.set_chunk_capacity(capacity);
    }
    let mut sink = Transcript::default();
    let hours = sim.days * 24;
    for hour in 0..hours {
        model.generate_hour(hour, &mut |ev| vantage.observe(ev));
        vantage.end_of_hour(hour);
        vantage.drain_records_into(&mut sink);
        sink.checkpoint();
    }
    let stats = vantage.finish_into(hours - 1, &mut sink);
    sink.checkpoint();
    sink.finish();
    (sink, stats)
}

/// `run_traffic` (one shard: generation on the calling thread, the
/// fleet on one worker) hands its sink exactly the serial day loop's
/// chunks, checkpoints and run statistics: with the default four
/// routers, with one router, and one record per chunk.
#[test]
fn run_traffic_equals_the_serial_day_loop() {
    let base = SimConfig {
        days: 3,
        ..StudyConfig::test_small().sim
    };
    let one_router = SimConfig {
        vantage: VantageConfig {
            routers: 1,
            ..base.vantage
        },
        ..base
    };
    for (what, sim, chunk_capacity) in [
        ("default fleet", base, None),
        ("one router", one_router, None),
        ("chunk capacity 1", base, Some(1)),
    ] {
        let (expected, expected_stats) = day_loop(sim, chunk_capacity);
        let mut simulation = Simulation::new(sim);
        if let Some(capacity) = chunk_capacity {
            simulation = simulation.with_chunk_capacity(capacity);
        }
        let mut got = Transcript::default();
        let (_truth, stats) = simulation.prepare().run_traffic(&mut got);
        let chunks = expected
            .0
            .iter()
            .filter(|call| matches!(call, SinkCall::Chunk(_)))
            .count();
        assert!(chunks > 0, "{what}: the oracle collected nothing");
        assert_eq!(got, expected, "{what}: sink calls");
        assert_eq!(stats, expected_stats, "{what}: run statistics");
    }
}

#[test]
fn sharded_report_matches_streaming_for_all_shard_counts() {
    let baseline = Study::new(StudyConfig::test_small())
        .run_streaming()
        .expect("small study produces matching flows");
    let baseline_json = canonical_json(&baseline);

    for shards in [1usize, 2, 4] {
        for metrics in [false, true] {
            let registry = metrics.then(|| Arc::new(Registry::new()));
            let mut study = Study::new(StudyConfig::test_small());
            if let Some(registry) = &registry {
                study = study.with_metrics(Arc::clone(registry));
            }
            let sharded = study
                .run_sharded(shards)
                .expect("small study produces matching flows");
            assert_eq!(
                baseline_json,
                canonical_json(&sharded),
                "run_sharded({shards}) == run_streaming (metrics {})",
                if metrics { "on" } else { "off" },
            );

            // The registry carries the shared streaming vocabulary,
            // per-shard throughput counters and channel-depth gauges at
            // every shard count, and the merge timer when there is more
            // than one shard to merge.
            if let Some(registry) = &registry {
                let json = registry.to_json_pretty();
                for key in [
                    "\"phase.simulate_analyze\"",
                    "\"analysis.stream.records_in\"",
                    "\"analysis.stream.records_matched\"",
                ] {
                    assert!(json.contains(key), "sharded snapshot missing {key}");
                }
                assert_eq!(
                    registry.counter("analysis.stream.records_in").get(),
                    sharded.total_records
                );
                for i in 0..shards {
                    for stem in ["records", "channel_depth", "peak_resident_records"] {
                        let key = format!("\"sim.shard.{i:02}.{stem}\"");
                        assert!(json.contains(&key), "sharded snapshot missing {key}");
                    }
                }
                assert_eq!(
                    json.contains("\"phase.merge\""),
                    shards > 1,
                    "merge timer at {shards} shard(s)"
                );
                let per_shard: u64 = (0..shards)
                    .map(|i| registry.counter(&format!("sim.shard.{i:02}.records")).get())
                    .sum();
                assert_eq!(
                    per_shard, sharded.total_records,
                    "shard throughput counters partition the record stream"
                );
            }
        }
    }
}

/// Under export loss each router's datagrams pass its own loss stream,
/// keyed by the router's global id, so the same datagrams are lost at
/// every shard count and the report does not depend on it, in v5 and in
/// v9 (whose lost template announcements leave data undecodable).
#[test]
fn lossy_reports_do_not_depend_on_the_shard_count() {
    for format in [ExportFormat::V5, ExportFormat::V9] {
        let mut config = StudyConfig::test_small();
        config.sim.vantage.format = format;
        config.sim.vantage.export_loss_rate = 0.05;
        let lossless = Study::new(StudyConfig::test_small())
            .run_streaming()
            .expect("small study produces matching flows");
        let one = Study::new(config)
            .run_sharded(1)
            .expect("small study produces matching flows");
        assert!(
            one.total_records < lossless.total_records,
            "{format:?}: loss shows ({} of {} records)",
            one.total_records,
            lossless.total_records
        );
        let one = canonical_json(&one);
        for shards in [2usize, 4] {
            let sharded = Study::new(config)
                .run_sharded(shards)
                .expect("small study produces matching flows");
            assert_eq!(
                one,
                canonical_json(&sharded),
                "{format:?} at loss 0.05: {shards} shards == 1 shard"
            );
        }
    }
}

#[test]
fn sharded_emission_bounds_resident_records_per_shard() {
    let config = StudyConfig::test_small();
    let prepared = Simulation::new(config.sim).prepare();

    // One-shard baseline: total record count and fleet-wide peak.
    let mut baseline = CountingSink::default();
    let (_truth, fleet_stats) = prepared.run_traffic(&mut baseline);

    let (_truth, results) =
        prepared.run_traffic_sharded(ShardKeyMode::Common, vec![CountingSink::default(); 2]);
    assert_eq!(results.len(), 2);
    let mut total = 0u64;
    for (i, (sink, stats)) in results.iter().enumerate() {
        assert!(sink.finished, "shard {i} closes its stream");
        assert!(sink.records > 0, "shard {i} owns part of the fleet");
        assert!(
            stats.peak_resident_records < sink.records,
            "shard {i}: peak resident ({}) must stay below its total ({})",
            stats.peak_resident_records,
            sink.records
        );
        assert!(
            stats.peak_resident_records <= fleet_stats.peak_resident_records,
            "shard {i}: a shard's export-hour chunk ({}) cannot exceed \
             the fleet-wide one ({})",
            stats.peak_resident_records,
            fleet_stats.peak_resident_records
        );
        total += sink.records;
    }
    assert_eq!(
        total, baseline.records,
        "the shards partition exactly the one-shard record stream"
    );
}

/// The scale-sweep starvation edge: a scale too small for any CWA flow
/// to survive sampling must degrade into per-claim `Starved` verdicts,
/// not abort the whole report — and all three execution paths must
/// degrade identically. The old all-or-nothing abort survives only
/// behind `--strict`.
#[test]
fn starved_scale_degrades_identically_across_paths() {
    // Sparse but populated: scale 0.001 still produces matching flows
    // and a full report (this used to starve C5b / panic in the
    // outbreak median before starvation was handled at all).
    let mut sparse = StudyConfig::test_small();
    sparse.sim.scale = 0.001;
    sparse.persistence_prefix_len = persistence_len_for_scale(sparse.sim.scale);
    let report = Study::new(sparse)
        .run()
        .expect("scale 0.001 still yields matching flows");
    assert!(report.matching_flows > 0);

    // Fully starved: nothing survives 1-in-N sampling. The report is
    // still produced; every claim reads `starved`, none reads `fail`.
    // At scale 1e-9 a run expects ≈ 0.008 records (7.8 M at scale 1),
    // so it is starved at almost every seed.
    let mut starved = StudyConfig::test_small();
    starved.sim.scale = 1e-9;
    starved.persistence_prefix_len = persistence_len_for_scale(starved.sim.scale);
    let batch = Study::new(starved)
        .run()
        .expect("starvation degrades, it does not abort");
    assert_eq!(batch.matching_flows, 0);
    // Starvation is per input cell: every flow-derived claim starves,
    // while the side-data claims (C3 adoption milestones, C7a/C7b
    // Umbrella DNS) keep their verdicts — their inputs never drained.
    let side_data = ["C3a", "C3b", "C7a", "C7b"];
    for claim in &batch.claims {
        if side_data.contains(&claim.id.code()) {
            assert!(
                !claim.verdict.is_starved(),
                "{}: side-data claims have no flow cell to starve",
                claim.id.code()
            );
        } else {
            assert!(
                claim.verdict.is_starved(),
                "{}: with zero matching flows every flow-derived cell is starved",
                claim.id.code()
            );
        }
    }
    assert!(
        batch.failures().is_empty(),
        "starvation is insufficient data, not a failed claim"
    );

    // The streaming and sharded paths degrade bit-identically.
    let streaming = Study::new(starved)
        .run_streaming()
        .expect("streaming path degrades too");
    let sharded = Study::new(starved)
        .run_sharded(2)
        .expect("sharded path degrades too");
    assert_eq!(canonical_json(&batch), canonical_json(&streaming));
    assert_eq!(canonical_json(&batch), canonical_json(&sharded));

    // Opt-in strict mode restores the old abort, on every path.
    for result in [
        Study::new(starved).strict(true).run(),
        Study::new(starved).strict(true).run_streaming(),
        Study::new(starved).strict(true).run_sharded(2),
    ] {
        match result {
            Err(StudyError::NoMatchingFlows {
                scale,
                total_records,
            }) => {
                assert_eq!(scale, 1e-9);
                assert_eq!(total_records, 0);
            }
            other => panic!("expected NoMatchingFlows under strict, got {other:?}"),
        }
    }
}

#[test]
fn invalid_shard_counts_are_rejected() {
    let config = StudyConfig::test_small();
    let routers = config.sim.vantage.routers;
    for bad in [0usize, usize::from(routers) + 1] {
        match Study::new(config).run_sharded(bad) {
            Err(StudyError::InvalidShardCount {
                requested,
                routers: r,
            }) => {
                assert_eq!(requested, bad);
                assert_eq!(r, routers);
            }
            other => panic!("expected InvalidShardCount for {bad}, got {other:?}"),
        }
    }
}
