//! Observability integration: the `cwa-obs` registry wired through the
//! full sim → vantage → analysis pipeline must (a) produce a valid
//! JSON snapshot covering every pipeline stage, and (b) never perturb
//! the study output — reports stay bit-identical with metrics enabled
//! or disabled.

use std::sync::Arc;

use cwa_repro::core::{LiveOptions, Study, StudyConfig};
use cwa_repro::obs::{Registry, Tracer};
use cwa_repro::simnet::ExportFormat;

#[test]
fn metrics_snapshot_covers_pipeline_and_reports_match() {
    let reg_serial = Arc::new(Registry::new());
    let serial = Study::new(StudyConfig::test_small())
        .with_metrics(Arc::clone(&reg_serial))
        .run()
        .expect("small study produces matching flows");
    let plain = Study::new(StudyConfig::test_small())
        .run()
        .expect("small study produces matching flows");

    // Identical reports with metrics on and off once the volatile
    // wall-clock phase timings are stripped.
    assert_eq!(
        serial.strip_volatile(),
        plain.strip_volatile(),
        "metrics on == off"
    );

    // The manifest carries provenance either way.
    assert_eq!(plain.manifest.seed, plain.config.sim.seed);
    assert_eq!(plain.manifest.config_hash, serial.manifest.config_hash);
    assert!(!plain.manifest.phase_timings.is_empty());

    // The snapshot is valid JSON (parseable by the workspace parser) …
    let json = reg_serial.to_json_pretty();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("snapshot is valid JSON");
    drop(parsed);

    // … and covers every stage of the pipeline: traffic generation,
    // sampling, cache evictions, collection, anonymization, sequence
    // accounting, and each analysis stage's duration.
    for key in [
        "\"schema\"",
        "\"simnet.traffic.flow_events\"",
        "\"simnet.router.00.sampled_packets\"",
        "\"simnet.router.00.unsampled_packets\"",
        "\"simnet.cache.evictions\"",
        "\"simnet.cache.packets_seen\"",
        "\"netflow.collector.records\"",
        "\"netflow.collector.anonymized_addresses\"",
        "\"netflow.collector.sequence_lost\"",
        "\"netflow.collector.decode_errors\"",
        "\"phase.simulate\"",
        "\"analysis.filter\"",
        "\"analysis.timeseries\"",
        "\"analysis.geoloc\"",
        "\"analysis.persistence\"",
        "\"analysis.outbreak\"",
        "\"analysis.filter.records_matched\"",
    ] {
        assert!(json.contains(key), "metrics snapshot missing {key}");
    }

    // Headline counters are live and consistent with the report.
    assert!(reg_serial.counter("simnet.traffic.flow_events").get() > 0);
    assert_eq!(
        reg_serial.counter("netflow.collector.records").get(),
        serial.total_records,
        "collector counter equals the report's record count"
    );
    assert_eq!(
        reg_serial.counter("analysis.filter.records_matched").get(),
        serial.matching_flows,
    );
}

/// The registry holds the same metrics whatever the horizon: nothing is
/// registered per simulated day, so a `--days inf` live run serves and
/// snapshots as many metrics as a two-day one.
#[test]
fn registry_names_do_not_depend_on_days() {
    let names_after = |days: u32| {
        let registry = Arc::new(Registry::new());
        let mut config = StudyConfig::test_small();
        config.sim.days = days;
        Study::new(config)
            .with_metrics(Arc::clone(&registry))
            .run_live(&LiveOptions::default())
            .expect("small study produces matching flows");
        registry.sample().into_keys().collect::<Vec<_>>()
    };
    assert_eq!(names_after(2), names_after(5));
}

/// The flight recorder is observation-only: with a tracer attached the
/// report stays bit-identical (after `strip_volatile`) to the untraced
/// run — across the batch, streaming, sharded and live drivers alike.
#[test]
fn tracer_never_perturbs_reports() {
    let traced_batch = Study::new(StudyConfig::test_small())
        .with_trace(Arc::new(Tracer::new()))
        .run()
        .expect("small study produces matching flows");
    let plain_batch = Study::new(StudyConfig::test_small())
        .run()
        .expect("small study produces matching flows");
    assert_eq!(
        traced_batch.strip_volatile(),
        plain_batch.strip_volatile(),
        "batch: tracer on == off"
    );

    let traced_streaming = Study::new(StudyConfig::test_small())
        .with_trace(Arc::new(Tracer::new()))
        .run_streaming()
        .expect("small study produces matching flows");
    let plain_streaming = Study::new(StudyConfig::test_small())
        .run_streaming()
        .expect("small study produces matching flows");
    assert_eq!(
        traced_streaming.strip_volatile(),
        plain_streaming.strip_volatile(),
        "streaming: tracer on == off"
    );

    let traced_sharded = Study::new(StudyConfig::test_small())
        .with_trace(Arc::new(Tracer::new()))
        .run_sharded(2)
        .expect("small study produces matching flows");
    let plain_sharded = Study::new(StudyConfig::test_small())
        .run_sharded(2)
        .expect("small study produces matching flows");
    assert_eq!(
        traced_sharded.strip_volatile(),
        plain_sharded.strip_volatile(),
        "sharded(2): tracer on == off"
    );

    for shards in [1usize, 2] {
        let opts = LiveOptions {
            shards,
            ..LiveOptions::default()
        };
        let traced_live = Study::new(StudyConfig::test_small())
            .with_trace(Arc::new(Tracer::new()))
            .run_live(&opts)
            .expect("small study produces matching flows");
        let plain_live = Study::new(StudyConfig::test_small())
            .run_live(&opts)
            .expect("small study produces matching flows");
        assert_eq!(
            traced_live.strip_volatile(),
            plain_live.strip_volatile(),
            "live({shards}): tracer on == off"
        );
    }
}

/// A sharded run's trace carries one Chrome "process" per shard with
/// the full stage vocabulary: produce and stall accounting on the
/// worker track, coalesced filter/analyze spans on the analysis track,
/// plus the study-level phase spans. A streaming run is the one-shard
/// case and takes the same layout, with no merge. The worker's routing
/// and idle time is coalesced into one span each per export hour, so
/// the worker track stays far below its ring's capacity.
#[test]
fn sharded_trace_covers_every_stage() {
    for shards in [2usize, 1] {
        let tracer = Arc::new(Tracer::new());
        let config = StudyConfig::test_small();
        let hours = config.sim.days * 24;
        let study = Study::new(config).with_trace(Arc::clone(&tracer));
        if shards == 1 {
            study.run_streaming()
        } else {
            study.run_sharded(shards)
        }
        .expect("small study produces matching flows");
        assert_eq!(
            tracer.total_dropped(),
            0,
            "{shards} shard(s): dropped events"
        );

        let json = tracer.to_chrome_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("chrome trace has a traceEvents array");
        let mut needles: Vec<String> = [
            // Process/thread layout: shard i is pid i+1 with feed, worker
            // and analysis tracks; the generator and study run on pid 0.
            "\"generator\"",
            "\"feed\"",
            "\"worker\"",
            "\"analysis\"",
            "\"study\"",
            // Worker-side stage spans and stall accounting.
            "\"produce\"",
            "\"export\"",
            "\"drain\"",
            "\"recv_idle\"",
            "\"collect.ingest\"",
            // Coalesced per-record analysis spans.
            "\"filter\"",
            "\"analyze\"",
            "\"timeseries\"",
            "\"geoloc\"",
            "\"persistence\"",
            "\"outbreak\"",
            // Study-level phases.
            "\"phase.simulate_analyze\"",
        ]
        .map(String::from)
        .to_vec();
        needles.extend((0..shards).map(|i| format!("\"shard{i:02}\"")));
        for needle in &needles {
            assert!(
                json.contains(needle),
                "{shards} shard(s): trace missing {needle}"
            );
        }
        assert_eq!(
            json.contains("\"phase.merge\""),
            shards > 1,
            "{shards} shard(s): merge phase"
        );
        assert!(!json.contains("\"day-loop\""), "no serial day-loop track");
        // Every shard process emitted span events (not just metadata),
        // and its worker track holds at most one produce and one
        // recv_idle span per export hour, plus one for the final flush.
        let num = |e: &serde_json::Value, key: &str| match e.get(key) {
            Some(serde_json::Value::Num(n)) => n.as_f64(),
            _ => -1.0,
        };
        for pid in 1..=shards {
            let spans = |name: &str| {
                events
                    .iter()
                    .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
                    .filter(|e| num(e, "pid") == pid as f64 && num(e, "tid") == 1.0)
                    .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                    .count()
            };
            for name in ["produce", "recv_idle", "export"] {
                let count = spans(name);
                assert!(
                    count > 0,
                    "{shards} shard(s): no {name} spans for pid {pid}"
                );
                assert!(
                    count <= hours as usize + 1,
                    "{shards} shard(s): {count} {name} spans on pid {pid}'s worker, \
                     more than one per export hour ({hours}) and the final flush"
                );
            }
        }
    }
}

/// The Crypto-PAn memo answers a repeated address from its address
/// slots without AES (an address hit, always also a /24 hit); every
/// other lookup pays its 8 host-bit blocks plus one block per
/// prefix-trie node above bit 24 it lacks. So a streaming run computes
/// between 8 and 32 blocks per address the slots miss, and the same
/// seed computes the same number.
#[test]
fn cryptopan_block_counter_is_bounded_and_deterministic() {
    let run = || {
        let registry = Arc::new(Registry::new());
        Study::new(StudyConfig::test_small())
            .with_metrics(Arc::clone(&registry))
            .run_streaming()
            .expect("small study produces matching flows");
        let count = |name: &str| registry.counter(name).get();
        (
            count("netflow.collector.cryptopan_blocks"),
            count("netflow.collector.anonymized_addresses"),
            count("netflow.collector.cryptopan_address_hits"),
            count("netflow.collector.cryptopan_cache_hits"),
        )
    };
    let (blocks, anonymized, address_hits, hits) = run();
    assert!(anonymized > 0, "no address anonymized");
    assert!(
        address_hits <= hits,
        "{address_hits} address hits, {hits} hits"
    );
    let walked = anonymized - address_hits;
    assert!(
        (8 * walked..=32 * walked).contains(&blocks),
        "{blocks} blocks for {walked} addresses the address slots missed"
    );
    assert_eq!(
        run(),
        (blocks, anonymized, address_hits, hits),
        "same seed, same blocks"
    );
}

/// Records are conserved hop by hop, read off one registry: every cache
/// eviction is a record the collector stored or one the transport lost
/// (inside a dropped datagram, or a v9 datagram whose template was
/// lost), every stored record reaches its shard's sink, and every record
/// the §2 filter matched reaches every consumer. The collector's own v5
/// sequence check is a lower bound on the loss: it sees a lost datagram
/// only from the gap before the next datagram of the same engine, so
/// records in an engine's last datagrams can be lost unseen. The live
/// driver, whose sinks feed a windowed view, conserves them the same way.
#[test]
fn records_are_conserved_hop_by_hop() {
    let cases = [
        (ExportFormat::V5, 0.0),
        (ExportFormat::V5, 0.05),
        (ExportFormat::V9, 0.05),
    ];
    // (live driver?, shards)
    let runs = [(false, 1), (false, 2), (false, 4), (true, 1), (true, 2)];
    for (format, loss) in cases {
        for (live, shards) in runs {
            let mut config = StudyConfig::test_small();
            config.sim.vantage.format = format;
            config.sim.vantage.export_loss_rate = loss;
            let registry = Arc::new(Registry::new());
            let study = Study::new(config).with_metrics(Arc::clone(&registry));
            if live {
                study.run_live(&LiveOptions {
                    shards,
                    ..LiveOptions::default()
                })
            } else {
                study.run_sharded(shards)
            }
            .expect("small study produces matching flows");
            let count = |name: &str| registry.counter(name).get();
            let driver = if live { "live" } else { "sharded" };
            let what = format!("{format:?}, loss {loss}, {driver}, {shards} shard(s)");

            let evictions = count("simnet.cache.evictions");
            let expired: u64 = ["active", "inactive", "emergency", "flush"]
                .iter()
                .map(|kind| count(&format!("simnet.cache.expired_{kind}")))
                .sum();
            assert!(evictions > 0, "{what}: no evictions");
            assert_eq!(evictions, expired, "{what}: evictions by cause");

            let records = count("netflow.collector.records");
            let lost = count("simnet.transport.lost_records");
            assert_eq!(
                records + lost,
                evictions,
                "{what}: stored + lost in transport = evicted"
            );
            let sequence_lost = count("netflow.collector.sequence_lost");
            let seen = records + sequence_lost;
            let dropped = count("simnet.transport.dropped_datagrams");
            if loss == 0.0 {
                assert_eq!(dropped, 0, "{what}");
                assert_eq!(lost, 0, "{what}");
                assert_eq!(seen, evictions, "{what}: stored + lost = evicted");
            } else {
                assert!(dropped > 0, "{what}: nothing dropped");
                assert!(records < evictions, "{what}: loss shows");
                assert!(
                    seen <= evictions,
                    "{what}: {seen} seen, {evictions} evicted"
                );
                assert!(
                    sequence_lost <= lost,
                    "{what}: the sequence check saw {sequence_lost} of {lost} lost"
                );
            }

            let per_shard: u64 = (0..shards)
                .map(|i| count(&format!("sim.shard.{i:02}.records")))
                .sum();
            assert_eq!(per_shard, records, "{what}: stored = delivered to shards");
            assert_eq!(
                count("analysis.stream.records_in"),
                records,
                "{what}: stored = filtered"
            );

            let matched = count("analysis.stream.records_matched");
            assert!(matched > 0, "{what}: nothing matched");
            for consumer in ["timeseries", "geoloc", "persistence", "outbreak"] {
                assert_eq!(
                    count(&format!("analysis.stream.{consumer}.records")),
                    matched,
                    "{what}: matched records reach {consumer}"
                );
            }
        }
    }
}

/// Every anonymized address is one memo lookup, a hit or a miss, on one
/// shard or several.
#[test]
fn cryptopan_lookups_equal_anonymized_addresses() {
    // One shard is `run_streaming`.
    for shards in [1, 2] {
        let registry = Arc::new(Registry::new());
        Study::new(StudyConfig::test_small())
            .with_metrics(Arc::clone(&registry))
            .run_sharded(shards)
            .expect("small study produces matching flows");
        let count = |name: &str| registry.counter(name).get();
        let anonymized = count("netflow.collector.anonymized_addresses");
        assert!(anonymized > 0, "{shards} shard(s): no address anonymized");
        assert_eq!(
            count("netflow.collector.cryptopan_cache_hits")
                + count("netflow.collector.cryptopan_cache_misses"),
            anonymized,
            "{shards} shard(s)"
        );
    }
}
