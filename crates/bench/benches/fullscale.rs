//! **Full-scale headline run** — the chunked columnar pipeline at
//! scale 1.0 (the paper's full eleven-day trace) through one shard (the
//! generating thread beside one worker): wall clock, sustained
//! records/s, peak resident records, and the Crypto-PAn prefix-cache
//! hit rate.
//!
//! Three comparison sections precede the headline (so their timings
//! are not polluted by a multi-minute run right before them):
//!
//! * **sampler microbench** — the producer-side distributions in
//!   isolation: the legacy shapes (Knuth product-loop Poisson with a
//!   clamped-normal tail, per-packet Bernoulli binomial with a
//!   clamped-normal tail, one-shot Box–Muller that discards the sine
//!   variate) are reproduced verbatim inside this bench and raced
//!   against the exact constant-draw samplers in `cwa-samplers`
//!   (inversion + PTRS Poisson, BINV + BTPE binomial, paired-normal
//!   cache) over a workload-shaped mixture of parameters. The ratio is
//!   attributable to the sampler swap alone.
//! * **record path** — the chunked-pipeline comparison from the
//!   previous refactor, kept as a regression guard: the per-record
//!   shape (uncached Crypto-PAn, per-record `matches`, four per-record
//!   dyn `observe` calls) against the chunked shape over a captured
//!   scale-0.02 record stream. `scripts/ci.sh` enforces a floor on it.
//! * **end to end** — the scale-0.02 streaming study (median of 3)
//!   against the committed pre-chunking baseline in
//!   `BENCH_streaming.json` — that file is the frozen before-picture
//!   and is never rewritten here. The flight recorder used to
//!   attribute ~80% of streaming wall clock to traffic *generation*;
//!   the sampler swap attacks exactly that share, so end-to-end wall
//!   now moves multi-× (and ci.sh holds a floor on the speedup).
//!
//! The headline run carries the flight recorder, and a producer-only
//! pass times the traffic run without analysis: the `producer` section
//! reports generated flow events/s (every generated flow, seen or not;
//! the generator emits only the ones the routers sample) and the
//! `produce` spans' share of streaming wall clock at scale 1.0. The
//! spans are summed over every track: the generator's (generation, its
//! blocked sends included) and the worker's (router `observe`), which
//! run side by side, so the share can exceed 100 %. The share comes
//! only from a complete trace: if the ring dropped any event, the bench
//! exits without writing the file.
//!
//! Plain `harness = false` binary with manual timing: each measurement
//! is a full simulate+analyze run, so a statistics harness's sampling
//! machinery would only add noise-floor theater. Results are printed and written
//! to `BENCH_fullscale.json` at the workspace root.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use cwa_analysis::filter::FlowFilter;
use cwa_analysis::persistence::PersistenceAnalysis;
use cwa_analysis::timeseries::HourlySeries;
use cwa_core::{Study, StudyConfig};
use cwa_netflow::flow::in_prefix;
use cwa_netflow::{
    CachedCryptoPan, CountingSink, CryptoPan, FlowChunk, FlowRecord, FlowSink,
    DEFAULT_CHUNK_CAPACITY,
};
use cwa_obs::{Registry, Tracer};
use cwa_simnet::Simulation;

/// The scale the comparison sections run at — must match a row of the
/// committed `BENCH_streaming.json` baseline.
const COMPARE_SCALE: f64 = 0.02;
const COMPARE_REPS: usize = 3;

/// Draws per sampler side in the microbench.
const SAMPLER_DRAWS: u64 = 4_000_000;

/// The pre-swap sampler shapes, reproduced verbatim from the traffic
/// generator's and the router sampler's original draws so the
/// microbench keeps a stable before-picture after the originals are
/// gone.
mod legacy {
    use rand::Rng;

    /// One-shot Box–Muller: burns two uniforms and discards the sine
    /// variate.
    pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Knuth's product method below mean 30 (O(mean) uniforms), clamped
    /// normal approximation above (approximate).
    pub fn poisson<R: Rng>(rng: &mut R, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean < 30.0 {
            let l = (-mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.gen::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
                if k > 100_000 {
                    return mean as u64;
                }
            }
        } else {
            let z = standard_normal(rng);
            (mean + mean.sqrt() * z).max(0.0).round() as u64
        }
    }

    /// Per-packet Bernoulli summation up to 64 packets (O(packets)
    /// uniforms), continuity-corrected clamped normal above
    /// (approximate).
    pub fn sample_packet_count<R: Rng>(rng: &mut R, packets: u64, n: u32) -> u64 {
        let n = n.max(1);
        if n == 1 {
            return packets;
        }
        let p = 1.0 / f64::from(n);
        if packets <= 64 {
            let mut hits = 0u64;
            for _ in 0..packets {
                if rng.gen::<f64>() < p {
                    hits += 1;
                }
            }
            hits
        } else {
            let mean = packets as f64 * p;
            let sd = (packets as f64 * p * (1.0 - p)).sqrt();
            let z = standard_normal(rng);
            let draw = (mean + sd * z + 0.5).floor();
            draw.clamp(0.0, packets as f64) as u64
        }
    }
}

#[derive(Serialize)]
struct Headline {
    scale: f64,
    wall_ms: f64,
    total_records: u64,
    matching_flows: u64,
    records_per_sec: f64,
    peak_resident_records: u64,
    cryptopan_cache_hits: u64,
    cryptopan_cache_misses: u64,
    cryptopan_cache_hit_rate: f64,
}

#[derive(Serialize)]
struct RecordPath {
    scale: f64,
    records: u64,
    matching_flows: u64,
    reps: usize,
    statistic: &'static str,
    per_record_ms: f64,
    chunked_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Comparison {
    scale: f64,
    reps: usize,
    statistic: &'static str,
    chunked_streaming_wall_ms: f64,
    baseline_streaming_wall_ms: Option<f64>,
    speedup_vs_baseline: Option<f64>,
}

#[derive(Serialize)]
struct SamplerMicro {
    draws_per_side: u64,
    legacy_poisson_ns_per_draw: f64,
    exact_poisson_ns_per_draw: f64,
    poisson_speedup: f64,
    legacy_binomial_ns_per_draw: f64,
    exact_binomial_ns_per_draw: f64,
    binomial_speedup: f64,
    legacy_normal_ns_per_draw: f64,
    paired_normal_ns_per_draw: f64,
    normal_speedup: f64,
}

#[derive(Serialize)]
struct Producer {
    scale: f64,
    wall_ms: f64,
    flow_events: u64,
    events_per_sec: f64,
    produce_span_ms: f64,
    produce_share_of_streaming: f64,
    sampler: SamplerMicro,
}

#[derive(Serialize)]
struct BenchDoc {
    schema: &'static str,
    generated_by: &'static str,
    host_cpus: usize,
    headline: Headline,
    producer: Producer,
    record_path: RecordPath,
    comparison: Comparison,
}

/// Times `SAMPLER_DRAWS` draws of `draw` (cycling a workload-shaped
/// parameter mixture by index) and returns ns/draw.
fn time_draws(mut draw: impl FnMut(&mut ChaCha8Rng, usize) -> u64) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBE7C);
    let mut acc = 0u64;
    let t = Instant::now();
    for i in 0..SAMPLER_DRAWS {
        acc = acc.wrapping_add(draw(&mut rng, i as usize));
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(acc);
    ns / SAMPLER_DRAWS as f64
}

/// Races the legacy sampler shapes against the exact constant-draw ones
/// over parameter mixtures shaped like the generator's workload.
fn sampler_microbench() -> SamplerMicro {
    // Arrival intensities spanning generate_hour's cohort-hour means,
    // straddling both samplers' small/large-mean cutoffs.
    const MEANS: [f64; 5] = [0.4, 2.5, 8.0, 35.0, 140.0];
    // Flow sizes at 1:1000 packet sampling: mostly small flows (the
    // log-normal bulk), a bulk-transfer tail crossing the legacy
    // 64-packet Bernoulli bound and the BINV/BTPE cutoff.
    const FLOWS: [u64; 5] = [6, 20, 60, 400, 20_000];
    const INTERVAL: u32 = 1000;

    let legacy_poisson = time_draws(|rng, i| legacy::poisson(rng, MEANS[i % MEANS.len()]));
    let exact_poisson = time_draws(|rng, i| cwa_samplers::poisson(rng, MEANS[i % MEANS.len()]));
    let legacy_binomial =
        time_draws(|rng, i| legacy::sample_packet_count(rng, FLOWS[i % FLOWS.len()], INTERVAL));
    let exact_binomial = time_draws(|rng, i| {
        cwa_samplers::binomial(rng, FLOWS[i % FLOWS.len()], 1.0 / f64::from(INTERVAL))
    });
    let legacy_normal = time_draws(|rng, _| legacy::standard_normal(rng) as u64);
    let mut cache = cwa_samplers::NormalCache::new();
    let paired_normal = time_draws(|rng, _| cache.standard_normal(rng) as u64);

    println!(
        "samplers ({SAMPLER_DRAWS} draws/side): poisson {legacy_poisson:.1} -> \
         {exact_poisson:.1} ns/draw ({:.2}x), binomial {legacy_binomial:.1} -> \
         {exact_binomial:.1} ns/draw ({:.2}x), normal {legacy_normal:.1} -> \
         {paired_normal:.1} ns/draw ({:.2}x)",
        legacy_poisson / exact_poisson,
        legacy_binomial / exact_binomial,
        legacy_normal / paired_normal,
    );
    SamplerMicro {
        draws_per_side: SAMPLER_DRAWS,
        legacy_poisson_ns_per_draw: round3(legacy_poisson),
        exact_poisson_ns_per_draw: round3(exact_poisson),
        poisson_speedup: round3(legacy_poisson / exact_poisson),
        legacy_binomial_ns_per_draw: round3(legacy_binomial),
        exact_binomial_ns_per_draw: round3(exact_binomial),
        binomial_speedup: round3(legacy_binomial / exact_binomial),
        legacy_normal_ns_per_draw: round3(legacy_normal),
        paired_normal_ns_per_draw: round3(paired_normal),
        normal_speedup: round3(legacy_normal / paired_normal),
    }
}

/// Sums the flight recorder's `produce` span durations (Chrome JSON
/// `dur` fields are microseconds). `None` when the ring dropped events:
/// a sum over the surviving spans would understate the share.
fn produce_span_ms(tracer: &Tracer) -> Option<f64> {
    if tracer.total_dropped() > 0 {
        return None;
    }
    let doc: serde_json::Value =
        serde_json::from_str(&tracer.to_chrome_json()).expect("tracer emits valid JSON");
    let mut total_us = 0.0;
    if let Some(events) = doc.get("traceEvents").and_then(|e| e.as_array()) {
        for ev in events {
            if ev.get("name").and_then(|n| n.as_str()) == Some("produce") {
                if let Some(serde_json::Value::Num(dur)) = ev.get("dur") {
                    total_us += dur.as_f64();
                }
            }
        }
    }
    Some(total_us / 1e3)
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// The streaming wall time the pre-refactor pipeline recorded at
/// `scale`, read from the committed `BENCH_streaming.json`.
fn baseline_streaming_ms(scale: f64) -> Option<f64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
    let text = std::fs::read_to_string(path).ok()?;
    let doc: serde_json::Value = serde_json::from_str(&text).ok()?;
    let num = |v: &serde_json::Value| match v {
        serde_json::Value::Num(n) => Some(n.as_f64()),
        _ => None,
    };
    doc.get("runs")?.as_array()?.iter().find_map(|run| {
        let s = num(run.get("scale")?)?;
        if (s - scale).abs() < 1e-12 {
            num(run.get("streaming_wall_ms")?)
        } else {
            None
        }
    })
}

/// Replays `records` through the pre-refactor record path: per-record
/// uncached Crypto-PAn, per-record filter evaluation, one dyn `observe`
/// call per consumer per matching record. Returns (wall ms, matching).
fn replay_per_record(
    records: &[FlowRecord],
    filter: &FlowFilter,
    server_prefixes: &[(Ipv4Addr, u8)],
    key: &[u8; 32],
    hours: u32,
    days: u32,
    prefix_len: u8,
) -> (f64, u64) {
    let cp = CryptoPan::new(key);
    let mut series = HourlySeries::new(hours);
    let mut persistence = PersistenceAnalysis::new(prefix_len, days);
    // Stand-ins for the geolocation/outbreak consumers (their side-table
    // plumbing is irrelevant here, and their internal work is identical
    // on both sides of the comparison — only the dispatch shape differs).
    let mut geo = CountingSink::default();
    let mut outbreak = CountingSink::default();
    let mut matching = 0u64;
    let t = Instant::now();
    {
        let mut consumers: [&mut dyn FlowSink; 4] =
            [&mut series, &mut persistence, &mut geo, &mut outbreak];
        for rec in records {
            let mut rec = *rec;
            if !server_prefixes
                .iter()
                .any(|&(p, l)| in_prefix(rec.key.src_ip, p, l))
            {
                rec.key.src_ip = cp.anonymize(rec.key.src_ip);
            }
            if !server_prefixes
                .iter()
                .any(|&(p, l)| in_prefix(rec.key.dst_ip, p, l))
            {
                rec.key.dst_ip = cp.anonymize(rec.key.dst_ip);
            }
            if filter.matches(&rec) {
                matching += 1;
                for sink in consumers.iter_mut() {
                    sink.observe(&rec);
                }
            }
        }
        for sink in consumers.iter_mut() {
            sink.finish();
        }
    }
    (
        black_box(t.elapsed().as_secs_f64() * 1e3),
        black_box(matching),
    )
}

/// Replays `records` through the chunked record path exactly as the
/// collector + study sink run it: memoized Crypto-PAn, records packed
/// into columnar chunks, one `select_into` per chunk, one
/// `observe_chunk` per consumer per chunk. Returns (wall ms, matching).
fn replay_chunked(
    records: &[FlowRecord],
    filter: &FlowFilter,
    server_prefixes: &[(Ipv4Addr, u8)],
    key: &[u8; 32],
    hours: u32,
    days: u32,
    prefix_len: u8,
) -> (f64, u64) {
    let mut cp = CachedCryptoPan::new(CryptoPan::new(key));
    let mut series = HourlySeries::new(hours);
    let mut persistence = PersistenceAnalysis::new(prefix_len, days);
    let mut geo = CountingSink::default();
    let mut outbreak = CountingSink::default();
    let mut chunk = FlowChunk::with_capacity(DEFAULT_CHUNK_CAPACITY);
    let mut sel = FlowChunk::with_capacity(DEFAULT_CHUNK_CAPACITY);
    let mut matching = 0u64;
    let t = Instant::now();
    {
        let mut consumers: [&mut dyn FlowSink; 4] =
            [&mut series, &mut persistence, &mut geo, &mut outbreak];
        let flush = |chunk: &mut FlowChunk,
                     sel: &mut FlowChunk,
                     consumers: &mut [&mut dyn FlowSink; 4],
                     matching: &mut u64| {
            filter.select_into(chunk, sel);
            if !sel.is_empty() {
                *matching += sel.len() as u64;
                for sink in consumers.iter_mut() {
                    sink.observe_chunk(sel);
                }
            }
            chunk.clear();
        };
        for rec in records {
            let mut rec = *rec;
            if !server_prefixes
                .iter()
                .any(|&(p, l)| in_prefix(rec.key.src_ip, p, l))
            {
                rec.key.src_ip = cp.anonymize(rec.key.src_ip);
            }
            if !server_prefixes
                .iter()
                .any(|&(p, l)| in_prefix(rec.key.dst_ip, p, l))
            {
                rec.key.dst_ip = cp.anonymize(rec.key.dst_ip);
            }
            chunk.push(&rec);
            if chunk.len() >= DEFAULT_CHUNK_CAPACITY {
                flush(&mut chunk, &mut sel, &mut consumers, &mut matching);
            }
        }
        if !chunk.is_empty() {
            flush(&mut chunk, &mut sel, &mut consumers, &mut matching);
        }
        for sink in consumers.iter_mut() {
            sink.finish();
        }
    }
    (
        black_box(t.elapsed().as_secs_f64() * 1e3),
        black_box(matching),
    )
}

fn main() {
    // ── Samplers: legacy shapes vs. exact constant-draw shapes ─────
    eprintln!("[fullscale] racing sampler shapes …");
    let sampler = sampler_microbench();

    // ── Record path: per-record legacy shape vs. chunked shape ─────
    // Capture a real scale-0.02 record stream once. `run_traffic`'s
    // output is already anonymized; re-anonymizing it below costs
    // exactly what anonymizing the raw stream costs (Crypto-PAn is a
    // prefix-preserving bijection, so address/prefix reuse — what the
    // memo cache feeds on — is structurally identical).
    let compare_config = StudyConfig::at_scale(COMPARE_SCALE);
    eprintln!("[fullscale] capturing scale {COMPARE_SCALE} record stream …");
    let prepared = Simulation::new(compare_config.sim).prepare();
    let server_prefixes = prepared.cdn.service_prefixes.to_vec();
    let filter = FlowFilter::cwa(server_prefixes.clone());
    let mut records: Vec<FlowRecord> = Vec::new();
    let _ = prepared.run_traffic(&mut records);
    let key = compare_config.sim.vantage.anon_key;
    let days = compare_config.sim.days;
    let hours = days * 24;
    let prefix_len = compare_config.persistence_prefix_len;

    let mut legacy_samples = Vec::with_capacity(COMPARE_REPS);
    let mut chunked_samples = Vec::with_capacity(COMPARE_REPS);
    let mut legacy_matching = 0;
    let mut chunked_matching = 0;
    for _ in 0..COMPARE_REPS {
        let (ms, m) = replay_per_record(
            &records,
            &filter,
            &server_prefixes,
            &key,
            hours,
            days,
            prefix_len,
        );
        legacy_samples.push(ms);
        legacy_matching = m;
        let (ms, m) = replay_chunked(
            &records,
            &filter,
            &server_prefixes,
            &key,
            hours,
            days,
            prefix_len,
        );
        chunked_samples.push(ms);
        chunked_matching = m;
    }
    assert_eq!(
        legacy_matching, chunked_matching,
        "both record paths must select the same flows"
    );
    let per_record_ms = median_ms(legacy_samples);
    let chunked_ms = median_ms(chunked_samples);
    let record_path_speedup = per_record_ms / chunked_ms;
    println!(
        "record path ({} records, {} matching): per-record {per_record_ms:.1}ms, \
         chunked {chunked_ms:.1}ms -> {record_path_speedup:.2}x",
        records.len(),
        legacy_matching,
    );
    let record_path = RecordPath {
        scale: COMPARE_SCALE,
        records: records.len() as u64,
        matching_flows: legacy_matching,
        reps: COMPARE_REPS,
        statistic: "median wall ms",
        per_record_ms: round3(per_record_ms),
        chunked_ms: round3(chunked_ms),
        speedup: round3(record_path_speedup),
    };
    drop(records);

    // ── End to end: scale-0.02 study vs. the frozen baseline ───────
    let mut samples = Vec::with_capacity(COMPARE_REPS);
    for _ in 0..COMPARE_REPS {
        let t = Instant::now();
        black_box(
            Study::new(compare_config)
                .run_streaming()
                .expect("comparison study failed"),
        );
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let chunked_e2e_ms = median_ms(samples);
    let baseline_ms = baseline_streaming_ms(COMPARE_SCALE);
    let speedup = baseline_ms.map(|b| b / chunked_e2e_ms);
    match (baseline_ms, speedup) {
        (Some(b), Some(s)) => println!(
            "end to end (scale {COMPARE_SCALE}): chunked {chunked_e2e_ms:.1}ms \
             vs baseline {b:.1}ms -> {s:.2}x"
        ),
        _ => println!(
            "end to end (scale {COMPARE_SCALE}): chunked {chunked_e2e_ms:.1}ms \
             (no baseline row in BENCH_streaming.json)"
        ),
    }
    let comparison = Comparison {
        scale: COMPARE_SCALE,
        reps: COMPARE_REPS,
        statistic: "median wall ms",
        chunked_streaming_wall_ms: round3(chunked_e2e_ms),
        baseline_streaming_wall_ms: baseline_ms.map(round3),
        speedup_vs_baseline: speedup.map(round3),
    };

    // ── Headline: scale 1.0, one shard, chunked streaming path ─────
    let config = StudyConfig::at_scale(1.0);
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::new());
    eprintln!("[fullscale] running scale 1.0 streaming study (single rep) …");
    let t = Instant::now();
    let report = black_box(
        Study::new(config)
            .with_metrics(Arc::clone(&registry))
            .with_trace(Arc::clone(&tracer))
            .run_streaming()
            .expect("full-scale study failed"),
    );
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let Some(produce_ms) = produce_span_ms(&tracer) else {
        eprintln!(
            "[fullscale] the trace dropped {} events; refusing to report a produce share",
            tracer.total_dropped()
        );
        std::process::exit(1);
    };

    let hits = registry
        .counter("netflow.collector.cryptopan_cache_hits")
        .get();
    let misses = registry
        .counter("netflow.collector.cryptopan_cache_misses")
        .get();
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };

    // Residency + producer isolation: drive the producer once more into
    // a counting sink — the streaming path holds at most one export
    // hour of records, and with no analysis behind it this pass times
    // generate_hour (plus vantage bookkeeping) alone.
    eprintln!("[fullscale] measuring peak residency (producer-only pass) …");
    let producer_registry = Arc::new(Registry::new());
    let prepared = Simulation::new(config.sim)
        .with_metrics(Arc::clone(&producer_registry))
        .prepare();
    let mut sink = CountingSink::default();
    let producer_t = Instant::now();
    let (_truth, stats) = prepared.run_traffic(&mut sink);
    let producer_wall_ms = producer_t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(sink.records, report.total_records);
    assert!(stats.peak_resident_records < sink.records);
    let flow_events = producer_registry
        .counter("simnet.traffic.flow_events")
        .get();
    let events_per_sec = flow_events as f64 / (producer_wall_ms / 1e3);
    let produce_share = produce_ms / wall_ms;
    println!(
        "producer (scale 1.0): {:.1}s wall, {flow_events} flow events \
         ({events_per_sec:.0}/s); produce span {:.1}s = {:.1}% of streaming wall",
        producer_wall_ms / 1e3,
        produce_ms / 1e3,
        produce_share * 100.0,
    );
    let producer = Producer {
        scale: 1.0,
        wall_ms: round3(producer_wall_ms),
        flow_events,
        events_per_sec: round3(events_per_sec),
        produce_span_ms: round3(produce_ms),
        produce_share_of_streaming: round3(produce_share),
        sampler,
    };

    let records_per_sec = report.total_records as f64 / (wall_ms / 1e3);
    println!(
        "scale 1.0: {:.1}s wall, {} records ({:.0}/s), {} matching, \
         peak resident {}, Crypto-PAn cache {:.2}% hit ({} hits / {} misses)",
        wall_ms / 1e3,
        report.total_records,
        records_per_sec,
        report.matching_flows,
        stats.peak_resident_records,
        hit_rate * 100.0,
        hits,
        misses,
    );

    let doc = BenchDoc {
        schema: "cwa-bench-fullscale/v1",
        generated_by: "cargo bench -p cwa-bench --bench fullscale",
        host_cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        headline: Headline {
            scale: 1.0,
            wall_ms: round3(wall_ms),
            total_records: report.total_records,
            matching_flows: report.matching_flows,
            records_per_sec: round3(records_per_sec),
            peak_resident_records: stats.peak_resident_records,
            cryptopan_cache_hits: hits,
            cryptopan_cache_misses: misses,
            cryptopan_cache_hit_rate: round3(hit_rate),
        },
        producer,
        record_path,
        comparison,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fullscale.json");
    let pretty = serde_json::to_string_pretty(&doc).expect("serializes");
    match std::fs::write(path, pretty + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
