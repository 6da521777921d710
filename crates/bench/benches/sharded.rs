//! **Sharded vs. one-shard streaming pipeline** — wall time of
//! `Study::run_sharded(n)` (router fleet split across `n` scoped worker
//! threads, each filtering and analyzing its own record partition,
//! partials merged at the end) against the `Study::run_streaming`
//! baseline, at two scales. The baseline is itself the one-shard case
//! of `Study::run_sharded`: the calling thread generates while one worker
//! routes, collects and analyzes, so it already keeps two threads busy
//! and its 1-shard row reads ≈1.0×.
//!
//! Speedup scales with physical cores: on a single-core host every
//! shard count time-slices one CPU and speedup hovers around 1.0 (the
//! sharded path then only pays channel + merge overhead). The host's
//! parallelism is recorded in the output so downstream checks can
//! interpret the numbers (`scripts/ci.sh` only enforces a speedup
//! floor when `host_cpus >= 2`).
//!
//! Plain `harness = false` binary with manual timing. Each scale first
//! runs one untimed warm-up round of every path; then each of the
//! `REPS` repetitions times the streaming baseline and every shard
//! count back to back, so slow and fast phases of the host fall on all
//! paths alike. Each row reports its median with the quartiles beside
//! it. Results go to `BENCH_sharded.json`.

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;

use cwa_core::{Study, StudyConfig};
use cwa_netflow::CountingSink;
use cwa_simnet::{ShardKeyMode, Simulation};

const SCALES: [f64; 2] = [0.005, 0.02];
const SHARDS: [usize; 3] = [1, 2, 4];
const REPS: usize = 11;

/// Median and quartiles of one path's wall times, in ms.
#[derive(Serialize)]
struct Wall {
    q1_ms: f64,
    median_ms: f64,
    q3_ms: f64,
}

impl Wall {
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let at = |q: usize| round3(samples[(samples.len() - 1) * q / 4]);
        Wall {
            q1_ms: at(1),
            median_ms: at(2),
            q3_ms: at(3),
        }
    }
}

#[derive(Serialize)]
struct ShardRow {
    shards: usize,
    wall: Wall,
    /// Median wall-time ratio `run_streaming / run_sharded(n)`.
    speedup: f64,
    /// Largest per-shard export-hour chunk — the sharded path's memory
    /// bound (each worker holds at most one chunk of its own shard).
    max_shard_peak_resident_records: u64,
}

#[derive(Serialize)]
struct RunRow {
    scale: f64,
    streaming_wall: Wall,
    total_records: u64,
    matching_flows: u64,
    sharded: Vec<ShardRow>,
}

#[derive(Serialize)]
struct BenchDoc {
    schema: &'static str,
    generated_by: &'static str,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// speedup is only meaningful relative to this.
    host_cpus: usize,
    reps_per_path: usize,
    statistic: &'static str,
    runs: Vec<RunRow>,
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// One timed study run: wall ms and the matching-flow count.
fn timed(config: StudyConfig, shards: Option<usize>) -> (f64, u64) {
    let study = Study::new(config);
    let t = Instant::now();
    let report = match shards {
        None => study.run_streaming(),
        Some(n) => study.run_sharded(n),
    };
    let flows = black_box(report.expect("study failed").matching_flows);
    (t.elapsed().as_secs_f64() * 1e3, flows)
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    println!("host cpus: {host_cpus}, {REPS} interleaved reps per path");
    println!("scale    shards  q1_ms      median_ms  q3_ms      speedup  max_shard_resident");
    for scale in SCALES {
        let config = StudyConfig::at_scale(scale);
        let paths: Vec<Option<usize>> = std::iter::once(None)
            .chain(SHARDS.iter().map(|&n| Some(n)))
            .collect();

        let (_, stream_flows) = timed(config, None);
        for &path in &paths[1..] {
            timed(config, path);
        }
        let mut samples = vec![Vec::with_capacity(REPS); paths.len()];
        for _ in 0..REPS {
            for (&path, out) in paths.iter().zip(&mut samples) {
                let (ms, flows) = timed(config, path);
                assert_eq!(
                    flows, stream_flows,
                    "sharded and streaming must agree on the matching-flow count"
                );
                out.push(ms);
            }
        }
        let mut walls = samples.into_iter().map(Wall::of);
        let streaming_wall = walls.next().expect("baseline row");
        println!(
            "{scale:<8} stream  {:<10.1} {:<10.1} {:<10.1} 1.00",
            streaming_wall.q1_ms, streaming_wall.median_ms, streaming_wall.q3_ms
        );

        let prepared = Simulation::new(config.sim).prepare();
        let mut counting = CountingSink::default();
        let (_truth, _stats) = prepared.run_traffic(&mut counting);

        let mut sharded_rows = Vec::new();
        for (shards, wall) in SHARDS.into_iter().zip(walls) {
            let (_truth, results) = prepared
                .run_traffic_sharded(ShardKeyMode::Common, vec![CountingSink::default(); shards]);
            let max_peak = results
                .iter()
                .map(|(_, stats)| stats.peak_resident_records)
                .max()
                .unwrap_or(0);
            let speedup = round3(streaming_wall.median_ms / wall.median_ms);
            println!(
                "{scale:<8} {shards:<7} {:<10.1} {:<10.1} {:<10.1} {speedup:<8.2} {max_peak}",
                wall.q1_ms, wall.median_ms, wall.q3_ms
            );
            sharded_rows.push(ShardRow {
                shards,
                wall,
                speedup,
                max_shard_peak_resident_records: max_peak,
            });
        }

        rows.push(RunRow {
            scale,
            streaming_wall,
            total_records: counting.records,
            matching_flows: stream_flows,
            sharded: sharded_rows,
        });
    }

    let doc = BenchDoc {
        schema: "cwa-bench-sharded/v2",
        generated_by: "cargo bench -p cwa-bench --bench sharded",
        host_cpus,
        reps_per_path: REPS,
        statistic: "wall ms quartiles over interleaved reps after one warm-up round; speedup = median ratio",
        runs: rows,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharded.json");
    let pretty = serde_json::to_string_pretty(&doc).expect("serializes");
    match std::fs::write(path, pretty + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
