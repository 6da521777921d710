//! The repository's benchmark: three workloads, end-to-end metrics from
//! untraced runs of the program's public drivers, and a per-layer ledger
//! from a separate traced run that rebuilds the pipeline from each
//! layer's public functions.
//!
//! ```text
//! perfbench --workload <paper-serial|live-sharded|scenario-sweep|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--sim-seed HEX]
//! ```
//!
//! `--seed` seeds the benchmark's own inputs (the scrape client's
//! request mix); `--sim-seed` is the simulation seed (default
//! `0x20200616`, at which all 14 claims pass). Every repetition runs in
//! a child process of this binary, so peak RSS and CPU are that run's
//! alone. The last stdout line is the JSON result; the exit code is
//! nonzero when an output check fails.

mod scrape;
mod traced;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use cwa_core::{run_sweep, LiveOptions, ScenarioMatrix, Study, StudyConfig, StudyReport};
use cwa_geo::Germany;
use cwa_obs::{HeartbeatRing, LiveSnapshot, Registry, TelemetryServer, TelemetryState};
use cwa_perfbench::{
    highest_supported_percentile, is_metric_name, is_unit, median, percentile, process_cpu_s,
    process_peak_rss_mb, sha256_hex, trace_overhead_share, Ledger,
};
use cwa_simnet::Simulation;

use scrape::ScrapeLog;
use traced::{Counts, Outputs};

/// The simulation seed the claim bands were written against.
const DEFAULT_SIM_SEED: u64 = 0x2020_0616;
/// Traffic scale of `paper-serial` and `live-sharded`. Scale 1.0 takes
/// about two minutes a run; at 0.05 three repetitions fit one run.
const STUDY_SCALE: f64 = 0.05;
/// Traffic scale of `scenario-sweep`, as in the walkthrough.
const SWEEP_SCALE: f64 = 0.01;
/// Shards of `live-sharded` (the host's core count when it was chosen).
const LIVE_SHARDS: usize = 2;
/// The seven-scenario walkthrough matrix.
const SCENARIOS: &str = include_str!("../scenarios.toml");
/// Scrape samples a traced run's untraced repetitions need so that their
/// p99 has ten samples beyond it.
const MIN_SCRAPES: usize = 1000;
/// Untraced repetitions a run makes at least, so that every end-to-end
/// figure is a median of several samples.
const MIN_REPS: usize = 3;
/// The ledger's rows must add up to the traced wall clock within this
/// share, or the per-layer numbers do not explain the run.
const MAX_RESIDUAL_SHARE: f64 = 0.05;

/// End-to-end metrics: name and unit, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("scrape_p50_ms", "ms"),
];

/// Per-layer metrics from the traced run: name and unit, in print order.
const PER_LAYER: &[(&str, &str)] = &[
    ("setup.world_s", "s"),
    ("setup.side_tables_s", "s"),
    ("setup.export_sizes_s", "s"),
    ("traffic.generate_s", "s"),
    ("traffic.events", "count"),
    ("traffic.ns_per_event", "ns"),
    ("vantage.route_sample_s", "s"),
    ("vantage.sampled_packets", "count"),
    ("vantage.sampled_packet_share", "share"),
    ("vantage.export_s", "s"),
    ("vantage.datagrams", "count"),
    ("collector.ingest_s", "s"),
    ("collector.records", "count"),
    ("collector.ns_per_record", "ns"),
    ("collector.cryptopan_hit_rate", "share"),
    ("collector.drain_s", "s"),
    ("collector.peak_resident_records", "count"),
    ("analysis.filter_s", "s"),
    ("analysis.match_share", "share"),
    ("analysis.timeseries_s", "s"),
    ("analysis.geoloc_s", "s"),
    ("analysis.persistence_s", "s"),
    ("analysis.outbreak_s", "s"),
    ("analysis.windowed_s", "s"),
    ("live.publish_s", "s"),
    ("live.publishes", "count"),
    ("shard.00.sink_busy_s", "s"),
    ("shard.01.sink_busy_s", "s"),
    ("shard.00.recv_idle_s", "s"),
    ("shard.01.recv_idle_s", "s"),
    ("feed.send_block_s", "s"),
    ("merge.absorb_s", "s"),
    ("http.connect_ms", "ms"),
    ("http.ttfb_ms", "ms"),
    ("http.bytes", "bytes"),
    ("client.first_report_s", "s"),
    ("client.scrape_p99_ms", "ms"),
    ("client.lateness_p99_ms", "ms"),
    ("ledger.residual_share", "share"),
    ("ledger.trace_overhead_share", "share"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperSerial,
    LiveSharded,
    ScenarioSweep,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperSerial,
        Workload::LiveSharded,
        Workload::ScenarioSweep,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperSerial => "paper-serial",
            Workload::LiveSharded => "live-sharded",
            Workload::ScenarioSweep => "scenario-sweep",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The study configuration (the sweep's base configuration).
    fn config(self, sim_seed: u64) -> StudyConfig {
        let scale = match self {
            Workload::ScenarioSweep => SWEEP_SCALE,
            _ => STUDY_SCALE,
        };
        let mut cfg = StudyConfig::at_scale(scale);
        cfg.sim.seed = sim_seed;
        cfg
    }
}

fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::parse(SCENARIOS).expect("the bundled scenario matrix parses")
}

/// Every sweep scenario's effective configuration, in file order.
fn sweep_configs(base: &StudyConfig) -> Vec<StudyConfig> {
    let germany = Germany::build();
    matrix()
        .scenarios
        .iter()
        .map(|spec| {
            spec.apply(base, &germany)
                .expect("the bundled scenarios resolve")
        })
        .collect()
}

// ------------------------------------------------------------ child runs

/// One untraced repetition, as a child process reports it.
#[derive(Debug, Serialize, Deserialize)]
struct E2e {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// Live runs: seconds from the start until `/report` first answered
    /// 200 (0 on batch runs, which publish no interim report).
    first_report_s: f64,
    scrape: ScrapeLog,
    ops_attempted: u64,
    ops_failed: u64,
    correct: bool,
    note: String,
    /// The outputs the traced run must reproduce exactly.
    gate: String,
    /// Fingerprint of the final report after `strip_volatile()` (study
    /// workloads) — what the live run is checked against.
    report_sha: String,
}

/// One traced repetition, as a child process reports it.
#[derive(Debug, Serialize, Deserialize)]
struct TracedRun {
    wall_s: f64,
    /// Per-layer metrics, all but those measured by the scrape client
    /// and the overhead share.
    metrics: BTreeMap<String, f64>,
    rows: BTreeMap<String, f64>,
    gate: String,
}

fn gate_of(o: &Outputs, report_sha: &str) -> String {
    format!(
        "records={} matching_flows={} figure2={} district_flows={} report={}",
        o.records,
        o.matching_flows,
        sha256_hex(o.figure2_json.as_bytes()),
        sha256_hex(format!("{:?}", o.district_flows).as_bytes()),
        report_sha
    )
}

fn report_sha(report: &StudyReport) -> String {
    sha256_hex(report.strip_volatile().to_json().as_bytes())
}

/// Serves the program's telemetry endpoints beside `run` and scrapes
/// them on the open-loop schedule. Returns `run`'s result, its wall
/// clock and process CPU (the client thread's own CPU taken out), and
/// the client's log. The client stops before the server shuts down.
fn scraped<T>(
    live: Option<Arc<LiveSnapshot>>,
    seed: u64,
    run: impl FnOnce() -> T,
) -> (T, f64, f64, ScrapeLog) {
    let paths = if live.is_some() {
        scrape::LIVE_PATHS
    } else {
        scrape::BATCH_PATHS
    };
    let server = TelemetryServer::serve(
        "127.0.0.1:0",
        TelemetryState {
            registry: Arc::new(Registry::new()),
            ring: Arc::new(Mutex::new(HeartbeatRing::new(240))),
            stall_heartbeats: 20,
            live,
        },
    )
    .expect("bind a loopback port for the scrape server");
    let addr: SocketAddr = server.local_addr();
    let stop = AtomicBool::new(false);
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let (out, wall, log) = std::thread::scope(|scope| {
        let client = scope.spawn(|| scrape::run_client(addr, paths, seed, start, &stop));
        let out = run();
        let wall = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        let log = client.join().expect("scrape client thread");
        (out, wall, log)
    });
    let cpu = process_cpu_s() - cpu0 - log.client_cpu_s;
    server.shutdown();
    (out, wall, cpu, log)
}

fn child_e2e(w: Workload, sim_seed: u64, seed: u64) -> E2e {
    let cfg = w.config(sim_seed);
    let mut e = E2e {
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        first_report_s: 0.0,
        scrape: ScrapeLog::default(),
        ops_attempted: 0,
        ops_failed: 0,
        correct: true,
        note: String::new(),
        gate: String::new(),
        report_sha: String::new(),
    };
    let study_outcome = |e: &mut E2e, result: Result<StudyReport, cwa_core::StudyError>| {
        match result {
            Ok(report) => {
                e.report_sha = report_sha(&report);
                // The traced live run checks merged totals only: its
                // report is assembled inside the program.
                let gated_sha = if w == Workload::LiveSharded {
                    "-"
                } else {
                    &e.report_sha
                };
                e.gate = gate_of(&Outputs::of_report(&report), gated_sha);
                Some(report)
            }
            Err(err) => {
                e.correct = false;
                e.note = format!("study failed: {err}");
                None
            }
        }
    };
    match w {
        Workload::PaperSerial => {
            let (result, wall, cpu, log) = scraped(None, seed, || Study::new(cfg).run_streaming());
            (e.wall_s, e.cpu_s, e.scrape) = (wall, cpu, log);
            if let Some(report) = study_outcome(&mut e, result) {
                // One operation per claim verdict; anything but a pass fails.
                e.ops_attempted = report.claims.len() as u64;
                e.ops_failed = report
                    .claims
                    .iter()
                    .filter(|c| !c.verdict.is_pass())
                    .count() as u64;
                if report.claims.len() != 14 || (sim_seed == DEFAULT_SIM_SEED && e.ops_failed > 0) {
                    e.correct = false;
                    e.note = format!(
                        "{} of {} claims did not pass at the default seed",
                        e.ops_failed,
                        report.claims.len()
                    );
                }
            } else {
                (e.ops_attempted, e.ops_failed) = (14, 14);
            }
        }
        Workload::LiveSharded => {
            let live = Arc::new(LiveSnapshot::new());
            let opts = LiveOptions {
                shards: LIVE_SHARDS,
                replay_speed: None,
                publish: Some(Arc::clone(&live)),
                ..LiveOptions::default()
            };
            let (result, wall, cpu, log) =
                scraped(Some(live), seed, || Study::new(cfg).run_live(&opts));
            (e.wall_s, e.cpu_s) = (wall, cpu);
            e.first_report_s = log.first_report_s.unwrap_or(wall);
            let served = log.first_report_s.is_some();
            e.scrape = log;
            // The final report is one more operation: it fails when the
            // driver errs or `/report` never answered 200 during the run.
            e.ops_attempted = 1;
            if study_outcome(&mut e, result).is_none() || !served {
                e.ops_failed = 1;
            }
            if !served {
                e.note = "/report never answered 200 during the run".to_owned();
            }
        }
        Workload::ScenarioSweep => {
            let matrix = matrix();
            let (result, wall, cpu, log) = scraped(None, seed, || run_sweep(&matrix, &cfg, 1));
            (e.wall_s, e.cpu_s, e.scrape) = (wall, cpu, log);
            e.ops_attempted = matrix.scenarios.len() as u64;
            match result {
                Ok(table) => e.gate = format!("table={}", sha256_hex(table.to_json().as_bytes())),
                Err(err) => {
                    e.ops_failed = 1;
                    e.correct = false;
                    e.note = format!("sweep failed: {err}");
                }
            }
        }
    }
    e.peak_rss_mb = process_peak_rss_mb();
    e
}

/// The survival-table row of one report (the sweep's own formatting).
fn survival_row(name: &str, report: &StudyReport) -> cwa_core::SurvivalRow {
    cwa_core::SurvivalRow {
        scenario: name.to_owned(),
        config_hash: report.manifest.config_hash.clone(),
        matching_flows: report.matching_flows,
        cells: report
            .claims
            .iter()
            .map(|c| cwa_core::SurvivalCell {
                claim: c.id.code().to_owned(),
                verdict: c.verdict.label().to_owned(),
                measured: if c.measured.is_finite() {
                    format!("{:.4e}", c.measured)
                } else {
                    "NaN".to_owned()
                },
            })
            .collect(),
    }
}

/// Runs `f` on the gate clock: work done only to compare outputs, which
/// the traced wall clock leaves out.
fn on_gate<T>(gate: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *gate += t.elapsed();
    out
}

fn child_traced(w: Workload, sim_seed: u64) -> TracedRun {
    let cfg = w.config(sim_seed);
    let mut ledger = Ledger::default();
    let mut c = Counts::default();
    let mut gate_clock = Duration::ZERO;
    let g = &mut gate_clock;
    let start = Instant::now();
    let mut live = None;
    let gate = match w {
        Workload::PaperSerial => {
            let (report, outputs) = traced::study(&cfg, &mut ledger, &mut c, g);
            on_gate(g, || gate_of(&outputs, &report_sha(&report)))
        }
        Workload::ScenarioSweep => {
            let t = Instant::now();
            let configs = sweep_configs(&cfg);
            ledger.add("setup.world", t.elapsed());
            let mut rows = Vec::with_capacity(configs.len());
            for (spec, scenario_cfg) in matrix().scenarios.iter().zip(&configs) {
                let (report, _) = traced::study(scenario_cfg, &mut ledger, &mut c, g);
                rows.push(on_gate(g, || survival_row(&spec.name, &report)));
            }
            on_gate(g, || {
                let table = cwa_core::SurvivalTable { rows };
                format!("table={}", sha256_hex(table.to_json().as_bytes()))
            })
        }
        Workload::LiveSharded => {
            let t = traced::live_sharded(&cfg, LIVE_SHARDS, &mut ledger, &mut c, g);
            // The live check compares merged totals: the report itself
            // is assembled inside the program.
            let gate = on_gate(g, || gate_of(&t.outputs, "-"));
            live = Some(t);
            gate
        }
    };
    let wall_s = start.elapsed().saturating_sub(gate_clock).as_secs_f64();

    // Busy seconds: each `_s` metric reads the ledger row of its stem.
    let mut m: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|(name, _)| {
            let busy = name
                .strip_suffix("_s")
                .map_or(0.0, |row| ledger.seconds(row));
            (name.to_string(), busy)
        })
        .collect();
    let mut set = |name: &str, v: f64| {
        m.insert(name.to_owned(), v);
    };
    match &live {
        Some(t) => {
            for (i, (busy, idle)) in t.shards.iter().enumerate() {
                set(&format!("shard.{i:02}.sink_busy_s"), *busy);
                set(&format!("shard.{i:02}.recv_idle_s"), *idle);
            }
            set("feed.send_block_s", t.send_block_s);
            set("analysis.filter_s", t.filter_s);
            set("analysis.windowed_s", t.windowed_s);
            set("merge.absorb_s", t.absorb_s);
            set("live.publish_s", t.publish_s);
        }
        None => {
            // The serial drivers run one inline sink: shard 00.
            let sink = ["filter", "timeseries", "geoloc", "persistence", "outbreak"]
                .iter()
                .map(|s| ledger.seconds(&format!("analysis.{s}")))
                .sum();
            set("shard.00.sink_busy_s", sink);
            set(
                "traffic.ns_per_event",
                ratio(ledger.seconds("traffic.generate") * 1e9, c.events as f64),
            );
            set(
                "collector.ns_per_record",
                ratio(ledger.seconds("collector.ingest") * 1e9, c.records as f64),
            );
        }
    }
    set("traffic.events", c.events as f64);
    set("vantage.sampled_packets", c.sampled_packets as f64);
    set(
        "vantage.sampled_packet_share",
        ratio(c.sampled_packets as f64, c.generated_packets as f64),
    );
    set("vantage.datagrams", c.datagrams as f64);
    set("collector.records", c.records as f64);
    set(
        "collector.cryptopan_hit_rate",
        ratio(
            c.cryptopan_hits as f64,
            (c.cryptopan_hits + c.cryptopan_misses) as f64,
        ),
    );
    set(
        "collector.peak_resident_records",
        c.peak_resident_records as f64,
    );
    set(
        "analysis.match_share",
        ratio(c.matched as f64, c.records as f64),
    );
    set("live.publishes", c.publishes as f64);
    set("ledger.residual_share", ledger.residual_share(wall_s));
    TracedRun {
        wall_s,
        metrics: m,
        rows: ledger
            .rows()
            .iter()
            .map(|(n, d)| (n.clone(), d.as_secs_f64()))
            .collect(),
        gate,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One timed call of `Simulation::prepare` on the workload's
/// configuration, in a fresh process as a real run pays it (for the
/// sweep: one call per scenario, summed).
fn child_setup(w: Workload, sim_seed: u64) -> f64 {
    let cfg = w.config(sim_seed);
    let configs = match w {
        Workload::ScenarioSweep => sweep_configs(&cfg),
        _ => vec![cfg],
    };
    configs
        .iter()
        .map(|c| {
            let t = Instant::now();
            let prepared = Simulation::new(c.sim).prepare();
            let s = t.elapsed().as_secs_f64();
            drop(std::hint::black_box(prepared));
            s
        })
        .sum()
}

fn run_child(args: &[String]) -> Result<String, String> {
    let kind = args.first().ok_or("child needs a kind")?;
    let flags = Flags::parse(&args[1..])?;
    let w = flags.workload_one()?;
    let json = match kind.as_str() {
        "e2e" => serde_json::to_string(&child_e2e(w, flags.sim_seed, flags.seed)),
        "traced" => serde_json::to_string(&child_traced(w, flags.sim_seed)),
        "setup" => serde_json::to_string(&child_setup(w, flags.sim_seed)),
        "reference" => {
            let report = Study::new(w.config(flags.sim_seed))
                .run_streaming()
                .map_err(|e| format!("reference study failed: {e}"))?;
            serde_json::to_string(&report_sha(&report))
        }
        other => return Err(format!("unknown child kind '{other}'")),
    };
    json.map_err(|e| e.to_string())
}

// ---------------------------------------------------------- orchestrator

struct Flags {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    sim_seed: u64,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags {
            workload: String::new(),
            seed: 0,
            seconds: 30,
            trace: false,
            sim_seed: DEFAULT_SIM_SEED,
        };
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {key} needs a value"))?;
            let bad = |what: &str| format!("{key}: expected {what}, got '{value}'");
            match key.as_str() {
                "--workload" => f.workload = value.clone(),
                "--seed" => f.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => f.seconds = value.parse().map_err(|_| bad("an integer"))?,
                "--trace" => {
                    f.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--sim-seed" => {
                    let hex = value.trim_start_matches("0x").replace('_', "");
                    f.sim_seed = u64::from_str_radix(&hex, 16).map_err(|_| bad("a hex seed"))?;
                }
                _ => return Err(format!("unknown flag {key}")),
            }
        }
        Ok(f)
    }

    fn workload_one(&self) -> Result<Workload, String> {
        Workload::parse(&self.workload).ok_or_else(|| {
            format!(
                "--workload must be paper-serial, live-sharded, scenario-sweep or all; got '{}'",
                self.workload
            )
        })
    }

    fn child_args(&self, kind: &str, w: Workload) -> Vec<String> {
        [
            "child",
            kind,
            "--workload",
            w.name(),
            "--seed",
            &self.seed.to_string(),
            "--sim-seed",
            &format!("{:#x}", self.sim_seed),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

/// Runs one child process of this binary and parses its last stdout line.
fn spawn<T: Deserialize>(args: &[String]) -> Result<T, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot start child {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {:?} failed ({}): {}",
            &args[..4.min(args.len())],
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("bad child output '{line}': {e}"))
}

/// One workload's result: the four contract keys plus what the
/// human-readable report prints beside them.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    detail: Vec<String>,
}

/// Percentile `p` of one scrape series pooled over a run's repetitions.
fn pooled_percentile(logs: &[&ScrapeLog], pick: fn(&ScrapeLog) -> &Vec<f64>, p: f64) -> f64 {
    let xs: Vec<f64> = logs.iter().flat_map(|l| pick(l).iter().copied()).collect();
    percentile(&xs, p).unwrap_or(0.0)
}

/// Scrape latency percentile `p`, failed requests ranked as infinitely
/// late.
fn latency_percentile(logs: &[&ScrapeLog], p: f64) -> f64 {
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let xs: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latency_ms.iter().copied())
        .chain(std::iter::repeat_n(f64::INFINITY, failed as usize))
        .collect();
    percentile(&xs, p).unwrap_or(0.0)
}

fn scrape_samples(reps: &[E2e]) -> usize {
    reps.iter().map(|r| r.scrape.attempted as usize).sum()
}

/// Untraced repetitions of an untraced run: until the budget is spent,
/// and at least the workload's minimum. A set-up child runs before the
/// first repetition and after each one, so the set-up samples spread
/// over the whole run.
fn untraced_run(f: &Flags, w: Workload, deadline: Instant) -> Result<(Vec<E2e>, Vec<f64>), String> {
    let mut reps: Vec<E2e> = Vec::new();
    let mut setups: Vec<f64> = vec![spawn(&f.child_args("setup", w))?];
    let mut took: Vec<f64> = Vec::new();
    loop {
        let est = Duration::from_secs_f64(median(&took).unwrap_or(0.0));
        if (reps.len() >= MIN_REPS && Instant::now() + est > deadline) || reps.len() >= 12 {
            break;
        }
        let t = Instant::now();
        reps.push(spawn(&f.child_args("e2e", w))?);
        setups.push(spawn(&f.child_args("setup", w))?);
        took.push(t.elapsed().as_secs_f64());
    }
    Ok((reps, setups))
}

/// Untraced repetitions of a traced run: just enough for the scrape
/// client's p99 to have ten samples beyond it.
fn untraced_for_trace(f: &Flags, w: Workload) -> Result<Vec<E2e>, String> {
    let mut reps: Vec<E2e> = Vec::new();
    while scrape_samples(&reps) < MIN_SCRAPES {
        reps.push(spawn(&f.child_args("e2e", w))?);
    }
    Ok(reps)
}

fn run_workload(f: &Flags, w: Workload) -> Result<Outcome, String> {
    let mut o = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
        detail: Vec::new(),
    };
    // The live run's reference: the serial report at the same scale and
    // seed, computed before the budget starts.
    let reference: Option<String> = match w {
        Workload::LiveSharded => Some(spawn(&f.child_args("reference", Workload::PaperSerial))?),
        _ => None,
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs(f.seconds);
    let (reps, setup) = if f.trace {
        (untraced_for_trace(f, w)?, Vec::new())
    } else {
        untraced_run(f, w, deadline)?
    };

    for r in &reps {
        o.attempted += r.ops_attempted + r.scrape.attempted;
        o.failed += r.ops_failed + r.scrape.failed;
        if !r.correct {
            o.correct = false;
            o.notes.push(r.note.clone());
        }
        if r.gate != reps[0].gate {
            o.correct = false;
            o.notes
                .push("untraced repetitions disagree on their outputs".to_owned());
        }
        if let Some(want) = &reference {
            if &r.report_sha != want {
                o.correct = false;
                o.notes.push(
                    "live report differs from the serial report after strip_volatile()".into(),
                );
            }
        }
    }
    let logs: Vec<&ScrapeLog> = reps.iter().map(|r| &r.scrape).collect();
    let med =
        |pick: fn(&E2e) -> f64| median(&reps.iter().map(pick).collect::<Vec<_>>()).unwrap_or(0.0);
    let untraced_wall = med(|r| r.wall_s);
    let n = scrape_samples(&reps);
    o.detail.push(format!(
        "repetitions: {} untraced, walls {:?}; {n} scrape requests, highest supported percentile {}",
        reps.len(),
        reps.iter()
            .map(|r| (r.wall_s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        highest_supported_percentile(n).map_or("none".to_owned(), |p| format!("p{p}"))
    ));

    if !f.trace {
        o.metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "setup_s" => median(&setup).unwrap_or(0.0),
                    "wall_s" => untraced_wall,
                    "cpu_s" => med(|r| r.cpu_s),
                    "peak_rss_mb" => med(|r| r.peak_rss_mb),
                    "scrape_p50_ms" => latency_percentile(&logs, 50.0),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                (name.to_owned(), v, unit)
            })
            .collect();
        o.detail.push(format!("setup samples: {setup:?}"));
        return Ok(o);
    }

    // Traced repetitions: at least one, more while the budget lasts.
    let mut traced: Vec<TracedRun> = Vec::new();
    let mut took: Vec<f64> = Vec::new();
    loop {
        let est = Duration::from_secs_f64(median(&took).unwrap_or(0.0));
        if !traced.is_empty() && (Instant::now() + est > deadline || traced.len() >= 5) {
            break;
        }
        let t = Instant::now();
        let run: TracedRun = spawn(&f.child_args("traced", w))?;
        took.push(t.elapsed().as_secs_f64());
        if run.gate != reps[0].gate {
            o.correct = false;
            o.notes.push(format!(
                "traced run does not reproduce the untraced outputs:\n  untraced {}\n  traced   {}",
                reps[0].gate, run.gate
            ));
        }
        let residual = run.metrics["ledger.residual_share"];
        if residual.abs() > MAX_RESIDUAL_SHARE {
            o.correct = false;
            o.notes.push(format!(
                "ledger rows leave {:.1} % of the traced wall unexplained (limit {:.0} %)",
                100.0 * residual,
                100.0 * MAX_RESIDUAL_SHARE
            ));
        }
        traced.push(run);
    }
    let traced_wall = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>()).unwrap_or(0.0);
    for (name, unit) in PER_LAYER {
        let v = match *name {
            "http.connect_ms" => pooled_percentile(&logs, |l| &l.connect_ms, 50.0),
            "http.ttfb_ms" => pooled_percentile(&logs, |l| &l.ttfb_ms, 50.0),
            "http.bytes" => {
                let bytes: u64 = logs.iter().map(|l| l.bytes).sum();
                ratio(
                    bytes as f64,
                    logs.iter().map(|l| l.ttfb_ms.len()).sum::<usize>() as f64,
                )
            }
            "client.first_report_s" => med(|r| r.first_report_s),
            "client.scrape_p99_ms" => latency_percentile(&logs, 99.0),
            "client.lateness_p99_ms" => pooled_percentile(&logs, |l| &l.lateness_ms, 99.0),
            "ledger.trace_overhead_share" => trace_overhead_share(traced_wall, untraced_wall),
            _ => median(
                &traced
                    .iter()
                    .map(|t| t.metrics.get(*name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
        };
        o.metrics.push((name.to_string(), v, unit));
    }
    let last = traced.last().expect("at least one traced run");
    o.detail.push(format!(
        "traced: {} run(s), wall {:.3} s vs untraced {:.3} s; ledger of the last run (s):",
        traced.len(),
        traced_wall,
        untraced_wall
    ));
    let mut rows: Vec<_> = last.rows.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, s) in rows {
        o.detail.push(format!(
            "  {name:<24} {s:>9.3}  {:>5.1} %",
            100.0 * s / last.wall_s
        ));
    }
    let residual = last.metrics["ledger.residual_share"];
    o.detail.push(format!(
        "  {:<24} {:>9.3}  {:>5.1} %",
        "(residual)",
        residual * last.wall_s,
        100.0 * residual
    ));
    Ok(o)
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

/// Scenarios of the bundled matrix that pin their own simulation seed,
/// as `name=0x…` pairs: those ignore `--sim-seed`.
fn pinned_seeds() -> String {
    matrix()
        .scenarios
        .iter()
        .filter_map(|s| s.seed.map(|seed| format!("{}={seed:#x}", s.name)))
        .collect::<Vec<_>>()
        .join(",")
}

fn provenance(f: &Flags, workloads: &[Workload], modes: &[bool]) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\":{{\"git_revision\":\"{}\",\
         \"host_cpus\":{host_cpus},\"workloads\":\"{}\",\
         \"study_scale\":{STUDY_SCALE},\"sweep_scale\":{SWEEP_SCALE},\"live_shards\":{LIVE_SHARDS},\
         \"sim_seed\":\"{:#x}\",\"seed\":{},\"seconds\":{},\"trace\":\"{}\",\"scenarios_sha256\":\"{}\",\
         \"scenario_seed_pins\":\"{}\"}}}}",
        git_revision(),
        workloads.iter().map(|w| w.name()).collect::<Vec<_>>().join(","),
        f.sim_seed,
        f.seed,
        f.seconds,
        modes
            .iter()
            .map(|&t| u8::from(t).to_string())
            .collect::<Vec<_>>()
            .join(","),
        sha256_hex(SCENARIOS.as_bytes()),
        pinned_seeds()
    )
}

fn orchestrate(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args)?;
    let workloads: Vec<Workload> = if f.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![f.workload_one()?]
    };
    if f.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    // `all` runs every workload untraced and traced.
    let modes: &[bool] = if f.workload == "all" {
        &[false, true]
    } else {
        &[f.trace]
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for &w in &workloads {
        for &trace in modes {
            let flags = Flags {
                trace,
                workload: w.name().into(),
                ..f
            };
            let o = run_workload(&flags, w)?;
            println!("== {} (trace {}) ==", w.name(), u8::from(trace));
            for line in &o.detail {
                println!("{line}");
            }
            for (name, v, unit) in &o.metrics {
                println!("{name:<34} {v:>16.6} {unit}");
            }
            for note in &o.notes {
                println!("CHECK FAILED: {note}");
            }
            correct &= o.correct;
            attempted += o.attempted;
            failed += o.failed;
            for (name, v, unit) in o.metrics {
                let key = if workloads.len() > 1 {
                    format!("{}.{name}", w.name())
                } else {
                    name
                };
                metrics.push((key, v, unit));
            }
        }
    }
    for (name, v, unit) in &metrics {
        if !v.is_finite() || !is_unit(unit) || !is_metric_name(name) {
            return Err(format!("metric {name} = {v} {unit} is not reportable"));
        }
    }
    println!("{}", provenance(&f, &workloads, modes));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        return match run_child(&args[1..]) {
            Ok(json) => {
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match orchestrate(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: an output check failed (see CHECK FAILED above)");
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark's directory");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(v: &Value) -> Vec<(String, String)> {
        v.as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_owned(),
                    m.get("unit")
                        .and_then(Value::as_str)
                        .expect("unit")
                        .to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let doc = benchmark_json();
        let declared = |key: &str| names_units(doc.get(key).expect(key));
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(END_TO_END));
        assert_eq!(declared("per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        // The sweep runs on request only: three repetitions of it do not
        // fit one run's budget.
        assert_eq!(
            workloads,
            [Workload::PaperSerial, Workload::LiveSharded].map(Workload::name)
        );
    }

    #[test]
    fn every_metric_name_and_unit_follows_the_grammar() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_metric_name(name), "{name}");
            assert!(is_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
    }

    #[test]
    fn bounds_stay_within_a_quarter_and_setup_has_the_largest() {
        let doc = benchmark_json();
        let bounds: Vec<(String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_owned(),
                    match m.get("bound") {
                        Some(Value::Num(n)) => n.as_f64(),
                        other => panic!("bound must be a number, got {other:?}"),
                    },
                )
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s")
            .1;
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}");
            assert!(*bound <= setup, "{name} bound exceeds setup_s's");
        }
    }

    #[test]
    fn the_bundled_matrix_is_the_seven_scenario_walkthrough() {
        let names: Vec<String> = matrix().scenarios.into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "baseline",
                "slow-news-launch",
                "coarse-sampling",
                "migrated-cdn",
                "no-outbreaks",
                "muenchen-outbreak",
                "dsl-reconnect"
            ]
        );
    }

    #[test]
    fn traced_runs_scrape_enough_for_a_p99() {
        assert!(cwa_perfbench::percentile_supported(MIN_SCRAPES, 99.0));
        assert!(!cwa_perfbench::percentile_supported(MIN_SCRAPES - 1, 99.0));
    }

    #[test]
    fn flags_reject_bad_input() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let f = Flags::parse(&args(
            "--workload paper-serial --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid flags");
        assert_eq!((f.seed, f.seconds, f.trace), (7, 12, true));
        assert_eq!(f.sim_seed, DEFAULT_SIM_SEED);
        let f = Flags::parse(&args("--sim-seed 0x2020_0617")).expect("hex seed");
        assert_eq!(f.sim_seed, 0x2020_0617);
        for bad in [
            "--trace 2",
            "--seed -1",
            "--seconds",
            "--bogus 1",
            "--sim-seed zz",
        ] {
            assert!(Flags::parse(&args(bad)).is_err(), "{bad}");
        }
        let f = Flags::parse(&args("--workload paper")).expect("parses");
        assert!(f.workload_one().is_err());
    }
}
