//! `cwa-repro` — command-line front end for the reproduction.
//!
//! ```text
//! cwa-repro study [--scale S] [--seed N] [--streaming] [--shards N] [--out DIR] [--metrics FILE] [--trace FILE]
//!                 [--strict] [--scenario FILE]
//!                 [--live] [--replay-speed N] [--days N|inf]
//!                 [--serve ADDR] [--heartbeat-ms N] [--heartbeat-jsonl FILE] [--serve-linger-ms N]
//! cwa-repro sweep --scenarios FILE [--scale S] [--seed N] [--seeds N] [--shards N] [--json FILE]
//! cwa-repro watch [--claims] ADDR [--interval-ms N]
//! cwa-repro scrape ADDR PATH
//! cwa-repro obs-diff A.json B.json [--threshold PCT]
//! cwa-repro trace-summary FILE
//! cwa-repro dns   [--days N]
//! cwa-repro ablation
//! cwa-repro help
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

/// Writes one line to stderr through [`write_stderr`]; takes
/// `format!` arguments. Every command writes its progress and error
/// lines through here, never with `eprintln!`, which panics when stderr
/// is a closed pipe.
macro_rules! note {
    ($($arg:tt)*) => {
        write_stderr(format_args!($($arg)*))
    };
}

use cwa_analysis::filter::FlowFilter;
use cwa_core::{run_seed_sweep, run_sweep, LiveOptions, ScenarioMatrix, Study, StudyConfig};
use cwa_epidemic::timeline::StudyDay;
use cwa_simnet::sim::ScenarioKind;
use cwa_simnet::vantage::{VantageConfig, DEFAULT_SAMPLING_INTERVAL};
use cwa_simnet::{SimConfig, Simulation};

/// The longest horizon `--days` accepts (`study --live`, `dns`): ten
/// years, the `inf` replay. It keeps hour counts (`days * 24`) far inside
/// `u32` and the per-day tables of the epidemic and traffic models
/// bounded.
const MAX_DAYS: u32 = 3650;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args)
}

/// A subcommand: its flags and positional arguments after [`check_args`].
type Command = fn(&[String], &[String]) -> ExitCode;

/// Runs one command line (without the program name). Every subcommand's
/// arguments pass [`check_args`] against its own grammar before it runs.
fn run(args: &[String]) -> ExitCode {
    let Some(name) = args.first().map(String::as_str) else {
        return help(&[], &[]);
    };
    let (grammar, command): (&Grammar, Command) = match name {
        "study" => (&STUDY, study),
        "sweep" => (&SWEEP, sweep),
        "watch" => (&WATCH, watch),
        "scrape" => (&SCRAPE, scrape),
        "obs-diff" => (&OBS_DIFF, obs_diff),
        "trace-summary" => (&TRACE_SUMMARY, trace_summary),
        "dns" => (&DNS, dns),
        "ablation" => (&NO_ARGS, ablation),
        "help" => (&NO_ARGS, help),
        other => {
            note!("unknown command `{other}`\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match check_args(&args[1..], grammar) {
        Ok(words) => command(&args[1..], &words),
        Err(e) => {
            note!("{name}: {e} (see `cwa-repro help`)");
            ExitCode::FAILURE
        }
    }
}

fn help(_args: &[String], _words: &[String]) -> ExitCode {
    emit(&usage()).unwrap_or(ExitCode::SUCCESS)
}

fn usage() -> String {
    "cwa-repro — reproduction of the SIGCOMM'20 Corona-Warn-App measurement study\n\
     \n\
     USAGE:\n\
     \x20 cwa-repro study [--scale S] [--seed N] [--streaming] [--shards N] [--out DIR] [--metrics FILE] [--trace FILE]\n\
     \x20     run the full study and print the paper-vs-measured report;\n\
     \x20     --streaming fuses simulate+analyze into one single-pass\n\
     \x20     pipeline that never materializes the full record set\n\
     \x20     (same report modulo phase timings);\n\
     \x20     --shards N splits the router fleet across N worker threads,\n\
     \x20     each filtering+analyzing its own record partition, merged\n\
     \x20     deterministically at the end (same report as --streaming);\n\
     \x20     --metrics writes an observability snapshot — cwa-obs/v1\n\
     \x20     JSON, or Prometheus text exposition when FILE ends in .prom;\n\
     \x20     --trace records a flight-recorder timeline of every pipeline\n\
     \x20     stage (produce/export/drain/filter/analyze + channel stalls)\n\
     \x20     as Chrome trace-event JSON — load it in Perfetto or summarize\n\
     \x20     it with `cwa-repro trace-summary`;\n\
     \x20     --live replays day by day through the windowed incremental\n\
     \x20     view and (with --serve) publishes an interim report after\n\
     \x20     every simulated day plus figure documents every hour on\n\
     \x20     /report and /figures/{adoption,geo,outbreak}; the end state\n\
     \x20     equals the batch --streaming report; --replay-speed N paces\n\
     \x20     the replay at N× simulated time (an export hour every\n\
     \x20     3600/N wall seconds, at any --shards count; default: as\n\
     \x20     fast as possible) and\n\
     \x20     --days N|inf stretches the horizon (N ≤ 3650; `inf` = 3650,\n\
     \x20     ten years; the sliding window keeps resident state bounded\n\
     \x20     regardless);\n\
     \x20     --serve ADDR starts a live-telemetry HTTP server (endpoints\n\
     \x20     /metrics, /metrics.json, /progress, /healthz, and for --live\n\
     \x20     runs /report + /figures/*) for the run's\n\
     \x20     duration; --serve-linger-ms keeps it up after the run ends;\n\
     \x20     --heartbeat-ms sets the sampling interval (default 250) and\n\
     \x20     --heartbeat-jsonl streams one cwa-obs/v1 snapshot per\n\
     \x20     heartbeat to FILE, append-only;\n\
     \x20     --scenario FILE overlays a single [[scenario]] from FILE\n\
     \x20     onto the run's configuration;\n\
     \x20     --strict restores the old all-or-nothing behavior: abort\n\
     \x20     with NoMatchingFlows when nothing matched the §2 filter and\n\
     \x20     exit nonzero on *any* non-pass verdict. Without it, starved\n\
     \x20     claims are reported in the table (verdict `starved`) and\n\
     \x20     only genuine out-of-band failures exit nonzero\n\
     \x20 cwa-repro sweep --scenarios FILE [--scale S] [--seed N] [--seeds N] [--shards N] [--json FILE]\n\
     \x20     run every [[scenario]] in FILE over the sharded workers and\n\
     \x20     print the claim-survival table (scenario × claim →\n\
     \x20     pass/fail/starved); --json also writes the table as JSON,\n\
     \x20     byte-identical across --shards values; --scale/--seed set\n\
     \x20     the base configuration scenarios overlay; --seeds N runs\n\
     \x20     each scenario under N seeds and prints per-cell pass\n\
     \x20     fractions instead (flaky borderline cells vs solid ones)\n\
     \x20 cwa-repro watch [--claims] ADDR [--interval-ms N]\n\
     \x20     live terminal dashboard over a --serve endpoint: polls\n\
     \x20     /progress, renders per-shard throughput and stall ratios,\n\
     \x20     exits when the run completes; with --claims polls the\n\
     \x20     /report of a `study --live` run and renders the claim\n\
     \x20     verdict table as it evolves\n\
     \x20 cwa-repro scrape ADDR PATH\n\
     \x20     one-shot HTTP GET against a --serve endpoint (std TcpStream,\n\
     \x20     no curl needed); prints the body, exits nonzero on non-2xx\n\
     \x20 cwa-repro obs-diff A.json B.json [--threshold PCT]\n\
     \x20     compare two cwa-obs/v1 snapshots metric by metric; with\n\
     \x20     --threshold, exit nonzero when any phase.* timer regressed\n\
     \x20     by more than PCT percent\n\
     \x20 cwa-repro trace-summary FILE\n\
     \x20     print a per-thread self-time breakdown (utilization, send\n\
     \x20     block, receive idle) of a --trace capture\n\
     \x20 cwa-repro dns [--days N]\n\
     \x20     print the Umbrella-style DNS rank model output per day\n\
     \x20     (N ≤ 3650, default 11)\n\
     \x20 cwa-repro ablation\n\
     \x20     compare the paper scenario against the no-news counterfactual,\n\
     \x20     then the §2-filtered records at router sampling 1:100, 1:1000\n\
     \x20     and 1:4000\n\
     \x20 cwa-repro help\n"
        .to_owned()
}

/// One subcommand's argument grammar.
struct Grammar {
    /// Flags without a value.
    switches: &'static [&'static str],
    /// Flags that take a value.
    options: &'static [&'static str],
    /// How many plain words (addresses, file names) it takes.
    positionals: usize,
}

const STUDY: Grammar = Grammar {
    switches: &["--streaming", "--strict", "--live"],
    options: &[
        "--scale",
        "--seed",
        "--shards",
        "--out",
        "--metrics",
        "--trace",
        "--scenario",
        "--replay-speed",
        "--days",
        "--serve",
        "--heartbeat-ms",
        "--heartbeat-jsonl",
        "--serve-linger-ms",
    ],
    positionals: 0,
};
const SWEEP: Grammar = Grammar {
    switches: &[],
    options: &[
        "--scenarios",
        "--scale",
        "--seed",
        "--seeds",
        "--shards",
        "--json",
    ],
    positionals: 0,
};
const WATCH: Grammar = Grammar {
    switches: &["--claims"],
    options: &["--interval-ms"],
    positionals: 1,
};
const SCRAPE: Grammar = Grammar {
    switches: &[],
    options: &[],
    positionals: 2,
};
const OBS_DIFF: Grammar = Grammar {
    switches: &[],
    options: &["--threshold"],
    positionals: 2,
};
const TRACE_SUMMARY: Grammar = Grammar {
    switches: &[],
    options: &[],
    positionals: 1,
};
const DNS: Grammar = Grammar {
    switches: &[],
    options: &["--days"],
    positionals: 0,
};
const NO_ARGS: Grammar = Grammar {
    switches: &[],
    options: &[],
    positionals: 0,
};

/// Checks every argument against a subcommand's grammar: each must be
/// one of its switches, one of its options followed by a value, or one
/// of exactly `positionals` plain words. Returns the plain words in
/// order; names the first unknown flag, value flag without a value,
/// stray word or missing word.
fn check_args(args: &[String], grammar: &Grammar) -> Result<Vec<String>, String> {
    let mut words = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if grammar.switches.contains(&arg) {
            i += 1;
        } else if grammar.options.contains(&arg) {
            match args.get(i + 1) {
                Some(value) if !value.starts_with("--") => i += 2,
                _ => return Err(format!("`{arg}` needs a value")),
            }
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else if words.len() < grammar.positionals {
            words.push(arg.to_owned());
            i += 1;
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    if words.len() < grammar.positionals {
        return Err(format!(
            "takes {} argument(s), got {}",
            grammar.positionals,
            words.len()
        ));
    }
    Ok(words)
}

/// Minimal `--key value` / `--flag` parser (after [`check_args`]).
fn opt(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

fn study(args: &[String], _words: &[String]) -> ExitCode {
    let scale: f64 = match opt(args, "--scale").map(|s| s.parse()) {
        Some(Ok(s)) if s > 0.0 && s <= 1.0 => s,
        None => 0.02,
        _ => {
            note!("--scale must be a number in (0, 1]");
            return ExitCode::FAILURE;
        }
    };
    let mut config = StudyConfig::at_scale(scale);
    if let Some(seed) = opt(args, "--seed") {
        match seed.parse() {
            Ok(s) => config.sim.seed = s,
            Err(_) => {
                note!("--seed must be an integer");
                return ExitCode::FAILURE;
            }
        }
    }
    let strict = flag(args, "--strict");
    if let Some(path) = opt(args, "--scenario") {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                note!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let matrix = match ScenarioMatrix::parse(&text) {
            Ok(m) => m,
            Err(e) => {
                note!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if matrix.scenarios.len() != 1 {
            note!(
                "{path} holds {} scenarios; `study --scenario` takes exactly one (use `sweep` for a matrix)",
                matrix.scenarios.len()
            );
            return ExitCode::FAILURE;
        }
        let germany = cwa_geo::Germany::build();
        config = match matrix.scenarios[0].apply(&config, &germany) {
            Ok(cfg) => cfg,
            Err(e) => {
                note!("{e}");
                return ExitCode::FAILURE;
            }
        };
        note!("applied scenario '{}'", matrix.scenarios[0].name);
    }
    let streaming = flag(args, "--streaming");
    let shards: Option<usize> = match opt(args, "--shards").map(|s| s.parse()) {
        Some(Ok(n)) => Some(n),
        None => None,
        Some(Err(_)) => {
            note!("--shards must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let live_mode = flag(args, "--live");
    let replay_speed: Option<f64> = match opt(args, "--replay-speed").map(|s| s.parse()) {
        Some(Ok(n)) if n > 0.0 => Some(n),
        None => None,
        _ => {
            note!("--replay-speed must be a positive number (simulated-time multiple)");
            return ExitCode::FAILURE;
        }
    };
    if replay_speed.is_some() && !live_mode {
        note!("--replay-speed requires --live");
        return ExitCode::FAILURE;
    }
    if live_mode && streaming {
        note!("--live and --streaming are exclusive (live is already single-pass)");
        return ExitCode::FAILURE;
    }
    if let Some(days) = opt(args, "--days") {
        if !live_mode {
            note!("--days requires --live (the batch analysis tiers are horizon-bound)");
            return ExitCode::FAILURE;
        }
        // "inf" is endless in spirit: a ten-year replay; the windowed
        // view keeps resident state bounded regardless of the horizon.
        config.sim.days = if days == "inf" {
            MAX_DAYS
        } else {
            match days.parse() {
                Ok(d) if (1..=MAX_DAYS).contains(&d) => d,
                _ => {
                    note!("--days must be an integer from 1 to {MAX_DAYS}, or `inf`");
                    return ExitCode::FAILURE;
                }
            }
        };
    }
    let metrics_path = opt(args, "--metrics");
    let serve_addr = opt(args, "--serve");
    let heartbeat_jsonl = opt(args, "--heartbeat-jsonl");
    let heartbeat_ms: u64 = match opt(args, "--heartbeat-ms").map(|s| s.parse()) {
        Some(Ok(ms)) if ms > 0 => ms,
        None => 250,
        _ => {
            note!("--heartbeat-ms must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let linger_ms: u64 = match opt(args, "--serve-linger-ms").map(|s| s.parse()) {
        Some(Ok(ms)) => ms,
        None => 0,
        Some(Err(_)) => {
            note!("--serve-linger-ms must be an integer");
            return ExitCode::FAILURE;
        }
    };
    if opt(args, "--heartbeat-ms").is_some() && serve_addr.is_none() && heartbeat_jsonl.is_none() {
        note!("--heartbeat-ms requires --serve or --heartbeat-jsonl");
        return ExitCode::FAILURE;
    }
    if opt(args, "--serve-linger-ms").is_some() && serve_addr.is_none() {
        note!("--serve-linger-ms requires --serve");
        return ExitCode::FAILURE;
    }
    // Live telemetry needs a registry even without --metrics.
    let want_registry = metrics_path.is_some() || serve_addr.is_some() || heartbeat_jsonl.is_some();
    let registry = want_registry.then(|| std::sync::Arc::new(cwa_obs::Registry::new()));
    let trace_path = opt(args, "--trace");
    let tracer = trace_path
        .as_ref()
        .map(|_| std::sync::Arc::new(cwa_obs::Tracer::new()));

    // The live mailbox: the run publishes rendered documents into it,
    // the scrape server serves them on /report and /figures/*.
    let live_snapshot = live_mode.then(|| std::sync::Arc::new(cwa_obs::LiveSnapshot::new()));

    // Heartbeat sampler + scrape server, torn down after the run (and
    // after the optional linger window that CI uses to scrape a
    // finished run deterministically).
    let mut heartbeat = None;
    let mut server = None;
    if serve_addr.is_some() || heartbeat_jsonl.is_some() {
        let registry = registry.as_ref().expect("registry exists when serving");
        let hb = match cwa_obs::Heartbeat::start(
            std::sync::Arc::clone(registry),
            cwa_obs::HeartbeatConfig {
                interval: std::time::Duration::from_millis(heartbeat_ms),
                capacity: 240,
                jsonl: heartbeat_jsonl.as_ref().map(std::path::PathBuf::from),
            },
        ) {
            Ok(hb) => hb,
            Err(e) => {
                note!("cannot start heartbeat sampler: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(addr) = &serve_addr {
            let state = cwa_obs::TelemetryState {
                registry: std::sync::Arc::clone(registry),
                ring: hb.ring(),
                stall_heartbeats: 20,
                live: live_snapshot.clone(),
            };
            match cwa_obs::TelemetryServer::serve(addr.as_str(), state) {
                Ok(s) => {
                    // Stderr, parseable: with `--serve 127.0.0.1:0` this
                    // line is how scripts learn the real port. The
                    // address stays the first token after "on" so the
                    // dashboard suffix never breaks that parse.
                    note!(
                        "serving telemetry on {} (dashboard: http://{}/dashboard)",
                        s.local_addr(),
                        s.local_addr()
                    );
                    server = Some(s);
                }
                Err(e) => {
                    note!("cannot bind telemetry server on {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        heartbeat = Some(hb);
    }

    note!(
        "running study at scale {scale} (seed {:#x}{}{}{}) …",
        config.sim.seed,
        if streaming { ", streaming" } else { "" },
        if live_mode { ", live" } else { "" },
        shards.map(|n| format!(", {n} shards")).unwrap_or_default()
    );
    let start = std::time::Instant::now();
    let mut study = Study::new(config).strict(strict);
    if let Some(registry) = &registry {
        study = study.with_metrics(std::sync::Arc::clone(registry));
    }
    if let Some(tracer) = &tracer {
        study = study.with_trace(std::sync::Arc::clone(tracer));
    }
    let result = if live_mode {
        study.run_live(&LiveOptions {
            shards: shards.unwrap_or(1),
            replay_speed,
            publish: live_snapshot.clone(),
        })
    } else if let Some(n) = shards {
        study.run_sharded(n)
    } else if streaming {
        study.run_streaming()
    } else {
        study.run()
    };

    // Telemetry teardown. A successful run already set
    // `sim.progress.done` in report assembly; set it here too so a
    // *failed* run reads as done rather than stalled during the
    // linger window. Linger keeps the endpoints scrapeable after the
    // run (CI scrapes a bound-to-port-0 server without racing run
    // completion), then the server and sampler stop cleanly.
    if heartbeat.is_some() || server.is_some() {
        if let Some(registry) = &registry {
            registry.gauge("sim.progress.done").set(1);
        }
        if linger_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(linger_ms));
        }
        if let Some(s) = server.take() {
            s.shutdown();
        }
        if let Some(hb) = heartbeat.take() {
            hb.stop();
        }
    }

    // The flight recorder is written even when the study itself fails —
    // a trace of a failing run is exactly what one wants to look at.
    if let (Some(path), Some(tracer)) = (&trace_path, &tracer) {
        if let Err(e) = std::fs::write(path, tracer.to_chrome_json()) {
            note!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        let dropped = tracer.total_dropped();
        if dropped > 0 {
            note!("wrote {path} ({dropped} events dropped to ring wraparound)");
        } else {
            note!("wrote {path}");
        }
    }

    let report = match result {
        Ok(report) => report,
        Err(e) => {
            note!("study failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    note!("done in {:?}\n", start.elapsed());
    // The claim table is one output of several: a reader that stops
    // early ends it, not the files below or the claims' exit status.
    if let Err(e) = write_stdout(&format!("{}\n", report.render_text())) {
        note!("cannot write to stdout: {e}");
        return ExitCode::FAILURE;
    }

    if let (Some(path), Some(registry)) = (&metrics_path, &registry) {
        cwa_obs::publish_process_memory(registry);
        let snapshot = if path.ends_with(".prom") {
            registry.to_prometheus()
        } else {
            registry.to_json_pretty()
        };
        if let Err(e) = std::fs::write(path, snapshot) {
            note!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        note!("wrote {path}");
    }

    if let Some(dir) = opt(args, "--out") {
        let dir = std::path::PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            note!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let writes = [
            ("report.json", report.to_json()),
            ("figure2.csv", report.figure2.to_csv()),
            ("figure3.csv", report.figure3.to_csv()),
            ("figure2.svg", report.figure2_svg()),
            ("figure3.svg", report.figure3_svg()),
            ("claims.md", report.to_markdown_rows()),
        ];
        for (name, content) in writes {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, content) {
                note!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            note!("wrote {}", path.display());
        }
    }

    let starved = report.starved();
    if !starved.is_empty() {
        note!(
            "{} claim(s) starved at scale {scale} (insufficient data, not a failure)",
            starved.len()
        );
    }
    // Starvation degrades the report but only fails the run under
    // --strict; genuine out-of-band claims fail it either way.
    let ok = if strict {
        report.all_passed()
    } else {
        report.failures().is_empty()
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        if !report.failures().is_empty() {
            note!("{} claim(s) outside their bands", report.failures().len());
        }
        ExitCode::FAILURE
    }
}

fn sweep(args: &[String], _words: &[String]) -> ExitCode {
    let Some(path) = opt(args, "--scenarios") else {
        note!("sweep requires --scenarios FILE (a [[scenario]] matrix)");
        return ExitCode::FAILURE;
    };
    let scale: f64 = match opt(args, "--scale").map(|s| s.parse()) {
        Some(Ok(s)) if s > 0.0 && s <= 1.0 => s,
        None => 0.02,
        _ => {
            note!("--scale must be a number in (0, 1]");
            return ExitCode::FAILURE;
        }
    };
    let shards: usize = match opt(args, "--shards").map(|s| s.parse()) {
        Some(Ok(n)) => n,
        None => 1,
        Some(Err(_)) => {
            note!("--shards must be a non-negative integer");
            return ExitCode::FAILURE;
        }
    };
    let seeds: u32 = match opt(args, "--seeds").map(|s| s.parse()) {
        Some(Ok(n)) if n >= 1 => n,
        None => 1,
        _ => {
            note!("--seeds must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let mut base = StudyConfig::at_scale(scale);
    if let Some(seed) = opt(args, "--seed") {
        match seed.parse() {
            Ok(s) => base.sim.seed = s,
            Err(_) => {
                note!("--seed must be an integer");
                return ExitCode::FAILURE;
            }
        }
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            note!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if text.trim().is_empty() {
        note!("{path} is empty — not a scenario matrix");
        return ExitCode::FAILURE;
    }
    let matrix = match ScenarioMatrix::parse(&text) {
        Ok(m) => m,
        Err(e) => {
            note!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    note!(
        "sweeping {} scenario(s) at base scale {scale} (seed {:#x}, {shards} shard(s) requested, {seeds} seed(s)) …",
        matrix.scenarios.len(),
        base.sim.seed
    );
    let start = std::time::Instant::now();
    // --seeds 1 keeps the classic survival table; more seeds switch to
    // the pass-fraction table (per-cell robustness across seeds).
    let (text, json) = if seeds > 1 {
        match run_seed_sweep(&matrix, &base, shards, seeds) {
            Ok(t) => (t.render_text(), t.to_json()),
            Err(e) => {
                note!("sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match run_sweep(&matrix, &base, shards) {
            Ok(t) => (t.render_text(), t.to_json()),
            Err(e) => {
                note!("sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    note!("done in {:?}\n", start.elapsed());
    // A reader that stops early ends the table, not the --json file.
    if let Err(e) = write_stdout(&format!("{text}\n")) {
        note!("cannot write to stdout: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(json_path) = opt(args, "--json") {
        if let Err(e) = std::fs::write(&json_path, json) {
            note!("cannot write {json_path}: {e}");
            return ExitCode::FAILURE;
        }
        note!("wrote {json_path}");
    }
    ExitCode::SUCCESS
}

/// Minimal HTTP/1.0 GET over a std `TcpStream` (the telemetry scrape
/// client: no HTTP dependency, mirrors what the server speaks).
/// Returns `(status, body)`.
fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    use std::io::{Read, Write};
    let timeout = std::time::Duration::from_secs(5);
    let sock_addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad address `{addr}`: {e}"))?;
    let mut stream = std::net::TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|_| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("cannot configure socket: {e}"))?;
    let request = format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("request failed: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read failed: {e}"))?;
    let status: u16 = response
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Writes `line` and a newline to stderr in one `write_all`. A reader
/// that stops early (`2>&1 | head`) closes the pipe: this line and the
/// ones after it are dropped and the command carries on, as
/// [`write_stdout`] ends stdout quietly. Any other write error exits 1.
fn write_stderr(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    match std::io::stderr()
        .lock()
        .write_all(format!("{line}\n").as_bytes())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(_) => std::process::exit(1),
    }
}

/// Writes `text` to stdout in one `write_all` and flushes it. A reader
/// that stops early (`… | head`) closes the pipe: that ends the output
/// and reads `Ok(false)`, not an error. Every command writes its stdout
/// through here, never with `print!`, which panics on a closed pipe.
fn write_stdout(text: &str) -> std::io::Result<bool> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(e),
    }
}

/// Writes `text` through [`write_stdout`] for a command whose output is
/// all it makes. `Some(code)` ends the command: exit 0 when the reader
/// went away, 1 on any other write error (named on stderr).
fn emit(text: &str) -> Option<ExitCode> {
    match write_stdout(text) {
        Ok(true) => None,
        Ok(false) => Some(ExitCode::SUCCESS),
        Err(e) => {
            note!("cannot write to stdout: {e}");
            Some(ExitCode::FAILURE)
        }
    }
}

/// `cwa-repro scrape ADDR PATH` — one-shot GET, body to stdout. A
/// reader that stops early (`scrape … | head`) closes the pipe, which
/// ends the output; the exit status still follows the HTTP status.
fn scrape(_args: &[String], words: &[String]) -> ExitCode {
    let (addr, path) = (&words[0], &words[1]);
    match http_get(addr, path) {
        Ok((status, body)) => {
            if let Err(e) = write_stdout(&body) {
                note!("cannot write the body: {e}");
                return ExitCode::FAILURE;
            }
            if (200..300).contains(&status) {
                ExitCode::SUCCESS
            } else {
                note!("HTTP {status} from {addr}{path}");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            note!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Numeric accessor for the vendored JSON value.
fn json_num(v: Option<&serde_json::Value>) -> Option<f64> {
    match v {
        Some(serde_json::Value::Num(n)) => Some(n.as_f64()),
        _ => None,
    }
}

/// Renders one `/progress` document as a dashboard frame.
fn render_progress_frame(doc: &serde_json::Value) -> String {
    let state = doc.get("state").and_then(|s| s.as_str()).unwrap_or("?");
    let num = |k: &str| json_num(doc.get(k)).unwrap_or(0.0);
    let rate = |v: Option<f64>| match v {
        Some(r) if r >= 0.0 => format!("{r:.0}"),
        _ => "—".to_string(),
    };
    let eta = match json_num(doc.get("eta_s")) {
        Some(s) if state != "done" => format!("ETA {s:.0}s"),
        _ if state == "done" => "complete".to_string(),
        _ => "ETA —".to_string(),
    };
    let mut out = format!(
        "{state} | day {}/{} (hour {}/{}) | {} records | {} rec/s | {} ev/s | {} B/s | {}\n",
        num("days_done"),
        num("days_total"),
        num("hours_done"),
        num("hours_total"),
        num("records"),
        rate(json_num(doc.get("records_per_s"))),
        rate(json_num(doc.get("events_per_s"))),
        rate(json_num(doc.get("bytes_per_s"))),
        eta,
    );
    let shards = doc
        .get("shards")
        .and_then(|s| s.as_array())
        .unwrap_or_default();
    if !shards.is_empty() {
        out.push_str("  shard  hours     records     rec/s  block%   idle%\n");
        for sh in shards {
            let pct = |k: &str| match json_num(sh.get(k)) {
                Some(r) => format!("{:.1}", 100.0 * r),
                None => "—".to_string(),
            };
            out.push_str(&format!(
                "  {:<5} {:>6} {:>11} {:>9} {:>7} {:>7}\n",
                sh.get("shard").and_then(|s| s.as_str()).unwrap_or("?"),
                json_num(sh.get("hours_done")).unwrap_or(0.0),
                json_num(sh.get("records")).unwrap_or(0.0),
                rate(json_num(sh.get("records_per_s"))),
                pct("send_block_ratio"),
                pct("recv_idle_ratio"),
            ));
        }
    }
    out
}

/// Verdict cell for the claims dashboard. The vendored serializer
/// renders `Verdict::Pass`/`Fail` as variant-name strings and the
/// data-carrying `Starved { .. }` as a single-key object.
fn verdict_cell(v: Option<&serde_json::Value>) -> &'static str {
    match v {
        Some(serde_json::Value::Str(s)) => match s.as_str() {
            "Pass" => "pass",
            "Fail" => "FAIL",
            _ => "?",
        },
        Some(serde_json::Value::Object(fields)) if fields.iter().any(|(k, _)| k == "Starved") => {
            "starved"
        }
        _ => "?",
    }
}

/// Renders one `/report` envelope (cwa-live/v1) as a claims dashboard
/// frame: stream position header plus one row per claim, with the
/// cumulative verdict and the last-14-days window verdict side by
/// side. Claims that cannot be re-judged from the window (side data,
/// lifetime persistence, evicted anchor days) show `—`.
fn render_claims_frame(doc: &serde_json::Value) -> String {
    let num = |k: &str| json_num(doc.get(k)).unwrap_or(0.0);
    let done = matches!(doc.get("done"), Some(serde_json::Value::Bool(true)));
    let mut out = format!(
        "day {}/{} (hour {}) | {} | window days {}–{}\n",
        num("day"),
        num("horizon_days"),
        num("hours_seen"),
        if done { "final" } else { "live" },
        num("window_from_day"),
        num("window_to_day"),
    );
    let claims = doc
        .get("report")
        .and_then(|r| r.get("claims"))
        .and_then(|c| c.as_array())
        .unwrap_or_default();
    let window_claims = doc
        .get("window_verdicts")
        .and_then(|c| c.as_array())
        .unwrap_or_default();
    out.push_str(&format!(
        "  {:<22} {:<10} {:<8} {:<12} window measured\n",
        "claim", "cumulative", "window", "measured"
    ));
    let fmt_measured = |claim: &serde_json::Value| match json_num(claim.get("measured")) {
        Some(m) if m.is_finite() => format!("{m:.4e}"),
        _ => "—".to_owned(),
    };
    for claim in claims {
        let id = claim.get("id").and_then(|v| v.as_str()).unwrap_or("?");
        let windowed = window_claims
            .iter()
            .find(|c| c.get("id").and_then(|v| v.as_str()) == Some(id));
        out.push_str(&format!(
            "  {id:<22} {:<10} {:<8} {:<12} {}\n",
            verdict_cell(claim.get("verdict")),
            windowed.map_or("—", |c| verdict_cell(c.get("verdict"))),
            fmt_measured(claim),
            windowed.map_or("—".to_owned(), fmt_measured),
        ));
    }
    out
}

/// `cwa-repro watch [--claims] ADDR` — polls a `--serve` endpoint until
/// the run completes or the endpoint goes away after at least one
/// successful poll (run ended and the server shut down). Default mode
/// renders `/progress` as a per-shard rate/stall table; `--claims`
/// renders the live `/report` claim table of a `study --live` run. A
/// reader that stops early (`watch … | head`) ends the watch, exit 0.
fn watch(args: &[String], words: &[String]) -> ExitCode {
    let claims_mode = flag(args, "--claims");
    let addr = &words[0];
    let interval_ms: u64 = match opt(args, "--interval-ms").map(|s| s.parse()) {
        Some(Ok(ms)) if ms > 0 => ms,
        None => 1000,
        _ => {
            note!("--interval-ms must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let path = if claims_mode { "/report" } else { "/progress" };
    let mut successes = 0u64;
    let mut connect_failures = 0u32;
    let mut waiting_notice = false;
    loop {
        match http_get(addr, path) {
            Ok((200, body)) => {
                connect_failures = 0;
                successes += 1;
                let doc: serde_json::Value = match serde_json::from_str(&body) {
                    Ok(v) => v,
                    Err(e) => {
                        note!("bad {path} payload: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let (mut frame, done) = if claims_mode {
                    let done = matches!(doc.get("done"), Some(serde_json::Value::Bool(true)));
                    (render_claims_frame(&doc), done)
                } else {
                    let done = doc.get("state").and_then(|s| s.as_str()) == Some("done");
                    (render_progress_frame(&doc), done)
                };
                if done {
                    frame.push_str(if claims_mode {
                        "replay complete.\n"
                    } else {
                        "run complete.\n"
                    });
                }
                if let Some(code) = emit(&frame) {
                    return code;
                }
                if done {
                    return ExitCode::SUCCESS;
                }
            }
            // 503 on /report: the live run is up but has not published
            // its first day yet — keep polling.
            Ok((503, _)) if claims_mode => {
                connect_failures = 0;
                successes += 1;
                if !waiting_notice {
                    note!("server up, waiting for the first published report …");
                    waiting_notice = true;
                }
            }
            Ok((status, body)) => {
                note!("HTTP {status} from {addr}{path}");
                if status == 404 && claims_mode {
                    // The server explains itself ("not a live run …").
                    note!("{}", body.trim_end());
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                if successes > 0 {
                    // Watched the run and the server is gone: it ended.
                    let note = format!("endpoint gone after {successes} poll(s); run ended.\n");
                    return emit(&note).unwrap_or(ExitCode::SUCCESS);
                }
                connect_failures += 1;
                if connect_failures >= 10 {
                    note!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Flattens a parsed cwa-obs/v1 snapshot to `name → value` exactly
/// like `Registry::sample` does for the live registry: counters and
/// gauges by name, timers as `.total_ns`/`.count`. A metric of any
/// other type is an error that names it, never a silent gap in a diff.
fn flatten_obs_snapshot(
    doc: &serde_json::Value,
) -> Result<std::collections::BTreeMap<String, i64>, String> {
    if doc.get("schema").and_then(|s| s.as_str()) != Some("cwa-obs/v1") {
        return Err("not a cwa-obs/v1 snapshot (missing/unknown schema)".to_string());
    }
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or_else(|| "snapshot has no metrics object".to_string())?;
    let mut out = std::collections::BTreeMap::new();
    for (name, m) in metrics {
        let geti = |k: &str| match m.get(k) {
            Some(serde_json::Value::Num(n)) => n.as_i64().unwrap_or(0),
            _ => 0,
        };
        match m.get("type").and_then(|t| t.as_str()) {
            Some("counter" | "gauge") => {
                out.insert(name.clone(), geti("value"));
            }
            Some("timer") => {
                out.insert(format!("{name}.total_ns"), geti("total_ns"));
                out.insert(format!("{name}.count"), geti("count"));
            }
            Some(other) => {
                return Err(format!(
                    "metric `{name}` has type `{other}`, which obs-diff cannot read"
                ))
            }
            None => return Err(format!("metric `{name}` has no type")),
        }
    }
    Ok(out)
}

/// One row of an obs-diff: values in A and B (None = absent).
type DiffRow = (String, Option<i64>, Option<i64>);

/// Joins two flattened snapshots over the union of their metric names.
fn diff_snapshots(
    a: &std::collections::BTreeMap<String, i64>,
    b: &std::collections::BTreeMap<String, i64>,
) -> Vec<DiffRow> {
    let names: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    names
        .into_iter()
        .map(|name| (name.clone(), a.get(name).copied(), b.get(name).copied()))
        .collect()
}

/// Relative change B vs A in percent (None when A is 0 or absent).
fn rel_change_pct(a: Option<i64>, b: Option<i64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) if a != 0 => Some(100.0 * (b - a) as f64 / a.abs() as f64),
        _ => None,
    }
}

/// `phase.*` timer rows whose total grew by more than `threshold_pct`.
fn phase_regressions(rows: &[DiffRow], threshold_pct: f64) -> Vec<(String, f64)> {
    rows.iter()
        .filter(|(name, ..)| name.starts_with("phase.") && name.ends_with(".total_ns"))
        .filter_map(|(name, a, b)| {
            let rel = rel_change_pct(*a, *b)?;
            (rel > threshold_pct).then(|| (name.clone(), rel))
        })
        .collect()
}

/// `cwa-repro obs-diff A.json B.json [--threshold PCT]`.
fn obs_diff(args: &[String], words: &[String]) -> ExitCode {
    let (path_a, path_b) = (&words[0], &words[1]);
    let threshold: Option<f64> = match opt(args, "--threshold").map(|s| s.parse::<f64>()) {
        Some(Ok(pct)) if pct.is_finite() => Some(pct),
        None => None,
        _ => {
            note!("--threshold must be a number (percent)");
            return ExitCode::FAILURE;
        }
    };
    let load = |path: &str| -> Result<std::collections::BTreeMap<String, i64>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        if text.trim().is_empty() {
            return Err(format!("{path} is empty — not a metrics snapshot"));
        }
        let doc: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
        flatten_obs_snapshot(&doc).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            note!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let rows = diff_snapshots(&a, &b);
    let changed: Vec<&DiffRow> = rows.iter().filter(|(_, a, b)| a != b).collect();
    let mut out = format!(
        "{} metrics compared ({} changed, {} only in A, {} only in B)\n",
        rows.len(),
        changed
            .iter()
            .filter(|(_, a, b)| a.is_some() && b.is_some())
            .count(),
        rows.iter().filter(|(_, _, b)| b.is_none()).count(),
        rows.iter().filter(|(_, a, _)| a.is_none()).count(),
    );
    if !changed.is_empty() {
        out += &format!(
            "{:<52} {:>16} {:>16} {:>12} {:>9}\n",
            "metric", "A", "B", "delta", "rel"
        );
        for (name, va, vb) in &changed {
            let fmt = |v: Option<i64>| match v {
                Some(v) => v.to_string(),
                None => "—".to_string(),
            };
            let delta = match (va, vb) {
                (Some(a), Some(b)) => format!("{:+}", b - a),
                _ => "—".to_string(),
            };
            let rel = match rel_change_pct(*va, *vb) {
                Some(pct) => format!("{pct:+.1}%"),
                None => "—".to_string(),
            };
            out += &format!(
                "{name:<52} {:>16} {:>16} {delta:>12} {rel:>9}\n",
                fmt(*va),
                fmt(*vb)
            );
        }
    }

    let regressions = threshold.map(|threshold| (threshold, phase_regressions(&rows, threshold)));
    if let Some((threshold, regressions)) = &regressions {
        if regressions.is_empty() {
            out += &format!("no phase.* timer regressed beyond {threshold}%\n");
        }
    }
    // A reader that stops early ends the table, not the gate's verdict.
    if let Err(e) = write_stdout(&out) {
        note!("cannot write to stdout: {e}");
        return ExitCode::FAILURE;
    }
    match regressions {
        Some((threshold, regressions)) if !regressions.is_empty() => {
            for (name, rel) in &regressions {
                note!("REGRESSION {name}: {rel:+.1}% (threshold {threshold}%)");
            }
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

/// One (pid, tid) track's complete spans: `(ts_us, dur_us, name)`.
type TrackSpans = Vec<(f64, f64, String)>;

/// Computes per-name *self* time for one track: a span's self time is
/// its duration minus the durations of spans nested inside it (the
/// standard flame-graph attribution). Returns the self-time map plus
/// the track's wall-clock extent `(first_start, last_end)`.
fn track_self_times(spans: &mut TrackSpans) -> (std::collections::BTreeMap<String, f64>, f64) {
    // Parents before children: ascending start, longest-first on ties.
    spans.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite ts")
            .then(b.1.partial_cmp(&a.1).expect("finite dur"))
    });
    let mut selfs: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    // Open-span stack: (end_us, dur_us, name, nested_child_dur_us).
    let mut stack: Vec<(f64, f64, String, f64)> = Vec::new();
    let close = |stack: &mut Vec<(f64, f64, String, f64)>,
                 selfs: &mut std::collections::BTreeMap<String, f64>| {
        let (_, dur, name, child) = stack.pop().expect("non-empty stack");
        *selfs.entry(name).or_insert(0.0) += (dur - child).max(0.0);
        if let Some(parent) = stack.last_mut() {
            parent.3 += dur;
        }
    };
    let mut first = f64::INFINITY;
    let mut last = 0.0f64;
    for (ts, dur, name) in spans.iter() {
        first = first.min(*ts);
        last = last.max(ts + dur);
        while stack.last().is_some_and(|top| *ts >= top.0 - 1e-6) {
            close(&mut stack, &mut selfs);
        }
        stack.push((ts + dur, *dur, name.clone(), 0.0));
    }
    while !stack.is_empty() {
        close(&mut stack, &mut selfs);
    }
    let wall = if first.is_finite() { last - first } else { 0.0 };
    (selfs, wall)
}

/// `cwa-repro trace-summary FILE`.
fn trace_summary(_args: &[String], words: &[String]) -> ExitCode {
    let path = &words[0];
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            note!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if text.trim().is_empty() {
        note!("{path} is empty — not a trace capture");
        return ExitCode::FAILURE;
    }
    let root: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            note!("{path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match summarize_trace(path, &root) {
        Ok(summary) => emit(&summary).unwrap_or(ExitCode::SUCCESS),
        Err(e) => {
            note!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Summarizes a `--trace` capture: per-thread self-time broken down by
/// span name, with the stall split (send-block / receive-idle) the
/// sharded pipeline records, so a backpressured shard is visible at a
/// glance without loading the trace into Perfetto. A capture that
/// dropped events to ring wraparound holds only the spans of part of
/// the run, so its shares would misattribute time: it gets the header
/// line and a refusal instead.
fn summarize_trace(path: &str, root: &serde_json::Value) -> Result<String, String> {
    let num_u32 = |v: &serde_json::Value| -> Option<u32> {
        match v {
            serde_json::Value::Num(n) => n.as_u64().map(|x| x as u32),
            _ => None,
        }
    };
    let num_f64 = |v: &serde_json::Value| -> Option<f64> {
        match v {
            serde_json::Value::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    };
    let Some(events) = root.get("traceEvents").and_then(|e| e.as_array()) else {
        return Err(format!(
            "{path}: no traceEvents array — not a cwa --trace capture?"
        ));
    };
    let dropped = root
        .get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(num_f64)
        .unwrap_or(0.0);

    let mut proc_names: std::collections::BTreeMap<u32, String> = std::collections::BTreeMap::new();
    let mut thread_names: std::collections::BTreeMap<(u32, u32), String> =
        std::collections::BTreeMap::new();
    let mut tracks: std::collections::BTreeMap<(u32, u32), TrackSpans> =
        std::collections::BTreeMap::new();
    let mut instants = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        let pid = ev.get("pid").and_then(&num_u32).unwrap_or(0);
        let tid = ev.get("tid").and_then(&num_u32).unwrap_or(0);
        let name = ev.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        match ph {
            "M" => {
                let label = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str().map(str::to_owned));
                match (name, label) {
                    ("process_name", Some(label)) => {
                        proc_names.insert(pid, label);
                    }
                    ("thread_name", Some(label)) => {
                        thread_names.insert((pid, tid), label);
                    }
                    _ => {}
                }
            }
            "X" => {
                let ts = ev.get("ts").and_then(&num_f64).unwrap_or(0.0);
                let dur = ev.get("dur").and_then(&num_f64).unwrap_or(0.0);
                // A hand-edited or truncated capture can hold NaN here;
                // track_self_times sorts on ts/dur and requires finite.
                if !ts.is_finite() || !dur.is_finite() {
                    continue;
                }
                tracks
                    .entry((pid, tid))
                    .or_default()
                    .push((ts, dur, name.to_owned()));
            }
            "i" => instants += 1,
            _ => {}
        }
    }

    let span_total: usize = tracks.values().map(Vec::len).sum();
    let mut out = format!("{path}: {span_total} spans, {instants} instants, {dropped} dropped\n");
    if dropped > 0.0 {
        return Err(format!(
            "{out}refusing per-track shares: {dropped} events were dropped to ring \
             wraparound, so the surviving spans cover only part of the run"
        ));
    }
    for ((pid, tid), spans) in &mut tracks {
        let process = proc_names
            .get(pid)
            .cloned()
            .unwrap_or_else(|| format!("pid{pid}"));
        let thread = thread_names
            .get(&(*pid, *tid))
            .cloned()
            .unwrap_or_else(|| format!("tid{tid}"));
        let (selfs, wall) = track_self_times(spans);
        let wall = wall.max(1e-9);
        let block = selfs.get("send_block").copied().unwrap_or(0.0);
        let idle = selfs.get("recv_idle").copied().unwrap_or(0.0);
        // `+ 0.0` normalizes a negative zero out of the float sum so a
        // stall-only track prints "util 0.0%", not "util -0.0%".
        let busy: f64 = selfs
            .iter()
            .filter(|(name, _)| name.as_str() != "send_block" && name.as_str() != "recv_idle")
            .map(|(_, us)| us)
            .sum::<f64>()
            .max(0.0)
            + 0.0;
        out.push_str(&format!(
            "\n[{process}/{thread}] wall {:.3} ms — util {:.1}%, block {:.1}%, idle {:.1}%\n",
            wall / 1000.0,
            100.0 * busy / wall,
            100.0 * block / wall,
            100.0 * idle / wall,
        ));
        let mut rows: Vec<(&String, &f64)> = selfs.iter().collect();
        rows.sort_by(|a, b| b.1.partial_cmp(a.1).expect("finite self time"));
        for (name, self_us) in rows {
            out.push_str(&format!(
                "    {name:<14} {:>10.3} ms  {:>5.1}%\n",
                self_us / 1000.0,
                100.0 * self_us / wall,
            ));
        }
    }
    Ok(out)
}

fn dns(args: &[String], _words: &[String]) -> ExitCode {
    let days: u32 = match opt(args, "--days").map(|s| s.parse()) {
        Some(Ok(d)) if (1..=MAX_DAYS).contains(&d) => d,
        None => 11,
        _ => {
            note!("--days must be an integer from 1 to {MAX_DAYS}");
            return ExitCode::FAILURE;
        }
    };
    // The DNS study is part of the world `prepare` builds from its own
    // seeded stream; no traffic is generated.
    let out = Simulation::new(SimConfig {
        days,
        scale: 0.001,
        ..SimConfig::test_small()
    })
    .prepare();
    let fmt_rank = |r: u64| {
        if r > 1_000_000_000_000 {
            "—".to_owned()
        } else {
            r.to_string()
        }
    };
    let labels: Vec<String> = (0..days).map(|d| StudyDay(d).label()).collect();
    // Dates past 2020 carry the year ("Jan 1 2021"): the column takes
    // the run's longest label.
    let width = labels.iter().map(String::len).max().unwrap_or(0).max(7);
    let mut table = format!(
        "{:<4} {:<width$} {:<13} {:<13} {}\n",
        "day", "date", "api_rank", "website_rank", "api_in_top1M"
    );
    for (d, label) in labels.iter().enumerate() {
        table += &format!(
            "{:<4} {:<width$} {:<13} {:<13} {}\n",
            d,
            label,
            fmt_rank(out.dns.api_rank[d]),
            fmt_rank(out.dns.website_rank[d]),
            if out.dns.api_top1m_days.contains(&(d as u32)) {
                "yes"
            } else {
                ""
            }
        );
    }
    emit(&table).unwrap_or(ExitCode::SUCCESS)
}

fn ablation(_args: &[String], _words: &[String]) -> ExitCode {
    let simulate = |scenario, sampling_interval| {
        Simulation::new(SimConfig {
            scale: 0.008,
            scenario,
            vantage: VantageConfig {
                sampling_interval,
                ..VantageConfig::default()
            },
            ..SimConfig::default()
        })
        .run()
    };
    // Each line as soon as its simulation ends; a reader that stops
    // early ends the command before the next one starts.
    if let Some(code) = emit("June-23 re-surge (Jun 23–25 / Jun 20–22 true CWA flows):\n") {
        return code;
    }
    for (label, kind) in [
        ("paper (outbreaks + news)", ScenarioKind::Paper),
        (
            "outbreaks without news  ",
            ScenarioKind::OutbreaksWithoutNews,
        ),
        ("quiet                   ", ScenarioKind::Quiet),
    ] {
        let out = simulate(kind, DEFAULT_SAMPLING_INTERVAL);
        let t = &out.truth.cwa_flows_by_hour;
        let pre: u64 = t[5 * 24..8 * 24].iter().sum();
        let post: u64 = t[8 * 24..11 * 24].iter().sum();
        if let Some(code) = emit(&format!(
            "  {label}: {:.3}x\n",
            post as f64 / pre.max(1) as f64
        )) {
            return code;
        }
    }
    // What the researchers see of the paper scenario: the records the
    // §2 filter keeps, and how many of them carry at most two packets.
    if let Some(code) = emit("Router sampling interval vs. §2-filtered records:\n") {
        return code;
    }
    for sampling in [100u32, 1000, 4000] {
        let out = simulate(ScenarioKind::Paper, sampling);
        let matching = FlowFilter::cwa(out.cdn.service_prefixes.to_vec()).apply(&out.records);
        let few = matching.iter().filter(|r| r.packets <= 2).count() as f64
            / matching.len().max(1) as f64;
        let line = format!(
            "  1:{sampling:<5} → {:>7} records, {:>5.1}% with ≤2 packets\n",
            matching.len(),
            few * 100.0
        );
        if let Some(code) = emit(&line) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(json: &str) -> std::collections::BTreeMap<String, i64> {
        let doc: serde_json::Value = serde_json::from_str(json).expect("valid JSON");
        flatten_obs_snapshot(&doc).expect("valid snapshot")
    }

    const A: &str = r#"{"schema":"cwa-obs/v1","metrics":{
        "netflow.collector.records":{"type":"counter","value":1000},
        "queue.depth":{"type":"gauge","value":-2},
        "phase.analyze":{"type":"timer","count":1,"total_ns":1000000,"mean_ns":1000000}}}"#;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn study_and_sweep_accept_their_own_flags() {
        let study = argv(
            "--scale 0.02 --seed 7 --streaming --shards 2 --out d --metrics m.json \
             --trace t.json --strict --scenario s.toml --live --replay-speed 3600 \
             --days inf --serve 127.0.0.1:0 --heartbeat-ms 100 \
             --heartbeat-jsonl h.jsonl --serve-linger-ms 0",
        );
        assert_eq!(check_args(&study, &STUDY), Ok(vec![]));
        let sweep =
            argv("--scenarios s.toml --scale 0.01 --seed 1 --seeds 3 --shards 2 --json t.json");
        assert_eq!(check_args(&sweep, &SWEEP), Ok(vec![]));
        assert_eq!(check_args(&[], &STUDY), Ok(vec![]));
        // The other subcommands, with their plain words returned in order
        // wherever the flags sit.
        let words = |line: &str, grammar: &Grammar| check_args(&argv(line), grammar);
        assert_eq!(
            words("--claims 127.0.0.1:9 --interval-ms 250", &WATCH),
            Ok(argv("127.0.0.1:9"))
        );
        assert_eq!(
            words("127.0.0.1:9 /healthz", &SCRAPE),
            Ok(argv("127.0.0.1:9 /healthz"))
        );
        assert_eq!(
            words("--threshold 300 a.json b.json", &OBS_DIFF),
            Ok(argv("a.json b.json"))
        );
        assert_eq!(words("t.json", &TRACE_SUMMARY), Ok(argv("t.json")));
        assert_eq!(words("--days 3", &DNS), Ok(vec![]));
        assert_eq!(words("", &NO_ARGS), Ok(vec![]));
    }

    #[test]
    fn bad_arguments_are_named() {
        let study = |line: &str| check_args(&argv(line), &STUDY);
        assert_eq!(
            study("--scale 0.02 --streaming --paralel"),
            Err("unknown flag `--paralel`".to_owned())
        );
        assert_eq!(
            study("--parallel"),
            Err("unknown flag `--parallel`".to_owned())
        );
        assert_eq!(
            study("--scale 0.02 --metrics"),
            Err("`--metrics` needs a value".to_owned())
        );
        assert_eq!(
            study("--metrics --out dir"),
            Err("`--metrics` needs a value".to_owned())
        );
        assert_eq!(
            study("--scale 0.02 streaming"),
            Err("unexpected argument `streaming`".to_owned())
        );
        // Each subcommand checks against its own grammar.
        let check = |line: &str, grammar: &Grammar| check_args(&argv(line), grammar);
        let unknown = |flag: &str| Err(format!("unknown flag `{flag}`"));
        assert_eq!(
            check("--scenarios s.toml --live", &SWEEP),
            unknown("--live")
        );
        assert_eq!(check("--dayz 3", &DNS), unknown("--dayz"));
        assert_eq!(
            check("--days", &DNS),
            Err("`--days` needs a value".to_owned())
        );
        assert_eq!(check("t.json --bogus", &TRACE_SUMMARY), unknown("--bogus"));
        assert_eq!(check("--bogus", &NO_ARGS), unknown("--bogus"));
        assert_eq!(
            check("a.json b.json --treshold 5", &OBS_DIFF),
            unknown("--treshold")
        );
        assert_eq!(check("127.0.0.1:9 --bogus", &WATCH), unknown("--bogus"));
        assert_eq!(
            check("127.0.0.1:9 /metrics extra", &SCRAPE),
            Err("unexpected argument `extra`".to_owned())
        );
        assert_eq!(
            check("127.0.0.1:9", &SCRAPE),
            Err("takes 2 argument(s), got 1".to_owned())
        );
        // The dispatcher applies each subcommand's grammar, and a value
        // that does not parse fails the run before any work starts; it
        // never falls back to the flag's default.
        for line in [
            "dns --days abc",
            "dns --days 0",
            "watch 127.0.0.1:9 --interval-ms soon",
            "obs-diff a.json b.json --threshold x",
            "ablation --bogus",
        ] {
            assert_eq!(run(&argv(line)), ExitCode::FAILURE, "{line}");
        }
    }

    /// A `--trace` capture of one shard thread: a `produce` span with a
    /// nested `filter` span, then a `recv_idle` stall, claiming
    /// `dropped` events lost to wraparound.
    fn capture(dropped: u64) -> serde_json::Value {
        serde_json::from_str(&format!(
            r#"{{"traceEvents":[
                {{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{{"name":"shard0"}}}},
                {{"ph":"M","name":"thread_name","pid":1,"tid":2,"args":{{"name":"worker"}}}},
                {{"ph":"X","name":"produce","pid":1,"tid":2,"ts":0,"dur":1000}},
                {{"ph":"X","name":"filter","pid":1,"tid":2,"ts":100,"dur":250}},
                {{"ph":"X","name":"recv_idle","pid":1,"tid":2,"ts":1000,"dur":1000}}
            ],"otherData":{{"dropped_events":{dropped}}}}}"#
        ))
        .expect("valid capture")
    }

    #[test]
    fn trace_summary_refuses_shares_from_a_truncated_capture() {
        let summary = summarize_trace("t.json", &capture(0)).expect("complete capture");
        assert!(
            summary.starts_with("t.json: 3 spans, 0 instants, 0 dropped\n"),
            "{summary}"
        );
        assert!(
            summary.contains("[shard0/worker] wall 2.000 ms — util 50.0%, block 0.0%, idle 50.0%"),
            "{summary}"
        );
        assert!(
            summary.contains("produce             0.750 ms   37.5%"),
            "{summary}"
        );

        let refusal = summarize_trace("t.json", &capture(3)).expect_err("truncated capture");
        let lines: Vec<&str> = refusal.lines().collect();
        assert_eq!(lines.len(), 2, "{refusal}");
        assert_eq!(lines[0], "t.json: 3 spans, 0 instants, 3 dropped");
        assert!(lines[1].contains("3 events were dropped"), "{refusal}");
        assert!(!refusal.contains('%'), "no shares: {refusal}");
    }

    #[test]
    fn flatten_matches_registry_sample_layout() {
        let s = snapshot(A);
        assert_eq!(s.get("netflow.collector.records"), Some(&1000));
        assert_eq!(s.get("queue.depth"), Some(&-2));
        assert_eq!(s.get("phase.analyze.total_ns"), Some(&1_000_000));
        assert_eq!(s.get("phase.analyze.count"), Some(&1));
    }

    #[test]
    fn flatten_rejects_foreign_schema() {
        let doc: serde_json::Value =
            serde_json::from_str(r#"{"schema":"other/v2","metrics":{}}"#).unwrap();
        assert!(flatten_obs_snapshot(&doc).is_err());
        // A metric type obs-diff cannot read fails the load by name.
        let with_histogram = A.replace(
            r#""queue.depth""#,
            r#""sizes":{"type":"histogram","count":4,"sum":40,"min":10,"max":10,"buckets":[]},
            "queue.depth""#,
        );
        let doc: serde_json::Value = serde_json::from_str(&with_histogram).unwrap();
        assert_eq!(
            flatten_obs_snapshot(&doc),
            Err("metric `sizes` has type `histogram`, which obs-diff cannot read".to_owned())
        );
    }

    #[test]
    fn diff_joins_over_union_of_names() {
        let a = snapshot(A);
        let mut b = a.clone();
        b.insert("netflow.collector.records".into(), 1500);
        b.remove("queue.depth");
        b.insert("new.counter".into(), 7);
        let rows = diff_snapshots(&a, &b);
        let row = |name: &str| rows.iter().find(|(n, ..)| n == name).unwrap();
        assert_eq!(row("netflow.collector.records").1, Some(1000));
        assert_eq!(row("netflow.collector.records").2, Some(1500));
        assert_eq!(row("queue.depth").2, None, "absent in B");
        assert_eq!(row("new.counter").1, None, "absent in A");
    }

    #[test]
    fn relative_change_guards_division_by_zero() {
        assert_eq!(rel_change_pct(Some(100), Some(150)), Some(50.0));
        assert_eq!(rel_change_pct(Some(0), Some(10)), None);
        assert_eq!(rel_change_pct(None, Some(10)), None);
        // Negative baseline (a gauge): relative to |A|.
        assert_eq!(rel_change_pct(Some(-100), Some(-50)), Some(50.0));
    }

    #[test]
    fn claims_frame_shows_window_column_beside_cumulative() {
        let doc: serde_json::Value = serde_json::from_str(
            r#"{
            "schema":"cwa-live/v1","day":3,"hours_seen":72,"horizon_days":11,
            "done":false,"window_from_day":0,"window_to_day":3,
            "window_verdicts":[
                {"id":"C1MatchingFlows","verdict":"Pass","measured":3400000.0}
            ],
            "report":{"claims":[
                {"id":"C1MatchingFlows","verdict":"Pass","measured":3300000.0},
                {"id":"C4aPersistenceMedian","verdict":"Fail","measured":0.5}
            ]}}"#,
        )
        .expect("valid envelope");
        let frame = render_claims_frame(&doc);
        assert!(frame.contains("window days 0–3"), "{frame}");
        let c1 = frame
            .lines()
            .find(|l| l.contains("C1MatchingFlows"))
            .expect("C1 row");
        assert_eq!(c1.matches("pass").count(), 2, "both verdicts: {c1}");
        assert!(c1.contains("3.4000e6"), "window measured: {c1}");
        let c4 = frame
            .lines()
            .find(|l| l.contains("C4aPersistenceMedian"))
            .expect("C4a row");
        assert!(c4.contains("FAIL"), "{c4}");
        assert!(c4.contains("—"), "no window verdict: {c4}");
    }

    #[test]
    fn regression_gate_only_fires_on_phase_timers() {
        let a = snapshot(A);
        let mut b = a.clone();
        // Timer doubled (+100%) and a non-phase counter exploded.
        b.insert("phase.analyze.total_ns".into(), 2_000_000);
        b.insert("netflow.collector.records".into(), 1_000_000);
        let rows = diff_snapshots(&a, &b);
        assert!(
            phase_regressions(&rows, 150.0).is_empty(),
            "+100% is within a 150% threshold"
        );
        let hits = phase_regressions(&rows, 50.0);
        assert_eq!(hits.len(), 1, "only the phase timer counts: {hits:?}");
        assert_eq!(hits[0].0, "phase.analyze.total_ns");
        assert!((hits[0].1 - 100.0).abs() < 1e-9);
    }
}
