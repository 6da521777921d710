//! Live telemetry integration: the heartbeat sampler + scrape server
//! attached to a real study run must (a) answer every endpoint with a
//! valid response *while the run is in flight*, with `/progress`
//! reporting nonzero per-shard throughput and a finite ETA, (b) stream
//! an append-valid `metrics.jsonl`, and (c) never perturb the study
//! output — serve on/off reports stay bit-identical after
//! `strip_volatile()` across the serial and sharded drivers.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use cwa_repro::core::{Study, StudyConfig};
use cwa_repro::obs::{
    Heartbeat, HeartbeatConfig, HeartbeatRing, LiveSnapshot, Registry, TelemetryServer,
    TelemetryState,
};

/// Minimal HTTP/1.0 GET against the scrape server; returns
/// (status, content-type, body).
fn get_full(addr: std::net::SocketAddr, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to scrape server");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let content_type = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Type: "))
        .expect("Content-Type header present")
        .to_string();
    (status, content_type, body.to_string())
}

/// Minimal HTTP/1.0 GET against the scrape server; returns (status, body).
fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let (status, _content_type, body) = get_full(addr, path);
    (status, body)
}

fn json_f64(v: &serde_json::Value, key: &str) -> Option<f64> {
    match v.get(key)? {
        serde_json::Value::Num(n) => Some(n.as_f64()),
        _ => None,
    }
}

/// Drive a 2-shard study with the full telemetry stack attached and
/// scrape all four endpoints concurrently mid-run.
#[test]
fn live_endpoints_answer_during_sharded_run() {
    let registry = Arc::new(Registry::new());
    let dir = std::env::temp_dir();
    let jsonl = dir.join(format!("cwa-telemetry-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&jsonl);

    let heartbeat = Heartbeat::start(
        Arc::clone(&registry),
        HeartbeatConfig {
            interval: Duration::from_millis(10),
            capacity: 512,
            jsonl: Some(jsonl.clone()),
        },
    )
    .expect("heartbeat starts");
    let server = TelemetryServer::serve(
        "127.0.0.1:0",
        TelemetryState {
            registry: Arc::clone(&registry),
            ring: heartbeat.ring(),
            stall_heartbeats: 50,
            live: None,
        },
    )
    .expect("server binds");
    let addr = server.local_addr();

    // The run is long enough (~seconds at scale 0.02) that a polling
    // loop on this thread reliably observes the "running" state.
    let study_registry = Arc::clone(&registry);
    let run = thread::spawn(move || {
        Study::new(StudyConfig::at_scale(0.02))
            .with_metrics(study_registry)
            .run_sharded(2)
            .expect("sharded study succeeds")
    });

    let mut saw_midrun_rates = false;
    let mut saw_finite_eta = false;
    let mut saw_all_endpoints_midrun = false;
    while !run.is_finished() {
        let (status, body) = get(addr, "/progress");
        assert_eq!(status, 200, "/progress answers while running");
        let v: serde_json::Value =
            serde_json::from_str(&body).expect("/progress body is valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("cwa-progress/v1")
        );
        let running = v.get("state").and_then(|s| s.as_str()) == Some("running");
        let shards = v.get("shards").and_then(|s| s.as_array()).unwrap_or(&[]);
        if running && shards.len() == 2 {
            let all_rates_nonzero = shards
                .iter()
                .all(|s| json_f64(s, "records_per_s").is_some_and(|r| r > 0.0));
            if all_rates_nonzero {
                saw_midrun_rates = true;
            }
            if json_f64(&v, "eta_s").is_some_and(f64::is_finite) {
                saw_finite_eta = true;
            }
            if !saw_all_endpoints_midrun {
                // All four endpoints answer concurrently mid-run.
                let handles: Vec<_> = ["/metrics", "/metrics.json", "/progress", "/healthz"]
                    .into_iter()
                    .map(|path| thread::spawn(move || get(addr, path)))
                    .collect();
                let mut ok = true;
                for (path, handle) in ["/metrics", "/metrics.json", "/progress", "/healthz"]
                    .iter()
                    .zip(handles)
                {
                    let (status, body) = handle.join().expect("scrape thread");
                    ok &= status == 200 && !body.is_empty();
                    match *path {
                        "/metrics" => ok &= body.starts_with("# TYPE ") && body.ends_with('\n'),
                        "/metrics.json" => ok &= body.contains("\"cwa-obs/v1\""),
                        "/progress" => ok &= body.contains("\"cwa-progress/v1\""),
                        "/healthz" => ok &= body.contains("\"ready\":true"),
                        _ => unreachable!(),
                    }
                }
                saw_all_endpoints_midrun = ok;
            }
        }
        thread::sleep(Duration::from_millis(20));
    }
    let report = run.join().expect("study thread");
    assert!(report.total_records > 0);
    assert!(
        saw_midrun_rates,
        "both shards reported records/s > 0 mid-run"
    );
    assert!(saw_finite_eta, "progress reported a finite ETA mid-run");
    assert!(
        saw_all_endpoints_midrun,
        "all four endpoints answered concurrently mid-run"
    );

    // After the run the driver marks completion; /progress converges.
    registry.gauge("sim.progress.done").set(1);
    let (status, body) = get(addr, "/progress");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("state").and_then(|s| s.as_str()), Some("done"));
    assert_eq!(json_f64(&v, "eta_s"), Some(0.0));
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"done\":true"));

    server.shutdown();
    heartbeat.stop();

    // The heartbeat streamed an append-valid metrics.jsonl: every line
    // is a standalone timestamped cwa-obs/v1 snapshot, timestamps are
    // monotone non-decreasing, and the final line reflects the end
    // state (progress marked done).
    let file = std::fs::File::open(&jsonl).expect("jsonl exists");
    let mut lines = 0u64;
    let mut last_ts = 0u64;
    let mut last_line = String::new();
    for line in BufReader::new(file).lines() {
        let line = line.expect("read jsonl line");
        let v: serde_json::Value = serde_json::from_str(&line).expect("jsonl line parses");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("cwa-obs/v1"));
        let ts = match v.get("ts_ms").expect("ts_ms present") {
            serde_json::Value::Num(n) => n.as_u64().expect("ts_ms is unsigned"),
            other => panic!("ts_ms not a number: {other:?}"),
        };
        assert!(ts >= last_ts, "timestamps are monotone");
        last_ts = ts;
        lines += 1;
        last_line = line;
    }
    assert!(lines >= 3, "heartbeat wrote multiple samples, got {lines}");
    assert!(
        last_line.contains("\"sim.progress.done\""),
        "final sample reflects the end state"
    );
    let _ = std::fs::remove_file(&jsonl);
}

/// Telemetry is observation-only: a run with the full heartbeat +
/// scrape-server stack attached produces a report bit-identical (after
/// `strip_volatile()`) to a bare run — for both the serial and the
/// sharded drivers.
#[test]
fn telemetry_never_perturbs_reports() {
    let run_with_telemetry = |sharded: bool| {
        let registry = Arc::new(Registry::new());
        let heartbeat = Heartbeat::start(
            Arc::clone(&registry),
            HeartbeatConfig {
                interval: Duration::from_millis(5),
                capacity: 64,
                jsonl: None,
            },
        )
        .expect("heartbeat starts");
        let server = TelemetryServer::serve(
            "127.0.0.1:0",
            TelemetryState {
                registry: Arc::clone(&registry),
                ring: heartbeat.ring(),
                stall_heartbeats: 50,
                live: None,
            },
        )
        .expect("server binds");
        let study = Study::new(StudyConfig::test_small()).with_metrics(registry);
        let report = if sharded {
            study.run_sharded(2)
        } else {
            study.run()
        }
        .expect("study succeeds");
        server.shutdown();
        heartbeat.stop();
        report
    };
    let run_plain = |sharded: bool| {
        let study = Study::new(StudyConfig::test_small());
        if sharded {
            study.run_sharded(2)
        } else {
            study.run()
        }
        .expect("study succeeds")
    };

    assert_eq!(
        run_with_telemetry(false).strip_volatile(),
        run_plain(false).strip_volatile(),
        "serial: serve on == off"
    );
    assert_eq!(
        run_with_telemetry(true).strip_volatile(),
        run_plain(true).strip_volatile(),
        "sharded(2): serve on == off"
    );
}

/// Response-header and status-code semantics across the scrape server:
/// every endpoint declares the right `Content-Type`, unknown paths are
/// JSON 404s, and the live document endpoints distinguish "not a live
/// run" (404) from "live run, nothing published yet" (503).
#[test]
fn scrape_server_headers_and_live_status_semantics() {
    let serve = |live: Option<Arc<LiveSnapshot>>| {
        let registry = Arc::new(Registry::new());
        let heartbeat = Heartbeat::start(
            Arc::clone(&registry),
            HeartbeatConfig {
                interval: Duration::from_millis(50),
                capacity: 16,
                jsonl: None,
            },
        )
        .expect("heartbeat starts");
        let server = TelemetryServer::serve(
            "127.0.0.1:0",
            TelemetryState {
                registry,
                ring: heartbeat.ring(),
                stall_heartbeats: 50,
                live,
            },
        )
        .expect("server binds");
        (server, heartbeat)
    };

    // Batch run: no live mailbox attached, so the live document
    // endpoints do not exist on this server → 404, as JSON errors.
    let (server, heartbeat) = serve(None);
    let addr = server.local_addr();
    for path in [
        "/report",
        "/figures/adoption",
        "/figures/geo",
        "/figures/outbreak",
    ] {
        let (status, content_type, body) = get_full(addr, path);
        assert_eq!(status, 404, "{path} is absent on a batch run");
        assert_eq!(content_type, "application/json");
        assert!(
            body.contains("\"error\""),
            "404 body is a JSON error: {body}"
        );
    }
    // Content-Type is exact on every always-on endpoint.
    let expectations = [
        ("/", "text/plain"),
        ("/metrics", "text/plain; version=0.0.4"),
        ("/metrics.json", "application/json"),
        ("/progress", "application/json"),
        ("/healthz", "application/json"),
        ("/dashboard", "text/html; charset=utf-8"),
    ];
    for (path, want) in expectations {
        let (status, content_type, _body) = get_full(addr, path);
        assert_eq!(status, 200, "{path} answers");
        assert_eq!(content_type, want, "{path} declares its media type");
    }
    let (status, content_type, _body) = get_full(addr, "/no-such-endpoint");
    assert_eq!(status, 404);
    assert_eq!(
        content_type, "application/json",
        "unknown paths are JSON 404s"
    );
    server.shutdown();
    heartbeat.stop();

    // Live run, nothing published yet: the endpoints exist but the
    // first document has not arrived → 503 (retryable), then 200 once
    // a publication lands.
    let live = Arc::new(LiveSnapshot::new());
    let (server, heartbeat) = serve(Some(Arc::clone(&live)));
    let addr = server.local_addr();
    for path in [
        "/report",
        "/figures/adoption",
        "/figures/geo",
        "/figures/outbreak",
    ] {
        let (status, content_type, body) = get_full(addr, path);
        assert_eq!(status, 503, "{path} is pending before the first publish");
        assert_eq!(content_type, "application/json");
        assert!(
            body.contains("\"error\""),
            "503 body is a JSON error: {body}"
        );
    }
    live.publish_report("{\"schema\": \"cwa-live/v1\"}".to_string());
    let (status, content_type, body) = get_full(addr, "/report");
    assert_eq!(status, 200, "/report serves the published document");
    assert_eq!(content_type, "application/json");
    assert!(body.contains("cwa-live/v1"));
    server.shutdown();
    heartbeat.stop();
}

/// `cwa-repro scrape ADDR PATH | head -c N`, `cwa-repro watch ADDR |
/// head -c N` and `cwa-repro obs-diff A B | head -c N`: a reader that
/// closes the pipe early ends the output. The CLI must not panic on the
/// broken pipe. A scrape's exit status follows the HTTP status; a watch
/// and an obs-diff without `--threshold` end with exit 0.
#[test]
fn scrape_cli_stops_quietly_when_its_reader_closes_the_pipe() {
    let live = Arc::new(LiveSnapshot::new());
    // Larger than a pipe's buffer, so the CLI is still writing when the
    // reader goes away.
    live.publish_report(format!("{{\"pad\":\"{}\"}}", "x".repeat(256 * 1024)));
    let server = TelemetryServer::serve(
        "127.0.0.1:0",
        TelemetryState {
            registry: Arc::new(Registry::new()),
            ring: Arc::new(Mutex::new(HeartbeatRing::new(4))),
            stall_heartbeats: 50,
            live: Some(live),
        },
    )
    .expect("server binds");

    let addr = server.local_addr().to_string();
    // Nothing marks the run done, so `/progress` reads "running" and the
    // watch writes a frame every 10 ms until its reader goes away.
    let scrape: &[&str] = &["scrape", &addr, "/report"];
    let watch: &[&str] = &["watch", &addr, "--interval-ms", "10"];
    // Two snapshots in which 2,000 counters differ: ≈220 KB of diff rows,
    // more than a pipe's buffer.
    let snapshot = |name: &str, value: u32| {
        let metrics: Vec<String> = (0..2_000)
            .map(|i| format!("\"c.{i:04}\":{{\"type\":\"counter\",\"value\":{value}}}"))
            .collect();
        let path = std::env::temp_dir().join(format!(
            "cwa-obs-diff-pipe-{}-{name}.json",
            std::process::id()
        ));
        std::fs::write(
            &path,
            format!(
                "{{\"schema\":\"cwa-obs/v1\",\"metrics\":{{{}}}}}",
                metrics.join(",")
            ),
        )
        .expect("snapshot written");
        path.to_string_lossy().into_owned()
    };
    let (obs_a, obs_b) = (snapshot("a", 1), snapshot("b", 2));
    let obs_diff: &[&str] = &["obs-diff", &obs_a, &obs_b];
    for (args, starts_with) in [
        (scrape, &b"{\"pad\":\""[..]),
        (watch, &b"running"[..]),
        (obs_diff, &b"2000 metrics compared"[..]),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cwa-repro"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("cwa-repro starts");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let mut first = vec![0u8; starts_with.len()];
        stdout.read_exact(&mut first).expect("the output starts");
        assert_eq!(first, starts_with, "{args:?}");
        drop(stdout);
        let output = child.wait_with_output().expect("cwa-repro exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
        assert!(
            output.status.success(),
            "{args:?}: {:?}, stderr: {stderr}",
            output.status
        );
    }
    server.shutdown();
    for path in [obs_a, obs_b] {
        let _ = std::fs::remove_file(path);
    }
}

/// A `study --metrics` snapshot carries the process's memory: the peak
/// resident set size, read from `/proc/self/status` just before the
/// snapshot is written.
#[cfg(target_os = "linux")]
#[test]
fn metrics_snapshot_carries_the_peak_rss() {
    let path = std::env::temp_dir().join(format!("cwa-telemetry-rss-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_cwa-repro"))
        .args(["study", "--scale", "0.02", "--streaming", "--metrics"])
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("cwa-repro runs");
    assert!(status.success(), "{status:?}");
    let text = std::fs::read_to_string(&path).expect("snapshot written");
    let _ = std::fs::remove_file(&path);
    let doc: serde_json::Value = serde_json::from_str(&text).expect("snapshot parses");
    let peak = doc
        .get("metrics")
        .and_then(|m| m.get("process.peak_rss_kib"))
        .and_then(|g| json_f64(g, "value"))
        .expect("snapshot carries process.peak_rss_kib");
    assert!(peak > 0.0, "peak RSS {peak} KiB");
}

/// Progress lines go to stderr, and a reader of stderr may stop early
/// too (`study 2>&1 >/dev/null | head -n 1`): the study reads its first
/// line, then writes "done in …" into the closed pipe. It drops that
/// line and the rest and finishes the run with its own exit status,
/// instead of panicking.
#[test]
fn study_carries_on_when_its_stderr_reader_closes_the_pipe() {
    // Starved (every flow-derived claim reads `starved`, exit 0) and
    // quick, but long enough that "done in" comes after the close.
    let mut child = Command::new(env!("CARGO_BIN_EXE_cwa-repro"))
        .args(["study", "--scale", "1e-9"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cwa-repro starts");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut first = String::new();
    BufReader::new(stderr)
        .read_line(&mut first)
        .expect("the first progress line arrives");
    assert!(first.starts_with("running study at scale"), "{first}");
    let status = child.wait().expect("cwa-repro exits");
    assert!(status.success(), "{status:?}");
}

/// `study` rejects a flag that would do nothing without another one,
/// naming it, before the run starts: `--replay-speed` and `--days`
/// without `--live`, `--heartbeat-ms` without `--serve` or
/// `--heartbeat-jsonl`, and `--serve-linger-ms` without `--serve`.
#[test]
fn study_rejects_flags_it_would_ignore() {
    for (flag, value) in [
        ("--replay-speed", "10"),
        ("--days", "2"),
        ("--heartbeat-ms", "100"),
        ("--serve-linger-ms", "10"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_cwa-repro"))
            .args(["study", flag, value])
            .output()
            .expect("cwa-repro runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag}: stderr: {stderr}");
        assert!(stderr.contains(flag), "{flag}: stderr: {stderr}");
        assert!(
            !stderr.contains("running study"),
            "{flag}: stderr: {stderr}"
        );
    }
}

/// `--days` stops at the ten-year `inf` horizon: a longer one is refused
/// before any work starts, by `study --live` and by `dns` alike.
#[test]
fn days_beyond_the_inf_horizon_are_rejected() {
    for args in [
        ["study", "--live", "--days", "3651"].as_slice(),
        ["dns", "--days", "3651"].as_slice(),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_cwa-repro"))
            .args(args)
            .output()
            .expect("cwa-repro runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains("--days"), "{args:?}: stderr: {stderr}");
        assert!(
            !stderr.contains("running study"),
            "{args:?}: stderr: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?}: printed a result");
    }
}

/// `dns` dates its rows by the calendar: past June 30 the days run on
/// into July, and the default eleven days keep their June dates and
/// column layout.
#[test]
fn dns_dates_follow_the_calendar() {
    let dns = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_cwa-repro"))
            .arg("dns")
            .args(args)
            .output()
            .expect("cwa-repro runs");
        assert!(output.status.success(), "dns {args:?}");
        String::from_utf8(output.stdout).expect("utf-8 table")
    };
    let rows = |table: &str| table.lines().skip(1).map(str::to_owned).collect::<Vec<_>>();

    let default = rows(&dns(&[]));
    assert_eq!(default.len(), 11);
    for (d, row) in default.iter().enumerate() {
        let date = format!("{d:<4} Jun {:<3} ", 15 + d);
        assert!(row.starts_with(&date), "day {d}: {row}");
    }

    let month = rows(&dns(&["--days", "30"]));
    assert_eq!(month.len(), 30);
    assert!(month[15].starts_with("15   Jun 30  "), "{}", month[15]);
    assert!(month[16].starts_with("16   Jul 1   "), "{}", month[16]);
    assert!(month[29].starts_with("29   Jul 14  "), "{}", month[29]);
    assert!(!month.iter().any(|row| row.contains("Jun 31")));

    // Past 2020 the labels carry the year and the date column widens
    // to fit them, so every row's ranks still start under the header's.
    let year = dns(&["--days", "201"]);
    let header = year.lines().next().expect("header row");
    assert!(header.starts_with("day  date       api_rank"), "{header}");
    let rank_col = header.find("api_rank").expect("api_rank column");
    let year = rows(&year);
    assert_eq!(year.len(), 201);
    assert!(year[199].starts_with("199  Dec 31     "), "{}", year[199]);
    assert!(year[200].starts_with("200  Jan 1 2021 "), "{}", year[200]);
    for row in &year {
        assert!(row[..rank_col].ends_with(' '), "{row}");
        assert!(!row[rank_col..].starts_with(' '), "{row}");
    }
}
