//! Tiny HTTP/1.0 scrape server for live telemetry.
//!
//! Built directly on `std::net::TcpListener` — no vendored HTTP
//! dependency — because a Prometheus-style scrape endpoint needs
//! nothing beyond "read one request, write one response, close".
//!
//! One thread serves one connection at a time, blocked in `accept`
//! between them, so a scrape is answered as soon as it arrives rather
//! than at the next tick of a polling loop. A blocked `accept` does not
//! see the stop flag, so [`TelemetryServer::shutdown`] sets the flag and
//! then makes one connection to the server's own port: `accept` returns,
//! the loop reads the flag and ends. An unspecified bind address
//! (`0.0.0.0`, `::`) is not a destination, so that wake-up connection
//! goes to the loopback address of the same family.
//!
//! The server reads the whole request head, through the blank line that
//! ends it, before it replies. Closing a TCP socket whose receive buffer
//! still holds unread bytes sends a reset instead of an orderly close,
//! and a reset can discard the response before the client has read it
//! (or fail a client still writing its request). Replying after the
//! request line alone would do that to any client whose head outgrows
//! the first read, or that writes its request in pieces.
//!
//! Endpoints:
//!
//! | path            | content                                         |
//! |-----------------|-------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition 0.0.4                |
//! | `/metrics.json` | cwa-obs/v1 JSON snapshot                        |
//! | `/progress`     | run progress: days done/total, per-shard rates, |
//! |                 | stall ratios, ETA from the heartbeat ring       |
//! | `/healthz`      | readiness + liveness (503 when stalled)         |
//! | `/report`       | live claims table (only on `study --live` runs) |
//! | `/figures/*`    | live figure data: adoption, geo, outbreak       |
//! | `/dashboard`    | self-contained HTML dashboard over all of these |
//!
//! Content types are deliberate: `/metrics` is Prometheus text,
//! `/dashboard` is `text/html`, and everything else — including error
//! bodies — is `application/json`. Live endpoints distinguish "this is
//! not a live run" (404) from "live, but nothing published yet" (503).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::heartbeat::HeartbeatRing;
use crate::live::{LiveFigure, LiveSnapshot};
use crate::{json_string, Registry};

/// Metric names the progress/health endpoints are derived from. These
/// are the names the pipeline registers (see `cwa-simnet`,
/// `cwa-netflow`, `cwa-core`); a registry without them simply reports
/// zero progress.
pub mod names {
    /// Flow records ingested across all collectors.
    pub const RECORDS: &str = "netflow.collector.records";
    /// Ingest throughput over the heartbeat window, published back
    /// into the registry by the sampler so plain `/metrics` scrapes
    /// (and the jsonl stream) carry a rate without differencing.
    pub const RECORDS_PER_SEC: &str = "netflow.collector.records_per_sec";
    /// Flow bytes ingested across all collectors.
    pub const BYTES: &str = "netflow.collector.bytes";
    /// Flow events emitted by the traffic generator (producer side;
    /// pre-sampling, both directions).
    pub const EVENTS: &str = "simnet.traffic.flow_events";
    /// Producer throughput over the heartbeat window — the
    /// generator-side twin of [`RECORDS_PER_SEC`], published by the
    /// sampler so `/metrics` scrapes can attribute a stall to the
    /// producer (events flat) vs the collector (records flat).
    pub const EVENTS_PER_SEC: &str = "simnet.traffic.events_per_sec";
    /// Simulated hours completed / total.
    pub const HOURS_DONE: &str = "sim.progress.hours_done";
    /// Total simulated hours in the run.
    pub const HOURS_TOTAL: &str = "sim.progress.hours_total";
    /// Simulated days completed / total.
    pub const DAYS_DONE: &str = "sim.progress.days_done";
    /// Total simulated days in the run.
    pub const DAYS_TOTAL: &str = "sim.progress.days_total";
    /// 1 once the study's report has been assembled.
    pub const DONE: &str = "sim.progress.done";
}

/// Everything a scrape needs: the live registry, the heartbeat ring
/// for rate derivation, and the liveness policy.
#[derive(Clone)]
pub struct TelemetryState {
    /// The registry the run is writing into.
    pub registry: Arc<Registry>,
    /// Heartbeat ring (shared with the [`crate::Heartbeat`] sampler).
    pub ring: Arc<Mutex<HeartbeatRing>>,
    /// `/healthz` reports `stalled` (HTTP 503) when the record counter
    /// made no progress across this many consecutive heartbeats while
    /// the run is not done.
    pub stall_heartbeats: usize,
    /// Live analysis documents (`/report`, `/figures/*`); `None` on
    /// batch runs, where those endpoints answer 404.
    pub live: Option<Arc<LiveSnapshot>>,
}

/// A running scrape server; shuts down on [`TelemetryServer::shutdown`]
/// or drop.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an OS-assigned port) and
    /// starts serving. The bound address — with the real port — is
    /// available via [`TelemetryServer::local_addr`].
    pub fn serve<A: ToSocketAddrs>(addr: A, state: TelemetryState) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cwa-telemetry".into())
            .spawn(move || loop {
                let accepted = listener.accept();
                // Pairs with the `Release` store in `shutdown_inner`: the
                // flag is set before the wake-up connection is made, so
                // the accept that returns it sees the flag.
                if thread_stop.load(Ordering::Acquire) {
                    break;
                }
                match accepted {
                    Ok((stream, _peer)) => {
                        let _ = handle_connection(stream, &state);
                    }
                    // Such as running out of file descriptors: back off
                    // instead of spinning on the same error.
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            })?;

        Ok(TelemetryServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (real port even when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the server thread. An in-flight
    /// response finishes first: the thread reads the stop flag only when
    /// `accept` returns. To make an idle `accept` return, this sets the
    /// flag and then connects once to the server's own port (on the
    /// loopback address when the server is bound to an unspecified
    /// one). Connections still waiting to be accepted are closed
    /// unanswered.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            // If this connect fails, the thread still ends at the next
            // connection it accepts.
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TelemetryServer({})", self.addr)
    }
}

/// Reads one request, routes it, writes one response, closes.
fn handle_connection(mut stream: TcpStream, state: &TelemetryState) -> std::io::Result<()> {
    // A stuck client must not wedge the accept loop forever.
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;

    let path = match read_request_path(&mut stream) {
        Some(path) => path,
        None => {
            return respond(
                &mut stream,
                400,
                "Bad Request",
                "application/json",
                "{\"error\":\"malformed request line\"}\n",
            )
        }
    };

    match path.as_str() {
        "/metrics" => {
            let body = state.registry.to_prometheus();
            respond(&mut stream, 200, "OK", "text/plain; version=0.0.4", &body)
        }
        "/metrics.json" => {
            let body = state.registry.to_json();
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/progress" => {
            let body = progress_body(state);
            respond(&mut stream, 200, "OK", "application/json", &body)
        }
        "/healthz" => {
            let (status, reason, body) = health_body(state);
            respond(&mut stream, status, reason, "application/json", &body)
        }
        "/report" => live_respond(&mut stream, state, |live| live.report()),
        "/figures/adoption" => {
            live_respond(&mut stream, state, |live| live.figure(LiveFigure::Adoption))
        }
        "/figures/geo" => live_respond(&mut stream, state, |live| live.figure(LiveFigure::Geo)),
        "/figures/outbreak" => {
            live_respond(&mut stream, state, |live| live.figure(LiveFigure::Outbreak))
        }
        "/dashboard" => respond(
            &mut stream,
            200,
            "OK",
            "text/html; charset=utf-8",
            include_str!("dashboard.html"),
        ),
        "/" => respond(
            &mut stream,
            200,
            "OK",
            "text/plain",
            "cwa-repro live telemetry\n\
             /metrics            Prometheus text exposition\n\
             /metrics.json       cwa-obs/v1 snapshot\n\
             /progress           run progress, per-shard rates, ETA\n\
             /healthz            readiness + liveness\n\
             /report             live claims table (study --live)\n\
             /figures/adoption   live Figure-2 view (study --live)\n\
             /figures/geo        live Figure-3 view (study --live)\n\
             /figures/outbreak   live outbreak view (study --live)\n\
             /dashboard          self-contained HTML dashboard\n",
        ),
        _ => respond(
            &mut stream,
            404,
            "Not Found",
            "application/json",
            "{\"error\":\"not found\"}\n",
        ),
    }
}

/// Serves one live document: 404 when the run has no live layer at
/// all, 503 while the driver has not published the first document yet.
fn live_respond<F>(stream: &mut TcpStream, state: &TelemetryState, fetch: F) -> std::io::Result<()>
where
    F: Fn(&LiveSnapshot) -> Option<String>,
{
    match &state.live {
        None => respond(
            stream,
            404,
            "Not Found",
            "application/json",
            "{\"error\":\"not a live run; start with study --live\"}\n",
        ),
        Some(live) => match fetch(live) {
            Some(body) => respond(stream, 200, "OK", "application/json", &body),
            None => respond(
                stream,
                503,
                "Service Unavailable",
                "application/json",
                "{\"error\":\"no document published yet\"}\n",
            ),
        },
    }
}

/// Longest request head the server reads; a longer one is cut off and
/// answered from its request line.
const MAX_HEAD: u64 = 8 * 1024;

/// Reads one request head and returns the path of its `GET` line.
///
/// The head is read through the blank line that ends it, at most
/// [`MAX_HEAD`] bytes and each read bounded by the socket's read
/// timeout, so the close after the response finds no request bytes
/// unread and ends in an orderly close rather than a reset (see the
/// module docs). A request line without an `HTTP/` version (HTTP/0.9)
/// has no head and is answered at once. Any query string is dropped.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut head = BufReader::new(stream.take(MAX_HEAD));
    let mut line = Vec::new();
    head.read_until(b'\n', &mut line).ok()?;
    let request_line = String::from_utf8_lossy(&line).into_owned();
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if parts
        .next()
        .is_some_and(|version| version.starts_with("HTTP/"))
    {
        loop {
            line.clear();
            match head.read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if line.trim_ascii().is_empty() => break,
                Ok(_) => {}
            }
        }
    }
    if method != "GET" {
        return None;
    }
    // Ignore any query string: /progress?pretty routes like /progress.
    let path = path.split('?').next().unwrap_or(path);
    Some(path.to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let header = format!(
        "HTTP/1.0 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Formats an f64 as JSON: finite values with limited precision,
/// non-finite as `null` (JSON has no Inf/NaN).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => json_f64(v),
        None => "null".to_string(),
    }
}

/// Shard ids present in a sample, discovered from the
/// `sim.shard.NN.records` counters the sharded driver registers.
fn shard_ids(sample: &BTreeMap<String, i64>) -> Vec<String> {
    sample
        .keys()
        .filter_map(|k| {
            let id = k.strip_prefix("sim.shard.")?.strip_suffix(".records")?;
            // Exact `sim.shard.NN.records` only — not, say,
            // `sim.shard.NN.peak_resident_records`.
            (!id.contains('.')).then(|| id.to_string())
        })
        .collect()
}

/// Builds the `/progress` JSON document (`cwa-progress/v1`).
fn progress_body(state: &TelemetryState) -> String {
    let sample = state.registry.sample();
    let get = |k: &str| sample.get(k).copied().unwrap_or(0);
    let ring = state.ring.lock().unwrap_or_else(|e| e.into_inner());

    let hours_total = get(names::HOURS_TOTAL);
    let hours_done = get(names::HOURS_DONE);
    let done = get(names::DONE) == 1;
    let run_state = if done { "done" } else { "running" };

    // ETA: remaining simulated hours over the hours/s rate observed
    // across the heartbeat window. Null until the window shows
    // forward progress; 0 once the run is done.
    let eta_s = if done {
        Some(0.0)
    } else {
        match ring.window_rate(names::HOURS_DONE) {
            Some(rate) if rate > 0.0 => Some(((hours_total - hours_done).max(0)) as f64 / rate),
            _ => None,
        }
    };

    let mut shards = String::new();
    for (i, id) in shard_ids(&sample).iter().enumerate() {
        let prefix = format!("sim.shard.{id}");
        let records_rate = ring.window_rate(&format!("{prefix}.records"));
        // Stall ratio: fraction of the window the shard spent blocked
        // on its channel (producer side) or waiting for input
        // (consumer side).
        let ratio = |counter: &str| {
            ring.window_delta(&format!("{prefix}.{counter}"))
                .map(|(d, dt)| (d.max(0) as f64 / dt as f64).min(1.0))
        };
        if i > 0 {
            shards.push(',');
        }
        shards.push_str(&format!(
            "{{\"shard\":{},\"hours_done\":{},\"records\":{},\
             \"records_per_s\":{},\"send_block_ratio\":{},\"recv_idle_ratio\":{}}}",
            json_string(id),
            get(&format!("{prefix}.hours_done")),
            get(&format!("{prefix}.records")),
            json_opt_f64(records_rate),
            json_opt_f64(ratio("send_block_ns")),
            json_opt_f64(ratio("recv_idle_ns")),
        ));
    }

    format!(
        "{{\"schema\":\"cwa-progress/v1\",\"state\":\"{run_state}\",\
         \"days_done\":{},\"days_total\":{},\
         \"hours_done\":{hours_done},\"hours_total\":{hours_total},\
         \"records\":{},\"records_per_s\":{},\"bytes_per_s\":{},\
         \"events\":{},\"events_per_s\":{},\
         \"eta_s\":{},\"heartbeats\":{},\"shards\":[{shards}]}}",
        get(names::DAYS_DONE),
        get(names::DAYS_TOTAL),
        get(names::RECORDS),
        json_opt_f64(ring.window_rate(names::RECORDS)),
        json_opt_f64(ring.window_rate(names::BYTES)),
        get(names::EVENTS),
        json_opt_f64(ring.window_rate(names::EVENTS)),
        json_opt_f64(eta_s),
        ring.total(),
    )
}

/// Builds the `/healthz` response: readiness (a heartbeat has been
/// taken) and liveness (records still advancing, or the run is done).
fn health_body(state: &TelemetryState) -> (u16, &'static str, String) {
    let sample = state.registry.sample();
    let done = sample.get(names::DONE).copied().unwrap_or(0) == 1;
    let ring = state.ring.lock().unwrap_or_else(|e| e.into_inner());
    let ready = !ring.is_empty();
    // A stall needs BOTH the record counter and simulated time to be
    // flat: a live/replay run paces itself against wall clock, so
    // records legitimately idle between simulated hours — only "no
    // records AND no simulated progress" is a wedged run.
    let stalled = !done
        && ring.stalled(names::RECORDS, state.stall_heartbeats)
        && ring.stalled(names::HOURS_DONE, state.stall_heartbeats);

    let status_word = if stalled {
        "stalled"
    } else if done {
        "done"
    } else {
        "ok"
    };
    // Live runs also surface how stale the published documents are: a
    // publisher that went quiet is visible here even while records
    // still flow. Batch runs report `"live": null`.
    let live = match &state.live {
        None => "null".to_string(),
        Some(live) => format!(
            "{{\"report_publishes\":{},\"figure_publishes\":{},\"publish_age_s\":{}}}",
            live.report_publishes(),
            live.figure_publishes(),
            json_opt_f64(live.publish_age().map(|age| age.as_secs_f64())),
        ),
    };
    let body = format!(
        "{{\"status\":\"{status_word}\",\"ready\":{ready},\"done\":{done},\
         \"heartbeats\":{},\"live\":{live}}}",
        ring.total()
    );
    if stalled {
        (503, "Service Unavailable", body)
    } else {
        (200, "OK", body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heartbeat::HeartbeatSample;

    /// GET returning (status, content-type, body).
    fn get_full(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        let status: u16 = response
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let content_type = response
            .lines()
            .take_while(|l| !l.is_empty())
            .find_map(|l| l.strip_prefix("Content-Type: "))
            .unwrap_or_default()
            .to_string();
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, content_type, body)
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let (status, _, body) = get_full(addr, path);
        (status, body)
    }

    fn test_state() -> TelemetryState {
        let registry = Arc::new(Registry::new());
        registry.counter(names::RECORDS).add(1_000);
        registry.counter(names::BYTES).add(64_000);
        registry.counter(names::EVENTS).add(4_000);
        registry.gauge(names::HOURS_TOTAL).set(264);
        registry.gauge(names::HOURS_DONE).set(24);
        registry.gauge(names::DAYS_TOTAL).set(11);
        registry.gauge(names::DAYS_DONE).set(1);
        registry.gauge(names::DONE).set(0);
        registry.counter("sim.shard.00.records").add(500);
        registry.counter("sim.shard.01.records").add(500);

        let mut ring = HeartbeatRing::new(16);
        for i in 0..4u64 {
            let v = |base: i64| base + (i as i64) * 100;
            ring.push(HeartbeatSample {
                t_ns: i * 1_000_000_000,
                values: [
                    (names::RECORDS.to_string(), v(0)),
                    (names::BYTES.to_string(), v(0) * 64),
                    (names::EVENTS.to_string(), v(0) * 4),
                    (names::HOURS_DONE.to_string(), (i as i64) * 6),
                    ("sim.shard.00.records".to_string(), v(0) / 2),
                    ("sim.shard.01.records".to_string(), v(0) / 2),
                ]
                .into_iter()
                .collect(),
            });
        }
        TelemetryState {
            registry,
            ring: Arc::new(Mutex::new(ring)),
            stall_heartbeats: 3,
            live: None,
        }
    }

    #[test]
    fn serves_all_endpoints_and_shuts_down() {
        let server = TelemetryServer::serve("127.0.0.1:0", test_state()).expect("bind");
        let addr = server.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE netflow_collector_records_total counter"));
        assert!(body.ends_with('\n'));

        let (status, body) = get(addr, "/metrics.json");
        assert_eq!(status, 200);
        assert!(body.contains("\"cwa-obs/v1\""));

        let (status, body) = get(addr, "/progress");
        assert_eq!(status, 200);
        assert!(body.contains("\"cwa-progress/v1\""), "got: {body}");
        assert!(body.contains("\"state\":\"running\""), "got: {body}");
        assert!(body.contains("\"records_per_s\":100.000"), "got: {body}");
        assert!(body.contains("\"events\":4000"), "got: {body}");
        assert!(body.contains("\"events_per_s\":400.000"), "got: {body}");
        assert!(body.contains("\"shard\":\"00\""), "got: {body}");
        // 240 hours remain at 6 hours/s → 40s ETA.
        assert!(body.contains("\"eta_s\":40.000"), "got: {body}");

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "got: {body}");
        assert!(body.contains("\"ready\":true"), "got: {body}");

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err(),
            "listener must be closed after shutdown"
        );
    }

    #[test]
    fn concurrent_scrapes_all_succeed() {
        let server = TelemetryServer::serve("127.0.0.1:0", test_state()).expect("bind");
        let addr = server.local_addr();
        let paths = ["/metrics", "/metrics.json", "/progress", "/healthz"];
        let handles: Vec<_> = paths
            .into_iter()
            .map(|path| {
                std::thread::spawn(move || {
                    let (status, body) = get(addr, path);
                    assert_eq!(status, 200, "{path}");
                    assert!(!body.is_empty(), "{path}");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("scrape thread");
        }
        server.shutdown();
    }

    #[test]
    fn healthz_reports_stall_with_503() {
        let state = test_state();
        {
            let mut ring = state.ring.lock().unwrap();
            for i in 4..10u64 {
                ring.push(HeartbeatSample {
                    t_ns: i * 1_000_000_000,
                    values: [(names::RECORDS.to_string(), 300)].into_iter().collect(),
                });
            }
        }
        let server = TelemetryServer::serve("127.0.0.1:0", state).expect("bind");
        let (status, body) = get(server.local_addr(), "/healthz");
        assert_eq!(status, 503);
        assert!(body.contains("\"status\":\"stalled\""), "got: {body}");
        server.shutdown();
    }

    #[test]
    fn healthz_stays_ok_when_simulated_time_advances_without_records() {
        // Live/replay runs idle between simulated hours: the record
        // counter may be flat across many heartbeats while the sim
        // clock still moves. That must NOT read as a stall.
        let state = test_state();
        {
            let mut ring = state.ring.lock().unwrap();
            for i in 4..10u64 {
                ring.push(HeartbeatSample {
                    t_ns: i * 1_000_000_000,
                    values: [
                        (names::RECORDS.to_string(), 300),
                        (names::HOURS_DONE.to_string(), i as i64 * 6),
                    ]
                    .into_iter()
                    .collect(),
                });
            }
        }
        let server = TelemetryServer::serve("127.0.0.1:0", state).expect("bind");
        let (status, body) = get(server.local_addr(), "/healthz");
        assert_eq!(status, 200, "got: {body}");
        assert!(body.contains("\"status\":\"ok\""), "got: {body}");
        server.shutdown();
    }

    #[test]
    fn live_endpoints_answer_404_on_batch_runs() {
        let server = TelemetryServer::serve("127.0.0.1:0", test_state()).expect("bind");
        let addr = server.local_addr();
        for path in [
            "/report",
            "/figures/adoption",
            "/figures/geo",
            "/figures/outbreak",
        ] {
            let (status, body) = get(addr, path);
            assert_eq!(status, 404, "{path}: {body}");
            assert!(body.contains("not a live run"), "{path}: {body}");
        }
        server.shutdown();
    }

    #[test]
    fn live_endpoints_serve_published_documents() {
        let live = Arc::new(LiveSnapshot::new());
        let mut state = test_state();
        state.live = Some(Arc::clone(&live));
        let server = TelemetryServer::serve("127.0.0.1:0", state).expect("bind");
        let addr = server.local_addr();

        // Before the first publication: 503, the run just hasn't
        // produced a document yet.
        let (status, body) = get(addr, "/report");
        assert_eq!(status, 503, "got: {body}");
        assert!(body.contains("no document published yet"), "got: {body}");

        live.publish_report("{\"schema\":\"cwa-live/v1\",\"day\":3}".into());
        live.publish_figure(LiveFigure::Geo, "{\"district_flows\":[1,2]}".into());
        let (status, body) = get(addr, "/report");
        assert_eq!(status, 200);
        assert!(body.contains("\"cwa-live/v1\""), "got: {body}");
        let (status, body) = get(addr, "/figures/geo");
        assert_eq!(status, 200);
        assert!(body.contains("\"district_flows\""), "got: {body}");
        let (status, _) = get(addr, "/figures/adoption");
        assert_eq!(status, 503, "unpublished figure");

        // Publishing replaces the document the server hands out.
        live.publish_report("{\"schema\":\"cwa-live/v1\",\"day\":4}".into());
        let (_, body) = get(addr, "/report");
        assert!(body.contains("\"day\":4"), "got: {body}");
        server.shutdown();
    }

    #[test]
    fn scrapes_survive_a_poisoned_ring() {
        // Regression (see heartbeat.rs): a poisoned ring used to kill
        // every later /progress and /healthz response.
        let state = test_state();
        let poisoner = Arc::clone(&state.ring);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(state.ring.lock().is_err(), "ring lock must be poisoned");
        let server = TelemetryServer::serve("127.0.0.1:0", state).expect("bind");
        let addr = server.local_addr();
        let (status, body) = get(addr, "/progress");
        assert_eq!(status, 200, "got: {body}");
        assert!(body.contains("\"cwa-progress/v1\""), "got: {body}");
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn dashboard_is_served_and_self_contained() {
        let server = TelemetryServer::serve("127.0.0.1:0", test_state()).expect("bind");
        let (status, content_type, body) = get_full(server.local_addr(), "/dashboard");
        assert_eq!(status, 200);
        assert_eq!(content_type, "text/html; charset=utf-8");
        assert!(body.starts_with("<!DOCTYPE html>"), "got: {body:.60}");
        // Self-contained: inline everything, zero external references.
        for needle in ["http:", "https:", "src=", "href=", "@import", "url("] {
            assert!(!body.contains(needle), "external reference {needle:?}");
        }
        // The page drives every polled endpoint.
        for endpoint in [
            "/report",
            "/figures/adoption",
            "/figures/geo",
            "/figures/outbreak",
            "/progress",
            "/metrics.json",
        ] {
            assert!(body.contains(endpoint), "dashboard must poll {endpoint}");
        }
        server.shutdown();
    }

    #[test]
    fn content_types_are_correct_everywhere() {
        let server = TelemetryServer::serve("127.0.0.1:0", test_state()).expect("bind");
        let addr = server.local_addr();
        let cases = [
            ("/metrics", "text/plain; version=0.0.4"),
            ("/metrics.json", "application/json"),
            ("/progress", "application/json"),
            ("/healthz", "application/json"),
            ("/report", "application/json"),
            ("/figures/adoption", "application/json"),
            ("/nope", "application/json"),
        ];
        for (path, expected) in cases {
            let (_, content_type, _) = get_full(addr, path);
            assert_eq!(content_type, expected, "{path}");
        }
        server.shutdown();
    }

    #[test]
    fn healthz_surfaces_publish_age_on_live_runs() {
        let live = Arc::new(LiveSnapshot::new());
        let mut state = test_state();
        state.live = Some(Arc::clone(&live));
        let server = TelemetryServer::serve("127.0.0.1:0", state).expect("bind");
        let addr = server.local_addr();

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"report_publishes\":0"), "got: {body}");
        assert!(body.contains("\"publish_age_s\":null"), "got: {body}");

        live.publish_report("{}".into());
        live.publish_figure(LiveFigure::Geo, "{}".into());
        let (_, body) = get(addr, "/healthz");
        assert!(body.contains("\"report_publishes\":1"), "got: {body}");
        assert!(body.contains("\"figure_publishes\":1"), "got: {body}");
        assert!(!body.contains("\"publish_age_s\":null"), "got: {body}");
        server.shutdown();
    }

    #[test]
    fn healthz_reports_null_live_on_batch_runs() {
        let server = TelemetryServer::serve("127.0.0.1:0", test_state()).expect("bind");
        let (_, body) = get(server.local_addr(), "/healthz");
        assert!(body.contains("\"live\":null"), "got: {body}");
        server.shutdown();
    }

    /// Sends a request in `pieces`, `gap` apart, then reads the
    /// response to EOF. Returns (status, declared Content-Length, body
    /// length); panics on a reset or a failed write.
    fn send_pieces(addr: SocketAddr, pieces: &[&[u8]], gap: Duration) -> (u16, usize, usize) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        for (i, piece) in pieces.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(gap);
            }
            stream.write_all(piece).expect("request piece written");
        }
        let mut response = Vec::new();
        stream
            .read_to_end(&mut response)
            .expect("response read to EOF without a reset");
        let response = String::from_utf8(response).expect("UTF-8 response");
        let (head, body) = response.split_once("\r\n\r\n").expect("head and body");
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let length = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|n| n.parse().ok())
            .expect("Content-Length");
        (status, length, body.len())
    }

    #[test]
    fn a_long_request_head_gets_the_whole_response() {
        let server = TelemetryServer::serve("127.0.0.1:0", test_state()).expect("bind");
        let request = format!(
            "GET /dashboard HTTP/1.0\r\nHost: test\r\nX-Padding: {}\r\n\r\n",
            "p".repeat(3 * 1024)
        );
        for _ in 0..5 {
            let (status, length, body) =
                send_pieces(server.local_addr(), &[request.as_bytes()], Duration::ZERO);
            assert_eq!(status, 200);
            assert_eq!(body, length, "the whole body arrives");
        }
        server.shutdown();
    }

    #[test]
    fn a_request_written_in_pieces_gets_the_whole_response() {
        let server = TelemetryServer::serve("127.0.0.1:0", test_state()).expect("bind");
        // A third piece written after a reply-and-close would meet the
        // server's reset ("Broken pipe").
        let splits: [&[&[u8]]; 2] = [
            &[b"GET /metrics HTTP/1.0\r\n", b"Host: test\r\n\r\n"],
            &[b"GET /metrics HTTP/1.0\r\n", b"Host: test\r\n", b"\r\n"],
        ];
        for pieces in splits {
            let (status, length, body) =
                send_pieces(server.local_addr(), pieces, Duration::from_millis(20));
            assert_eq!(status, 200);
            assert_eq!(body, length, "the whole body arrives");
        }
        server.shutdown();
    }

    #[test]
    fn an_http_09_request_is_answered_at_once() {
        let server = TelemetryServer::serve("127.0.0.1:0", test_state()).expect("bind");
        let start = std::time::Instant::now();
        let (status, length, body) =
            send_pieces(server.local_addr(), &[b"GET /metrics\r\n"], Duration::ZERO);
        let elapsed = start.elapsed();
        assert_eq!(status, 200);
        assert_eq!(body, length);
        assert!(
            elapsed < Duration::from_millis(500),
            "an HTTP/0.9 request has no head to wait for; took {elapsed:?}"
        );
        server.shutdown();
    }

    #[test]
    fn an_idle_server_shuts_down_promptly_on_any_bind_address() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = TelemetryServer::serve(bind, test_state()).expect("bind");
            let loopback = SocketAddr::from(([127, 0, 0, 1], server.local_addr().port()));
            // One answered scrape: the thread is in its accept loop.
            assert_eq!(get(loopback, "/healthz").0, 200, "{bind}");
            let start = std::time::Instant::now();
            server.shutdown();
            let elapsed = start.elapsed();
            assert!(
                elapsed < Duration::from_secs(1),
                "{bind}: shutdown took {elapsed:?}"
            );
            assert!(
                TcpStream::connect(loopback).is_err(),
                "{bind}: the port must refuse connections after shutdown"
            );
        }
    }

    #[test]
    fn done_run_reports_zero_eta() {
        let state = test_state();
        state.registry.gauge(names::DONE).set(1);
        state.registry.gauge(names::HOURS_DONE).set(264);
        let server = TelemetryServer::serve("127.0.0.1:0", state).expect("bind");
        let (status, body) = get(server.local_addr(), "/progress");
        assert_eq!(status, 200);
        assert!(body.contains("\"state\":\"done\""), "got: {body}");
        assert!(body.contains("\"eta_s\":0.000"), "got: {body}");
        let (status, body) = get(server.local_addr(), "/healthz");
        assert_eq!(status, 200, "done is healthy even with flat records");
        assert!(body.contains("\"status\":\"done\""), "got: {body}");
        server.shutdown();
    }
}
