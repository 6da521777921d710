//! The open-loop scrape client: one thread, one connection at a time,
//! GETs due on a fixed schedule that does not slow down when the
//! server does. Each request is timed from its due time, so a stall
//! also charges the wait it imposes on the requests queued behind it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use cwa_perfbench::{thread_cpu_s, FailureCounter, Reply};

/// Requests per second of the schedule: one sweep repetition, or three
/// of the study workloads, give the 1,000 samples a p99 needs.
pub const RATE_PER_S: f64 = 80.0;

/// Connect, read and write timeout of one request.
const TIMEOUT: Duration = Duration::from_secs(2);

/// The paths the live dashboard (`crates/obs/src/dashboard.html`) fetches
/// once each per poll. A live run's requests draw from them with equal
/// weight, as the dashboard's traffic does.
pub const LIVE_PATHS: &[&str] = &[
    "/progress",
    "/metrics.json",
    "/figures/adoption",
    "/figures/geo",
    "/figures/outbreak",
    "/report",
];

/// The dashboard's paths that answer 200 on a batch run (the others are
/// 404 there: a batch run has no live documents).
pub const BATCH_PATHS: &[&str] = &["/progress", "/metrics.json"];

/// What the client measured over one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScrapeLog {
    /// Per successful request: completion minus due time, ms. Failed
    /// requests are only counted (`failed`); percentiles rank them as
    /// infinitely late.
    pub latency_ms: Vec<f64>,
    /// Per request: send time minus due time, ms.
    pub lateness_ms: Vec<f64>,
    /// Per completed request: TCP connect time, ms.
    pub connect_ms: Vec<f64>,
    /// Per completed request: request written → first response byte, ms.
    pub ttfb_ms: Vec<f64>,
    /// Response bytes read, summed.
    pub bytes: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed (see [`FailureCounter`]).
    pub failed: u64,
    /// Seconds from the run's start until `/report` first answered 200.
    pub first_report_s: Option<f64>,
    /// CPU seconds the client thread itself used (subtracted from the
    /// run's process CPU).
    pub client_cpu_s: f64,
}

struct Timed {
    reply: Reply,
    connect: Duration,
    ttfb: Duration,
    bytes: u64,
}

fn get(addr: SocketAddr, path: &str) -> Timed {
    let start = Instant::now();
    let mut timed = Timed {
        reply: Reply::Broken,
        connect: Duration::ZERO,
        ttfb: Duration::ZERO,
        bytes: 0,
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, TIMEOUT) else {
        return timed;
    };
    timed.connect = start.elapsed();
    if stream.set_read_timeout(Some(TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(TIMEOUT)).is_err()
    {
        return timed;
    }
    let request = format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n");
    if stream.write_all(request.as_bytes()).is_err() {
        return timed;
    }
    let written = Instant::now();
    let mut body = Vec::with_capacity(16 * 1024);
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if body.is_empty() {
                    timed.ttfb = written.elapsed();
                }
                body.extend_from_slice(&buf[..n]);
            }
            Err(_) => return timed,
        }
    }
    timed.bytes = body.len() as u64;
    // "HTTP/1.0 200 OK\r\n..." — the status is the second token.
    let status = std::str::from_utf8(&body[..body.len().min(64)])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok());
    if let Some(code) = status {
        timed.reply = Reply::Status(code);
    }
    timed
}

/// Scrapes `addr` on the open-loop schedule until `stop` is set. The
/// path of each request is drawn uniformly from `paths` with `seed`;
/// `start` is the instant the run under test began.
pub fn run_client(
    addr: SocketAddr,
    paths: &[&'static str],
    seed: u64,
    start: Instant,
    stop: &AtomicBool,
) -> ScrapeLog {
    let cpu_before = thread_cpu_s();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x005C_2A9E);
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let mut log = ScrapeLog::default();
    let mut failures = FailureCounter::default();
    let mut k: u32 = 0;
    loop {
        let due = start + interval * k;
        k += 1;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let path = paths[rng.gen_range(0..paths.len())];
        let sent = Instant::now();
        let timed = get(addr, path);
        let done = Instant::now();
        let failed = failures.record(path, timed.reply);
        log.lateness_ms
            .push(ms(sent.saturating_duration_since(due)));
        if !failed {
            log.latency_ms.push(ms(done.saturating_duration_since(due)));
        }
        if timed.reply != Reply::Broken {
            log.connect_ms.push(ms(timed.connect));
            log.ttfb_ms.push(ms(timed.ttfb));
            log.bytes += timed.bytes;
        }
        if path == "/report" && timed.reply == Reply::Status(200) && log.first_report_s.is_none() {
            log.first_report_s = Some(done.duration_since(start).as_secs_f64());
        }
    }
    log.attempted = failures.attempted;
    log.failed = failures.failed;
    log.client_cpu_s = thread_cpu_s() - cpu_before;
    log
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
