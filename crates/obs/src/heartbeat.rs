//! Heartbeat sampler: live time-series over a [`Registry`].
//!
//! A [`Heartbeat`] owns a background thread that snapshots the
//! registry at a fixed interval into a bounded drop-oldest
//! [`HeartbeatRing`] and, optionally, an append-only `metrics.jsonl`
//! stream (one full cwa-obs/v1 document per line, each stamped with a
//! wall-clock `ts_ms`). Consumers derive **rates** from the ring —
//! records/s, bytes/s, stall ratios — by differencing the oldest and
//! newest resident samples, which is what the `/progress` endpoint
//! and the `watch` dashboard are built on.
//!
//! Like the rest of cwa-obs this is observation-only: the sampler
//! reads atomics, never feeds back into simulation logic, and never
//! touches an RNG stream, so a run with a heartbeat attached stays
//! bit-identical to one without.
//!
//! The ring's mutex is locked with poison *recovery*
//! (`lock().unwrap_or_else(|e| e.into_inner())`): a panic on some
//! scrape or sampler thread while holding the lock must not silently
//! kill telemetry for the rest of the run — the ring holds plain
//! counters that stay internally consistent even if a holder died
//! mid-update.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::http::names;
use crate::Registry;

/// One heartbeat: a monotonic timestamp plus the numeric value of
/// every registry metric at that instant (see [`Registry::sample`]).
#[derive(Debug, Clone)]
pub struct HeartbeatSample {
    /// Nanoseconds since the sampler started (monotonic).
    pub t_ns: u64,
    /// Metric name → primary numeric value.
    pub values: BTreeMap<String, i64>,
}

impl HeartbeatSample {
    /// The sampled value of `name`, defaulting to 0 when absent (a
    /// metric that has not been registered yet reads as zero, which
    /// is also what its first registered value would be).
    pub fn value(&self, name: &str) -> i64 {
        self.values.get(name).copied().unwrap_or(0)
    }
}

/// A bounded drop-oldest ring of [`HeartbeatSample`]s.
///
/// The ring keeps the most recent `capacity` samples; pushing into a
/// full ring evicts the oldest. Rates are derived over the resident
/// window (oldest → newest), so after wraparound the window simply
/// slides forward — no special casing, no unbounded memory.
#[derive(Debug)]
pub struct HeartbeatRing {
    capacity: usize,
    samples: VecDeque<HeartbeatSample>,
    total: u64,
}

impl HeartbeatRing {
    /// Creates an empty ring holding at most `capacity` samples
    /// (clamped to at least 2 — a single sample admits no rate).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        HeartbeatRing {
            capacity,
            samples: VecDeque::with_capacity(capacity),
            total: 0,
        }
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, sample: HeartbeatSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
        self.total += 1;
    }

    /// Number of resident samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total samples ever pushed (monotonic, survives eviction).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Maximum resident samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<&HeartbeatSample> {
        self.samples.back()
    }

    /// The oldest resident sample.
    pub fn oldest(&self) -> Option<&HeartbeatSample> {
        self.samples.front()
    }

    /// Value delta and elapsed nanoseconds for `name` across the
    /// resident window. `None` until two samples with distinct
    /// timestamps are resident.
    pub fn window_delta(&self, name: &str) -> Option<(i64, u64)> {
        let (first, last) = (self.oldest()?, self.latest()?);
        let dt = last.t_ns.checked_sub(first.t_ns)?;
        if dt == 0 {
            return None;
        }
        Some((last.value(name) - first.value(name), dt))
    }

    /// Per-second rate of `name` over the resident window.
    pub fn window_rate(&self, name: &str) -> Option<f64> {
        let (delta, dt_ns) = self.window_delta(name)?;
        Some(delta as f64 / (dt_ns as f64 / 1e9))
    }

    /// True when `name` made no forward progress across the last
    /// `heartbeats` samples. Returns `false` while fewer than
    /// `heartbeats + 1` samples are resident — absence of evidence is
    /// not a stall.
    pub fn stalled(&self, name: &str, heartbeats: usize) -> bool {
        if heartbeats == 0 || self.samples.len() <= heartbeats {
            return false;
        }
        let window = self.samples.iter().rev().take(heartbeats + 1);
        let mut values = window.map(|s| s.value(name));
        let newest = match values.next() {
            Some(v) => v,
            None => return false,
        };
        values.all(|older| newest <= older)
    }
}

/// Configuration for a [`Heartbeat`] sampler.
#[derive(Debug, Clone)]
pub struct HeartbeatConfig {
    /// Sampling interval.
    pub interval: Duration,
    /// Ring capacity (resident samples).
    pub capacity: usize,
    /// When set, every sample is also appended to this file as one
    /// compact cwa-obs/v1 JSON document per line.
    pub jsonl: Option<PathBuf>,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(250),
            capacity: 240,
            jsonl: None,
        }
    }
}

/// Sets the gauges `process.rss_kib` and `process.peak_rss_kib` to the
/// process's resident set size and its peak so far, in KiB, read from
/// `VmRSS` and `VmHWM` in `/proc/self/status`. Where that file cannot be
/// read (off Linux) the gauges stay unset. The heartbeat calls this
/// before every sample.
pub fn publish_process_memory(registry: &Registry) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return;
    };
    for (field, name) in [("VmRSS:", names::RSS_KIB), ("VmHWM:", names::PEAK_RSS_KIB)] {
        let kib = status
            .lines()
            .find_map(|line| line.strip_prefix(field))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|value| value.trim().parse::<i64>().ok());
        if let Some(kib) = kib {
            registry.gauge(name).set(kib);
        }
    }
}

/// Shared stop flag: a mutex-guarded bool with a condvar so the
/// sampler thread can sleep its full interval yet wake immediately on
/// [`Heartbeat::stop`].
type StopSignal = (Mutex<bool>, Condvar);

/// A background registry sampler.
///
/// Started with [`Heartbeat::start`]; samples until [`Heartbeat::stop`]
/// (or drop) and always takes one final sample on the way out so the
/// ring's newest entry reflects the end state of the run.
pub struct Heartbeat {
    ring: Arc<Mutex<HeartbeatRing>>,
    stop: Arc<StopSignal>,
    handle: Option<JoinHandle<()>>,
}

impl Heartbeat {
    /// Spawns the sampler thread. Fails only if the `jsonl` stream
    /// cannot be opened for append.
    pub fn start(registry: Arc<Registry>, config: HeartbeatConfig) -> std::io::Result<Heartbeat> {
        let mut jsonl = match &config.jsonl {
            Some(path) => Some(BufWriter::new(
                File::options().create(true).append(true).open(path)?,
            )),
            None => None,
        };
        let ring = Arc::new(Mutex::new(HeartbeatRing::new(config.capacity)));
        let stop: Arc<StopSignal> = Arc::new((Mutex::new(false), Condvar::new()));

        let thread_ring = Arc::clone(&ring);
        let thread_stop = Arc::clone(&stop);
        let interval = config.interval.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("cwa-heartbeat".into())
            .spawn(move || {
                let epoch = Instant::now();
                loop {
                    Self::take_sample(&registry, &thread_ring, epoch, jsonl.as_mut());
                    let (lock, cvar) = &*thread_stop;
                    let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                    while !*stopped {
                        let (guard, timed_out) = cvar
                            .wait_timeout(stopped, interval)
                            .unwrap_or_else(|e| e.into_inner());
                        stopped = guard;
                        if timed_out.timed_out() {
                            break;
                        }
                    }
                    if *stopped {
                        drop(stopped);
                        // Final sample: capture the end-of-run state.
                        Self::take_sample(&registry, &thread_ring, epoch, jsonl.as_mut());
                        if let Some(w) = jsonl.as_mut() {
                            let _ = w.flush();
                        }
                        return;
                    }
                }
            })?;

        Ok(Heartbeat {
            ring,
            stop,
            handle: Some(handle),
        })
    }

    fn take_sample(
        registry: &Registry,
        ring: &Mutex<HeartbeatRing>,
        epoch: Instant,
        jsonl: Option<&mut BufWriter<File>>,
    ) {
        publish_process_memory(registry);
        let sample = HeartbeatSample {
            t_ns: epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            values: registry.sample(),
        };
        if let Some(w) = jsonl {
            let ts_ms = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
                .unwrap_or(0);
            let _ = writeln!(w, "{}", registry.to_json_with_ts(ts_ms));
            let _ = w.flush();
        }
        let (record_rate, event_rate) = {
            let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
            ring.push(sample);
            (
                ring.window_rate(names::RECORDS),
                ring.window_rate(names::EVENTS),
            )
        };
        // Publish the windowed rates back into the registry as gauges:
        // scrapes of `/metrics` (and the jsonl stream) then carry a
        // ready-made records/s — and its producer-side twin events/s —
        // without client-side differencing. Pure observation — gauges
        // never feed back into simulation logic.
        let publish = |name: &str, rate: Option<f64>| {
            if let Some(rate) = rate {
                registry
                    .gauge(name)
                    .set(rate.round().clamp(i64::MIN as f64, i64::MAX as f64) as i64);
            }
        };
        publish(names::RECORDS_PER_SEC, record_rate);
        publish(names::EVENTS_PER_SEC, event_rate);
    }

    /// The sample ring, shared with the scrape server.
    pub fn ring(&self) -> Arc<Mutex<HeartbeatRing>> {
        Arc::clone(&self.ring)
    }

    /// Signals the sampler to take one final sample and exit, then
    /// joins it.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            let (lock, cvar) = &*self.stop;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cvar.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl std::fmt::Debug for Heartbeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        write!(
            f,
            "Heartbeat({} resident / {} total samples)",
            ring.len(),
            ring.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ns: u64, pairs: &[(&str, i64)]) -> HeartbeatSample {
        HeartbeatSample {
            t_ns,
            values: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn ring_drops_oldest_under_tiny_capacity() {
        let mut ring = HeartbeatRing::new(3);
        for i in 0..7u64 {
            ring.push(sample(i * 100, &[("records", i as i64)]));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total(), 7);
        assert_eq!(ring.oldest().unwrap().value("records"), 4);
        assert_eq!(ring.latest().unwrap().value("records"), 6);
    }

    #[test]
    fn capacity_is_clamped_to_two() {
        let mut ring = HeartbeatRing::new(0);
        assert_eq!(ring.capacity(), 2);
        ring.push(sample(0, &[("x", 1)]));
        ring.push(sample(1_000_000_000, &[("x", 11)]));
        ring.push(sample(2_000_000_000, &[("x", 31)]));
        // Oldest (t=0) evicted; window is [1s, 2s]: Δ20 over 1s.
        assert_eq!(ring.window_rate("x"), Some(20.0));
    }

    #[test]
    fn window_rate_survives_wraparound() {
        // Counter climbs 5/sample, one sample per 100ms → 50/s. After
        // pushing far past capacity, the resident window still spans
        // (capacity - 1) intervals and the rate must be unchanged.
        let mut ring = HeartbeatRing::new(4);
        for i in 0..100u64 {
            ring.push(sample(i * 100_000_000, &[("records", (i * 5) as i64)]));
        }
        assert_eq!(ring.len(), 4);
        let (delta, dt) = ring.window_delta("records").unwrap();
        assert_eq!(delta, 15, "3 intervals × 5/interval");
        assert_eq!(dt, 300_000_000);
        let rate = ring.window_rate("records").unwrap();
        assert!((rate - 50.0).abs() < 1e-9, "got {rate}");
    }

    #[test]
    fn window_rate_needs_two_distinct_timestamps() {
        let mut ring = HeartbeatRing::new(4);
        assert_eq!(ring.window_rate("x"), None);
        ring.push(sample(500, &[("x", 1)]));
        assert_eq!(ring.window_rate("x"), None, "one sample is no window");
        ring.push(sample(500, &[("x", 2)]));
        assert_eq!(ring.window_rate("x"), None, "zero-width window");
    }

    #[test]
    fn missing_metric_reads_as_zero() {
        let mut ring = HeartbeatRing::new(4);
        ring.push(sample(0, &[]));
        ring.push(sample(1_000_000_000, &[("late.metric", 30)]));
        // Registered mid-run: the rate treats its pre-registration
        // value as 0 rather than erroring.
        assert_eq!(ring.window_rate("late.metric"), Some(30.0));
    }

    #[test]
    fn stall_detection_requires_full_window() {
        let mut ring = HeartbeatRing::new(8);
        ring.push(sample(0, &[("records", 10)]));
        ring.push(sample(100, &[("records", 10)]));
        assert!(
            !ring.stalled("records", 3),
            "too few samples to call a stall"
        );
        ring.push(sample(200, &[("records", 10)]));
        ring.push(sample(300, &[("records", 10)]));
        assert!(ring.stalled("records", 3), "flat across 3 heartbeats");
        ring.push(sample(400, &[("records", 11)]));
        assert!(!ring.stalled("records", 3), "progress clears the stall");
    }

    #[test]
    fn sampler_publishes_records_per_sec_gauge() {
        let reg = Arc::new(Registry::new());
        let records = reg.counter(names::RECORDS);
        let hb = Heartbeat::start(
            Arc::clone(&reg),
            HeartbeatConfig {
                interval: Duration::from_millis(5),
                capacity: 64,
                jsonl: None,
            },
        )
        .expect("sampler starts");
        for _ in 0..20 {
            records.add(1_000);
            std::thread::sleep(Duration::from_millis(2));
        }
        hb.stop();
        let published = reg
            .sample()
            .get(names::RECORDS_PER_SEC)
            .copied()
            .expect("gauge registered");
        assert!(published > 0, "counter was rising, got {published}/s");
    }

    #[test]
    fn sampler_publishes_events_per_sec_gauge() {
        let reg = Arc::new(Registry::new());
        let events = reg.counter(names::EVENTS);
        let hb = Heartbeat::start(
            Arc::clone(&reg),
            HeartbeatConfig {
                interval: Duration::from_millis(5),
                capacity: 64,
                jsonl: None,
            },
        )
        .expect("sampler starts");
        for _ in 0..20 {
            events.add(4_000);
            std::thread::sleep(Duration::from_millis(2));
        }
        hb.stop();
        let published = reg
            .sample()
            .get(names::EVENTS_PER_SEC)
            .copied()
            .expect("producer gauge registered");
        assert!(published > 0, "counter was rising, got {published}/s");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sampler_publishes_process_memory() {
        let reg = Arc::new(Registry::new());
        let hb = Heartbeat::start(
            Arc::clone(&reg),
            HeartbeatConfig {
                interval: Duration::from_millis(5),
                capacity: 64,
                jsonl: None,
            },
        )
        .expect("sampler starts");
        let ring = hb.ring();
        hb.stop();
        let ring = ring.lock().unwrap();
        assert!(ring.total() >= 2, "got {} samples", ring.total());
        let (first, last) = (ring.oldest().unwrap(), ring.latest().unwrap());
        for sample in [first, last] {
            let rss = sample.value(names::RSS_KIB);
            let peak = sample.value(names::PEAK_RSS_KIB);
            assert!(rss > 0, "rss {rss} KiB");
            assert!(peak >= rss, "peak {peak} KiB below rss {rss} KiB");
        }
        assert!(
            last.value(names::PEAK_RSS_KIB) >= first.value(names::PEAK_RSS_KIB),
            "the peak never falls"
        );
    }

    #[test]
    fn sampler_survives_a_poisoned_ring() {
        // Regression: a panic while holding the ring lock used to
        // poison it and every later `.expect("… poisoned")` — sampler,
        // scrape server, Debug impl — died with it, silently ending
        // telemetry for the rest of the run.
        let reg = Arc::new(Registry::new());
        let counter = reg.counter(names::RECORDS);
        let hb = Heartbeat::start(
            Arc::clone(&reg),
            HeartbeatConfig {
                interval: Duration::from_millis(5),
                capacity: 64,
                jsonl: None,
            },
        )
        .expect("sampler starts");
        let ring = hb.ring();

        // Poison the mutex from a panicking thread.
        let poisoner = Arc::clone(&ring);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(ring.lock().is_err(), "ring lock must be poisoned");

        // The sampler must keep pushing samples regardless.
        let before = ring.lock().unwrap_or_else(|e| e.into_inner()).total();
        for _ in 0..10 {
            counter.add(100);
            std::thread::sleep(Duration::from_millis(3));
        }
        let after = ring.lock().unwrap_or_else(|e| e.into_inner()).total();
        assert!(
            after > before,
            "sampler stopped after poisoning: {before} -> {after}"
        );
        // Debug formatting recovers too (it reads through the lock).
        let _ = format!("{hb:?}");
        hb.stop();
    }

    #[test]
    fn sampler_fills_ring_and_streams_jsonl() {
        let reg = Arc::new(Registry::new());
        let counter = reg.counter("test.records");
        let path =
            std::env::temp_dir().join(format!("cwa-heartbeat-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let hb = Heartbeat::start(
            Arc::clone(&reg),
            HeartbeatConfig {
                interval: Duration::from_millis(5),
                capacity: 64,
                jsonl: Some(path.clone()),
            },
        )
        .expect("sampler starts");
        for _ in 0..20 {
            counter.add(10);
            std::thread::sleep(Duration::from_millis(2));
        }
        let ring = hb.ring();
        hb.stop();

        let ring = ring.lock().unwrap();
        assert!(ring.total() >= 2, "got {} samples", ring.total());
        assert_eq!(ring.latest().unwrap().value("test.records"), 200);
        let rate = ring.window_rate("test.records").unwrap();
        assert!(rate > 0.0, "counter was rising, got rate {rate}");

        // Every jsonl line is a complete cwa-obs/v1 document.
        let text = std::fs::read_to_string(&path).expect("jsonl written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, ring.total(), "one line per sample");
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
            assert_eq!(
                v.get("schema").and_then(|s| s.as_str()),
                Some("cwa-obs/v1"),
                "bad line: {line}"
            );
            assert!(v.get("ts_ms").is_some(), "missing ts_ms: {line}");
            assert!(v.get("metrics").is_some(), "missing metrics: {line}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
