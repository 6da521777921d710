//! The flight recorder: per-thread ring buffers of timestamped span
//! events with a Chrome trace-event JSON export.
//!
//! Metrics (the sibling module) answer *how much*; the flight recorder
//! answers *when* and *where the time went* — which shard was busy
//! producing, which one sat blocked on a bounded channel, and how long
//! each analysis stage ran inside every export hour. The design rules
//! mirror the metrics layer's:
//!
//! * **Cheap on hot paths.** Recording an event is one relaxed
//!   `fetch_add` on the buffer head plus three relaxed stores — no
//!   locks, no allocation. Span names are interned to integer ids at
//!   wiring time ([`Tracer::name`]), never on the recording path.
//! * **Bounded memory.** Every [`TraceBuf`] is a fixed-capacity ring;
//!   when it wraps, the *oldest* events are overwritten and a dropped
//!   counter keeps the loss visible in the export.
//! * **Observation only.** Tracing reads the wall clock and nothing
//!   else — it never touches an RNG stream or feeds back into the
//!   pipeline, so reports stay byte-identical with tracing on or off
//!   (asserted by `tests/metrics.rs`).
//!
//! Each buffer is **single-writer**: exactly one thread records into
//! it (the pipeline hands every worker its own buffer). The export
//! ([`Tracer::to_chrome_json`]) runs after the workers have joined, so
//! it observes a quiescent ring.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An interned span name (resolve once via [`Tracer::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(u32);

/// Event kinds stored in a ring slot.
const KIND_COMPLETE: u64 = 0;
const KIND_INSTANT: u64 = 1;

/// Default ring capacity per buffer (events). At three `u64`s per slot
/// this is 1.5 MiB per thread — enough for per-hour spans over the full
/// 11-day study plus one collector span per router export round.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// One thread's ring buffer of trace events.
///
/// Created through [`Tracer::thread`]; the tracer keeps a handle for
/// export. Writes are lock-free (single writer per buffer); the ring
/// drops the oldest events on overflow and counts the drops.
pub struct TraceBuf {
    pid: u32,
    tid: u32,
    label: String,
    epoch: Instant,
    capacity: usize,
    /// Total events ever written (ring index = head % capacity).
    head: AtomicU64,
    /// Events overwritten by ring wraparound.
    dropped: AtomicU64,
    /// Flat slot storage, stride 3: `[ts_ns, dur_ns, kind<<32 | name]`.
    slots: Vec<AtomicU64>,
}

impl TraceBuf {
    fn new(pid: u32, tid: u32, label: String, epoch: Instant, capacity: usize) -> Self {
        TraceBuf {
            pid,
            tid,
            label,
            epoch,
            capacity,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..capacity * 3).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Nanoseconds since the owning tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    fn push(&self, ts_ns: u64, dur_ns: u64, kind: u64, name: NameId) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        if i >= self.capacity as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let base = (i as usize % self.capacity) * 3;
        self.slots[base].store(ts_ns, Ordering::Relaxed);
        self.slots[base + 1].store(dur_ns, Ordering::Relaxed);
        self.slots[base + 2].store(kind << 32 | u64::from(name.0), Ordering::Relaxed);
    }

    /// Records a complete span with an explicit start and duration.
    pub fn complete(&self, name: NameId, start_ns: u64, dur_ns: u64) {
        self.push(start_ns, dur_ns, KIND_COMPLETE, name);
    }

    /// Records one span per `(name, ns)` entry with time in it, laid
    /// back to back in order and ending at `end_ns`, then zeroes every
    /// entry. Coalesced self-times (per-hour totals of per-record or
    /// per-batch work) become a few spans instead of one per call; only
    /// the interleaving within the interval is synthesized.
    pub fn complete_back_to_back(&self, end_ns: u64, spans: &mut [(NameId, u64)]) {
        let total: u64 = spans.iter().map(|(_, ns)| ns).sum();
        let mut t = end_ns.saturating_sub(total);
        for (name, ns) in spans {
            if *ns > 0 {
                self.complete(*name, t, *ns);
            }
            t += *ns;
            *ns = 0;
        }
    }

    /// Records an instant event at the current time.
    pub fn instant(&self, name: NameId) {
        self.push(self.now_ns(), 0, KIND_INSTANT, name);
    }

    /// Starts a scoped span that records a complete event on drop.
    pub fn span(&self, name: NameId) -> TraceSpan<'_> {
        TraceSpan {
            buf: self,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Events overwritten by ring wraparound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the resident events in write order:
    /// `(ts_ns, dur_ns, kind, name)`.
    fn events(&self) -> Vec<(u64, u64, u64, u32)> {
        let head = self.head.load(Ordering::Relaxed);
        let n = head.min(self.capacity as u64);
        let first = head - n;
        (first..head)
            .map(|i| {
                let base = (i as usize % self.capacity) * 3;
                let code = self.slots[base + 2].load(Ordering::Relaxed);
                (
                    self.slots[base].load(Ordering::Relaxed),
                    self.slots[base + 1].load(Ordering::Relaxed),
                    code >> 32,
                    code as u32,
                )
            })
            .collect()
    }
}

impl std::fmt::Debug for TraceBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TraceBuf(pid {}, tid {}, {} events)",
            self.pid,
            self.tid,
            self.head.load(Ordering::Relaxed)
        )
    }
}

/// A scoped span: records `[creation, drop)` as a complete event.
#[derive(Debug)]
pub struct TraceSpan<'a> {
    buf: &'a TraceBuf,
    name: NameId,
    start_ns: u64,
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        let end = self.buf.now_ns();
        self.buf
            .complete(self.name, self.start_ns, end.saturating_sub(self.start_ns));
    }
}

/// Interned names plus their lookup index.
#[derive(Default)]
struct NameTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

/// The flight recorder: owns the epoch, the interned name table, the
/// process labels and every per-thread ring buffer.
pub struct Tracer {
    epoch: Instant,
    capacity: usize,
    names: Mutex<NameTable>,
    processes: Mutex<Vec<(u32, String)>>,
    buffers: Mutex<Vec<Arc<TraceBuf>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a tracer with the default per-buffer capacity.
    pub fn new() -> Self {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a tracer whose ring buffers hold `capacity` events each.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            names: Mutex::new(NameTable::default()),
            processes: Mutex::new(Vec::new()),
            buffers: Mutex::new(Vec::new()),
        }
    }

    /// Interns a span name (locks a mutex — resolve at wiring time).
    pub fn name(&self, name: &str) -> NameId {
        let mut table = self.names.lock().expect("trace names poisoned");
        if let Some(&id) = table.index.get(name) {
            return NameId(id);
        }
        let id = table.names.len() as u32;
        table.names.push(name.to_owned());
        table.index.insert(name.to_owned(), id);
        NameId(id)
    }

    /// Labels a Chrome-trace "process" (one per pipeline shard).
    pub fn set_process_name(&self, pid: u32, label: &str) {
        let mut procs = self.processes.lock().expect("trace processes poisoned");
        if !procs.iter().any(|(p, _)| *p == pid) {
            procs.push((pid, label.to_owned()));
        }
    }

    /// Creates (and registers for export) a ring buffer for one thread
    /// of process `pid`. The caller must ensure a single writer.
    pub fn thread(&self, pid: u32, tid: u32, label: &str) -> Arc<TraceBuf> {
        let buf = Arc::new(TraceBuf::new(
            pid,
            tid,
            label.to_owned(),
            self.epoch,
            self.capacity,
        ));
        self.buffers
            .lock()
            .expect("trace buffers poisoned")
            .push(Arc::clone(&buf));
        buf
    }

    /// Total events dropped (ring wraparound) across all buffers.
    pub fn total_dropped(&self) -> u64 {
        self.buffers
            .lock()
            .expect("trace buffers poisoned")
            .iter()
            .map(|b| b.dropped())
            .sum()
    }

    /// Exports every buffer as Chrome trace-event JSON (the format
    /// `chrome://tracing` and Perfetto load directly): one `"X"`
    /// complete event per span, one `"i"` event per instant,
    /// `process_name`/`thread_name` metadata per pid/buffer, timestamps
    /// in microseconds since the tracer's epoch.
    pub fn to_chrome_json(&self) -> String {
        let names = self.names.lock().expect("trace names poisoned");
        let processes = self.processes.lock().expect("trace processes poisoned");
        let mut buffers = self.buffers.lock().expect("trace buffers poisoned").clone();
        buffers.sort_by_key(|b| (b.pid, b.tid));

        let mut events: Vec<String> = Vec::new();
        let mut procs_sorted: Vec<&(u32, String)> = processes.iter().collect();
        procs_sorted.sort_by_key(|(p, _)| *p);
        for (pid, label) in procs_sorted {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                crate::json_string(label)
            ));
        }
        for buf in &buffers {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                buf.pid,
                buf.tid,
                crate::json_string(&buf.label)
            ));
        }
        for buf in &buffers {
            for (ts_ns, dur_ns, kind, name) in buf.events() {
                let name = names
                    .names
                    .get(name as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                let common = format!(
                    "\"pid\":{},\"tid\":{},\"cat\":\"cwa\",\"name\":{},\"ts\":{}",
                    buf.pid,
                    buf.tid,
                    crate::json_string(name),
                    micros(ts_ns),
                );
                events.push(if kind == KIND_COMPLETE {
                    format!("{{\"ph\":\"X\",{common},\"dur\":{}}}", micros(dur_ns))
                } else {
                    format!("{{\"ph\":\"i\",{common},\"s\":\"t\"}}")
                });
            }
        }

        let dropped: u64 = buffers.iter().map(|b| b.dropped()).sum();
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema\":\"cwa-trace/v1\",\
             \"dropped_events\":{dropped}}},\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let buffers = self.buffers.lock().expect("trace buffers poisoned");
        write!(f, "Tracer({} buffers)", buffers.len())
    }
}

/// Formats nanoseconds as a microsecond decimal (Chrome's `ts` unit).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Coalesced per-stage self-time for record-granularity consumers.
///
/// Filtering and analyzing happen *per record* — far too hot to emit a
/// trace event each. A `StageLog` instead accumulates per-stage busy
/// nanoseconds and, at every checkpoint (an export-hour boundary, see
/// `FlowSink::checkpoint` in `cwa-netflow`), emits one synthetic span
/// per stage laid out back-to-back ending at the checkpoint: a `filter`
/// span, then an `analyze` span containing one child span per consumer.
/// Self-times are exact; only the within-hour interleaving is
/// synthesized.
pub struct StageLog {
    buf: Arc<TraceBuf>,
    filter: NameId,
    analyze: NameId,
    stages: Vec<(NameId, u64)>,
    filter_ns: u64,
}

impl StageLog {
    /// Creates a stage log emitting into `buf` with one child stage per
    /// name in `stage_names`.
    pub fn new(tracer: &Tracer, buf: Arc<TraceBuf>, stage_names: &[&str]) -> Self {
        StageLog {
            filter: tracer.name("filter"),
            analyze: tracer.name("analyze"),
            stages: stage_names.iter().map(|n| (tracer.name(n), 0)).collect(),
            buf,
            filter_ns: 0,
        }
    }

    /// Nanoseconds since the tracer's epoch (for caller-side timing).
    pub fn now_ns(&self) -> u64 {
        self.buf.now_ns()
    }

    /// Accumulates filter busy time.
    pub fn add_filter(&mut self, ns: u64) {
        self.filter_ns += ns;
    }

    /// Accumulates stage `i`'s busy time (registration order).
    pub fn add_stage(&mut self, i: usize, ns: u64) {
        if let Some((_, acc)) = self.stages.get_mut(i) {
            *acc += ns;
        }
    }

    /// Emits the accumulated stage spans ending now and resets the
    /// accumulators. No-op when nothing accumulated.
    pub fn flush(&mut self) {
        let analyze_ns: u64 = self.stages.iter().map(|(_, ns)| ns).sum();
        if self.filter_ns + analyze_ns == 0 {
            return;
        }
        let end = self.buf.now_ns();
        let mut top = [(self.filter, self.filter_ns), (self.analyze, analyze_ns)];
        self.buf.complete_back_to_back(end, &mut top);
        self.buf.complete_back_to_back(end, &mut self.stages);
        self.filter_ns = 0;
    }
}

impl std::fmt::Debug for StageLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StageLog({} stages)", self.stages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_are_recorded() {
        let tracer = Tracer::new();
        let buf = tracer.thread(1, 1, "worker");
        let produce = tracer.name("produce");
        let tick = tracer.name("tick");
        {
            let _span = buf.span(produce);
            std::hint::black_box(0u64);
        }
        buf.instant(tick);
        buf.complete(produce, 100, 50);
        let events = buf.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].2, KIND_COMPLETE);
        assert_eq!(events[1].2, KIND_INSTANT);
        assert_eq!(events[2], (100, 50, KIND_COMPLETE, produce.0));
    }

    #[test]
    fn name_interning_is_stable() {
        let tracer = Tracer::new();
        let a = tracer.name("alpha");
        let b = tracer.name("beta");
        assert_ne!(a, b);
        assert_eq!(tracer.name("alpha"), a);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let tracer = Tracer::with_capacity(4);
        let buf = tracer.thread(0, 0, "t");
        let n = tracer.name("e");
        for i in 0..10u64 {
            buf.complete(n, i, 1);
        }
        assert_eq!(buf.dropped(), 6);
        assert_eq!(tracer.total_dropped(), 6);
        let events = buf.events();
        assert_eq!(events.len(), 4);
        // The four *newest* events survive, in order.
        assert_eq!(
            events.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn chrome_json_is_valid_and_complete() {
        let tracer = Tracer::new();
        tracer.set_process_name(1, "shard00");
        let buf = tracer.thread(1, 1, "worker");
        let produce = tracer.name("produce");
        buf.complete(produce, 1_500, 2_250);
        buf.instant(tracer.name("drain\"quote"));

        let json = tracer.to_chrome_json();
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid chrome trace JSON");
        let field = |v: &serde_json::Value, k: &str| v.get(k).expect(k).clone();
        let events = field(&doc, "traceEvents")
            .as_array()
            .expect("traceEvents array")
            .to_vec();
        // process_name + thread_name metadata + two events.
        assert_eq!(events.len(), 4);
        assert_eq!(field(&events[0], "ph").as_str(), Some("M"));
        assert_eq!(
            field(&field(&events[0], "args"), "name").as_str(),
            Some("shard00")
        );
        let span = &events[2];
        assert_eq!(field(span, "ph").as_str(), Some("X"));
        assert_eq!(field(span, "name").as_str(), Some("produce"));
        let num = |v: &serde_json::Value, k: &str| match field(v, k) {
            serde_json::Value::Num(n) => n.as_f64(),
            other => panic!("{k} not a number: {other:?}"),
        };
        assert_eq!(num(span, "ts"), 1.5);
        assert_eq!(num(span, "dur"), 2.25);
        assert_eq!(num(&field(&doc, "otherData"), "dropped_events"), 0.0);
        assert_eq!(field(&events[3], "name").as_str(), Some("drain\"quote"));
    }

    #[test]
    fn concurrent_writers_use_private_buffers() {
        let tracer = Arc::new(Tracer::new());
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let t = Arc::clone(&tracer);
                s.spawn(move || {
                    let buf = t.thread(w, 1, "worker");
                    let n = t.name("work");
                    for i in 0..1000 {
                        buf.complete(n, i, 1);
                    }
                });
            }
        });
        let json = tracer.to_chrome_json();
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        // 4 thread_name metadata + 4000 events.
        assert_eq!(
            doc.get("traceEvents").unwrap().as_array().unwrap().len(),
            4004
        );
    }

    #[test]
    fn back_to_back_spans_end_at_the_given_time_and_skip_empty_names() {
        let tracer = Tracer::new();
        let buf = tracer.thread(1, 1, "worker");
        let (idle, produce) = (tracer.name("recv_idle"), tracer.name("produce"));
        let mut spans = [(idle, 0), (produce, 400)];
        buf.complete_back_to_back(1_000, &mut spans);
        assert_eq!(buf.events(), vec![(600, 400, KIND_COMPLETE, produce.0)]);
        assert_eq!(spans, [(idle, 0), (produce, 0)], "entries are zeroed");
    }

    #[test]
    fn stage_log_emits_back_to_back_spans() {
        let tracer = Tracer::new();
        let buf = tracer.thread(2, 2, "analysis");
        let mut log = StageLog::new(&tracer, Arc::clone(&buf), &["timeseries", "geoloc"]);
        log.flush();
        assert_eq!(buf.events().len(), 0, "empty flush emits nothing");

        log.add_filter(1_000);
        log.add_stage(0, 2_000);
        log.add_stage(1, 3_000);
        log.flush();
        let events = buf.events();
        // filter + analyze + 2 stages.
        assert_eq!(events.len(), 4);
        let (filter, analyze, ts, geo) = (events[0], events[1], events[2], events[3]);
        assert_eq!(filter.1, 1_000);
        assert_eq!(analyze.1, 5_000);
        assert_eq!(ts.1, 2_000);
        assert_eq!(geo.1, 3_000);
        // Back-to-back layout: filter ends where analyze begins; the
        // stage children tile the analyze span exactly.
        assert_eq!(filter.0 + filter.1, analyze.0);
        assert_eq!(ts.0, analyze.0);
        assert_eq!(ts.0 + ts.1, geo.0);
        assert_eq!(geo.0 + geo.1, analyze.0 + analyze.1);

        // Accumulators reset after flush.
        log.flush();
        assert_eq!(buf.events().len(), 4);
    }
}
