//! The measurement vantage point (BENOCS' position in Figure 1).
//!
//! A handful of border routers in front of the CDN data center run
//! sampled NetFlow: each router keeps 1 packet in N, accounts the kept
//! packets into its flow cache, and exports expired cache entries as
//! NetFlow v5 datagrams to a collector that Crypto-PAn-anonymizes client
//! addresses (server prefixes stay in the clear, as in the paper's data
//! set — they are public documentation anyway).
//!
//! The 1-in-N sampling itself happens at generation: the traffic
//! generator emits only the flows a router samples, each carrying its
//! sampled packet count (see [`crate::traffic`]). A [`Router`] accounts
//! exactly that count and draws nothing, so the fleet can be driven as
//! a whole or split into shards with one scoped worker thread each
//! ([`run_sharded_into`]) and every router sees the same events and
//! produces the same records either way (a property the test suite
//! asserts).
//!
//! The vantage point also produces the **side tables** a cooperating
//! network operator would legitimately hand to researchers together with
//! anonymized traces:
//!
//! * the geolocation DB re-keyed to anonymized prefixes, and
//! * the ISP/router table: anonymized prefix → ISP, plus the *true*
//!   router district for the ground-truth ISP (the paper's "18 % of
//!   geolocations … from local routers within an ISP (ground truth
//!   since the router locations are known)").

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;

use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use cwa_epidemic::timeline::STUDY_EPOCH_UNIX;
use cwa_geo::{AddressPlan, DistrictId, GeoDb, IspId};
use cwa_netflow::anonymize::CryptoPan;
use cwa_netflow::cache::{CacheStats, FlowCache, FlowCacheConfig};
use cwa_netflow::collector::{Collector, CollectorMetrics, CollectorTrace};
use cwa_netflow::flow::FlowRecord;
use cwa_netflow::sink::FlowSink;
use cwa_netflow::v5::packetize;
use cwa_netflow::v9::{V9Decoder, V9Exporter};
use cwa_obs::{Counter, NameId, Registry, TraceBuf, Tracer};

use crate::traffic::FlowEvent;

/// Which NetFlow wire format the routers export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExportFormat {
    /// Classic fixed-layout NetFlow v5.
    V5,
    /// Template-based NetFlow v9 (RFC 3954).
    V9,
}

/// The routers' default packet sampling interval (1 in 1000, as on the
/// measured routers); also the traffic generator's default.
pub const DEFAULT_SAMPLING_INTERVAL: u32 = 1000;

/// Vantage-point configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VantageConfig {
    /// Number of border routers (flow caches / export engines).
    pub routers: u8,
    /// Export wire format.
    pub format: ExportFormat,
    /// Packet sampling interval N (1-in-N). The traffic generator
    /// samples at this interval on the routers' behalf.
    pub sampling_interval: u32,
    /// Flow-cache timeouts.
    pub cache: FlowCacheConfig,
    /// 32-byte Crypto-PAn key.
    pub anon_key: [u8; 32],
    /// Seed of the export transport's loss draws.
    pub sampling_seed: u64,
    /// Fault injection: probability an export datagram is lost between
    /// router and collector (UDP transport in the real world). The
    /// collector detects v5 losses via sequence gaps; v9 survives lost
    /// template announcements through periodic re-announcement.
    pub export_loss_rate: f64,
}

impl Default for VantageConfig {
    fn default() -> Self {
        VantageConfig {
            routers: 4,
            format: ExportFormat::V5,
            sampling_interval: DEFAULT_SAMPLING_INTERVAL,
            cache: FlowCacheConfig::default(),
            anon_key: *b"cwa-repro-cryptopan-key-32bytes!",
            sampling_seed: 0x5A17,
            export_loss_rate: 0.0,
        }
    }
}

/// How a sharded vantage fleet derives each shard's Crypto-PAn key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardKeyMode {
    /// Every shard anonymizes under the base `anon_key`. One client
    /// prefix maps to one anonymized prefix fleet-wide, so merged
    /// per-shard analyses equal the single-vantage run exactly.
    Common,
}

/// One side-table entry per routing prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IspSideEntry {
    /// Owning ISP.
    pub isp: IspId,
    /// For the ground-truth ISP only: the district of the customer-facing
    /// router (exact). `None` for all other ISPs.
    pub router_district: Option<DistrictId>,
}

/// Per-router observability handles (single relaxed atomics on the
/// packet path; resolved once when metrics are attached).
#[derive(Clone)]
pub(crate) struct RouterMetrics {
    sampled: Arc<Counter>,
    unsampled: Arc<Counter>,
}

/// One border router: flow cache + export sequencing.
pub struct Router {
    /// Engine id used in export headers.
    pub id: u8,
    sampling_interval: u32,
    cache: FlowCache,
    format: ExportFormat,
    /// v5 flow sequence counter.
    sequence: u32,
    /// v9 exporter state (template refresh, datagram sequence).
    v9: V9Exporter,
    /// Observability handles (None = uninstrumented, zero overhead).
    metrics: Option<RouterMetrics>,
}

impl Router {
    /// Creates router `id` of a fleet configured by `cfg`.
    pub fn new(id: u8, cfg: &VantageConfig) -> Self {
        Router {
            id,
            sampling_interval: cfg.sampling_interval,
            cache: FlowCache::new(cfg.cache),
            format: cfg.format,
            sequence: 0,
            v9: V9Exporter::new(u32::from(id)),
            metrics: None,
        }
    }

    /// Observes one flow event: accounts its `sampled` packets into the
    /// flow cache, spaced evenly over the flow's duration.
    ///
    /// # Panics
    ///
    /// If the event was sampled at another interval than this router's
    /// — a generator wired to the wrong configuration would otherwise
    /// produce plausible but wrong records.
    pub fn observe(&mut self, ev: &FlowEvent) {
        assert_eq!(
            ev.sampling_interval, self.sampling_interval,
            "flow event sampled at 1:{} reached router {} sampling at 1:{}",
            ev.sampling_interval, self.id, self.sampling_interval
        );
        let sampled = ev.sampled;
        if let Some(m) = &self.metrics {
            m.sampled.add(sampled);
            m.unsampled.add(ev.packets - sampled);
        }
        if sampled == 0 {
            return;
        }
        let bytes_per_packet = (ev.bytes / ev.packets.max(1)).max(40);
        let step = ev.duration_ms / sampled;
        for i in 0..sampled {
            let t = ev.start_ms + i * step;
            self.cache.account(ev.key, bytes_per_packet, 0x18, t);
        }
    }

    /// End-of-hour sweep; returns this router's export datagrams as
    /// wire bytes.
    pub fn end_of_hour(&mut self, hour: u32) -> Vec<bytes::Bytes> {
        Datagram::wires(self.sweep(hour))
    }

    /// Final flush; returns the remaining export datagrams.
    pub fn finish(&mut self, hour: u32) -> Vec<bytes::Bytes> {
        Datagram::wires(self.flush(hour))
    }

    /// [`end_of_hour`](Router::end_of_hour), with each datagram's record
    /// count.
    fn sweep(&mut self, hour: u32) -> Vec<Datagram> {
        let now_ms = u64::from(hour + 1) * 3_600_000;
        self.cache.sweep(now_ms);
        self.export(hour)
    }

    /// [`finish`](Router::finish), with each datagram's record count.
    fn flush(&mut self, hour: u32) -> Vec<Datagram> {
        self.cache.flush();
        self.export(hour)
    }

    fn export(&mut self, hour: u32) -> Vec<Datagram> {
        let expired = self.cache.take_expired();
        let unix_secs = (STUDY_EPOCH_UNIX + u64::from(hour + 1) * 3600) as u32;
        match self.format {
            ExportFormat::V5 => {
                if expired.is_empty() {
                    return Vec::new();
                }
                let (packets, next) = packetize(
                    &expired,
                    self.id,
                    self.sampling_interval.min(0x3fff) as u16,
                    unix_secs,
                    self.sequence,
                );
                self.sequence = next;
                packets
                    .into_iter()
                    .map(|p| Datagram {
                        records: p.records.len() as u64,
                        wire: p.encode(),
                    })
                    .collect()
            }
            ExportFormat::V9 => {
                // v9 datagrams carry up to ~24 of our records within a
                // typical MTU; the first datagram also announces the
                // template (even when no records expired, so the
                // collector always has it).
                if expired.is_empty() {
                    return Vec::new();
                }
                expired
                    .chunks(24)
                    .map(|chunk| Datagram {
                        wire: self.v9.export(
                            chunk,
                            unix_secs,
                            (u64::from(hour) * 3_600_000) as u32,
                        ),
                        records: chunk.len() as u64,
                    })
                    .collect()
            }
        }
    }

    /// The router's cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// One export datagram as it leaves a router: its wire bytes and the
/// number of flow records they carry, which the transport counts as
/// lost when the datagram never decodes.
struct Datagram {
    wire: bytes::Bytes,
    records: u64,
}

impl Datagram {
    fn wires(datagrams: Vec<Datagram>) -> Vec<bytes::Bytes> {
        datagrams.into_iter().map(|d| d.wire).collect()
    }
}

/// Deterministically assigns a flow to a router by its client-side
/// routing prefix (clients of one region traverse one border router).
pub fn router_for(ev: &FlowEvent, plan_prefix_len: u8, routers: usize) -> usize {
    let client = if ev.downstream {
        ev.key.dst_ip
    } else {
        ev.key.src_ip
    };
    let prefix = cwa_geo::geodb::mask(client, plan_prefix_len);
    // Fibonacci hashing of the prefix.
    let h = (u64::from(prefix)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize % routers
}

/// Live run-progress gauges (`sim.progress.*`) read by the `/progress`
/// endpoint and the `watch` dashboard.
///
/// Totals are published at construction; `hour_done` advances the
/// completion gauges after each simulated hour: from the one worker of
/// a one-shard run once the hour is analyzed, from the generator of a
/// sharded run once the hour is fed. Pure observation — gauge stores
/// only, no feedback into the run.
struct ProgressGauges {
    hours_done: Arc<cwa_obs::Gauge>,
    days_done: Arc<cwa_obs::Gauge>,
}

impl ProgressGauges {
    /// Publishes the run's totals and zeroes the completion gauges.
    fn new(registry: &Arc<Registry>, hours: u32) -> Self {
        registry
            .gauge("sim.progress.hours_total")
            .set(i64::from(hours));
        registry
            .gauge("sim.progress.days_total")
            .set(i64::from(hours.div_ceil(24)));
        registry.gauge("sim.progress.done").set(0);
        let hours_done = registry.gauge("sim.progress.hours_done");
        hours_done.set(0);
        let days_done = registry.gauge("sim.progress.days_done");
        days_done.set(0);
        ProgressGauges {
            hours_done,
            days_done,
        }
    }

    /// Marks simulated hour `hour` (0-based) complete.
    fn hour_done(&self, hour: u32) {
        self.hours_done.set(i64::from(hour) + 1);
        self.days_done.set(i64::from((hour + 1) / 24));
    }
}

/// Pre-interned flight-recorder span names for one pipeline thread
/// (generator, feed, or worker). Interning happens once at wiring time
/// so the hot paths record spans with atomics only.
struct ThreadTrace {
    buf: Arc<TraceBuf>,
    produce: NameId,
    export: NameId,
    drain: NameId,
    recv_idle: NameId,
    send_block: NameId,
    finish: NameId,
}

impl ThreadTrace {
    fn new(tracer: &Tracer, pid: u32, tid: u32, label: &str) -> Self {
        ThreadTrace {
            produce: tracer.name("produce"),
            export: tracer.name("export"),
            drain: tracer.name("drain"),
            recv_idle: tracer.name("recv_idle"),
            send_block: tracer.name("send_block"),
            finish: tracer.name("finish"),
            buf: tracer.thread(pid, tid, label),
        }
    }

    /// Records a complete span from `start_ns` until now.
    fn span_since(&self, name: NameId, start_ns: u64) {
        self.buf
            .complete(name, start_ns, self.buf.now_ns().saturating_sub(start_ns));
    }
}

/// Aggregate statistics of one vantage run (cache + transport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VantageRunStats {
    /// Flow-cache statistics summed over all routers (post-flush).
    pub cache: CacheStats,
    /// Export datagrams dropped by the lossy transport.
    pub dropped_datagrams: u64,
    /// v9 data sets undecodable because their template was lost.
    pub undecodable_datagrams: u64,
    /// Flow records inside the dropped and the undecodable datagrams:
    /// the routers' evictions are the collector's records plus these.
    pub lost_records: u64,
    /// High-water mark of records resident in the collector at once.
    /// Under chunked emission (hourly drains to a [`FlowSink`]) this is
    /// one chunk; under batch collection it is the total record count.
    pub peak_resident_records: u64,
}

/// The vantage point: routers plus the anonymizing collector.
///
/// Either the whole fleet (via [`VantagePoint::new`]) or one shard of
/// it (via [`VantagePoint::shard`]): a shard owns a contiguous range of
/// the global router ids starting at `router_base`, while event routing
/// always hashes over the *fleet-wide* `total_routers` — so the events
/// a given router observes are identical whether or not the fleet is
/// sharded.
pub struct VantagePoint {
    routers: Vec<Router>,
    /// Global id of `routers[0]` (0 for an unsharded vantage point).
    router_base: usize,
    /// Fleet-wide router count event routing hashes over.
    total_routers: usize,
    collector: Collector,
    plan_prefix_len: u8,
    format: ExportFormat,
    v9_decoder: V9Decoder,
    transport: Transport,
    /// Registry for [`run_sharded_into`]'s per-shard gauges and counters.
    metrics: Option<Arc<Registry>>,
    /// Flight recorder (None = untraced, zero overhead).
    /// [`run_sharded_into`] reads this to wrap produce/export/drain in
    /// spans.
    trace: Option<Arc<Tracer>>,
}

/// The (lossy) export transport between a shard's routers and its
/// collector.
struct Transport {
    loss_rate: f64,
    /// One loss stream per router, in local router order, keyed by the
    /// router's global id: which of a router's datagrams are lost does
    /// not depend on how the fleet is sharded.
    links: Vec<ChaCha8Rng>,
    /// Datagrams dropped by fault injection.
    pub dropped_datagrams: u64,
    /// v9 data sets skipped because their template was lost.
    pub undecodable_datagrams: u64,
    /// Flow records inside the dropped and the skipped datagrams.
    pub lost_records: u64,
}

impl Transport {
    /// The transport of the routers with global ids `routers`.
    fn new(cfg: &VantageConfig, routers: std::ops::Range<usize>) -> Self {
        use rand::SeedableRng as _;
        let key = ChaCha8Rng::seed_from_u64(cfg.sampling_seed ^ 0x105E);
        Transport {
            loss_rate: cfg.export_loss_rate,
            links: routers
                .map(|id| {
                    let mut link = key.clone();
                    link.set_stream(id as u64);
                    link
                })
                .collect(),
            dropped_datagrams: 0,
            undecodable_datagrams: 0,
            lost_records: 0,
        }
    }

    /// Whether the next datagram of local router `router`, carrying
    /// `records` flow records, arrives.
    fn delivers(&mut self, router: usize, records: u64) -> bool {
        use rand::Rng as _;
        if self.loss_rate <= 0.0 {
            return true;
        }
        if self.links[router].gen::<f64>() < self.loss_rate {
            self.dropped_datagrams += 1;
            self.lost_records += records;
            false
        } else {
            true
        }
    }
}

impl VantagePoint {
    /// Creates the vantage point: the whole fleet, as the one shard of
    /// [`VantagePoint::shard`]. `server_prefixes` are exempt from
    /// anonymization; `plan_prefix_len` is the routing-prefix length of
    /// the address plan (used for routing and side-table keying).
    pub fn new(
        cfg: VantageConfig,
        server_prefixes: Vec<(Ipv4Addr, u8)>,
        plan_prefix_len: u8,
    ) -> Self {
        Self::shard(cfg, server_prefixes, plan_prefix_len, 1)
            .pop()
            .expect("one shard")
    }

    /// Splits the vantage fleet into `n` shards, each owning a
    /// contiguous range of the global router ids (sizes differing by at
    /// most one) with its own collector under the common Crypto-PAn key.
    /// Routers keep their *global* ids, so every router sees the same
    /// events as in the unsharded fleet, and the union of all shards'
    /// records is exactly the unsharded record set.
    pub fn shard(
        cfg: VantageConfig,
        server_prefixes: Vec<(Ipv4Addr, u8)>,
        plan_prefix_len: u8,
        n: usize,
    ) -> Vec<VantagePoint> {
        let total = usize::from(cfg.routers);
        assert!(
            (1..=total).contains(&n),
            "shard count {n} must be in 1..={total} (the router count)"
        );
        let base_size = total / n;
        let remainder = total % n;
        let mut shards = Vec::with_capacity(n);
        let mut next_router = 0usize;
        for i in 0..n {
            let size = base_size + usize::from(i < remainder);
            let routers: Vec<Router> = (0..size)
                .map(|k| Router::new((next_router + k) as u8, &cfg))
                .collect();
            shards.push(VantagePoint {
                router_base: next_router,
                total_routers: total,
                routers,
                collector: Collector::new_anonymizing(&cfg.anon_key, server_prefixes.clone()),
                plan_prefix_len,
                format: cfg.format,
                v9_decoder: V9Decoder::new(),
                transport: Transport::new(&cfg, next_router..next_router + size),
                metrics: None,
                trace: None,
            });
            next_router += size;
        }
        shards
    }

    /// Global ids of the routers this vantage point owns.
    pub fn router_ids(&self) -> std::ops::Range<usize> {
        self.router_base..self.router_base + self.routers.len()
    }

    /// Attaches observability: per-router sampled/unsampled packet
    /// counters and the collector's record/anonymization/sequence-loss
    /// counters.
    pub fn attach_metrics(&mut self, registry: &Arc<Registry>) {
        for router in &mut self.routers {
            router.metrics = Some(RouterMetrics {
                sampled: registry
                    .counter(&format!("simnet.router.{:02}.sampled_packets", router.id)),
                unsampled: registry
                    .counter(&format!("simnet.router.{:02}.unsampled_packets", router.id)),
            });
        }
        self.collector.set_metrics(CollectorMetrics::new(registry));
        self.metrics = Some(Arc::clone(registry));
    }

    /// Attaches the flight recorder. [`run_sharded_into`] wraps every
    /// produce/export/drain step in trace spans; tracing never touches
    /// an RNG stream, so the record output is identical with or without
    /// it (asserted by the determinism test suite).
    pub fn set_trace(&mut self, tracer: Arc<Tracer>) {
        self.trace = Some(tracer);
    }

    /// Points the collector's per-export-round ingest spans at `buf` (the
    /// trace track of the worker thread that drives this vantage point).
    fn trace_collector_onto(&mut self, tracer: &Tracer, buf: Arc<TraceBuf>) {
        self.collector.set_trace(CollectorTrace::new(tracer, buf));
    }

    /// Feeds one wire datagram of local router `router` into the
    /// collector, decoding per the configured format. Passes the
    /// (possibly lossy) transport first.
    fn ingest_wire(
        collector: &mut Collector,
        v9_decoder: &mut V9Decoder,
        transport: &mut Transport,
        router: usize,
        format: ExportFormat,
        datagram: Datagram,
    ) {
        if !transport.delivers(router, datagram.records) {
            return;
        }
        let wire = datagram.wire;
        match format {
            ExportFormat::V5 => {
                collector
                    .ingest(wire)
                    .expect("self-produced v5 datagram is valid");
            }
            ExportFormat::V9 => {
                // Engine id = v9 source id (set by the router).
                let source = u32::from_be_bytes([wire[16], wire[17], wire[18], wire[19]]) as u8;
                match v9_decoder.decode(wire) {
                    Ok(records) => collector.ingest_records(records, source),
                    Err(cwa_netflow::v9::V9Error::UnknownTemplate(_)) => {
                        // The template announcement was lost; data sets
                        // stay undecodable until the next re-announcement.
                        transport.undecodable_datagrams += 1;
                        transport.lost_records += datagram.records;
                        collector.note_decode_error();
                    }
                    Err(e) => panic!("self-produced v9 datagram invalid: {e}"),
                }
            }
        }
    }

    /// Observes one flow event (routes it to the owning router). The
    /// router hash is over the fleet-wide router count; for a shard, the
    /// event must belong to one of its routers.
    pub fn observe(&mut self, ev: &FlowEvent) {
        let r = router_for(ev, self.plan_prefix_len, self.total_routers);
        let local = r
            .checked_sub(self.router_base)
            .filter(|&l| l < self.routers.len())
            .expect("event dispatched to a router outside this shard");
        self.routers[local].observe(ev);
    }

    /// Delivers local router `router`'s export round to the collector,
    /// traced as one `collect.ingest` span.
    fn ingest_round(&mut self, router: usize, datagrams: Vec<Datagram>) {
        if datagrams.is_empty() {
            return;
        }
        let (v9_decoder, transport, format) =
            (&mut self.v9_decoder, &mut self.transport, self.format);
        self.collector.export_round(|collector| {
            for datagram in datagrams {
                Self::ingest_wire(collector, v9_decoder, transport, router, format, datagram);
            }
        });
    }

    /// End-of-hour housekeeping across all routers (in id order, keeping
    /// the collector's record order deterministic).
    pub fn end_of_hour(&mut self, hour: u32) {
        for i in 0..self.routers.len() {
            let datagrams = self.routers[i].sweep(hour);
            self.ingest_round(i, datagrams);
        }
    }

    /// Streams the records currently resident in the collector into
    /// `sink` and clears them. Calling this after every
    /// [`end_of_hour`](VantagePoint::end_of_hour) is the chunked
    /// emission mode: the collector never holds more than one export
    /// round's records.
    pub fn drain_records_into(&mut self, sink: &mut dyn FlowSink) {
        self.collector.drain_into(sink);
    }

    /// Sets the collector's records-per-[`FlowChunk`] drain batching
    /// (default `cwa_netflow::DEFAULT_CHUNK_CAPACITY`). Batching never
    /// changes the record stream, only how many records each
    /// `observe_chunk` call carries.
    ///
    /// [`FlowChunk`]: cwa_netflow::FlowChunk
    pub fn set_chunk_capacity(&mut self, capacity: usize) {
        self.collector.set_chunk_capacity(capacity);
    }

    /// Flushes all caches (end of measurement) and returns every
    /// collected, anonymized record.
    pub fn finish(self, final_hour: u32) -> Vec<FlowRecord> {
        let mut records = Vec::new();
        self.finish_into(final_hour, &mut records);
        records
    }

    /// Streaming form of [`finish`](VantagePoint::finish): flushes all
    /// caches, drains the remaining records into `sink` (without
    /// signalling `sink.finish()` — the caller owns the stream's
    /// lifecycle) and reports the run's aggregate cache and transport
    /// statistics (captured *after* the final flush, so flush evictions
    /// are included).
    pub fn finish_into(mut self, final_hour: u32, sink: &mut dyn FlowSink) -> VantageRunStats {
        for i in 0..self.routers.len() {
            let datagrams = self.routers[i].flush(final_hour);
            self.ingest_round(i, datagrams);
        }
        let stats = VantageRunStats {
            cache: self.cache_stats(),
            dropped_datagrams: self.transport.dropped_datagrams,
            undecodable_datagrams: self.transport.undecodable_datagrams,
            lost_records: self.transport.lost_records,
            peak_resident_records: self.collector.peak_resident_records() as u64,
        };
        self.collector.drain_into(sink);
        stats
    }

    /// Aggregate cache statistics over all routers.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for r in &self.routers {
            let s = r.stats();
            total.packets_seen += s.packets_seen;
            total.expired_inactive += s.expired_inactive;
            total.expired_active += s.expired_active;
            total.expired_emergency += s.expired_emergency;
            total.expired_flush += s.expired_flush;
        }
        total
    }
}

/// Builds the anonymized side tables a cooperating operator hands over
/// with the traces, under the collector's Crypto-PAn key. With a router
/// map, the ground-truth "router location" of a prefix is its *serving*
/// router's district, which for rural prefixes may be the neighbouring
/// district — the imprecision §3 of the paper warns about.
///
/// [`side_tables_from`] on a copy of `geodb`.
pub fn side_tables_with(
    cryptopan: &CryptoPan,
    plan: &AddressPlan,
    geodb: &GeoDb,
    routers: Option<&cwa_geo::RouterMap>,
) -> (GeoDb, HashMap<u32, IspSideEntry>) {
    side_tables_from(cryptopan, plan, geodb.clone(), routers)
}

/// [`side_tables_with`], re-keying the clear geo DB in place
/// ([`GeoDb::into_rekeyed`]), so set-up never holds the clear and the
/// anonymized DB at once.
///
/// One Crypto-PAn walk per allocation network serves both tables. It
/// goes only as deep as the longer of the allocation's mask and the geo
/// DB's, and the sorted allocations share their leading flips
/// ([`CryptoPan::anonymize_prefixes`]). The geo DB's keys come in the
/// same ascending order, so one merge pass pairs each key with its
/// allocation's walk. A key the merge does not find, if any, goes
/// through a full [`CryptoPan::anonymize`].
pub fn side_tables_from(
    cryptopan: &CryptoPan,
    plan: &AddressPlan,
    geodb: GeoDb,
    routers: Option<&cwa_geo::RouterMap>,
) -> (GeoDb, HashMap<u32, IspSideEntry>) {
    let allocs = plan.allocations();
    let geo_len = geodb.prefix_len;
    let networks = allocs
        .iter()
        .map(|a| (cwa_geo::geodb::mask(a.network, a.len), a.len.max(geo_len)));
    let anon_networks = cryptopan.anonymize_prefixes(networks.clone());
    let mut isp_table = HashMap::with_capacity(allocs.len());
    for (alloc, &anon) in allocs.iter().zip(&anon_networks) {
        let anon_net = cwa_geo::geodb::mask(Ipv4Addr::from(anon), alloc.len);
        isp_table.insert(anon_net, isp_side_entry(plan, alloc, routers));
    }
    let mut walks = networks.map(|(net, _)| net).zip(anon_networks).peekable();
    let geodb_anon = geodb.into_rekeyed(|a| {
        let key = u32::from(a);
        while walks.next_if(|&(net, _)| net < key).is_some() {}
        match walks.peek() {
            Some(&(net, anon)) if net == key => Ipv4Addr::from(anon),
            _ => cryptopan.anonymize(a),
        }
    });
    (geodb_anon, isp_table)
}

/// The ISP side-table entry of one allocation.
fn isp_side_entry(
    plan: &AddressPlan,
    alloc: &cwa_geo::PrefixAllocation,
    routers: Option<&cwa_geo::RouterMap>,
) -> IspSideEntry {
    let router_district = if plan.isp(alloc.isp).ground_truth_routers {
        match routers {
            Some(map) => map
                .router_of(u32::from(alloc.network))
                .map(|r| r.district)
                .or(Some(alloc.district)),
            None => Some(alloc.district),
        }
    } else {
        None
    };
    IspSideEntry {
        isp: alloc.isp,
        router_district,
    }
}

/// Messages the generating thread sends to shard workers.
enum ShardMsg {
    /// A batch of flow events owned by this shard's routers.
    Events(Vec<FlowEvent>),
    EndOfHour(u32),
    Finish(u32),
}

/// Events per [`ShardMsg::Events`] batch (amortizes channel traffic).
const SHARD_EVENT_BATCH: usize = 256;
/// Bounded channel capacity in batches: the generator can run at most
/// this many batches ahead of a shard worker before blocking
/// (backpressure keeping per-shard memory flat).
const SHARD_CHANNEL_CAP: usize = 64;

/// The generator's end of one shard's channel: the batch being filled,
/// the channel-depth gauge, and the stall accounting — nanoseconds spent
/// blocked sending into the full channel, as
/// `sim.shard.NN.send_block_ns` and as one `send_block` span per export
/// hour on the shard's feed track.
struct Feed {
    tx: SyncSender<ShardMsg>,
    batch: Vec<FlowEvent>,
    depth: Option<Arc<cwa_obs::Gauge>>,
    send_block: Option<Arc<Counter>>,
    trace: Option<ThreadTrace>,
    blocked_ns: u64,
}

impl Feed {
    /// Queues one event, sending the batch once it is full.
    fn push(&mut self, ev: &FlowEvent) {
        self.batch.push(*ev);
        if self.batch.len() == SHARD_EVENT_BATCH {
            self.send_batch();
        }
    }

    /// Sends the queued events, if any.
    fn send_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let full = std::mem::replace(&mut self.batch, Vec::with_capacity(SHARD_EVENT_BATCH));
        if let Some(g) = &self.depth {
            g.add(1);
        }
        self.send(ShardMsg::Events(full));
    }

    /// Sends one message, accounting time blocked on a full channel.
    fn send(&mut self, msg: ShardMsg) {
        match self.tx.try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                let start = std::time::Instant::now();
                self.tx.send(msg).expect("worker alive");
                let blocked = start.elapsed().as_nanos() as u64;
                self.blocked_ns += blocked;
                if let Some(c) = &self.send_block {
                    c.add(blocked);
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                panic!("worker alive");
            }
        }
    }

    /// Ends an export hour (or the run): sends the queued events, then
    /// `msg`, and flushes the hour's blocked time as one span.
    fn end_hour(&mut self, msg: ShardMsg) {
        self.send_batch();
        self.send(msg);
        if let Some(tr) = &self.trace {
            tr.buf
                .complete_back_to_back(tr.buf.now_ns(), &mut [(tr.send_block, self.blocked_ns)]);
        }
        self.blocked_ns = 0;
    }
}

/// Drives a traffic generator through a vantage fleet split into
/// shards: one scoped worker thread per shard runs that shard's routers,
/// collector and sink, fed event batches over a bounded channel by the
/// calling thread, which only generates. With one shard the worker runs
/// the whole fleet, and the caller generates hour h+1 while the worker
/// exports, collects and drains hour h. Each worker drains its
/// collector into its own sink every export hour and calls
/// `sink.finish()` after the final flush, then returns the sink and the
/// shard's run statistics (in shard order).
///
/// Determinism: the calling thread generates events in the exact serial
/// order and routes each to its owning shard, where the owning *router*
/// — keyed by global id — accounts its subsequence exactly as in the
/// whole fleet (routers draw nothing). Each shard's record stream is
/// therefore exactly the serial day loop's stream (generate, observe,
/// end of hour, drain) restricted to its routers; one shard's stream is
/// that stream itself.
pub fn run_sharded_into<S: FlowSink + Send>(
    mut model: crate::traffic::TrafficModel<'_>,
    shards: Vec<(VantagePoint, S)>,
    hours: u32,
) -> (crate::traffic::GroundTruth, Vec<(S, VantageRunStats)>) {
    assert!(!shards.is_empty(), "at least one shard required");
    let n_shards = shards.len();
    let metrics = shards[0].0.metrics.clone();
    let tracer = shards[0].0.trace.clone();
    let plan_prefix_len = shards[0].0.plan_prefix_len;
    let total_routers = shards[0].0.total_routers;
    let mut owner_of_router = vec![usize::MAX; total_routers];
    for (i, (vp, _)) in shards.iter().enumerate() {
        for r in vp.router_ids() {
            owner_of_router[r] = i;
        }
    }
    assert!(
        owner_of_router.iter().all(|&o| o != usize::MAX),
        "shards must cover every router of the fleet"
    );
    // Per-shard observation (pure; nothing feeds back into the run):
    // channel depth in batches (the generator increments, the worker
    // decrements), the worker's idle time waiting to receive, and a
    // per-shard hours-done gauge advanced by each worker — a starving
    // shard shows as a lagging gauge. The fleet-wide `sim.progress.*`
    // advances with the generator once an hour is fed to two or more
    // shards; one shard's worker advances it after the hour's
    // checkpoint, so `/progress` moves in step with the published
    // `/report`.
    let gauge = |i: usize, stem: &str| {
        metrics
            .as_ref()
            .map(|m| m.gauge(&format!("sim.shard.{i:02}.{stem}")))
    };
    let counter = |i: usize, stem: &str| {
        metrics
            .as_ref()
            .map(|m| m.counter(&format!("sim.shard.{i:02}.{stem}")))
    };
    let mut progress = metrics.as_ref().map(|m| ProgressGauges::new(m, hours));
    // Trace layout: one Chrome-trace "process" per shard (pid i+1,
    // stable across runs), with the generator-side feed on tid 0 and
    // the shard worker on tid 1. Pid 0 is the generator and the study.
    let generator_tr = tracer.as_ref().map(|t| {
        t.set_process_name(0, "generator");
        ThreadTrace::new(t, 0, 0, "generator")
    });

    let results = std::thread::scope(|scope| {
        let mut feeds = Vec::with_capacity(n_shards);
        let mut handles = Vec::with_capacity(n_shards);
        for (i, (mut vp, mut sink)) in shards.into_iter().enumerate() {
            let pid = (i + 1) as u32;
            let (tx, rx) = sync_channel::<ShardMsg>(SHARD_CHANNEL_CAP);
            let depth = gauge(i, "channel_depth");
            feeds.push(Feed {
                tx,
                batch: Vec::with_capacity(SHARD_EVENT_BATCH),
                depth: depth.clone(),
                send_block: counter(i, "send_block_ns"),
                trace: tracer.as_ref().map(|t| {
                    t.set_process_name(pid, &format!("shard{i:02}"));
                    ThreadTrace::new(t, pid, 0, "feed")
                }),
                blocked_ns: 0,
            });
            // The per-shard gauges are driven from here, not by workers.
            vp.metrics = None;
            vp.trace = None;
            let idle_counter = counter(i, "recv_idle_ns");
            let hours_gauge = gauge(i, "hours_done");
            let worker_progress = if n_shards == 1 { progress.take() } else { None };
            let worker_tr = tracer
                .as_ref()
                .map(|t| ThreadTrace::new(t, pid, 1, "worker"));
            if let (Some(t), Some(tr)) = (&tracer, &worker_tr) {
                vp.trace_collector_onto(t, Arc::clone(&tr.buf));
            }
            handles.push(scope.spawn(move || {
                let mut vp = Some(vp);
                let mut stats = VantageRunStats::default();
                let timed_idle = worker_tr.is_some() || idle_counter.is_some();
                // This hour's idle and routing time, flushed as one
                // `recv_idle` and one `produce` span per export hour, as
                // `StageLog` does for filter/analyze: a span per
                // 256-event batch would fill the track's ring at scale 1.0.
                let mut hour_spans = worker_tr
                    .as_ref()
                    .map(|tr| [(tr.recv_idle, 0u64), (tr.produce, 0u64)]);
                loop {
                    // Idle time: from wanting the next message to having
                    // it — a starved worker shows a long recv_idle span.
                    let idle_from = std::time::Instant::now();
                    let Ok(msg) = rx.recv() else { break };
                    if timed_idle {
                        let idle = idle_from.elapsed().as_nanos() as u64;
                        if let Some(spans) = &mut hour_spans {
                            spans[0].1 += idle;
                        }
                        if let Some(c) = &idle_counter {
                            c.add(idle);
                        }
                    }
                    match msg {
                        ShardMsg::Events(batch) => {
                            if let Some(g) = &depth {
                                g.add(-1);
                            }
                            let produce_start = worker_tr.as_ref().map(|tr| tr.buf.now_ns());
                            let v = vp.as_mut().expect("events after finish");
                            for ev in &batch {
                                v.observe(ev);
                            }
                            if let (Some(tr), Some(spans), Some(start)) =
                                (&worker_tr, &mut hour_spans, produce_start)
                            {
                                spans[1].1 += tr.buf.now_ns().saturating_sub(start);
                            }
                        }
                        ShardMsg::EndOfHour(hour) => {
                            if let (Some(tr), Some(spans)) = (&worker_tr, &mut hour_spans) {
                                tr.buf.complete_back_to_back(tr.buf.now_ns(), spans);
                            }
                            let v = vp.as_mut().expect("hours after finish");
                            let export_start = worker_tr.as_ref().map(|tr| tr.buf.now_ns());
                            v.end_of_hour(hour);
                            if let (Some(tr), Some(start)) = (&worker_tr, export_start) {
                                tr.span_since(tr.export, start);
                            }
                            let drain_start = worker_tr.as_ref().map(|tr| tr.buf.now_ns());
                            v.drain_records_into(&mut sink);
                            sink.checkpoint();
                            if let (Some(tr), Some(start)) = (&worker_tr, drain_start) {
                                tr.span_since(tr.drain, start);
                            }
                            if let Some(g) = &hours_gauge {
                                g.set(i64::from(hour) + 1);
                            }
                            if let Some(p) = &worker_progress {
                                p.hour_done(hour);
                            }
                        }
                        ShardMsg::Finish(hour) => {
                            if let (Some(tr), Some(spans)) = (&worker_tr, &mut hour_spans) {
                                tr.buf.complete_back_to_back(tr.buf.now_ns(), spans);
                            }
                            let v = vp.take().expect("exactly one finish");
                            let finish_start = worker_tr.as_ref().map(|tr| tr.buf.now_ns());
                            stats = v.finish_into(hour, &mut sink);
                            sink.checkpoint();
                            sink.finish();
                            if let (Some(tr), Some(start)) = (&worker_tr, finish_start) {
                                tr.span_since(tr.finish, start);
                            }
                            break;
                        }
                    }
                }
                (sink, stats)
            }));
        }

        for hour in 0..hours {
            let produce_start = generator_tr.as_ref().map(|tr| tr.buf.now_ns());
            model.generate_hour(hour, &mut |ev| {
                feeds[owner_of_router[router_for(ev, plan_prefix_len, total_routers)]].push(ev);
            });
            if let (Some(tr), Some(start)) = (&generator_tr, produce_start) {
                tr.span_since(tr.produce, start);
            }
            for feed in &mut feeds {
                feed.end_hour(ShardMsg::EndOfHour(hour));
            }
            // Generator-side view over two or more shards: this hour's
            // events are fully fed (workers may still be draining their
            // channels). One shard's worker took the gauges.
            if let Some(p) = &progress {
                p.hour_done(hour);
            }
        }
        for feed in &mut feeds {
            feed.end_hour(ShardMsg::Finish(hours.saturating_sub(1)));
        }
        drop(feeds);
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect::<Vec<(S, VantageRunStats)>>()
    });

    for (i, (_, stats)) in results.iter().enumerate() {
        if let Some(g) = gauge(i, "peak_resident_records") {
            g.set(stats.peak_resident_records as i64);
        }
    }
    (model.into_truth(), results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::FlowKind;
    use cwa_netflow::flow::{FlowKey, Protocol};

    fn event(client: Ipv4Addr, packets: u64, start_ms: u64) -> FlowEvent {
        FlowEvent {
            key: FlowKey {
                src_ip: Ipv4Addr::new(81, 200, 16, 1),
                dst_ip: client,
                src_port: 443,
                dst_port: 44_000,
                protocol: Protocol::Tcp,
            },
            packets,
            bytes: packets * 1000,
            sampled: packets,
            sampling_interval: 1,
            start_ms,
            duration_ms: 2_000,
            kind: FlowKind::Api,
            district: DistrictId(0),
            isp: IspId(0),
            downstream: true,
        }
    }

    /// An unsampled (1:1) vantage point.
    fn vp() -> VantagePoint {
        VantagePoint::new(
            VantageConfig {
                sampling_interval: 1,
                ..VantageConfig::default()
            },
            vec![
                (Ipv4Addr::new(81, 200, 16, 0), 22),
                (Ipv4Addr::new(185, 139, 96, 0), 22),
            ],
            22,
        )
    }

    #[test]
    fn unsampled_flow_is_recorded_and_anonymized() {
        let mut v = vp();
        let client = Ipv4Addr::new(84, 10, 0, 5);
        v.observe(&event(client, 10, 1000));
        v.end_of_hour(0);
        let records = v.finish(0);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].packets, 10);
        assert_eq!(
            records[0].key.src_ip,
            Ipv4Addr::new(81, 200, 16, 1),
            "server clear"
        );
        assert_ne!(records[0].key.dst_ip, client, "client anonymized");
    }

    #[test]
    fn router_accounts_exactly_the_sampled_packets() {
        let registry = Arc::new(Registry::new());
        let mut router = Router::new(0, &VantageConfig::default());
        router.metrics = Some(RouterMetrics {
            sampled: registry.counter("sampled"),
            unsampled: registry.counter("unsampled"),
        });
        let mut ev = event(Ipv4Addr::new(84, 10, 0, 5), 15, 500);
        ev.sampled = 3;
        ev.sampling_interval = DEFAULT_SAMPLING_INTERVAL;
        router.observe(&ev);
        assert_eq!(router.stats().packets_seen, 3);
        assert_eq!(registry.counter("sampled").get(), 3);
        assert_eq!(registry.counter("unsampled").get(), 12);
    }

    #[test]
    #[should_panic(expected = "sampled at 1:1 reached router 0 sampling at 1:1000")]
    fn router_rejects_events_sampled_at_another_interval() {
        let mut router = Router::new(0, &VantageConfig::default());
        router.observe(&event(Ipv4Addr::new(84, 10, 0, 5), 15, 500));
    }

    #[test]
    fn same_prefix_same_router() {
        let e1 = event(Ipv4Addr::new(84, 10, 0, 5), 5, 0);
        let e2 = event(Ipv4Addr::new(84, 10, 0, 200), 5, 0);
        assert_eq!(router_for(&e1, 22, 4), router_for(&e2, 22, 4));
    }

    #[test]
    fn anonymization_consistent_across_hours() {
        let mut v = vp();
        let client = Ipv4Addr::new(84, 10, 0, 5);
        v.observe(&event(client, 5, 10_000));
        v.end_of_hour(0);
        v.observe(&event(client, 5, 3_700_000));
        v.end_of_hour(1);
        let records = v.finish(1);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].key.dst_ip, records[1].key.dst_ip);
    }

    #[test]
    fn side_tables_cover_plan() {
        use cwa_geo::{AddressPlan, AddressPlanConfig, GeoDb, GeoDbConfig, Germany};
        let g = Germany::build();
        let plan = AddressPlan::build(
            &g,
            AddressPlanConfig {
                persons_per_subscription: 2.0,
                prefix_capacity: 16_384,
                prefix_len: 18,
            },
        );
        let geodb = GeoDb::build(&g, &plan, GeoDbConfig::default());
        let cp = CryptoPan::new(&VantageConfig::default().anon_key);
        let (geodb_anon, isp_table) = side_tables_with(&cp, &plan, &geodb, None);
        assert_eq!(geodb_anon.len(), geodb.len());
        assert_eq!(isp_table.len(), plan.allocations().len());

        let gt_isp = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .unwrap()
            .id;
        for alloc in plan.allocations().iter().take(500) {
            let anon = cwa_geo::geodb::mask(cp.anonymize(alloc.network), 18);
            let entry = isp_table[&anon];
            assert_eq!(entry.isp, alloc.isp);
            if alloc.isp == gt_isp {
                assert_eq!(entry.router_district, Some(alloc.district));
            } else {
                assert_eq!(entry.router_district, None);
            }
        }
    }

    /// The construction `side_tables_with` replaced: every geo DB key and
    /// every allocation network through its own full 32-block walk.
    fn side_tables_two_walks(
        cp: &CryptoPan,
        plan: &AddressPlan,
        geodb: &GeoDb,
        routers: Option<&cwa_geo::RouterMap>,
    ) -> (GeoDb, HashMap<u32, IspSideEntry>) {
        let geodb_anon = geodb.rekeyed(|a| cp.anonymize(a));
        let isp_table = plan
            .allocations()
            .iter()
            .map(|alloc| {
                let anon_net = cwa_geo::geodb::mask(cp.anonymize(alloc.network), alloc.len);
                (anon_net, isp_side_entry(plan, alloc, routers))
            })
            .collect();
        (geodb_anon, isp_table)
    }

    #[test]
    fn side_tables_equal_two_walk_construction() {
        use cwa_geo::{AddressPlanConfig, GeoDbConfig, Germany, RouterMap, RouterMapConfig};
        let g = Germany::build();
        let cp = CryptoPan::new(&VantageConfig::default().anon_key);
        let test_small = AddressPlanConfig {
            persons_per_subscription: 2.0,
            prefix_capacity: 16_384,
            prefix_len: 18,
        };
        for plan_config in [AddressPlanConfig::default(), test_small] {
            let plan = AddressPlan::build(&g, plan_config);
            let geodb = GeoDb::build(&g, &plan, GeoDbConfig::default());
            let routers = RouterMap::build(&g, &plan, RouterMapConfig::default());
            for map in [Some(&routers), None] {
                let (geo, isp) = side_tables_with(&cp, &plan, &geodb, map);
                let (geo_oracle, isp_oracle) = side_tables_two_walks(&cp, &plan, &geodb, map);
                let len = plan_config.prefix_len;
                assert_eq!(geo.len(), plan.allocations().len(), "/{len}");
                assert!(geo == geo_oracle, "/{len}: geo DB differs");
                assert_eq!(isp.len(), plan.allocations().len(), "/{len}");
                assert!(isp == isp_oracle, "/{len}: ISP table differs");
            }
        }
    }

    #[test]
    fn rekeys_under_cryptopan_equal_the_hash_map_rekey() {
        use cwa_geo::{AddressPlanConfig, GeoDbConfig, GeoEntry, Germany};
        let g = Germany::build();
        let plan = AddressPlan::build(&g, AddressPlanConfig::default());
        let geodb = GeoDb::build(&g, &plan, GeoDbConfig::default());
        let cp = CryptoPan::new(&VantageConfig::default().anon_key);
        let anonymize = |a: Ipv4Addr| cp.anonymize(a);

        let copy = geodb.rekeyed(anonymize);
        let in_place = geodb.clone().into_rekeyed(anonymize);
        assert!(copy == in_place, "rekeyed and into_rekeyed differ");

        // The hash-map rekey: every key through a full walk, collected.
        let oracle: HashMap<u32, GeoEntry> = geodb
            .iter()
            .map(|(net, e)| {
                let anon = cp.anonymize(Ipv4Addr::from(net));
                (cwa_geo::geodb::mask(anon, geodb.prefix_len), *e)
            })
            .collect();
        let listed: HashMap<u32, GeoEntry> = copy.iter().map(|(net, e)| (net, *e)).collect();
        assert_eq!(copy.len(), oracle.len());
        assert!(listed == oracle, "re-keyed entries differ");
        for (&net, entry) in &oracle {
            assert_eq!(copy.lookup_prefix(net), Some(*entry));
        }
    }

    /// Under v9 loss every evicted record is either collected or counted
    /// lost: inside a dropped datagram, or inside one that arrived while
    /// its router's template was still unknown.
    #[test]
    fn lost_records_close_the_v9_count_under_template_loss() {
        let mut v = VantagePoint::new(
            VantageConfig {
                format: ExportFormat::V9,
                sampling_interval: 1,
                export_loss_rate: 0.5,
                ..VantageConfig::default()
            },
            vec![(Ipv4Addr::new(81, 200, 16, 0), 22)],
            22,
        );
        for hour in 0..6u32 {
            for i in 0..400u32 {
                let start_ms = u64::from(hour) * 3_600_000 + u64::from(i);
                v.observe(&event(Ipv4Addr::from(0x5400_0000 + (i << 10)), 3, start_ms));
            }
            v.end_of_hour(hour);
        }
        let mut records = Vec::new();
        let stats = v.finish_into(5, &mut records);
        let c = stats.cache;
        let evicted = c.expired_inactive + c.expired_active + c.expired_emergency + c.expired_flush;
        assert!(stats.dropped_datagrams > 0, "nothing dropped");
        assert!(stats.undecodable_datagrams > 0, "no template was lost");
        assert_eq!(records.len() as u64 + stats.lost_records, evicted);
    }

    #[test]
    fn long_flow_split_by_active_timeout() {
        let mut v = vp();
        let mut e = event(Ipv4Addr::new(84, 10, 0, 9), 600, 0);
        e.duration_ms = 600_000;
        v.observe(&e);
        v.end_of_hour(0);
        let records = v.finish(0);
        assert!(records.len() >= 4, "split into {} records", records.len());
        let total: u64 = records.iter().map(|r| r.packets).sum();
        assert_eq!(total, 600);
    }

    #[test]
    fn cache_stats_accumulate() {
        let mut v = vp();
        for i in 0..50u32 {
            v.observe(&event(Ipv4Addr::from(0x54000000 + i), 5, 100));
        }
        v.end_of_hour(0);
        let stats = v.cache_stats();
        assert_eq!(stats.packets_seen, 250);
    }
}
