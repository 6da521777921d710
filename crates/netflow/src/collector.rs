//! The flow collector at the measurement vantage point.
//!
//! Ingests NetFlow v5 export datagrams from (possibly several) routers,
//! optionally applies Crypto-PAn anonymization to the *client* side of
//! each record before storage — mirroring how the paper's data set was
//! handed to the researchers already anonymized — and tracks export loss
//! via per-engine sequence numbers. Each record goes from its 48 wire
//! bytes straight into the columns of the collector's resident
//! [`FlowChunk`]s, which `drain_into` hands to the sink as they are.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cwa_obs::{Counter, NameId, Registry, TraceBuf, Tracer};

use crate::anonymize::{CachedCryptoPan, CryptoPan};
use crate::flow::{in_prefix, FlowRecord};
use crate::sink::{FlowChunk, FlowSink, DEFAULT_CHUNK_CAPACITY};
use crate::v5::{self, V5Error, V5Header};

/// Observability handles for a [`Collector`] (all increments are single
/// relaxed atomics; name resolution happens once, here).
#[derive(Clone)]
pub struct CollectorMetrics {
    registry: Arc<Registry>,
    records: Arc<Counter>,
    bytes: Arc<Counter>,
    anonymized: Arc<Counter>,
    sequence_lost: Arc<Counter>,
    decode_errors: Arc<Counter>,
    cryptopan_hits: Arc<Counter>,
    cryptopan_misses: Arc<Counter>,
    cryptopan_blocks: Arc<Counter>,
    cryptopan_address_hits: Arc<Counter>,
}

impl CollectorMetrics {
    /// Resolves the collector's counters in `registry`.
    pub fn new(registry: &Arc<Registry>) -> Self {
        CollectorMetrics {
            registry: Arc::clone(registry),
            records: registry.counter("netflow.collector.records"),
            bytes: registry.counter("netflow.collector.bytes"),
            anonymized: registry.counter("netflow.collector.anonymized_addresses"),
            sequence_lost: registry.counter("netflow.collector.sequence_lost"),
            decode_errors: registry.counter("netflow.collector.decode_errors"),
            cryptopan_hits: registry.counter("netflow.collector.cryptopan_cache_hits"),
            cryptopan_misses: registry.counter("netflow.collector.cryptopan_cache_misses"),
            cryptopan_blocks: registry.counter("netflow.collector.cryptopan_blocks"),
            cryptopan_address_hits: registry.counter("netflow.collector.cryptopan_address_hits"),
        }
    }
}

/// Flight-recorder handle for a [`Collector`]: every export round (see
/// [`Collector::export_round`]) becomes one `collect.ingest` complete
/// event on the owning thread's trace buffer (names are interned once,
/// here, so the ingest path stays allocation-free). One span per round
/// rather than per datagram keeps a full-scale run inside the trace
/// ring.
pub struct CollectorTrace {
    buf: Arc<TraceBuf>,
    ingest: NameId,
}

impl CollectorTrace {
    /// Interns the collector's span names against `tracer`, recording
    /// onto `buf`.
    pub fn new(tracer: &Tracer, buf: Arc<TraceBuf>) -> Self {
        CollectorTrace {
            ingest: tracer.name("collect.ingest"),
            buf,
        }
    }
}

/// Per-engine sequence tracking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Datagrams received.
    pub packets: u64,
    /// Records received.
    pub records: u64,
    /// Records deduced lost from sequence gaps.
    pub lost_records: u64,
}

/// A collector accumulating anonymized flow records.
pub struct Collector {
    /// Anonymizer applied to client addresses (None = store raw).
    /// An address still held by its slot of a 1,024-slot memo runs no
    /// AES; any other pays its 8 host-bit AES blocks as one batch, plus one
    /// block per prefix-trie node above bit 24 the memo has not seen:
    /// 8 blocks for an address in a seen /24, 8–15 for a new /24 in a
    /// seen /16, 32 for a new /16 (see [`CachedCryptoPan`]). It holds
    /// 8 KiB of addresses and 96 bytes per /16, at most 6 MiB. A record
    /// has one client address, or two when neither end is a server
    /// prefix.
    anonymizer: Option<CachedCryptoPan>,
    /// Server-side prefixes: addresses inside are *not* anonymized
    /// (the CWA CDN prefixes are public knowledge; only clients are
    /// protected, exactly as in the paper's data set).
    server_prefixes: Vec<(Ipv4Addr, u8)>,
    /// The resident records in collection order: full chunks of
    /// `chunk_capacity` records, the last one filling.
    chunks: Vec<FlowChunk>,
    /// Drained chunks, kept for their column allocations.
    spare: Vec<FlowChunk>,
    /// Records held in `chunks`.
    resident: usize,
    engines: HashMap<u8, (Option<u32>, EngineStats)>,
    metrics: Option<CollectorMetrics>,
    trace: Option<CollectorTrace>,
    peak_resident: usize,
    /// Records per [`FlowChunk`] handed to sinks by `drain_into`.
    chunk_capacity: usize,
    /// Client addresses rewritten by the anonymizer.
    anonymized: u64,
    /// Anonymized-address, memo hit, miss, AES-block and address-hit
    /// totals already published to the metric counters.
    published: [u64; 5],
}

impl Collector {
    /// Creates a collector that stores records as-is.
    pub fn new_raw() -> Self {
        Collector {
            anonymizer: None,
            server_prefixes: Vec::new(),
            chunks: Vec::new(),
            spare: Vec::new(),
            resident: 0,
            engines: HashMap::new(),
            metrics: None,
            trace: None,
            peak_resident: 0,
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
            anonymized: 0,
            published: [0; 5],
        }
    }

    /// Creates an anonymizing collector. Addresses within
    /// `server_prefixes` are preserved verbatim; all others are
    /// Crypto-PAn anonymized.
    pub fn new_anonymizing(key: &[u8; 32], server_prefixes: Vec<(Ipv4Addr, u8)>) -> Self {
        Collector {
            anonymizer: Some(CachedCryptoPan::new(CryptoPan::new(key))),
            server_prefixes,
            ..Collector::new_raw()
        }
    }

    /// Attaches observability counters.
    pub fn set_metrics(&mut self, metrics: CollectorMetrics) {
        self.metrics = Some(metrics);
    }

    /// Sets the number of records per chunk that `drain_into` hands to
    /// sinks (default [`DEFAULT_CHUNK_CAPACITY`]). Chunk size never
    /// changes the record stream, only its batching — asserted by the
    /// chunk-size invariance tests.
    ///
    /// # Panics
    ///
    /// If records are resident: their chunks were cut at the old size.
    pub fn set_chunk_capacity(&mut self, capacity: usize) {
        assert_eq!(
            self.resident, 0,
            "set the chunk capacity before collecting records"
        );
        self.chunk_capacity = capacity.max(1);
    }

    /// Crypto-PAn memo-cache totals as `(hits, misses)` — zero for a
    /// raw collector.
    pub fn cryptopan_cache_stats(&self) -> (u64, u64) {
        self.anonymizer
            .as_ref()
            .map_or((0, 0), |cp| (cp.hits(), cp.misses))
    }

    /// Attaches flight-recorder span recording.
    pub fn set_trace(&mut self, trace: CollectorTrace) {
        self.trace = Some(trace);
    }

    /// Runs `ingest` — one router's export round, however many
    /// datagrams it delivers — as one `collect.ingest` trace span.
    pub fn export_round<T>(&mut self, ingest: impl FnOnce(&mut Collector) -> T) -> T {
        let start = self.trace.as_ref().map(|t| t.buf.now_ns());
        let out = ingest(self);
        if let (Some(t), Some(start)) = (&self.trace, start) {
            t.buf
                .complete(t.ingest, start, t.buf.now_ns().saturating_sub(start));
        }
        out
    }

    /// Counts one undecodable datagram (used by callers that decode
    /// other wire formats — e.g. NetFlow v9 — before `ingest_records`).
    pub fn note_decode_error(&self) {
        if let Some(m) = &self.metrics {
            m.decode_errors.inc();
        }
    }

    /// Ingests one encoded v5 datagram: validated as
    /// [`v5::ExportPacket::decode`] validates it, then each record parsed
    /// from its wire bytes into the resident chunks.
    pub fn ingest(&mut self, datagram: bytes::Bytes) -> Result<(), V5Error> {
        let (header, records) = match v5::split_datagram(&datagram) {
            Ok(parts) => parts,
            Err(e) => {
                self.note_decode_error();
                return Err(e);
            }
        };
        self.track_sequence(&header, records.len());
        let mut bytes = 0;
        for wire in records {
            let rec = v5::decode_record(wire);
            bytes += rec.bytes;
            self.store(rec);
        }
        self.end_datagram(records.len(), bytes);
        Ok(())
    }

    /// Ingests already-decoded records from a non-v5 exporter (e.g. a
    /// NetFlow v9 decoder). Applies the same anonymization policy;
    /// sequence-based loss tracking does not apply (v9 sequences count
    /// datagrams, which the transport layer accounts separately).
    pub fn ingest_records(&mut self, records: Vec<FlowRecord>, engine: u8) {
        let (_, stats) = self
            .engines
            .entry(engine)
            .or_insert((None, EngineStats::default()));
        stats.records += records.len() as u64;
        let (count, bytes) = (records.len(), records.iter().map(|r| r.bytes).sum());
        for rec in records {
            self.store(rec);
        }
        self.end_datagram(count, bytes);
    }

    /// Counts a v5 datagram of `count` records against its engine.
    ///
    /// Sequence accounting handles the two realities of UDP export:
    /// the 32-bit flow sequence **wraps**, and datagrams can arrive
    /// **out of order**. A forward gap (≤ half the sequence space,
    /// computed with wrapping arithmetic so it is wrap-safe) counts its
    /// records as lost; a datagram from the *past* (wrapped distance in
    /// the upper half) is a late arrival whose records were already
    /// counted lost when the gap opened, so they are reclaimed instead
    /// — `lost_records` can neither underflow nor explode.
    fn track_sequence(&mut self, header: &V5Header, count: usize) {
        let engine = header.engine_id;
        let (last_seq, stats) = self
            .engines
            .entry(engine)
            .or_insert((None, EngineStats::default()));
        stats.packets += 1;
        stats.records += count as u64;
        let seq = header.flow_sequence;
        let advance = count as u32;
        match *last_seq {
            None => *last_seq = Some(seq.wrapping_add(advance)),
            Some(expected) => {
                let gap = seq.wrapping_sub(expected);
                if gap == 0 {
                    *last_seq = Some(seq.wrapping_add(advance));
                } else if gap <= u32::MAX / 2 {
                    stats.lost_records += u64::from(gap);
                    if let Some(m) = &self.metrics {
                        m.sequence_lost.add(u64::from(gap));
                        m.registry
                            .counter(&format!("netflow.collector.engine{engine:02}.lost_records"))
                            .add(u64::from(gap));
                    }
                    *last_seq = Some(seq.wrapping_add(advance));
                } else {
                    // Late/reordered datagram: reclaim its records from
                    // the loss count, keep the sequence high-water mark.
                    stats.lost_records = stats.lost_records.saturating_sub(u64::from(advance));
                }
            }
        }
    }

    /// Anonymizes `rec` per the policy and appends it to the resident
    /// chunks, starting a new chunk when the last one is full.
    fn store(&mut self, mut rec: FlowRecord) {
        if let Some(cp) = &mut self.anonymizer {
            let server = |addr| {
                self.server_prefixes
                    .iter()
                    .any(|&(p, l)| in_prefix(addr, p, l))
            };
            if !server(rec.key.src_ip) {
                rec.key.src_ip = cp.anonymize(rec.key.src_ip);
                self.anonymized += 1;
            }
            if !server(rec.key.dst_ip) {
                rec.key.dst_ip = cp.anonymize(rec.key.dst_ip);
                self.anonymized += 1;
            }
        }
        let cap = self.chunk_capacity;
        if self.chunks.last().is_none_or(|c| c.len() >= cap) {
            let chunk = self
                .spare
                .pop()
                .unwrap_or_else(|| FlowChunk::with_capacity(cap.min(DEFAULT_CHUNK_CAPACITY)));
            self.chunks.push(chunk);
        }
        self.chunks
            .last_mut()
            .expect("a chunk with room was just ensured")
            .push(&rec);
        self.resident += 1;
    }

    /// Books one stored datagram of `count` records and `bytes` bytes:
    /// the record and byte counters, the residency high-water mark, and
    /// the anonymized addresses and the memo's growth since the last
    /// datagram.
    fn end_datagram(&mut self, count: usize, bytes: u64) {
        self.peak_resident = self.peak_resident.max(self.resident);
        let Some(m) = &self.metrics else { return };
        m.records.add(count as u64);
        m.bytes.add(bytes);
        let Some(cp) = &self.anonymizer else { return };
        let totals = [
            self.anonymized,
            cp.hits(),
            cp.misses,
            cp.blocks,
            cp.address_hits(),
        ];
        let [anonymized, hits, misses, blocks, address_hits] = self.published;
        m.anonymized.add(totals[0] - anonymized);
        m.cryptopan_hits.add(totals[1] - hits);
        m.cryptopan_misses.add(totals[2] - misses);
        m.cryptopan_blocks.add(totals[3] - blocks);
        m.cryptopan_address_hits.add(totals[4] - address_hits);
        self.published = totals;
    }

    /// A copy of every resident record, in collection order.
    pub fn records(&self) -> Vec<FlowRecord> {
        self.chunks.iter().flat_map(FlowChunk::iter).collect()
    }

    /// Streams every resident record into `sink` (in collection order)
    /// as the columnar [`FlowChunk`]s of at most `chunk_capacity`
    /// records they were parsed into, then empties the collector,
    /// keeping the chunks for reuse. This is the batched emission
    /// primitive: draining after every export round bounds the
    /// collector's resident set to one export round, and the chunking
    /// amortizes the sink's dyn dispatch to one call per chunk.
    pub fn drain_into(&mut self, sink: &mut dyn FlowSink) {
        for mut chunk in self.chunks.drain(..) {
            sink.observe_chunk(&chunk);
            chunk.clear();
            self.spare.push(chunk);
        }
        self.resident = 0;
    }

    /// High-water mark of records resident in the collector at once.
    /// Under chunked draining this is one export round; under batch
    /// collection it equals the total record count.
    pub fn peak_resident_records(&self) -> usize {
        self.peak_resident
    }

    /// Per-engine statistics.
    pub fn engine_stats(&self, engine: u8) -> Option<EngineStats> {
        self.engines.get(&engine).map(|(_, s)| *s)
    }

    /// Total records deduced lost across all engines.
    pub fn total_lost(&self) -> u64 {
        self.engines.values().map(|(_, s)| s.lost_records).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowKey;
    use crate::v5::{packetize, ExportPacket, V5Header};

    fn record(client: Ipv4Addr) -> FlowRecord {
        FlowRecord {
            key: FlowKey::tcp(Ipv4Addr::new(81, 200, 16, 1), 443, client, 50_000),
            packets: 2,
            bytes: 2800,
            first_ms: 0,
            last_ms: 100,
            tcp_flags: 0x10,
        }
    }

    const SERVER_PREFIX: (Ipv4Addr, u8) = (Ipv4Addr::new(81, 200, 16, 0), 22);

    #[test]
    fn raw_collection_roundtrip() {
        let recs: Vec<FlowRecord> = (1..=5u8)
            .map(|i| record(Ipv4Addr::new(10, 0, 0, i)))
            .collect();
        let (pkts, _) = packetize(&recs, 1, 1000, 0, 0);
        let mut col = Collector::new_raw();
        for p in pkts {
            col.ingest(p.encode()).unwrap();
        }
        assert_eq!(col.records(), &recs[..]);
        assert_eq!(col.total_lost(), 0);
    }

    #[test]
    fn anonymizes_clients_not_servers() {
        let client = Ipv4Addr::new(93, 10, 20, 30);
        let recs = vec![record(client)];
        let (pkts, _) = packetize(&recs, 1, 1000, 0, 0);
        let mut col = Collector::new_anonymizing(&[9u8; 32], vec![SERVER_PREFIX]);
        for p in pkts {
            col.ingest(p.encode()).unwrap();
        }
        let stored = &col.records()[0];
        assert_eq!(
            stored.key.src_ip,
            Ipv4Addr::new(81, 200, 16, 1),
            "server kept"
        );
        assert_ne!(stored.key.dst_ip, client, "client anonymized");
    }

    #[test]
    fn anonymization_is_consistent_across_packets() {
        let client = Ipv4Addr::new(93, 10, 20, 30);
        let recs = vec![record(client), record(client)];
        let (pkts, _) = packetize(&recs, 1, 1000, 0, 0);
        let mut col = Collector::new_anonymizing(&[9u8; 32], vec![SERVER_PREFIX]);
        for p in pkts {
            col.ingest(p.encode()).unwrap();
        }
        assert_eq!(col.records()[0].key.dst_ip, col.records()[1].key.dst_ip);
    }

    #[test]
    fn sequence_gap_detection() {
        let recs: Vec<FlowRecord> = (1..=60u8)
            .map(|i| record(Ipv4Addr::new(10, 0, 0, i)))
            .collect();
        let (pkts, _) = packetize(&recs, 7, 1000, 0, 0);
        assert_eq!(pkts.len(), 2);
        let mut col = Collector::new_raw();
        // Drop the first datagram: 30 records lost.
        col.ingest(pkts[1].encode()).unwrap();
        // Need a successor to detect the gap? No: gap vs expected=none.
        // Feed a third synthetic packet continuing the sequence.
        let (more, _) = packetize(&recs[..5], 7, 1000, 0, 60);
        col.ingest(more[0].encode()).unwrap();
        assert_eq!(col.total_lost(), 0, "no gap between consecutive packets");

        // Now an actual gap: sequence jumps by 10.
        let gap_pkt = ExportPacket {
            header: V5Header {
                sys_uptime_ms: 0,
                unix_secs: 0,
                unix_nsecs: 0,
                flow_sequence: 75, // expected 65
                engine_type: 0,
                engine_id: 7,
                sampling: 0,
            },
            records: vec![record(Ipv4Addr::new(10, 9, 9, 9))],
        };
        col.ingest(gap_pkt.encode()).unwrap();
        assert_eq!(col.total_lost(), 10);
    }

    /// Builds a packet with an explicit sequence number and record count.
    fn seq_pkt(engine: u8, flow_sequence: u32, n_records: u8) -> ExportPacket {
        ExportPacket {
            header: V5Header {
                sys_uptime_ms: 0,
                unix_secs: 0,
                unix_nsecs: 0,
                flow_sequence,
                engine_type: 0,
                engine_id: engine,
                sampling: 0,
            },
            records: (1..=n_records)
                .map(|i| record(Ipv4Addr::new(10, 1, 0, i)))
                .collect(),
        }
    }

    #[test]
    fn sequence_wraparound_is_not_loss() {
        let mut col = Collector::new_raw();
        // 3 records ending exactly at the u32 boundary: next expected
        // wraps to 0, then to 2.
        col.ingest(seq_pkt(3, u32::MAX - 2, 3).encode()).unwrap();
        col.ingest(seq_pkt(3, 0, 2).encode()).unwrap();
        col.ingest(seq_pkt(3, 2, 1).encode()).unwrap();
        assert_eq!(col.total_lost(), 0, "clean wrap must not count loss");

        // A real gap of 4 records straddling nothing special.
        col.ingest(seq_pkt(3, 7, 1).encode()).unwrap();
        assert_eq!(col.total_lost(), 4, "post-wrap gaps still detected");
    }

    #[test]
    fn sequence_gap_across_wrap_detected() {
        let mut col = Collector::new_raw();
        col.ingest(seq_pkt(4, u32::MAX - 9, 5).encode()).unwrap(); // next expected: MAX-4
        col.ingest(seq_pkt(4, 1, 2).encode()).unwrap(); // wrapped gap of 6
        assert_eq!(col.total_lost(), 6);
    }

    #[test]
    fn out_of_order_datagram_does_not_explode_loss() {
        let mut col = Collector::new_raw();
        // Seq 100 carries 30 records, so seq 130 is expected next; it is
        // delayed and seq 160 arrives first.
        col.ingest(seq_pkt(5, 100, 30).encode()).unwrap();
        col.ingest(seq_pkt(5, 160, 10).encode()).unwrap(); // gap of 30 counted lost
        assert_eq!(col.total_lost(), 30);
        // The late datagram finally arrives: its 30 records are
        // reclaimed, not treated as a ~u32::MAX forward gap.
        col.ingest(seq_pkt(5, 130, 30).encode()).unwrap();
        assert_eq!(col.total_lost(), 0, "late arrival reclaims counted loss");
        // Sequence tracking still anchored at the high-water mark.
        col.ingest(seq_pkt(5, 170, 1).encode()).unwrap();
        assert_eq!(col.total_lost(), 0);
    }

    #[test]
    fn duplicate_datagram_cannot_underflow_loss() {
        let mut col = Collector::new_raw();
        col.ingest(seq_pkt(6, 10, 5).encode()).unwrap(); // next expected: 15
        col.ingest(seq_pkt(6, 10, 5).encode()).unwrap(); // exact duplicate (from the past)
        col.ingest(seq_pkt(6, 10, 5).encode()).unwrap();
        assert_eq!(col.total_lost(), 0, "saturating reclaim, no underflow");
        col.ingest(seq_pkt(6, 15, 1).encode()).unwrap();
        assert_eq!(col.total_lost(), 0, "tracking recovers after duplicates");
    }

    #[test]
    fn metrics_count_records_loss_and_anonymization() {
        use std::sync::Arc;
        let registry = Arc::new(Registry::new());
        let mut col = Collector::new_anonymizing(&[9u8; 32], vec![SERVER_PREFIX]);
        col.set_metrics(CollectorMetrics::new(&registry));
        col.ingest(seq_pkt(7, 0, 5).encode()).unwrap(); // next expected: 5
        col.ingest(seq_pkt(7, 8, 2).encode()).unwrap(); // gap of 3
        assert_eq!(registry.counter("netflow.collector.records").get(), 7);
        assert_eq!(
            registry.counter("netflow.collector.bytes").get(),
            7 * 2800,
            "every ingested record's bytes are accounted"
        );
        assert_eq!(registry.counter("netflow.collector.sequence_lost").get(), 3);
        assert_eq!(
            registry
                .counter("netflow.collector.engine07.lost_records")
                .get(),
            3
        );
        // One client address anonymized per record (servers exempt).
        assert_eq!(
            registry
                .counter("netflow.collector.anonymized_addresses")
                .get(),
            7
        );
        assert_eq!(registry.counter("netflow.collector.decode_errors").get(), 0);
    }

    #[test]
    fn trace_records_one_ingest_span_per_export_round() {
        let tracer = Tracer::new();
        let buf = tracer.thread(0, 0, "collector");
        let mut col = Collector::new_raw();
        col.set_trace(CollectorTrace::new(&tracer, Arc::clone(&buf)));
        col.export_round(|c| {
            c.ingest(seq_pkt(1, 0, 3).encode()).unwrap();
            c.ingest(seq_pkt(1, 3, 2).encode()).unwrap();
        });
        col.export_round(|c| c.ingest(seq_pkt(1, 5, 4).encode()).unwrap());
        // A datagram outside a round records no span.
        col.ingest(seq_pkt(1, 9, 1).encode()).unwrap();
        let json = tracer.to_chrome_json();
        assert_eq!(json.matches("\"collect.ingest\"").count(), 2);
        // Tracing is observation-only: the records are unaffected.
        assert_eq!(col.records().len(), 10);
    }

    #[test]
    fn engines_tracked_separately() {
        let recs = vec![record(Ipv4Addr::new(10, 0, 0, 1))];
        let (p1, _) = packetize(&recs, 1, 1000, 0, 0);
        let (p2, _) = packetize(&recs, 2, 1000, 0, 0);
        let mut col = Collector::new_raw();
        col.ingest(p1[0].encode()).unwrap();
        col.ingest(p2[0].encode()).unwrap();
        assert_eq!(col.engine_stats(1).unwrap().records, 1);
        assert_eq!(col.engine_stats(2).unwrap().records, 1);
        assert!(col.engine_stats(3).is_none());
    }

    #[test]
    fn drain_into_preserves_order_and_bounds_residency() {
        let recs: Vec<FlowRecord> = (1..=60u8)
            .map(|i| record(Ipv4Addr::new(10, 0, 0, i)))
            .collect();
        let (pkts, _) = packetize(&recs, 1, 1000, 0, 0);
        assert!(pkts.len() >= 2, "need several chunks");

        // Drained after every packet: peak residency is one packet's
        // worth of records, and the drained stream equals the batch.
        let mut drained: Vec<FlowRecord> = Vec::new();
        let mut col = Collector::new_raw();
        for p in &pkts {
            col.ingest(p.encode()).unwrap();
            col.drain_into(&mut drained);
        }
        assert_eq!(drained, recs);
        assert!(col.records().is_empty());
        assert!(col.peak_resident_records() < recs.len());

        // Batch collection: peak residency equals the total.
        let mut batch = Collector::new_raw();
        for p in &pkts {
            batch.ingest(p.encode()).unwrap();
        }
        assert_eq!(batch.peak_resident_records(), recs.len());
    }

    #[test]
    fn cache_counters_published_and_stream_unchanged() {
        use std::sync::Arc;
        let registry = Arc::new(Registry::new());
        // Two records per client address, all ten in one /24: every
        // lookup after the first is a /24 hit.
        let clients: Vec<Ipv4Addr> = (1..=10u8).map(|i| Ipv4Addr::new(93, 10, 20, i)).collect();
        let recs: Vec<FlowRecord> = clients
            .iter()
            .chain(clients.iter())
            .map(|&c| record(c))
            .collect();
        let (pkts, _) = packetize(&recs, 1, 1000, 0, 0);
        let mut col = Collector::new_anonymizing(&[9u8; 32], vec![SERVER_PREFIX]);
        col.set_metrics(CollectorMetrics::new(&registry));
        for p in &pkts {
            col.ingest(p.encode()).unwrap();
        }
        let (hits, misses) = col.cryptopan_cache_stats();
        assert_eq!(hits, 19, "every later lookup hits");
        // All clients share a /24, so only the very first address walks
        // the memo's levels (a miss: 32 blocks on a cold /16).
        assert_eq!(misses, 1, "one cold /24");
        assert_eq!(
            registry
                .counter("netflow.collector.cryptopan_cache_hits")
                .get(),
            hits
        );
        assert_eq!(
            registry
                .counter("netflow.collector.cryptopan_cache_misses")
                .get(),
            misses
        );
        // 32 blocks for the first lookup, then the 8 host bits for each
        // of the other 9; the second pass is served from the address
        // slots, without AES.
        assert_eq!(
            registry.counter("netflow.collector.cryptopan_blocks").get(),
            32 + 9 * 8
        );
        assert_eq!(
            registry
                .counter("netflow.collector.cryptopan_address_hits")
                .get(),
            10
        );
        // Caching is invisible in the record stream: same outputs as an
        // identically keyed uncached walk.
        let cp = CryptoPan::new(&[9u8; 32]);
        for (stored, orig) in col.records().iter().zip(&recs) {
            assert_eq!(stored.key.dst_ip, cp.anonymize(orig.key.dst_ip));
        }
    }

    #[test]
    fn drain_chunk_capacity_invariant() {
        let recs: Vec<FlowRecord> = (1..=60u8)
            .map(|i| record(Ipv4Addr::new(10, 0, 0, i)))
            .collect();
        let (pkts, _) = packetize(&recs, 1, 1000, 0, 0);
        for cap in [1usize, 7, 4096] {
            let mut col = Collector::new_raw();
            col.set_chunk_capacity(cap);
            let mut drained: Vec<FlowRecord> = Vec::new();
            for p in &pkts {
                col.ingest(p.encode()).unwrap();
            }
            col.drain_into(&mut drained);
            assert_eq!(drained, recs, "chunk capacity {cap}");
        }
    }

    #[test]
    fn prefix_relationship_survives_anonymization() {
        // Two clients in the same /24 must stay in a shared /24.
        let c1 = Ipv4Addr::new(93, 10, 20, 1);
        let c2 = Ipv4Addr::new(93, 10, 20, 200);
        let recs = vec![record(c1), record(c2)];
        let (pkts, _) = packetize(&recs, 1, 1000, 0, 0);
        let mut col = Collector::new_anonymizing(&[5u8; 32], vec![SERVER_PREFIX]);
        for p in pkts {
            col.ingest(p.encode()).unwrap();
        }
        let a1 = u32::from(col.records()[0].key.dst_ip);
        let a2 = u32::from(col.records()[1].key.dst_ip);
        assert_eq!(a1 >> 8, a2 >> 8);
    }
}
