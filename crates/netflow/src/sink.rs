//! Streaming record consumers.
//!
//! The paper's vantage point never holds the full study's flow set in
//! memory — NetFlow is a *stream* of export records, and every analysis
//! in §2–§4 (hourly series, geolocation, persistence, outbreak windows)
//! is incrementally computable. [`FlowSink`] is the contract that lets
//! producers (the collector, the simulated vantage point) hand records
//! to consumers chunk by chunk, so resident memory stays O(chunk)
//! instead of O(total records).
//!
//! The primary contract is [`observe_chunk`](FlowSink::observe_chunk):
//! producers pack records into a columnar [`FlowChunk`]
//! (struct-of-arrays) and hand whole chunks across the dyn boundary, so
//! the per-record virtual call and the per-record filter evaluation both
//! amortize to one call per ~[`DEFAULT_CHUNK_CAPACITY`] records. Sinks
//! that only care about single records implement
//! [`observe`](FlowSink::observe) and inherit the default chunk shim.

use std::net::Ipv4Addr;

use crate::flow::{FlowKey, FlowRecord, Protocol};

/// Default number of records per [`FlowChunk`] on the hot path: large
/// enough to amortize dispatch, small enough to stay cache-resident
/// (~4096 × ~40 B of columns ≈ 160 KiB).
pub const DEFAULT_CHUNK_CAPACITY: usize = 4096;

/// A columnar batch of flow records (struct-of-arrays).
///
/// Each field of [`FlowRecord`] lives in its own parallel array, so
/// column-wise passes (the §2 filter, Crypto-PAn rewrites, per-hour
/// binning) touch only the bytes they need. IP addresses are stored as
/// big-endian-interpreted `u32`s (`u32::from(Ipv4Addr)`), protocols as
/// their IANA numbers.
#[derive(Debug, Clone, Default)]
pub struct FlowChunk {
    /// Source addresses, as `u32::from(src_ip)`.
    pub src_ip: Vec<u32>,
    /// Destination addresses, as `u32::from(dst_ip)`.
    pub dst_ip: Vec<u32>,
    /// Source ports.
    pub src_port: Vec<u16>,
    /// Destination ports.
    pub dst_port: Vec<u16>,
    /// IANA protocol numbers (6 = TCP, 17 = UDP, 1 = ICMP).
    pub protocol: Vec<u8>,
    /// Packet counts.
    pub packets: Vec<u64>,
    /// Byte counts.
    pub bytes: Vec<u64>,
    /// Flow start, ms since study start.
    pub first_ms: Vec<u64>,
    /// Flow end, ms since study start.
    pub last_ms: Vec<u64>,
    /// Cumulative TCP flags.
    pub tcp_flags: Vec<u8>,
}

impl FlowChunk {
    /// Creates an empty chunk with every column pre-sized to `capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        FlowChunk {
            src_ip: Vec::with_capacity(capacity),
            dst_ip: Vec::with_capacity(capacity),
            src_port: Vec::with_capacity(capacity),
            dst_port: Vec::with_capacity(capacity),
            protocol: Vec::with_capacity(capacity),
            packets: Vec::with_capacity(capacity),
            bytes: Vec::with_capacity(capacity),
            first_ms: Vec::with_capacity(capacity),
            last_ms: Vec::with_capacity(capacity),
            tcp_flags: Vec::with_capacity(capacity),
        }
    }

    /// Number of records in the chunk.
    pub fn len(&self) -> usize {
        self.src_ip.len()
    }

    /// Whether the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.src_ip.is_empty()
    }

    /// Empties every column, keeping the allocations.
    pub fn clear(&mut self) {
        self.src_ip.clear();
        self.dst_ip.clear();
        self.src_port.clear();
        self.dst_port.clear();
        self.protocol.clear();
        self.packets.clear();
        self.bytes.clear();
        self.first_ms.clear();
        self.last_ms.clear();
        self.tcp_flags.clear();
    }

    /// Appends one record, decomposed into the columns.
    pub fn push(&mut self, rec: &FlowRecord) {
        self.src_ip.push(u32::from(rec.key.src_ip));
        self.dst_ip.push(u32::from(rec.key.dst_ip));
        self.src_port.push(rec.key.src_port);
        self.dst_port.push(rec.key.dst_port);
        self.protocol.push(rec.key.protocol.number());
        self.packets.push(rec.packets);
        self.bytes.push(rec.bytes);
        self.first_ms.push(rec.first_ms);
        self.last_ms.push(rec.last_ms);
        self.tcp_flags.push(rec.tcp_flags);
    }

    /// Copies row `i` of `other` onto the end of `self` (the columnar
    /// "gather" used by selection filters).
    pub fn push_row_from(&mut self, other: &FlowChunk, i: usize) {
        self.src_ip.push(other.src_ip[i]);
        self.dst_ip.push(other.dst_ip[i]);
        self.src_port.push(other.src_port[i]);
        self.dst_port.push(other.dst_port[i]);
        self.protocol.push(other.protocol[i]);
        self.packets.push(other.packets[i]);
        self.bytes.push(other.bytes[i]);
        self.first_ms.push(other.first_ms[i]);
        self.last_ms.push(other.last_ms[i]);
        self.tcp_flags.push(other.tcp_flags[i]);
    }

    /// Reassembles row `i` as a [`FlowRecord`].
    ///
    /// Panics if `i >= len()`; unknown protocol numbers (impossible for
    /// chunks built via [`push`](FlowChunk::push)) fall back to TCP.
    pub fn get(&self, i: usize) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::from(self.src_ip[i]),
                dst_ip: Ipv4Addr::from(self.dst_ip[i]),
                src_port: self.src_port[i],
                dst_port: self.dst_port[i],
                protocol: Protocol::from_number(self.protocol[i]).unwrap_or(Protocol::Tcp),
            },
            packets: self.packets[i],
            bytes: self.bytes[i],
            first_ms: self.first_ms[i],
            last_ms: self.last_ms[i],
            tcp_flags: self.tcp_flags[i],
        }
    }

    /// Iterates the chunk's rows as reassembled [`FlowRecord`]s.
    pub fn iter(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// A consumer of a stream of flow records.
///
/// Producers call [`observe_chunk`](FlowSink::observe_chunk) with
/// columnar batches, in collection order, and
/// [`finish`](FlowSink::finish) exactly once after the last record.
/// Implementations must not assume they see the whole stream at once —
/// that is the point.
pub trait FlowSink {
    /// Consumes one record. The record is borrowed; copy it only if it
    /// must outlive the call.
    fn observe(&mut self, rec: &FlowRecord);

    /// Consumes a columnar batch of records — the hot-path entry point.
    /// Default: loops [`observe`](FlowSink::observe) over the rows, so
    /// single-record sinks work unchanged. Chunk-aware sinks override
    /// this with a column-wise pass.
    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        for i in 0..chunk.len() {
            self.observe(&chunk.get(i));
        }
    }

    /// Signals the end of the stream. Default: no-op.
    fn finish(&mut self) {}

    /// Marks a producer-defined stream checkpoint (the simulated
    /// vantage point calls this at every export-hour boundary).
    /// Observation-only consumers use it to flush coalesced bookkeeping
    /// — e.g. trace spans — at a bounded cadence; it carries no stream
    /// data and the default is a no-op.
    fn checkpoint(&mut self) {}
}

/// A borrowed sink is a sink, so a producer that takes its sinks by value
/// (and hands them to worker threads) can run one its caller keeps.
impl<S: FlowSink + ?Sized> FlowSink for &mut S {
    fn observe(&mut self, rec: &FlowRecord) {
        (**self).observe(rec);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        (**self).observe_chunk(chunk);
    }

    fn finish(&mut self) {
        (**self).finish();
    }

    fn checkpoint(&mut self) {
        (**self).checkpoint();
    }
}

/// The trivial batching sink: collects every record into a `Vec`. This
/// is how the streaming producers provide the legacy batch API.
impl FlowSink for Vec<FlowRecord> {
    fn observe(&mut self, rec: &FlowRecord) {
        self.push(*rec);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        self.extend(chunk.iter());
    }
}

/// A sink that only counts records — useful for memory-footprint
/// assertions and smoke tests where the records themselves are not
/// needed.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    /// Records observed so far.
    pub records: u64,
    /// Whether `finish` has been called.
    pub finished: bool,
}

impl FlowSink for CountingSink {
    fn observe(&mut self, _rec: &FlowRecord) {
        self.records += 1;
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        self.records += chunk.len() as u64;
    }

    fn finish(&mut self) {
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowKey, Protocol};
    use std::net::Ipv4Addr;

    fn rec(i: u8) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(81, 200, 16, 1),
                dst_ip: Ipv4Addr::new(84, 0, 0, i),
                src_port: 443,
                dst_port: 50_000,
                protocol: Protocol::Tcp,
            },
            packets: 1,
            bytes: 100,
            first_ms: 0,
            last_ms: 10,
            tcp_flags: 0x18,
        }
    }

    fn chunk_of(n: u8) -> FlowChunk {
        let mut c = FlowChunk::with_capacity(n as usize);
        for i in 0..n {
            c.push(&rec(i));
        }
        c
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink: Vec<FlowRecord> = Vec::new();
        for i in 0..5 {
            sink.observe(&rec(i));
        }
        sink.finish();
        assert_eq!(sink.len(), 5);
        assert_eq!(sink[3], rec(3));
    }

    #[test]
    fn counting_sink_counts_and_finishes() {
        let mut sink = CountingSink::default();
        sink.observe(&rec(0));
        sink.observe(&rec(1));
        assert_eq!(sink.records, 2);
        assert!(!sink.finished);
        sink.finish();
        assert!(sink.finished);
    }

    #[test]
    fn trait_is_object_safe() {
        let mut v: Vec<FlowRecord> = Vec::new();
        let sink: &mut dyn FlowSink = &mut v;
        sink.observe(&rec(9));
        sink.observe_chunk(&chunk_of(3));
        sink.finish();
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn chunk_roundtrips_records() {
        let c = chunk_of(7);
        assert_eq!(c.len(), 7);
        assert!(!c.is_empty());
        for i in 0..7 {
            assert_eq!(c.get(i), rec(i as u8), "row {i}");
        }
        let back: Vec<FlowRecord> = c.iter().collect();
        assert_eq!(back, (0..7).map(rec).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_push_row_from_gathers() {
        let c = chunk_of(5);
        let mut sel = FlowChunk::with_capacity(2);
        sel.push_row_from(&c, 1);
        sel.push_row_from(&c, 4);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel.get(0), rec(1));
        assert_eq!(sel.get(1), rec(4));
        sel.clear();
        assert!(sel.is_empty());
    }

    #[test]
    fn chunk_sinks_match_per_record_paths() {
        let c = chunk_of(6);

        // Vec fast path == per-record shim.
        let mut fast: Vec<FlowRecord> = Vec::new();
        fast.observe_chunk(&c);
        let mut slow: Vec<FlowRecord> = Vec::new();
        for i in 0..c.len() {
            slow.observe(&c.get(i));
        }
        assert_eq!(fast, slow);

        // CountingSink fast path.
        let mut count = CountingSink::default();
        count.observe_chunk(&c);
        assert_eq!(count.records, 6);
    }
}
