//! NetFlow version 5 export wire format.
//!
//! The classic fixed-layout export datagram: a 24-byte header followed by
//! up to 30 records of 48 bytes each. Field layout follows Cisco's
//! NetFlow v5 documentation. The router exports expired cache entries in
//! these datagrams to the collector; sequence numbers allow the collector
//! to detect export loss.

use std::net::Ipv4Addr;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::flow::{FlowKey, FlowRecord, Protocol};

/// Maximum records per v5 datagram.
pub const MAX_RECORDS_PER_PACKET: usize = 30;
/// Header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Record size in bytes.
pub const RECORD_LEN: usize = 48;

/// Decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum V5Error {
    /// Datagram shorter than a header.
    TooShort,
    /// Version field was not 5.
    BadVersion(u16),
    /// Header count disagrees with datagram length.
    CountMismatch {
        /// records promised by the header
        promised: u16,
        /// records actually present
        actual: usize,
    },
    /// Record count exceeds the protocol maximum.
    TooManyRecords(u16),
}

impl std::fmt::Display for V5Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            V5Error::TooShort => write!(f, "datagram shorter than v5 header"),
            V5Error::BadVersion(v) => write!(f, "expected version 5, got {v}"),
            V5Error::CountMismatch { promised, actual } => {
                write!(
                    f,
                    "header promises {promised} records, datagram holds {actual}"
                )
            }
            V5Error::TooManyRecords(n) => write!(f, "{n} records exceeds v5 maximum of 30"),
        }
    }
}

impl std::error::Error for V5Error {}

/// The v5 datagram header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V5Header {
    /// Milliseconds since router boot.
    pub sys_uptime_ms: u32,
    /// Export wall-clock, seconds.
    pub unix_secs: u32,
    /// Export wall-clock, residual nanoseconds.
    pub unix_nsecs: u32,
    /// Total flows exported by this device before this datagram.
    pub flow_sequence: u32,
    /// Engine type (0 for our simulated routers).
    pub engine_type: u8,
    /// Engine/slot id (we use it as a router id).
    pub engine_id: u8,
    /// Two sampling-mode bits and a 14-bit sampling interval.
    pub sampling: u16,
}

impl V5Header {
    /// Builds the `sampling` field from mode bits and interval.
    pub fn sampling_field(mode: u8, interval: u16) -> u16 {
        (u16::from(mode & 0x3) << 14) | (interval & 0x3fff)
    }

    /// The 14-bit sampling interval.
    pub fn sampling_interval(&self) -> u16 {
        self.sampling & 0x3fff
    }
}

/// A full v5 export datagram.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportPacket {
    /// Datagram header.
    pub header: V5Header,
    /// The flow records (≤ 30).
    pub records: Vec<FlowRecord>,
}

impl ExportPacket {
    /// Encodes to the wire format.
    ///
    /// Record timestamps (`first_ms`/`last_ms`, absolute simulation time)
    /// are emitted relative to `header.sys_uptime_ms` exactly as a router
    /// reports `First`/`Last` in SysUptime terms (wrapping arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if more than 30 records are supplied.
    pub fn encode(&self) -> Bytes {
        assert!(
            self.records.len() <= MAX_RECORDS_PER_PACKET,
            "v5 datagrams carry at most 30 records"
        );
        let mut buf = BytesMut::with_capacity(HEADER_LEN + RECORD_LEN * self.records.len());
        buf.put_u16(5);
        buf.put_u16(self.records.len() as u16);
        buf.put_u32(self.header.sys_uptime_ms);
        buf.put_u32(self.header.unix_secs);
        buf.put_u32(self.header.unix_nsecs);
        buf.put_u32(self.header.flow_sequence);
        buf.put_u8(self.header.engine_type);
        buf.put_u8(self.header.engine_id);
        buf.put_u16(self.header.sampling);

        for rec in &self.records {
            buf.put_slice(&encode_record(rec));
        }
        buf.freeze()
    }

    /// Decodes a datagram.
    pub fn decode(mut data: Bytes) -> Result<Self, V5Error> {
        if data.len() < HEADER_LEN {
            return Err(V5Error::TooShort);
        }
        let version = data.get_u16();
        if version != 5 {
            return Err(V5Error::BadVersion(version));
        }
        let count = data.get_u16();
        if usize::from(count) > MAX_RECORDS_PER_PACKET {
            return Err(V5Error::TooManyRecords(count));
        }
        let header = V5Header {
            sys_uptime_ms: data.get_u32(),
            unix_secs: data.get_u32(),
            unix_nsecs: data.get_u32(),
            flow_sequence: data.get_u32(),
            engine_type: data.get_u8(),
            engine_id: data.get_u8(),
            sampling: data.get_u16(),
        };
        let actual = data.len() / RECORD_LEN;
        if actual != usize::from(count) || !data.len().is_multiple_of(RECORD_LEN) {
            return Err(V5Error::CountMismatch {
                promised: count,
                actual,
            });
        }

        let mut records = Vec::with_capacity(actual);
        for _ in 0..count {
            let src_ip = Ipv4Addr::from(data.get_u32());
            let dst_ip = Ipv4Addr::from(data.get_u32());
            data.advance(4 + 2 + 2); // nexthop, ifindexes
            let packets = u64::from(data.get_u32());
            let bytes = u64::from(data.get_u32());
            let first_ms = u64::from(data.get_u32());
            let last_ms = u64::from(data.get_u32());
            let src_port = data.get_u16();
            let dst_port = data.get_u16();
            data.advance(1); // pad1
            let tcp_flags = data.get_u8();
            let proto_num = data.get_u8();
            data.advance(1 + 2 + 2 + 1 + 1 + 2); // tos, ASes, masks, pad2
            let protocol = Protocol::from_number(proto_num).unwrap_or(Protocol::Tcp);
            records.push(FlowRecord {
                key: FlowKey {
                    src_ip,
                    dst_ip,
                    src_port,
                    dst_port,
                    protocol,
                },
                packets,
                bytes,
                first_ms,
                last_ms,
                tcp_flags,
            });
        }
        Ok(ExportPacket { header, records })
    }
}

/// One record's 48 bytes, written whole so the datagram takes one append
/// per record. The fields this simulation does not model stay zero:
/// nexthop (8..12), the input and output ifindex (12..16), pad1 (36),
/// tos (39), the source and destination AS (40..44) and masks (44..46),
/// and pad2 (46..48).
fn encode_record(rec: &FlowRecord) -> [u8; RECORD_LEN] {
    let mut out = [0u8; RECORD_LEN];
    let mut put = |at: usize, field: &[u8]| out[at..at + field.len()].copy_from_slice(field);
    let saturate = |count: u64| count.min(u64::from(u32::MAX)) as u32;
    put(0, &u32::from(rec.key.src_ip).to_be_bytes());
    put(4, &u32::from(rec.key.dst_ip).to_be_bytes());
    put(16, &saturate(rec.packets).to_be_bytes());
    put(20, &saturate(rec.bytes).to_be_bytes());
    put(24, &(rec.first_ms as u32).to_be_bytes()); // wraps like SysUptime
    put(28, &(rec.last_ms as u32).to_be_bytes());
    put(32, &rec.key.src_port.to_be_bytes());
    put(34, &rec.key.dst_port.to_be_bytes());
    put(37, &[rec.tcp_flags, rec.key.protocol.number()]);
    out
}

/// Splits an arbitrary batch of records into correctly-numbered v5
/// datagrams. `flow_sequence` continues from `start_sequence`; returns
/// the packets and the next sequence number.
pub fn packetize(
    records: &[FlowRecord],
    engine_id: u8,
    sampling_interval: u16,
    unix_secs: u32,
    start_sequence: u32,
) -> (Vec<ExportPacket>, u32) {
    let mut packets = Vec::new();
    let mut seq = start_sequence;
    for chunk in records.chunks(MAX_RECORDS_PER_PACKET) {
        packets.push(ExportPacket {
            header: V5Header {
                sys_uptime_ms: 0,
                unix_secs,
                unix_nsecs: 0,
                flow_sequence: seq,
                engine_type: 0,
                engine_id,
                sampling: V5Header::sampling_field(0b01, sampling_interval),
            },
            records: chunk.to_vec(),
        });
        seq = seq.wrapping_add(chunk.len() as u32);
    }
    (packets, seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(i: u8) -> FlowRecord {
        FlowRecord {
            key: FlowKey::tcp(
                Ipv4Addr::new(81, 200, 16, i),
                443,
                Ipv4Addr::new(91, 4, i, 7),
                49_152 + u16::from(i),
            ),
            packets: u64::from(i) + 1,
            bytes: (u64::from(i) + 1) * 1400,
            first_ms: 1000,
            last_ms: 2000 + u64::from(i),
            tcp_flags: 0x1b,
        }
    }

    #[test]
    fn wire_sizes() {
        let pkt = ExportPacket {
            header: V5Header {
                sys_uptime_ms: 1,
                unix_secs: 2,
                unix_nsecs: 3,
                flow_sequence: 4,
                engine_type: 0,
                engine_id: 9,
                sampling: V5Header::sampling_field(1, 1000),
            },
            records: (0..3).map(sample_record).collect(),
        };
        let bytes = pkt.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 3 * RECORD_LEN);
    }

    /// The exact bytes of a one-record datagram, field by field as
    /// Cisco's v5 layout places them. Decode skips the zero fields, so
    /// only this test sees them.
    #[test]
    fn golden_bytes() {
        let pkt = ExportPacket {
            header: V5Header {
                sys_uptime_ms: 0x0102_0304,
                unix_secs: 1_592_179_200,
                unix_nsecs: 7,
                flow_sequence: 999,
                engine_type: 0,
                engine_id: 3,
                sampling: V5Header::sampling_field(1, 1000),
            },
            records: vec![sample_record(1)],
        };
        let expected = concat!(
            // version, count, sys_uptime, unix_secs, unix_nsecs
            "0005", "0001", "01020304", "5ee6ba00", "00000007",
            // flow_sequence, engine type and id, sampling mode + interval
            "000003e7", "00", "03", "43e8",
            // src 81.200.16.1, dst 91.4.1.7, nexthop, ifindex in, out
            "51c81001", "5b040107", "00000000", "0000", "0000",
            // packets, bytes, first, last
            "00000002", "00000af0", "000003e8", "000007d1",
            // src port 443, dst port 49153, pad1, tcp flags, proto, tos
            "01bb", "c001", "00", "1b", "06", "00",
            // src AS, dst AS, src mask, dst mask, pad2
            "0000", "0000", "00", "00", "0000",
        );
        let hex: String = pkt.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, expected);
    }

    #[test]
    fn roundtrip() {
        let pkt = ExportPacket {
            header: V5Header {
                sys_uptime_ms: 123_456,
                unix_secs: 1_592_179_200,
                unix_nsecs: 77,
                flow_sequence: 999,
                engine_type: 0,
                engine_id: 3,
                sampling: V5Header::sampling_field(1, 1000),
            },
            records: (0..MAX_RECORDS_PER_PACKET as u8)
                .map(sample_record)
                .collect(),
        };
        let back = ExportPacket::decode(pkt.encode()).unwrap();
        assert_eq!(back, pkt);
        assert_eq!(back.header.sampling_interval(), 1000);
    }

    #[test]
    fn rejects_bad_version() {
        let pkt = ExportPacket {
            header: V5Header {
                sys_uptime_ms: 0,
                unix_secs: 0,
                unix_nsecs: 0,
                flow_sequence: 0,
                engine_type: 0,
                engine_id: 0,
                sampling: 0,
            },
            records: vec![sample_record(1)],
        };
        let mut bytes = BytesMut::from(&pkt.encode()[..]);
        bytes[0] = 0;
        bytes[1] = 9;
        assert_eq!(
            ExportPacket::decode(bytes.freeze()),
            Err(V5Error::BadVersion(9))
        );
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(
            ExportPacket::decode(Bytes::from_static(&[0u8; 10])),
            Err(V5Error::TooShort)
        );
    }

    #[test]
    fn rejects_count_mismatch() {
        let pkt = ExportPacket {
            header: V5Header {
                sys_uptime_ms: 0,
                unix_secs: 0,
                unix_nsecs: 0,
                flow_sequence: 0,
                engine_type: 0,
                engine_id: 0,
                sampling: 0,
            },
            records: vec![sample_record(1), sample_record(2)],
        };
        let bytes = pkt.encode();
        // Drop the last record's bytes.
        let truncated = bytes.slice(..bytes.len() - RECORD_LEN);
        assert!(matches!(
            ExportPacket::decode(truncated),
            Err(V5Error::CountMismatch {
                promised: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn rejects_too_many_records() {
        let mut bytes = BytesMut::new();
        bytes.put_u16(5);
        bytes.put_u16(31);
        bytes.put_slice(&[0u8; 20]);
        assert_eq!(
            ExportPacket::decode(bytes.freeze()),
            Err(V5Error::TooManyRecords(31))
        );
    }

    #[test]
    fn packetize_chunks_and_sequences() {
        let records: Vec<FlowRecord> = (0..75u8).map(sample_record).collect();
        let (packets, next_seq) = packetize(&records, 2, 1000, 1_592_179_200, 100);
        assert_eq!(packets.len(), 3);
        assert_eq!(packets[0].records.len(), 30);
        assert_eq!(packets[2].records.len(), 15);
        assert_eq!(packets[0].header.flow_sequence, 100);
        assert_eq!(packets[1].header.flow_sequence, 130);
        assert_eq!(packets[2].header.flow_sequence, 160);
        assert_eq!(next_seq, 175);
    }

    #[test]
    fn sampling_field_packing() {
        let f = V5Header::sampling_field(0b01, 1000);
        assert_eq!(f >> 14, 0b01);
        assert_eq!(f & 0x3fff, 1000);
        // Interval saturates at 14 bits.
        let f = V5Header::sampling_field(0b11, 0x7fff);
        assert_eq!(f & 0x3fff, 0x3fff);
    }
}
