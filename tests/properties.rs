//! Property-based tests (proptest) on the core invariants of every
//! substrate: crypto, Crypto-PAn, the NetFlow codec and cache, the
//! Exposure Notification key-export format, and the analysis
//! normalizations.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use cwa_repro::analysis::timeseries::HourlySeries;
use cwa_repro::crypto::{sha256, Aes128, Sha256};
use cwa_repro::exposure::export::TemporaryExposureKeyExport;
use cwa_repro::exposure::protobuf::{Reader, Writer};
use cwa_repro::exposure::tek::{DiagnosisKey, TemporaryExposureKey};
use cwa_repro::netflow::anonymize::common_prefix_len;
use cwa_repro::netflow::cache::{FlowCache, FlowCacheConfig};
use cwa_repro::netflow::flow::{FlowKey, FlowRecord, Protocol};
use cwa_repro::netflow::v5::{packetize, ExportPacket};
use cwa_repro::netflow::{Collector, CryptoPan};

proptest! {
    // ---------------- crypto ----------------

    /// Streaming SHA-256 equals one-shot for any chunking.
    #[test]
    fn sha256_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        cut in 0usize..2048,
    ) {
        let cut = cut.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// AES-128 is a permutation: distinct plaintexts encrypt distinctly.
    #[test]
    fn aes_injective(key: [u8; 16], a: [u8; 16], b: [u8; 16]) {
        prop_assume!(a != b);
        let aes = Aes128::new(&key);
        prop_assert_ne!(aes.encrypt_block(&a), aes.encrypt_block(&b));
    }

    // ---------------- Crypto-PAn ----------------

    /// THE Crypto-PAn property: common prefix lengths are preserved
    /// exactly for arbitrary address pairs and keys.
    #[test]
    fn cryptopan_preserves_prefixes(key: [u8; 32], a: u32, b: u32) {
        let cp = CryptoPan::new(&key);
        let (ia, ib) = (Ipv4Addr::from(a), Ipv4Addr::from(b));
        prop_assert_eq!(
            common_prefix_len(ia, ib),
            common_prefix_len(cp.anonymize(ia), cp.anonymize(ib))
        );
    }

    /// Anonymization inverts exactly.
    #[test]
    fn cryptopan_roundtrip(key: [u8; 32], addr: u32) {
        let cp = CryptoPan::new(&key);
        let a = Ipv4Addr::from(addr);
        prop_assert_eq!(cp.deanonymize(cp.anonymize(a)), a);
    }

    // ---------------- NetFlow v5 ----------------

    /// Arbitrary record batches round-trip through the v5 wire format
    /// (with the format's documented 32-bit truncations applied).
    #[test]
    fn v5_roundtrip(records in proptest::collection::vec(arb_record(), 0..100)) {
        let (packets, _) = packetize(&records, 3, 1000, 1_592_179_200, 7);
        let mut collector = Collector::new_raw();
        for p in &packets {
            collector.ingest(p.encode()).unwrap();
        }
        let out = collector.records();
        prop_assert_eq!(out.len(), records.len());
        for (got, want) in out.iter().zip(&records) {
            prop_assert_eq!(got.key, want.key);
            prop_assert_eq!(got.packets, want.packets.min(u32::MAX as u64));
            prop_assert_eq!(got.bytes, want.bytes.min(u32::MAX as u64));
            prop_assert_eq!(got.first_ms, want.first_ms & 0xFFFF_FFFF);
            prop_assert_eq!(got.tcp_flags, want.tcp_flags);
        }
    }

    /// The collector parses each record straight from the datagram into
    /// its columns. It must read every datagram as
    /// `ExportPacket::decode` does: equal records for well-formed ones,
    /// and for truncated, wrong-version, count-mismatched or otherwise
    /// corrupted ones the same error (and nothing stored) or, where
    /// decode accepts the bytes, the same records.
    #[test]
    fn collector_decodes_like_export_packet(
        records in proptest::collection::vec(arb_record(), 1..100),
        cut in 0usize..1500,
        version in any::<u16>(),
        count in any::<u16>(),
        corrupt in (0usize..1500, any::<u8>()),
    ) {
        let (packets, _) = packetize(&records, 3, 1000, 1_592_179_200, 7);
        let mut collector = Collector::new_raw();
        let mut decoded = Vec::new();
        for p in &packets {
            let wire = p.encode();
            decoded.extend(ExportPacket::decode(wire.clone()).unwrap().records);
            collector.ingest(wire).unwrap();
        }
        prop_assert_eq!(collector.records(), decoded);

        let wire = packets[0].encode();
        let patched = |at: usize, bytes: &[u8]| {
            let mut b = bytes::BytesMut::from(&wire[..]);
            let at = at.min(b.len() - bytes.len());
            b[at..at + bytes.len()].copy_from_slice(bytes);
            b.freeze()
        };
        for bad in [
            wire.slice(..cut.min(wire.len())),
            patched(0, &version.to_be_bytes()),
            patched(2, &count.to_be_bytes()),
            patched(corrupt.0, &[corrupt.1]),
        ] {
            let mut c = Collector::new_raw();
            match (c.ingest(bad.clone()), ExportPacket::decode(bad)) {
                (Ok(()), Ok(packet)) => prop_assert_eq!(c.records(), packet.records),
                (Err(got), Err(want)) => {
                    prop_assert_eq!(got, want);
                    prop_assert!(c.records().is_empty());
                }
                (got, want) => prop_assert!(false, "collector {:?}, decode {:?}", got, want),
            }
        }
    }

    /// Flow-cache packet conservation: every accounted packet ends up in
    /// exactly one exported record, for arbitrary packet schedules.
    #[test]
    fn cache_conserves_packets(
        schedule in proptest::collection::vec((0u8..6, 0u64..400_000, 40u64..1500), 1..300)
    ) {
        let mut cache = FlowCache::new(FlowCacheConfig {
            inactive_timeout_ms: 15_000,
            active_timeout_ms: 60_000,
            max_entries: 16,
        });
        let mut sorted = schedule.clone();
        sorted.sort_by_key(|&(_, t, _)| t);
        let mut total_bytes = 0u64;
        for &(host, t, bytes) in &sorted {
            let key = FlowKey::tcp(
                Ipv4Addr::new(81, 200, 16, 1), 443,
                Ipv4Addr::new(10, 0, 0, host), 50_000,
            );
            cache.account(key, bytes, 0x18, t);
            total_bytes += bytes;
        }
        cache.flush();
        let records = cache.take_expired();
        let packets: u64 = records.iter().map(|r| r.packets).sum();
        let bytes: u64 = records.iter().map(|r| r.bytes).sum();
        prop_assert_eq!(packets, sorted.len() as u64);
        prop_assert_eq!(bytes, total_bytes);
    }

    // ---------------- protobuf / export ----------------

    /// Varints round-trip for arbitrary u64.
    #[test]
    fn varint_roundtrip(v: u64) {
        let mut w = Writer::new();
        w.varint(v);
        let mut r = Reader::new(w.finish());
        prop_assert_eq!(r.varint().unwrap(), v);
        prop_assert!(r.is_done());
    }

    /// Diagnosis-key exports round-trip for arbitrary key sets.
    #[test]
    fn export_roundtrip(
        start in 0u64..2_000_000_000,
        span in 1u64..200_000,
        keys in proptest::collection::vec((any::<[u8; 16]>(), 0u8..8, 1u32..200_000, 1u32..145), 0..40),
    ) {
        let dks: Vec<DiagnosisKey> = keys
            .iter()
            .map(|&(key, risk, start_iv, period)| DiagnosisKey {
                tek: TemporaryExposureKey {
                    key,
                    rolling_start_interval_number: start_iv,
                    rolling_period: period,
                },
                transmission_risk_level: risk,
            })
            .collect();
        let export = TemporaryExposureKeyExport::new_de(start, start + span, dks);
        let back = TemporaryExposureKeyExport::decode(&export.encode()).unwrap();
        prop_assert_eq!(back, export);
    }

    // ---------------- analysis ----------------

    /// Normalization invariants: output in [0, max/minpos], zeros map to
    /// zero, minimum positive maps to 1.
    #[test]
    fn normed_to_min_invariants(flows in proptest::collection::vec(0u64..10_000, 1..300)) {
        let series = HourlySeries { flows: flows.clone(), bytes: flows.clone() };
        let normed = series.flows_normed_to_min();
        prop_assert_eq!(normed.len(), flows.len());
        if let Some(&minpos) = flows.iter().filter(|&&f| f > 0).min() {
            let idx = flows.iter().position(|&f| f == minpos).unwrap();
            prop_assert!((normed[idx] - 1.0).abs() < 1e-12);
        }
        for (n, f) in normed.iter().zip(&flows) {
            prop_assert_eq!(*n == 0.0, *f == 0);
            prop_assert!(*n >= 0.0);
        }
    }
}

proptest! {
    // ---------------- decoder totality (fuzz) ----------------
    // Every wire decoder must be total: arbitrary bytes produce
    // Ok or Err, never a panic.

    #[test]
    fn v5_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = ExportPacket::decode(bytes::Bytes::from(data));
    }

    #[test]
    fn v9_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        use cwa_repro::netflow::v9::V9Decoder;
        let mut decoder = V9Decoder::new();
        let _ = decoder.decode(bytes::Bytes::from(data));
    }

    #[test]
    fn export_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = TemporaryExposureKeyExport::decode(&data);
    }

    /// …including inputs that *start* like a valid export.
    #[test]
    fn export_decoder_survives_valid_prefix(tail in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut data = b"EK Export v1    ".to_vec();
        data.extend_from_slice(&tail);
        let _ = TemporaryExposureKeyExport::decode(&data);
    }
}

/// Strategy for arbitrary flow records (fields within v5 wire limits
/// where lossless round-tripping is expected).
fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        1u64..=u32::MAX as u64,
        1u64..=u32::MAX as u64,
        0u64..=u32::MAX as u64,
        any::<u8>(),
    )
        .prop_map(
            |(src, dst, sport, dport, packets, bytes, first, flags)| FlowRecord {
                key: FlowKey {
                    src_ip: Ipv4Addr::from(src),
                    dst_ip: Ipv4Addr::from(dst),
                    src_port: sport,
                    dst_port: dport,
                    protocol: Protocol::Tcp,
                },
                packets,
                bytes,
                first_ms: first,
                last_ms: first,
                tcp_flags: flags,
            },
        )
}
