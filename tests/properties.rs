//! Property-based tests (proptest) on the core invariants of every
//! substrate: crypto, Crypto-PAn, the NetFlow codec and cache, the
//! Exposure Notification key schedule and export format, and the
//! analysis normalizations.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use cwa_repro::analysis::timeseries::HourlySeries;
use cwa_repro::crypto::{hkdf_sha256, hmac_sha256, sha256, Aes128, Sha256};
use cwa_repro::exposure::export::TemporaryExposureKeyExport;
use cwa_repro::exposure::protobuf::{Reader, Writer};
use cwa_repro::exposure::tek::{DiagnosisKey, TemporaryExposureKey};
use cwa_repro::exposure::time::EnIntervalNumber;
use cwa_repro::netflow::anonymize::common_prefix_len;
use cwa_repro::netflow::cache::{FlowCache, FlowCacheConfig};
use cwa_repro::netflow::flow::{FlowKey, FlowRecord, Protocol};
use cwa_repro::netflow::v5::packetize;
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

    /// HMAC differs whenever the key differs (no trivial collisions on
    /// random inputs).
    #[test]
    fn hmac_key_sensitivity(
        k1 in proptest::collection::vec(any::<u8>(), 1..80),
        k2 in proptest::collection::vec(any::<u8>(), 1..80),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }

    /// HKDF prefix property: a shorter output is a prefix of a longer one.
    #[test]
    fn hkdf_prefix_property(
        ikm in proptest::collection::vec(any::<u8>(), 1..64),
        info in proptest::collection::vec(any::<u8>(), 0..32),
        short in 1usize..64,
        extra in 1usize..64,
    ) {
        let a = hkdf_sha256(None, &ikm, &info, short);
        let b = hkdf_sha256(None, &ikm, &info, short + extra);
        prop_assert_eq!(&b[..short], &a[..]);
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

    /// The EN key schedule is a pure function of the TEK: equal keys give
    /// equal RPIs; different keys give fully disjoint RPI sets.
    #[test]
    fn en_key_schedule_determinism(key: [u8; 16], other: [u8; 16], day in 1u32..20_000) {
        let t1 = TemporaryExposureKey {
            key, rolling_start_interval_number: day * 144, rolling_period: 144,
        };
        let t2 = TemporaryExposureKey { ..t1 };
        prop_assert_eq!(t1.all_rpis(), t2.all_rpis());
        if key != other {
            let t3 = TemporaryExposureKey { key: other, ..t1 };
            let set: std::collections::HashSet<_> = t1.all_rpis().into_iter().collect();
            prop_assert!(t3.all_rpis().iter().all(|r| !set.contains(r)));
        }
    }

    /// RPIs never collide with a different interval of the same key.
    #[test]
    fn rpi_interval_binding(key: [u8; 16], day in 1u32..20_000, i in 0u32..144, j in 0u32..144) {
        prop_assume!(i != j);
        let tek = TemporaryExposureKey {
            key, rolling_start_interval_number: day * 144, rolling_period: 144,
        };
        let a = tek.rpi(EnIntervalNumber(day * 144 + i));
        let b = tek.rpi(EnIntervalNumber(day * 144 + j));
        prop_assert_ne!(a, b);
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
    // ---------------- 256-bit arithmetic / ECDSA ----------------

    /// U256 byte/hex round-trips.
    #[test]
    fn u256_roundtrip(bytes: [u8; 32]) {
        use cwa_repro::crypto::u256::U256;
        let x = U256::from_be_bytes(&bytes);
        prop_assert_eq!(x.to_be_bytes(), bytes);
    }

    /// Modular add/sub are inverses; mul commutes (against the P-256
    /// group order as a representative large prime modulus).
    #[test]
    fn u256_modular_algebra(a: [u8; 32], b: [u8; 32]) {
        use cwa_repro::crypto::u256::U256;
        let n = U256::from_hex(
            "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551",
        );
        // Reduce inputs below the modulus first.
        let a = U256::from_be_bytes(&a).mul_mod(&U256::ONE, &n);
        let b = U256::from_be_bytes(&b).mul_mod(&U256::ONE, &n);
        let sum = a.add_mod(&b, &n);
        prop_assert_eq!(sum.sub_mod(&b, &n), a);
        prop_assert_eq!(a.mul_mod(&b, &n), b.mul_mod(&a, &n));
        // Distributivity: (a+b)·a = a·a + b·a.
        let lhs = sum.mul_mod(&a, &n);
        let rhs = a.mul_mod(&a, &n).add_mod(&b.mul_mod(&a, &n), &n);
        prop_assert_eq!(lhs, rhs);
    }

    /// Nonzero residues have working Fermat inverses.
    #[test]
    fn u256_inverse(a: [u8; 32]) {
        use cwa_repro::crypto::u256::U256;
        let p = U256::from_hex(
            "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
        );
        let a = U256::from_be_bytes(&a).mul_mod(&U256::ONE, &p);
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.mul_mod(&a.inv_mod(&p), &p), U256::ONE);
    }
}

proptest! {
    // ---------------- decoder totality (fuzz) ----------------
    // Every wire decoder must be total: arbitrary bytes produce
    // Ok or Err, never a panic.

    #[test]
    fn v5_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        use cwa_repro::netflow::v5::ExportPacket;
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

proptest! {
    // ECDSA is expensive (~30 ms/case): fewer cases, still randomized.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sign/verify round-trips for random keys and messages; a flipped
    /// message must not verify.
    #[test]
    fn ecdsa_sign_verify(mut secret: [u8; 32], msg in proptest::collection::vec(any::<u8>(), 1..200)) {
        use cwa_repro::crypto::p256::SigningKey;
        secret[0] &= 0x7f; // keep the scalar < n
        prop_assume!(secret.iter().any(|&b| b != 0));
        let key = SigningKey::from_bytes(&secret);
        let vk = key.verifying_key();
        let sig = key.sign(&msg);
        prop_assert!(vk.verify(&msg, &sig));
        let mut tampered = msg.clone();
        tampered[0] ^= 1;
        prop_assert!(!vk.verify(&tampered, &sig));
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
