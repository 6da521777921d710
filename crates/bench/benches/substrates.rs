//! Micro-benchmarks of every substrate the reproduction is built on:
//! crypto primitives, Crypto-PAn, the flow cache, the v5 and v9 codecs,
//! the Exposure Notification key schedule and key-export codec, and the
//! traffic generator's samplers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::net::Ipv4Addr;

use cwa_crypto::{aes128_ctr, hkdf_sha256, hmac_sha256, sha256, Aes128};
use cwa_exposure::tek::{DiagnosisKey, TemporaryExposureKey};
use cwa_exposure::time::EnIntervalNumber;
use cwa_netflow::cache::{FlowCache, FlowCacheConfig};
use cwa_netflow::flow::FlowKey;
use cwa_netflow::sampling::sample_packet_count;
use cwa_netflow::v5::{packetize, ExportPacket};
use cwa_netflow::CryptoPan;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn crypto_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data_1k = vec![0xa5u8; 1024];
    let data_64k = vec![0xa5u8; 65_536];

    g.throughput(Throughput::Bytes(1024));
    g.bench_function("sha256/1KiB", |b| b.iter(|| sha256(black_box(&data_1k))));
    g.throughput(Throughput::Bytes(65_536));
    g.bench_function("sha256/64KiB", |b| b.iter(|| sha256(black_box(&data_64k))));

    g.throughput(Throughput::Elements(1));
    g.bench_function("hmac_sha256/64B_msg", |b| {
        b.iter(|| hmac_sha256(black_box(b"key"), black_box(&data_1k[..64])))
    });
    g.bench_function("hkdf/16B_okm", |b| {
        b.iter(|| hkdf_sha256(None, black_box(b"temporary exposure key"), b"EN-RPIK", 16))
    });

    let aes = Aes128::new(&[7u8; 16]);
    g.bench_function("aes128/block", |b| {
        b.iter(|| aes.encrypt_block(black_box(&[1u8; 16])))
    });
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("aes128_ctr/1KiB", |b| {
        b.iter(|| aes128_ctr(&[7u8; 16], &[0u8; 16], black_box(&data_1k)))
    });
    g.finish();
}

fn netflow_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("netflow");

    let cp = CryptoPan::new(&[9u8; 32]);
    g.throughput(Throughput::Elements(1));
    g.bench_function("cryptopan/anonymize", |b| {
        b.iter(|| cp.anonymize(black_box(Ipv4Addr::new(84, 17, 3, 9))))
    });

    g.bench_function("flow_cache/account_1k_packets", |b| {
        b.iter(|| {
            let mut cache = FlowCache::new(FlowCacheConfig::default());
            for i in 0..1000u32 {
                let key = FlowKey::tcp(
                    Ipv4Addr::new(81, 200, 16, 1),
                    443,
                    Ipv4Addr::from(0x54000000 + (i % 128)),
                    50_000,
                );
                cache.account(key, 1200, 0x18, u64::from(i) * 10);
            }
            cache.flush();
            cache.take_expired().len()
        })
    });

    // v5 codec throughput.
    let records: Vec<_> = (0..30u8)
        .map(|i| cwa_netflow::flow::FlowRecord {
            key: FlowKey::tcp(
                Ipv4Addr::new(81, 200, 16, 1),
                443,
                Ipv4Addr::new(84, 0, 0, i),
                50_000,
            ),
            packets: 3,
            bytes: 4200,
            first_ms: 1000,
            last_ms: 2000,
            tcp_flags: 0x18,
        })
        .collect();
    let (packets, _) = packetize(&records, 1, 1000, 0, 0);
    let wire = packets[0].encode();
    g.throughput(Throughput::Elements(30));
    g.bench_function("v5/encode_30_records", |b| b.iter(|| packets[0].encode()));
    g.bench_function("v5/decode_30_records", |b| {
        b.iter(|| ExportPacket::decode(black_box(wire.clone())).unwrap())
    });

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    g.bench_function("sampling/binomial_draw", |b| {
        b.iter(|| sample_packet_count(&mut rng, black_box(20), 1000))
    });

    // v9 template-based codec.
    let mut v9 = cwa_netflow::V9Exporter::new(1);
    let wire_v9 = v9.export(&records[..24], 0, 0);
    g.bench_function("v9/export_24_records", |b| {
        b.iter(|| v9.export(black_box(&records[..24]), 0, 0))
    });
    g.bench_function("v9/decode_24_records", |b| {
        let mut decoder = cwa_netflow::V9Decoder::new();
        decoder.decode(wire_v9.clone()).unwrap();
        b.iter(|| decoder.decode(black_box(wire_v9.clone())).unwrap())
    });
    g.finish();
}

fn exposure_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("exposure");
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let tek = TemporaryExposureKey::generate(&mut rng, EnIntervalNumber(144 * 18_000));

    g.throughput(Throughput::Elements(144));
    g.bench_function("tek/derive_all_144_rpis", |b| b.iter(|| tek.all_rpis()));

    // Export encode/decode of a realistic daily file: 50 keys spread
    // over the 14-day retention window.
    let keys: Vec<DiagnosisKey> = (0..50)
        .map(|i| {
            let t =
                TemporaryExposureKey::generate(&mut rng, EnIntervalNumber(144 * (18_000 + i % 14)));
            DiagnosisKey::new(t, 5)
        })
        .collect();
    g.throughput(Throughput::Elements(50));
    let export = cwa_exposure::export::TemporaryExposureKeyExport::new_de(0, 86_400, keys.clone());
    let wire = export.encode();
    g.bench_function("export/encode_50_keys", |b| {
        b.iter(|| export.encode().len())
    });
    g.bench_function("export/decode_50_keys", |b| {
        b.iter(|| {
            cwa_exposure::export::TemporaryExposureKeyExport::decode(black_box(&wire)).unwrap()
        })
    });
    g.finish();
}

fn p256_benches(c: &mut Criterion) {
    use cwa_crypto::p256::SigningKey;
    let mut g = c.benchmark_group("p256");
    g.sample_size(10); // big-int math; keep runs short
    let mut secret = [0u8; 32];
    secret[31] = 0x42;
    secret[0] = 0x01;
    let key = SigningKey::from_bytes(&secret);
    let vk = key.verifying_key();
    let msg = vec![0xa5u8; 4096];
    let sig = key.sign(&msg);

    g.bench_function("sign_export_4KiB", |b| b.iter(|| key.sign(black_box(&msg))));
    g.bench_function("verify_export_4KiB", |b| {
        b.iter(|| vk.verify(black_box(&msg), &sig))
    });
    g.finish();
}

fn geo_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("geo");
    let germany = cwa_geo::Germany::build();
    g.bench_function("germany/build", |b| b.iter(cwa_geo::Germany::build));
    let plan = cwa_geo::AddressPlan::build(&germany, cwa_geo::AddressPlanConfig::default());
    g.bench_function("plan/lookup", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let hosts: Vec<Ipv4Addr> = (0..1024)
            .map(|_| {
                let a = &plan.allocations()[rng.gen_range(0..plan.allocations().len())];
                a.host(rng.gen_range(0..a.capacity))
            })
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % hosts.len();
            plan.lookup(black_box(hosts[i])).is_some()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    crypto_benches,
    netflow_benches,
    exposure_benches,
    p256_benches,
    geo_benches
);
criterion_main!(benches);
