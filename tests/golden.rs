//! Golden fingerprints of the generator and the prepared world.
//!
//! Every other equivalence test compares two drivers that share one
//! generator and one set-up, so a moved RNG draw or a changed nearest
//! district would pass them all. These tests hash the generator's whole
//! event stream, its ground truth and thinning counters, and the geo DB
//! and router map that `Simulation::prepare` builds, and compare the
//! hashes with values pinned from an accepted tree. A change that
//! re-pins on purpose updates the constants and says so.

use cwa_repro::geo::{GeoDb, GeoDbConfig, RouterMap, RouterMapConfig};
use cwa_repro::obs::Registry;
use cwa_repro::simnet::traffic::{FlowEvent, FlowKind};
use cwa_repro::simnet::{GroundTruth, SimConfig, Simulation};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn event(&mut self, ev: &FlowEvent) {
        let k = &ev.key;
        self.word(u64::from(u32::from(k.src_ip)));
        self.word(u64::from(u32::from(k.dst_ip)));
        self.word(u64::from(k.src_port));
        self.word(u64::from(k.dst_port));
        self.word(u64::from(k.protocol.number()));
        self.word(ev.packets);
        self.word(ev.bytes);
        self.word(ev.sampled);
        self.word(u64::from(ev.sampling_interval));
        self.word(ev.start_ms);
        self.word(ev.duration_ms);
        self.word(match ev.kind {
            FlowKind::Api => 0,
            FlowKind::Website => 1,
            FlowKind::Background => 2,
        });
        self.word(u64::from(ev.district.0));
        self.word(u64::from(ev.isp.0));
        self.word(u64::from(ev.downstream));
    }

    fn truth(&mut self, t: &GroundTruth) {
        for &n in &t.cwa_flows_by_hour {
            self.word(n);
        }
        for day in &t.cwa_flows_by_day_district {
            for &n in day {
                self.word(n);
            }
        }
        for n in [t.api_flows, t.web_flows, t.background_flows, t.total_events] {
            self.word(n);
        }
    }
}

/// The generator's stream at `scale` over the default 11 days, sampled
/// 1 in `interval`: (events, event hash, truth hash, candidates, kept).
fn traffic_fingerprint(scale: f64, interval: u32) -> (u64, u64, u64, u64, u64) {
    let mut cfg = SimConfig {
        scale,
        ..SimConfig::default()
    };
    cfg.vantage.sampling_interval = interval;
    let prepared = Simulation::new(cfg).prepare();
    let registry = Registry::new();
    let mut events = Fnv::new();
    let mut count = 0u64;
    let truth = prepared
        .traffic_model()
        .with_metrics(&registry)
        .run(&mut |ev| {
            count += 1;
            events.event(ev);
        });
    let mut t = Fnv::new();
    t.truth(&truth);
    let counter = |name: &str| registry.counter(name).get();
    (
        count,
        events.0,
        t.0,
        counter("simnet.traffic.thinning_candidates"),
        counter("simnet.traffic.thinning_kept"),
    )
}

#[test]
fn generator_stream_is_pinned() {
    assert_eq!(
        traffic_fingerprint(0.005, 1000),
        (
            38_467,
            10_274_635_664_778_955_295,
            14_385_962_448_391_927_019,
            44_412,
            37_356
        ),
        "scale 0.005, 1:1000"
    );
    assert_eq!(
        traffic_fingerprint(0.001, 100),
        (
            60_820,
            247_134_597_668_924_813,
            873_699_732_364_901_497,
            72_799,
            52_082
        ),
        "scale 0.001, 1:100"
    );
}

#[test]
fn prepared_world_is_pinned() {
    let cfg = SimConfig::default();
    let prepared = Simulation::new(cfg).prepare();

    // The geo DB as prepare hands it over (anonymized prefix keys).
    let mut anon: Vec<_> = prepared.geodb.iter().map(|(n, e)| (n, *e)).collect();
    anon.sort_by_key(|&(n, _)| n);
    let mut geo_anon = Fnv::new();
    for (net, e) in &anon {
        geo_anon.word(u64::from(*net));
        geo_anon.word(u64::from(e.located.0));
        geo_anon.word(u64::from(e.truth.0));
        geo_anon.word(e.lat.to_bits());
        geo_anon.word(e.lon.to_bits());
    }
    // The ISP side table: ISP and serving-router district per prefix.
    let mut side: Vec<_> = prepared.isp_table.iter().map(|(&n, &e)| (n, e)).collect();
    side.sort_by_key(|&(n, _)| n);
    let mut isp = Fnv::new();
    for (net, e) in &side {
        isp.word(u64::from(*net));
        isp.word(u64::from(e.isp.0));
        isp.word(e.router_district.map_or(u64::MAX, |d| u64::from(d.0)));
    }

    // The same tables in the clear, built as prepare builds them.
    let geodb = GeoDb::build(
        &prepared.germany,
        &prepared.plan,
        GeoDbConfig {
            seed: cfg.seed ^ 0x9E0,
            ..cfg.geodb
        },
    );
    let mut raw: Vec<_> = geodb.iter().map(|(n, e)| (n, *e)).collect();
    raw.sort_by_key(|&(n, _)| n);
    let mut geo = Fnv::new();
    for (net, e) in &raw {
        geo.word(u64::from(*net));
        geo.word(u64::from(e.located.0));
        geo.word(u64::from(e.truth.0));
    }
    let routers = RouterMap::build(
        &prepared.germany,
        &prepared.plan,
        RouterMapConfig {
            seed: cfg.seed ^ 0xB46,
            ..RouterMapConfig::default()
        },
    );
    let mut served: Vec<_> = prepared
        .plan
        .allocations()
        .iter()
        .filter_map(|a| {
            let net = u32::from(a.network);
            routers.router_of(net).map(|r| (net, r.district))
        })
        .collect();
    served.sort_by_key(|&(n, _)| n);
    let mut router = Fnv::new();
    for (net, d) in &served {
        router.word(u64::from(*net));
        router.word(u64::from(d.0));
    }

    assert_eq!(
        (anon.len(), side.len(), raw.len(), served.len()),
        (41_783, 41_783, 41_783, 7_504),
        "table sizes"
    );
    assert_eq!(
        (geo_anon.0, isp.0, geo.0, router.0),
        (
            17_591_349_508_192_151_552,
            16_012_733_683_285_947_479,
            13_143_513_763_870_904_335,
            13_043_976_214_612_476_777
        ),
        "anonymized geo DB, ISP side table, geo DB, router map"
    );
}
