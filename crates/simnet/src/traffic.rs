//! The prefix-cohort traffic generator.
//!
//! Sixteen million phones are not simulated one by one; instead every
//! routing prefix of the address plan carries a *cohort* — its
//! district's share of installed app users and website visitors. Each
//! simulated hour, each cohort emits
//!
//! * **API flows**: daily diagnosis-key downloads and status fetches
//!   (rate = installed users × per-user hourly rate from
//!   [`cwa_epidemic::ActivityModel`], including the
//!   background-restriction bug),
//! * **website flows**: launch/news-interest driven visits, and
//! * **background flows**: unrelated traffic that the analysis must
//!   filter out,
//!
//! each with log-normal packet/byte sizes, an upstream (client→server)
//! counterpart, and client addresses drawn according to the owning
//! ISP's static/dynamic assignment behaviour.
//!
//! All figure-level outputs downstream are normalized, so a global
//! `scale` factor shrinks the run without changing any reproduced shape
//! (claim C1, the absolute flow count, is reported scale-adjusted).

use std::net::Ipv4Addr;

use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use cwa_epidemic::{ActivityModel, AdoptionCurve, Scenario};
use cwa_geo::{AccessKind, AddressPlan, DistrictId, Germany, IspId};
use cwa_netflow::flow::{FlowKey, Protocol};

use crate::cdn::CdnConfig;
use crate::stats::{flow_size_with, poisson, NormalCache};
use cwa_samplers::map_bits_u32;

/// What kind of traffic a flow is (ground-truth label; the measurement
/// pipeline never sees this — exactly the §2 limitation that app and
/// website traffic "cannot be differentiated").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowKind {
    /// CWA app API call (key download / status).
    Api,
    /// Website visit.
    Website,
    /// Unrelated traffic.
    Background,
}

/// One generated flow (both directions are emitted as separate events,
/// as unidirectional NetFlow would see them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEvent {
    /// 5-tuple.
    pub key: FlowKey,
    /// True packet count (pre-sampling).
    pub packets: u64,
    /// True byte count (pre-sampling).
    pub bytes: u64,
    /// Start time, simulation ms.
    pub start_ms: u64,
    /// Duration, ms.
    pub duration_ms: u64,
    /// Ground-truth label.
    pub kind: FlowKind,
    /// True originating district (ground truth).
    pub district: DistrictId,
    /// Serving ISP (ground truth).
    pub isp: IspId,
    /// True if this is the CDN→client direction (the direction the
    /// paper's analysis keeps).
    pub downstream: bool,
}

/// Traffic-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Global volume scale (1.0 = full Germany).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Median packets of a downstream API flow (TLS handshake + key
    /// export payload).
    pub api_median_packets: f64,
    /// Log-normal shape of API flow sizes.
    pub api_sigma: f64,
    /// Median packets of a downstream website flow.
    pub web_median_packets: f64,
    /// Log-normal shape of website flow sizes.
    pub web_sigma: f64,
    /// Mean bytes per downstream packet.
    pub bytes_per_packet: f64,
    /// API retry multiplier (failed background fetches retry).
    pub retry_factor: f64,
    /// Background flows per CWA flow (filter fodder).
    pub background_ratio: f64,
    /// Fraction of a prefix's subscribers that are *active* app/web
    /// users on a given day. Static-lease ISPs keep these households at
    /// fixed addresses; daily-reconnect DSL moves the active set across
    /// the pool — the address-stability difference §3 of the paper
    /// alludes to ("customers of certain ISPs keep the same IP address
    /// over time").
    pub active_subscriber_fraction: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            scale: 1.0,
            seed: 0xC0A0_2020,
            api_median_packets: 16.0,
            api_sigma: 0.8,
            web_median_packets: 24.0,
            web_sigma: 1.0,
            bytes_per_packet: 1000.0,
            retry_factor: 1.15,
            background_ratio: 0.6,
            active_subscriber_fraction: 0.45,
        }
    }
}

/// Calibration ground truth accumulated during generation. The analysis
/// pipeline must never read this; integration tests compare the
/// pipeline's *measured* results against it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundTruth {
    /// True generated CWA flows (both kinds, downstream only) per hour.
    pub cwa_flows_by_hour: Vec<u64>,
    /// True generated CWA downstream flows per `[day][district]`.
    pub cwa_flows_by_day_district: Vec<Vec<u64>>,
    /// Total downstream API flows.
    pub api_flows: u64,
    /// Total downstream website flows.
    pub web_flows: u64,
    /// Total background flows (all directions).
    pub background_flows: u64,
    /// Total generated flow events (all kinds, both directions).
    pub total_events: u64,
}

impl GroundTruth {
    fn new(hours: u32, days: u32, districts: usize) -> Self {
        GroundTruth {
            cwa_flows_by_hour: vec![0; hours as usize],
            cwa_flows_by_day_district: vec![vec![0; districts]; days as usize],
            api_flows: 0,
            web_flows: 0,
            background_flows: 0,
            total_events: 0,
        }
    }
}

/// The generator.
pub struct TrafficModel<'a> {
    plan: &'a AddressPlan,
    scenario: &'a Scenario,
    adoption: &'a AdoptionCurve,
    activity: ActivityModel,
    cdn: CdnConfig,
    cfg: TrafficConfig,
    /// Subscribers per district (from the plan), cached.
    district_subscribers: Vec<f64>,
    /// Extra downstream packets per API flow per day, from the growing
    /// key-export payload (empty ⇒ no adjustment).
    export_extra_packets: Vec<f64>,
    rng: ChaCha8Rng,
    /// Banked Box–Muller sine variates for flow-size draws.
    normals: NormalCache,
    truth: GroundTruth,
    hours: u32,
}

impl<'a> TrafficModel<'a> {
    /// Creates a generator for `hours` hours of traffic.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        germany: &'a Germany,
        plan: &'a AddressPlan,
        scenario: &'a Scenario,
        adoption: &'a AdoptionCurve,
        activity: ActivityModel,
        cdn: CdnConfig,
        cfg: TrafficConfig,
        hours: u32,
    ) -> Self {
        use rand::SeedableRng;
        let mut district_subscribers = vec![0.0f64; germany.len()];
        for alloc in plan.allocations() {
            district_subscribers[usize::from(alloc.district.0)] += f64::from(alloc.capacity);
        }
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let days = hours.div_ceil(24);
        let truth = GroundTruth::new(hours, days, germany.len());
        let _ = germany; // reserved: future district-level overrides
        TrafficModel {
            plan,
            scenario,
            adoption,
            activity,
            cdn,
            cfg,
            district_subscribers,
            export_extra_packets: Vec::new(),
            rng,
            normals: NormalCache::new(),
            truth,
            hours,
        }
    }

    /// Couples API flow sizes to the day's diagnosis-key export payload:
    /// `sizes[day]` is the export file size in bytes. The extra payload
    /// rides on the same downstream flow as additional full-size packets
    /// — the honest reason Fig. 2's *bytes* series grows relative to the
    /// *flows* series once keys start appearing (June 23).
    pub fn with_export_sizes(mut self, sizes_bytes: &[f64]) -> Self {
        self.export_extra_packets = sizes_bytes
            .iter()
            .map(|b| (b / self.cfg.bytes_per_packet).min(40.0))
            .collect();
        self
    }

    /// Generates one hour of traffic, passing every flow event to
    /// `sink`. Call with `hour` strictly increasing from 0.
    pub fn generate_hour<F: FnMut(&FlowEvent)>(&mut self, hour: u32, sink: &mut F) {
        debug_assert!(hour < self.hours);
        let day = hour / 24;
        let hod = hour % 24;
        let hour_start_ms = u64::from(hour) * 3_600_000;

        let national_media = self.scenario.national_media_factor(hour);
        let local_extras = self.scenario.local_media_extras(hour);

        for ai in 0..self.plan.allocations().len() {
            let alloc = self.plan.allocations()[ai];
            let d_idx = usize::from(alloc.district.0);
            let isp = self.plan.isp(alloc.isp);
            let subs = self.district_subscribers[d_idx].max(1.0);
            let cohort_share = f64::from(alloc.capacity) / subs;

            // Media factor seen by this cohort.
            let mut media = national_media;
            for &(ld, lisp, extra) in &local_extras {
                if ld == alloc.district && (lisp.is_none() || lisp == Some(alloc.isp)) {
                    media += extra;
                }
            }

            // App users behind this prefix.
            let installed_district = self.adoption.installed_in(alloc.district, hour);
            let users = installed_district * cohort_share;
            let lam_api = users
                * self.activity.api_requests_per_user_hour(hod, media)
                * self.cfg.retry_factor
                * self.cfg.scale;

            // Website visitors behind this prefix: national visit volume
            // allocated by adoption share, modulated by the *local*
            // media factor relative to the national one.
            let web_national = self.activity.website_visits_per_hour(hour, national_media);
            let local_boost = media / national_media;
            let lam_web = web_national
                * self.adoption.district_share[d_idx]
                * cohort_share
                * local_boost
                * self.cfg.scale;

            let lam_bg = (lam_api + lam_web) * self.cfg.background_ratio;

            let n_api = poisson(&mut self.rng, lam_api);
            let n_web = poisson(&mut self.rng, lam_web);
            let n_bg = poisson(&mut self.rng, lam_bg);

            for (kind, count) in [
                (FlowKind::Api, n_api),
                (FlowKind::Website, n_web),
                (FlowKind::Background, n_bg),
            ] {
                for _ in 0..count {
                    let ev = self.make_flow(kind, &alloc, isp.access, day, hour_start_ms);
                    self.account_truth(&ev, hour, day);
                    sink(&ev);
                    // Upstream counterpart (request direction).
                    let up = upstream_of(&ev, &mut self.rng);
                    self.truth.total_events += 1;
                    if up.kind == FlowKind::Background {
                        self.truth.background_flows += 1;
                    }
                    sink(&up);
                }
            }
        }
    }

    /// Runs all hours through `sink`, then returns the ground truth.
    pub fn run<F: FnMut(&FlowEvent)>(mut self, sink: &mut F) -> GroundTruth {
        for hour in 0..self.hours {
            self.generate_hour(hour, sink);
        }
        self.truth
    }

    /// Consumes the model, returning accumulated ground truth (for
    /// callers driving `generate_hour` manually).
    pub fn into_truth(self) -> GroundTruth {
        self.truth
    }

    fn make_flow(
        &mut self,
        kind: FlowKind,
        alloc: &cwa_geo::PrefixAllocation,
        access: AccessKind,
        day: u32,
        hour_start_ms: u64,
    ) -> FlowEvent {
        let rng = &mut self.rng;
        let prefix_size = 1u32 << (32 - u32::from(alloc.len));

        // Two independent small field draws ride one split u64: the
        // active-pool slot (high 32 bits) and the client port (low 32).
        let fields = rng.next_u64();

        // Client address: the day's traffic comes from the *active*
        // subscriber pool. Static-lease ISPs keep those households at
        // fixed (low-slot) addresses; daily-reconnect DSL re-assigns
        // them across the prefix every day, so the set of hot /24s
        // rotates.
        let pool = ((f64::from(alloc.capacity) * self.cfg.active_subscriber_fraction) as u32)
            .clamp(1, alloc.capacity.max(1));
        let slot = map_bits_u32((fields >> 32) as u32, pool);
        let host = match access {
            AccessKind::StaticLease => slot % prefix_size,
            AccessKind::Dynamic24h => (slot + day * 2917) % prefix_size,
        };
        let client = Ipv4Addr::from(u32::from(alloc.network) + host);

        // Either branch consumes exactly one u64.
        let server_bits = rng.next_u64();
        let server = match kind {
            FlowKind::Background => {
                // A popular non-CWA service (same port, different prefix).
                Ipv4Addr::from(
                    u32::from(Ipv4Addr::new(203, 0, 113, 0)) + map_bits_u32(server_bits as u32, 16),
                )
            }
            _ => self.cdn.server_for_day(server_bits, day),
        };

        let (median, sigma) = match kind {
            FlowKind::Api => {
                let extra = self
                    .export_extra_packets
                    .get(day as usize)
                    .copied()
                    .unwrap_or(0.0);
                (self.cfg.api_median_packets + extra, self.cfg.api_sigma)
            }
            FlowKind::Website => (self.cfg.web_median_packets, self.cfg.web_sigma),
            FlowKind::Background => (20.0, 1.2),
        };
        let (packets, bytes) = flow_size_with(
            &mut self.normals,
            rng,
            median,
            sigma,
            self.cfg.bytes_per_packet,
        );

        // Start offset within the hour (high 32 bits) and duration
        // (low 32) share one more split u64.
        let timing = rng.next_u64();
        let start_ms = hour_start_ms + u64::from(map_bits_u32((timing >> 32) as u32, 3_600_000));
        let duration_ms = match kind {
            FlowKind::Api => 400 + u64::from(map_bits_u32(timing as u32, 5_600)),
            FlowKind::Website => 2_000 + u64::from(map_bits_u32(timing as u32, 43_000)),
            FlowKind::Background => 500 + u64::from(map_bits_u32(timing as u32, 59_500)),
        };

        FlowEvent {
            key: FlowKey {
                src_ip: server,
                dst_ip: client,
                src_port: 443,
                dst_port: 1024 + map_bits_u32(fields as u32, 63_977) as u16,
                protocol: Protocol::Tcp,
            },
            packets,
            bytes,
            start_ms,
            duration_ms,
            kind,
            district: alloc.district,
            isp: alloc.isp,
            downstream: true,
        }
    }

    fn account_truth(&mut self, ev: &FlowEvent, hour: u32, day: u32) {
        self.truth.total_events += 1;
        match ev.kind {
            FlowKind::Api => {
                self.truth.api_flows += 1;
                self.truth.cwa_flows_by_hour[hour as usize] += 1;
                self.truth.cwa_flows_by_day_district[day as usize][usize::from(ev.district.0)] += 1;
            }
            FlowKind::Website => {
                self.truth.web_flows += 1;
                self.truth.cwa_flows_by_hour[hour as usize] += 1;
                self.truth.cwa_flows_by_day_district[day as usize][usize::from(ev.district.0)] += 1;
            }
            FlowKind::Background => {
                self.truth.background_flows += 1;
            }
        }
    }
}

/// Builds the upstream (client→server) counterpart of a downstream flow.
fn upstream_of<R: Rng>(ev: &FlowEvent, rng: &mut R) -> FlowEvent {
    let packets = (ev.packets / 2).max(2);
    // Per-packet byte jitter (high 32 bits) and start backoff (low 32)
    // share one split u64.
    let bits = rng.next_u64();
    let bytes = packets * (80 + u64::from(map_bits_u32((bits >> 32) as u32, 60)));
    FlowEvent {
        key: ev.key.reversed(),
        packets,
        bytes,
        start_ms: ev
            .start_ms
            .saturating_sub(u64::from(map_bits_u32(bits as u32, 50))),
        duration_ms: ev.duration_ms,
        kind: ev.kind,
        district: ev.district,
        isp: ev.isp,
        downstream: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwa_epidemic::{AdoptionConfig, AdoptionModel, Timeline};
    use cwa_geo::AddressPlanConfig;

    fn small_setup() -> (Germany, AddressPlan, Scenario, AdoptionCurve) {
        let g = Germany::build();
        let plan = AddressPlan::build(
            &g,
            AddressPlanConfig {
                persons_per_subscription: 2.0,
                prefix_capacity: 16_384,
                prefix_len: 18,
            },
        );
        let gt = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .unwrap()
            .id;
        let scenario = Scenario::paper_default(&g, gt);
        let adoption = AdoptionModel::new(AdoptionConfig::default()).run(
            &g,
            &scenario,
            Timeline::measurement(),
        );
        (g, plan, scenario, adoption)
    }

    fn run_scaled(scale: f64, hours: u32) -> (Vec<FlowEvent>, GroundTruth) {
        let (g, plan, scenario, adoption) = small_setup();
        let cfg = TrafficConfig {
            scale,
            seed: 7,
            ..TrafficConfig::default()
        };
        let model = TrafficModel::new(
            &g,
            &plan,
            &scenario,
            &adoption,
            ActivityModel::default(),
            CdnConfig::default(),
            cfg,
            hours,
        );
        let mut events = Vec::new();
        let truth = model.run(&mut |ev| events.push(*ev));
        (events, truth)
    }

    #[test]
    fn flows_appear_after_release() {
        let (_, truth) = run_scaled(0.0005, 72);
        let day0: u64 = truth.cwa_flows_by_hour[..24].iter().sum();
        let day1: u64 = truth.cwa_flows_by_hour[24..48].iter().sum();
        assert!(day1 > day0 * 3, "release jump: day0 {day0}, day1 {day1}");
        assert!(day0 > 0, "pre-release website traffic exists");
    }

    #[test]
    fn event_stream_matches_truth_counts() {
        let (events, truth) = run_scaled(0.0005, 48);
        let down_cwa = events
            .iter()
            .filter(|e| e.downstream && e.kind != FlowKind::Background)
            .count() as u64;
        assert_eq!(down_cwa, truth.api_flows + truth.web_flows);
        assert_eq!(events.len() as u64, truth.total_events);
    }

    #[test]
    fn upstream_mirrors_downstream() {
        let (events, _) = run_scaled(0.0005, 30);
        let down = events.iter().filter(|e| e.downstream).count();
        let up = events.iter().filter(|e| !e.downstream).count();
        assert_eq!(down, up);
        // Upstream flows reverse the 5-tuple and carry fewer bytes.
        let d = events.iter().find(|e| e.downstream).unwrap();
        let u = events
            .iter()
            .find(|e| !e.downstream && e.key == d.key.reversed());
        if let Some(u) = u {
            assert!(u.bytes < d.bytes);
        }
    }

    #[test]
    fn downstream_cwa_flows_come_from_cdn() {
        let (events, _) = run_scaled(0.0005, 30);
        let cdn = CdnConfig::default();
        for e in events
            .iter()
            .filter(|e| e.downstream && e.kind != FlowKind::Background)
        {
            assert!(cdn.is_service_addr(e.key.src_ip), "src {}", e.key.src_ip);
            assert_eq!(e.key.src_port, 443);
        }
    }

    #[test]
    fn background_flows_avoid_cdn_prefixes() {
        let (events, _) = run_scaled(0.0005, 30);
        let cdn = CdnConfig::default();
        for e in events
            .iter()
            .filter(|e| e.kind == FlowKind::Background && e.downstream)
        {
            assert!(!cdn.is_service_addr(e.key.src_ip));
        }
    }

    #[test]
    fn clients_live_in_their_allocation() {
        let (g, plan, scenario, adoption) = small_setup();
        let cfg = TrafficConfig {
            scale: 0.0005,
            seed: 9,
            ..TrafficConfig::default()
        };
        let model = TrafficModel::new(
            &g,
            &plan,
            &scenario,
            &adoption,
            ActivityModel::default(),
            CdnConfig::default(),
            cfg,
            30,
        );
        let mut ok = 0u64;
        let mut total = 0u64;
        let truth = model.run(&mut |ev| {
            if ev.downstream {
                total += 1;
                if let Some(a) = plan.lookup(ev.key.dst_ip) {
                    if a.district == ev.district && a.isp == ev.isp {
                        ok += 1;
                    }
                }
            }
        });
        assert!(total > 100, "enough samples: {total}");
        assert_eq!(
            ok, total,
            "every client address maps back to its allocation"
        );
        let _ = truth;
    }

    #[test]
    fn scale_scales_volume_linearly() {
        let (_, t1) = run_scaled(0.0005, 48);
        let (_, t2) = run_scaled(0.001, 48);
        let r = t2.api_flows as f64 / t1.api_flows.max(1) as f64;
        assert!((1.6..2.6).contains(&r), "volume ratio {r}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_scaled(0.0005, 24);
        let (b, _) = run_scaled(0.0005, 24);
        assert_eq!(a, b);
    }

    #[test]
    fn diurnal_pattern_visible() {
        let (_, truth) = run_scaled(0.002, 264);
        // Compare 03:00 vs 20:00 on a post-release day (day 5).
        let night = truth.cwa_flows_by_hour[5 * 24 + 3];
        let evening = truth.cwa_flows_by_hour[5 * 24 + 20];
        assert!(
            evening as f64 > night as f64 * 2.5,
            "diurnal: night {night}, evening {evening}"
        );
    }
}
