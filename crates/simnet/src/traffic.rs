//! The prefix-cohort traffic generator, sampled at generation.
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
//! each a request/response pair with a log-normal downstream packet
//! count, an upstream (client→server) counterpart, and client
//! addresses drawn according to the owning ISP's static/dynamic
//! assignment behaviour.
//!
//! **Sampling at generation.** The measuring routers keep 1 packet in
//! N (`TrafficConfig::sampling_interval`), so at 1:1000 over 97 % of
//! all pairs never reach a flow cache. The generator therefore draws
//! only the pairs a router samples, exactly in law: per (district,
//! hour, kind) it draws the total pair count `n ~ Poisson(Λ)` (the sum
//! of its cohorts' independent Poisson counts — this feeds
//! [`GroundTruth`] and the flow-event counters), thins it with
//! [`PairThinning`] (candidates by an envelope, kept with the exact
//! seen probability, sampled counts from the conditioned binomials),
//! and only then places each kept pair in a cohort, in proportion to
//! the cohorts' rates — exact, because the thinning depends only on
//! kind and day. Every emitted [`FlowEvent`] carries its sampled
//! packet count; routers account it and draw nothing.
//!
//! **RNG layout.** One ChaCha8 stream per (district, hour): the key
//! comes from the traffic seed, the stream id is `hour << 32 |
//! district`, so the key and the id alone fix every draw of that
//! district-hour, in any execution order. Each stream draws the three
//! kinds' totals first and thins them after, so the ground truth does
//! not depend on the sampling interval: runs at 1:1, 1:100 and 1:1000
//! draw the same totals.
//!
//! All figure-level outputs downstream are normalized, so a global
//! `scale` factor shrinks the run without changing any reproduced shape
//! (claim C1, the absolute flow count, is reported scale-adjusted).

use std::net::Ipv4Addr;
use std::sync::Arc;

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use cwa_epidemic::{ActivityModel, AdoptionCurve, Scenario};
use cwa_geo::{AccessKind, AddressPlan, DistrictId, Germany, IspId};
use cwa_netflow::flow::{FlowKey, Protocol};
use cwa_obs::{Counter, Registry};
use cwa_samplers::{map_bits_u32, poisson, NormalCache, PairThinning, SampledPair};

use crate::cdn::CdnConfig;
use crate::vantage::DEFAULT_SAMPLING_INTERVAL;

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

/// The kinds in generation order.
const KINDS: [FlowKind; 3] = [FlowKind::Api, FlowKind::Website, FlowKind::Background];

/// One generated flow (both directions of a pair are separate events,
/// as unidirectional NetFlow sees them). Only flows the routers sample
/// are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEvent {
    /// 5-tuple.
    pub key: FlowKey,
    /// True packet count (before sampling).
    pub packets: u64,
    /// True byte count (before sampling).
    pub bytes: u64,
    /// Packets of this flow the router's 1-in-N sampler keeps (≥ 1 on
    /// every generated event, ≤ `packets`).
    pub sampled: u64,
    /// The interval N this event was sampled at; a router accepts only
    /// events sampled at its own interval.
    pub sampling_interval: u32,
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
    /// Packet sampling interval N (1-in-N) of the routers the traffic
    /// is generated for: only flows they sample are emitted. Must equal
    /// the routers' `VantageConfig::sampling_interval`, which
    /// `Router::observe` asserts.
    pub sampling_interval: u32,
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
            sampling_interval: DEFAULT_SAMPLING_INTERVAL,
        }
    }
}

/// Calibration ground truth accumulated during generation, over *all*
/// generated flows (seen or not). The analysis pipeline must never
/// read this; integration tests compare the pipeline's *measured*
/// results against it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// The allocations of one ISP in one district: their rates are
/// proportional to capacity, so one rate per kind covers the group.
#[derive(Debug, Clone)]
struct CohortGroup {
    isp: IspId,
    access: AccessKind,
    /// The group's share of its district's subscribers.
    share: f64,
    /// The group's slice of `TrafficModel::members`.
    members: std::ops::Range<usize>,
}

/// Generator counters, added once per generated hour.
struct TrafficMetrics {
    flow_events: Arc<Counter>,
    candidates: Arc<Counter>,
    kept: Arc<Counter>,
}

/// Per-hour tallies the generator publishes.
#[derive(Default)]
struct HourTally {
    events: u64,
    candidates: u64,
    kept: u64,
}

/// The generator.
pub struct TrafficModel<'a> {
    plan: &'a AddressPlan,
    scenario: &'a Scenario,
    adoption: &'a AdoptionCurve,
    activity: ActivityModel,
    cdn: CdnConfig,
    cfg: TrafficConfig,
    /// Cohort groups in (district, ISP) order.
    groups: Vec<CohortGroup>,
    /// `groups` slice of each district.
    district_groups: Vec<std::ops::Range<usize>>,
    /// Allocation indices, grouped, with their cumulative capacity
    /// inside the group.
    members: Vec<(u32, u32)>,
    /// Extra downstream packets per API flow per day, from the growing
    /// key-export payload (empty ⇒ no adjustment).
    export_extra_packets: Vec<f64>,
    /// Keyed from the seed, at block 0; cloned and pointed at one
    /// stream per (district, hour).
    streams: ChaCha8Rng,
    truth: GroundTruth,
    hours: u32,
    metrics: Option<TrafficMetrics>,
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
        let allocations = plan.allocations();
        let mut district_subscribers = vec![0.0f64; germany.len()];
        for alloc in allocations {
            district_subscribers[usize::from(alloc.district.0)] += f64::from(alloc.capacity);
        }
        // Allocation indices in (district, ISP) order, index order inside.
        let key = |i: &u32| {
            let a = &allocations[*i as usize];
            (a.district.0, a.isp.0)
        };
        let mut order: Vec<u32> = (0..allocations.len() as u32).collect();
        order.sort_by_key(key);
        let mut groups = Vec::new();
        let mut district_groups = vec![0..0; germany.len()];
        let mut members = Vec::with_capacity(allocations.len());
        for run in order.chunk_by(|a, b| key(a) == key(b)) {
            let first = &allocations[run[0] as usize];
            let d = usize::from(first.district.0);
            if district_groups[d].is_empty() {
                district_groups[d] = groups.len()..groups.len();
            }
            district_groups[d].end = groups.len() + 1;
            let start = members.len();
            let mut capacity = 0u32;
            for &i in run {
                capacity += allocations[i as usize].capacity;
                members.push((i, capacity));
            }
            groups.push(CohortGroup {
                isp: first.isp,
                access: plan.isp(first.isp).access,
                share: f64::from(capacity) / district_subscribers[d].max(1.0),
                members: start..members.len(),
            });
        }
        let days = hours.div_ceil(24);
        TrafficModel {
            plan,
            scenario,
            adoption,
            activity,
            cdn,
            cfg,
            groups,
            district_groups,
            members,
            export_extra_packets: Vec::new(),
            streams: ChaCha8Rng::seed_from_u64(cfg.seed),
            truth: GroundTruth::new(hours, days, germany.len()),
            hours,
            metrics: None,
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

    /// Counts into `registry`, once per generated hour: every generated
    /// flow event, seen or not (`simnet.traffic.flow_events`, equal to
    /// [`GroundTruth::total_events`]), and the thinning's candidates and
    /// kept pairs (`simnet.traffic.thinning_candidates` / `thinning_kept`).
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(TrafficMetrics {
            flow_events: registry.counter("simnet.traffic.flow_events"),
            candidates: registry.counter("simnet.traffic.thinning_candidates"),
            kept: registry.counter("simnet.traffic.thinning_kept"),
        });
        self
    }

    /// Downstream size law `(median packets, σ)` of `kind` on `day`.
    fn size_law(&self, kind: FlowKind, day: u32) -> (f64, f64) {
        match kind {
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
        }
    }

    /// Generates one hour of traffic, passing every flow event a router
    /// samples to `sink`. Call with `hour` strictly increasing from 0.
    pub fn generate_hour<F: FnMut(&FlowEvent)>(&mut self, hour: u32, sink: &mut F) {
        debug_assert!(hour < self.hours);
        let day = hour / 24;
        let hod = hour % 24;
        let hour_start_ms = u64::from(hour) * 3_600_000;

        let national_media = self.scenario.national_media_factor(hour);
        let local_extras = self.scenario.local_media_extras(hour);
        let web_national = self.activity.website_visits_per_hour(hour, national_media);
        let api_national = self
            .activity
            .api_requests_per_user_hour(hod, national_media);
        let thinning = KINDS.map(|kind| {
            let (median, sigma) = self.size_law(kind, day);
            PairThinning::new(median, sigma, self.cfg.sampling_interval)
        });

        let mut tally = HourTally::default();
        let mut rates: Vec<[f64; 3]> = Vec::new();
        for d in 0..self.district_groups.len() {
            let group_range = self.district_groups[d].clone();
            let district = DistrictId(d as u16);
            let installed = self.adoption.installed_in(district, hour);
            let web_district = web_national * self.adoption.district_share[d];
            rates.clear();
            let mut totals = [0.0f64; 3];
            for group in &self.groups[group_range.clone()] {
                // Media factor seen by this group's cohorts.
                let mut media = national_media;
                for &(ld, lisp, extra) in &local_extras {
                    if ld == district && lisp.is_none_or(|i| i == group.isp) {
                        media += extra;
                    }
                }
                let api_rate = if media == national_media {
                    api_national
                } else {
                    self.activity.api_requests_per_user_hour(hod, media)
                };
                let api =
                    installed * group.share * api_rate * self.cfg.retry_factor * self.cfg.scale;
                // Website visitors: national visit volume allocated by
                // adoption share, modulated by the *local* media factor
                // relative to the national one.
                let web = web_district * group.share * (media / national_media) * self.cfg.scale;
                let bg = (api + web) * self.cfg.background_ratio;
                let lam = [api, web, bg];
                for (total, l) in totals.iter_mut().zip(lam) {
                    *total += l;
                }
                rates.push(lam);
            }
            if totals.iter().all(|&t| t <= 0.0) {
                continue;
            }

            let mut rng = self.streams.clone();
            rng.set_stream((u64::from(hour) << 32) | d as u64);
            // All three totals come first, so they — the ground truth —
            // do not depend on what the thinning draws after them.
            let counts = totals.map(|lam| poisson(&mut rng, lam));
            let mut normals = NormalCache::new();
            for (ki, kind) in KINDS.into_iter().enumerate() {
                let n = counts[ki];
                if n == 0 {
                    continue;
                }
                self.account_truth(kind, n, hour, d);
                tally.events += 2 * n;
                let groups = &self.groups[group_range.clone()];
                let weights = rates.iter().map(|r| r[ki]);
                tally.candidates += thinning[ki].thin(&mut normals, &mut rng, n, |rng, pair| {
                    tally.kept += 1;
                    // The cohort, in proportion to rate (high 32 bits),
                    // and its allocation slot (low 32).
                    let place = rng.next_u64();
                    let group = pick_group(groups, weights.clone(), totals[ki], place);
                    self.emit_pair(
                        rng,
                        kind,
                        district,
                        group,
                        place as u32,
                        pair,
                        day,
                        hour_start_ms,
                        sink,
                    );
                });
            }
        }
        if let Some(m) = &self.metrics {
            m.flow_events.add(tally.events);
            m.candidates.add(tally.candidates);
            m.kept.add(tally.kept);
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

    /// Accounts `n` generated pairs of `kind` in `district` (index `d`).
    fn account_truth(&mut self, kind: FlowKind, n: u64, hour: u32, d: usize) {
        let truth = &mut self.truth;
        truth.total_events += 2 * n;
        match kind {
            FlowKind::Api => truth.api_flows += n,
            FlowKind::Website => truth.web_flows += n,
            FlowKind::Background => {
                truth.background_flows += 2 * n;
                return;
            }
        }
        truth.cwa_flows_by_hour[hour as usize] += n;
        truth.cwa_flows_by_day_district[(hour / 24) as usize][d] += n;
    }

    /// Places one kept pair in the allocation of `group` that 32 random
    /// `place_bits` pick in proportion to capacity, draws its address,
    /// port, server, timing and byte fields, and emits each direction
    /// that has a sampled packet.
    #[allow(clippy::too_many_arguments)]
    fn emit_pair<R: Rng, F: FnMut(&FlowEvent)>(
        &self,
        rng: &mut R,
        kind: FlowKind,
        district: DistrictId,
        group: &CohortGroup,
        place_bits: u32,
        pair: SampledPair,
        day: u32,
        hour_start_ms: u64,
        sink: &mut F,
    ) {
        let members = &self.members[group.members.clone()];
        let place = map_bits_u32(place_bits, members.last().map_or(1, |m| m.1));
        let member = members[members.partition_point(|m| m.1 <= place)];
        let alloc = &self.plan.allocations()[member.0 as usize];
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
        let host = match group.access {
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

        // Bytes-per-packet jitter around the configured mean.
        let bpp = (self.cfg.bytes_per_packet * (0.85 + 0.3 * rng.gen::<f64>())).max(60.0);

        // Start offset within the hour (high 32 bits) and duration
        // (low 32) share one more split u64.
        let timing = rng.next_u64();
        let start_ms = hour_start_ms + u64::from(map_bits_u32((timing >> 32) as u32, 3_600_000));
        let duration_ms = match kind {
            FlowKind::Api => 400 + u64::from(map_bits_u32(timing as u32, 5_600)),
            FlowKind::Website => 2_000 + u64::from(map_bits_u32(timing as u32, 43_000)),
            FlowKind::Background => 500 + u64::from(map_bits_u32(timing as u32, 59_500)),
        };

        let down = FlowEvent {
            key: FlowKey {
                src_ip: server,
                dst_ip: client,
                src_port: 443,
                dst_port: 1024 + map_bits_u32(fields as u32, 63_977) as u16,
                protocol: Protocol::Tcp,
            },
            packets: pair.packets,
            bytes: (pair.packets as f64 * bpp) as u64,
            sampled: pair.sampled,
            sampling_interval: self.cfg.sampling_interval,
            start_ms,
            duration_ms,
            kind,
            district,
            isp: group.isp,
            downstream: true,
        };

        // The upstream (request) direction: per-packet byte jitter (high
        // 32 bits) and start backoff (low 32) share one split u64.
        let bits = rng.next_u64();
        let up = FlowEvent {
            key: down.key.reversed(),
            packets: pair.upstream_packets,
            bytes: pair.upstream_packets * (80 + u64::from(map_bits_u32((bits >> 32) as u32, 60))),
            sampled: pair.upstream_sampled,
            start_ms: start_ms.saturating_sub(u64::from(map_bits_u32(bits as u32, 50))),
            downstream: false,
            ..down
        };
        if down.sampled > 0 {
            sink(&down);
        }
        if up.sampled > 0 {
            sink(&up);
        }
    }
}

/// Picks a cohort group in proportion to its rate: a uniform made from
/// the high 32 of `bits` against the running sum of `weights`, which
/// total `total`.
fn pick_group(
    groups: &[CohortGroup],
    weights: impl Iterator<Item = f64>,
    total: f64,
    bits: u64,
) -> &CohortGroup {
    let target = (bits >> 32) as f64 * (1.0 / (1u64 << 32) as f64) * total;
    let mut acc = 0.0;
    let mut last = 0;
    for (i, w) in weights.enumerate() {
        if w > 0.0 {
            acc += w;
            last = i;
            if target < acc {
                break;
            }
        }
    }
    &groups[last]
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

    /// Runs `hours` hours at `scale`, sampling 1 in `interval`.
    fn run_sampled(scale: f64, hours: u32, interval: u32) -> (Vec<FlowEvent>, GroundTruth) {
        let (g, plan, scenario, adoption) = small_setup();
        let cfg = TrafficConfig {
            scale,
            seed: 7,
            sampling_interval: interval,
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

    /// Unsampled (1:1) runs emit every generated flow.
    fn run_scaled(scale: f64, hours: u32) -> (Vec<FlowEvent>, GroundTruth) {
        run_sampled(scale, hours, 1)
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
        // Unsampled, every generated flow is emitted with all its packets.
        let (events, truth) = run_scaled(0.0005, 48);
        let down_cwa = events
            .iter()
            .filter(|e| e.downstream && e.kind != FlowKind::Background)
            .count() as u64;
        assert_eq!(down_cwa, truth.api_flows + truth.web_flows);
        assert_eq!(events.len() as u64, truth.total_events);
        assert!(events
            .iter()
            .all(|e| e.sampled == e.packets && e.sampling_interval == 1));
    }

    #[test]
    fn ground_truth_does_not_depend_on_the_sampling_interval() {
        let (all, truth) = run_scaled(0.002, 48);
        assert_eq!(all.len() as u64, truth.total_events);
        for interval in [100, 1000] {
            let (seen, sampled_truth) = run_sampled(0.002, 48, interval);
            assert_eq!(sampled_truth, truth, "1:{interval}");
            assert!(seen.len() < all.len() / 4, "1:{interval}: {}", seen.len());
        }
    }

    #[test]
    fn heavy_sampling_drops_most_small_flows() {
        // At 1:1000 a pair of ~16–24-packet flows is seen with a few
        // percent probability, and a seen flow shows about one packet.
        let (events, truth) = run_sampled(0.004, 48, 1000);
        let pairs = truth.total_events / 2;
        let down = events.iter().filter(|e| e.downstream).count() as u64;
        let up = events.len() as u64 - down;
        let seen_share = down.max(up) as f64 / pairs as f64;
        assert!(
            (0.005..0.08).contains(&seen_share),
            "{down} down / {up} up events of {pairs} pairs"
        );
        let sampled: u64 = events.iter().map(|e| e.sampled).sum();
        let avg = sampled as f64 / events.len() as f64;
        assert!(avg < 1.2, "avg sampled packets {avg}");
        for e in &events {
            assert!(e.sampled >= 1 && e.sampled <= e.packets, "{e:?}");
            assert_eq!(e.sampling_interval, 1000);
        }
    }

    #[test]
    fn upstream_mirrors_downstream() {
        let (events, _) = run_scaled(0.0005, 30);
        let down = events.iter().filter(|e| e.downstream).count();
        let up = events.iter().filter(|e| !e.downstream).count();
        assert_eq!(down, up);
        // Upstream flows reverse the 5-tuple and carry fewer bytes.
        for pair in events.chunks(2) {
            let (d, u) = (&pair[0], &pair[1]);
            assert!(d.downstream && !u.downstream);
            assert_eq!(u.key, d.key.reversed());
            assert_eq!(u.packets, (d.packets / 2).max(2));
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
            sampling_interval: 1,
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
        model.run(&mut |ev| {
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
        let (a, _) = run_sampled(0.002, 24, 1000);
        let (b, _) = run_sampled(0.002, 24, 1000);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn each_hour_is_its_own_stream() {
        // One RNG stream per (district, hour): an hour generated alone
        // equals the same hour of a full run.
        let (g, plan, scenario, adoption) = small_setup();
        let model = || {
            TrafficModel::new(
                &g,
                &plan,
                &scenario,
                &adoption,
                ActivityModel::default(),
                CdnConfig::default(),
                TrafficConfig {
                    scale: 0.003,
                    seed: 11,
                    ..TrafficConfig::default()
                },
                40,
            )
        };
        let mut full = Vec::new();
        let mut m = model();
        for hour in 0..=37 {
            full.clear();
            m.generate_hour(hour, &mut |ev| full.push(*ev));
        }
        let mut alone = Vec::new();
        model().generate_hour(37, &mut |ev| alone.push(*ev));
        assert!(!alone.is_empty());
        assert_eq!(full, alone);
    }

    #[test]
    fn thinning_counters_add_up() {
        let (g, plan, scenario, adoption) = small_setup();
        let registry = Registry::new();
        let model = TrafficModel::new(
            &g,
            &plan,
            &scenario,
            &adoption,
            ActivityModel::default(),
            CdnConfig::default(),
            TrafficConfig {
                scale: 0.002,
                ..TrafficConfig::default()
            },
            48,
        )
        .with_metrics(&registry);
        let mut down = 0u64;
        let mut up = 0u64;
        let truth = model.run(&mut |ev| {
            if ev.downstream {
                down += 1;
            } else {
                up += 1;
            }
        });
        let count = |name: &str| registry.counter(name).get();
        assert_eq!(count("simnet.traffic.flow_events"), truth.total_events);
        let (candidates, kept) = (
            count("simnet.traffic.thinning_candidates"),
            count("simnet.traffic.thinning_kept"),
        );
        assert!(kept <= candidates && candidates < truth.total_events / 2);
        // Every kept pair emits at least one direction, at most both.
        assert!(
            down.max(up) <= kept && kept <= down + up,
            "{down} {up} {kept}"
        );
    }

    #[test]
    fn diurnal_pattern_visible() {
        let (_, truth) = run_sampled(0.002, 264, 1000);
        // Compare 03:00 vs 20:00 on a post-release day (day 5).
        let night = truth.cwa_flows_by_hour[5 * 24 + 3];
        let evening = truth.cwa_flows_by_hour[5 * 24 + 20];
        assert!(
            evening as f64 > night as f64 * 2.5,
            "diurnal: night {night}, evening {evening}"
        );
    }
}
