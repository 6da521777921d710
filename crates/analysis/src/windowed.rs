//! Live windowed views over the streaming consumers.
//!
//! The paper's measurement was a *standing* observation: the vantage
//! point watched CWA traffic continuously and every figure is a view
//! over a growing window. [`WindowedView`] is that layer for the
//! reproduction's live mode: it wraps all four incremental consumers
//! ([`HourlySeries`], [`GeoDayAccumulator`], [`PersistenceAnalysis`],
//! [`OutbreakAccumulator`]) and additionally maintains a sliding
//! last-N-days window with **tiered downsampling** so an endless run
//! stays memory-bounded:
//!
//! * **window tier** — one raw hour-resolution cell per day for the most
//!   recent `window_days` days (default 14, matching the TEK retention
//!   the exposure model uses),
//! * **daily tier** — evicted days downsampled to one [`DaySummary`]
//!   each, retained for `daily_retention` days,
//! * **total tier** — lifetime sums; days falling off the daily tier
//!   collapse into these and are only counted, never re-expanded.
//!
//! Day boundaries are driven by the producer's export-hour
//! [`checkpoint`](FlowSink::checkpoint)s, *not* by record timestamps, so
//! every shard of the sharded driver advances (and evicts) at exactly
//! the same stream positions — which is what makes eviction commute
//! with [`absorb`](WindowedView::absorb).

use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use cwa_geo::{DistrictId, Germany};
use cwa_netflow::flow::{prefix_of, FlowRecord};
use cwa_netflow::hash::KeySet;
use cwa_netflow::sink::{FlowChunk, FlowSink};

use crate::geoloc::{
    attribution_index, GeoAttribution, GeoDayAccumulator, GeoResult, GeolocationPipeline,
};
use crate::outbreak::{OutbreakAccumulator, OutbreakAnalysis};
use crate::persistence::PersistenceAnalysis;
use crate::timeseries::HourlySeries;

/// Retention knobs for the sliding tiers. Not part of the study
/// configuration — live retention must never perturb the config hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Days kept at raw hour resolution (the sliding window).
    pub window_days: u32,
    /// Evicted-day summaries kept before collapsing into totals.
    pub daily_retention: u32,
}

impl Default for WindowConfig {
    fn default() -> Self {
        // 14 days of raw window: the TEK retention period — a key can
        // matter for at most 14 days, so that is the natural "current
        // interest" horizon for the live figures.
        WindowConfig {
            window_days: 14,
            daily_retention: 64,
        }
    }
}

/// One day at raw hour resolution (the window tier).
#[derive(Debug, Clone)]
struct DayCell {
    day: u64,
    hour_flows: [u64; 24],
    hour_bytes: [u64; 24],
    district_flows: Vec<u64>,
    attributions: [u64; 3],
    state_flows: [u64; 16],
    /// Distinct client prefixes seen this day (window-resolution only:
    /// dropped at eviction — an unbounded cumulative prefix set is
    /// exactly what the tiering exists to avoid).
    prefixes: KeySet<u32>,
    /// Berlin-located flows by ISP id.
    berlin_isp: BTreeMap<u8, u64>,
}

impl DayCell {
    fn new(day: u64, districts: usize) -> Self {
        DayCell {
            day,
            hour_flows: [0; 24],
            hour_bytes: [0; 24],
            district_flows: vec![0; districts],
            attributions: [0; 3],
            state_flows: [0; 16],
            prefixes: KeySet::default(),
            berlin_isp: BTreeMap::new(),
        }
    }

    fn merge(&mut self, other: &DayCell) {
        for (a, b) in self.hour_flows.iter_mut().zip(&other.hour_flows) {
            *a += b;
        }
        for (a, b) in self.hour_bytes.iter_mut().zip(&other.hour_bytes) {
            *a += b;
        }
        for (a, b) in self.district_flows.iter_mut().zip(&other.district_flows) {
            *a += b;
        }
        for (a, b) in self.attributions.iter_mut().zip(&other.attributions) {
            *a += b;
        }
        for (a, b) in self.state_flows.iter_mut().zip(&other.state_flows) {
            *a += b;
        }
        self.prefixes.extend(&other.prefixes);
        for (isp, n) in &other.berlin_isp {
            *self.berlin_isp.entry(*isp).or_insert(0) += n;
        }
    }

    fn summary(&self) -> DaySummary {
        DaySummary {
            day: self.day,
            flows: self.hour_flows.iter().sum(),
            bytes: self.hour_bytes.iter().sum(),
            located: self.district_flows.iter().sum(),
        }
    }
}

/// One day downsampled to totals (the daily tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaySummary {
    /// Study day index.
    pub day: u64,
    /// Flows that day.
    pub flows: u64,
    /// Bytes that day.
    pub bytes: u64,
    /// Flows geolocated to some district that day.
    pub located: u64,
}

/// Lifetime sums (the total tier).
#[derive(Debug, Clone, Default)]
struct Totals {
    flows: u64,
    bytes: u64,
    attributions: [u64; 3],
    district_flows: Vec<u64>,
    state_flows: [u64; 16],
    /// Days whose daily summaries have been collapsed into the sums.
    days_collapsed: u64,
}

/// The live view: cumulative study-window consumers plus the sliding
/// window tiers. Generic over the ISP resolver exactly like
/// [`OutbreakAccumulator`].
///
/// `Clone` (for resolvers that are `Clone`) snapshots the full mergeable
/// state: the sharded live driver clones each shard's view at day
/// boundaries and [`absorb`](WindowedView::absorb)s the clones into an
/// interim merged view without disturbing the shards themselves.
#[derive(Clone)]
pub struct WindowedView<'a, F> {
    /// Study-window hourly series (identical to the batch consumer).
    pub series: HourlySeries,
    /// Study-window per-day geolocation tables.
    pub geo: GeoDayAccumulator<'a>,
    /// Study-window prefix persistence.
    pub persistence: PersistenceAnalysis,
    /// Study-window outbreak tables.
    pub outbreak: OutbreakAccumulator<'a, F>,
    germany: &'a Germany,
    pipeline: &'a GeolocationPipeline<'a>,
    isp_of: F,
    berlin: Option<DistrictId>,
    prefix_len: u8,
    config: WindowConfig,
    hours_seen: u64,
    window: VecDeque<DayCell>,
    daily: VecDeque<DaySummary>,
    totals: Totals,
}

impl<'a, F> WindowedView<'a, F>
where
    F: Fn(Ipv4Addr) -> Option<u8>,
{
    /// Creates a view whose study tier covers `[0, study_days)` (at most
    /// 64 days — the persistence bitmap's cap) and whose window tiers
    /// follow `config`. The resolver is cloned once so the outbreak
    /// study tier and the window tier resolve through the same table.
    pub fn new(
        germany: &'a Germany,
        pipeline: &'a GeolocationPipeline<'a>,
        isp_of: F,
        prefix_len: u8,
        study_days: u32,
        config: WindowConfig,
    ) -> Self
    where
        F: Clone,
    {
        assert!(config.window_days >= 1, "window needs at least one day");
        let n = germany.len();
        let mut window = VecDeque::new();
        window.push_back(DayCell::new(0, n));
        WindowedView {
            series: HourlySeries::new(study_days * 24),
            geo: GeoDayAccumulator::new(pipeline, study_days),
            persistence: PersistenceAnalysis::new(prefix_len, study_days),
            outbreak: OutbreakAccumulator::new(germany, pipeline, isp_of.clone(), study_days),
            germany,
            pipeline,
            isp_of,
            berlin: germany.by_name("Berlin").map(|d| d.id),
            prefix_len,
            config,
            hours_seen: 0,
            window,
            daily: VecDeque::new(),
            totals: Totals {
                district_flows: vec![0; n],
                ..Totals::default()
            },
        }
    }

    /// Hours of stream progression noted so far (one per producer
    /// checkpoint).
    pub fn hours_seen(&self) -> u64 {
        self.hours_seen
    }

    /// The current day index (completed days = `hours_seen / 24`).
    pub fn current_day(&self) -> u64 {
        self.hours_seen / 24
    }

    /// Notes one export-hour of stream progression. Every 24th call
    /// opens the next day cell and evicts cells that have slid out of
    /// the window. Drive this from the producer's checkpoints so all
    /// shards advance identically.
    pub fn note_hour(&mut self) {
        self.hours_seen += 1;
        if self.hours_seen.is_multiple_of(24) {
            let current_day = self.hours_seen / 24;
            self.open_day(current_day);
        }
    }

    fn open_day(&mut self, current_day: u64) {
        while self.back_day() < current_day {
            let next = self.back_day() + 1;
            self.window
                .push_back(DayCell::new(next, self.germany.len()));
        }
        while self.window.len() > self.config.window_days as usize {
            self.evict_front();
        }
    }

    fn back_day(&self) -> u64 {
        self.window
            .back()
            .map(|c| c.day)
            .expect("window never empty")
    }

    fn front_day(&self) -> u64 {
        self.window
            .front()
            .map(|c| c.day)
            .expect("window never empty")
    }

    fn evict_front(&mut self) {
        let cell = self.window.pop_front().expect("window never empty");
        let summary = cell.summary();
        self.totals.flows += summary.flows;
        self.totals.bytes += summary.bytes;
        for (t, c) in self.totals.attributions.iter_mut().zip(&cell.attributions) {
            *t += c;
        }
        for (t, c) in self
            .totals
            .district_flows
            .iter_mut()
            .zip(&cell.district_flows)
        {
            *t += c;
        }
        for (t, c) in self.totals.state_flows.iter_mut().zip(&cell.state_flows) {
            *t += c;
        }
        // Prefix set and per-ISP split are window-resolution only.
        self.daily.push_back(summary);
        while self.daily.len() > self.config.daily_retention as usize {
            self.daily.pop_front();
            self.totals.days_collapsed += 1;
        }
    }

    /// Feeds one (already §2-filtered) record into the window tier.
    fn window_observe(&mut self, first_ms: u64, dst: u32, bytes: u64) {
        let day = first_ms / 86_400_000;
        let hour_of_day = ((first_ms / 3_600_000) % 24) as usize;
        let client = Ipv4Addr::from(dst);
        let (district, attribution) = self.pipeline.locate(client);
        let front = self.front_day();
        if day < front {
            // Late record for an already-evicted day: its cell is gone,
            // fold straight into the total tier (deterministic — the
            // in-order producers never actually take this path).
            self.totals.flows += 1;
            self.totals.bytes += bytes;
            self.totals.attributions[attribution_index(attribution)] += 1;
            if let Some(d) = district {
                self.totals.district_flows[usize::from(d.0)] += 1;
                let state = self.germany.district(d).state;
                self.totals.state_flows[state.index()] += 1;
            }
            return;
        }
        while self.back_day() < day {
            let next = self.back_day() + 1;
            self.window
                .push_back(DayCell::new(next, self.germany.len()));
        }
        let idx = (day - front) as usize;
        let berlin = self.berlin;
        let isp = if district.is_some() && district == berlin {
            (self.isp_of)(client)
        } else {
            None
        };
        let cell = &mut self.window[idx];
        cell.hour_flows[hour_of_day] += 1;
        cell.hour_bytes[hour_of_day] += bytes;
        cell.attributions[attribution_index(attribution)] += 1;
        cell.prefixes
            .insert(u32::from(prefix_of(client, self.prefix_len)));
        if let Some(d) = district {
            cell.district_flows[usize::from(d.0)] += 1;
            let state = self.germany.district(d).state;
            cell.state_flows[state.index()] += 1;
        }
        if let Some(isp) = isp {
            *cell.berlin_isp.entry(isp).or_insert(0) += 1;
        }
    }

    /// Merges another view (same world, same checkpoint progression,
    /// same retention config) into this one. The other view may use a
    /// different resolver type, exactly like
    /// [`OutbreakAccumulator::absorb`]. Because day boundaries are
    /// checkpoint-driven, both views evicted at identical stream
    /// positions, so merging evicted views equals evicting the merged
    /// view — the commute the sharded driver relies on.
    pub fn absorb<G>(&mut self, other: &WindowedView<'_, G>)
    where
        G: Fn(Ipv4Addr) -> Option<u8>,
    {
        assert_eq!(
            self.hours_seen, other.hours_seen,
            "same checkpoint progression required"
        );
        assert_eq!(self.config, other.config, "same retention config required");
        assert_eq!(
            self.prefix_len, other.prefix_len,
            "same prefix length required"
        );
        self.series.absorb(&other.series);
        self.geo.absorb(&other.geo);
        self.persistence.absorb(&other.persistence);
        self.outbreak.absorb(&other.outbreak);

        for cell in &other.window {
            assert!(
                cell.day >= self.front_day(),
                "window misaligned: day {} already evicted",
                cell.day
            );
            while self.back_day() < cell.day {
                let next = self.back_day() + 1;
                self.window
                    .push_back(DayCell::new(next, self.germany.len()));
            }
            let idx = (cell.day - self.front_day()) as usize;
            self.window[idx].merge(cell);
        }

        assert_eq!(
            self.daily.len(),
            other.daily.len(),
            "same daily-tier coverage required"
        );
        for (mine, theirs) in self.daily.iter_mut().zip(&other.daily) {
            assert_eq!(mine.day, theirs.day, "daily tier misaligned");
            mine.flows += theirs.flows;
            mine.bytes += theirs.bytes;
            mine.located += theirs.located;
        }

        self.totals.flows += other.totals.flows;
        self.totals.bytes += other.totals.bytes;
        for (a, b) in self
            .totals
            .attributions
            .iter_mut()
            .zip(&other.totals.attributions)
        {
            *a += b;
        }
        for (a, b) in self
            .totals
            .district_flows
            .iter_mut()
            .zip(&other.totals.district_flows)
        {
            *a += b;
        }
        for (a, b) in self
            .totals
            .state_flows
            .iter_mut()
            .zip(&other.totals.state_flows)
        {
            *a += b;
        }
    }

    /// Serializable snapshot of both the cumulative and the windowed
    /// state — what the live HTTP endpoints publish.
    pub fn snapshot(&self) -> WindowedSnapshot {
        let mut daily: Vec<DaySummary> = self.daily.iter().copied().collect();
        let mut cumulative = CumulativeSnapshot {
            flows: self.totals.flows,
            bytes: self.totals.bytes,
            attributions: self.totals.attributions,
            district_flows: self.totals.district_flows.clone(),
            state_flows: self.totals.state_flows,
            daily: Vec::new(),
            days_collapsed: self.totals.days_collapsed,
        };
        let mut hourly_flows = Vec::with_capacity(self.window.len() * 24);
        let mut hourly_bytes = Vec::with_capacity(self.window.len() * 24);
        let mut window_district = vec![0u64; self.germany.len()];
        let mut window_attr = [0u64; 3];
        let mut state_daily = Vec::with_capacity(self.window.len());
        let mut prefix_union: KeySet<u32> = KeySet::default();
        let mut berlin: BTreeMap<u8, Vec<u64>> = BTreeMap::new();
        for (i, cell) in self.window.iter().enumerate() {
            let summary = cell.summary();
            cumulative.flows += summary.flows;
            cumulative.bytes += summary.bytes;
            for (a, b) in cumulative.attributions.iter_mut().zip(&cell.attributions) {
                *a += b;
            }
            for (a, b) in cumulative
                .district_flows
                .iter_mut()
                .zip(&cell.district_flows)
            {
                *a += b;
            }
            for (a, b) in cumulative.state_flows.iter_mut().zip(&cell.state_flows) {
                *a += b;
            }
            daily.push(summary);
            hourly_flows.extend_from_slice(&cell.hour_flows);
            hourly_bytes.extend_from_slice(&cell.hour_bytes);
            for (a, b) in window_district.iter_mut().zip(&cell.district_flows) {
                *a += b;
            }
            for (a, b) in window_attr.iter_mut().zip(&cell.attributions) {
                *a += b;
            }
            state_daily.push(cell.state_flows);
            prefix_union.extend(&cell.prefixes);
            for (isp, n) in &cell.berlin_isp {
                berlin
                    .entry(*isp)
                    .or_insert_with(|| vec![0u64; self.window.len()])[i] += n;
            }
        }
        cumulative.daily = daily;
        WindowedSnapshot {
            hours_seen: self.hours_seen,
            day: self.current_day(),
            cumulative,
            window: WindowSnapshot {
                from_day: self.front_day(),
                to_day: self.back_day() + 1,
                hourly_flows,
                hourly_bytes,
                district_flows: window_district,
                attributions: window_attr,
                state_daily,
                berlin_isp_daily: berlin.into_iter().collect(),
                distinct_prefixes: prefix_union.len() as u64,
            },
        }
    }

    /// Approximate count of live `u64`-sized slots held by the sliding
    /// tiers plus the persistence map (the only study-tier structure
    /// that grows with data; it saturates once the ≤64-day study window
    /// has passed). The endless-mode memory bound is asserted on this.
    pub fn resident_slots(&self) -> usize {
        let mut n = 0;
        for cell in &self.window {
            n += 24 * 2
                + cell.district_flows.len()
                + 3
                + 16
                + cell.prefixes.len()
                + cell.berlin_isp.len() * 2;
        }
        n += self.daily.len() * 4;
        n += self.totals.district_flows.len() + 16 + 3 + 3;
        n += self.persistence.prefix_count();
        n
    }
}

/// A snapshot of a [`WindowedView`] (the serialized live payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedSnapshot {
    /// Export hours noted so far.
    pub hours_seen: u64,
    /// Completed days (`hours_seen / 24`).
    pub day: u64,
    /// Lifetime view (total tier + daily tier + live window).
    pub cumulative: CumulativeSnapshot,
    /// Sliding-window view at raw hour resolution.
    pub window: WindowSnapshot,
}

/// Lifetime sums plus the retained per-day series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CumulativeSnapshot {
    /// All flows ever observed.
    pub flows: u64,
    /// All bytes ever observed.
    pub bytes: u64,
    /// Lifetime geolocation attribution counts
    /// (ground-truth/geodb/unlocated).
    pub attributions: [u64; 3],
    /// Lifetime flows per district.
    pub district_flows: Vec<u64>,
    /// Lifetime flows per federal state.
    pub state_flows: [u64; 16],
    /// Retained per-day summaries (daily tier, then the live window),
    /// oldest first. Days older than the daily retention only exist in
    /// the sums above.
    pub daily: Vec<DaySummary>,
    /// Days collapsed out of the daily tier into the sums.
    pub days_collapsed: u64,
}

/// The sliding window at raw hour resolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowSnapshot {
    /// First day covered by the window (inclusive).
    pub from_day: u64,
    /// One past the last day covered.
    pub to_day: u64,
    /// Flows per hour across the window, oldest hour first.
    pub hourly_flows: Vec<u64>,
    /// Bytes per hour across the window.
    pub hourly_bytes: Vec<u64>,
    /// Window flows per district.
    pub district_flows: Vec<u64>,
    /// Window geolocation attribution counts.
    pub attributions: [u64; 3],
    /// Per-day federal-state flows across the window, oldest first.
    pub state_daily: Vec<[u64; 16]>,
    /// Berlin-located flows by ISP, one per-window-day series each,
    /// sorted by ISP id.
    pub berlin_isp_daily: Vec<(u8, Vec<u64>)>,
    /// Distinct client prefixes seen inside the window.
    pub distinct_prefixes: u64,
}

impl WindowSnapshot {
    /// The window's hours as an [`HourlySeries`] over study hours
    /// `[0, days × 24)`: each window hour sits at its absolute position
    /// and every other hour reads zero, so day-anchored statistics read
    /// the window as they read the cumulative series (the release jump
    /// is NaN once day 0 has slid out). Window days at or past `days`
    /// are left out, as the study-tier consumers drop records past
    /// their horizon.
    pub fn series(&self, days: u32) -> HourlySeries {
        let mut series = HourlySeries::new(days * 24);
        let start = self.from_day as usize * 24;
        place(&mut series.flows, start, &self.hourly_flows);
        place(&mut series.bytes, start, &self.hourly_bytes);
        series
    }

    /// The window's geolocations, summed over all its days.
    pub fn geo(&self) -> GeoResult {
        let attribution_counts = [
            GeoAttribution::RouterGroundTruth,
            GeoAttribution::GeoDatabase,
            GeoAttribution::Unlocated,
        ]
        .into_iter()
        .map(|attr| (attr, self.attributions[attribution_index(attr)]))
        .filter(|&(_, count)| count > 0)
        .collect();
        GeoResult {
            district_flows: self.district_flows.clone(),
            attribution_counts,
        }
    }

    /// The window's outbreak tables over study days `[0, days)`, indexed
    /// by absolute day like [`series`](WindowSnapshot::series). The
    /// window tier keeps no per-day district table, so
    /// [`OutbreakAnalysis::district_flows`] reads zero throughout.
    pub fn outbreak(&self, days: u32) -> OutbreakAnalysis {
        let mut tables = OutbreakAnalysis::new(self.district_flows.len(), days);
        let start = self.from_day as usize;
        place(&mut tables.state_flows, start, &self.state_daily);
        for (isp, window_days) in &self.berlin_isp_daily {
            let mut per_day = vec![0; days as usize];
            place(&mut per_day, start, window_days);
            tables.berlin_isp_flows.insert(*isp, per_day);
        }
        tables
    }
}

/// Copies window-relative `values` into `out` from index `start` on;
/// values that fall past the end of `out` are dropped.
fn place<T: Copy>(out: &mut [T], start: usize, values: &[T]) {
    for (slot, value) in out.iter_mut().skip(start).zip(values) {
        *slot = *value;
    }
}

impl<F> FlowSink for WindowedView<'_, F>
where
    F: Fn(Ipv4Addr) -> Option<u8>,
{
    fn observe(&mut self, rec: &FlowRecord) {
        self.series.observe(rec);
        self.geo.observe(rec);
        self.persistence.observe(rec);
        self.outbreak.observe(rec);
        self.window_observe(rec.first_ms, u32::from(rec.key.dst_ip), rec.bytes);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        FlowSink::observe_chunk(&mut self.series, chunk);
        FlowSink::observe_chunk(&mut self.geo, chunk);
        FlowSink::observe_chunk(&mut self.persistence, chunk);
        FlowSink::observe_chunk(&mut self.outbreak, chunk);
        for i in 0..chunk.len() {
            self.window_observe(chunk.first_ms[i], chunk.dst_ip[i], chunk.bytes[i]);
        }
    }

    fn checkpoint(&mut self) {
        self.note_hour();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geoloc::IspInfo;
    use cwa_geo::{AddressPlan, AddressPlanConfig, GeoDb, GeoDbConfig};
    use cwa_netflow::flow::{FlowKey, Protocol};
    use std::collections::HashMap;

    struct World {
        germany: Germany,
        plan: AddressPlan,
        geodb: GeoDb,
        isp_table: HashMap<u32, IspInfo>,
    }

    fn world() -> World {
        let germany = Germany::build();
        let plan = AddressPlan::build(
            &germany,
            AddressPlanConfig {
                persons_per_subscription: 2.0,
                prefix_capacity: 16_384,
                prefix_len: 18,
            },
        );
        let geodb = GeoDb::build(&germany, &plan, GeoDbConfig::default());
        let mut isp_table = HashMap::new();
        for alloc in plan.allocations() {
            let is_gt = plan.isp(alloc.isp).ground_truth_routers;
            isp_table.insert(
                cwa_geo::geodb::mask(alloc.network, alloc.len),
                IspInfo {
                    isp: alloc.isp.0,
                    router_district: is_gt.then_some(alloc.district),
                },
            );
        }
        World {
            germany,
            plan,
            geodb,
            isp_table,
        }
    }

    fn rec(client: Ipv4Addr, day: u64, hour: u64, bytes: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(81, 200, 16, 1),
                dst_ip: client,
                src_port: 443,
                dst_port: 50_000,
                protocol: Protocol::Tcp,
            },
            packets: 1,
            bytes,
            first_ms: day * 86_400_000 + hour * 3_600_000 + 7,
            last_ms: day * 86_400_000 + hour * 3_600_000 + 400,
            tcp_flags: 0x18,
        }
    }

    /// Deterministic synthetic stream: a handful of records per hour
    /// drawn from the address plan, including late-night gaps.
    fn stream(w: &World, days: u64) -> Vec<Vec<FlowRecord>> {
        let allocs = w.plan.allocations();
        let mut hours = Vec::new();
        for day in 0..days {
            for hour in 0..24u64 {
                let mut recs = Vec::new();
                let n = (day + hour) % 4;
                for k in 0..n {
                    let idx = ((day * 31 + hour * 7 + k * 13) as usize) % allocs.len();
                    let alloc = &allocs[idx];
                    recs.push(rec(
                        alloc.host(((day + k) % 50) as u32 + 1),
                        day,
                        hour,
                        300 + 10 * k,
                    ));
                }
                hours.push(recs);
            }
        }
        hours
    }

    fn make_view<'a>(
        w: &'a World,
        pipeline: &'a GeolocationPipeline<'a>,
        study_days: u32,
        config: WindowConfig,
    ) -> WindowedView<'a, impl Fn(Ipv4Addr) -> Option<u8> + Clone + 'a> {
        let table = &w.isp_table;
        WindowedView::new(
            &w.germany,
            pipeline,
            move |client| table.get(&cwa_geo::geodb::mask(client, 18)).map(|e| e.isp),
            24,
            study_days,
            config,
        )
    }

    #[test]
    fn eviction_commutes_with_absorb() {
        let w = world();
        let pipeline = GeolocationPipeline::new(&w.germany, &w.geodb, &w.isp_table, 18);
        let config = WindowConfig {
            window_days: 5,
            daily_retention: 3,
        };
        let days = 40u64;
        let hours = stream(&w, days);

        // Single view over the whole stream.
        let mut single = make_view(&w, &pipeline, 11, config);
        for recs in &hours {
            for r in recs {
                single.observe(r);
            }
            single.note_hour();
        }

        // k views over a record-level round-robin split, checkpoints
        // delivered to every view (as the sharded driver does), merged
        // at the end — must equal the single view in every tier, even
        // though each shard evicted its own partial cells.
        for k in [2usize, 3] {
            let mut shards: Vec<_> = (0..k)
                .map(|_| make_view(&w, &pipeline, 11, config))
                .collect();
            let mut i = 0usize;
            for recs in &hours {
                for r in recs {
                    shards[i % k].observe(r);
                    i += 1;
                }
                for s in shards.iter_mut() {
                    s.note_hour();
                }
            }
            let mut merged = shards.remove(0);
            for s in &shards {
                merged.absorb(s);
            }
            assert_eq!(merged.snapshot(), single.snapshot(), "k={k}");
            assert_eq!(merged.series, single.series, "k={k}");
            assert_eq!(
                merged.persistence.prefix_count(),
                single.persistence.prefix_count(),
                "k={k}"
            );
            let a = merged.outbreak.to_analysis();
            let b = single.outbreak.to_analysis();
            assert_eq!(a.district_flows, b.district_flows, "k={k}");
            assert_eq!(a.state_flows, b.state_flows, "k={k}");
            assert_eq!(a.berlin_isp_flows, b.berlin_isp_flows, "k={k}");
        }
    }

    #[test]
    fn chunked_feed_equals_per_record() {
        let w = world();
        let pipeline = GeolocationPipeline::new(&w.germany, &w.geodb, &w.isp_table, 18);
        let config = WindowConfig {
            window_days: 4,
            daily_retention: 2,
        };
        let hours = stream(&w, 12);

        let mut by_record = make_view(&w, &pipeline, 11, config);
        let mut by_chunk = make_view(&w, &pipeline, 11, config);
        for recs in &hours {
            let mut chunk = FlowChunk::default();
            for r in recs {
                by_record.observe(r);
                chunk.push(r);
            }
            by_chunk.observe_chunk(&chunk);
            by_record.checkpoint();
            by_chunk.checkpoint();
        }
        assert_eq!(by_record.snapshot(), by_chunk.snapshot());
        assert_eq!(by_record.series, by_chunk.series);
    }

    #[test]
    fn endless_feed_stays_bounded_and_window_advances() {
        let w = world();
        let pipeline = GeolocationPipeline::new(&w.germany, &w.geodb, &w.isp_table, 18);
        let config = WindowConfig::default();
        let mut view = make_view(&w, &pipeline, 64, config);
        let allocs = w.plan.allocations();

        let mut peak_after_saturation = 0usize;
        let mut saturation_level = 0usize;
        let mut last_from = 0u64;
        let mut last_day = 0u64;
        for day in 0..300u64 {
            for hour in 0..24u64 {
                for k in 0..3u64 {
                    let idx = ((day * 31 + hour * 7 + k * 13) as usize) % allocs.len();
                    view.observe(&rec(
                        allocs[idx].host(((day + k) % 50) as u32 + 1),
                        day,
                        hour,
                        400,
                    ));
                }
                view.note_hour();
            }
            let snap = view.snapshot();
            assert!(snap.day > last_day || day == 0, "day must advance");
            assert!(
                snap.window.from_day >= last_from,
                "window must advance monotonically"
            );
            last_day = snap.day;
            last_from = snap.window.from_day;
            // After the study tier saturates (64 days) and the daily
            // tier fills (14 + 64 days), resident state must plateau.
            if day == 100 {
                saturation_level = view.resident_slots();
            }
            if day > 100 {
                peak_after_saturation = peak_after_saturation.max(view.resident_slots());
            }
        }
        assert!(saturation_level > 0);
        // The window contents vary day to day (distinct prefixes per
        // cell), so allow a small wobble but no growth trend.
        assert!(
            peak_after_saturation <= saturation_level + saturation_level / 5,
            "resident slots grew: {peak_after_saturation} vs {saturation_level}"
        );
        let snap = view.snapshot();
        assert_eq!(snap.day, 300);
        assert_eq!(snap.window.to_day - snap.window.from_day, 14);
        // Window spans days 287..=300 (the just-opened day 300
        // included), so days 0..=286 were evicted and all but the
        // retained 64 collapsed into totals.
        assert_eq!(
            snap.cumulative.days_collapsed,
            287 - 64,
            "old days collapse into totals"
        );
        // Nothing lost: lifetime flows equal everything fed.
        assert_eq!(snap.cumulative.flows, 300 * 24 * 3);
    }

    #[test]
    fn study_tier_matches_plain_consumers() {
        let w = world();
        let pipeline = GeolocationPipeline::new(&w.germany, &w.geodb, &w.isp_table, 18);
        let hours = stream(&w, 11);

        let mut view = make_view(&w, &pipeline, 11, WindowConfig::default());
        let mut series = HourlySeries::new(11 * 24);
        let mut geo = GeoDayAccumulator::new(&pipeline, 11);
        let mut persistence = PersistenceAnalysis::new(24, 11);
        let table = &w.isp_table;
        let isp_of =
            move |client: Ipv4Addr| table.get(&cwa_geo::geodb::mask(client, 18)).map(|e| e.isp);
        let mut outbreak = OutbreakAccumulator::new(&w.germany, &pipeline, isp_of, 11);
        for recs in &hours {
            for r in recs {
                view.observe(r);
                series.observe(r);
                geo.observe(r);
                persistence.observe(r);
                outbreak.observe(r);
            }
            view.note_hour();
        }
        assert_eq!(view.series, series);
        for (from, to) in [(1u32, 11u32), (1, 2)] {
            assert_eq!(
                view.geo.result(from, to).district_flows,
                geo.result(from, to).district_flows
            );
        }
        assert_eq!(view.persistence.prefix_count(), persistence.prefix_count());
        let a = view.outbreak.to_analysis();
        let b = outbreak.to_analysis();
        assert_eq!(a.district_flows, b.district_flows);
        assert_eq!(a.berlin_isp_flows, b.berlin_isp_flows);
    }

    /// A cloned view is an independent snapshot of the mergeable state:
    /// it equals the original at clone time, later observations leave it
    /// untouched, and absorbing clones equals absorbing the originals —
    /// the invariant the sharded live driver's interim publication
    /// stands on.
    #[test]
    fn cloned_view_is_independent_and_absorbable() {
        let w = world();
        let pipeline = GeolocationPipeline::new(&w.germany, &w.geodb, &w.isp_table, 18);
        let hours = stream(&w, 8);

        let mut a = make_view(&w, &pipeline, 11, WindowConfig::default());
        let mut b = make_view(&w, &pipeline, 11, WindowConfig::default());
        let mut i = 0usize;
        // First 4 days: round-robin split across two views.
        for recs in hours.iter().take(4 * 24) {
            for r in recs {
                if i.is_multiple_of(2) {
                    a.observe(r);
                } else {
                    b.observe(r);
                }
                i += 1;
            }
            a.note_hour();
            b.note_hour();
        }
        let a_clone = a.clone();
        let b_clone = b.clone();
        assert_eq!(a_clone.snapshot(), a.snapshot());

        let mut interim = a_clone;
        interim.absorb(&b_clone);
        let mut expected = a.clone();
        expected.absorb(&b);
        assert_eq!(interim.snapshot(), expected.snapshot());

        // Feeding the originals further must not change the clones'
        // merged snapshot.
        let frozen = interim.snapshot();
        for recs in hours.iter().skip(4 * 24) {
            for r in recs {
                a.observe(r);
            }
            a.note_hour();
            b.note_hour();
        }
        assert_eq!(interim.snapshot(), frozen);
        assert!(a.snapshot().hours_seen > frozen.hours_seen);
    }

    /// A hand-built snapshot read through the conversions the claim
    /// table judges: the series, the geolocations and the outbreak
    /// tables, indexed by absolute study day.
    #[test]
    fn window_snapshot_converts_to_claim_inputs() {
        let snap = WindowSnapshot {
            from_day: 0,
            to_day: 3,
            hourly_flows: {
                let mut h = vec![0u64; 72];
                h[0] = 4; // day 0: 4 flows
                h[25] = 12; // day 1: 12 flows
                h[50] = 6; // day 2: 6 flows
                h
            },
            hourly_bytes: vec![0; 72],
            district_flows: vec![3, 0, 6, 1],
            attributions: [9, 41, 5],
            state_daily: {
                let mut days = vec![[0u64; 16]; 3];
                days[0][0] = 10;
                days[0][1] = 4;
                days[1][0] = 20;
                days[1][1] = 4;
                days[2][0] = 30;
                days
            },
            berlin_isp_daily: vec![(1, vec![2, 4, 8]), (2, vec![5, 5, 0])],
            distinct_prefixes: 7,
        };
        let series = snap.series(3);
        assert_eq!(series.total_flows(), 22);
        assert_eq!(series.daily_flows(), vec![4, 12, 6]);
        assert!((series.release_jump() - 3.0).abs() < 1e-12);
        let geo = snap.geo();
        assert_eq!(geo.district_flows.iter().sum::<u64>(), 10);
        assert!((geo.coverage(1) - 0.75).abs() < 1e-12);
        assert!((geo.ground_truth_share() - 9.0 / 50.0).abs() < 1e-12);
        let outbreak = snap.outbreak(3);
        let growth = outbreak.state_growth(0..1, 1..2);
        assert!((growth[0] - 2.0).abs() < 1e-12);
        assert!((growth[1] - 1.0).abs() < 1e-12);
        assert!(growth[2].is_nan(), "zero pre-sum is NaN, not inf");
        let berlin = outbreak.berlin_isp_growth(0..1, 1..3);
        assert_eq!(berlin.len(), 2);
        assert!((berlin[0].1 - 6.0).abs() < 1e-12);
        assert!((berlin[1].1 - 1.0).abs() < 1e-12);
        let berlin_pre: u64 = outbreak
            .berlin_isp_flows
            .values()
            .map(|per_day| per_day[..2].iter().sum::<u64>())
            .sum();
        assert_eq!(berlin_pre, 16);

        // Once day 0 has slid out, the day-0 slots read zero: the jump
        // is NaN and the early outbreak days are empty.
        let slid = WindowSnapshot {
            from_day: 2,
            to_day: 5,
            ..snap
        };
        assert!(slid.series(5).release_jump().is_nan());
        assert_eq!(slid.series(5).daily_flows(), vec![0, 0, 4, 12, 6]);
        let outbreak = slid.outbreak(5);
        assert_eq!(outbreak.state_flows[..2], [[0u64; 16]; 2]);
        assert_eq!(outbreak.state_flows[2][0], 10);
        // Window days past the horizon are left out.
        assert_eq!(slid.series(4).daily_flows(), vec![0, 0, 4, 12]);
    }
}
