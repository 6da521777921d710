//! Geolocation and district aggregation (Figure 3).
//!
//! "We thus geolocate the request traffic […] within Germany shown in
//! Figure 3 by ZIP code areas summed over 10 days normalized by maximum.
//! We derive 18 % of geolocations from local routers within an ISP
//! (ground truth since the router locations are known), while the rest
//! is located by applying the Maxmind geolocation database on routing
//! prefixes."
//!
//! [`GeolocationPipeline`] implements that two-source strategy over the
//! anonymized side tables, folded into one prefix table, and reports
//! per-district intensities, district coverage, and the ground-truth
//! share.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use cwa_geo::{DistrictId, GeoDb, Germany};
use cwa_netflow::flow::FlowRecord;
use cwa_netflow::hash::KeyMap;
use cwa_netflow::sink::{FlowChunk, FlowSink};

use crate::filter::FlowFilter;

/// How a record's client was geolocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GeoAttribution {
    /// Exact: the client sits behind a known router of the cooperating
    /// ISP.
    RouterGroundTruth,
    /// Approximate: geolocation database on the routing prefix.
    GeoDatabase,
    /// The client could not be located at all.
    Unlocated,
}

/// ISP side-table entry as the pipeline needs it (mirrors
/// `cwa_simnet::IspSideEntry` without depending on that crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IspInfo {
    /// ISP identifier (opaque to the pipeline).
    pub isp: u8,
    /// Exact router district, known only for the ground-truth ISP.
    pub router_district: Option<DistrictId>,
}

/// Result of geolocating one record set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeoResult {
    /// Flows attributed per district.
    pub district_flows: Vec<u64>,
    /// How many geolocations came from each source.
    pub attribution_counts: HashMap<GeoAttribution, u64>,
}

impl GeoResult {
    /// Intensities normalized by the maximum district (Fig. 3's scale).
    pub fn normalized(&self) -> Vec<f64> {
        let max = self
            .district_flows
            .iter()
            .max()
            .copied()
            .unwrap_or(0)
            .max(1) as f64;
        self.district_flows
            .iter()
            .map(|&f| f as f64 / max)
            .collect()
    }

    /// Fraction of districts with at least `min_flows` flows.
    pub fn coverage(&self, min_flows: u64) -> f64 {
        let covered = self
            .district_flows
            .iter()
            .filter(|&&f| f >= min_flows)
            .count();
        covered as f64 / self.district_flows.len() as f64
    }

    /// Share of geolocations that came from router ground truth (the
    /// paper's 18 %).
    pub fn ground_truth_share(&self) -> f64 {
        let gt = *self
            .attribution_counts
            .get(&GeoAttribution::RouterGroundTruth)
            .unwrap_or(&0) as f64;
        let db = *self
            .attribution_counts
            .get(&GeoAttribution::GeoDatabase)
            .unwrap_or(&0) as f64;
        if gt + db == 0.0 {
            return f64::NAN;
        }
        gt / (gt + db)
    }
}

/// The two-source geolocation pipeline.
///
/// [`new`](GeolocationPipeline::new) walks the ISP side table and the
/// geolocation DB once and keeps one table from routing prefix to what
/// both say about it, so [`locate`](GeolocationPipeline::locate) and
/// [`isp_of`](GeolocationPipeline::isp_of) are one probe each. The
/// pipeline keeps no reference to either map.
pub struct GeolocationPipeline<'a> {
    germany: &'a Germany,
    /// Both side tables' answers, keyed on (anonymized) prefix network.
    table: KeyMap<u32, PrefixFacts>,
    /// Routing-prefix length of the side tables.
    prefix_len: u8,
}

/// What the side tables say about one routing prefix, in 4 bytes, so a
/// table bucket is 8.
#[derive(Debug, Clone, Copy)]
struct PrefixFacts {
    /// The located district (0 while unlocated).
    district: u16,
    /// The attribution's [`attribution_index`], plus [`ISP_LISTED`] when
    /// the ISP side table lists the prefix.
    tag: u8,
    /// The prefix's ISP, when listed.
    isp: u8,
}

/// [`PrefixFacts::tag`] bit: the ISP side table lists the prefix.
const ISP_LISTED: u8 = 4;

impl PrefixFacts {
    fn location(self) -> (Option<DistrictId>, GeoAttribution) {
        let attribution = ATTRIBUTIONS[usize::from(self.tag & 3)];
        let district =
            (attribution != GeoAttribution::Unlocated).then_some(DistrictId(self.district));
        (district, attribution)
    }
}

impl<'a> GeolocationPipeline<'a> {
    /// Creates the pipeline over side tables: router ground truth where
    /// the ISP table has a router district, else the DB's location.
    pub fn new(
        germany: &'a Germany,
        geodb: &GeoDb,
        isp_table: &HashMap<u32, IspInfo>,
        prefix_len: u8,
    ) -> Self {
        Self::with_isp_entries(
            germany,
            geodb,
            isp_table.iter().map(|(&net, &info)| (net, info)),
            prefix_len,
        )
    }

    /// [`new`](GeolocationPipeline::new) over the ISP side table's
    /// entries as they come, so a caller holding the table in another
    /// vocabulary need not copy it into a map first.
    pub fn with_isp_entries(
        germany: &'a Germany,
        geodb: &GeoDb,
        isp_entries: impl IntoIterator<Item = (u32, IspInfo)>,
        prefix_len: u8,
    ) -> Self {
        let mut table = KeyMap::with_capacity_and_hasher(geodb.len(), Default::default());
        for (net, entry) in geodb.iter() {
            table.insert(
                net,
                PrefixFacts {
                    district: entry.located.0,
                    tag: attribution_index(GeoAttribution::GeoDatabase) as u8,
                    isp: 0,
                },
            );
        }
        for (net, info) in isp_entries {
            let facts = table.entry(net).or_insert(PrefixFacts {
                district: 0,
                tag: attribution_index(GeoAttribution::Unlocated) as u8,
                isp: 0,
            });
            if let Some(d) = info.router_district {
                facts.district = d.0;
                facts.tag = attribution_index(GeoAttribution::RouterGroundTruth) as u8;
            }
            facts.tag |= ISP_LISTED;
            facts.isp = info.isp;
        }
        GeolocationPipeline {
            germany,
            table,
            prefix_len,
        }
    }

    /// Locates a single client address: router ground truth first, then
    /// the geolocation database.
    pub fn locate(&self, client: std::net::Ipv4Addr) -> (Option<DistrictId>, GeoAttribution) {
        self.table
            .get(&cwa_geo::geodb::mask(client, self.prefix_len))
            .map_or((None, GeoAttribution::Unlocated), |facts| facts.location())
    }

    /// The ISP the side table lists for the client's prefix.
    pub fn isp_of(&self, client: std::net::Ipv4Addr) -> Option<u8> {
        self.table
            .get(&cwa_geo::geodb::mask(client, self.prefix_len))
            .filter(|facts| facts.tag & ISP_LISTED != 0)
            .map(|facts| facts.isp)
    }

    /// Geolocates all matching records, restricted to study days
    /// `[from_day, to_day)`. Delegates to [`GeoDayAccumulator`], so the
    /// batch and streaming paths share one implementation.
    pub fn run(
        &self,
        records: &[FlowRecord],
        filter: &FlowFilter,
        from_day: u32,
        to_day: u32,
    ) -> GeoResult {
        let mut acc = GeoDayAccumulator::new(self, to_day);
        for rec in records {
            if filter.matches(rec) {
                acc.observe(rec);
            }
        }
        acc.result(from_day, to_day)
    }
}

/// Maps an attribution to its slot in the per-day count arrays.
pub(crate) fn attribution_index(attr: GeoAttribution) -> usize {
    match attr {
        GeoAttribution::RouterGroundTruth => 0,
        GeoAttribution::GeoDatabase => 1,
        GeoAttribution::Unlocated => 2,
    }
}

const ATTRIBUTIONS: [GeoAttribution; 3] = [
    GeoAttribution::RouterGroundTruth,
    GeoAttribution::GeoDatabase,
    GeoAttribution::Unlocated,
];

/// Per-day geolocation accumulator: **one** pass over the (already
/// §2-filtered) record stream yields the [`GeoResult`] of *any* day
/// window afterwards — the 10-day map and the day-1 map of `Study` no
/// longer need separate record scans.
///
/// Records are expected to have passed the flow filter; the client is
/// the destination address (CDN → user direction), exactly
/// [`FlowFilter::client_of`]. Records on days `>= days` are dropped.
#[derive(Clone)]
pub struct GeoDayAccumulator<'a> {
    pipeline: &'a GeolocationPipeline<'a>,
    /// `day_district_flows[day][district]`.
    day_district_flows: Vec<Vec<u64>>,
    /// Per-day attribution counts, indexed by [`attribution_index`].
    day_attributions: Vec<[u64; 3]>,
    days: u32,
}

impl<'a> GeoDayAccumulator<'a> {
    /// Creates an accumulator covering study days `[0, days)`.
    pub fn new(pipeline: &'a GeolocationPipeline<'a>, days: u32) -> Self {
        GeoDayAccumulator {
            pipeline,
            day_district_flows: vec![vec![0u64; pipeline.germany.len()]; days as usize],
            day_attributions: vec![[0u64; 3]; days as usize],
            days,
        }
    }

    /// Geolocates one filtered record into its day's tables.
    pub fn observe(&mut self, rec: &FlowRecord) {
        self.observe_client(rec.first_ms, rec.key.dst_ip);
    }

    /// The column-level form of [`observe`](GeoDayAccumulator::observe):
    /// the accumulator only reads the record's start time and client.
    fn observe_client(&mut self, first_ms: u64, client: std::net::Ipv4Addr) {
        let day = (first_ms / 86_400_000) as u32;
        if day >= self.days {
            return;
        }
        let (district, attribution) = self.pipeline.locate(client);
        self.day_attributions[day as usize][attribution_index(attribution)] += 1;
        if let Some(d) = district {
            self.day_district_flows[day as usize][usize::from(d.0)] += 1;
        }
    }

    /// Merges another accumulator's day tables into this one
    /// (element-wise sums; commutative and associative). The other
    /// accumulator may borrow a different pipeline — per-shard pipelines
    /// over identical side tables produce identical attributions, so the
    /// merged tables equal a single-pass accumulation of the combined
    /// record stream.
    pub fn absorb(&mut self, other: &GeoDayAccumulator<'_>) {
        assert_eq!(self.days, other.days, "same day window required");
        assert_eq!(
            self.pipeline.germany.len(),
            other.pipeline.germany.len(),
            "same district universe required"
        );
        for (mine, theirs) in self
            .day_district_flows
            .iter_mut()
            .zip(&other.day_district_flows)
        {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        for (mine, theirs) in self
            .day_attributions
            .iter_mut()
            .zip(&other.day_attributions)
        {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }

    /// The aggregated [`GeoResult`] for the window `[from_day, to_day)`
    /// (clipped to the accumulator's coverage). Attribution counts only
    /// contain keys that were actually observed, matching the batch
    /// pipeline's map exactly.
    pub fn result(&self, from_day: u32, to_day: u32) -> GeoResult {
        let mut district_flows = vec![0u64; self.pipeline.germany.len()];
        let mut attributions = [0u64; 3];
        for day in from_day..to_day.min(self.days) {
            for (total, day_count) in district_flows
                .iter_mut()
                .zip(&self.day_district_flows[day as usize])
            {
                *total += day_count;
            }
            for (total, day_count) in attributions
                .iter_mut()
                .zip(&self.day_attributions[day as usize])
            {
                *total += day_count;
            }
        }
        let mut attribution_counts = HashMap::new();
        for attr in ATTRIBUTIONS {
            let count = attributions[attribution_index(attr)];
            if count > 0 {
                attribution_counts.insert(attr, count);
            }
        }
        GeoResult {
            district_flows,
            attribution_counts,
        }
    }
}

impl FlowSink for GeoDayAccumulator<'_> {
    fn observe(&mut self, rec: &FlowRecord) {
        GeoDayAccumulator::observe(self, rec);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        for (&first_ms, &dst) in chunk.first_ms.iter().zip(&chunk.dst_ip) {
            self.observe_client(first_ms, std::net::Ipv4Addr::from(dst));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwa_geo::{AddressPlan, AddressPlanConfig, GeoDbConfig};
    use cwa_netflow::flow::{FlowKey, Protocol};
    use std::net::Ipv4Addr;

    /// Builds a miniature world with a raw (non-anonymized) side table
    /// so test addresses can be chosen by hand.
    fn setup() -> (Germany, AddressPlan, GeoDb, HashMap<u32, IspInfo>) {
        let g = Germany::build();
        let plan = AddressPlan::build(
            &g,
            AddressPlanConfig {
                persons_per_subscription: 2.0,
                prefix_capacity: 16_384,
                prefix_len: 18,
            },
        );
        let geodb = GeoDb::build(&g, &plan, GeoDbConfig::default());
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
        (g, plan, geodb, isp_table)
    }

    fn rec(client: Ipv4Addr, day: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(81, 200, 16, 1),
                dst_ip: client,
                src_port: 443,
                dst_port: 50_000,
                protocol: Protocol::Tcp,
            },
            packets: 1,
            bytes: 100,
            first_ms: day * 86_400_000 + 7,
            last_ms: day * 86_400_000 + 400,
            tcp_flags: 0,
        }
    }

    fn filter() -> FlowFilter {
        FlowFilter::cwa(vec![(Ipv4Addr::new(81, 200, 16, 0), 22)])
    }

    #[test]
    fn ground_truth_wins_over_geodb() {
        let (g, plan, geodb, isp_table) = setup();
        let pipeline = GeolocationPipeline::new(&g, &geodb, &isp_table, 18);
        let gt_isp = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .unwrap()
            .id;
        let alloc = plan.allocations().iter().find(|a| a.isp == gt_isp).unwrap();
        let (district, attribution) = pipeline.locate(alloc.host(5));
        assert_eq!(attribution, GeoAttribution::RouterGroundTruth);
        assert_eq!(district, Some(alloc.district), "router location is exact");
    }

    #[test]
    fn non_gt_isp_uses_geodb() {
        let (g, plan, geodb, isp_table) = setup();
        let pipeline = GeolocationPipeline::new(&g, &geodb, &isp_table, 18);
        let alloc = plan
            .allocations()
            .iter()
            .find(|a| !plan.isp(a.isp).ground_truth_routers)
            .unwrap();
        let (district, attribution) = pipeline.locate(alloc.host(5));
        assert_eq!(attribution, GeoAttribution::GeoDatabase);
        assert!(district.is_some());
    }

    #[test]
    fn unknown_prefix_unlocated() {
        let (g, _, geodb, isp_table) = setup();
        let pipeline = GeolocationPipeline::new(&g, &geodb, &isp_table, 18);
        let (district, attribution) = pipeline.locate(Ipv4Addr::new(8, 8, 8, 8));
        assert_eq!(attribution, GeoAttribution::Unlocated);
        assert_eq!(district, None);
    }

    /// The two-map `locate` the prefix table replaced: the ISP table's
    /// router district, else the DB.
    fn two_map_locate(
        geodb: &GeoDb,
        isp_table: &HashMap<u32, IspInfo>,
        prefix_len: u8,
        client: Ipv4Addr,
    ) -> (Option<DistrictId>, GeoAttribution) {
        let net = cwa_geo::geodb::mask(client, prefix_len);
        if let Some(d) = isp_table.get(&net).and_then(|info| info.router_district) {
            return (Some(d), GeoAttribution::RouterGroundTruth);
        }
        match geodb.lookup_prefix(net) {
            Some(entry) => (Some(entry.located), GeoAttribution::GeoDatabase),
            None => (None, GeoAttribution::Unlocated),
        }
    }

    /// Over the full plan, with prefixes only the DB lists, prefixes
    /// only the ISP table lists (with and without a router district) and
    /// addresses neither lists, the prefix table answers `locate` and
    /// `isp_of` exactly as the two maps do.
    #[test]
    fn prefix_table_answers_like_the_two_maps() {
        use rand::{Rng, SeedableRng};
        let g = Germany::build();
        let plan = AddressPlan::build(&g, AddressPlanConfig::default());
        let geodb = GeoDb::build(&g, &plan, GeoDbConfig::default());
        let prefix_len = plan.config.prefix_len;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(27);
        let mut isp_table = HashMap::new();
        for (i, alloc) in plan.allocations().iter().enumerate() {
            if i % 5 == 0 {
                continue; // the DB alone knows this prefix
            }
            let is_gt = plan.isp(alloc.isp).ground_truth_routers;
            isp_table.insert(
                cwa_geo::geodb::mask(alloc.network, alloc.len),
                IspInfo {
                    isp: alloc.isp.0,
                    router_district: is_gt.then_some(alloc.district),
                },
            );
        }
        let mut outside = Vec::new();
        while outside.len() < 2_000 {
            let net = cwa_geo::geodb::mask(Ipv4Addr::from(rng.gen::<u32>()), prefix_len);
            if geodb.lookup_prefix(net).is_none() && !isp_table.contains_key(&net) {
                outside.push(net);
            }
        }
        for (i, &net) in outside[..1_000].iter().enumerate() {
            // The ISP table alone knows these.
            isp_table.insert(
                net,
                IspInfo {
                    isp: (i % 7) as u8,
                    router_district: (i % 2 == 0).then_some(DistrictId((i % g.len()) as u16)),
                },
            );
        }
        let pipeline = GeolocationPipeline::new(&g, &geodb, &isp_table, prefix_len);
        let keys = geodb
            .iter()
            .map(|(net, _)| net)
            .chain(isp_table.keys().copied())
            .chain(outside[1_000..].iter().copied());
        let mut checked = 0;
        for net in keys {
            let host =
                rng.gen::<u32>() & !cwa_geo::geodb::mask(Ipv4Addr::from(u32::MAX), prefix_len);
            for client in [net, net | host].map(Ipv4Addr::from) {
                assert_eq!(
                    pipeline.locate(client),
                    two_map_locate(&geodb, &isp_table, prefix_len, client),
                    "{client}"
                );
                assert_eq!(
                    pipeline.isp_of(client),
                    isp_table
                        .get(&cwa_geo::geodb::mask(client, prefix_len))
                        .map(|info| info.isp),
                    "{client}"
                );
                checked += 1;
            }
        }
        for _ in 0..10_000 {
            let client = Ipv4Addr::from(rng.gen::<u32>());
            assert_eq!(
                pipeline.locate(client),
                two_map_locate(&geodb, &isp_table, prefix_len, client),
                "{client}"
            );
        }
        assert!(checked > 2 * plan.allocations().len(), "{checked} checks");
        let attributions: std::collections::HashSet<_> = isp_table
            .keys()
            .chain(outside.iter())
            .map(|&net| pipeline.locate(Ipv4Addr::from(net)).1)
            .collect();
        assert_eq!(attributions.len(), 3, "all three attributions occur");
    }

    #[test]
    fn run_aggregates_and_windows() {
        let (g, plan, geodb, isp_table) = setup();
        let pipeline = GeolocationPipeline::new(&g, &geodb, &isp_table, 18);
        let alloc = plan.allocations()[0];
        let records = vec![
            rec(alloc.host(1), 1),
            rec(alloc.host(2), 5),
            rec(alloc.host(3), 10), // outside [0, 10)
        ];
        let result = pipeline.run(&records, &filter(), 0, 10);
        let total: u64 = result.district_flows.iter().sum();
        assert_eq!(total, 2, "day-10 record excluded");
    }

    /// The pre-accumulator implementation of `run`, kept inline as the
    /// reference for the single-pass refactor.
    fn reference_run(
        pipeline: &GeolocationPipeline<'_>,
        records: &[FlowRecord],
        f: &FlowFilter,
        from_day: u32,
        to_day: u32,
    ) -> GeoResult {
        let mut district_flows = vec![0u64; pipeline.germany.len()];
        let mut attribution_counts: HashMap<GeoAttribution, u64> = HashMap::new();
        for r in records {
            if !f.matches(r) {
                continue;
            }
            let day = (r.first_ms / 86_400_000) as u32;
            if day < from_day || day >= to_day {
                continue;
            }
            let (district, attribution) = pipeline.locate(f.client_of(r));
            *attribution_counts.entry(attribution).or_insert(0) += 1;
            if let Some(d) = district {
                district_flows[usize::from(d.0)] += 1;
            }
        }
        GeoResult {
            district_flows,
            attribution_counts,
        }
    }

    #[test]
    fn one_pass_accumulator_matches_two_pass_reference() {
        let (g, plan, geodb, isp_table) = setup();
        let pipeline = GeolocationPipeline::new(&g, &geodb, &isp_table, 18);
        let f = filter();
        let mut records = Vec::new();
        for (i, alloc) in plan.allocations().iter().take(200).enumerate() {
            records.push(rec(alloc.host(1), (i % 11) as u64));
        }
        records.push(rec(Ipv4Addr::new(8, 8, 8, 8), 1)); // unlocated

        // One accumulator pass serves both windows…
        let mut acc = GeoDayAccumulator::new(&pipeline, 11);
        for r in &records {
            if f.matches(r) {
                acc.observe(r);
            }
        }
        // …and must equal the old implementation's separate full scans.
        for (from, to) in [(1u32, 11u32), (1, 2), (0, 11), (3, 7)] {
            let single = acc.result(from, to);
            let double = reference_run(&pipeline, &records, &f, from, to);
            assert_eq!(single.district_flows, double.district_flows, "{from}..{to}");
            assert_eq!(
                single.attribution_counts, double.attribution_counts,
                "{from}..{to}"
            );
        }
    }

    #[test]
    fn absorb_equals_single_pass() {
        let (g, plan, geodb, isp_table) = setup();
        let pipeline = GeolocationPipeline::new(&g, &geodb, &isp_table, 18);
        let f = filter();
        let mut records = Vec::new();
        for (i, alloc) in plan.allocations().iter().take(120).enumerate() {
            records.push(rec(alloc.host(1), (i % 11) as u64));
        }
        records.push(rec(Ipv4Addr::new(8, 8, 8, 8), 1)); // unlocated

        let mut single = GeoDayAccumulator::new(&pipeline, 11);
        for r in &records {
            if f.matches(r) {
                single.observe(r);
            }
        }
        // Split round-robin into three parts, accumulate each apart
        // (one via a second pipeline instance over the same tables, as
        // shards do), then merge.
        let pipeline2 = GeolocationPipeline::new(&g, &geodb, &isp_table, 18);
        let mut parts = [
            GeoDayAccumulator::new(&pipeline, 11),
            GeoDayAccumulator::new(&pipeline2, 11),
            GeoDayAccumulator::new(&pipeline, 11),
        ];
        for (i, r) in records.iter().enumerate() {
            if f.matches(r) {
                parts[i % 3].observe(r);
            }
        }
        let [mut merged, p1, p2] = parts;
        merged.absorb(&p1);
        merged.absorb(&p2);
        merged.absorb(&GeoDayAccumulator::new(&pipeline, 11)); // identity

        for (from, to) in [(1u32, 11u32), (1, 2), (0, 11)] {
            let a = merged.result(from, to);
            let b = single.result(from, to);
            assert_eq!(a.district_flows, b.district_flows, "{from}..{to}");
            assert_eq!(a.attribution_counts, b.attribution_counts, "{from}..{to}");
        }
    }

    #[test]
    fn normalized_max_is_one() {
        let result = GeoResult {
            district_flows: vec![5, 10, 0, 2],
            attribution_counts: HashMap::new(),
        };
        let n = result.normalized();
        assert_eq!(n[1], 1.0);
        assert_eq!(n[0], 0.5);
        assert_eq!(n[2], 0.0);
    }

    #[test]
    fn coverage_counts_thresholds() {
        let result = GeoResult {
            district_flows: vec![5, 10, 0, 2],
            attribution_counts: HashMap::new(),
        };
        assert!((result.coverage(1) - 0.75).abs() < 1e-12);
        assert!((result.coverage(5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ground_truth_share_math() {
        let mut counts = HashMap::new();
        counts.insert(GeoAttribution::RouterGroundTruth, 18u64);
        counts.insert(GeoAttribution::GeoDatabase, 82u64);
        counts.insert(GeoAttribution::Unlocated, 5u64);
        let result = GeoResult {
            district_flows: vec![],
            attribution_counts: counts,
        };
        assert!((result.ground_truth_share() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_nan() {
        let result = GeoResult {
            district_flows: vec![0; 4],
            attribution_counts: HashMap::new(),
        };
        assert!(result.ground_truth_share().is_nan());
    }
}
