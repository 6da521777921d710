//! The simulation orchestrator: one seeded run of the whole world.
//!
//! Wires together `cwa-geo` (country + address plan + geo DB),
//! `cwa-epidemic` (SEIR, adoption, activity, uploads), the traffic
//! generator, the vantage point, and the DNS study, producing a
//! [`SimOutput`] that contains exactly what the paper's authors had —
//! anonymized sampled flow records plus public side data — alongside
//! calibration ground truth that *only* tests may consult.

use std::collections::HashMap;

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use cwa_epidemic::{
    ActivityModel, AdoptionConfig, AdoptionCurve, AdoptionModel, EpidemicConfig, EpidemicModel,
    EventKind, Scenario, ScenarioEvent, Timeline, UploadConfig, UploadPipeline,
};
use cwa_geo::{AddressPlan, AddressPlanConfig, DistrictId, GeoDb, GeoDbConfig, Germany, IspId};
use cwa_netflow::anonymize::CryptoPan;
use cwa_netflow::flow::FlowRecord;
use cwa_netflow::sink::FlowSink;

use crate::cdn::{CdnConfig, CdnMigration};
use crate::dns::{run_dns_study, DnsStudy, TopListModel};
use crate::traffic::{GroundTruth, TrafficConfig, TrafficModel};
use crate::vantage::{
    side_tables_from, IspSideEntry, ShardKeyMode, VantageConfig, VantagePoint, VantageRunStats,
};

/// Which scenario variant to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// The paper's world: outbreaks + media (default).
    Paper,
    /// Outbreaks happen, nobody reports on them (ablation).
    OutbreaksWithoutNews,
    /// Nothing happens at all (baseline).
    Quiet,
}

/// The scenario-tunable slice of the traffic generator's configuration
/// (the rest of [`TrafficConfig`] is calibration, not scenario).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficTuning {
    /// Background (non-CWA) flow volume as a ratio of CWA volume.
    pub background_ratio: f64,
    /// Fraction of a prefix's subscriber capacity active on a given day
    /// (the DSL reconnect / address-churn policy knob).
    pub active_subscriber_fraction: f64,
}

impl Default for TrafficTuning {
    fn default() -> Self {
        TrafficTuning {
            background_ratio: 0.6,
            active_subscriber_fraction: 0.45,
        }
    }
}

/// One synthetic outbreak added on top of the base scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExtraOutbreak {
    /// Affected district.
    pub district: DistrictId,
    /// Study day (0-based) the outbreak starts.
    pub day: u32,
    /// Extra exposed individuals introduced on the start day.
    pub seed_cases: u32,
    /// Intensity of the accompanying *national* media pulse
    /// (0 ⇒ the outbreak goes unreported).
    pub media_intensity: f64,
}

/// Scenario-overlay edits to the base event list: remove all events
/// anchored to named districts and/or add one synthetic outbreak.
/// Fixed-size so [`SimConfig`] stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OutbreakTweaks {
    /// Districts whose events (seeds *and* media pulses) are dropped.
    pub remove: [Option<DistrictId>; 4],
    /// An additional outbreak, if any.
    pub extra: Option<ExtraOutbreak>,
}

impl OutbreakTweaks {
    /// Applies the tweaks to a built scenario.
    pub fn apply(&self, scenario: &mut Scenario) {
        scenario
            .events
            .retain(|ev| !self.remove.iter().flatten().any(|d| *d == ev.district));
        if let Some(extra) = self.extra {
            scenario.events.push(ScenarioEvent {
                day: extra.day,
                district: extra.district,
                kind: EventKind::OutbreakSeed {
                    seed_cases: extra.seed_cases,
                },
            });
            if extra.media_intensity > 0.0 {
                scenario.events.push(ScenarioEvent {
                    day: extra.day,
                    district: extra.district,
                    kind: EventKind::MediaPulse {
                        intensity: extra.media_intensity,
                        decay_days: 2.5,
                        national: true,
                        isp_only: None,
                    },
                });
            }
        }
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Traffic volume scale (1.0 = all of Germany; figures are
    /// normalized, so smaller scales reproduce the same shapes faster).
    pub scale: f64,
    /// Master seed (all submodels derive from it deterministically).
    pub seed: u64,
    /// Days to simulate (the paper's window is 11).
    pub days: u32,
    /// Scenario variant.
    pub scenario: ScenarioKind,
    /// Address-plan granularity.
    pub plan: AddressPlanConfig,
    /// Geolocation-DB error model.
    pub geodb: GeoDbConfig,
    /// Vantage-point (sampling/cache/anonymization) settings.
    pub vantage: VantageConfig,
    /// Adoption-curve family and parameters.
    pub adoption: AdoptionConfig,
    /// Scenario-tunable traffic knobs.
    pub traffic: TrafficTuning,
    /// Optional mid-study CDN migration to an undocumented prefix.
    pub cdn_migration: Option<CdnMigration>,
    /// Edits to the base scenario's outbreak/media events.
    pub outbreaks: OutbreakTweaks,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scale: 0.05,
            seed: 0x2020_0616,
            days: 11,
            scenario: ScenarioKind::Paper,
            plan: AddressPlanConfig::default(),
            geodb: GeoDbConfig::default(),
            vantage: VantageConfig::default(),
            adoption: AdoptionConfig::default(),
            traffic: TrafficTuning::default(),
            cdn_migration: None,
            outbreaks: OutbreakTweaks::default(),
        }
    }
}

impl SimConfig {
    /// A configuration small enough for unit/integration tests: coarse
    /// prefixes, low scale, fewer simulated days unchanged.
    pub fn test_small() -> Self {
        SimConfig {
            scale: 0.004,
            plan: AddressPlanConfig {
                persons_per_subscription: 2.0,
                prefix_capacity: 16_384,
                prefix_len: 18,
            },
            ..SimConfig::default()
        }
    }
}

/// Everything a simulation run produces.
pub struct SimOutput {
    /// Anonymized sampled flow records — the researchers' data set.
    pub records: Vec<FlowRecord>,
    /// Geolocation DB re-keyed to anonymized prefixes (side table).
    pub geodb: GeoDb,
    /// Anonymized prefix → ISP / router-ground-truth table (side table).
    pub isp_table: HashMap<u32, IspSideEntry>,
    /// Official national download curve (public statista data).
    pub downloads: AdoptionCurve,
    /// DNS popularity study results.
    pub dns: DnsStudy,
    /// Diagnosis-key publication pipeline outputs.
    pub uploads: UploadPipeline,
    /// The CDN model (its service prefixes are public documentation).
    pub cdn: CdnConfig,
    /// The scenario that was simulated.
    pub scenario: Scenario,
    /// The country model.
    pub germany: Germany,
    /// The address plan (ground truth; tests/calibration only).
    pub plan: AddressPlan,
    /// Traffic ground truth (tests/calibration only).
    pub truth: GroundTruth,
    /// The configuration used.
    pub config: SimConfig,
}

/// The simulation runner.
pub struct Simulation {
    config: SimConfig,
    metrics: Option<std::sync::Arc<cwa_obs::Registry>>,
    trace: Option<std::sync::Arc<cwa_obs::Tracer>>,
    chunk_capacity: Option<usize>,
}

impl Simulation {
    /// Creates a runner.
    pub fn new(config: SimConfig) -> Self {
        Simulation {
            config,
            metrics: None,
            trace: None,
            chunk_capacity: None,
        }
    }

    /// Overrides the collector's records-per-chunk drain batching
    /// (default `cwa_netflow::DEFAULT_CHUNK_CAPACITY`). Deliberately
    /// *not* part of [`SimConfig`]: chunking is an execution detail that
    /// never changes the record stream (asserted by the chunk-size
    /// invariance tests), so it must not enter config hashes.
    pub fn with_chunk_capacity(mut self, capacity: usize) -> Self {
        self.chunk_capacity = Some(capacity);
        self
    }

    /// Attaches an observability registry. Instrumentation is atomic
    /// counters only and never touches an RNG stream, so the output is
    /// bit-identical with or without it (asserted by tests).
    pub fn with_metrics(mut self, registry: std::sync::Arc<cwa_obs::Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attaches the flight recorder: the run drivers wrap every
    /// pipeline phase (produce, export, drain, channel stalls) in trace
    /// spans. Like metrics, tracing reads the wall clock only and never
    /// an RNG stream, so the output is bit-identical with or without it
    /// (asserted by tests).
    pub fn with_trace(mut self, tracer: std::sync::Arc<cwa_obs::Tracer>) -> Self {
        self.trace = Some(tracer);
        self
    }

    /// Executes the full pipeline, materializing every record.
    ///
    /// This is the batch API: a thin composition of
    /// [`prepare`](Simulation::prepare) + streaming the traffic into a
    /// `Vec` sink, so the batch and streaming paths share one code path
    /// and stay bit-identical by construction.
    pub fn run(&self) -> SimOutput {
        let prepared = self.prepare();
        let mut records: Vec<FlowRecord> = Vec::new();
        let (truth, _stats) = prepared.run_traffic(&mut records);
        prepared.into_output(records, truth)
    }

    /// Builds the world — country, address plan, side tables, scenario,
    /// adoption/epidemic/uploads, DNS study — *without* generating any
    /// traffic. The returned [`PreparedSim`] can then stream records to
    /// any [`FlowSink`] via [`PreparedSim::run_traffic`].
    ///
    /// Every phase derives its RNG from the master seed independently,
    /// so splitting preparation from traffic generation does not change
    /// any stream.
    pub fn prepare(&self) -> PreparedSim {
        let cfg = self.config;
        let germany = Germany::build();
        let plan = AddressPlan::build(&germany, cfg.plan);
        let geodb = GeoDb::build(
            &germany,
            &plan,
            GeoDbConfig {
                seed: cfg.seed ^ 0x9E0,
                ..cfg.geodb
            },
        );
        let gt_isp: IspId = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .expect("market has a ground-truth ISP")
            .id;

        let mut scenario = match cfg.scenario {
            ScenarioKind::Paper => Scenario::paper_default(&germany, gt_isp),
            ScenarioKind::OutbreaksWithoutNews => Scenario::outbreaks_without_news(&germany),
            ScenarioKind::Quiet => Scenario::quiet(),
        };
        cfg.outbreaks.apply(&mut scenario);

        let timeline = Timeline { days: cfg.days };
        let adoption = AdoptionModel::new(cfg.adoption).run(&germany, &scenario, timeline);
        let epidemic = EpidemicModel::new(EpidemicConfig {
            seed: cfg.seed ^ 0x5E1,
            ..EpidemicConfig::default()
        })
        .run(&germany, &scenario, cfg.days);
        let uploads =
            UploadPipeline::derive(&germany, &epidemic, &adoption, UploadConfig::default());

        let activity = ActivityModel::default();
        let cdn = CdnConfig {
            migration: cfg.cdn_migration,
            ..CdnConfig::default()
        };

        // DNS popularity study.
        let media: Vec<f64> = (0..timeline.hours())
            .map(|h| scenario.national_media_factor(h))
            .collect();
        let dns = run_dns_study(
            &TopListModel {
                seed: cfg.seed ^ 0xD45,
                ..TopListModel::default()
            },
            &adoption,
            &activity,
            &media,
            cfg.days,
        );

        // Side tables the operator hands over together with the traces.
        // Built from the *same* Crypto-PAn key the vantage point will
        // use, and the realistic router map (rural aggregation error).
        let routers = cwa_geo::RouterMap::build(
            &germany,
            &plan,
            cwa_geo::RouterMapConfig {
                seed: cfg.seed ^ 0xB46,
                ..Default::default()
            },
        );
        let cryptopan = CryptoPan::new(&cfg.vantage.anon_key);
        let (geodb, isp_table) = side_tables_from(&cryptopan, &plan, geodb, Some(&routers));
        drop(routers);
        // Daily export size: the real file the app fetches, sized by the
        // day's published key count via the actual wire format.
        let mut size_rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xE47);
        let export_sizes: Vec<f64> = (0..cfg.days)
            .map(|day| {
                let keys = uploads.keys.get(day as usize).copied().unwrap_or(0.0) as usize;
                cdn.export_size_bytes(&mut size_rng, day, keys) as f64
            })
            .collect();

        PreparedSim {
            config: cfg,
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
            chunk_capacity: self.chunk_capacity,
            germany,
            plan,
            geodb,
            isp_table,
            scenario,
            downloads: adoption,
            uploads,
            dns,
            cdn,
            activity,
            export_sizes,
        }
    }
}

/// A fully built world, ready to generate traffic. Produced by
/// [`Simulation::prepare`]; every field except the traffic itself.
///
/// The side tables (`geodb`, `isp_table`) are available *before* the
/// traffic run, which is what lets a streaming study construct its
/// analysis consumers up front and fuse simulate + analyze into one
/// pass. A driver that folds them into its own lookup structure takes
/// them with [`take_side_tables`](PreparedSim::take_side_tables) and
/// frees them before the traffic starts.
pub struct PreparedSim {
    /// The configuration used.
    pub config: SimConfig,
    metrics: Option<std::sync::Arc<cwa_obs::Registry>>,
    trace: Option<std::sync::Arc<cwa_obs::Tracer>>,
    chunk_capacity: Option<usize>,
    /// The country model.
    pub germany: Germany,
    /// The address plan (ground truth; tests/calibration only).
    pub plan: AddressPlan,
    /// Geolocation DB re-keyed to anonymized prefixes (side table).
    pub geodb: GeoDb,
    /// Anonymized prefix → ISP / router-ground-truth table (side table).
    pub isp_table: HashMap<u32, IspSideEntry>,
    /// The scenario being simulated.
    pub scenario: Scenario,
    /// Official national download curve (public statista data).
    pub downloads: AdoptionCurve,
    /// Diagnosis-key publication pipeline outputs.
    pub uploads: UploadPipeline,
    /// DNS popularity study results.
    pub dns: DnsStudy,
    /// The CDN model (its service prefixes are public documentation).
    pub cdn: CdnConfig,
    activity: ActivityModel,
    export_sizes: Vec<f64>,
}

impl PreparedSim {
    /// Hands the side tables over by value and leaves empty ones in
    /// their place, so the caller decides how long they live. The
    /// traffic run does not read them; [`into_output`] then carries
    /// empty tables.
    ///
    /// [`into_output`]: PreparedSim::into_output
    pub fn take_side_tables(&mut self) -> (GeoDb, HashMap<u32, IspSideEntry>) {
        (
            std::mem::take(&mut self.geodb),
            std::mem::take(&mut self.isp_table),
        )
    }

    /// Generates the traffic and streams every collected, anonymized
    /// record into `sink`, in chunks of one export hour — the collector
    /// never holds more than one chunk. Calls `sink.finish()` after the
    /// last record. Returns the traffic ground truth and the vantage
    /// run statistics (including the collector's peak resident record
    /// count).
    ///
    /// This is the one-shard case of
    /// [`run_traffic_sharded`](PreparedSim::run_traffic_sharded): the
    /// calling thread generates hour h+1 while one worker runs the whole
    /// router fleet, the collector and `sink` on hour h. The worker sees
    /// every event in generation order, so record order is that of the
    /// serial day loop (generate, observe, end of hour, drain), and the
    /// batch [`Simulation::run`] is this method with a `Vec` sink.
    pub fn run_traffic(&self, sink: &mut (dyn FlowSink + Send)) -> (GroundTruth, VantageRunStats) {
        let (truth, mut results) = self.run_traffic_sharded(ShardKeyMode::Common, vec![sink]);
        let (_, stats) = results.pop().expect("one shard, one result");
        (truth, stats)
    }

    /// Streams the traffic through `sinks.len()` vantage shards: the
    /// fleet's routers split into contiguous ranges, each shard with its
    /// own collector and worker thread, fed by the calling thread's
    /// generator over a bounded channel. Every shard's records go into
    /// its own sink, in chunks of one export hour. Each sink's
    /// `finish()` is called by its worker after the final flush. Returns
    /// the traffic ground truth plus every shard's `(sink, run
    /// statistics)` in shard order.
    ///
    /// Every shard anonymizes under the common key
    /// ([`ShardKeyMode::Common`], the only mode), so the union of the
    /// shards' record streams is exactly the records of
    /// [`run_traffic`](PreparedSim::run_traffic) — same set,
    /// partitioned by owning router.
    pub fn run_traffic_sharded<S: FlowSink + Send>(
        &self,
        key_mode: ShardKeyMode,
        sinks: Vec<S>,
    ) -> (GroundTruth, Vec<(S, VantageRunStats)>) {
        let ShardKeyMode::Common = key_mode;
        let cfg = self.config;
        let timeline = Timeline { days: cfg.days };
        let mut vantages = VantagePoint::shard(
            cfg.vantage,
            self.cdn.service_prefixes.to_vec(),
            cfg.plan.prefix_len,
            sinks.len(),
        );
        if let Some(cap) = self.chunk_capacity {
            for vantage in &mut vantages {
                vantage.set_chunk_capacity(cap);
            }
        }
        if let Some(registry) = &self.metrics {
            for vantage in &mut vantages {
                vantage.attach_metrics(registry);
            }
        }
        if let Some(tracer) = &self.trace {
            for vantage in &mut vantages {
                vantage.set_trace(std::sync::Arc::clone(tracer));
            }
        }
        let model = self.traffic_model();
        let shards: Vec<(VantagePoint, S)> = vantages.into_iter().zip(sinks).collect();
        let (truth, results) = crate::vantage::run_sharded_into(model, shards, timeline.hours());
        if let Some(registry) = &self.metrics {
            // One fleet-wide publication of the summed per-shard stats,
            // under counter names that do not depend on the shard count.
            let mut total = VantageRunStats::default();
            for (_, stats) in &results {
                let c = stats.cache;
                total.cache.packets_seen += c.packets_seen;
                total.cache.expired_inactive += c.expired_inactive;
                total.cache.expired_active += c.expired_active;
                total.cache.expired_emergency += c.expired_emergency;
                total.cache.expired_flush += c.expired_flush;
                total.dropped_datagrams += stats.dropped_datagrams;
                total.undecodable_datagrams += stats.undecodable_datagrams;
                total.lost_records += stats.lost_records;
            }
            publish_vantage_counters(registry, &total);
        }
        (truth, results)
    }

    /// The traffic generator for this world, sampling at the vantage
    /// routers' interval and counting into the attached registry.
    pub fn traffic_model(&self) -> TrafficModel<'_> {
        let cfg = self.config;
        let traffic_cfg = TrafficConfig {
            scale: cfg.scale,
            seed: cfg.seed ^ 0x7AF,
            background_ratio: cfg.traffic.background_ratio,
            active_subscriber_fraction: cfg.traffic.active_subscriber_fraction,
            sampling_interval: cfg.vantage.sampling_interval,
            ..TrafficConfig::default()
        };
        let model = TrafficModel::new(
            &self.germany,
            &self.plan,
            &self.scenario,
            &self.downloads,
            self.activity,
            self.cdn.clone(),
            traffic_cfg,
            Timeline { days: cfg.days }.hours(),
        )
        .with_export_sizes(&self.export_sizes);
        match &self.metrics {
            Some(registry) => model.with_metrics(registry),
            None => model,
        }
    }

    /// Assembles a [`SimOutput`] from this world plus the traffic run's
    /// products. `records` may be empty when the run was streamed into
    /// analysis consumers instead of materialized.
    pub fn into_output(self, records: Vec<FlowRecord>, truth: GroundTruth) -> SimOutput {
        SimOutput {
            records,
            geodb: self.geodb,
            isp_table: self.isp_table,
            downloads: self.downloads,
            dns: self.dns,
            uploads: self.uploads,
            cdn: self.cdn,
            scenario: self.scenario,
            germany: self.germany,
            plan: self.plan,
            truth,
            config: self.config,
        }
    }
}

/// Publishes a run's fleet-wide cache/transport statistics to the
/// registry.
fn publish_vantage_counters(registry: &cwa_obs::Registry, stats: &VantageRunStats) {
    let c = stats.cache;
    registry
        .counter("simnet.cache.packets_seen")
        .add(c.packets_seen);
    registry
        .counter("simnet.cache.expired_inactive")
        .add(c.expired_inactive);
    registry
        .counter("simnet.cache.expired_active")
        .add(c.expired_active);
    registry
        .counter("simnet.cache.expired_emergency")
        .add(c.expired_emergency);
    registry
        .counter("simnet.cache.expired_flush")
        .add(c.expired_flush);
    registry
        .counter("simnet.cache.evictions")
        .add(c.expired_inactive + c.expired_active + c.expired_emergency + c.expired_flush);
    registry
        .counter("simnet.transport.dropped_datagrams")
        .add(stats.dropped_datagrams);
    registry
        .counter("simnet.transport.undecodable_datagrams")
        .add(stats.undecodable_datagrams);
    registry
        .counter("simnet.transport.lost_records")
        .add(stats.lost_records);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run() -> SimOutput {
        Simulation::new(SimConfig {
            days: 4,
            ..SimConfig::test_small()
        })
        .run()
    }

    #[test]
    fn produces_records() {
        let out = small_run();
        assert!(!out.records.is_empty(), "no records collected");
        // All clients anonymized: none inside the real client ISP space
        // (84–95/8) — Crypto-PAn moves them essentially everywhere.
        let in_clear: usize = out
            .records
            .iter()
            .filter(|r| {
                let client = if out.cdn.is_service_addr(r.key.src_ip) {
                    r.key.dst_ip
                } else {
                    r.key.src_ip
                };
                out.plan.lookup(client).is_some()
            })
            .count();
        let frac = in_clear as f64 / out.records.len() as f64;
        assert!(frac < 0.1, "{frac} of clients resolvable in the raw plan");
    }

    #[test]
    fn side_tables_resolve_observed_clients() {
        let out = small_run();
        let mut hits = 0usize;
        let mut total = 0usize;
        // Extract clients exactly as the analysis pipeline does: only
        // flows with a CDN endpoint (the others get filtered out anyway).
        for r in &out.records {
            let client = if out.cdn.is_service_addr(r.key.src_ip) {
                r.key.dst_ip
            } else if out.cdn.is_service_addr(r.key.dst_ip) {
                r.key.src_ip
            } else {
                continue; // background traffic
            };
            total += 1;
            let net = cwa_geo::geodb::mask(client, out.config.plan.prefix_len);
            if out.isp_table.contains_key(&net) {
                hits += 1;
            }
        }
        assert!(total > 0);
        let frac = hits as f64 / total as f64;
        assert!(
            (frac - 1.0).abs() < 1e-9,
            "every CDN-flow client must resolve via the side table: {frac}"
        );
    }

    #[test]
    fn prepare_hands_over_the_tables_of_side_tables_with() {
        use cwa_geo::{RouterMap, RouterMapConfig};
        let cfg = SimConfig::default();
        let mut prepared = Simulation::new(cfg).prepare();
        let geodb = GeoDb::build(
            &prepared.germany,
            &prepared.plan,
            GeoDbConfig {
                seed: cfg.seed ^ 0x9E0,
                ..cfg.geodb
            },
        );
        let routers = RouterMap::build(
            &prepared.germany,
            &prepared.plan,
            RouterMapConfig {
                seed: cfg.seed ^ 0xB46,
                ..RouterMapConfig::default()
            },
        );
        let cryptopan = CryptoPan::new(&cfg.vantage.anon_key);
        let (geo, isp) =
            crate::vantage::side_tables_with(&cryptopan, &prepared.plan, &geodb, Some(&routers));

        let (taken_geo, taken_isp) = prepared.take_side_tables();
        assert!(taken_geo == geo, "geo DB");
        assert!(taken_isp == isp, "ISP side table");
        assert!(prepared.geodb.is_empty() && prepared.isp_table.is_empty());
    }

    #[test]
    fn deterministic() {
        let a = Simulation::new(SimConfig {
            days: 3,
            ..SimConfig::test_small()
        })
        .run();
        let b = Simulation::new(SimConfig {
            days: 3,
            ..SimConfig::test_small()
        })
        .run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.truth.api_flows, b.truth.api_flows);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::new(SimConfig {
            days: 3,
            ..SimConfig::test_small()
        })
        .run();
        let b = Simulation::new(SimConfig {
            days: 3,
            seed: 99,
            ..SimConfig::test_small()
        })
        .run();
        assert_ne!(a.records, b.records);
    }

    #[test]
    fn export_loss_fault_injection() {
        use crate::vantage::{ExportFormat, VantageConfig};
        let base = SimConfig {
            days: 3,
            ..SimConfig::test_small()
        };
        let clean = Simulation::new(base).run();

        // 5% transport loss: fewer records, analysis still functional,
        // and the collector's sequence-gap accounting sees the loss.
        let lossy = Simulation::new(SimConfig {
            vantage: VantageConfig {
                export_loss_rate: 0.05,
                ..base.vantage
            },
            ..base
        })
        .run();
        let ratio = lossy.records.len() as f64 / clean.records.len() as f64;
        assert!((0.90..0.99).contains(&ratio), "survival ratio {ratio}");

        // v9 under loss: lost template announcements only stall data
        // until re-announcement; most records still arrive.
        let lossy_v9 = Simulation::new(SimConfig {
            vantage: VantageConfig {
                export_loss_rate: 0.05,
                format: ExportFormat::V9,
                ..base.vantage
            },
            ..base
        })
        .run();
        let ratio9 = lossy_v9.records.len() as f64 / clean.records.len() as f64;
        assert!(ratio9 > 0.80, "v9 survival ratio {ratio9}");
    }

    #[test]
    fn v9_export_equals_v5() {
        use crate::vantage::{ExportFormat, VantageConfig};
        let base = SimConfig {
            days: 2,
            ..SimConfig::test_small()
        };
        let v5 = Simulation::new(base).run();
        let v9 = Simulation::new(SimConfig {
            vantage: VantageConfig {
                format: ExportFormat::V9,
                ..base.vantage
            },
            ..base
        })
        .run();
        // Identical sampling and caches; only the wire format differs —
        // and both codecs are lossless for our field set.
        assert_eq!(v5.records, v9.records);
    }

    #[test]
    fn metrics_do_not_perturb_determinism() {
        use std::collections::BTreeMap;
        use std::sync::Arc;
        let base = SimConfig {
            days: 3,
            ..SimConfig::test_small()
        };
        let sort_key = |r: &FlowRecord| {
            (
                r.first_ms,
                r.last_ms,
                r.key,
                r.bytes,
                r.packets,
                r.tcp_flags,
            )
        };
        // The 2-shard driver's record multiset, sorted for comparison.
        let sharded = |registry: Option<&Arc<cwa_obs::Registry>>| {
            let mut simulation = Simulation::new(base);
            if let Some(registry) = registry {
                simulation = simulation.with_metrics(Arc::clone(registry));
            }
            let (truth, results) = simulation
                .prepare()
                .run_traffic_sharded(ShardKeyMode::Common, vec![Vec::<FlowRecord>::new(); 2]);
            let mut records: Vec<FlowRecord> = results.into_iter().flat_map(|(r, _)| r).collect();
            records.sort_by_key(sort_key);
            (records, truth)
        };

        let plain_serial = Simulation::new(base).run();
        let reg_serial = Arc::new(cwa_obs::Registry::new());
        let metered_serial = Simulation::new(base)
            .with_metrics(Arc::clone(&reg_serial))
            .run();
        let (plain_sharded, _) = sharded(None);
        let reg_sharded = Arc::new(cwa_obs::Registry::new());
        let (metered_sharded, metered_truth) = sharded(Some(&reg_sharded));

        // Records are identical across {serial, 2 shards} × {metrics
        // off, metrics on}: bit for bit serially, as a multiset sharded.
        assert_eq!(
            plain_serial.records, metered_serial.records,
            "serial: metrics on == off"
        );
        let mut expected = plain_serial.records.clone();
        expected.sort_by_key(sort_key);
        assert_eq!(expected, plain_sharded, "2 shards == serial");
        assert_eq!(expected, metered_sharded, "metered 2 shards == serial");
        assert_eq!(plain_serial.truth.api_flows, metered_truth.api_flows);

        // The logical counters agree between drivers. The Crypto-PAn
        // memo is per collector, so shards split its hits and misses
        // differently, hold different addresses in their slots and pay
        // for the trie nodes they share once each; only the sum of hits
        // and misses, one lookup per address, is logical.
        let logical = |registry: &cwa_obs::Registry| -> BTreeMap<String, i64> {
            let mut counters: BTreeMap<String, i64> = registry
                .sample()
                .into_iter()
                .filter(|(name, _)| {
                    [
                        "simnet.traffic.",
                        "simnet.router.",
                        "simnet.cache.",
                        "netflow.collector.",
                    ]
                    .iter()
                    .any(|prefix| name.starts_with(prefix))
                })
                .collect();
            let hits = counters.remove("netflow.collector.cryptopan_cache_hits");
            let misses = counters.remove("netflow.collector.cryptopan_cache_misses");
            counters.remove("netflow.collector.cryptopan_blocks");
            counters.remove("netflow.collector.cryptopan_address_hits");
            counters.insert(
                "cryptopan lookups".to_owned(),
                hits.unwrap_or(0) + misses.unwrap_or(0),
            );
            counters
        };
        let serial_counters = logical(&reg_serial);
        assert!(serial_counters.len() > 10, "{serial_counters:?}");
        assert_eq!(
            serial_counters,
            logical(&reg_sharded),
            "logical counters must not depend on the driver"
        );
        assert!(reg_serial.counter("simnet.traffic.flow_events").get() > 0);
        assert_eq!(
            reg_serial.counter("netflow.collector.records").get(),
            plain_serial.records.len() as u64,
            "collector counter matches the record set"
        );
    }

    #[test]
    fn streamed_run_matches_batch_and_bounds_residency() {
        use cwa_netflow::sink::CountingSink;
        let base = SimConfig {
            days: 3,
            ..SimConfig::test_small()
        };
        let batch = Simulation::new(base).run();

        // Stream the same config into a pure counter: same record
        // count, but the collector never held the full set.
        let prepared = Simulation::new(base).prepare();
        let mut sink = CountingSink::default();
        let (truth, stats) = prepared.run_traffic(&mut sink);
        assert!(sink.finished, "run_traffic signals end of stream");
        assert_eq!(sink.records, batch.records.len() as u64);
        assert_eq!(truth.api_flows, batch.truth.api_flows);
        assert!(
            stats.peak_resident_records < sink.records,
            "hourly chunks: peak {} of {} total",
            stats.peak_resident_records,
            sink.records
        );

        // Streaming into a Vec reproduces the batch records exactly.
        let prepared = Simulation::new(base).prepare();
        let mut records: Vec<FlowRecord> = Vec::new();
        prepared.run_traffic(&mut records);
        assert_eq!(records, batch.records);
    }

    #[test]
    fn sharded_union_equals_unsharded_set() {
        let base = SimConfig {
            days: 3,
            ..SimConfig::test_small()
        };
        let batch = Simulation::new(base).run();

        let sort_key = |r: &FlowRecord| {
            (
                r.first_ms,
                r.last_ms,
                r.key,
                r.bytes,
                r.packets,
                r.tcp_flags,
            )
        };
        let mut expected = batch.records.clone();
        expected.sort_by_key(sort_key);

        for shards in [1usize, 2, 3] {
            let prepared = Simulation::new(base).prepare();
            let sinks: Vec<Vec<FlowRecord>> = vec![Vec::new(); shards];
            let (truth, results) = prepared.run_traffic_sharded(ShardKeyMode::Common, sinks);
            assert_eq!(truth.api_flows, batch.truth.api_flows);
            let mut union: Vec<FlowRecord> = Vec::new();
            for (records, stats) in &results {
                union.extend_from_slice(records);
                assert!(
                    stats.peak_resident_records <= records.len() as u64,
                    "shard residency bounded by its own record count"
                );
            }
            union.sort_by_key(sort_key);
            assert_eq!(
                union, expected,
                "{shards}-shard union must equal the unsharded record set"
            );
        }
    }

    #[test]
    fn counters_add_up_at_every_shard_count() {
        use cwa_netflow::sink::CountingSink;
        use std::sync::Arc;
        let base = SimConfig {
            days: 2,
            ..SimConfig::test_small()
        };
        // The sampled counts the generator emits, from a second run of
        // the same generator.
        let mut emitted = 0u64;
        let truth = Simulation::new(base)
            .prepare()
            .traffic_model()
            .run(&mut |ev| emitted += ev.sampled);
        assert!(emitted > 0);
        let mut per_router: Option<Vec<u64>> = None;
        for shards in [1usize, 2, 4] {
            let registry = Arc::new(cwa_obs::Registry::new());
            let prepared = Simulation::new(base)
                .with_metrics(Arc::clone(&registry))
                .prepare();
            let sinks = (0..shards).map(|_| CountingSink::default()).collect();
            let (run_truth, _) = prepared.run_traffic_sharded(ShardKeyMode::Common, sinks);
            let count = |name: &str| registry.counter(name).get();
            assert_eq!(run_truth.total_events, truth.total_events);
            assert_eq!(count("simnet.traffic.flow_events"), truth.total_events);
            let sampled: Vec<u64> = (0..base.vantage.routers)
                .map(|r| count(&format!("simnet.router.{r:02}.sampled_packets")))
                .collect();
            let total: u64 = sampled.iter().sum();
            assert_eq!(total, count("simnet.cache.packets_seen"), "{shards} shards");
            assert_eq!(total, emitted, "{shards} shards");
            let first = per_router.get_or_insert_with(|| sampled.clone());
            assert_eq!(*first, sampled, "per-router counts at {shards} shards");
        }
    }

    #[test]
    fn scenario_variants_run() {
        for kind in [ScenarioKind::Quiet, ScenarioKind::OutbreaksWithoutNews] {
            let out = Simulation::new(SimConfig {
                days: 2,
                scenario: kind,
                ..SimConfig::test_small()
            })
            .run();
            assert!(out.records.len() < 10_000_000);
        }
    }
}
