//! The traced run: the study pipeline rebuilt from each layer's public
//! functions, with every call into a layer timed from here. Nothing is
//! read from the program's tracer; the only program counters read are
//! the sharded driver's channel waits, which no outside caller can see.
//!
//! The serial path mirrors `Simulation::prepare` and the serial day loop
//! of `PreparedSim::run_traffic` step by step. `PreparedSim` keeps the
//! daily export sizes private, so they are recomputed here through
//! `CdnConfig::export_size_bytes`; the exact-output gate in `main.rs`
//! catches any drift between this copy and the program.
//!
//! Work done only to feed that gate (copying the records, assembling the
//! batch report with `Study::analyze`, building the compared outputs) is
//! booked on a separate gate clock, never on a ledger row: the untraced
//! drivers never do it, and the caller takes it off the traced wall.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use cwa_analysis::geoloc::IspInfo;
use cwa_analysis::{
    Figure2, FlowFilter, GeoDayAccumulator, GeolocationPipeline, HourlySeries, OutbreakAccumulator,
    PersistenceAnalysis, WindowConfig, WindowedView,
};
use cwa_core::{Study, StudyConfig, StudyReport};
use cwa_epidemic::{
    ActivityModel, AdoptionCurve, AdoptionModel, EpidemicConfig, EpidemicModel, Scenario, Timeline,
    UploadConfig, UploadPipeline,
};
use cwa_geo::{AddressPlan, GeoDb, GeoDbConfig, Germany, RouterMap, RouterMapConfig};
use cwa_netflow::anonymize::CryptoPan;
use cwa_netflow::{Collector, FlowChunk, FlowRecord, FlowSink};
use cwa_obs::Registry;
use cwa_perfbench::Ledger;
use cwa_simnet::dns::{run_dns_study, DnsStudy, TopListModel};
use cwa_simnet::traffic::{FlowEvent, TrafficModel};
use cwa_simnet::vantage::{router_for, side_tables_with, ExportFormat, IspSideEntry, Router};
use cwa_simnet::TrafficConfig;
use cwa_simnet::{CdnConfig, ScenarioKind, ShardKeyMode, SimConfig, SimOutput, Simulation};

/// Counts the traced run observed, beside the ledger's busy times.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub events: u64,
    pub generated_packets: u64,
    pub sampled_packets: u64,
    pub datagrams: u64,
    pub records: u64,
    pub matched: u64,
    pub cryptopan_hits: u64,
    pub cryptopan_misses: u64,
    pub peak_resident_records: u64,
    pub publishes: u64,
}

impl Counts {
    fn absorb(&mut self, o: &Counts) {
        self.events += o.events;
        self.generated_packets += o.generated_packets;
        self.sampled_packets += o.sampled_packets;
        self.datagrams += o.datagrams;
        self.records += o.records;
        self.matched += o.matched;
        self.cryptopan_hits += o.cryptopan_hits;
        self.cryptopan_misses += o.cryptopan_misses;
        self.peak_resident_records = self.peak_resident_records.max(o.peak_resident_records);
        self.publishes += o.publishes;
    }
}

/// The outputs the exact-output gate compares with the untraced run.
#[derive(Debug, Clone)]
pub struct Outputs {
    pub records: u64,
    pub matching_flows: u64,
    /// Figure 2 as the report serializes it.
    pub figure2_json: String,
    pub district_flows: Vec<u64>,
}

impl Outputs {
    /// The same fields, read off a finished report.
    pub fn of_report(report: &StudyReport) -> Self {
        Outputs {
            records: report.total_records,
            matching_flows: report.matching_flows,
            figure2_json: serde_json::to_string(&report.figure2).expect("figure serializes"),
            district_flows: report.district_flows.clone(),
        }
    }
}

/// Times `f` into ledger row `row`.
fn timed<T>(ledger: &mut Ledger, row: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    ledger.add(row, t.elapsed());
    out
}

/// The world `Simulation::prepare` builds, assembled from its public
/// parts.
struct World {
    germany: Germany,
    plan: AddressPlan,
    geodb: GeoDb,
    isp_table: HashMap<u32, IspSideEntry>,
    scenario: Scenario,
    downloads: AdoptionCurve,
    uploads: UploadPipeline,
    dns: DnsStudy,
    cdn: CdnConfig,
    activity: ActivityModel,
    export_sizes: Vec<f64>,
}

/// `Simulation::prepare`, sub-step by sub-step: `setup.world` (country,
/// address plan, geo DB, scenario, adoption, epidemic, uploads, DNS,
/// router map), `setup.side_tables` (uncached Crypto-PAn over every
/// allocation) and `setup.export_sizes` (one signed key export per day).
fn build_world(cfg: &SimConfig, ledger: &mut Ledger) -> World {
    let t = Instant::now();
    let germany = Germany::build();
    let plan = AddressPlan::build(&germany, cfg.plan);
    let geodb_raw = GeoDb::build(
        &germany,
        &plan,
        GeoDbConfig {
            seed: cfg.seed ^ 0x9E0,
            ..cfg.geodb
        },
    );
    let gt_isp = plan
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
    let downloads = AdoptionModel::new(cfg.adoption).run(&germany, &scenario, timeline);
    let epidemic = EpidemicModel::new(EpidemicConfig {
        seed: cfg.seed ^ 0x5E1,
        ..EpidemicConfig::default()
    })
    .run(&germany, &scenario, cfg.days);
    let uploads = UploadPipeline::derive(&germany, &epidemic, &downloads, UploadConfig::default());
    let activity = ActivityModel::default();
    let cdn = CdnConfig {
        migration: cfg.cdn_migration,
        ..CdnConfig::default()
    };
    let media: Vec<f64> = (0..timeline.hours())
        .map(|h| scenario.national_media_factor(h))
        .collect();
    let dns = run_dns_study(
        &TopListModel {
            seed: cfg.seed ^ 0xD45,
            ..TopListModel::default()
        },
        &downloads,
        &activity,
        &media,
        cfg.days,
    );
    let routers = RouterMap::build(
        &germany,
        &plan,
        RouterMapConfig {
            seed: cfg.seed ^ 0xB46,
            ..Default::default()
        },
    );
    ledger.add("setup.world", t.elapsed());

    let (geodb, isp_table) = timed(ledger, "setup.side_tables", || {
        let cryptopan = CryptoPan::new(&cfg.vantage.anon_key);
        side_tables_with(&cryptopan, &plan, &geodb_raw, Some(&routers))
    });
    let export_sizes = timed(ledger, "setup.export_sizes", || {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xE47);
        (0..cfg.days)
            .map(|day| {
                let keys = uploads.keys.get(day as usize).copied().unwrap_or(0.0) as usize;
                cdn.export_size_bytes(&mut rng, day, keys) as f64
            })
            .collect()
    });
    World {
        germany,
        plan,
        geodb,
        isp_table,
        scenario,
        downloads,
        uploads,
        dns,
        cdn,
        activity,
        export_sizes,
    }
}

fn analysis_isp_table(table: &HashMap<u32, IspSideEntry>) -> HashMap<u32, IspInfo> {
    table
        .iter()
        .map(|(&net, e)| {
            (
                net,
                IspInfo {
                    isp: e.isp.0,
                    router_district: e.router_district,
                },
            )
        })
        .collect()
}

/// The §2 filter and the four streaming consumers, each call timed into
/// its own ledger row. Also keeps every record for the gate's batch
/// report, on the gate clock.
struct TimedConsumers<'w, F> {
    filter: &'w FlowFilter,
    series: HourlySeries,
    geo: GeoDayAccumulator<'w>,
    persistence: PersistenceAnalysis,
    outbreak: OutbreakAccumulator<'w, F>,
    selection: FlowChunk,
    kept: Vec<FlowRecord>,
    ledger: Ledger,
    gate: Duration,
    records: u64,
    matched: u64,
}

impl<F> FlowSink for TimedConsumers<'_, F>
where
    F: Fn(Ipv4Addr) -> Option<u8>,
{
    fn observe(&mut self, rec: &FlowRecord) {
        let mut one = FlowChunk::default();
        one.push(rec);
        self.observe_chunk(&one);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        self.records += chunk.len() as u64;
        let mut sel = std::mem::take(&mut self.selection);
        let l = &mut self.ledger;
        timed(l, "analysis.filter", || {
            self.filter.select_into(chunk, &mut sel)
        });
        self.matched += sel.len() as u64;
        if !sel.is_empty() {
            timed(l, "analysis.timeseries", || self.series.observe_chunk(&sel));
            timed(l, "analysis.geoloc", || self.geo.observe_chunk(&sel));
            timed(l, "analysis.persistence", || {
                self.persistence.observe_chunk(&sel)
            });
            timed(l, "analysis.outbreak", || self.outbreak.observe_chunk(&sel));
        }
        let t = Instant::now();
        self.kept.extend(chunk.iter());
        self.gate += t.elapsed();
        self.selection = sel;
    }

    fn finish(&mut self) {
        let l = &mut self.ledger;
        timed(l, "analysis.timeseries", || self.series.finish());
        timed(l, "analysis.geoloc", || self.geo.finish());
        timed(l, "analysis.persistence", || self.persistence.finish());
        timed(l, "analysis.outbreak", || self.outbreak.finish());
    }
}

/// Wraps a sink so the time spent inside it can be taken out of the
/// caller's row (`collector.drain` is the drain's self time).
struct SinkClock<'s, S> {
    inner: &'s mut S,
    busy: Duration,
}

impl<S: FlowSink> FlowSink for SinkClock<'_, S> {
    fn observe(&mut self, rec: &FlowRecord) {
        let t = Instant::now();
        self.inner.observe(rec);
        self.busy += t.elapsed();
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        let t = Instant::now();
        self.inner.observe_chunk(chunk);
        self.busy += t.elapsed();
    }
}

/// Drains the collector into `sink`, booking the drain's self time.
fn drain<S: FlowSink>(collector: &mut Collector, sink: &mut S, ledger: &mut Ledger) {
    let t = Instant::now();
    let mut clock = SinkClock {
        inner: sink,
        busy: Duration::ZERO,
    };
    collector.drain_into(&mut clock);
    ledger.add("collector.drain", t.elapsed().saturating_sub(clock.busy));
}

/// Ingests one router's export datagrams.
fn ingest(collector: &mut Collector, wires: Vec<bytes::Bytes>, c: &mut Counts, l: &mut Ledger) {
    c.datagrams += wires.len() as u64;
    timed(l, "collector.ingest", || {
        for wire in wires {
            collector
                .ingest(wire)
                .expect("self-produced v5 datagram is valid");
        }
    });
}

/// One traced study: returns the batch report over the collected
/// records (claims included) and the streaming consumers' outputs. Both
/// exist for the exact-output gate only; the time spent building them is
/// added to `gate`.
pub fn study(
    cfg: &StudyConfig,
    ledger: &mut Ledger,
    counts: &mut Counts,
    gate: &mut Duration,
) -> (StudyReport, Outputs) {
    let sim = cfg.sim;
    assert!(
        sim.vantage.format == ExportFormat::V5 && sim.vantage.export_loss_rate == 0.0,
        "the traced run replays the lossless NetFlow v5 path only"
    );
    let world = build_world(&sim, ledger);
    let days = sim.days;
    let hours = Timeline { days }.hours();

    let filter = FlowFilter::cwa(world.cdn.service_prefixes.to_vec());
    let isp_table = analysis_isp_table(&world.isp_table);
    let prefix_len = sim.plan.prefix_len;
    let pipeline = GeolocationPipeline::new(&world.germany, &world.geodb, &isp_table, prefix_len);
    let resolver = |client: Ipv4Addr| {
        isp_table
            .get(&cwa_geo::geodb::mask(client, prefix_len))
            .map(|e| e.isp)
    };
    let mut sink = TimedConsumers {
        filter: &filter,
        series: HourlySeries::new(hours),
        geo: GeoDayAccumulator::new(&pipeline, days.min(11)),
        persistence: PersistenceAnalysis::new(cfg.persistence_prefix_len, days),
        outbreak: OutbreakAccumulator::new(&world.germany, &pipeline, resolver, days),
        selection: FlowChunk::default(),
        kept: Vec::new(),
        ledger: Ledger::default(),
        gate: Duration::ZERO,
        records: 0,
        matched: 0,
    };

    let mut model = TrafficModel::new(
        &world.germany,
        &world.plan,
        &world.scenario,
        &world.downloads,
        world.activity,
        world.cdn.clone(),
        TrafficConfig {
            scale: sim.scale,
            seed: sim.seed ^ 0x7AF,
            background_ratio: sim.traffic.background_ratio,
            active_subscriber_fraction: sim.traffic.active_subscriber_fraction,
            ..TrafficConfig::default()
        },
        hours,
    )
    .with_export_sizes(&world.export_sizes);
    let n_routers = usize::from(sim.vantage.routers);
    let mut routers: Vec<Router> = (0..sim.vantage.routers)
        .map(|id| Router::new(id, &sim.vantage))
        .collect();
    let mut collector =
        Collector::new_anonymizing(&sim.vantage.anon_key, world.cdn.service_prefixes.to_vec());

    let mut events: Vec<FlowEvent> = Vec::new();
    let mut c = Counts::default();
    for hour in 0..hours {
        events.clear();
        timed(ledger, "traffic.generate", || {
            model.generate_hour(hour, &mut |ev| events.push(*ev))
        });
        timed(ledger, "vantage.route_sample", || {
            for ev in &events {
                routers[router_for(ev, prefix_len, n_routers)].observe(ev);
            }
        });
        c.events += events.len() as u64;
        c.generated_packets += events.iter().map(|e| e.packets).sum::<u64>();
        for router in &mut routers {
            let wires = timed(ledger, "vantage.export", || router.end_of_hour(hour));
            ingest(&mut collector, wires, &mut c, ledger);
        }
        drain(&mut collector, &mut sink, ledger);
        sink.checkpoint();
    }
    let truth = model.into_truth();
    for router in &mut routers {
        let wires = timed(ledger, "vantage.export", || router.finish(hours - 1));
        ingest(&mut collector, wires, &mut c, ledger);
    }
    c.sampled_packets = routers.iter().map(|r| r.stats().packets_seen).sum();
    c.peak_resident_records = collector.peak_resident_records() as u64;
    (c.cryptopan_hits, c.cryptopan_misses) = collector.cryptopan_cache_stats();
    drain(&mut collector, &mut sink, ledger);
    sink.checkpoint();
    sink.finish();
    c.records = sink.records;
    c.matched = sink.matched;
    for (name, d) in sink.ledger.rows() {
        ledger.add(name, *d);
    }

    let gate_start = Instant::now();
    let downloads_hourly: Vec<f64> = (0..hours)
        .map(|h| world.downloads.downloads_at(h))
        .collect();
    let outputs = Outputs {
        records: sink.records,
        matching_flows: sink.matched,
        figure2_json: serde_json::to_string(&Figure2::assemble(
            &sink.series,
            &downloads_hourly,
            48,
        ))
        .expect("figure serializes"),
        district_flows: sink.geo.result(1, days.min(11)).district_flows,
    };
    let records = std::mem::take(&mut sink.kept);
    *gate += sink.gate;
    drop(sink);
    let output = SimOutput {
        records,
        geodb: world.geodb,
        isp_table: world.isp_table,
        downloads: world.downloads,
        dns: world.dns,
        uploads: world.uploads,
        cdn: world.cdn,
        scenario: world.scenario,
        germany: world.germany,
        plan: world.plan,
        truth,
        config: sim,
    };
    let report = Study::new(*cfg)
        .analyze(&output)
        .expect("a non-strict study always reports");
    drop(output);
    *gate += gate_start.elapsed();
    counts.absorb(&c);
    (report, outputs)
}

/// One shard's live consumer chain: the §2 filter feeding a windowed
/// view, with a day-boundary clone deposited for the interim publisher
/// — the shape of the sharded live driver, timed from here.
struct TimedLiveShard<'w, F> {
    filter: &'w FlowFilter,
    view: WindowedView<'w, F>,
    selection: FlowChunk,
    deposits: Arc<Mutex<VecDeque<WindowedView<'w, F>>>>,
    records: u64,
    matched: u64,
    filter_busy: Duration,
    view_busy: Duration,
    busy: Duration,
}

impl<F> FlowSink for TimedLiveShard<'_, F>
where
    F: Fn(Ipv4Addr) -> Option<u8> + Clone,
{
    fn observe(&mut self, rec: &FlowRecord) {
        let mut one = FlowChunk::default();
        one.push(rec);
        self.observe_chunk(&one);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        let t0 = Instant::now();
        self.records += chunk.len() as u64;
        let mut sel = std::mem::take(&mut self.selection);
        self.filter.select_into(chunk, &mut sel);
        let t1 = Instant::now();
        self.matched += sel.len() as u64;
        if !sel.is_empty() {
            self.view.observe_chunk(&sel);
        }
        self.selection = sel;
        let t2 = Instant::now();
        self.filter_busy += t1 - t0;
        self.view_busy += t2 - t1;
        self.busy += t2 - t0;
    }

    fn checkpoint(&mut self) {
        let t0 = Instant::now();
        self.view.checkpoint();
        let t1 = Instant::now();
        if self.view.hours_seen() % 24 == 0 {
            self.deposits
                .lock()
                .expect("deposit queue lock")
                .push_back(self.view.clone());
        }
        self.view_busy += t1 - t0;
        self.busy += t0.elapsed();
    }
}

/// What the traced sharded live run measured.
pub struct LiveTrace {
    pub outputs: Outputs,
    /// Per shard: (busy in the sink, idle waiting for the feed), s.
    pub shards: Vec<(f64, f64)>,
    /// Feed thread blocked on full shard channels, s (all shards).
    pub send_block_s: f64,
    pub filter_s: f64,
    pub windowed_s: f64,
    pub absorb_s: f64,
    pub publish_s: f64,
}

/// The sharded live pipeline: `PreparedSim::run_traffic_sharded` with
/// timed per-shard sinks, day-boundary merges (`absorb`) and figure
/// publication on a publisher thread, then the final merge.
/// The merged totals it returns are built for the gate, on `gate`.
pub fn live_sharded(
    cfg: &StudyConfig,
    shards: usize,
    ledger: &mut Ledger,
    counts: &mut Counts,
    gate: &mut Duration,
) -> LiveTrace {
    let registry = Arc::new(Registry::new());
    let prepared = timed(ledger, "setup.prepare", || {
        Simulation::new(cfg.sim)
            .with_metrics(Arc::clone(&registry))
            .prepare()
    });
    let days = cfg.sim.days;
    let hours = Timeline { days }.hours();
    let prefix_len = cfg.sim.plan.prefix_len;
    let filter = FlowFilter::cwa(prepared.cdn.service_prefixes.to_vec());
    let isp_table = analysis_isp_table(&prepared.isp_table);
    let pipeline =
        GeolocationPipeline::new(&prepared.germany, &prepared.geodb, &isp_table, prefix_len);
    let table = &isp_table;
    let resolver = move |client: Ipv4Addr| {
        table
            .get(&cwa_geo::geodb::mask(client, prefix_len))
            .map(|e| e.isp)
    };
    let queues: Vec<_> = (0..shards)
        .map(|_| Arc::new(Mutex::new(VecDeque::new())))
        .collect();
    let sinks: Vec<_> = queues
        .iter()
        .map(|q| TimedLiveShard {
            filter: &filter,
            view: WindowedView::new(
                &prepared.germany,
                &pipeline,
                resolver,
                cfg.persistence_prefix_len,
                days.min(64),
                WindowConfig::default(),
            ),
            selection: FlowChunk::default(),
            deposits: Arc::clone(q),
            records: 0,
            matched: 0,
            filter_busy: Duration::ZERO,
            view_busy: Duration::ZERO,
            busy: Duration::ZERO,
        })
        .collect();
    let live = Arc::new(cwa_obs::LiveSnapshot::new());
    let stop = AtomicBool::new(false);
    let t = Instant::now();
    let (results, absorb, publish, publishes) = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            let (mut absorb, mut publish, mut publishes) = (Duration::ZERO, Duration::ZERO, 0u64);
            loop {
                let fronts: Option<Vec<_>> = {
                    let mut guards: Vec<_> = queues
                        .iter()
                        .map(|q| q.lock().expect("deposit queue lock"))
                        .collect();
                    if guards.iter().all(|g| !g.is_empty()) {
                        Some(guards.iter_mut().filter_map(|g| g.pop_front()).collect())
                    } else {
                        None
                    }
                };
                let Some(mut parts) = fronts else {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                };
                let t = Instant::now();
                let mut merged = parts.remove(0);
                for view in &parts {
                    merged.absorb(view);
                }
                absorb += t.elapsed();
                let t = Instant::now();
                cwa_core::live::publish_figures(&live, &merged.snapshot());
                publish += t.elapsed();
                publishes += 1;
            }
            (absorb, publish, publishes)
        });
        let (_truth, results) = prepared.run_traffic_sharded(ShardKeyMode::Common, sinks);
        stop.store(true, Ordering::Release);
        let (absorb, publish, publishes) = publisher.join().expect("publisher thread");
        (results, absorb, publish, publishes)
    });
    ledger.add("shards.run_traffic", t.elapsed());

    let ns = |name: String| registry.counter(&name).get() as f64 / 1e9;
    let mut c = Counts {
        publishes: publishes + 1,
        ..Counts::default()
    };
    let (mut per_shard, mut send_block_s) = (Vec::with_capacity(shards), 0.0);
    let (mut filter_busy, mut view_busy) = (Duration::ZERO, Duration::ZERO);
    let mut parts = Vec::with_capacity(shards);
    for (i, (sink, stats)) in results.into_iter().enumerate() {
        per_shard.push((
            sink.busy.as_secs_f64(),
            ns(format!("sim.shard.{i:02}.recv_idle_ns")),
        ));
        send_block_s += ns(format!("sim.shard.{i:02}.send_block_ns"));
        filter_busy += sink.filter_busy;
        view_busy += sink.view_busy;
        c.records += sink.records;
        c.matched += sink.matched;
        c.peak_resident_records = c.peak_resident_records.max(stats.peak_resident_records);
        parts.push(sink.view);
    }
    let merged = timed(ledger, "merge.absorb", || {
        let mut parts = parts.into_iter();
        let mut merged = parts.next().expect("at least one shard");
        for part in parts {
            merged.absorb(&part);
        }
        merged
    });
    timed(ledger, "live.publish", || {
        cwa_core::live::publish_figures(&live, &merged.snapshot())
    });

    let count = |name: &str| registry.counter(name).get();
    c.events = count("simnet.traffic.flow_events");
    for r in 0..cfg.sim.vantage.routers {
        let sampled = count(&format!("simnet.router.{r:02}.sampled_packets"));
        c.sampled_packets += sampled;
        c.generated_packets += sampled + count(&format!("simnet.router.{r:02}.unsampled_packets"));
    }
    c.cryptopan_hits = count("netflow.collector.cryptopan_cache_hits");
    c.cryptopan_misses = count("netflow.collector.cryptopan_cache_misses");
    counts.absorb(&c);

    let gate_start = Instant::now();
    let downloads_hourly: Vec<f64> = (0..hours)
        .map(|h| prepared.downloads.downloads_at(h))
        .collect();
    let outputs = Outputs {
        records: c.records,
        matching_flows: c.matched,
        figure2_json: serde_json::to_string(&Figure2::assemble(
            &merged.series,
            &downloads_hourly,
            48,
        ))
        .expect("figure serializes"),
        district_flows: merged.geo.result(1, days.min(11)).district_flows,
    };
    *gate += gate_start.elapsed();
    LiveTrace {
        outputs,
        shards: per_shard,
        send_block_s,
        filter_s: filter_busy.as_secs_f64(),
        windowed_s: view_busy.as_secs_f64(),
        absorb_s: absorb.as_secs_f64() + ledger.seconds("merge.absorb"),
        publish_s: publish.as_secs_f64() + ledger.seconds("live.publish"),
    }
}
