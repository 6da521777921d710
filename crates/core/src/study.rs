//! The study runner: simulate → analyze → evaluate.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use cwa_obs::{Counter, LiveSnapshot, Registry, StageLog, TraceBuf, Tracer};

use cwa_analysis::figures::{Figure2, Figure3};
use cwa_analysis::filter::FlowFilter;
use cwa_analysis::geoloc::{GeoDayAccumulator, GeoResult, GeolocationPipeline, IspInfo};
use cwa_analysis::outbreak::{OutbreakAccumulator, OutbreakAnalysis};
use cwa_analysis::persistence::PersistenceAnalysis;
use cwa_analysis::stream::StreamCounts;
use cwa_analysis::timeseries::HourlySeries;
use cwa_analysis::windowed::{WindowConfig, WindowSnapshot, WindowedSnapshot, WindowedView};
use cwa_epidemic::timeline::{JULY_24_DAY, MILESTONE_36H_HOUR};
use cwa_epidemic::{AdoptionCurve, AdoptionModel, Scenario, Timeline};
use cwa_geo::{AddressPlan, GeoDb, Germany};
use cwa_netflow::flow::FlowRecord;
use cwa_netflow::sink::{FlowChunk, FlowSink};
use cwa_simnet::{
    DnsStudy, IspSideEntry, PreparedSim, ShardKeyMode, SimConfig, SimOutput, Simulation,
};

use crate::claims::{Cell, Claim, ClaimId};
use crate::live::{LiveOptions, WindowVerdicts};
use crate::report::{PhaseTiming, RunManifest, StudyReport};

/// Minimum per-cell observation counts below which the claims reading a
/// cell are reported as [`Verdict::Starved`](crate::claims::Verdict)
/// instead of pass/fail. The thresholds were tuned empirically across
/// scales 0.0005–0.02: at scale 0.02 every cell clears its threshold
/// (the full claim table evaluates, nothing starves); at 0.01 the day-1
/// geo window is the first cell to drop under (≈1.4k located flows —
/// its C5b share estimate is visibly noise-driven there); at 0.005 the
/// Berlin per-ISP window follows (≈75 pre-window flows); and the
/// default `test_small` scale 0.004 additionally drains the Gütersloh
/// pre-window. A starved cell means "not enough observations to judge",
/// never "the claim failed".
pub mod min_support {
    /// §2 matching flows for C1 — any evidence at all.
    pub const FLOWS: u64 = 1;
    /// Pre-release-day flows for the C2 jump denominator.
    pub const DAY0_FLOWS: u64 = 25;
    /// Distinct prefixes behind the C4 persistence quantiles.
    pub const PREFIXES: u64 = 20;
    /// Located flows in the 10-day geo window (C5a, C7c).
    pub const GEO_10DAY_FLOWS: u64 = 5_000;
    /// Located flows in the day-1 geo window (C5b).
    pub const GEO_DAY1_FLOWS: u64 = 2_000;
    /// National pre-window flows for the C6a growth ratio.
    pub const OUTBREAK_NATIONAL_PRE: u64 = 400;
    /// Gütersloh pre-window flows for the C6b growth ratio.
    pub const OUTBREAK_DISTRICT_PRE: u64 = 12;
    /// Berlin per-ISP pre-window flows for C6c.
    pub const OUTBREAK_BERLIN_PRE: u64 = 100;
}

/// A structured failure of a study run. Since starvation degraded into
/// per-claim [`Verdict::Starved`](crate::claims::Verdict) verdicts,
/// everything data-related is reported *inside* the [`StudyReport`];
/// these errors remain only for explicit strictness and misconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyError {
    /// The run produced records, but none matched the §2 CWA filter —
    /// typically a scale so small that not a single sampled CWA flow
    /// survived 1-in-N packet sampling. Only raised under
    /// [`Study::strict`]; the default path reports every claim as
    /// starved instead.
    NoMatchingFlows {
        /// The traffic scale that was simulated.
        scale: f64,
        /// How many (non-matching) records the run did produce.
        total_records: u64,
    },
    /// A sharded run was asked for more shards than there are export
    /// engines (routers) to split across, or for zero shards.
    InvalidShardCount {
        /// The requested shard count.
        requested: usize,
        /// The configured router count (the maximum).
        routers: u8,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::NoMatchingFlows {
                scale,
                total_records,
            } => write!(
                f,
                "no flows matched the §2 CWA filter at scale {scale} \
                 ({total_records} records total) and --strict refuses \
                 starved reports; drop --strict to get a report with \
                 per-claim starved verdicts, or raise --scale — 0.02 is \
                 the smallest scale at which every claim evaluates \
                 (below it, starved cells like C5b day-1 coverage are \
                 reported as starved, not failed; see EXPERIMENTS.md)"
            ),
            StudyError::InvalidShardCount { requested, routers } => write!(
                f,
                "shard count {requested} is invalid: must be between 1 \
                 and the router count ({routers})"
            ),
        }
    }
}

impl std::error::Error for StudyError {}

/// Study configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// The simulation configuration.
    pub sim: SimConfig,
    /// Routing-prefix length used by the persistence analysis (the
    /// paper's "regular routing prefixes"; /24 by default).
    pub persistence_prefix_len: u8,
}

impl Default for StudyConfig {
    fn default() -> Self {
        let sim = SimConfig::default();
        StudyConfig {
            sim,
            persistence_prefix_len: persistence_len_for_scale(sim.scale),
        }
    }
}

impl StudyConfig {
    /// Fast configuration for tests.
    pub fn test_small() -> Self {
        let sim = SimConfig::test_small();
        StudyConfig {
            sim,
            persistence_prefix_len: persistence_len_for_scale(sim.scale),
        }
    }

    /// A configuration at an explicit scale with matched persistence
    /// granularity.
    pub fn at_scale(scale: f64) -> Self {
        let sim = SimConfig {
            scale,
            ..SimConfig::default()
        };
        StudyConfig {
            sim,
            persistence_prefix_len: persistence_len_for_scale(scale),
        }
    }
}

/// Picks the routing-prefix granularity for the persistence analysis so
/// that the per-prefix flow *density* matches the full-scale study.
///
/// The paper's persistence quantiles are properties of how often a
/// typical routing prefix is re-observed; halving the traffic volume
/// while keeping /24 prefixes would halve that density and skew the
/// distribution toward sparse one-off prefixes. Coarsening the prefix by
/// one bit per halving of `scale` keeps the density — and thus the
/// reproduced distribution — invariant.
pub fn persistence_len_for_scale(scale: f64) -> u8 {
    let len = 24.0 + (scale.max(1e-6) / 0.7).log2();
    len.round().clamp(8.0, 24.0) as u8
}

/// The study runner.
pub struct Study {
    config: StudyConfig,
    metrics: Option<Arc<Registry>>,
    trace: Option<Arc<Tracer>>,
    /// Refuse to assemble a report when no flow matched the §2 filter
    /// (the pre-degradation behaviour, opt-in via `--strict`).
    strict: bool,
    /// Lazily-created flight-recorder track for study-level phase spans
    /// (pid 0 / tid 201 "study"), shared by every run on this runner.
    phase_buf: OnceLock<Arc<TraceBuf>>,
    /// Override for the columnar batch size on the record path. Not part
    /// of [`StudyConfig`]: any capacity yields byte-identical reports, so
    /// it must not perturb the config hash.
    chunk_capacity: Option<usize>,
}

/// The geolocation pipeline over the simulator's side tables, read in
/// the analysis crate's vocabulary (shared by the batch and streaming
/// paths).
fn geolocation<'a>(
    germany: &'a Germany,
    geodb: &GeoDb,
    isp_table: &HashMap<u32, IspSideEntry>,
    prefix_len: u8,
) -> GeolocationPipeline<'a> {
    let entries = isp_table.iter().map(|(&net, e)| {
        (
            net,
            IspInfo {
                isp: e.isp.0,
                router_district: e.router_district,
            },
        )
    });
    GeolocationPipeline::with_isp_entries(germany, geodb, entries, prefix_len)
}

/// Client-address → ISP resolver over the pipeline's prefix table.
/// `Copy` and `Send`, so every shard's consumers (and the live view's
/// study and window tiers) share one table.
fn isp_resolver<'p>(
    pipeline: &'p GeolocationPipeline<'_>,
) -> impl Fn(Ipv4Addr) -> Option<u8> + Copy + Send + Sync + 'p {
    move |client| pipeline.isp_of(client)
}

/// Days the live view's study tier covers at most: the persistence
/// bitmap's width. Longer (endless) horizons cap the tier here.
const STUDY_TIER_DAYS: u32 = 64;

/// Everything the analysis stages produce before claim evaluation. Both
/// the batch path ([`Study::run`] / [`Study::analyze`]) and the
/// streaming driver ([`Study::drive`]) fill this struct and hand it to
/// the shared report assembly, which guarantees the two paths cannot
/// diverge in how claims are derived. Live mode fills one from the
/// sliding window too, and judges it with the same claim table.
struct AnalysisProducts {
    series: HourlySeries,
    geo_10day: GeoResult,
    geo_day1: GeoResult,
    persistence: PersistenceAnalysis,
    outbreak: OutbreakAnalysis,
    matching_flows: u64,
    total_records: u64,
}

impl AnalysisProducts {
    /// The report inputs of the four study consumers over a `days`-day
    /// horizon, after a stream whose §2 counts are `counts`.
    fn of_consumers(
        series: HourlySeries,
        geo: &GeoDayAccumulator<'_>,
        persistence: PersistenceAnalysis,
        outbreak: OutbreakAnalysis,
        days: u32,
        counts: &StreamCounts,
    ) -> Self {
        AnalysisProducts {
            series,
            geo_10day: geo.result(1, days.min(11)),
            geo_day1: geo.result(1, 2),
            persistence,
            outbreak,
            matching_flows: counts.records_matched,
            total_records: counts.records_in,
        }
    }
}

/// The study consumers in the order a [`StudySink`] feeds them: the
/// `analysis.stream.<name>.records` counter names and, on non-live
/// runs, the per-consumer trace spans.
const CONSUMER_NAMES: [&str; 4] = ["timeseries", "geoloc", "persistence", "outbreak"];

/// The four study consumers of a batch-equivalent run.
struct StudyConsumers<'w, F> {
    series: HourlySeries,
    geo: GeoDayAccumulator<'w>,
    persistence: PersistenceAnalysis,
    outbreak: OutbreakAccumulator<'w, F>,
}

/// The accumulator set one [`StudySink`] feeds. Every accumulator is a
/// commutative monoid over records, so per-shard sets merge exactly
/// with [`absorb`](Consumers::absorb).
enum Consumers<'w, F> {
    /// The four study consumers.
    Study(Box<StudyConsumers<'w, F>>),
    /// The live view: the same four consumers plus the sliding-window
    /// tiers, advanced one hour per checkpoint.
    Live(Box<WindowedView<'w, F>>),
}

impl<F> Consumers<'_, F>
where
    F: Fn(Ipv4Addr) -> Option<u8>,
{
    /// Trace-stage names, one per [`observe`](Consumers::observe) stage.
    fn stages(&self) -> &'static [&'static str] {
        match self {
            Consumers::Study(_) => &CONSUMER_NAMES,
            Consumers::Live(_) => &["windowed"],
        }
    }

    /// Feeds the §2-selected rows to one stage.
    fn observe(&mut self, stage: usize, sel: &FlowChunk) {
        match self {
            Consumers::Study(c) => match stage {
                0 => c.series.observe_chunk(sel),
                1 => c.geo.observe_chunk(sel),
                2 => c.persistence.observe_chunk(sel),
                _ => c.outbreak.observe_chunk(sel),
            },
            Consumers::Live(view) => view.observe_chunk(sel),
        }
    }

    /// Merges another shard's partial state into this one.
    fn absorb(&mut self, other: &Self) {
        match (self, other) {
            (Consumers::Study(c), Consumers::Study(o)) => {
                c.series.absorb(&o.series);
                c.geo.absorb(&o.geo);
                c.persistence.absorb(&o.persistence);
                c.outbreak.absorb(&o.outbreak);
            }
            (Consumers::Live(view), Consumers::Live(o)) => view.absorb(o),
            _ => unreachable!("every shard of a run feeds the same accumulator set"),
        }
    }

    /// The report inputs of a finished stream.
    fn into_products(self, days: u32, counts: &StreamCounts) -> AnalysisProducts {
        let (series, geo, persistence, outbreak) = match self {
            Consumers::Study(c) => (c.series, c.geo, c.persistence, c.outbreak),
            Consumers::Live(view) => (view.series, view.geo, view.persistence, view.outbreak),
        };
        AnalysisProducts::of_consumers(
            series,
            &geo,
            persistence,
            outbreak.into_analysis(),
            days,
            counts,
        )
    }
}

/// What a live [`StudySink`] publishes at its checkpoints.
enum Publish<'w, F> {
    /// Nothing (non-live runs, or live runs without a mailbox).
    Off,
    /// One shard: publish the view itself after every export hour, from
    /// the shard's worker.
    Inline(&'w LivePublisher<'w>),
    /// One of n shards: deposit a clone of the view at every day
    /// boundary for the publisher thread to merge. The sink's own state
    /// is untouched, so the end-of-run merge cannot observe it.
    Deposit(Arc<Mutex<VecDeque<ShardDeposit<'w, F>>>>),
}

/// The one filter-and-consume sink behind every streaming run: the §2
/// filter applied once per chunk, then the accumulator set. Owned and
/// `Send`: each shard's sink runs on that shard's worker, and the
/// partials merge with the accumulators' `absorb`.
struct StudySink<'w, F> {
    filter: &'w FlowFilter,
    consumers: Consumers<'w, F>,
    counts: StreamCounts,
    /// `sim.shard.<i>.records` — live per-shard record throughput.
    records_counter: Option<Arc<Counter>>,
    /// Flight-recorder stage timing, flushed as coalesced filter/analyze
    /// spans at every export-hour checkpoint.
    trace: Option<StageLog>,
    /// Reusable selection scratch.
    selection: FlowChunk,
    /// Live replay pacing: wall-clock sleep per export hour.
    pace: Option<Duration>,
    /// Live interim publication.
    publish: Publish<'w, F>,
}

/// Runs `f`, charging its wall time to the filter (`stage: None`) or to
/// consumer `stage` on the stage log; untraced runs call `f` straight
/// through.
fn timed(log: &mut Option<StageLog>, stage: Option<usize>, f: impl FnOnce()) {
    let Some(log) = log else { return f() };
    let start = log.now_ns();
    f();
    let ns = log.now_ns().saturating_sub(start);
    match stage {
        None => log.add_filter(ns),
        Some(i) => log.add_stage(i, ns),
    }
}

impl<F> FlowSink for StudySink<'_, F>
where
    F: Fn(Ipv4Addr) -> Option<u8> + Clone,
{
    fn observe(&mut self, rec: &FlowRecord) {
        let mut one = FlowChunk::default();
        one.push(rec);
        self.observe_chunk(&one);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        self.counts.records_in += chunk.len() as u64;
        if let Some(counter) = &self.records_counter {
            counter.add(chunk.len() as u64);
        }
        let mut sel = std::mem::take(&mut self.selection);
        let filter = self.filter;
        timed(&mut self.trace, None, || {
            filter.select_into(chunk, &mut sel)
        });
        if !sel.is_empty() {
            let matched = sel.len() as u64;
            self.counts.records_matched += matched;
            for stage in 0..self.consumers.stages().len() {
                let consumers = &mut self.consumers;
                timed(&mut self.trace, Some(stage), || {
                    consumers.observe(stage, &sel)
                });
            }
            for (_, count) in &mut self.counts.consumers {
                *count += matched;
            }
        }
        self.selection = sel;
    }

    fn checkpoint(&mut self) {
        if let Some(log) = &mut self.trace {
            log.flush();
        }
        let Consumers::Live(view) = &mut self.consumers else {
            return;
        };
        // One call per export hour, identical across shards, which is
        // what makes window eviction commute with the merge.
        view.note_hour();
        if let Some(pace) = self.pace {
            std::thread::sleep(pace);
        }
        match &self.publish {
            Publish::Off => {}
            Publish::Inline(publisher) => publisher.tick(view, &self.counts),
            // Every shard checkpoints the same hours in lockstep, so the
            // fronts of all deposit queues carry the same `hours_seen`,
            // exactly what `absorb` requires. The post-finish checkpoint
            // lands at `hours + 1`, never on a day boundary, so each
            // shard deposits exactly `days` times.
            Publish::Deposit(queue) => {
                if view.hours_seen() % 24 == 0 {
                    queue
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push_back(ShardDeposit {
                            view: WindowedView::clone(view),
                            counts: self.counts.clone(),
                        });
                }
            }
        }
    }

    fn finish(&mut self) {
        if let Some(log) = &mut self.trace {
            log.flush();
        }
    }
}

/// Borrowed side data the report assembly needs. Available both from a
/// finished [`SimOutput`] and — mid-run — from a [`PreparedSim`], which
/// is what lets live mode assemble interim reports while the traffic
/// generator is still streaming.
struct ReportContext<'a> {
    config: &'a SimConfig,
    germany: &'a Germany,
    plan: &'a AddressPlan,
    scenario: &'a Scenario,
    downloads: &'a AdoptionCurve,
    dns: &'a DnsStudy,
    /// The download curve through July 24, computed on first use.
    adoption: OnceLock<AdoptionCurve>,
}

impl<'a> ReportContext<'a> {
    fn from_output(sim: &'a SimOutput) -> Self {
        ReportContext {
            config: &sim.config,
            germany: &sim.germany,
            plan: &sim.plan,
            scenario: &sim.scenario,
            downloads: &sim.downloads,
            dns: &sim.dns,
            adoption: OnceLock::new(),
        }
    }

    fn from_prepared(sim: &'a PreparedSim) -> Self {
        ReportContext {
            config: &sim.config,
            germany: &sim.germany,
            plan: &sim.plan,
            scenario: &sim.scenario,
            downloads: &sim.downloads,
            dns: &sim.dns,
            adoption: OnceLock::new(),
        }
    }

    /// The download curve through July 24 (the C3 milestones) under the
    /// run's own adoption parameters: a scenario overlay may have
    /// changed the curve family. Computed once per context.
    fn adoption_through_july(&self) -> &AdoptionCurve {
        self.adoption.get_or_init(|| {
            AdoptionModel::new(self.config.adoption).run(
                self.germany,
                self.scenario,
                Timeline::through_july(),
            )
        })
    }
}

/// One shard's day-boundary snapshot, queued for interim merging.
struct ShardDeposit<'w, F> {
    view: WindowedView<'w, F>,
    counts: StreamCounts,
}

/// Publishes interim documents into the live mailbox: the three figure
/// documents after every export hour, a full `/report` envelope at
/// every day boundary (claim evaluation per hour would dominate small
/// replays).
struct LivePublisher<'a> {
    study: &'a Study,
    ctx: ReportContext<'a>,
    live: Arc<LiveSnapshot>,
}

impl LivePublisher<'_> {
    fn tick<F>(&self, view: &WindowedView<'_, F>, counts: &StreamCounts)
    where
        F: Fn(Ipv4Addr) -> Option<u8>,
    {
        // Publication overhead is itself observable: `live.publish_ns`
        // times every tick, `live.publishes` counts them.
        let _span = self
            .study
            .metrics
            .as_ref()
            .map(|m| m.span("live.publish_ns"));
        let snap = view.snapshot();
        crate::live::publish_figures(&self.live, &snap);
        if view.hours_seen() % 24 == 0 {
            let products = AnalysisProducts::of_consumers(
                view.series.clone(),
                &view.geo,
                view.persistence.clone(),
                view.outbreak.to_analysis(),
                self.ctx.config.days,
                counts,
            );
            if let Ok(report) = self
                .study
                .assemble_report(&self.ctx, products, Vec::new(), false)
            {
                self.study
                    .publish_report(&self.live, &self.ctx, &report, &snap, false);
            }
        }
        if let Some(registry) = &self.study.metrics {
            registry.counter("live.publishes").add(1);
        }
    }
}

/// Pops one aligned day-boundary deposit per shard (when every shard
/// has one queued), merges them in shard order, and publishes the
/// merged interim state. Returns whether a merge happened.
fn publish_front_deposits<F>(
    queues: &[Arc<Mutex<VecDeque<ShardDeposit<'_, F>>>>],
    publisher: &LivePublisher<'_>,
) -> bool
where
    F: Fn(Ipv4Addr) -> Option<u8>,
{
    // Lock all queues up front (fixed order; the workers each touch
    // only their own queue, so this cannot deadlock) and only consume
    // when every shard has a deposit — the fronts then carry the same
    // `hours_seen`, which is what `absorb` asserts.
    let mut guards: Vec<_> = queues
        .iter()
        .map(|q| q.lock().unwrap_or_else(|e| e.into_inner()))
        .collect();
    if guards.iter().any(|g| g.is_empty()) {
        return false;
    }
    let mut parts: Vec<ShardDeposit<'_, F>> = guards
        .iter_mut()
        .map(|g| g.pop_front().expect("checked non-empty"))
        .collect();
    drop(guards);
    let mut merged = parts.remove(0);
    for part in &parts {
        merged.view.absorb(&part.view);
        merged.counts.absorb(&part.counts);
    }
    publisher.tick(&merged.view, &merged.counts);
    true
}

impl Study {
    /// Creates a runner.
    pub fn new(config: StudyConfig) -> Self {
        Study {
            config,
            metrics: None,
            trace: None,
            strict: false,
            phase_buf: OnceLock::new(),
            chunk_capacity: None,
        }
    }

    /// Overrides the capacity of the columnar [`FlowChunk`] batches the
    /// collector hands to the analysis sinks. Purely a performance knob:
    /// reports are byte-identical for any capacity, so it is deliberately
    /// kept out of [`StudyConfig`] (and the config hash). Mostly useful
    /// for invariance tests; the default of
    /// [`cwa_netflow::sink::DEFAULT_CHUNK_CAPACITY`] is right for
    /// production runs.
    pub fn with_chunk_capacity(mut self, capacity: usize) -> Self {
        self.chunk_capacity = Some(capacity);
        self
    }

    /// Strict mode: fail with [`StudyError::NoMatchingFlows`] when the
    /// §2 filter matches nothing, instead of producing a report whose
    /// claims are all marked starved. Off by default — a starved cell
    /// degrades the affected claims, it does not abort the study.
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Attaches an observability registry: the simulation's counters
    /// land in it, and every analysis stage contributes a timer plus
    /// record counts. Pure observation — reports stay bit-identical
    /// (modulo the volatile manifest timings) with metrics on or off.
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attaches a flight recorder: every pipeline stage (produce,
    /// export, drain, filter, analyze, channel stalls) lands in the
    /// tracer's per-thread ring buffers, exportable as Chrome
    /// trace-event JSON via [`Tracer::to_chrome_json`]. Pure
    /// observation — reports stay bit-identical (modulo the volatile
    /// manifest timings) with tracing on or off.
    pub fn with_trace(mut self, tracer: Arc<Tracer>) -> Self {
        self.trace = Some(tracer);
        self
    }

    /// Records one finished phase: into the manifest timing list, as an
    /// observability timer when a registry is attached, and as a
    /// back-dated span on the "study" trace track when a tracer is.
    fn record_phase(&self, timings: &mut Vec<PhaseTiming>, phase: &str, elapsed: Duration) {
        let duration_ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        timings.push(PhaseTiming {
            phase: phase.to_owned(),
            duration_ns,
        });
        if let Some(registry) = &self.metrics {
            registry.timer(phase).record(elapsed);
        }
        if let Some(tracer) = &self.trace {
            let buf = self
                .phase_buf
                .get_or_init(|| tracer.thread(0, 201, "study"));
            let name = tracer.name(phase);
            let now = buf.now_ns();
            buf.complete(name, now.saturating_sub(duration_ns), duration_ns);
        }
    }

    /// Runs simulation + analysis + claim evaluation.
    ///
    /// Fails with [`StudyError::NoMatchingFlows`] when the configured
    /// scale is too small for any CWA flow to survive sampling.
    pub fn run(&self) -> Result<StudyReport, StudyError> {
        let started = Instant::now();
        let sim = self.simulation().run();
        let simulate = started.elapsed();
        self.analyze_with_prelude(&sim, Some(simulate))
    }

    /// The simulation runner for this study's configuration, carrying
    /// its registry, tracer and chunk capacity.
    fn simulation(&self) -> Simulation {
        let mut simulation = Simulation::new(self.config.sim);
        if let Some(registry) = &self.metrics {
            simulation = simulation.with_metrics(Arc::clone(registry));
        }
        if let Some(tracer) = &self.trace {
            simulation = simulation.with_trace(Arc::clone(tracer));
        }
        if let Some(capacity) = self.chunk_capacity {
            simulation = simulation.with_chunk_capacity(capacity);
        }
        simulation
    }

    /// Runs the analysis on an existing simulation output (lets callers
    /// reuse one expensive simulation for several analyses).
    pub fn analyze(&self, sim: &SimOutput) -> Result<StudyReport, StudyError> {
        self.analyze_with_prelude(sim, None)
    }

    fn analyze_with_prelude(
        &self,
        sim: &SimOutput,
        simulate: Option<Duration>,
    ) -> Result<StudyReport, StudyError> {
        let cfg = &self.config;
        let days = sim.config.days;
        let hours = days * 24;

        let mut timings: Vec<PhaseTiming> = Vec::new();
        if let Some(elapsed) = simulate {
            self.record_phase(&mut timings, "phase.simulate", elapsed);
        }

        // §2: the data set. Borrowed references into `sim.records` —
        // the matching set is not materialized a second time.
        let t = Instant::now();
        let filter = FlowFilter::cwa(sim.cdn.service_prefixes.to_vec());
        let matching = filter.apply(&sim.records);
        self.record_phase(&mut timings, "analysis.filter", t.elapsed());
        if let Some(registry) = &self.metrics {
            registry
                .counter("analysis.filter.records_in")
                .add(sim.records.len() as u64);
            registry
                .counter("analysis.filter.records_matched")
                .add(matching.len() as u64);
        }

        // Figure 2 inputs.
        let t = Instant::now();
        let series = HourlySeries::from_records(matching.iter().copied(), hours);
        self.record_phase(&mut timings, "analysis.timeseries", t.elapsed());
        if let Some(registry) = &self.metrics {
            registry
                .counter("analysis.timeseries.hours")
                .add(u64::from(hours));
        }

        // Side tables in the analysis crate's vocabulary.
        let t = Instant::now();
        let pipeline = geolocation(
            &sim.germany,
            &sim.geodb,
            &sim.isp_table,
            sim.config.plan.prefix_len,
        );

        // Figure 3: 10 days starting at release (June 16–25). One
        // accumulator pass over the already-filtered records serves
        // both the 10-day and the day-1 windows (the day-1 map used to
        // cost a second full scan of all records).
        let mut geo_acc = GeoDayAccumulator::new(&pipeline, days.min(11));
        for rec in matching.iter().copied() {
            geo_acc.observe(rec);
        }
        let geo_10day = geo_acc.result(1, days.min(11));
        let geo_day1 = geo_acc.result(1, 2);
        self.record_phase(&mut timings, "analysis.geoloc", t.elapsed());
        if let Some(registry) = &self.metrics {
            let attributed: u64 = geo_10day.district_flows.iter().sum();
            registry
                .counter("analysis.geoloc.attributed_flows")
                .add(attributed);
        }

        // Persistence.
        let t = Instant::now();
        let mut persistence = PersistenceAnalysis::new(cfg.persistence_prefix_len, days);
        persistence.ingest(matching.iter().copied());
        self.record_phase(&mut timings, "analysis.persistence", t.elapsed());
        if let Some(registry) = &self.metrics {
            registry
                .counter("analysis.persistence.prefixes")
                .add(persistence.prefix_count() as u64);
        }

        // Outbreak analysis over the same already-filtered records —
        // no further full scan.
        let t = Instant::now();
        let mut outbreak_acc =
            OutbreakAccumulator::new(&sim.germany, &pipeline, isp_resolver(&pipeline), days);
        for rec in matching.iter().copied() {
            outbreak_acc.observe(rec);
        }
        let outbreak = outbreak_acc.into_analysis();
        self.record_phase(&mut timings, "analysis.outbreak", t.elapsed());

        let products = AnalysisProducts {
            series,
            geo_10day,
            geo_day1,
            persistence,
            outbreak,
            matching_flows: matching.len() as u64,
            total_records: sim.records.len() as u64,
        };
        self.assemble_report(&ReportContext::from_output(sim), products, timings, true)
    }

    /// Runs the fused simulate+analyze streaming pipeline.
    ///
    /// The simulation emits each export hour's flow records straight
    /// into one study sink, which applies the §2 filter once per chunk
    /// and feeds every analysis consumer incrementally — the full record
    /// vector is never materialized; only one emission chunk (an export
    /// hour) is resident at a time. This is [`Study::run_sharded`] with
    /// one shard: the calling thread generates hour h+1 while one worker
    /// routes, collects and analyzes hour h. The resulting
    /// [`StudyReport`] is bit-identical to [`Study::run`]'s modulo the
    /// volatile phase timings (compare after
    /// [`StudyReport::strip_volatile`]).
    pub fn run_streaming(&self) -> Result<StudyReport, StudyError> {
        self.drive(1, None)
    }

    /// Runs the sharded streaming pipeline: the router fleet is split
    /// into `shards` vantage-point shards, each producing, filtering
    /// and analyzing its own record partition on a dedicated worker
    /// (bounded channels provide backpressure), and the partial
    /// accumulators are merged deterministically at the end.
    ///
    /// All shards anonymize under the common study key
    /// ([`ShardKeyMode::Common`]), so the merged report is identical to
    /// [`Study::run_streaming`]'s after
    /// [`strip_volatile`](StudyReport::strip_volatile). One shard is
    /// exactly [`Study::run_streaming`]: one worker beside the
    /// generating thread, and nothing to merge.
    pub fn run_sharded(&self, shards: usize) -> Result<StudyReport, StudyError> {
        self.drive(shards, None)
    }

    /// Runs the live windowed pipeline: the same fused simulate+analyze
    /// stream as [`run_sharded`](Study::run_sharded), but consumed
    /// through a [`WindowedView`] that additionally maintains the
    /// sliding last-N-days window with tiered downsampling, optionally
    /// paced against the wall clock ([`LiveOptions::replay_speed`]) and
    /// publishing interim `/report` + `/figures/*` documents into a
    /// [`LiveSnapshot`] mailbox as the replay advances.
    ///
    /// The returned report equals [`Study::run_streaming`]'s after
    /// [`strip_volatile`](StudyReport::strip_volatile) whenever the
    /// horizon fits the study tier (≤ 64 days, the persistence bitmap's
    /// width). Longer horizons — endless mode — cap the study tier at
    /// 64 days while the sliding window keeps advancing with bounded
    /// resident state; a batch run cannot cover such horizons at all.
    ///
    /// Pacing sleeps at every export-hour checkpoint of every shard, so
    /// it holds at any shard count. One shard publishes from its worker
    /// after every export hour; with `opts.shards > 1` each shard
    /// deposits a day-boundary snapshot and a publisher thread merges
    /// and publishes them off the hot path, once per simulated day.
    pub fn run_live(&self, opts: &LiveOptions) -> Result<StudyReport, StudyError> {
        self.drive(opts.shards, Some(opts))
    }

    /// The one streaming driver behind [`run_streaming`],
    /// [`run_sharded`] and [`run_live`]: set-up, the shard-count check,
    /// the traffic run, the merge, counter publication and report
    /// assembly.
    ///
    /// Every shard count takes the same path: the calling thread
    /// generates the traffic while each of the `shards` workers runs
    /// its routers, collector and study sink
    /// ([`PreparedSim::run_traffic_sharded`] under the common key), and
    /// the partials are merged in shard order (one shard has nothing to
    /// merge). `live` swaps the four study consumers for a
    /// [`WindowedView`] and attaches pacing and the publisher, so
    /// non-live runs do no window-tier work.
    ///
    /// [`run_streaming`]: Study::run_streaming
    /// [`run_sharded`]: Study::run_sharded
    /// [`run_live`]: Study::run_live
    fn drive(&self, shards: usize, live: Option<&LiveOptions>) -> Result<StudyReport, StudyError> {
        let cfg = &self.config;
        let routers = cfg.sim.vantage.routers;
        if shards == 0 || shards > usize::from(routers) {
            return Err(StudyError::InvalidShardCount {
                requested: shards,
                routers,
            });
        }
        let days = cfg.sim.days;
        let prefix_len = cfg.sim.plan.prefix_len;
        let mailbox = live.and_then(|opts| opts.publish.as_ref());

        let started = Instant::now();
        let mut prepared = self.simulation().prepare();
        let mut timings: Vec<PhaseTiming> = Vec::new();
        let (products, truth, final_snapshot) = {
            let filter = FlowFilter::cwa(prepared.cdn.service_prefixes.to_vec());
            // The pipeline's prefix table is all the analysis reads of
            // the side tables: free them before the traffic starts.
            let (geodb, isp_table) = prepared.take_side_tables();
            let pipeline = geolocation(&prepared.germany, &geodb, &isp_table, prefix_len);
            drop((geodb, isp_table));
            let resolver = isp_resolver(&pipeline);
            let publisher = mailbox.map(|live| LivePublisher {
                study: self,
                ctx: ReportContext::from_prepared(&prepared),
                live: Arc::clone(live),
            });
            let queues: Vec<_> = (0..shards)
                .map(|_| Arc::new(Mutex::new(VecDeque::new())))
                .collect();
            let sinks: Vec<StudySink<'_, _>> = (0..shards)
                .map(|i| {
                    let consumers = match live {
                        None => Consumers::Study(Box::new(StudyConsumers {
                            series: HourlySeries::new(days * 24),
                            geo: GeoDayAccumulator::new(&pipeline, days.min(11)),
                            persistence: PersistenceAnalysis::new(cfg.persistence_prefix_len, days),
                            outbreak: OutbreakAccumulator::new(
                                &prepared.germany,
                                &pipeline,
                                resolver,
                                days,
                            ),
                        })),
                        Some(_) => Consumers::Live(Box::new(WindowedView::new(
                            &prepared.germany,
                            &pipeline,
                            resolver,
                            cfg.persistence_prefix_len,
                            days.min(STUDY_TIER_DAYS),
                            WindowConfig::default(),
                        ))),
                    };
                    // Shard i is Chrome-trace process i+1.
                    let trace = self.trace.as_ref().map(|t| {
                        let buf = t.thread((i + 1) as u32, 2, "analysis");
                        StageLog::new(t, buf, consumers.stages())
                    });
                    StudySink {
                        filter: &filter,
                        consumers,
                        counts: StreamCounts::zeroed(&CONSUMER_NAMES),
                        records_counter: self
                            .metrics
                            .as_ref()
                            .map(|m| m.counter(&format!("sim.shard.{i:02}.records"))),
                        trace,
                        selection: FlowChunk::default(),
                        pace: live
                            .and_then(|opts| opts.replay_speed)
                            .map(|speed| Duration::from_secs_f64(3600.0 / speed.max(1e-6))),
                        publish: match &publisher {
                            None => Publish::Off,
                            Some(p) if shards == 1 => Publish::Inline(p),
                            Some(_) => Publish::Deposit(Arc::clone(&queues[i])),
                        },
                    }
                })
                .collect();

            let stop = AtomicBool::new(false);
            let (truth, results) = std::thread::scope(|scope| {
                // One shard publishes from its worker; n > 1 deposit
                // day-boundary snapshots for this thread to merge.
                let pump = publisher.as_ref().filter(|_| shards > 1).map(|p| {
                    scope.spawn(|| loop {
                        if !publish_front_deposits(&queues, p) {
                            // Empty after the run ended means fully
                            // drained: every shard deposits the same
                            // number of day-boundary snapshots.
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    })
                });
                let out = prepared.run_traffic_sharded(ShardKeyMode::Common, sinks);
                stop.store(true, Ordering::Release);
                if let Some(handle) = pump {
                    handle.join().expect("live publisher thread");
                }
                out
            });
            let mut parts: Vec<_> = results.into_iter().map(|(sink, _stats)| sink).collect();
            self.record_phase(&mut timings, "phase.simulate_analyze", started.elapsed());

            // Deterministic merge: absorb the partials in shard order.
            // Every accumulator merge is an element-wise monoid
            // operation, so the result equals a single pass over the
            // union stream.
            let mut merged = parts.remove(0);
            if !parts.is_empty() {
                let t = Instant::now();
                for part in &parts {
                    merged.consumers.absorb(&part.consumers);
                    merged.counts.absorb(&part.counts);
                }
                self.record_phase(&mut timings, "phase.merge", t.elapsed());
            }
            let final_snapshot = match &merged.consumers {
                Consumers::Live(view) => Some(view.snapshot()),
                Consumers::Study(_) => None,
            };
            let products = merged.consumers.into_products(days, &merged.counts);
            self.publish_stream_counters(&merged.counts, &products);
            (products, truth, final_snapshot)
        };

        // Side data (DNS study, download curve, plan ground truth) for
        // claim evaluation; `records` stays empty by construction.
        let sim = prepared.into_output(Vec::new(), truth);
        let ctx = ReportContext::from_output(&sim);
        let report = self.assemble_report(&ctx, products, timings, true)?;
        if let (Some(live), Some(snapshot)) = (mailbox, final_snapshot) {
            // The served end state is exactly the returned report.
            let _span = self.metrics.as_ref().map(|m| m.span("live.publish_ns"));
            crate::live::publish_figures(live, &snapshot);
            self.publish_report(live, &ctx, &report, &snapshot, true);
            if let Some(registry) = &self.metrics {
                registry.counter("live.publishes").add(1);
            }
        }
        Ok(report)
    }

    /// Publishes one stream pass's totals: the `analysis.stream.*`
    /// counters, plus the batch pipeline's `analysis.*` counters with
    /// identical values so dashboards read the same either way.
    fn publish_stream_counters(&self, counts: &StreamCounts, products: &AnalysisProducts) {
        let Some(registry) = &self.metrics else {
            return;
        };
        let add = |name: &str, value: u64| registry.counter(name).add(value);
        add("analysis.stream.records_in", counts.records_in);
        add("analysis.stream.records_matched", counts.records_matched);
        for (name, count) in &counts.consumers {
            add(&format!("analysis.stream.{name}.records"), *count);
        }
        add("analysis.filter.records_in", counts.records_in);
        add("analysis.filter.records_matched", counts.records_matched);
        add(
            "analysis.timeseries.hours",
            products.series.flows.len() as u64,
        );
        add(
            "analysis.geoloc.attributed_flows",
            products.geo_10day.district_flows.iter().sum(),
        );
        add(
            "analysis.persistence.prefixes",
            products.persistence.prefix_count() as u64,
        );
    }

    /// Claim evaluation, figures, and manifest assembly — shared
    /// verbatim by the batch and streaming paths so both produce the
    /// exact same report from the same analysis products. The side data
    /// is borrowed, so live mode can evaluate the claim table mid-run
    /// from a [`PreparedSim`]. `finalize` marks the end-of-run call: only
    /// that one enforces `--strict` and flips the `sim.progress.done`
    /// gauge (an interim report must not make `/progress` claim
    /// completion).
    fn assemble_report(
        &self,
        sim: &ReportContext<'_>,
        products: AnalysisProducts,
        mut timings: Vec<PhaseTiming>,
        finalize: bool,
    ) -> Result<StudyReport, StudyError> {
        if finalize && self.strict && products.matching_flows == 0 {
            return Err(StudyError::NoMatchingFlows {
                scale: sim.config.scale,
                total_records: products.total_records,
            });
        }
        let cfg = &self.config;
        let hours = sim.config.days * 24;
        let series = &products.series;
        let geo_10day = &products.geo_10day;

        // Endless live runs cap the study tier at 64 days (the
        // persistence bitmap's width), so Figure 2 covers at most the
        // tier the series actually holds; for every batch run the series
        // spans the full horizon and this is exactly `hours`.
        let figure_hours = hours.min(series.flows.len() as u32);
        let downloads_hourly: Vec<f64> = (0..figure_hours)
            .map(|h| sim.downloads.downloads_at(h))
            .collect();
        let figure2 = Figure2::assemble(series, &downloads_hourly, 48);
        let figure3 = Figure3::assemble(sim.germany, geo_10day);

        // The C3 curve is built once per context, so a live run's later
        // interim reports (and its window verdicts) time a lookup here.
        let t = Instant::now();
        sim.adoption_through_july();
        self.record_phase(&mut timings, "analysis.adoption", t.elapsed());

        if std::env::var_os("CWA_DEBUG_SUPPORT").is_some() {
            let s = Support::of(&products, sim.germany);
            eprintln!(
                "SUPPORT scale={} matching={} day0={} prefixes={} geo10={} geo1={} \
                 national_pre={} guetersloh_pre={} berlin_pre={}",
                sim.config.scale,
                products.matching_flows,
                s.day0_flows,
                s.prefixes,
                s.geo10_flows,
                s.geo1_flows,
                s.national_pre,
                s.guetersloh_pre,
                s.berlin_pre
            );
        }
        let claims = self.claim_table(sim, &products, products.matching_flows);
        let measured = |id: ClaimId| {
            claims
                .iter()
                .find(|c| c.id == id)
                .map(|c| c.measured)
                .expect("the claim table judges every claim")
        };

        // Run manifest: provenance + timings. The hash covers the
        // configuration as actually simulated (callers can analyze a
        // SimOutput produced under a different config than `self`).
        let effective = StudyConfig {
            sim: *sim.config,
            persistence_prefix_len: cfg.persistence_prefix_len,
        };
        let config_json = serde_json::to_string(&effective).expect("config serializes");
        let digest = cwa_crypto::sha256(config_json.as_bytes());
        let config_hash: String = digest[..8].iter().map(|b| format!("{b:02x}")).collect();
        let manifest = RunManifest {
            seed: sim.config.seed,
            scale: sim.config.scale,
            days: sim.config.days,
            config_hash,
            phase_timings: timings,
        };

        // Live telemetry: the run is complete — `/progress` flips to
        // "done" and `/healthz` stops treating flat record counters as
        // a stall. Interim (non-finalizing) assemblies must not flip it.
        if finalize {
            if let Some(registry) = &self.metrics {
                registry.gauge("sim.progress.done").set(1);
            }
        }

        Ok(StudyReport {
            config: *cfg,
            manifest,
            figure2,
            figure3,
            persistence_median: measured(ClaimId::C4aPersistenceMedian),
            persistence_p75: measured(ClaimId::C4bPersistenceP75),
            ground_truth_share: measured(ClaimId::C7cGroundTruthShare),
            release_jump: measured(ClaimId::C2ReleaseJump),
            claims,
            matching_flows: products.matching_flows,
            total_records: products.total_records,
            district_flows: products.geo_10day.district_flows,
            api_rank_by_day: sim.dns.api_rank.clone(),
            website_rank_by_day: sim.dns.website_rank.clone(),
        })
    }

    /// The claim table: each claim's statement, paper value, band,
    /// input cell, support threshold and measured value, written once.
    /// The report judges its cumulative products with it, and live mode
    /// its sliding window ([`Study::window_verdicts`]). A starved verdict
    /// names `context`, the run's §2 matching-flow count.
    fn claim_table(
        &self,
        sim: &ReportContext<'_>,
        products: &AnalysisProducts,
        context: u64,
    ) -> Vec<Claim> {
        let scale = sim.config.scale;
        let AnalysisProducts {
            series,
            geo_10day,
            geo_day1,
            persistence,
            outbreak,
            matching_flows,
            ..
        } = products;
        let matching_flows = *matching_flows;
        let support = Support::of(products, sim.germany);
        let adoption_long = sim.adoption_through_july();
        let mut claims = Vec::new();

        // ---- C1: ≈3.3 M matching flows (scale-adjusted). ----
        let flows_fullscale = matching_flows as f64 / scale;
        claims.push(
            Claim::evaluate(
                ClaimId::C1MatchingFlows,
                "≈3.3M matching flows within June 15–25 (§2)",
                Some(3.3e6),
                flows_fullscale,
                (1.5e6, 6.5e6),
                format!("{matching_flows} records at scale {scale}"),
            )
            .with_starvation(Cell::Flows, matching_flows, min_support::FLOWS, context),
        );

        // ---- C2: 7.5× release-day jump. ----
        claims.push(
            Claim::evaluate(
                ClaimId::C2ReleaseJump,
                "7.5× increase of flows on June 16 (§3)",
                Some(7.5),
                series.release_jump(),
                (4.0, 12.0),
                format!("daily flows: {:?}", series.daily_flows()),
            )
            .with_starvation(
                Cell::HourlySeries,
                support.day0_flows,
                min_support::DAY0_FLOWS,
                context,
            ),
        );

        // ---- C3: download milestones. ----
        let d36 = adoption_long.downloads_at(MILESTONE_36H_HOUR);
        claims.push(Claim::evaluate(
            ClaimId::C3aDownloads36h,
            "6.4M downloads 36 h after release (§3)",
            Some(6.4e6),
            d36,
            (5.4e6, 7.4e6),
            String::new(),
        ));
        let dj24 = adoption_long.downloads_at(JULY_24_DAY * 24 + 23);
        claims.push(Claim::evaluate(
            ClaimId::C3bDownloadsJuly24,
            "16.2M total downloads by July 24 (§3)",
            Some(16.2e6),
            dj24,
            (15.0e6, 17.5e6),
            String::new(),
        ));

        // ---- C4: prefix persistence quantiles. ----
        claims.push(
            Claim::evaluate(
                ClaimId::C4aPersistenceMedian,
                "50% of prefixes occur in 67% of possible days (§3)",
                Some(0.67),
                persistence.fraction_quantile(0.5),
                (0.45, 0.90),
                format!(
                    "{} prefixes at /{}",
                    persistence.prefix_count(),
                    self.config.persistence_prefix_len
                ),
            )
            .with_starvation(
                Cell::Persistence,
                support.prefixes,
                min_support::PREFIXES,
                context,
            ),
        );
        claims.push(
            Claim::evaluate(
                ClaimId::C4bPersistenceP75,
                "75% of prefixes occur in ≤80% of possible days (§3)",
                Some(0.80),
                persistence.fraction_quantile(0.75),
                (0.60, 1.0),
                String::new(),
            )
            .with_starvation(
                Cell::Persistence,
                support.prefixes,
                min_support::PREFIXES,
                context,
            ),
        );

        // ---- C5: district coverage. ----
        let cov10 = geo_10day.coverage(1);
        claims.push(
            Claim::evaluate(
                ClaimId::C5aCoverage10Day,
                "almost all districts emit requests over 10 days (Fig. 3)",
                None,
                cov10,
                (0.95, 1.0),
                String::new(),
            )
            .with_starvation(
                Cell::GeoWindow,
                support.geo10_flows,
                min_support::GEO_10DAY_FLOWS,
                context,
            ),
        );
        let cov1 = geo_day1.coverage(1);
        claims.push(
            Claim::evaluate(
                ClaimId::C5bCoverageDay1,
                "the first-day map is almost the same (§3)",
                None,
                cov1 / cov10.max(1e-9),
                (0.85, 1.01),
                format!("day-1 coverage {cov1:.3}, 10-day coverage {cov10:.3}"),
            )
            .with_starvation(
                Cell::GeoWindow,
                support.geo1_flows,
                min_support::GEO_DAY1_FLOWS,
                context,
            ),
        );

        // ---- C6: outbreak (non-)effects. ----
        // Windows around June 23: pre = Jun 20–22 (days 5..8),
        // post = Jun 23–25 (days 8..11).
        let (nrw, median_rest, _within) = outbreak.nrw_vs_rest(5..8, 8..11, 1.25);
        claims.push(
            Claim::evaluate(
                ClaimId::C6aNrwVsRest,
                "June-23 increase occurs in all states, not only NRW (§3)",
                None,
                nrw / median_rest,
                (0.80, 1.25),
                format!("NRW growth {nrw:.3}, median other states {median_rest:.3}"),
            )
            .with_starvation(
                Cell::Outbreak,
                support.national_pre,
                min_support::OUTBREAK_NATIONAL_PRE,
                context,
            ),
        );

        let national = outbreak.national_growth(5..8, 8..11);
        let guetersloh = sim
            .germany
            .by_name("Gütersloh")
            .map(|d| outbreak.district_growth(d.id, 5..8, 8..11))
            .unwrap_or(f64::NAN);
        claims.push(
            Claim::evaluate(
                ClaimId::C6bGuetersloh,
                "Gütersloh itself increased only very slightly (§3)",
                None,
                guetersloh / national,
                // The substantive bound is the upper one: a *local* effect
                // would push Gütersloh well above the national growth. The
                // district's small per-day counts make the ratio noisy
                // downward at reduced scales.
                (0.5, 1.5),
                format!("Gütersloh growth {guetersloh:.3}, national {national:.3}"),
            )
            .with_starvation(
                Cell::Outbreak,
                support.guetersloh_pre,
                min_support::OUTBREAK_DISTRICT_PRE,
                context,
            ),
        );

        // Berlin June 18: pre = Jun 16–17 (days 1..3), post = Jun 18–19
        // (days 3..5). Compare the ground-truth ISP's growth of
        // Berlin-located traffic against the median of the other ISPs.
        let gt_isp = sim
            .plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .map(|i| i.id.0)
            .unwrap_or(u8::MAX);
        let berlin_growth = outbreak.berlin_isp_growth(1..3, 3..5);
        let gt_growth = berlin_growth
            .iter()
            .find(|(isp, _)| *isp == gt_isp)
            .map(|&(_, g)| g)
            .unwrap_or(f64::NAN);
        let mut others: Vec<f64> = berlin_growth
            .iter()
            .filter(|(isp, _)| *isp != gt_isp)
            .map(|&(_, g)| g)
            .filter(|g| g.is_finite())
            .collect();
        others.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let other_median = others.get(others.len() / 2).copied().unwrap_or(f64::NAN);
        claims.push(Claim::evaluate(
            ClaimId::C6cBerlinSingleIsp,
            "Berlin June-18 outbreak visible only within a single ISP (§3)",
            None,
            gt_growth / other_median,
            (1.10, 6.0),
            format!(
                "ground-truth ISP growth {gt_growth:.3}, median other ISPs {other_median:.3}, all: {berlin_growth:?}"
            ),
        )
        .with_starvation(
            Cell::Outbreak,
            support.berlin_pre,
            min_support::OUTBREAK_BERLIN_PRE,
            context,
        ));

        // ---- C7: DNS / side-data claims. ----
        let api_first = sim.dns.api_top1m_days.first().copied();
        claims.push(Claim::evaluate(
            ClaimId::C7aUmbrellaApi,
            "API name entered the Umbrella top 1M late in the window (Jun 24) (§2)",
            Some(9.0),
            api_first.map(f64::from).unwrap_or(f64::NAN),
            (6.0, 10.0),
            format!("top-1M days: {:?}", sim.dns.api_top1m_days),
        ));
        claims.push(Claim::evaluate(
            ClaimId::C7bUmbrellaWebsite,
            "the website never appeared in the top 1M (§2)",
            Some(0.0),
            sim.dns.website_top1m_days.len() as f64,
            (0.0, 0.0),
            String::new(),
        ));
        claims.push(
            Claim::evaluate(
                ClaimId::C7cGroundTruthShare,
                "18% of geolocations from router ground truth (§3)",
                Some(0.18),
                geo_10day.ground_truth_share(),
                (0.12, 0.25),
                String::new(),
            )
            .with_starvation(
                Cell::GeoWindow,
                support.geo10_flows,
                min_support::GEO_10DAY_FLOWS,
                context,
            ),
        );
        claims
    }

    /// Re-judges the claim table over the sliding window of a live run,
    /// so a standing observation can tell "passing now" from "passed
    /// overall". The window's tables ([`WindowSnapshot::series`],
    /// [`geo`](WindowSnapshot::geo), [`outbreak`](WindowSnapshot::outbreak))
    /// go through [`Study::claim_table`], and only the claims the window
    /// can judge are kept: C1, C5a and C7c always, C2 while day 0 is in
    /// the window, C6a while days 5..11 are and C6c while days 1..5 are.
    /// The rest read public side data (C3, C7a, C7b), the lifetime
    /// persistence bitmap (C4), a day-1 slice the window eventually
    /// evicts (C5b) or per-district days the window tier does not keep
    /// (C6b). A starved verdict names the run's cumulative
    /// `matching_flows`.
    fn window_verdicts(
        &self,
        ctx: &ReportContext<'_>,
        window: &WindowSnapshot,
        matching_flows: u64,
    ) -> WindowVerdicts {
        let study_days = ctx.config.days.min(STUDY_TIER_DAYS);
        let geo = window.geo();
        let products = AnalysisProducts {
            series: window.series(study_days),
            // C5b's day-1 slice is not kept by the window, and C5b is
            // not judged over it.
            geo_day1: geo.clone(),
            geo_10day: geo,
            persistence: PersistenceAnalysis::new(self.config.persistence_prefix_len, 0),
            outbreak: window.outbreak(study_days),
            matching_flows: window.hourly_flows.iter().sum(),
            // Not read by the claim table.
            total_records: 0,
        };
        let covers =
            |days: std::ops::Range<u64>| window.from_day <= days.start && days.end <= window.to_day;
        let verdicts = self
            .claim_table(ctx, &products, matching_flows)
            .into_iter()
            .filter(|claim| match claim.id {
                ClaimId::C1MatchingFlows
                | ClaimId::C5aCoverage10Day
                | ClaimId::C7cGroundTruthShare => true,
                ClaimId::C2ReleaseJump => covers(0..1),
                ClaimId::C6aNrwVsRest => covers(5..11),
                ClaimId::C6cBerlinSingleIsp => covers(1..5),
                _ => false,
            })
            .collect();
        WindowVerdicts {
            from_day: window.from_day,
            to_day: window.to_day,
            verdicts,
        }
    }

    /// Publishes the `/report` envelope: `report` beside the window
    /// verdicts over `snap`'s sliding window.
    fn publish_report(
        &self,
        live: &LiveSnapshot,
        ctx: &ReportContext<'_>,
        report: &StudyReport,
        snap: &WindowedSnapshot,
        done: bool,
    ) {
        let window = self.window_verdicts(ctx, &snap.window, report.matching_flows);
        live.publish_report(crate::live::render_report(
            report,
            snap.day,
            snap.hours_seen,
            ctx.config.days,
            done,
            &window,
        ));
    }
}

/// Per-cell support: how many observations each claim's input cell
/// carries. A cell below its threshold (see [`min_support`]) starves the
/// claims reading it — reported as `Verdict::Starved`, never as NaN or a
/// bogus pass/fail.
struct Support {
    day0_flows: u64,
    geo10_flows: u64,
    geo1_flows: u64,
    prefixes: u64,
    national_pre: u64,
    guetersloh_pre: u64,
    berlin_pre: u64,
}

impl Support {
    fn of(products: &AnalysisProducts, germany: &Germany) -> Self {
        let outbreak = &products.outbreak;
        let guetersloh_idx = germany.by_name("Gütersloh").map(|d| usize::from(d.id.0));
        Support {
            day0_flows: products.series.daily_flows().first().copied().unwrap_or(0),
            geo10_flows: products.geo_10day.district_flows.iter().sum(),
            geo1_flows: products.geo_day1.district_flows.iter().sum(),
            prefixes: products.persistence.prefix_count() as u64,
            national_pre: (5..8)
                .filter_map(|d| outbreak.state_flows.get(d))
                .map(|states| states.iter().sum::<u64>())
                .sum(),
            guetersloh_pre: (5..8)
                .filter_map(|d| outbreak.district_flows.get(d))
                .map(|row| {
                    guetersloh_idx
                        .and_then(|i| row.get(i))
                        .copied()
                        .unwrap_or(0)
                })
                .sum(),
            berlin_pre: outbreak
                .berlin_isp_flows
                .values()
                .map(|per_day| (1..3).filter_map(|d| per_day.get(d)).sum::<u64>())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwa_geo::{AddressPlanConfig, GeoDb, GeoDbConfig};
    use cwa_netflow::flow::{FlowKey, Protocol};

    /// The sink's stage timing is observation-only and flushes at
    /// checkpoints: a traced chunked sink keeps the counts of an
    /// untraced one fed record by record, its coalesced spans appear at
    /// the checkpoint, and an empty stream is well-formed.
    #[test]
    fn study_sink_flushes_trace_at_checkpoints_and_handles_empty_streams() {
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
        let isp_table = HashMap::new();
        let pipeline = GeolocationPipeline::new(&germany, &geodb, &isp_table, 18);
        let filter = FlowFilter::cwa(vec![(Ipv4Addr::new(81, 200, 16, 0), 22)]);
        let sink = |trace: Option<StageLog>| StudySink {
            filter: &filter,
            consumers: Consumers::Study(Box::new(StudyConsumers {
                series: HourlySeries::new(48),
                geo: GeoDayAccumulator::new(&pipeline, 2),
                persistence: PersistenceAnalysis::new(24, 2),
                outbreak: OutbreakAccumulator::new(&germany, &pipeline, isp_resolver(&pipeline), 2),
            })),
            counts: StreamCounts::zeroed(&CONSUMER_NAMES),
            records_counter: None,
            trace,
            selection: FlowChunk::default(),
            pace: None,
            publish: Publish::Off,
        };
        let rec = |server: Ipv4Addr| FlowRecord {
            key: FlowKey {
                src_ip: server,
                dst_ip: plan.allocations()[0].host(1),
                src_port: 443,
                dst_port: 50_000,
                protocol: Protocol::Tcp,
            },
            packets: 1,
            bytes: 700,
            first_ms: 3_600_000,
            last_ms: 3_600_100,
            tcp_flags: 0x18,
        };
        // Two CWA responses around one background flow.
        let records = [
            rec(Ipv4Addr::new(81, 200, 16, 1)),
            rec(Ipv4Addr::new(203, 0, 113, 9)),
            rec(Ipv4Addr::new(81, 200, 16, 2)),
        ];

        let tracer = Tracer::new();
        let log = StageLog::new(&tracer, tracer.thread(1, 2, "analysis"), &CONSUMER_NAMES);
        let mut traced = sink(Some(log));
        let mut chunk = FlowChunk::default();
        for r in &records {
            chunk.push(r);
        }
        traced.observe_chunk(&chunk);
        assert!(
            !tracer.to_chrome_json().contains("\"analyze\""),
            "stage time is coalesced until the checkpoint"
        );
        traced.checkpoint();
        let json = tracer.to_chrome_json();
        for name in [
            "\"filter\"",
            "\"analyze\"",
            "\"timeseries\"",
            "\"outbreak\"",
        ] {
            assert!(json.contains(name), "missing {name} in {json}");
        }
        traced.finish();

        let mut plain = sink(None);
        for r in &records {
            plain.observe(r);
        }
        assert_eq!(traced.counts, plain.counts);
        assert_eq!(traced.counts.records_in, 3);
        assert_eq!(traced.counts.records_matched, 2);
        assert!(traced.counts.consumers.iter().all(|&(_, n)| n == 2));
        let products = traced.consumers.into_products(2, &traced.counts);
        assert_eq!(products.series.total_flows(), 2);
        assert_eq!(products.series.flows[1], 2);

        let tracer = Tracer::new();
        let log = StageLog::new(&tracer, tracer.thread(1, 2, "analysis"), &CONSUMER_NAMES);
        let mut empty = sink(Some(log));
        empty.checkpoint();
        empty.finish();
        assert!(!tracer.to_chrome_json().contains("\"filter\""));
        assert_eq!(empty.counts, StreamCounts::zeroed(&CONSUMER_NAMES));
        let products = empty.consumers.into_products(2, &empty.counts);
        assert_eq!((products.matching_flows, products.total_records), (0, 0));
        assert_eq!(products.persistence.prefix_count(), 0);
    }

    /// One shared small run for all study-level assertions (the full
    /// claim-by-claim validation lives in the integration tests).
    #[test]
    fn study_runs_and_reports() {
        let report = Study::new(StudyConfig::test_small())
            .run()
            .expect("small study produces matching flows");
        assert_eq!(report.claims.len(), 14);
        assert!(report.matching_flows > 0);
        assert!(report.total_records > report.matching_flows);
        // The run manifest carries provenance and per-phase timings.
        assert_eq!(report.manifest.seed, report.config.sim.seed);
        assert_eq!(report.manifest.scale, report.config.sim.scale);
        assert_eq!(report.manifest.config_hash.len(), 16);
        let phases: Vec<&str> = report
            .manifest
            .phase_timings
            .iter()
            .map(|p| p.phase.as_str())
            .collect();
        for expected in [
            "phase.simulate",
            "analysis.filter",
            "analysis.timeseries",
            "analysis.geoloc",
            "analysis.persistence",
            "analysis.outbreak",
            "analysis.adoption",
        ] {
            assert!(phases.contains(&expected), "missing phase {expected}");
        }
        assert!(report.strip_volatile().manifest.phase_timings.is_empty());
        // Figure 2 has one point per hour.
        assert_eq!(report.figure2.flows_normed.len(), 264);
        // Figure 3 covers all districts.
        assert_eq!(report.figure3.rows.len(), 401);
        // The text rendering mentions every claim code.
        let text = report.render_text();
        for claim in &report.claims {
            assert!(
                text.contains(claim.id.code()),
                "missing {}",
                claim.id.code()
            );
        }
    }
}
