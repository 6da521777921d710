//! Integration tests for behaviour beyond the paper's headline figures:
//! diurnal-profile extraction from the measured series, per-ISP prefix
//! persistence, and the concentration of the district map.

use std::collections::HashMap;

use cwa_repro::analysis::filter::FlowFilter;
use cwa_repro::analysis::persistence::PersistenceAnalysis;
use cwa_repro::analysis::stats;
use cwa_repro::analysis::timeseries::HourlySeries;
use cwa_repro::epidemic::ActivityModel;
use cwa_repro::geo::AccessKind;
use cwa_repro::simnet::{SimConfig, SimOutput, Simulation};
use std::sync::OnceLock;

fn sim() -> &'static SimOutput {
    static SIM: OnceLock<SimOutput> = OnceLock::new();
    SIM.get_or_init(|| {
        Simulation::new(SimConfig {
            scale: 0.01,
            ..SimConfig::test_small()
        })
        .run()
    })
}

/// The measured diurnal profile must correlate with the behavioural
/// model that generated the traffic — shape survives sampling, caching
/// and anonymization.
#[test]
fn measured_diurnal_profile_matches_behaviour() {
    let out = sim();
    let filter = FlowFilter::cwa(out.cdn.service_prefixes.to_vec());
    let matching = filter.apply_owned(&out.records);
    let series = HourlySeries::from_records(matching.iter(), out.config.days * 24);

    // Settled post-release days only.
    let measured = series.diurnal_profile(3, 11);
    let expected: Vec<f64> = (0..24).map(ActivityModel::diurnal).collect();
    let corr = stats::pearson(&measured, &expected);
    assert!(corr > 0.85, "diurnal correlation {corr}: {measured:?}");
}

/// Prefix persistence split by ISP access kind: static-lease ISPs pin
/// subscribers to the low part of each prefix, concentrating traffic on
/// fewer /24s, which are then re-observed on more days than the daily
/// rotating DSL pools.
#[test]
fn persistence_differs_by_isp_access_kind() {
    // Needs the realistic address plan: /22 routing prefixes with ~1024
    // subscriber slots, so static-lease ISPs concentrate their customers
    // on the low /24s while daily-reconnect DSL pools rotate over the
    // whole prefix — thinning each /24 and lowering its persistence.
    let out = Simulation::new(SimConfig {
        scale: 0.01,
        ..SimConfig::default()
    })
    .run();
    let filter = FlowFilter::cwa(out.cdn.service_prefixes.to_vec());
    let matching = filter.apply_owned(&out.records);

    let mut by_access: HashMap<AccessKind, Vec<cwa_repro::netflow::FlowRecord>> = HashMap::new();
    for rec in &matching {
        let net = cwa_repro::geo::geodb::mask(rec.key.dst_ip, out.config.plan.prefix_len);
        if let Some(entry) = out.isp_table.get(&net) {
            let access = out.plan.isp(entry.isp).access;
            by_access.entry(access).or_default().push(*rec);
        }
    }

    // Mean presence fraction over multi-day prefixes (the median is
    // degenerate at this scale: sparse one-off prefixes sit at 1.0).
    let mean_for = |records: &[cwa_repro::netflow::FlowRecord]| -> f64 {
        let mut p = PersistenceAnalysis::new(24, out.config.days);
        p.ingest(records.iter());
        let fr: Vec<f64> = p
            .presences()
            .iter()
            .filter(|x| x.last_day > x.first_day + 1)
            .map(|x| x.fraction())
            .collect();
        fr.iter().sum::<f64>() / fr.len() as f64
    };
    let static_mean = mean_for(&by_access[&AccessKind::StaticLease]);
    let dynamic_mean = mean_for(&by_access[&AccessKind::Dynamic24h]);
    assert!(
        static_mean > dynamic_mean * 1.02,
        "static {static_mean} vs dynamic {dynamic_mean}"
    );
}

/// Gini concentration of the district map: adoption skews urban, so the
/// distribution is concentrated but far from degenerate.
#[test]
fn district_traffic_concentration() {
    use cwa_repro::analysis::geoloc::{GeolocationPipeline, IspInfo};
    let out = sim();
    let filter = FlowFilter::cwa(out.cdn.service_prefixes.to_vec());
    let isp_table: HashMap<u32, IspInfo> = out
        .isp_table
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
        .collect();
    let pipeline = GeolocationPipeline::new(
        &out.germany,
        &out.geodb,
        &isp_table,
        out.config.plan.prefix_len,
    );
    let geo = pipeline.run(&out.records, &filter, 1, 11);
    let g = stats::gini(&geo.district_flows);
    // Population itself is unevenly distributed; traffic follows it.
    assert!((0.3..0.8).contains(&g), "Gini {g}");
}
