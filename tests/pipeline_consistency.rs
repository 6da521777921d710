//! Cross-crate consistency: the *measured* pipeline outputs must agree
//! with the simulator's ground truth within the distortions the
//! measurement apparatus is supposed to introduce (sampling, cache
//! splitting, anonymization) — and with nothing else.

use std::collections::HashSet;

use cwa_analysis::filter::FlowFilter;
use cwa_analysis::timeseries::HourlySeries;
use cwa_repro::simnet::sim::ScenarioKind;
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

#[test]
fn observed_flow_count_matches_sampling_expectation() {
    let out = sim();
    let filter = FlowFilter::cwa(out.cdn.service_prefixes.to_vec());
    let matching = filter.apply(&out.records);

    // Expectation: each true downstream CWA flow with ~16–24 median
    // packets survives 1-in-1000 packet sampling with probability
    // ≈ packets/1000 (few-percent regime). Observed/true must sit in
    // that regime — far below 1, far above 0.
    let true_flows = (out.truth.api_flows + out.truth.web_flows) as f64;
    let observed = matching.len() as f64;
    let rate = observed / true_flows;
    assert!(
        (0.005..0.10).contains(&rate),
        "observation rate {rate:.4} ({observed} of {true_flows})"
    );
}

#[test]
fn observed_records_show_few_packets() {
    // §2: "only observing few packets for most flows".
    let out = sim();
    let filter = FlowFilter::cwa(out.cdn.service_prefixes.to_vec());
    let matching = filter.apply(&out.records);
    let single_packet = matching.iter().filter(|r| r.packets <= 2).count() as f64;
    assert!(
        single_packet / matching.len() as f64 > 0.8,
        "{}        of {} records have ≤2 packets",
        single_packet,
        matching.len()
    );
}

#[test]
fn hourly_shape_tracks_ground_truth() {
    // The *sampled* hourly series must correlate strongly with the true
    // generated per-hour flow counts (sampling is unbiased).
    let out = sim();
    let filter = FlowFilter::cwa(out.cdn.service_prefixes.to_vec());
    let matching = filter.apply_owned(&out.records);
    let hours = out.config.days * 24;
    let series = HourlySeries::from_records(matching.iter(), hours);

    let truth = &out.truth.cwa_flows_by_hour;
    let measured = &series.flows;
    let corr = pearson(
        &truth.iter().map(|&x| x as f64).collect::<Vec<_>>(),
        &measured.iter().map(|&x| x as f64).collect::<Vec<_>>(),
    );
    assert!(corr > 0.95, "hourly correlation {corr}");
}

#[test]
fn anonymization_hides_but_preserves_structure() {
    let out = sim();
    let filter = FlowFilter::cwa(out.cdn.service_prefixes.to_vec());
    let matching = filter.apply(&out.records);

    // Hidden: observed client addresses do not resolve in the raw plan.
    let leaked = matching
        .iter()
        .filter(|r| out.plan.lookup(r.key.dst_ip).is_some())
        .count() as f64;
    let leak_rate = leaked / matching.len() as f64;
    assert!(
        leak_rate < 0.05,
        "{leaked} of {} anonymized clients resolve in the raw plan",
        matching.len()
    );

    // Preserved: the number of distinct client /16s is in the same
    // ballpark before/after anonymization (prefix structure intact).
    let distinct_16: HashSet<u32> = matching
        .iter()
        .map(|r| u32::from(r.key.dst_ip) >> 16)
        .collect();
    assert!(distinct_16.len() > 10, "client prefix diversity survives");
}

#[test]
fn filter_rejects_background_and_upstream() {
    let out = sim();
    let filter = FlowFilter::cwa(out.cdn.service_prefixes.to_vec());
    let matching = filter.apply(&out.records);
    // Background + upstream exist in the record stream …
    assert!(out.records.len() > matching.len() * 2);
    // … and every matching record really originates at the CDN on 443.
    for r in &matching {
        assert!(out.cdn.is_service_addr(r.key.src_ip));
        assert_eq!(r.key.src_port, 443);
    }
}

#[test]
fn ablation_no_news_kills_the_resurge() {
    // The paper's conclusion: the June-23 increase is news-driven, not
    // infection-driven. Remove the media pulses (outbreaks still happen)
    // and the re-surge must disappear.
    let paper = sim();
    let silent = Simulation::new(SimConfig {
        scale: 0.01,
        scenario: ScenarioKind::OutbreaksWithoutNews,
        ..SimConfig::test_small()
    })
    .run();

    let growth = |out: &SimOutput| -> f64 {
        let t = &out.truth.cwa_flows_by_hour;
        let pre: u64 = t[5 * 24..8 * 24].iter().sum();
        let post: u64 = t[8 * 24..11 * 24].iter().sum();
        post as f64 / pre as f64
    };
    let with_news = growth(paper);
    let without_news = growth(&silent);
    assert!(
        with_news > without_news * 1.15,
        "news effect: with {with_news:.3}, without {without_news:.3}"
    );
    assert!(
        without_news < 1.15,
        "without news the curve is flat-to-declining: {without_news:.3}"
    );
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
    cov / (va.sqrt() * vb.sqrt())
}
