//! The DNS ecosystem: open resolvers, query volumes, and an
//! Umbrella-style top-list rank model.
//!
//! Two observations in §2 of the paper rest on DNS:
//!
//! 1. The authors verified the CDN prefixes "*by resolving the API and
//!    web site DNS names … against 10k open DNS resolvers from
//!    public-dns.info*" — reproduced by [`verify_prefixes`].
//! 2. "*the CWA API DNS name appeared in the Umbrella Top 1M domains on
//!    June 24, 27, July 8, 10–11, while the website never appeared —
//!    implying CWA API calls to be more popular than website visits*."
//!    The Cisco Umbrella list ranks domains by OpenDNS query popularity.
//!    [`TopListModel`] maps a domain's resolver-visible query volume to
//!    a rank via an inverse-Zipf law with day-to-day jitter — which
//!    naturally produces exactly the observed flickering around the 1 M
//!    threshold once the API's popularity approaches it.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use cwa_epidemic::{ActivityModel, AdoptionCurve};

use crate::cdn::CdnConfig;

/// Umbrella-style rank model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopListModel {
    /// Zipf exponent of the domain-popularity distribution.
    pub zipf_exponent: f64,
    /// Daily resolver-visible queries of the rank-1 domain.
    pub rank1_queries_per_day: f64,
    /// Log-scale day-to-day jitter of measured volumes (σ).
    pub jitter_sigma: f64,
    /// Fraction of German DNS activity visible to the list's resolvers
    /// (OpenDNS has a small market share in Germany).
    pub resolver_visibility: f64,
    /// Fraction of API requests causing an upstream DNS query
    /// (TTL-driven cache miss rate at the resolver).
    pub api_cache_miss: f64,
    /// Cache-miss fraction for website lookups.
    pub web_cache_miss: f64,
    /// RNG seed for the jitter.
    pub seed: u64,
}

impl Default for TopListModel {
    fn default() -> Self {
        TopListModel {
            zipf_exponent: 0.5,
            rank1_queries_per_day: 4.3e6,
            jitter_sigma: 0.05,
            resolver_visibility: 1.30e-3,
            api_cache_miss: 0.30,
            web_cache_miss: 0.50,
            seed: 0xD45,
        }
    }
}

impl TopListModel {
    /// Rank implied by a daily query volume: inverting the Zipf law
    /// `q(r) = q₁ · r^(−s)` gives `r(q) = (q₁ / q)^(1/s)`.
    pub fn rank_of_volume(&self, queries_per_day: f64) -> u64 {
        if queries_per_day <= 0.0 {
            return u64::MAX;
        }
        let r = (self.rank1_queries_per_day / queries_per_day).powf(1.0 / self.zipf_exponent);
        r.clamp(1.0, 1e15) as u64
    }

    /// The query volume needed to hit a given rank.
    pub fn volume_of_rank(&self, rank: u64) -> f64 {
        self.rank1_queries_per_day * (rank.max(1) as f64).powf(-self.zipf_exponent)
    }
}

/// Daily rank observations for both CWA domains.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DnsStudy {
    /// Per-day rank of the API name.
    pub api_rank: Vec<u64>,
    /// Per-day rank of the website name.
    pub website_rank: Vec<u64>,
    /// Days (indices) where the API name made the top 1 M.
    pub api_top1m_days: Vec<u32>,
    /// Days where the website made the top 1 M.
    pub website_top1m_days: Vec<u32>,
}

/// Runs the DNS popularity study over `days` days.
///
/// API query volume follows the installed base times per-user request
/// rate; website volume follows the launch/news interest curve.
pub fn run_dns_study(
    model: &TopListModel,
    adoption: &AdoptionCurve,
    activity: &ActivityModel,
    national_media: &[f64],
    days: u32,
) -> DnsStudy {
    let mut rng = ChaCha8Rng::seed_from_u64(model.seed);
    let mut normals = crate::samplers::NormalCache::new();
    let mut api_rank = Vec::with_capacity(days as usize);
    let mut website_rank = Vec::with_capacity(days as usize);

    for day in 0..days {
        let end_hour = day * 24 + 23;
        let installed = adoption.downloads_at(end_hour);
        let media = national_media
            .get(end_hour as usize)
            .copied()
            .unwrap_or(1.0);

        let api_queries = installed
            * activity.api_requests_per_user_day_media(media)
            * model.api_cache_miss
            * model.resolver_visibility;
        let web_visits_day: f64 = (0..24)
            .map(|h| activity.website_visits_per_hour(day * 24 + h, media))
            .sum();
        let web_queries = web_visits_day * model.web_cache_miss * model.resolver_visibility;

        // One Box–Muller pair covers both jitters.
        let jitter_api = (model.jitter_sigma * normals.standard_normal(&mut rng)).exp();
        let jitter_web = (model.jitter_sigma * normals.standard_normal(&mut rng)).exp();

        api_rank.push(model.rank_of_volume(api_queries * jitter_api));
        website_rank.push(model.rank_of_volume(web_queries * jitter_web));
    }

    let api_top1m_days = api_rank
        .iter()
        .enumerate()
        .filter(|(_, &r)| r <= 1_000_000)
        .map(|(d, _)| d as u32)
        .collect();
    let website_top1m_days = website_rank
        .iter()
        .enumerate()
        .filter(|(_, &r)| r <= 1_000_000)
        .map(|(d, _)| d as u32)
        .collect();

    DnsStudy {
        api_rank,
        website_rank,
        api_top1m_days,
        website_top1m_days,
    }
}

/// The §2 verification step: resolve both CWA DNS names against `n`
/// open resolvers and collect the set of service prefixes the answers
/// fall into. (Simulated resolvers all serve the true CDN records,
/// spread across servers; a small fraction time out.)
pub fn verify_prefixes<R: Rng>(
    rng: &mut R,
    cdn: &CdnConfig,
    n_resolvers: u32,
) -> Vec<(std::net::Ipv4Addr, u8)> {
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..n_resolvers {
        if rng.gen::<f64>() < 0.03 {
            continue; // dead resolver
        }
        let answer = cdn.server_for(rng.gen::<u64>());
        for &(p, l) in &cdn.service_prefixes {
            if cwa_netflow::flow::in_prefix(answer, p, l) {
                seen.insert((p, l));
            }
        }
    }
    seen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwa_epidemic::{AdoptionConfig, AdoptionModel, Scenario, Timeline};
    use cwa_geo::{AddressPlan, AddressPlanConfig, Germany};

    fn study(days: u32) -> DnsStudy {
        let g = Germany::build();
        let plan = AddressPlan::build(&g, AddressPlanConfig::default());
        let gt = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .unwrap()
            .id;
        let scenario = Scenario::paper_default(&g, gt);
        let adoption =
            AdoptionModel::new(AdoptionConfig::default()).run(&g, &scenario, Timeline { days });
        let media: Vec<f64> = (0..days * 24)
            .map(|h| scenario.national_media_factor(h))
            .collect();
        run_dns_study(
            &TopListModel::default(),
            &adoption,
            &ActivityModel::default(),
            &media,
            days,
        )
    }

    #[test]
    fn rank_volume_inversion() {
        let m = TopListModel::default();
        for rank in [1u64, 100, 10_000, 1_000_000] {
            let v = m.volume_of_rank(rank);
            let r = m.rank_of_volume(v);
            let rel = (r as f64 - rank as f64).abs() / rank as f64;
            assert!(rel < 0.01, "rank {rank} -> volume {v} -> rank {r}");
        }
        assert_eq!(m.rank_of_volume(0.0), u64::MAX);
    }

    /// Paper anchor: API in the Umbrella top 1M on June 24 (day 9 of the
    /// study) — i.e., late in the window, not at release.
    #[test]
    fn api_enters_top1m_late_in_window() {
        let s = study(11);
        assert!(
            !s.api_top1m_days.is_empty(),
            "API should enter the top 1M within the window: ranks {:?}",
            s.api_rank
        );
        let first = s.api_top1m_days[0];
        assert!(
            (6..=10).contains(&first),
            "first appearance day {first}, paper: day 9 (Jun 24); ranks {:?}",
            s.api_rank
        );
        // And never at/just after release, when the installed base is
        // still small.
        assert!(!s.api_top1m_days.contains(&1));
        assert!(!s.api_top1m_days.contains(&2));
    }

    /// Paper anchor: "the website never appeared".
    #[test]
    fn website_never_in_top1m() {
        let s = study(11);
        assert!(
            s.website_top1m_days.is_empty(),
            "website ranks {:?}",
            s.website_rank
        );
    }

    #[test]
    fn api_more_popular_than_website_once_adopted() {
        let s = study(11);
        for day in 3..11usize {
            assert!(
                s.api_rank[day] < s.website_rank[day],
                "day {day}: api {} vs web {}",
                s.api_rank[day],
                s.website_rank[day]
            );
        }
    }

    #[test]
    fn ranks_improve_with_adoption() {
        let s = study(11);
        // Median rank of last 3 days better (smaller) than days 2–4.
        let early = s.api_rank[2].min(s.api_rank[3]).min(s.api_rank[4]);
        let late = s.api_rank[8].min(s.api_rank[9]).min(s.api_rank[10]);
        assert!(late < early, "late {late} < early {early}");
    }

    #[test]
    fn verification_finds_both_prefixes() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let cdn = CdnConfig::default();
        let prefixes = verify_prefixes(&mut rng, &cdn, 10_000);
        assert_eq!(prefixes.len(), 2);
        for p in cdn.service_prefixes {
            assert!(prefixes.contains(&p));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = study(8);
        let b = study(8);
        assert_eq!(a.api_rank, b.api_rank);
    }
}
