//! Customer-facing routers of the ground-truth ISP.
//!
//! The paper derives 18 % of geolocations "from local routers within an
//! ISP (ground truth since the router locations are known)" — but
//! immediately cautions that "the router city-location can be off the
//! clients location (e.g., in rural areas)". That is an aggregation
//! effect: rural subscribers are often homed onto a BNG in a
//! neighbouring town. [`RouterMap`] models it: every ground-truth-ISP
//! prefix is served by a named router; metro/urban prefixes by a router
//! in their own district, rural prefixes with some probability by the
//! nearest in-state neighbour's router.

use std::collections::HashMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::district::{DistrictId, UrbanClass};
use crate::germany::Germany;
use crate::isp::AddressPlan;

/// Router-aggregation model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterMapConfig {
    /// Probability a *rural* prefix is homed on the neighbouring
    /// district's router.
    pub rural_aggregation_prob: f64,
    /// Same for suburban prefixes (usually lower).
    pub suburban_aggregation_prob: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for RouterMapConfig {
    fn default() -> Self {
        RouterMapConfig {
            rural_aggregation_prob: 0.30,
            suburban_aggregation_prob: 0.10,
            seed: 0xB46,
        }
    }
}

/// One router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterInfo {
    /// Router identifier (stable).
    pub id: u32,
    /// District the router physically sits in.
    pub district: DistrictId,
    /// Coordinates (the district centroid — BNGs sit in the main town).
    pub lat: f64,
    /// Longitude.
    pub lon: f64,
}

/// Prefix → serving-router assignment for the ground-truth ISP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterMap {
    /// One router per district that hosts any.
    routers: Vec<RouterInfo>,
    /// Ground-truth-ISP prefix network → index into `routers`, sorted by
    /// network as [`GeoDb`](crate::GeoDb)'s entries are.
    by_prefix: Vec<(u32, u32)>,
}

impl RouterMap {
    /// Builds the map over the plan's ground-truth ISP allocations.
    pub fn build(germany: &Germany, plan: &AddressPlan, config: RouterMapConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let gt_isp = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .expect("a ground-truth ISP exists")
            .id;

        // One router per district.
        let mut router_of_district: HashMap<DistrictId, usize> = HashMap::new();
        let mut routers = Vec::new();
        let mut router_for = |district: DistrictId, germany: &Germany| -> usize {
            *router_of_district.entry(district).or_insert_with(|| {
                let d = germany.district(district);
                routers.push(RouterInfo {
                    id: routers.len() as u32,
                    district,
                    lat: d.lat,
                    lon: d.lon,
                });
                routers.len() - 1
            })
        };

        let mut by_prefix = Vec::new();
        for alloc in plan.allocations().iter().filter(|a| a.isp == gt_isp) {
            let home = alloc.district;
            let urban = germany.district(home).urban;
            let aggregation_prob = match urban {
                UrbanClass::Rural => config.rural_aggregation_prob,
                UrbanClass::Suburban => config.suburban_aggregation_prob,
                _ => 0.0,
            };
            let serving = if aggregation_prob > 0.0 && rng.gen::<f64>() < aggregation_prob {
                germany.nearest_in_state(home)
            } else {
                home
            };
            let idx = router_for(serving, germany);
            by_prefix.push((u32::from(alloc.network), idx as u32));
        }
        crate::geodb::sort_unique(&mut by_prefix, "router map");

        RouterMap { routers, by_prefix }
    }

    /// The serving router of a ground-truth-ISP prefix network.
    pub fn router_of(&self, network: u32) -> Option<&RouterInfo> {
        crate::geodb::find(&self.by_prefix, network).map(|&i| &self.routers[i as usize])
    }

    /// All routers.
    pub fn routers(&self) -> &[RouterInfo] {
        &self.routers
    }

    /// Number of mapped prefixes.
    pub fn prefix_count(&self) -> usize {
        self.by_prefix.len()
    }

    /// Fraction of prefixes served from outside their home district
    /// (calibration helper; uses the plan for the home mapping).
    pub fn aggregated_share(&self, plan: &AddressPlan) -> f64 {
        if self.by_prefix.is_empty() {
            return f64::NAN;
        }
        let home: HashMap<u32, DistrictId> = plan
            .allocations()
            .iter()
            .map(|a| (u32::from(a.network), a.district))
            .collect();
        let off = self
            .by_prefix
            .iter()
            .filter(|&&(net, idx)| home.get(&net) != Some(&self.routers[idx as usize].district))
            .count();
        off as f64 / self.by_prefix.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isp::AddressPlanConfig;

    fn setup() -> (Germany, AddressPlan, RouterMap) {
        let g = Germany::build();
        let plan = AddressPlan::build(
            &g,
            AddressPlanConfig {
                persons_per_subscription: 2.0,
                prefix_capacity: 16_384,
                prefix_len: 18,
            },
        );
        let map = RouterMap::build(&g, &plan, RouterMapConfig::default());
        (g, plan, map)
    }

    #[test]
    fn covers_every_gt_prefix() {
        let (_, plan, map) = setup();
        let gt = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .unwrap()
            .id;
        let expected = plan.allocations().iter().filter(|a| a.isp == gt).count();
        assert_eq!(map.prefix_count(), expected);
        for a in plan.allocations().iter().filter(|a| a.isp == gt) {
            assert!(map.router_of(u32::from(a.network)).is_some());
        }
    }

    #[test]
    fn non_gt_prefixes_unmapped() {
        let (_, plan, map) = setup();
        let gt = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .unwrap()
            .id;
        let other = plan.allocations().iter().find(|a| a.isp != gt).unwrap();
        assert!(map.router_of(u32::from(other.network)).is_none());
    }

    #[test]
    fn metro_prefixes_stay_home() {
        let (g, plan, map) = setup();
        let gt = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .unwrap()
            .id;
        let berlin = g.by_name("Berlin").unwrap().id;
        for a in plan
            .allocations()
            .iter()
            .filter(|a| a.isp == gt && a.district == berlin)
        {
            let r = map.router_of(u32::from(a.network)).unwrap();
            assert_eq!(r.district, berlin, "metro never aggregated away");
        }
    }

    #[test]
    fn rural_aggregation_near_configured_rate() {
        let (g, plan, map) = setup();
        let gt = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .unwrap()
            .id;
        let mut rural_total = 0u32;
        let mut rural_off = 0u32;
        for a in plan.allocations().iter().filter(|a| a.isp == gt) {
            if g.district(a.district).urban == UrbanClass::Rural {
                rural_total += 1;
                let r = map.router_of(u32::from(a.network)).unwrap();
                if r.district != a.district {
                    rural_off += 1;
                }
            }
        }
        let rate = f64::from(rural_off) / f64::from(rural_total.max(1));
        assert!((0.2..0.4).contains(&rate), "rural aggregation rate {rate}");
    }

    #[test]
    fn aggregated_share_consistent() {
        let (_, plan, map) = setup();
        let share = map.aggregated_share(&plan);
        // Mostly rural districts × 0.3 + suburban × 0.1 ⇒ teens overall.
        assert!((0.02..0.35).contains(&share), "aggregated share {share}");
    }

    #[test]
    fn deterministic() {
        let (g, plan, _) = setup();
        let a = RouterMap::build(&g, &plan, RouterMapConfig::default());
        let b = RouterMap::build(&g, &plan, RouterMapConfig::default());
        assert_eq!(a.routers(), b.routers());
    }

    /// The construction the sorted vector replaced: the same draws, into
    /// a hash map from prefix network to serving district.
    fn hash_map_build(
        germany: &Germany,
        plan: &AddressPlan,
        config: RouterMapConfig,
    ) -> HashMap<u32, DistrictId> {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let gt_isp = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .unwrap()
            .id;
        let mut serving = HashMap::new();
        for alloc in plan.allocations().iter().filter(|a| a.isp == gt_isp) {
            let home = alloc.district;
            let aggregation_prob = match germany.district(home).urban {
                UrbanClass::Rural => config.rural_aggregation_prob,
                UrbanClass::Suburban => config.suburban_aggregation_prob,
                _ => 0.0,
            };
            let district = if aggregation_prob > 0.0 && rng.gen::<f64>() < aggregation_prob {
                germany.nearest_in_state(home)
            } else {
                home
            };
            serving.insert(u32::from(alloc.network), district);
        }
        serving
    }

    #[test]
    fn sorted_storage_answers_as_the_hash_map_did() {
        let g = Germany::build();
        let plan = AddressPlan::build(&g, AddressPlanConfig::default());
        let map = RouterMap::build(&g, &plan, RouterMapConfig::default());
        let oracle = hash_map_build(&g, &plan, RouterMapConfig::default());
        assert_eq!(map.prefix_count(), oracle.len());
        for alloc in plan.allocations() {
            let net = u32::from(alloc.network);
            assert_eq!(
                map.router_of(net).map(|r| r.district),
                oracle.get(&net).copied(),
                "{}",
                alloc.network
            );
        }
        let gt = plan.isps.iter().find(|i| i.ground_truth_routers).unwrap();
        let outside = u32::from(gt.base) - (1 << 10);
        assert!(map.router_of(outside).is_none());
    }

    #[test]
    fn routers_sit_at_district_centroids() {
        let (g, _, map) = setup();
        for r in map.routers() {
            let d = g.district(r.district);
            assert_eq!((r.lat, r.lon), (d.lat, d.lon));
        }
    }
}
