//! A Maxmind-style geolocation database with a realistic error model.
//!
//! The paper geolocates client prefixes in two ways (§3):
//!
//! 1. **Router ground truth** for one ISP whose customer-facing router
//!    locations are known (18 % of geolocations) — always correct.
//! 2. A **commercial geolocation database** on routing prefixes for the
//!    rest — "*can be subject to errors; the router city-location can be
//!    off the clients location (e.g., in rural areas) and Maxmind's
//!    geolocation can also be subject to inaccuracies at city-level*",
//!    citing Poese et al. (CCR 2011).
//!
//! [`GeoDb`] reproduces this: for every prefix of the address plan it
//! stores a located district that is *usually* the true one but, with a
//! configurable error rate, is displaced to a nearby district or
//! collapsed to the state's largest city (the classic "everything
//! geolocates to the big city" failure mode).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::district::DistrictId;
use crate::germany::Germany;
use crate::isp::AddressPlan;

/// Masks `addr` down to its `/len` network (as a u32).
pub fn mask(addr: Ipv4Addr, len: u8) -> u32 {
    if len == 0 {
        return 0;
    }
    let len = len.min(32);
    let m = if len == 32 {
        u32::MAX
    } else {
        !(u32::MAX >> len)
    };
    u32::from(addr) & m
}

/// Error-model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoDbConfig {
    /// Probability that a prefix is mislocated (Maxmind city-level error;
    /// literature suggests 10–30 % outside the US).
    pub city_error_rate: f64,
    /// Of the errors, fraction landing in a *nearby* district (the rest
    /// collapse to the state's largest city).
    pub nearby_error_fraction: f64,
    /// RNG seed for the (deterministic) error assignment.
    pub seed: u64,
}

impl Default for GeoDbConfig {
    fn default() -> Self {
        GeoDbConfig {
            city_error_rate: 0.15,
            nearby_error_fraction: 0.7,
            seed: 0xC0FFEE,
        }
    }
}

/// One database entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoEntry {
    /// The district the DB *claims* the prefix is in.
    pub located: DistrictId,
    /// The true district (kept for calibration/tests only; the analysis
    /// pipeline never reads it).
    pub truth: DistrictId,
    /// Claimed coordinates.
    pub lat: f64,
    /// Claimed coordinates.
    pub lon: f64,
}

impl GeoEntry {
    /// Whether the DB located this prefix correctly.
    pub fn is_correct(&self) -> bool {
        self.located == self.truth
    }
}

/// The geolocation database, keyed by `/len` prefix network address.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeoDb {
    /// Prefix length the DB is keyed on.
    pub prefix_len: u8,
    entries: HashMap<u32, GeoEntry>,
}

impl GeoDb {
    /// Builds the database over an address plan.
    pub fn build(germany: &Germany, plan: &AddressPlan, config: GeoDbConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut entries = HashMap::with_capacity(plan.allocations().len());

        // Largest city per state (the "collapse" target of gross errors).
        let mut biggest: HashMap<crate::state::FederalState, DistrictId> = HashMap::new();
        for d in germany.districts() {
            let cur = biggest.entry(d.state).or_insert(d.id);
            if germany.district(*cur).population < d.population {
                *cur = d.id;
            }
        }

        for alloc in plan.allocations() {
            let truth = alloc.district;
            let located = if rng.gen::<f64>() < config.city_error_rate {
                if rng.gen::<f64>() < config.nearby_error_fraction {
                    germany.nearest_in_state(truth)
                } else {
                    biggest[&germany.district(truth).state]
                }
            } else {
                truth
            };
            let d = germany.district(located);
            entries.insert(
                mask(alloc.network, alloc.len),
                GeoEntry {
                    located,
                    truth,
                    lat: d.lat,
                    lon: d.lon,
                },
            );
        }
        GeoDb {
            prefix_len: plan.config.prefix_len,
            entries,
        }
    }

    /// Looks up an address.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<GeoEntry> {
        self.entries.get(&mask(addr, self.prefix_len)).copied()
    }

    /// Looks up by pre-masked prefix network value.
    pub fn lookup_prefix(&self, network: u32) -> Option<GeoEntry> {
        self.entries.get(&network).copied()
    }

    /// Every entry with its prefix network value, in no particular
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &GeoEntry)> {
        self.entries.iter().map(|(&net, entry)| (net, entry))
    }

    /// Number of prefixes in the DB.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the DB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fraction of correctly located prefixes (calibration helper).
    pub fn accuracy(&self) -> f64 {
        if self.entries.is_empty() {
            return 1.0;
        }
        let ok = self.entries.values().filter(|e| e.is_correct()).count();
        ok as f64 / self.entries.len() as f64
    }

    /// Re-keys the database through an address transformation — e.g.
    /// Crypto-PAn — producing the side table the measurement operator
    /// hands to analysts along with anonymized traces. (Prefix-preserving
    /// anonymization maps each `/len` prefix onto a unique anonymized
    /// `/len` prefix, so the table stays well-defined.)
    pub fn rekeyed<F: Fn(Ipv4Addr) -> Ipv4Addr>(&self, f: F) -> GeoDb {
        let entries = self
            .entries
            .iter()
            .map(|(&net, &entry)| {
                let anon = f(Ipv4Addr::from(net));
                (mask(anon, self.prefix_len), entry)
            })
            .collect();
        GeoDb {
            prefix_len: self.prefix_len,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isp::AddressPlanConfig;

    fn setup() -> (Germany, AddressPlan, GeoDb) {
        let g = Germany::build();
        // Coarser prefixes: faster tests.
        let plan = AddressPlan::build(
            &g,
            AddressPlanConfig {
                persons_per_subscription: 2.0,
                prefix_capacity: 16_384,
                prefix_len: 18,
            },
        );
        let db = GeoDb::build(&g, &plan, GeoDbConfig::default());
        (g, plan, db)
    }

    #[test]
    fn covers_every_prefix() {
        let (_, plan, db) = setup();
        assert_eq!(db.len(), plan.allocations().len());
        for a in plan.allocations() {
            assert!(db.lookup(a.network).is_some());
            assert!(db.lookup(a.host(3)).is_some(), "host addresses resolve too");
        }
    }

    #[test]
    fn accuracy_matches_configured_error_rate() {
        let (_, _, db) = setup();
        let acc = db.accuracy();
        assert!(
            (0.80..0.90).contains(&acc),
            "accuracy {acc} vs expected 0.85"
        );
    }

    #[test]
    fn zero_error_rate_is_exact() {
        let g = Germany::build();
        let plan = AddressPlan::build(
            &g,
            AddressPlanConfig {
                persons_per_subscription: 2.0,
                prefix_capacity: 16_384,
                prefix_len: 18,
            },
        );
        let db = GeoDb::build(
            &g,
            &plan,
            GeoDbConfig {
                city_error_rate: 0.0,
                nearby_error_fraction: 0.7,
                seed: 1,
            },
        );
        assert!((db.accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn errors_stay_in_state() {
        let (g, _, db) = setup();
        // Both error modes (nearest-in-state, biggest-in-state) stay within
        // the federal state, so state-level analyses are robust — one
        // reason the paper's outbreak comparison works at state level.
        for (_net, e) in db.entries.iter() {
            assert_eq!(
                g.district(e.located).state,
                g.district(e.truth).state,
                "geo error crossed a state border"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = Germany::build();
        let plan = AddressPlan::build(
            &g,
            AddressPlanConfig {
                persons_per_subscription: 2.0,
                prefix_capacity: 16_384,
                prefix_len: 18,
            },
        );
        let a = GeoDb::build(&g, &plan, GeoDbConfig::default());
        let b = GeoDb::build(&g, &plan, GeoDbConfig::default());
        for alloc in plan.allocations() {
            assert_eq!(a.lookup(alloc.network), b.lookup(alloc.network));
        }
    }

    #[test]
    fn unknown_address_misses() {
        let (_, _, db) = setup();
        assert!(db.lookup(Ipv4Addr::new(8, 8, 8, 8)).is_none());
    }

    #[test]
    fn rekeying_preserves_entries() {
        let (_, plan, db) = setup();
        // A toy prefix-preserving transform: XOR the top byte.
        let xform = |a: Ipv4Addr| Ipv4Addr::from(u32::from(a) ^ 0xA5000000);
        let rekeyed = db.rekeyed(xform);
        assert_eq!(rekeyed.len(), db.len());
        for a in plan.allocations() {
            let orig = db.lookup(a.network).unwrap();
            let via = rekeyed.lookup(xform(a.network)).unwrap();
            assert_eq!(orig, via);
        }
    }

    #[test]
    fn mask_edges() {
        assert_eq!(mask(Ipv4Addr::new(1, 2, 3, 4), 0), 0);
        assert_eq!(
            mask(Ipv4Addr::new(1, 2, 3, 4), 32),
            u32::from(Ipv4Addr::new(1, 2, 3, 4))
        );
        assert_eq!(
            mask(Ipv4Addr::new(10, 20, 255, 255), 18),
            u32::from(Ipv4Addr::new(10, 20, 192, 0))
        );
    }
}
