//! Districts (Kreise and kreisfreie Städte).
//!
//! Germany has 401 districts; Figure 3 of the paper colours a map of
//! them. We anchor each state with its real capital and the major
//! cities, include the paper's outbreak districts (Berlin, Gütersloh,
//! Warendorf) with their real populations and coordinates, and
//! synthesize the remaining (mostly rural) districts deterministically
//! such that each state's population is conserved.

use serde::{Deserialize, Serialize};

use crate::state::FederalState;

/// Stable district identifier (index into [`crate::Germany::districts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DistrictId(pub u16);

/// Urbanization class; drives adoption affinity and ISP mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UrbanClass {
    /// Large city (kreisfreie Stadt ≥ 500k).
    Metro,
    /// City district, 100k–500k.
    Urban,
    /// Mixed Landkreis.
    Suburban,
    /// Rural Landkreis.
    Rural,
}

/// One district.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct District {
    /// Stable id.
    pub id: DistrictId,
    /// Display name.
    pub name: String,
    /// Containing federal state.
    pub state: FederalState,
    /// Resident population.
    pub population: u32,
    /// Centroid latitude.
    pub lat: f64,
    /// Centroid longitude.
    pub lon: f64,
    /// Leading ZIP digits ("ZIP area" of Fig. 3), e.g. "33" for Gütersloh.
    pub zip_prefix: String,
    /// Urbanization class.
    pub urban: UrbanClass,
}

/// Real anchor cities: (name, state, population, lat, lon, zip prefix).
/// Populations are city/district values around 2020.
pub(crate) const ANCHORS: &[(&str, FederalState, u32, f64, f64, &str)] = &[
    (
        "Berlin",
        FederalState::Berlin,
        3_669_000,
        52.520,
        13.405,
        "10",
    ),
    (
        "Hamburg",
        FederalState::Hamburg,
        1_847_000,
        53.551,
        9.994,
        "20",
    ),
    (
        "München",
        FederalState::Bayern,
        1_484_000,
        48.137,
        11.575,
        "80",
    ),
    (
        "Köln",
        FederalState::NordrheinWestfalen,
        1_086_000,
        50.938,
        6.960,
        "50",
    ),
    (
        "Frankfurt am Main",
        FederalState::Hessen,
        753_000,
        50.110,
        8.682,
        "60",
    ),
    (
        "Stuttgart",
        FederalState::BadenWuerttemberg,
        635_000,
        48.775,
        9.182,
        "70",
    ),
    (
        "Düsseldorf",
        FederalState::NordrheinWestfalen,
        620_000,
        51.227,
        6.773,
        "40",
    ),
    (
        "Leipzig",
        FederalState::Sachsen,
        593_000,
        51.340,
        12.374,
        "04",
    ),
    (
        "Dortmund",
        FederalState::NordrheinWestfalen,
        588_000,
        51.513,
        7.465,
        "44",
    ),
    (
        "Essen",
        FederalState::NordrheinWestfalen,
        583_000,
        51.455,
        7.011,
        "45",
    ),
    ("Bremen", FederalState::Bremen, 567_000, 53.079, 8.801, "28"),
    (
        "Dresden",
        FederalState::Sachsen,
        557_000,
        51.050,
        13.738,
        "01",
    ),
    (
        "Hannover",
        FederalState::Niedersachsen,
        536_000,
        52.375,
        9.732,
        "30",
    ),
    (
        "Nürnberg",
        FederalState::Bayern,
        518_000,
        49.453,
        11.077,
        "90",
    ),
    (
        "Duisburg",
        FederalState::NordrheinWestfalen,
        498_000,
        51.434,
        6.762,
        "47",
    ),
    // The paper's June-23 outbreak districts:
    (
        "Gütersloh",
        FederalState::NordrheinWestfalen,
        364_000,
        51.907,
        8.379,
        "33",
    ),
    (
        "Warendorf",
        FederalState::NordrheinWestfalen,
        277_000,
        51.953,
        7.992,
        "48",
    ),
    // State capitals not yet covered:
    (
        "Potsdam",
        FederalState::Brandenburg,
        180_000,
        52.396,
        13.058,
        "14",
    ),
    (
        "Wiesbaden",
        FederalState::Hessen,
        278_000,
        50.082,
        8.239,
        "65",
    ),
    (
        "Schwerin",
        FederalState::MecklenburgVorpommern,
        96_000,
        53.635,
        11.401,
        "19",
    ),
    (
        "Mainz",
        FederalState::RheinlandPfalz,
        217_000,
        49.992,
        8.247,
        "55",
    ),
    (
        "Saarbrücken",
        FederalState::Saarland,
        330_000,
        49.240,
        6.997,
        "66",
    ),
    (
        "Magdeburg",
        FederalState::SachsenAnhalt,
        236_000,
        52.131,
        11.640,
        "39",
    ),
    (
        "Kiel",
        FederalState::SchleswigHolstein,
        247_000,
        54.323,
        10.123,
        "24",
    ),
    (
        "Erfurt",
        FederalState::Thueringen,
        214_000,
        50.984,
        11.030,
        "99",
    ),
    (
        "Bremerhaven",
        FederalState::Bremen,
        114_000,
        53.540,
        8.586,
        "27",
    ),
];

/// Deterministically synthesizes the full 401-district list.
///
/// Anchors come first (in the order above, so Berlin is always
/// `DistrictId(0)`), then per-state synthetic districts that absorb the
/// remaining population. Synthetic district sizes follow a smooth
/// decreasing profile (a Zipf-ish tail), their coordinates fan out
/// around the state capital, and ZIP prefixes derive from the state's
/// zone.
pub(crate) fn build_districts() -> Vec<District> {
    let mut districts: Vec<District> = Vec::with_capacity(401);

    for (name, state, pop, lat, lon, zip) in ANCHORS {
        districts.push(District {
            id: DistrictId(districts.len() as u16),
            name: (*name).to_owned(),
            state: *state,
            population: *pop,
            lat: *lat,
            lon: *lon,
            zip_prefix: (*zip).to_owned(),
            urban: classify(*pop),
        });
    }

    for state in FederalState::ALL {
        let anchored: Vec<&District> = districts.iter().filter(|d| d.state == state).collect();
        let anchored_count = anchored.len();
        let anchored_pop: u64 = anchored.iter().map(|d| u64::from(d.population)).sum();
        let remaining_count = state.district_count().saturating_sub(anchored_count);
        if remaining_count == 0 {
            continue;
        }
        let remaining_pop =
            (u64::from(state.population_thousands()) * 1000).saturating_sub(anchored_pop);

        // Zipf-like weights w_i = 1 / (i + 3): big Landkreise first.
        let weights: Vec<f64> = (0..remaining_count)
            .map(|i| 1.0 / (i as f64 + 3.0))
            .collect();
        let weight_sum: f64 = weights.iter().sum();

        let (cap_lat, cap_lon) = state.capital_coords();
        let mut allocated = 0u64;
        for (i, weight) in weights.iter().enumerate() {
            let pop = if i + 1 == remaining_count {
                remaining_pop - allocated // exact conservation
            } else {
                let p = (remaining_pop as f64 * weight / weight_sum) as u64;
                allocated += p;
                p
            };
            // Deterministic fan-out: ring position by golden-angle steps.
            let angle = i as f64 * 2.399_963; // golden angle, radians
            let radius_deg = 0.25 + 0.9 * ((i % 7) as f64 / 7.0);
            let lat = cap_lat + radius_deg * angle.sin();
            let lon = cap_lon + radius_deg * 1.4 * angle.cos();
            let zip = format!(
                "{:02}",
                (u32::from(state.zip_zone()) + 1 + (i as u32 % 9)) % 100
            );
            districts.push(District {
                id: DistrictId(districts.len() as u16),
                name: format!("Landkreis {} {}", state.abbrev(), i + 1),
                state,
                population: pop as u32,
                lat,
                lon,
                zip_prefix: zip,
                urban: classify(pop as u32),
            });
        }
    }

    districts
}

fn classify(population: u32) -> UrbanClass {
    match population {
        p if p >= 500_000 => UrbanClass::Metro,
        p if p >= 250_000 => UrbanClass::Urban,
        p if p >= 120_000 => UrbanClass::Suburban,
        _ => UrbanClass::Rural,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_hundred_one_districts() {
        assert_eq!(build_districts().len(), 401);
    }

    #[test]
    fn berlin_is_district_zero() {
        let d = build_districts();
        assert_eq!(d[0].name, "Berlin");
        assert_eq!(d[0].id, DistrictId(0));
    }

    #[test]
    fn outbreak_districts_present() {
        let d = build_districts();
        for name in ["Berlin", "Gütersloh", "Warendorf"] {
            assert!(d.iter().any(|x| x.name == name), "{name} missing");
        }
        let gt = d.iter().find(|x| x.name == "Gütersloh").unwrap();
        assert_eq!(gt.state, FederalState::NordrheinWestfalen);
        assert_eq!(gt.zip_prefix, "33");
    }

    #[test]
    fn population_conserved_per_state() {
        let d = build_districts();
        for state in FederalState::ALL {
            let sum: u64 = d
                .iter()
                .filter(|x| x.state == state)
                .map(|x| u64::from(x.population))
                .sum();
            let want = u64::from(state.population_thousands()) * 1000;
            assert_eq!(sum, want, "{}", state.name());
        }
    }

    #[test]
    fn district_counts_match_states() {
        let d = build_districts();
        for state in FederalState::ALL {
            let n = d.iter().filter(|x| x.state == state).count();
            assert_eq!(n, state.district_count(), "{}", state.name());
        }
    }

    #[test]
    fn ids_are_sequential() {
        let d = build_districts();
        for (i, x) in d.iter().enumerate() {
            assert_eq!(x.id, DistrictId(i as u16));
        }
    }

    #[test]
    fn no_zero_population_districts() {
        // Every district must emit *some* traffic potential (Fig. 3:
        // "almost all districts emit requests").
        let d = build_districts();
        assert!(
            d.iter().all(|x| x.population > 10_000),
            "district with tiny population"
        );
    }

    #[test]
    fn urban_classification() {
        assert_eq!(classify(3_000_000), UrbanClass::Metro);
        assert_eq!(classify(300_000), UrbanClass::Urban);
        assert_eq!(classify(150_000), UrbanClass::Suburban);
        assert_eq!(classify(80_000), UrbanClass::Rural);
    }

    #[test]
    fn coordinates_plausible() {
        let d = build_districts();
        for x in &d {
            assert!((46.5..56.0).contains(&x.lat), "{}: lat {}", x.name, x.lat);
            assert!((4.5..16.5).contains(&x.lon), "{}: lon {}", x.name, x.lon);
        }
    }
}
