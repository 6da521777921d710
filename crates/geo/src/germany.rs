//! The assembled country model.

use std::sync::OnceLock;

use crate::district::{build_districts, District, DistrictId};
use crate::state::FederalState;

/// The full synthetic Germany: districts plus lookup structures.
#[derive(Debug, Clone)]
pub struct Germany {
    districts: Vec<District>,
    /// [`Germany::nearest_in_state`] of every district, built on first
    /// use.
    nearest: OnceLock<Vec<DistrictId>>,
}

impl Germany {
    /// Builds the canonical 401-district model (deterministic).
    pub fn build() -> Self {
        Germany {
            districts: build_districts(),
            nearest: OnceLock::new(),
        }
    }

    /// All districts, indexable by `DistrictId`.
    pub fn districts(&self) -> &[District] {
        &self.districts
    }

    /// Looks up a district.
    pub fn district(&self, id: DistrictId) -> &District {
        &self.districts[usize::from(id.0)]
    }

    /// Finds a district by exact name.
    pub fn by_name(&self, name: &str) -> Option<&District> {
        self.districts.iter().find(|d| d.name == name)
    }

    /// All districts of a state.
    pub fn in_state(&self, state: FederalState) -> impl Iterator<Item = &District> {
        self.districts.iter().filter(move |d| d.state == state)
    }

    /// Total population.
    pub fn population(&self) -> u64 {
        self.districts.iter().map(|d| u64::from(d.population)).sum()
    }

    /// Great-circle distance between two districts, km (haversine).
    pub fn distance_km(&self, a: DistrictId, b: DistrictId) -> f64 {
        let da = self.district(a);
        let db = self.district(b);
        haversine_km(da.lat, da.lon, db.lat, db.lon)
    }

    /// The geographically nearest other district within the same state
    /// (used by the geolocation error model: city-level errors usually
    /// land nearby, per Poese et al.). Of equally near districts, the
    /// first in id order. The answers for all districts are computed
    /// together on the first call.
    ///
    /// # Panics
    ///
    /// If two distances within a state do not compare (a NaN coordinate
    /// in any district).
    pub fn nearest_in_state(&self, id: DistrictId) -> DistrictId {
        self.nearest.get_or_init(|| {
            self.districts
                .iter()
                .map(|d| self.scan_nearest_in_state(d))
                .collect()
        })[usize::from(id.0)]
    }

    /// [`Germany::nearest_in_state`] of `d` by one scan, one haversine
    /// per candidate.
    fn scan_nearest_in_state(&self, d: &District) -> DistrictId {
        let mut nearest: Option<(f64, DistrictId)> = None;
        for x in self.in_state(d.state).filter(|x| x.id != d.id) {
            let dx = haversine_km(d.lat, d.lon, x.lat, x.lon);
            let closer = match nearest {
                None => true,
                Some((best, _)) => best.partial_cmp(&dx).expect("finite distances").is_gt(),
            };
            if closer {
                nearest = Some((dx, x.id));
            }
        }
        // Single-district states (Berlin, Hamburg): fall back to self.
        nearest.map_or(d.id, |(_, id)| id)
    }

    /// Number of districts.
    pub fn len(&self) -> usize {
        self.districts.len()
    }

    /// Never true for the canonical model.
    pub fn is_empty(&self) -> bool {
        self.districts.is_empty()
    }
}

/// Haversine great-circle distance in kilometres.
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    const R_EARTH_KM: f64 = 6371.0;
    let (phi1, phi2) = (lat1.to_radians(), lat2.to_radians());
    let dphi = (lat2 - lat1).to_radians();
    let dlambda = (lon2 - lon1).to_radians();
    let a = (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
    2.0 * R_EARTH_KM * a.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_population() {
        let g = Germany::build();
        assert_eq!(g.len(), 401);
        let pop = g.population();
        assert!((82_000_000..84_500_000).contains(&pop), "population {pop}");
    }

    #[test]
    fn lookup_by_name() {
        let g = Germany::build();
        assert!(g.by_name("Gütersloh").is_some());
        assert!(g.by_name("Atlantis").is_none());
    }

    #[test]
    fn haversine_known_distance() {
        // Berlin–München ≈ 504 km.
        let d = haversine_km(52.520, 13.405, 48.137, 11.575);
        assert!((480.0..530.0).contains(&d), "Berlin–München {d} km");
        // Zero distance.
        assert!(haversine_km(50.0, 8.0, 50.0, 8.0) < 1e-9);
    }

    #[test]
    fn guetersloh_warendorf_are_neighbors() {
        // The two June-23 outbreak districts are ~30 km apart.
        let g = Germany::build();
        let gt = g.by_name("Gütersloh").unwrap().id;
        let wa = g.by_name("Warendorf").unwrap().id;
        let d = g.distance_km(gt, wa);
        assert!(d < 50.0, "Gütersloh–Warendorf {d} km");
    }

    #[test]
    fn nearest_in_state_is_symmetric_enough() {
        let g = Germany::build();
        let gt = g.by_name("Gütersloh").unwrap().id;
        let nearest = g.nearest_in_state(gt);
        assert_ne!(nearest, gt);
        assert_eq!(g.district(nearest).state, g.district(gt).state);
    }

    #[test]
    fn nearest_in_state_equals_the_pairwise_min_by() {
        // The oracle: `min_by` over the state's other districts, two
        // haversines per comparison, the first of equal minima.
        let g = Germany::build();
        for d in g.districts() {
            let oracle = g
                .in_state(d.state)
                .filter(|x| x.id != d.id)
                .min_by(|x, y| {
                    let dx = haversine_km(d.lat, d.lon, x.lat, x.lon);
                    let dy = haversine_km(d.lat, d.lon, y.lat, y.lon);
                    dx.partial_cmp(&dy).expect("finite distances")
                })
                .map_or(d.id, |x| x.id);
            assert_eq!(g.nearest_in_state(d.id), oracle, "{}", d.name);
        }
    }

    #[test]
    fn nearest_in_state_keeps_the_first_of_equal_minima() {
        // Two candidates at one distance: the lower id wins, as with
        // `min_by`.
        let mut g = Germany::build();
        let gt = g.by_name("Gütersloh").unwrap().id;
        let nearest = g.nearest_in_state(gt);
        let twin = g
            .in_state(g.district(gt).state)
            .map(|x| x.id)
            .find(|&x| x != gt && x != nearest)
            .unwrap();
        let (lat, lon) = (g.district(nearest).lat, g.district(nearest).lon);
        let slot = &mut g.districts[usize::from(twin.0)];
        (slot.lat, slot.lon) = (lat, lon);
        let fresh = Germany {
            districts: g.districts.clone(),
            nearest: OnceLock::new(),
        };
        assert_eq!(fresh.nearest_in_state(gt), nearest.min(twin));
    }

    #[test]
    #[should_panic(expected = "finite distances")]
    fn nearest_in_state_rejects_a_nan_coordinate() {
        let mut g = Germany::build();
        let gt = g.by_name("Gütersloh").unwrap().id;
        g.districts[usize::from(gt.0)].lat = f64::NAN;
        g.nearest_in_state(gt);
    }

    #[test]
    fn single_district_state_nearest_is_self() {
        let g = Germany::build();
        let berlin = g.by_name("Berlin").unwrap().id;
        assert_eq!(g.nearest_in_state(berlin), berlin);
    }

    #[test]
    fn state_iteration() {
        let g = Germany::build();
        let nrw: Vec<_> = g.in_state(FederalState::NordrheinWestfalen).collect();
        assert_eq!(nrw.len(), 53);
    }
}
