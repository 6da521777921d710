//! The CWA hosting infrastructure (the "CDN" of Figure 1).
//!
//! The real backend is operated on Open Telekom Cloud behind a CDN; its
//! documentation names the service prefixes the paper filtered on
//! ("2 IPv4 prefixes mentioned in the CWA backend documentation", §2),
//! and both the app API and the project website are served via HTTPS
//! from the same infrastructure — which is why the paper cannot tell
//! them apart in flow data. We model:
//!
//! * two synthetic IPv4 service prefixes with a handful of server
//!   addresses each,
//! * daily diagnosis-key export files, sized as the export.bin +
//!   export.sig pair in the *actual* wire format from `cwa-exposure`,
//!   so download flow sizes are honest.

use std::net::Ipv4Addr;

use rand::RngCore;
use serde::{Deserialize, Serialize};

use cwa_epidemic::timeline::STUDY_EPOCH_UNIX;
use cwa_exposure::export::TemporaryExposureKeyExport;
use cwa_exposure::signature::encode_signature_list;
use cwa_exposure::tek::{DiagnosisKey, TemporaryExposureKey};
use cwa_exposure::time::EnIntervalNumber;

/// The undocumented prefix CWA backend traffic migrates to under a
/// [`CdnMigration`] scenario. Deliberately *not* in
/// [`CdnConfig::service_prefixes`]: the §2 filter only knows the
/// documented prefixes, so migrated flows escape it — the scenario
/// models the measurement methodology silently going stale.
pub const MIGRATION_PREFIX: (Ipv4Addr, u8) = (Ipv4Addr::new(198, 51, 100, 0), 24);

/// A scenario overlay: from `day` on, a share of CWA backend traffic is
/// served from [`MIGRATION_PREFIX`] instead of the documented prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CdnMigration {
    /// First study day (0-based) the migration is active.
    pub day: u32,
    /// Percentage (0–100) of backend flows served from the new prefix.
    pub share_percent: u8,
}

/// The CDN address plan and serving parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CdnConfig {
    /// The two public IPv4 service prefixes `(network, len)`.
    pub service_prefixes: [(Ipv4Addr, u8); 2],
    /// Number of distinct server addresses used per prefix.
    pub servers_per_prefix: u8,
    /// Optional mid-study migration to an undocumented prefix.
    pub migration: Option<CdnMigration>,
}

impl Default for CdnConfig {
    fn default() -> Self {
        CdnConfig {
            // Synthetic stand-ins for the documented backend prefixes.
            service_prefixes: [
                (Ipv4Addr::new(81, 200, 16, 0), 22),
                (Ipv4Addr::new(185, 139, 96, 0), 22),
            ],
            servers_per_prefix: 8,
            migration: None,
        }
    }
}

impl CdnConfig {
    /// A deterministic server address for a flow, spreading load across
    /// both prefixes and all servers.
    pub fn server_for(&self, selector: u64) -> Ipv4Addr {
        let (net, _len) = self.service_prefixes[(selector % 2) as usize];
        let host = 1 + (selector / 2) % u64::from(self.servers_per_prefix);
        Ipv4Addr::from(u32::from(net) + host as u32)
    }

    /// Like [`server_for`](CdnConfig::server_for), but day-aware: once a
    /// configured [`CdnMigration`] is active, the migrated share of
    /// selectors is served from [`MIGRATION_PREFIX`].
    pub fn server_for_day(&self, selector: u64, day: u32) -> Ipv4Addr {
        if let Some(m) = self.migration {
            if day >= m.day && selector % 100 < u64::from(m.share_percent) {
                let host = 1 + (selector / 100) % u64::from(self.servers_per_prefix);
                return Ipv4Addr::from(u32::from(MIGRATION_PREFIX.0) + host as u32);
            }
        }
        self.server_for(selector)
    }

    /// True if `addr` belongs to one of the service prefixes.
    pub fn is_service_addr(&self, addr: Ipv4Addr) -> bool {
        self.service_prefixes
            .iter()
            .any(|&(p, l)| cwa_netflow::flow::in_prefix(addr, p, l))
    }

    /// Builds the day's key-export file for a given number of published
    /// keys and returns the download size of the pair the real CDN
    /// serves (export.bin + export.sig, in its zip container), in bytes.
    /// The flow generator uses this to size key-download responses; real
    /// key counts come from the upload pipeline.
    ///
    /// Nothing is signed: a P-256 signature is always 64 bytes, so the
    /// export.sig is encoded around a placeholder of that length
    /// ([`encode_signature_list`]). The sizes equal those of a signed
    /// pair (pinned by tests).
    pub fn export_size_bytes<R: RngCore>(&self, rng: &mut R, day: u32, n_keys: usize) -> usize {
        let export = day_export(rng, day, n_keys);
        let export_sig = encode_signature_list(&export);
        // Plus the zip container overhead observed on the real CDN.
        export.encode().len() + export_sig.len() + 150
    }
}

/// The key export of `day` holding `n_keys` freshly drawn TEKs.
fn day_export<R: RngCore>(rng: &mut R, day: u32, n_keys: usize) -> TemporaryExposureKeyExport {
    let start = EnIntervalNumber(((STUDY_EPOCH_UNIX / 600) as u32) + day * 144);
    let keys: Vec<DiagnosisKey> = (0..n_keys)
        .map(|_| {
            let tek = TemporaryExposureKey::generate(rng, start);
            DiagnosisKey::new(tek, 5)
        })
        .collect();
    TemporaryExposureKeyExport::new_de(u64::from(day) * 86_400, (u64::from(day) + 1) * 86_400, keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn two_disjoint_service_prefixes() {
        let cdn = CdnConfig::default();
        let [a, b] = cdn.service_prefixes;
        assert_ne!(a.0, b.0);
        assert!(!cwa_netflow::flow::in_prefix(b.0, a.0, a.1));
    }

    #[test]
    fn servers_within_prefixes() {
        let cdn = CdnConfig::default();
        for sel in 0..64u64 {
            assert!(cdn.is_service_addr(cdn.server_for(sel)), "selector {sel}");
        }
    }

    #[test]
    fn load_spread_across_both_prefixes() {
        let cdn = CdnConfig::default();
        let in_first = (0..100u64)
            .filter(|&s| {
                cwa_netflow::flow::in_prefix(
                    cdn.server_for(s),
                    cdn.service_prefixes[0].0,
                    cdn.service_prefixes[0].1,
                )
            })
            .count();
        assert_eq!(in_first, 50);
    }

    #[test]
    fn non_service_addresses_rejected() {
        let cdn = CdnConfig::default();
        assert!(!cdn.is_service_addr(Ipv4Addr::new(8, 8, 8, 8)));
        assert!(!cdn.is_service_addr(Ipv4Addr::new(84, 0, 0, 1)));
    }

    #[test]
    fn export_size_scales_with_keys() {
        let cdn = CdnConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let empty = cdn.export_size_bytes(&mut rng, 8, 0);
        let ten = cdn.export_size_bytes(&mut rng, 8, 10);
        let hundred = cdn.export_size_bytes(&mut rng, 8, 100);
        assert!(empty >= 316, "header+container: {empty}");
        assert!(ten > empty);
        assert!(hundred > ten);
        let per_key = (hundred - ten) as f64 / 90.0;
        assert!((24.0..40.0).contains(&per_key), "per-key {per_key}");
    }

    #[test]
    fn export_size_is_that_of_the_signed_pair() {
        // Download sizes of the ECDSA-P256-signed export.bin + export.sig
        // pair plus the zip container, as a signing implementation
        // measured them (317 + 30 bytes per key on every day).
        const SIGNED_PAIR_BYTES: [(usize, usize); 6] = [
            (0, 317),
            (1, 347),
            (32, 1277),
            (38, 1457),
            (57, 2027),
            (1000, 30317),
        ];
        let cdn = CdnConfig::default();
        for day in 0..11 {
            for (n_keys, bytes) in SIGNED_PAIR_BYTES {
                let mut rng = ChaCha8Rng::seed_from_u64(u64::from(day) * 1000 + n_keys as u64);
                let mut reference_rng = rng.clone();
                day_export(&mut reference_rng, day, n_keys);
                assert_eq!(
                    cdn.export_size_bytes(&mut rng, day, n_keys),
                    bytes,
                    "day {day}, {n_keys} keys"
                );
                // The size costs the day's TEK draws and no more.
                assert_eq!(
                    rng.next_u64(),
                    reference_rng.next_u64(),
                    "day {day}, {n_keys} keys: same draws"
                );
            }
        }
    }

    #[test]
    fn migration_moves_share_off_documented_prefixes() {
        let cdn = CdnConfig {
            migration: Some(CdnMigration {
                day: 5,
                share_percent: 40,
            }),
            ..CdnConfig::default()
        };
        // Before the migration day: identical to server_for.
        for sel in 0..200u64 {
            assert_eq!(cdn.server_for_day(sel, 4), cdn.server_for(sel));
        }
        // From the migration day on: exactly share_percent of selectors
        // land in the undocumented prefix, which the §2 filter misses.
        let migrated = (0..200u64)
            .filter(|&s| {
                let addr = cdn.server_for_day(s, 5);
                cwa_netflow::flow::in_prefix(addr, MIGRATION_PREFIX.0, MIGRATION_PREFIX.1)
            })
            .count();
        assert_eq!(migrated, 80);
        for sel in 0..200u64 {
            let addr = cdn.server_for_day(sel, 7);
            let documented = cdn.is_service_addr(addr);
            let undocumented =
                cwa_netflow::flow::in_prefix(addr, MIGRATION_PREFIX.0, MIGRATION_PREFIX.1);
            assert!(documented ^ undocumented, "selector {sel} in exactly one");
        }
    }

    #[test]
    fn no_migration_is_a_noop() {
        let cdn = CdnConfig::default();
        for sel in 0..100u64 {
            for day in [0, 5, 10] {
                assert_eq!(cdn.server_for_day(sel, day), cdn.server_for(sel));
            }
        }
    }
}
