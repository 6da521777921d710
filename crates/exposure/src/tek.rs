//! Temporary Exposure Keys and diagnosis keys.
//!
//! Per the Exposure Notification Cryptography Specification v1.2, a
//! fresh 16-byte **TEK** is drawn from a CRNG at each rolling-period
//! boundary (once per 24 h) and is identified by its
//! `rolling_start_interval_number`. A **diagnosis key** is a TEK its
//! owner uploaded after a positive test; the CDN's daily key exports
//! carry them.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::time::{EnIntervalNumber, TEK_ROLLING_PERIOD};

/// A Temporary Exposure Key: the per-day secret from which all of a
/// phone's pseudonymous identifiers for that day are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TemporaryExposureKey {
    /// The 16 random key bytes.
    pub key: [u8; 16],
    /// First interval number this key is valid for (aligned to a
    /// 144-interval boundary for keys generated at midnight).
    pub rolling_start_interval_number: u32,
    /// Number of intervals the key is valid for (normally 144).
    pub rolling_period: u32,
}

impl TemporaryExposureKey {
    /// Generates a fresh TEK valid from the rolling-period boundary
    /// enclosing `now`.
    pub fn generate<R: RngCore>(rng: &mut R, now: EnIntervalNumber) -> Self {
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        TemporaryExposureKey {
            key,
            rolling_start_interval_number: now.rolling_period_start().0,
            rolling_period: TEK_ROLLING_PERIOD,
        }
    }
}

/// A diagnosis key: a TEK that its owner, after a verified positive test,
/// chose to upload. Carries the transmission-risk level assigned by the
/// health authority verification flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiagnosisKey {
    /// The disclosed temporary exposure key.
    pub tek: TemporaryExposureKey,
    /// Transmission risk level 0–7 (v1 semantics).
    pub transmission_risk_level: u8,
}

impl DiagnosisKey {
    /// Wraps a TEK with a transmission-risk level, clamping to 0–7.
    pub fn new(tek: TemporaryExposureKey, transmission_risk_level: u8) -> Self {
        DiagnosisKey {
            tek,
            transmission_risk_level: transmission_risk_level.min(7),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tek_fixed() -> TemporaryExposureKey {
        TemporaryExposureKey {
            key: *b"0123456789abcdef",
            rolling_start_interval_number: 144 * 18_420,
            rolling_period: TEK_ROLLING_PERIOD,
        }
    }

    #[test]
    fn generate_aligns_to_rolling_boundary() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let now = EnIntervalNumber(144 * 7 + 93);
        let tek = TemporaryExposureKey::generate(&mut rng, now);
        assert_eq!(tek.rolling_start_interval_number, 144 * 7);
        assert_eq!(tek.rolling_period, 144);
    }

    #[test]
    fn generate_is_seeded_deterministic() {
        let now = EnIntervalNumber(144);
        let a = TemporaryExposureKey::generate(&mut ChaCha8Rng::seed_from_u64(9), now);
        let b = TemporaryExposureKey::generate(&mut ChaCha8Rng::seed_from_u64(9), now);
        let c = TemporaryExposureKey::generate(&mut ChaCha8Rng::seed_from_u64(10), now);
        assert_eq!(a.key, b.key);
        assert_ne!(a.key, c.key);
    }

    #[test]
    fn diagnosis_key_clamps_risk() {
        let dk = DiagnosisKey::new(tek_fixed(), 200);
        assert_eq!(dk.transmission_risk_level, 7);
    }
}
