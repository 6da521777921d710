//! Exposure Notification time discretization.
//!
//! The EN crypto spec v1.2 divides time into 10-minute windows:
//! `ENIntervalNumber(t) = floor(t / 600)` for a Unix timestamp `t`.
//! Temporary Exposure Keys roll every `TEKRollingPeriod = 144` intervals,
//! i.e. every 24 hours, aligned to interval boundaries.

use serde::{Deserialize, Serialize};

/// Number of intervals a Temporary Exposure Key is valid for (24 h).
pub const TEK_ROLLING_PERIOD: u32 = 144;

/// A 10-minute Exposure Notification interval number.
///
/// This is the `ENIntervalNumber` of the spec: Unix time divided by 600.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EnIntervalNumber(pub u32);

impl EnIntervalNumber {
    /// Aligns down to the enclosing TEK rolling-period boundary
    /// (i.e. the `rolling_start_interval_number` of the enclosing TEK).
    pub fn rolling_period_start(&self) -> Self {
        EnIntervalNumber((self.0 / TEK_ROLLING_PERIOD) * TEK_ROLLING_PERIOD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_period_alignment() {
        let enin = EnIntervalNumber(144 * 10 + 37);
        assert_eq!(enin.rolling_period_start().0, 144 * 10);
        // A boundary maps to itself.
        assert_eq!(EnIntervalNumber(144 * 3).rolling_period_start().0, 144 * 3);
    }
}
