//! The study calendar.
//!
//! All simulation time is anchored to **2020-06-15 00:00 UTC** (day 0,
//! hour 0), the first day of the paper's measurement window. Key dates:
//!
//! | Day | Date (2020) | Event |
//! |----:|-------------|-------|
//! |  0  | Jun 15 | measurement starts; website live, app not yet |
//! |  1  | Jun 16 | **official CWA release** (7.5× flow increase) |
//! |  2  | Jun 17 | first official download numbers |
//! |  3  | Jun 18 | Berlin/Neukölln outbreak (local news) |
//! |  8  | Jun 23 | Gütersloh/Warendorf lockdown (national news); first diagnosis keys on the CDN |
//! | 10  | Jun 25 | last measured day |
//! | 39  | Jul 24 | 16.2 M cumulative downloads reported |

use serde::{Deserialize, Serialize};

/// Unix timestamp of day 0 hour 0 (2020-06-15T00:00:00Z).
pub const STUDY_EPOCH_UNIX: u64 = 1_592_179_200;

/// Days in the NetFlow measurement window (June 15–25 inclusive).
pub const MEASUREMENT_DAYS: u32 = 11;

/// Day index of the official app release (June 16).
pub const RELEASE_DAY: u32 = 1;

/// Hour-of-day of the release on June 16 (the app appeared in the stores
/// around midnight; early-morning availability).
pub const RELEASE_HOUR: u32 = RELEASE_DAY * 24;

/// Day index of the Berlin/Neukölln outbreak news (June 18).
pub const BERLIN_OUTBREAK_DAY: u32 = 3;

/// Day index of the Gütersloh/Warendorf lockdown + national news (June 23).
pub const GUETERSLOH_LOCKDOWN_DAY: u32 = 8;

/// Day index when the first diagnosis keys appeared on the CDN (June 23).
pub const FIRST_KEYS_DAY: u32 = 8;

/// Day index of the 16.2 M download milestone (July 24).
pub const JULY_24_DAY: u32 = 39;

/// Hour offset of the 6.4 M milestone: "36 hours after its release".
pub const MILESTONE_36H_HOUR: u32 = RELEASE_HOUR + 36;

/// A day within the study (0 = June 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StudyDay(pub u32);

impl StudyDay {
    /// Calendar label, e.g. "Jun 16".
    pub fn label(self) -> String {
        // June has 30 days; the study never runs past August.
        let day_of_june = 15 + self.0;
        if day_of_june <= 30 {
            format!("Jun {day_of_june}")
        } else if day_of_june <= 61 {
            format!("Jul {}", day_of_june - 30)
        } else {
            format!("Aug {}", day_of_june - 61)
        }
    }
}

/// Time conversion helpers over the study window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timeline {
    /// Total simulated days (≥ [`MEASUREMENT_DAYS`] when the adoption
    /// model runs through July).
    pub days: u32,
}

impl Timeline {
    /// The measurement window only.
    pub fn measurement() -> Self {
        Timeline {
            days: MEASUREMENT_DAYS,
        }
    }

    /// Through July 24 (for the download-curve milestones).
    pub fn through_july() -> Self {
        Timeline {
            days: JULY_24_DAY + 1,
        }
    }

    /// Total hours.
    pub fn hours(&self) -> u32 {
        self.days * 24
    }

    /// Splits an hour index into (day, hour-of-day).
    pub fn split(hour: u32) -> (StudyDay, u32) {
        (StudyDay(hour / 24), hour % 24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_june_15_2020() {
        // 1592179200 = Mon, 15 Jun 2020 00:00:00 UTC.
        assert_eq!(STUDY_EPOCH_UNIX % 86_400, 0, "midnight-aligned");
        // Days since Unix epoch: 18428 = 2020-06-15.
        assert_eq!(STUDY_EPOCH_UNIX / 86_400, 18_428);
    }

    #[test]
    fn key_dates() {
        assert_eq!(StudyDay(0).label(), "Jun 15");
        assert_eq!(StudyDay(RELEASE_DAY).label(), "Jun 16");
        assert_eq!(StudyDay(BERLIN_OUTBREAK_DAY).label(), "Jun 18");
        assert_eq!(StudyDay(GUETERSLOH_LOCKDOWN_DAY).label(), "Jun 23");
        assert_eq!(StudyDay(10).label(), "Jun 25");
        assert_eq!(StudyDay(JULY_24_DAY).label(), "Jul 24");
    }

    #[test]
    fn milestone_hour() {
        // 36 h after a June-16 00:00 release = June 17, 12:00.
        let (day, hod) = Timeline::split(MILESTONE_36H_HOUR);
        assert_eq!(day.label(), "Jun 17");
        assert_eq!(hod, 12);
    }

    #[test]
    fn conversions() {
        assert_eq!(Timeline::measurement().hours(), 264);
        let (d, h) = Timeline::split(263);
        assert_eq!(d, StudyDay(10));
        assert_eq!(h, 23);
    }
}
