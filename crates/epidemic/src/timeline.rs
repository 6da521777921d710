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
    /// Calendar label, e.g. "Jun 16"; days past 2020 carry the year
    /// ("Jan 1 2021").
    pub fn label(self) -> String {
        const MONTHS: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        let (year, month, day) = civil_from_days(STUDY_EPOCH_UNIX / 86_400 + u64::from(self.0));
        let month = MONTHS[month as usize - 1];
        if year == 2020 {
            format!("{month} {day}")
        } else {
            format!("{month} {day} {year}")
        }
    }
}

/// The proleptic Gregorian (year, month 1–12, day 1–31) of a count of
/// days since 1970-01-01 (Howard Hinnant's `civil_from_days`, over
/// 400-year eras of 146,097 days, shifted to start each year in March).
fn civil_from_days(days: u64) -> (u64, u64, u64) {
    let z = days + 719_468; // days since 0000-03-01
    let (era, doe) = (z / 146_097, z % 146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153; // month from March = 0
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = era * 400 + yoe + u64::from(month <= 2);
    (year, month, day)
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
    fn labels_follow_the_calendar() {
        for (day, label) in [
            (15, "Jun 30"),
            (16, "Jul 1"),
            (29, "Jul 14"),
            (77, "Aug 31"),
            (78, "Sep 1"),
            (199, "Dec 31"),
            (200, "Jan 1 2021"),
            (1_353, "Feb 28 2024"),
            (1_354, "Feb 29 2024"),
            (1_355, "Mar 1 2024"),
            (3_649, "Jun 12 2030"),
        ] {
            assert_eq!(StudyDay(day).label(), label, "day {day}");
        }
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
