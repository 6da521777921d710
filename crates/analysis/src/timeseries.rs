//! Figure 2: hourly aggregated traffic, normalized to the minimum.
//!
//! "We show all HTTPS traffic *from* the CWA CDN to its clients in
//! Figure 2 (flows and bytes normed to the minimum). […] With the
//! official release of the CWA on June 16, the traffic immediately
//! increases (7.5× increase of flows on June 16). Interest starts to
//! follow the normal diurnal traffic pattern."

use serde::{Deserialize, Serialize};

use cwa_netflow::flow::FlowRecord;
use cwa_netflow::sink::{FlowChunk, FlowSink};

/// Hour-resolved flow/byte counts over the measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HourlySeries {
    /// Flows per hour (records bucketed by their start time).
    pub flows: Vec<u64>,
    /// Bytes per hour.
    pub bytes: Vec<u64>,
}

impl HourlySeries {
    /// Creates an empty series with `hours` hourly bins.
    pub fn new(hours: u32) -> Self {
        HourlySeries {
            flows: vec![0u64; hours as usize],
            bytes: vec![0u64; hours as usize],
        }
    }

    /// Accounts one record into its hourly bin (the streaming form;
    /// records beyond the window are dropped, as in batch bucketing).
    pub fn observe(&mut self, rec: &FlowRecord) {
        let hour = (rec.first_ms / 3_600_000) as usize;
        if hour < self.flows.len() {
            self.flows[hour] += 1;
            self.bytes[hour] += rec.bytes;
        }
    }

    /// Buckets records into `hours` hourly bins by `first_ms`.
    pub fn from_records<'a, I>(records: I, hours: u32) -> Self
    where
        I: IntoIterator<Item = &'a FlowRecord>,
    {
        let mut series = HourlySeries::new(hours);
        for rec in records {
            series.observe(rec);
        }
        series
    }

    /// Merges another series into this one (element-wise sums). The
    /// accumulation is commutative and associative, so absorbing
    /// per-shard partials in any order equals the single-pass series
    /// over the union of their record streams.
    pub fn absorb(&mut self, other: &HourlySeries) {
        assert_eq!(
            self.flows.len(),
            other.flows.len(),
            "can only merge series over the same hour window"
        );
        for (a, b) in self.flows.iter_mut().zip(&other.flows) {
            *a += b;
        }
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a += b;
        }
    }

    /// Total flows.
    pub fn total_flows(&self) -> u64 {
        self.flows.iter().sum()
    }

    /// Flows per day (24-hour bins).
    pub fn daily_flows(&self) -> Vec<u64> {
        self.flows.chunks(24).map(|day| day.iter().sum()).collect()
    }

    /// The series normalized to its minimum *positive* value — exactly
    /// how Fig. 2's y-axis is constructed ("normed to the minimum").
    pub fn flows_normed_to_min(&self) -> Vec<f64> {
        normed_to_min(&self.flows)
    }

    /// Bytes normalized to the minimum positive value.
    pub fn bytes_normed_to_min(&self) -> Vec<f64> {
        normed_to_min(&self.bytes)
    }

    /// The paper's headline release-day statistic: day-1 (June 16) flows
    /// divided by day-0 (June 15) flows.
    pub fn release_jump(&self) -> f64 {
        let daily = self.daily_flows();
        if daily.len() < 2 || daily[0] == 0 {
            return f64::NAN;
        }
        daily[1] as f64 / daily[0] as f64
    }

    /// Extracts the average diurnal profile over days `[from_day,
    /// to_day)`: 24 hour-of-day weights normalized to mean 1.0. Each
    /// day is normalized by its own total first, so day-over-day growth
    /// does not masquerade as shape.
    pub fn diurnal_profile(&self, from_day: u32, to_day: u32) -> [f64; 24] {
        let mut profile = [0.0f64; 24];
        let mut days_used = 0u32;
        for day in from_day..to_day {
            let start = (day * 24) as usize;
            if start + 24 > self.flows.len() {
                break;
            }
            let slice = &self.flows[start..start + 24];
            let total: u64 = slice.iter().sum();
            if total == 0 {
                continue;
            }
            for (h, &f) in slice.iter().enumerate() {
                profile[h] += f as f64 / total as f64;
            }
            days_used += 1;
        }
        if days_used > 0 {
            // Each day's fractions sum to 1; scale so the mean weight is 1.
            for w in profile.iter_mut() {
                *w = *w / f64::from(days_used) * 24.0;
            }
        }
        profile
    }
}

impl FlowSink for HourlySeries {
    fn observe(&mut self, rec: &FlowRecord) {
        HourlySeries::observe(self, rec);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        // Column-wise: only the two columns the binning needs.
        for (&first_ms, &bytes) in chunk.first_ms.iter().zip(&chunk.bytes) {
            let hour = (first_ms / 3_600_000) as usize;
            if hour < self.flows.len() {
                self.flows[hour] += 1;
                self.bytes[hour] += bytes;
            }
        }
    }
}

/// Normalizes a series by its smallest positive element.
fn normed_to_min(series: &[u64]) -> Vec<f64> {
    let min = series
        .iter()
        .filter(|&&v| v > 0)
        .min()
        .copied()
        .unwrap_or(1)
        .max(1) as f64;
    series.iter().map(|&v| v as f64 / min).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwa_netflow::flow::{FlowKey, Protocol};
    use std::net::Ipv4Addr;

    fn rec_at(hour: u64, bytes: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(81, 200, 16, 1),
                dst_ip: Ipv4Addr::new(84, 0, 0, 1),
                src_port: 443,
                dst_port: 50_000,
                protocol: Protocol::Tcp,
            },
            packets: 1,
            bytes,
            first_ms: hour * 3_600_000 + 5,
            last_ms: hour * 3_600_000 + 500,
            tcp_flags: 0x18,
        }
    }

    #[test]
    fn buckets_by_hour() {
        let records = [
            rec_at(0, 100),
            rec_at(0, 200),
            rec_at(5, 300),
            rec_at(47, 50),
        ];
        let s = HourlySeries::from_records(records.iter(), 48);
        assert_eq!(s.flows[0], 2);
        assert_eq!(s.bytes[0], 300);
        assert_eq!(s.flows[5], 1);
        assert_eq!(s.flows[47], 1);
        assert_eq!(s.total_flows(), 4);
    }

    #[test]
    fn absorb_equals_single_pass() {
        let records = [
            rec_at(0, 100),
            rec_at(0, 200),
            rec_at(5, 300),
            rec_at(47, 50),
        ];
        let single = HourlySeries::from_records(records.iter(), 48);
        let mut merged = HourlySeries::from_records(records[..2].iter(), 48);
        merged.absorb(&HourlySeries::from_records(records[2..].iter(), 48));
        merged.absorb(&HourlySeries::new(48)); // identity
        assert_eq!(merged, single);
    }

    #[test]
    #[should_panic(expected = "same hour window")]
    fn absorb_rejects_mismatched_windows() {
        let mut a = HourlySeries::new(24);
        a.absorb(&HourlySeries::new(48));
    }

    #[test]
    fn out_of_range_dropped() {
        let records = [rec_at(100, 10)];
        let s = HourlySeries::from_records(records.iter(), 24);
        assert_eq!(s.total_flows(), 0);
    }

    #[test]
    fn daily_aggregation() {
        let mut records = Vec::new();
        for h in 0..24u64 {
            records.push(rec_at(h, 10));
        }
        for h in 24..48u64 {
            records.push(rec_at(h, 10));
            records.push(rec_at(h, 10));
        }
        let s = HourlySeries::from_records(records.iter(), 48);
        assert_eq!(s.daily_flows(), vec![24, 48]);
        assert!((s.release_jump() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn normed_to_min_semantics() {
        let s = HourlySeries {
            flows: vec![0, 2, 6, 4],
            bytes: vec![0, 20, 60, 40],
        };
        // Min positive is 2; zeros stay zero.
        assert_eq!(s.flows_normed_to_min(), vec![0.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.bytes_normed_to_min(), vec![0.0, 1.0, 3.0, 2.0]);
    }

    #[test]
    fn release_jump_nan_without_baseline() {
        let s = HourlySeries {
            flows: vec![0; 48],
            bytes: vec![0; 48],
        };
        assert!(s.release_jump().is_nan());
    }

    #[test]
    fn diurnal_profile_mean_one_and_shape() {
        // Two days with identical shape but 3x different volume: the
        // profile must reflect the shape only.
        let shape: Vec<u64> = (0..24u64).map(|h| 10 + h).collect();
        let mut flows = shape.clone();
        flows.extend(shape.iter().map(|f| f * 3));
        let s = HourlySeries {
            flows,
            bytes: vec![0; 48],
        };
        let profile = s.diurnal_profile(0, 2);
        let mean: f64 = profile.iter().sum::<f64>() / 24.0;
        assert!((mean - 1.0).abs() < 1e-9, "mean {mean}");
        // Shape preserved: hour 23 weight > hour 0 weight.
        assert!(profile[23] > profile[0]);
        // Volume difference ignored: profile equals the single-day one.
        let one_day = s.diurnal_profile(0, 1);
        for h in 0..24 {
            assert!((profile[h] - one_day[h]).abs() < 1e-9, "hour {h}");
        }
    }

    #[test]
    fn diurnal_profile_skips_empty_days() {
        let mut flows = vec![0u64; 24];
        flows.extend((0..24u64).map(|h| 10 + h));
        let s = HourlySeries {
            flows,
            bytes: vec![0; 48],
        };
        let with_empty = s.diurnal_profile(0, 2);
        let without = s.diurnal_profile(1, 2);
        for h in 0..24 {
            assert!((with_empty[h] - without[h]).abs() < 1e-9);
        }
    }
}
