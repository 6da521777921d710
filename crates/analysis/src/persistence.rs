//! Prefix persistence (§3 of the paper).
//!
//! "By knowing that customers of certain ISPs keep the same IP address
//! over time, we studied how regular routing prefixes communicate with
//! the CWA backend (fraction of individual first to last day observed).
//! We observe sustained interest as 50 % (75 %) of the prefixes occur in
//! 67 % (80 %) of possible days."
//!
//! For every routing prefix (clients truncated to a configurable prefix
//! length; the paper works on routing prefixes, we default to /24), we
//! compute `days_observed / (last_day − first_day + 1)` and report the
//! distribution. Because the input addresses are prefix-preserving
//! anonymized, this analysis works unchanged on anonymized data.

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use cwa_netflow::flow::{prefix_of, FlowRecord};
use cwa_netflow::hash::KeyMap;
use cwa_netflow::sink::{FlowChunk, FlowSink};

/// Per-prefix presence statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefixPresence {
    /// First study day the prefix was observed.
    pub first_day: u32,
    /// Last study day the prefix was observed.
    pub last_day: u32,
    /// Number of distinct days observed.
    pub days_observed: u32,
}

impl PrefixPresence {
    /// `days_observed / (last − first + 1)` — the paper's metric.
    pub fn fraction(&self) -> f64 {
        let span = self.last_day - self.first_day + 1;
        f64::from(self.days_observed) / f64::from(span)
    }
}

/// The persistence analysis over a record set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PersistenceAnalysis {
    /// Prefix length used for grouping clients.
    pub prefix_len: u8,
    /// Day set per prefix. Every reader counts the entries or sorts
    /// what it derives from them, so the map's order never shows.
    presence: KeyMap<Ipv4Addr, PresenceBits>,
    days: u32,
}

/// Compact per-prefix day set (the study is ≤ 64 days).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct PresenceBits(u64);

impl PersistenceAnalysis {
    /// Creates an empty analysis for a `days`-day window.
    pub fn new(prefix_len: u8, days: u32) -> Self {
        assert!(days <= 64, "presence bitmap covers at most 64 days");
        PersistenceAnalysis {
            prefix_len,
            presence: KeyMap::default(),
            days,
        }
    }

    /// Marks one filtered record's client prefix present on its day
    /// (the streaming form of [`ingest`](PersistenceAnalysis::ingest)).
    pub fn observe(&mut self, rec: &FlowRecord) {
        let day = (rec.first_ms / 86_400_000) as u32;
        if day >= self.days {
            return;
        }
        let prefix = prefix_of(rec.key.dst_ip, self.prefix_len);
        let bits = self.presence.entry(prefix).or_insert(PresenceBits(0));
        bits.0 |= 1u64 << day;
    }

    /// Ingests filtered records, extracting the client (destination)
    /// address of each.
    pub fn ingest<'a, I>(&mut self, records: I)
    where
        I: IntoIterator<Item = &'a FlowRecord>,
    {
        for rec in records {
            self.observe(rec);
        }
    }

    /// Merges another analysis into this one: per-prefix day sets are
    /// OR-united. Bit-OR is commutative, associative and idempotent, so
    /// absorbing per-shard partials in any order — even with prefixes
    /// observed by several shards — equals the single-pass analysis over
    /// the union of their record streams, **provided both partials were
    /// keyed under the same anonymization key** (distinct Crypto-PAn
    /// keys map one client prefix to different anonymized prefixes).
    pub fn absorb(&mut self, other: &PersistenceAnalysis) {
        assert_eq!(
            (self.prefix_len, self.days),
            (other.prefix_len, other.days),
            "can only merge analyses with the same prefix length and day window"
        );
        for (prefix, bits) in &other.presence {
            self.presence.entry(*prefix).or_insert(PresenceBits(0)).0 |= bits.0;
        }
    }

    /// Number of distinct prefixes observed.
    pub fn prefix_count(&self) -> usize {
        self.presence.len()
    }

    /// Per-prefix presence summaries.
    pub fn presences(&self) -> Vec<PrefixPresence> {
        self.presence
            .values()
            .map(|bits| {
                let first_day = bits.0.trailing_zeros();
                let last_day = 63 - bits.0.leading_zeros();
                PrefixPresence {
                    first_day,
                    last_day,
                    days_observed: bits.0.count_ones(),
                }
            })
            .collect()
    }

    /// The `q`-quantile (0–1) of the per-prefix presence fraction.
    ///
    /// Note the direction: the paper's "50 % of prefixes occur in 67 %
    /// of possible days" is the **median** of this distribution (and its
    /// p75 is the fraction such that 75 % of prefixes lie *at or below*
    /// it — equivalently 25 % occur in more than that share of days).
    pub fn fraction_quantile(&self, q: f64) -> f64 {
        let mut fractions: Vec<f64> = self.presences().iter().map(|p| p.fraction()).collect();
        if fractions.is_empty() {
            return f64::NAN;
        }
        fractions.sort_by(|a, b| a.partial_cmp(b).expect("fractions are finite"));
        let idx = ((fractions.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        fractions[idx]
    }
}

impl FlowSink for PersistenceAnalysis {
    fn observe(&mut self, rec: &FlowRecord) {
        PersistenceAnalysis::observe(self, rec);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        // Column-wise: the presence bitmap needs only day and client.
        for (&first_ms, &dst) in chunk.first_ms.iter().zip(&chunk.dst_ip) {
            let day = (first_ms / 86_400_000) as u32;
            if day >= self.days {
                continue;
            }
            let prefix = prefix_of(Ipv4Addr::from(dst), self.prefix_len);
            let bits = self.presence.entry(prefix).or_insert(PresenceBits(0));
            bits.0 |= 1u64 << day;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwa_netflow::flow::{FlowKey, Protocol};

    fn rec(client: Ipv4Addr, day: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(81, 200, 16, 1),
                dst_ip: client,
                src_port: 443,
                dst_port: 50_000,
                protocol: Protocol::Tcp,
            },
            packets: 1,
            bytes: 100,
            first_ms: day * 86_400_000 + 1000,
            last_ms: day * 86_400_000 + 2000,
            tcp_flags: 0,
        }
    }

    #[test]
    fn groups_by_prefix() {
        let mut a = PersistenceAnalysis::new(24, 11);
        let recs = [
            rec(Ipv4Addr::new(84, 1, 2, 3), 0),
            rec(Ipv4Addr::new(84, 1, 2, 200), 1), // same /24
            rec(Ipv4Addr::new(84, 1, 3, 3), 0),   // different /24
        ];
        a.ingest(recs.iter());
        assert_eq!(a.prefix_count(), 2);
    }

    #[test]
    fn fraction_semantics() {
        let mut a = PersistenceAnalysis::new(24, 11);
        // Seen on days 2, 4, 6: span 5, observed 3 -> 0.6.
        let c = Ipv4Addr::new(84, 1, 2, 3);
        let recs = [rec(c, 2), rec(c, 4), rec(c, 6)];
        a.ingest(recs.iter());
        let p = a.presences();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].first_day, 2);
        assert_eq!(p[0].last_day, 6);
        assert_eq!(p[0].days_observed, 3);
        assert!((p[0].fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn single_day_prefix_has_fraction_one() {
        let mut a = PersistenceAnalysis::new(24, 11);
        let recs = [rec(Ipv4Addr::new(84, 1, 2, 3), 7)];
        a.ingest(recs.iter());
        assert!((a.presences()[0].fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let mut a = PersistenceAnalysis::new(24, 11);
        // Three prefixes with fractions 1.0, 0.5, 0.6.
        let recs = [
            rec(Ipv4Addr::new(10, 0, 0, 1), 0),
            rec(Ipv4Addr::new(10, 0, 1, 1), 0),
            rec(Ipv4Addr::new(10, 0, 1, 1), 1), // days 0-1 of 2 => 1.0
            rec(Ipv4Addr::new(10, 0, 2, 1), 0),
            rec(Ipv4Addr::new(10, 0, 2, 1), 1),
            // wait: need fractions distinct; prefix 3: days 0 and 2 -> 2/3
        ];
        a.ingest(recs.iter());
        let q0 = a.fraction_quantile(0.0);
        let q1 = a.fraction_quantile(1.0);
        assert!(q0 <= q1);
        assert!((0.0..=1.0).contains(&q0));
    }

    #[test]
    fn quantile_of_known_distribution() {
        let mut a = PersistenceAnalysis::new(24, 11);
        // Prefix A: every day 0..10 (fraction 1.0).
        // Prefix B: days 0 and 9 (fraction 0.2).
        // Prefix C: days 0,1,2,3,9 of span 10 (0.5).
        let pa = Ipv4Addr::new(10, 0, 0, 1);
        let pb = Ipv4Addr::new(10, 0, 1, 1);
        let pc = Ipv4Addr::new(10, 0, 2, 1);
        let mut recs = Vec::new();
        for d in 0..10u64 {
            recs.push(rec(pa, d));
        }
        recs.push(rec(pb, 0));
        recs.push(rec(pb, 9));
        for d in [0u64, 1, 2, 3, 9] {
            recs.push(rec(pc, d));
        }
        a.ingest(recs.iter());
        // Sorted fractions: [0.2, 0.5, 1.0].
        assert!((a.fraction_quantile(0.5) - 0.5).abs() < 1e-12);
        assert!((a.fraction_quantile(0.0) - 0.2).abs() < 1e-12);
        assert!((a.fraction_quantile(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_unions_day_sets() {
        // Split one stream so both parts see the same prefix on
        // overlapping days; the union must match the single pass.
        let c = Ipv4Addr::new(84, 1, 2, 3);
        let d = Ipv4Addr::new(84, 9, 9, 9);
        let all = [rec(c, 2), rec(c, 4), rec(c, 6), rec(d, 1)];
        let mut single = PersistenceAnalysis::new(24, 11);
        single.ingest(all.iter());

        let mut left = PersistenceAnalysis::new(24, 11);
        left.ingest([rec(c, 2), rec(c, 4)].iter());
        let mut right = PersistenceAnalysis::new(24, 11);
        right.ingest([rec(c, 4), rec(c, 6), rec(d, 1)].iter());
        left.absorb(&right);
        left.absorb(&PersistenceAnalysis::new(24, 11)); // identity

        assert_eq!(left.prefix_count(), single.prefix_count());
        let frac = |a: &PersistenceAnalysis| {
            let mut f: Vec<f64> = a.presences().iter().map(|p| p.fraction()).collect();
            f.sort_by(|x, y| x.partial_cmp(y).unwrap());
            f
        };
        assert_eq!(frac(&left), frac(&single));
    }

    #[test]
    #[should_panic(expected = "same prefix length")]
    fn absorb_rejects_mismatched_shapes() {
        let mut a = PersistenceAnalysis::new(24, 11);
        a.absorb(&PersistenceAnalysis::new(18, 11));
    }

    #[test]
    fn empty_analysis_nan() {
        let a = PersistenceAnalysis::new(24, 11);
        assert!(a.fraction_quantile(0.5).is_nan());
        assert_eq!(a.prefix_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 days")]
    fn too_many_days_panics() {
        let _ = PersistenceAnalysis::new(24, 65);
    }

    #[test]
    fn records_beyond_window_ignored() {
        let mut a = PersistenceAnalysis::new(24, 5);
        let recs = [rec(Ipv4Addr::new(84, 1, 2, 3), 9)];
        a.ingest(recs.iter());
        assert_eq!(a.prefix_count(), 0);
    }
}
