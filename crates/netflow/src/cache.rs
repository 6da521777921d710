//! The router flow cache.
//!
//! Routers do not export one record per flow: a cache entry is created on
//! the first sampled packet of a 5-tuple and *expired* (exported) when
//!
//! * no packet arrived for `inactive_timeout` (idle flows),
//! * the entry has been open for `active_timeout` (long flows get split
//!   into several records),
//! * the cache is full (emergency expiry of the oldest entries), or
//! * the operator flushes the cache.
//!
//! Together with 1-in-N sampling, this is why the paper (§2) observes
//! "only few packets for most flows" and why flow-size-based
//! classification of app vs. website traffic was infeasible.

use serde::{Deserialize, Serialize};

use crate::flow::{FlowKey, FlowRecord};
use crate::hash::KeyMap;

/// Flow-cache timeout and capacity settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowCacheConfig {
    /// Expire entries idle for this long (ms). Cisco default: 15 s.
    pub inactive_timeout_ms: u64,
    /// Expire entries open for this long (ms). Cisco default: 30 min;
    /// ISPs commonly lower it to 60–120 s for timelier accounting.
    pub active_timeout_ms: u64,
    /// Maximum number of concurrent cache entries.
    pub max_entries: usize,
}

impl Default for FlowCacheConfig {
    fn default() -> Self {
        FlowCacheConfig {
            inactive_timeout_ms: 15_000,
            active_timeout_ms: 120_000,
            max_entries: 65_536,
        }
    }
}

/// A live cache entry (not yet exported).
#[derive(Debug, Clone, Copy)]
struct Entry {
    packets: u64,
    bytes: u64,
    first_ms: u64,
    last_ms: u64,
    tcp_flags: u8,
}

/// Statistics the cache keeps about its own operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Packets accounted into the cache.
    pub packets_seen: u64,
    /// Records expired due to the inactive timeout.
    pub expired_inactive: u64,
    /// Records expired due to the active timeout.
    pub expired_active: u64,
    /// Records expired because the cache was full.
    pub expired_emergency: u64,
    /// Records expired by an explicit flush.
    pub expired_flush: u64,
}

/// A router flow cache. Feed it (sampled) packets via
/// [`FlowCache::account`]; collect expired [`FlowRecord`]s via
/// [`FlowCache::take_expired`].
#[derive(Debug)]
pub struct FlowCache {
    config: FlowCacheConfig,
    /// Live entries, hashed with [`KeyHasher`](crate::hash::KeyHasher)
    /// rather than SipHash.
    entries: KeyMap<FlowKey, Entry>,
    expired: Vec<FlowRecord>,
    stats: CacheStats,
}

impl FlowCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: FlowCacheConfig) -> Self {
        FlowCache {
            config,
            entries: KeyMap::default(),
            expired: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Accounts one sampled packet of `bytes` bytes at time `now_ms`.
    ///
    /// Runs timeout-based expiry for the affected entry inline and
    /// emergency expiry when the cache is at capacity. Callers should
    /// also invoke [`FlowCache::sweep`] periodically to expire idle
    /// entries that receive no further packets.
    pub fn account(&mut self, key: FlowKey, bytes: u64, tcp_flags: u8, now_ms: u64) {
        self.stats.packets_seen += 1;

        if let Some(entry) = self.entries.get_mut(&key) {
            // Timeouts first: a packet after a long gap starts a new record.
            let idle = now_ms.saturating_sub(entry.last_ms) >= self.config.inactive_timeout_ms;
            let open_too_long =
                now_ms.saturating_sub(entry.first_ms) >= self.config.active_timeout_ms;
            if idle || open_too_long {
                let entry = self.entries.remove(&key).expect("entry just observed");
                self.expired.push(record(key, &entry));
                if idle {
                    self.stats.expired_inactive += 1;
                } else {
                    self.stats.expired_active += 1;
                }
            }
        }

        if let Some(entry) = self.entries.get_mut(&key) {
            entry.packets += 1;
            entry.bytes += bytes;
            entry.last_ms = now_ms;
            entry.tcp_flags |= tcp_flags;
            return;
        }

        // New entry. Make room if needed.
        if self.entries.len() >= self.config.max_entries {
            self.emergency_expire();
        }
        self.entries.insert(
            key,
            Entry {
                packets: 1,
                bytes,
                first_ms: now_ms,
                last_ms: now_ms,
                tcp_flags,
            },
        );
    }

    /// Expires everything that has timed out as of `now_ms`. Routers run
    /// this scan continuously; the simulator calls it once per time step.
    pub fn sweep(&mut self, now_ms: u64) {
        let inactive = self.config.inactive_timeout_ms;
        let active = self.config.active_timeout_ms;
        let first = self.expired.len();
        let (expired, stats) = (&mut self.expired, &mut self.stats);
        self.entries.retain(|&key, entry| {
            if now_ms.saturating_sub(entry.last_ms) >= inactive {
                stats.expired_inactive += 1;
            } else if now_ms.saturating_sub(entry.first_ms) >= active {
                stats.expired_active += 1;
            } else {
                return true;
            }
            expired.push(record(key, entry));
            false
        });
        sort_by_key(&mut self.expired[first..]);
    }

    /// Flushes every remaining entry (end of measurement).
    pub fn flush(&mut self) {
        let first = self.expired.len();
        self.stats.expired_flush += self.entries.len() as u64;
        self.expired
            .extend(self.entries.drain().map(|(key, entry)| record(key, &entry)));
        sort_by_key(&mut self.expired[first..]);
    }

    /// Expires the oldest ~1/32 of entries to make room (emulating
    /// routers' emergency aging).
    fn emergency_expire(&mut self) {
        let victim_count = (self.config.max_entries / 32).max(1);
        let mut by_age: Vec<(u64, FlowKey)> =
            self.entries.iter().map(|(k, e)| (e.last_ms, *k)).collect();
        // Key as tie-breaker keeps victim choice deterministic.
        by_age.sort_unstable();
        for (_, key) in by_age.into_iter().take(victim_count) {
            let entry = self.entries.remove(&key).expect("victim key present");
            self.expired.push(record(key, &entry));
            self.stats.expired_emergency += 1;
        }
    }

    /// Takes all expired records accumulated so far.
    pub fn take_expired(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.expired)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Operational statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Puts records expired together into key order, whatever order the map
/// yielded them in: the export order is deterministic.
fn sort_by_key(records: &mut [FlowRecord]) {
    records.sort_unstable_by_key(|r| r.key);
}

fn record(key: FlowKey, entry: &Entry) -> FlowRecord {
    FlowRecord {
        key,
        packets: entry.packets,
        bytes: entry.bytes,
        first_ms: entry.first_ms,
        last_ms: entry.last_ms,
        tcp_flags: entry.tcp_flags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(host: u8) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(81, 200, 16, 1),
            443,
            Ipv4Addr::new(10, 0, 0, host),
            50_000,
        )
    }

    fn cfg() -> FlowCacheConfig {
        FlowCacheConfig {
            inactive_timeout_ms: 15_000,
            active_timeout_ms: 120_000,
            max_entries: 8,
        }
    }

    #[test]
    fn aggregates_packets_into_one_record() {
        let mut cache = FlowCache::new(cfg());
        for i in 0..5u64 {
            cache.account(key(1), 1400, 0x10, 1000 + i * 100);
        }
        assert_eq!(cache.len(), 1);
        cache.flush();
        let recs = cache.take_expired();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].packets, 5);
        assert_eq!(recs[0].bytes, 7000);
        assert_eq!(recs[0].first_ms, 1000);
        assert_eq!(recs[0].last_ms, 1400);
    }

    #[test]
    fn inactive_timeout_splits_records() {
        let mut cache = FlowCache::new(cfg());
        cache.account(key(1), 100, 0, 0);
        cache.account(key(1), 100, 0, 20_000); // 20 s gap > 15 s inactive
        cache.flush();
        let recs = cache.take_expired();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.packets == 1));
        assert_eq!(cache.stats().expired_inactive, 1);
    }

    #[test]
    fn active_timeout_splits_long_flows() {
        let mut cache = FlowCache::new(cfg());
        // A packet every 10 s for 5 minutes: never idle, but active
        // timeout (120 s) must split it into ~3 records.
        let mut t = 0u64;
        while t <= 300_000 {
            cache.account(key(1), 1400, 0x18, t);
            t += 10_000;
        }
        cache.flush();
        let recs = cache.take_expired();
        assert!(
            recs.len() >= 3,
            "long flow split into {} records",
            recs.len()
        );
        let total: u64 = recs.iter().map(|r| r.packets).sum();
        assert_eq!(total, 31, "no packets lost in splitting");
        assert!(cache.stats().expired_active >= 2);
    }

    #[test]
    fn sweep_expires_idle_entries() {
        let mut cache = FlowCache::new(cfg());
        cache.account(key(1), 100, 0, 0);
        cache.account(key(2), 100, 0, 10_000);
        cache.sweep(20_000);
        // key(1) idle 20 s -> expired; key(2) idle 10 s -> stays.
        assert_eq!(cache.len(), 1);
        let recs = cache.take_expired();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].key, key(1));
    }

    #[test]
    fn sweep_and_flush_export_in_key_order_after_inline_expiry() {
        let hosts = |order: &[u8]| order.iter().map(|&h| key(h)).collect::<Vec<_>>();
        for turn in 0..6 {
            // The same keys inserted in six different orders.
            let mut swept: Vec<u8> = (0..6).collect();
            let mut flushed: Vec<u8> = (50..55).collect();
            swept.rotate_left(turn);
            flushed.rotate_left(turn % 5);
            if turn % 2 == 1 {
                swept.reverse();
                flushed.reverse();
            }
            let mut cache = FlowCache::new(cfg());
            cache.account(key(100), 100, 0, 0);
            for (i, &h) in swept.iter().enumerate() {
                cache.account(key(h), 100, 0, 1_000 + i as u64);
            }
            // 20 s idle: key(100)'s first record expires inline.
            cache.account(key(100), 100, 0, 20_000);
            // The swept hosts are 29 s idle; key(100) only 10 s.
            cache.sweep(30_000);
            for &h in &flushed {
                cache.account(key(h), 100, 0, 31_000);
            }
            cache.flush();
            let got: Vec<FlowKey> = cache.take_expired().iter().map(|r| r.key).collect();
            let mut want = vec![key(100)];
            want.extend(hosts(&[0, 1, 2, 3, 4, 5]));
            want.extend(hosts(&[50, 51, 52, 53, 54, 100]));
            assert_eq!(got, want, "insertion order {swept:?} then {flushed:?}");
            assert_eq!(cache.stats().expired_inactive, 7);
            assert_eq!(cache.stats().expired_flush, 6);
        }
    }

    #[test]
    fn emergency_expiry_on_full_cache() {
        let mut cache = FlowCache::new(cfg()); // capacity 8
        for i in 0..9u8 {
            cache.account(key(i), 100, 0, u64::from(i) * 10);
        }
        assert!(cache.len() <= 8);
        assert!(cache.stats().expired_emergency >= 1);
        // The evicted entry is the oldest (key 0).
        let recs = cache.take_expired();
        assert_eq!(recs[0].key, key(0));
    }

    #[test]
    fn packet_conservation() {
        // Every accounted packet appears in exactly one record.
        let mut cache = FlowCache::new(cfg());
        let mut fed = 0u64;
        for step in 0..200u64 {
            let host = (step % 12) as u8;
            cache.account(key(host), 500, 0x10, step * 3_000);
            fed += 1;
            cache.sweep(step * 3_000);
        }
        cache.flush();
        let total: u64 = cache.take_expired().iter().map(|r| r.packets).sum();
        assert_eq!(total, fed);
        assert_eq!(cache.stats().packets_seen, fed);
    }

    #[test]
    fn tcp_flags_accumulate() {
        let mut cache = FlowCache::new(cfg());
        cache.account(key(1), 60, 0x02, 0); // SYN
        cache.account(key(1), 1400, 0x10, 100); // ACK
        cache.account(key(1), 60, 0x01, 200); // FIN
        cache.flush();
        let recs = cache.take_expired();
        assert_eq!(recs[0].tcp_flags, 0x13);
    }

    #[test]
    fn flush_on_empty_is_noop() {
        let mut cache = FlowCache::new(cfg());
        cache.flush();
        assert!(cache.take_expired().is_empty());
        assert!(cache.is_empty());
    }
}
