//! Stream-pass bookkeeping shared by every streaming driver.
//!
//! A streaming study applies the §2 flow filter **once** per record
//! chunk and hands each match to every analysis consumer. The driver
//! keeps plain `u64` counts (records in, records matched, per-consumer
//! deliveries) as a [`StreamCounts`]; the caller publishes them to an
//! observability registry if one is attached. Sharded drivers keep one
//! `StreamCounts` per shard and [`absorb`](StreamCounts::absorb) them in
//! shard order, which yields exactly the counts of one pass over the
//! combined stream.

/// One stream pass's counters as plain mergeable data.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamCounts {
    /// Total records seen (before filtering).
    pub records_in: u64,
    /// Records that passed the filter.
    pub records_matched: u64,
    /// Per-consumer delivery counts, in registration order.
    pub consumers: Vec<(&'static str, u64)>,
}

impl StreamCounts {
    /// Creates zeroed counts for the given consumer names.
    pub fn zeroed(consumer_names: &[&'static str]) -> Self {
        StreamCounts {
            records_in: 0,
            records_matched: 0,
            consumers: consumer_names.iter().map(|&n| (n, 0)).collect(),
        }
    }

    /// Merges another driver's counters into this one. Both must list
    /// the same consumers in the same registration order.
    pub fn absorb(&mut self, other: &StreamCounts) {
        assert_eq!(
            self.consumers.len(),
            other.consumers.len(),
            "same consumer set required"
        );
        self.records_in += other.records_in;
        self.records_matched += other.records_matched;
        for ((name, count), (other_name, other_count)) in
            self.consumers.iter_mut().zip(&other.consumers)
        {
            assert_eq!(
                name, other_name,
                "same consumer registration order required"
            );
            *count += other_count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts one pass over `matched` flags would keep, with every
    /// match delivered to each of `names`.
    fn pass(names: &[&'static str], matched: &[bool]) -> StreamCounts {
        let mut counts = StreamCounts::zeroed(names);
        for &m in matched {
            counts.records_in += 1;
            if m {
                counts.records_matched += 1;
                for (_, count) in &mut counts.consumers {
                    *count += 1;
                }
            }
        }
        counts
    }

    #[test]
    fn stream_counts_merge_like_one_driver() {
        let names = ["timeseries", "count"];
        let stream = [true, false, true, true, false];
        // One pass over the full stream …
        let single = pass(&names, &stream);

        // … equals passes over a split of it, merged in order.
        let mut merged = StreamCounts::zeroed(&names);
        merged.absorb(&pass(&names, &stream[..2]));
        merged.absorb(&pass(&names, &stream[2..]));
        assert_eq!(merged, single);
        assert_eq!(merged.records_in, 5);
        assert_eq!(merged.records_matched, 3);
        assert_eq!(merged.consumers, vec![("timeseries", 3), ("count", 3)]);
    }
}
