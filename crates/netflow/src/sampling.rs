//! Packet sampling, as configured on the measured routers.
//!
//! ISP-scale NetFlow is almost always *sampled*: the router inspects only
//! one in N packets, each independently with probability 1/N. The
//! paper's §2 limitation — "sampling result\[s\] in only observing few
//! packets for most flows" — emerges directly from this.
//!
//! [`sample_packet_count`] draws the number of sampled packets of an
//! n-packet flow directly from Binomial(n, 1/N). The study's traffic
//! generator does not call it per flow: it applies the same law at
//! generation, drawing only the flows a router samples
//! (`cwa_samplers::PairThinning`), so the routers only account the
//! counts they receive. [`upscale`] is the collector-side inverse.

use rand::Rng;

/// Draws how many of `packets` packets a 1-in-`n` random sampler selects:
/// a Binomial(packets, 1/n) sample.
///
/// Exact at every flow size via [`cwa_samplers::binomial`] — BINV
/// inversion (one uniform) in the sparse regime the §2 phenomenon
/// lives in, BTPE rejection for bulk flows. This replaced a
/// per-packet Bernoulli loop (up to 64 uniforms per flow, the
/// generator's single hottest RNG sink) and an *approximate*
/// clamped-normal path above 64 packets.
pub fn sample_packet_count<R: Rng>(rng: &mut R, packets: u64, n: u32) -> u64 {
    let n = n.max(1);
    if n == 1 {
        return packets;
    }
    cwa_samplers::binomial(rng, packets, 1.0 / f64::from(n))
}

/// Scales sampled packet/byte counts back up by the sampling interval —
/// what a collector does when estimating true volumes.
pub fn upscale(sampled: u64, interval: u32) -> u64 {
    sampled.saturating_mul(u64::from(interval.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn binomial_small_flow_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut total = 0u64;
        let trials = 50_000;
        for _ in 0..trials {
            total += sample_packet_count(&mut rng, 20, 10);
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn binomial_large_flow_mean_and_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut total = 0u64;
        let trials = 20_000;
        for _ in 0..trials {
            let k = sample_packet_count(&mut rng, 10_000, 100);
            assert!(k <= 10_000);
            total += k;
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn most_small_flows_unobserved_at_isp_sampling() {
        // The §2 phenomenon: with 1:1000 sampling, a 10-packet flow is
        // almost never seen, and when seen shows ~1 packet.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut seen = 0u32;
        let mut seen_packets = 0u64;
        for _ in 0..100_000 {
            let k = sample_packet_count(&mut rng, 10, 1000);
            if k > 0 {
                seen += 1;
                seen_packets += k;
            }
        }
        let frac_seen = f64::from(seen) / 100_000.0;
        assert!(frac_seen < 0.02, "fraction seen {frac_seen}");
        let avg_when_seen = seen_packets as f64 / f64::from(seen.max(1));
        assert!(avg_when_seen < 1.2, "avg packets when seen {avg_when_seen}");
    }

    #[test]
    fn upscale_estimates() {
        assert_eq!(upscale(3, 1000), 3000);
        assert_eq!(upscale(0, 1000), 0);
        assert_eq!(upscale(7, 0), 7);
    }

    #[test]
    fn unsampled_passthrough() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        assert_eq!(sample_packet_count(&mut rng, 123, 1), 123);
    }
}
