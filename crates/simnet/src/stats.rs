//! Seeded samplers for the traffic generator.
//!
//! Thin fronts over [`cwa_samplers`] (re-exported as
//! [`crate::samplers`]): exact constant-draw Poisson (inversion + PTRS)
//! and Binomial (BINV + BTPE), plus paired Box–Muller normals via
//! [`NormalCache`].

pub use cwa_samplers::{binomial, log_normal, poisson, standard_normal, NormalCache};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn poisson_mean_small_and_large() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for mean in [0.1f64, 2.0, 12.0, 80.0] {
            let n = 30_000;
            let total: u64 = (0..n).map(|_| poisson(&mut rng, mean)).sum();
            let got = total as f64 / f64::from(n);
            assert!((got - mean).abs() / mean < 0.05, "mean {mean}: got {got}");
        }
    }

    #[test]
    fn poisson_zero_and_negative() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -1.0), 0);
    }

    #[test]
    fn poisson_variance_matches() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mean = 5.0;
        let n = 50_000;
        let draws: Vec<u64> = (0..n).map(|_| poisson(&mut rng, mean)).collect();
        let m = draws.iter().sum::<u64>() as f64 / f64::from(n);
        let var = draws.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / f64::from(n);
        assert!((var - mean).abs() / mean < 0.1, "variance {var}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / f64::from(n);
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / f64::from(n);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn log_normal_median() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 50_000;
        let mut draws: Vec<f64> = (0..n).map(|_| log_normal(&mut rng, 20.0, 0.8)).collect();
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = draws[n / 2];
        assert!((median - 20.0).abs() / 20.0 < 0.05, "median {median}");
    }
}
