//! Deterministic random variates for the simulator.
//!
//! Only `rand`'s uniform primitives are used; the non-uniform
//! distributions the storage/network models need (normal, lognormal,
//! exponential, Pareto) are derived here so runs stay reproducible and
//! no extra dependency is pulled in.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seedable RNG wrapper used everywhere in the simulation.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    /// Cached second variate of the Box-Muller pair.
    spare_normal: Option<f64>,
}

impl SimRng {
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derive an independent child stream (for per-node RNGs) in a way
    /// that only depends on the parent's seed state.
    pub fn fork(&mut self) -> SimRng {
        let seed = self.inner.gen::<u64>();
        SimRng::seed_from_u64(seed)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    pub fn gen_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires a non-empty range");
        self.inner.gen_range(0..n)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal via Box-Muller, with the spare variate cached.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid u1 == 0 which would yield ln(0).
        let u1: f64 = loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Lognormal with the given parameters of the *underlying* normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential with the given mean (not rate).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        let u: f64 = loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Pareto with scale `xm > 0` and shape `alpha > 0` (heavy tail for
    /// small alpha). Used to model bursty background I/O.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        assert!(xm > 0.0 && alpha > 0.0);
        let u: f64 = loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        xm / u.powf(1.0 / alpha)
    }

    /// Normal truncated to `[lo, hi]` by resampling (clamping as a
    /// fallback after too many rejections).
    pub fn truncated_normal(&mut self, mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        for _ in 0..64 {
            let x = self.normal(mean, std_dev);
            if x >= lo && x <= hi {
                return x;
            }
        }
        mean.clamp(lo, hi)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn forked_streams_differ_but_are_deterministic() {
        let mut parent1 = SimRng::seed_from_u64(7);
        let mut parent2 = SimRng::seed_from_u64(7);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        assert_eq!(c1.gen_u64(), c2.gen_u64());
        let mut other = parent1.fork();
        assert_ne!(c1.gen_u64(), other.gen_u64());
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = SimRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn lognormal_is_positive_and_skewed() {
        let mut rng = SimRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..10_000).map(|_| rng.lognormal(0.0, 1.0)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // E[lognormal(0,1)] = exp(0.5) ≈ 1.6487
        assert!((mean - 1.6487).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.exponential(3.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 3.0).abs() < 0.12, "mean {mean}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn truncated_normal_stays_in_bounds() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            let x = rng.truncated_normal(0.0, 10.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from_u64(6);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn index_within_bounds() {
        let mut rng = SimRng::seed_from_u64(8);
        for _ in 0..1000 {
            assert!(rng.index(7) < 7);
        }
    }
}
