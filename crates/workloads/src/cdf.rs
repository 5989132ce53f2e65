//! Empirical flow-size distributions.
//!
//! The paper drives its realistic experiments with three published flow-size
//! CDFs: Google web search (DCTCP \[9\]) for intra-DC traffic, Alibaba's
//! regional WAN trace (FlashPass \[65\]) for inter-DC traffic, and a Google
//! RPC distribution \[53\] for the small-message background of Fig. 4. The
//! original trace files ship with the paper's artifact; here we embed
//! point-sets reconstructed from the published figures of the cited papers.
//! Shapes (heavy tails, size ranges) match; exact percentiles are
//! approximations — a substitution recorded in DESIGN.md §2.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// An empirical CDF over flow sizes in bytes, sampled by inverse transform
/// with linear interpolation between points (htsim's convention).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cdf {
    /// (size_bytes, cumulative_probability) points, strictly increasing in
    /// both coordinates, ending at probability 1.0.
    points: Vec<(f64, f64)>,
}

impl Cdf {
    /// Build from (size, cumulative probability) points.
    ///
    /// # Panics
    /// If fewer than two points, probabilities are not non-decreasing in
    /// [0, 1] ending at 1.0, or sizes are not increasing and positive.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "need at least two CDF points");
        let mut prev = (0.0f64, -1.0f64);
        for &(size, p) in &points {
            assert!(size > 0.0 && size > prev.0, "sizes must increase: {size}");
            assert!(
                (0.0..=1.0).contains(&p) && p >= prev.1,
                "bad probability {p}"
            );
            prev = (size, p);
        }
        assert!(
            (points.last().unwrap().1 - 1.0).abs() < 1e-9,
            "CDF must end at 1.0"
        );
        Cdf { points }
    }

    /// Draw one flow size in bytes.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    /// The `u`-quantile (inverse CDF) in bytes.
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let mut prev_size = 0.0f64; // implicit origin (0 bytes, p=0)
        let mut prev_p = 0.0f64;
        for &(size, p) in &self.points {
            if u <= p {
                if p - prev_p < 1e-12 {
                    return size.max(1.0) as u64;
                }
                let frac = (u - prev_p) / (p - prev_p);
                let v = prev_size + frac * (size - prev_size);
                return v.max(1.0) as u64;
            }
            prev_size = size;
            prev_p = p;
        }
        self.points.last().unwrap().0 as u64
    }

    /// Analytic mean of the interpolated distribution, in bytes.
    pub fn mean(&self) -> f64 {
        // Piecewise-linear inverse CDF: each segment contributes
        // (p_i - p_{i-1}) * (size_{i-1} + size_i) / 2.
        let mut mean = 0.0;
        let mut prev_size = 0.0f64;
        let mut prev_p = 0.0f64;
        for &(size, p) in &self.points {
            mean += (p - prev_p) * (prev_size + size) / 2.0;
            prev_size = size;
            prev_p = p;
        }
        mean
    }

    /// Largest size in the distribution.
    pub fn max(&self) -> u64 {
        self.points.last().unwrap().0 as u64
    }

    /// Google web search flow sizes (DCTCP paper, Fig. 4 of \[9\]); the
    /// paper's intra-DC workload. Heavy-tailed: ~50% of flows under 100 KB
    /// but most bytes in multi-megabyte flows. Mean ≈ 1.6 MB.
    pub fn websearch() -> Self {
        Cdf::new(vec![
            (6_000.0, 0.15),
            (13_000.0, 0.28),
            (19_000.0, 0.35),
            (33_000.0, 0.40),
            (53_000.0, 0.47),
            (133_000.0, 0.53),
            (667_000.0, 0.60),
            (1_333_000.0, 0.70),
            (3_333_000.0, 0.80),
            (6_667_000.0, 0.90),
            (20_000_000.0, 0.97),
            (30_000_000.0, 1.00),
        ])
    }

    /// Alibaba inter-DC WAN flow sizes (FlashPass \[65\]); the paper's
    /// inter-DC workload. All sizes below 300 MB (as the paper notes in §1),
    /// with a strong small-transfer mode and a long tail.
    pub fn alibaba_wan() -> Self {
        Cdf::new(vec![
            (10_000.0, 0.10),
            (100_000.0, 0.30),
            (500_000.0, 0.50),
            (1_000_000.0, 0.60),
            (5_000_000.0, 0.72),
            (20_000_000.0, 0.85),
            (50_000_000.0, 0.92),
            (100_000_000.0, 0.97),
            (300_000_000.0, 1.00),
        ])
    }

    /// "Google RPC" small-message distribution (Homa \[53\] workload W4
    /// shape); used for the latency-sensitive background traffic of Fig. 4.
    pub fn google_rpc() -> Self {
        Cdf::new(vec![
            (64.0, 0.20),
            (256.0, 0.40),
            (512.0, 0.55),
            (1_024.0, 0.70),
            (4_096.0, 0.85),
            (10_000.0, 0.92),
            (64_000.0, 0.97),
            (256_000.0, 0.99),
            (1_000_000.0, 1.00),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn quantile_endpoints() {
        let c = Cdf::new(vec![(100.0, 0.5), (1000.0, 1.0)]);
        assert_eq!(c.quantile(0.0), 1); // interpolates from origin, min 1 byte
        assert_eq!(c.quantile(0.5), 100);
        assert_eq!(c.quantile(1.0), 1000);
        assert_eq!(c.max(), 1000);
    }

    #[test]
    fn quantile_interpolates_linearly() {
        let c = Cdf::new(vec![(100.0, 0.5), (1100.0, 1.0)]);
        // u = 0.75 is halfway through the second segment.
        assert_eq!(c.quantile(0.75), 600);
    }

    #[test]
    fn sample_mean_converges_to_analytic_mean() {
        let c = Cdf::websearch();
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| c.sample(&mut rng) as f64).sum();
        let emp = total / n as f64;
        let ana = c.mean();
        assert!(
            (emp - ana).abs() / ana < 0.05,
            "empirical {emp} vs analytic {ana}"
        );
    }

    #[test]
    fn websearch_mean_is_megabytes() {
        let m = Cdf::websearch().mean();
        assert!((1.0e6..4.0e6).contains(&m), "websearch mean {m}");
    }

    #[test]
    fn alibaba_all_below_300mb() {
        let c = Cdf::alibaba_wan();
        assert_eq!(c.max(), 300_000_000);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(c.sample(&mut rng) <= 300_000_000);
        }
    }

    #[test]
    fn google_rpc_is_mostly_small() {
        let c = Cdf::google_rpc();
        let mut rng = SmallRng::seed_from_u64(5);
        let small = (0..10_000).filter(|_| c.sample(&mut rng) <= 4096).count();
        assert!(small > 7_000, "small fraction {small}");
    }

    #[test]
    fn samples_never_zero() {
        let c = Cdf::google_rpc();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(c.sample(&mut rng) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "CDF must end at 1.0")]
    fn rejects_incomplete_cdf() {
        let _ = Cdf::new(vec![(10.0, 0.2), (20.0, 0.8)]);
    }

    #[test]
    #[should_panic(expected = "sizes must increase")]
    fn rejects_decreasing_sizes() {
        let _ = Cdf::new(vec![(100.0, 0.5), (50.0, 1.0)]);
    }
}
