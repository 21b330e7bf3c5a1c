//! Zipf-skewed node popularity for load generators.
//!
//! Real query streams are skewed: a few hot nodes dominate. [`ZipfSampler`]
//! draws node ids Zipf(s) instead of uniformly, deterministically given
//! the caller's [`SplitMix64`] stream, so load runs are reproducible.

use soup_tensor::SplitMix64;

/// Zipf(s) sampler over `0..n` via inverse-CDF lookup. The CDF is built
/// once (O(n)); each draw is a binary search.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "Zipf needs a non-empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draw one id; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = ZipfSampler::new(1000, 1.0);
        let mut rng = SplitMix64::new(7);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            let id = zipf.sample(&mut rng);
            assert!(id < 1000);
            counts[id] += 1;
        }
        // Rank 0 must dominate the median rank by a wide margin.
        assert!(counts[0] > 20 * counts[500].max(1));
    }

    #[test]
    fn zipf_is_deterministic() {
        let zipf = ZipfSampler::new(64, 1.2);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..32).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }
}
