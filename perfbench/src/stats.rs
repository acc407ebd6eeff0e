//! Order statistics with their sample counts, and the small hashes the
//! benchmark uses for seeding and digests.

/// A percentile of a sample, with the number of samples it was taken
/// from. A percentile without its count cannot be judged: p90 of ten
/// samples is the second-largest value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `samples`: the smallest
/// value with at least `q`% of the samples at or below it. `None` for an
/// empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    let index = rank.clamp(1, sorted.len()) - 1;
    Some(Pct {
        value: sorted[index],
        n: sorted.len(),
    })
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// splitmix64: one well-mixed 64-bit value per input. Every seeded draw
/// in the benchmark is `mix(seed ^ salt ^ index)`-shaped, so a request's
/// content depends only on the seed and its index, never on timing.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator over [`mix`].
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a byte stream, folded incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_value_and_sample_count() {
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let p50 = percentile(&samples, 50.0).unwrap();
        assert_eq!(p50, Pct { value: 5.0, n: 10 });
        let p90 = percentile(&samples, 90.0).unwrap();
        assert_eq!(p90, Pct { value: 9.0, n: 10 });
        assert_eq!(percentile(&samples, 100.0).unwrap().value, 10.0);
        assert_eq!(percentile(&[7.0], 90.0), Some(Pct { value: 7.0, n: 1 }));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let draws = |seed| {
            let mut r = Rng::new(seed);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }
}
