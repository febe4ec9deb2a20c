//! The benchmark's own generator, so that the op streams depend on
//! `--seed` and on this directory's code only — a change to the
//! repository's `rand` stand-in must not move a workload's inputs.

/// SplitMix64's output function: a bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent generator for sub-stream `stream` of `seed`, so one
    /// client's draws never shift another's.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(1))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)` by multiply-shift (bias below 2⁻⁴⁰ at our `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// Zipf(`s`) over ranks `0..n`, sampled by bisection of the exact CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over nothing");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, 3);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, 3);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, 4);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_stays_in_range_and_permutation_is_one() {
        let mut r = Rng::stream(1, 0);
        assert!((0..10_000).all(|_| r.below(7) < 7));
        let mut p = r.permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut r = Rng::stream(5, 0);
        let mut hits = [0u32; 1000];
        for _ in 0..50_000 {
            hits[z.sample(&mut r)] += 1;
        }
        assert!(hits[0] > 4 * hits[9], "{} vs {}", hits[0], hits[9]);
        assert!(hits[0] < 12 * hits[9]);
    }
}
