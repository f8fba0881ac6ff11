//! Deterministic random number generation.
//!
//! Implemented in-crate (SplitMix64 for seeding, xoshiro256++ for the
//! stream) so results are bit-identical across platforms and toolchain
//! versions — external RNG crates change default streams between major
//! versions, which would silently invalidate the calibrated experiment
//! numbers recorded in EXPERIMENTS.md.

/// A deterministic xoshiro256++ random number generator.
///
/// # Example
///
/// ```
/// use fade_sim::Rng;
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64, per the
    /// xoshiro authors' recommendation.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        // All-zero state is the one invalid xoshiro state; SplitMix64
        // cannot produce four consecutive zeros, but guard anyway.
        let s = if s == [0, 0, 0, 0] { [1, 2, 3, 4] } else { s };
        Rng { s }
    }

    /// Derives an independent child generator (for giving each simulation
    /// component its own stream).
    pub fn fork(&mut self, stream: u64) -> Rng {
        let mix = self.next_u64() ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
        Rng::seed_from(mix)
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` (Lemire's method).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening multiply rejection-free approximation is fine for
        // simulation purposes; bias is < 2^-64 per draw.
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Geometric draw: number of failures before the first success with
    /// success probability `p`; mean `(1-p)/p`. Returns 0 for `p >= 1`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        if p >= 1.0 {
            return 0;
        }
        let p = p.max(1e-12);
        let u = self.unit_f64().max(1e-300);
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Rng::seed_from(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut r = Rng::seed_from(99);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = Rng::seed_from(5);
        for _ in 0..10_000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut r = Rng::seed_from(11);
        for _ in 0..10_000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut r = Rng::seed_from(17);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut r = Rng::seed_from(23);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| r.geometric(0.25)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "got {mean}");
    }

    #[test]
    fn geometric_with_certain_success_is_zero() {
        let mut r = Rng::seed_from(1);
        assert_eq!(r.geometric(1.0), 0);
    }
}
