//! Deterministic pseudo-random number generation.
//!
//! `humnet` experiments must be reproducible bit-for-bit from a seed, on any
//! platform, forever. Rather than depending on an external RNG crate whose
//! stream may change across versions, this module implements two small,
//! well-known generators:
//!
//! * [`SplitMix64`] — used for seeding and for cheap hash-like mixing;
//! * [`Rng`] — `xoshiro256**`, the general-purpose generator used by every
//!   humnet simulator.
//!
//! On top of the raw stream, [`Rng`] provides the distributions the
//! simulators need: uniform ranges, Bernoulli, normal (Box–Muller),
//! exponential, Poisson, Zipf, Pareto, log-normal, weighted choice,
//! shuffling, and sampling without replacement.

/// SplitMix64: a tiny, fast 64-bit generator used for seed expansion.
///
/// Reference: Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
/// Generators", OOPSLA 2014. The constants below are the canonical ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Produce the next 64-bit output and advance the state.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The general-purpose humnet generator: `xoshiro256**` seeded via SplitMix64.
///
/// All humnet simulators take a `u64` seed and construct one of these; the
/// same seed always produces the same simulation trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller draw.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Create a generator from a seed. Any seed (including zero) is valid:
    /// the state is expanded through SplitMix64, which never yields the
    /// all-zero xoshiro state.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Uses Lemire-style rejection to avoid
    /// modulo bias. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a nonzero bound");
        // Widening-multiply rejection sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)` (`usize` convenience). Panics if `lo >= hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range() requires lo < hi");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal deviate via the Box–Muller transform (polar-free form,
    /// caching the spare value).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Avoid ln(0) by drawing u1 from (0, 1].
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.gaussian()
    }

    /// Log-normal deviate with the given underlying normal parameters.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential deviate with the given rate `lambda` (mean `1 / lambda`).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential() requires a positive rate");
        -(1.0 - self.next_f64()).ln() / lambda
    }

    /// Poisson deviate. Uses Knuth's product method for small means and a
    /// normal approximation (rounded, clamped at zero) for large means.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson() requires a non-negative mean");
        if mean == 0.0 {
            return 0;
        }
        if mean < 30.0 {
            let limit = (-mean).exp();
            let mut product = self.next_f64();
            let mut count = 0u64;
            while product > limit {
                count += 1;
                product *= self.next_f64();
            }
            count
        } else {
            let z = self.gaussian();
            let x = mean + mean.sqrt() * z;
            if x < 0.0 {
                0
            } else {
                x.round() as u64
            }
        }
    }

    /// Zipf-distributed rank in `[1, n]` with exponent `s > 0`, via inverse
    /// CDF over precomputed weights is avoided; instead uses rejection-free
    /// cumulative search which is O(n) worst case but exact. For the corpus
    /// sizes humnet uses (n ≤ 10^5) this is more than fast enough and keeps
    /// the stream consumption deterministic (exactly one draw per sample).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf() requires n > 0");
        assert!(s > 0.0, "zipf() requires a positive exponent");
        // Normalization constant.
        let h: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let target = self.next_f64() * h;
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            if acc >= target {
                return k;
            }
        }
        n
    }

    /// Pareto (type I) deviate with scale `xm > 0` and shape `alpha > 0`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        assert!(
            xm > 0.0 && alpha > 0.0,
            "pareto() requires positive parameters"
        );
        xm / (1.0 - self.next_f64()).powf(1.0 / alpha)
    }

    /// Geometric deviate: number of failures before the first success with
    /// success probability `p` in `(0, 1]`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric() requires p in (0, 1]");
        if p >= 1.0 {
            return 0;
        }
        let u = 1.0 - self.next_f64();
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Pick a uniformly random element of a nonempty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose() requires a nonempty slice");
        &items[self.range(0, items.len())]
    }

    /// Pick an index according to nonnegative weights (at least one must be
    /// positive). Runs in O(n): one left-to-right pass for the total, then
    /// a scan for the first positive weight whose left-to-right running sum
    /// reaches `next_f64() * total`. For repeated draws from weights that
    /// change by point updates, [`crate::CumulativeWeights`] (f64) and
    /// [`crate::FenwickWeights`] (integers) return the same index for the
    /// same draw without rescanning; the f64 sampler runs this same scan,
    /// on its own draw, whenever it cannot certify its pick.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total = positive_sum(weights);
        assert!(
            total > 0.0 && total.is_finite(),
            "choose_weighted() requires positive finite total weight"
        );
        pick_weighted(weights, total, self.next_f64())
    }

    /// Sample `k` distinct indices from `[0, n)` without replacement
    /// (Floyd's algorithm; output order is the insertion order of the
    /// algorithm, not sorted). Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices() requires k <= n");
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.range(0, j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen
    }
}

/// Sum of the positive weights, added left to right: `choose_weighted`'s
/// total. Non-positive and NaN weights count as zero.
pub(crate) fn positive_sum(weights: &[f64]) -> f64 {
    weights.iter().copied().filter(|w| *w > 0.0).sum()
}

/// `choose_weighted`'s pick for the draw `r` in `[0, 1)`, given the
/// weights' [`positive_sum`] `total`: the first positive weight whose
/// left-to-right running sum reaches `r * total`.
pub(crate) fn pick_weighted(weights: &[f64], total: f64, r: f64) -> usize {
    let target = r * total;
    let mut acc = 0.0;
    let mut last_positive = 0;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            acc += w;
            last_positive = i;
            if acc >= target {
                return i;
            }
        }
    }
    last_positive
}

#[cfg(test)]
impl Rng {
    /// A generator in the raw xoshiro state `s` (not all zero).
    pub(crate) fn from_state(s: [u64; 4]) -> Self {
        Rng {
            s,
            gauss_spare: None,
        }
    }

    /// A generator whose next `next_f64` is `m / 2^53`, for `m < 2^53`.
    ///
    /// xoshiro256** outputs `rotl(s1 * 5, 7) * 9`; 5 and 9 are odd, so
    /// both products invert modulo 2^64 and `s1` follows from the wanted
    /// output `m << 11`.
    pub(crate) fn drawing(m: u64) -> Self {
        assert!(m < 1 << 53, "a next_f64 has 53 bits");
        let s1 = inverse(5).wrapping_mul((m << 11).wrapping_mul(inverse(9)).rotate_right(7));
        Rng::from_state([1, s1, 3, 4])
    }
}

/// Inverse of an odd `a` modulo 2^64 by Newton's iteration: each step
/// doubles the correct low bits, and `a` itself is right to 3 bits.
#[cfg(test)]
fn inverse(a: u64) -> u64 {
    let mut x = a;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_sequence_is_stable() {
        let mut sm = SplitMix64::new(42);
        let a = sm.next_u64();
        let b = sm.next_u64();
        let mut sm2 = SplitMix64::new(42);
        assert_eq!(a, sm2.next_u64());
        assert_eq!(b, sm2.next_u64());
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Rng::new(11);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow 5% deviation.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = Rng::new(5);
        for _ in 0..1_000 {
            let x = rng.range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::new(17);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let z = rng.gaussian();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::new(23);
        let lambda = 2.5;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / lambda).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn poisson_small_and_large_mean() {
        let mut rng = Rng::new(31);
        let n = 50_000;
        for &m in &[0.5, 4.0, 80.0] {
            let mean: f64 = (0..n).map(|_| rng.poisson(m) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - m).abs() / m.max(1.0) < 0.05,
                "target {m} got {mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = Rng::new(1);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let mut rng = Rng::new(41);
        let n = 20_000;
        let mut counts = vec![0u32; 51];
        for _ in 0..n {
            counts[rng.zipf(50, 1.2)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert_eq!(counts[0], 0, "zipf ranks start at 1");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = Rng::new(43);
        for _ in 0..1_000 {
            assert!(rng.pareto(3.0, 2.0) >= 3.0);
        }
    }

    #[test]
    fn geometric_mean_matches() {
        let mut rng = Rng::new(47);
        let p = 0.25;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.geometric(p) as f64).sum::<f64>() / n as f64;
        let expected = (1.0 - p) / p;
        assert!(
            (mean - expected).abs() < 0.05,
            "mean {mean} expected {expected}"
        );
    }

    #[test]
    fn choose_weighted_follows_weights() {
        let mut rng = Rng::new(53);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.choose_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn drawing_yields_the_chosen_next_f64() {
        let scale = (1u64 << 53) as f64;
        for m in [0, 1, 12_345, 1 << 52, (1 << 53) - 1] {
            assert_eq!(Rng::drawing(m).next_f64(), m as f64 / scale);
        }
    }

    #[test]
    fn zero_draw_skips_leading_zero_weights() {
        // xoshiro256** outputs rotl(s1 * 5, 7) * 9, so s1 = 0 makes the
        // next `next_f64` exactly 0. At that target the first prefix sum is
        // already >= 0; only the zero-weight rule moves the pick to index 2.
        use crate::sampler::{CumulativeWeights, FenwickWeights};
        let zero_draw = || Rng::from_state([1, 0, 3, 4]);
        let weights = [0.0, 0.0, 2.0, 1.0];
        assert_eq!(zero_draw().next_f64(), 0.0);
        assert_eq!(zero_draw().choose_weighted(&weights), 2);
        let cumulative = CumulativeWeights::new(weights.to_vec());
        assert_eq!(cumulative.sample(&mut zero_draw()), 2);
        let mut fenwick = FenwickWeights::new();
        for w in [0, 0, 2, 1] {
            fenwick.push(w);
        }
        assert_eq!(fenwick.sample(&mut zero_draw()), 2);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng::new(61);
        for _ in 0..100 {
            let sample = rng.sample_indices(50, 10);
            assert_eq!(sample.len(), 10);
            let mut s = sample.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 10, "sample must be distinct");
            assert!(sample.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn sample_indices_full_population() {
        let mut rng = Rng::new(67);
        let mut sample = rng.sample_indices(10, 10);
        sample.sort_unstable();
        assert_eq!(sample, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = Rng::new(71);
        for _ in 0..1_000 {
            assert!(rng.log_normal(0.0, 1.0) > 0.0);
        }
    }
}
