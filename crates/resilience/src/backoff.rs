//! Bounded retry with exponential backoff and deterministic jitter.

use humnet_stats::rng::SplitMix64;
use std::time::Duration;

/// Retry schedule: `base * 2^attempt`, capped, plus ±25% deterministic
/// jitter derived from `(seed, attempt)` so reruns sleep identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Backoff {
    /// Schedule with a cap of 32× the base delay.
    pub fn new(base: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap: base.saturating_mul(32),
            seed,
        }
    }

    /// The per-shard retry schedule both dispatch tiers share: jitter
    /// stream `seed ^ shard`, so shard K sleeps identically whether its
    /// retries target a local child or a remote worker.
    pub fn for_shard(base: Duration, seed: u64, shard: u32) -> Self {
        Backoff::new(base, seed ^ u64::from(shard))
    }

    /// Delay before retry number `attempt` (0 = first retry). Jitter is a
    /// pure function of `(seed, attempt)`: no global RNG, no wall clock.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.cap);
        // ±25% multiplicative jitter.
        let mut h =
            SplitMix64::new(self.seed ^ u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F));
        let unit = (h.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 0.75 + 0.5 * unit;
        Duration::from_nanos((exp.as_nanos() as f64 * factor) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_up_to_cap() {
        let b = Backoff::new(Duration::from_millis(10), 1);
        let d0 = b.delay(0);
        let d3 = b.delay(3);
        let d20 = b.delay(20);
        assert!(d3 > d0 * 4, "{d3:?} vs {d0:?}");
        // ±25% jitter around the 320ms cap.
        assert!(d20 <= b.cap.mul_f64(1.26));
        assert!(d20 >= b.cap.mul_f64(0.74));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_attempt() {
        let b = Backoff::new(Duration::from_millis(10), 7);
        assert_eq!(b.delay(2), b.delay(2));
        let other_seed = Backoff::new(Duration::from_millis(10), 8);
        assert_ne!(b.delay(2), other_seed.delay(2));
    }

    #[test]
    fn jitter_stays_within_band() {
        let b = Backoff::new(Duration::from_millis(100), 3);
        for attempt in 0..10 {
            let nominal = b
                .base
                .saturating_mul(1 << attempt.min(16))
                .min(b.cap)
                .as_secs_f64();
            let d = b.delay(attempt).as_secs_f64();
            assert!(
                d >= nominal * 0.749 && d <= nominal * 1.251,
                "attempt {attempt}: {d}"
            );
        }
    }
}
