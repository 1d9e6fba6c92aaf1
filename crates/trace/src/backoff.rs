//! Exponential backoff with deterministic SplitMix64 jitter.
//!
//! [`RetryPolicy`] is the repo's one retry schedule, shared by every
//! party that resubmits failed work: the serve client backing off from
//! `Rejected` admissions, and the fleet coordinator re-running targets
//! that panicked or timed out. The delay before retry `attempt` is
//! `max(floor, base × 2^attempt)` capped at `cap`, plus up to 50%
//! additive jitter derived purely from `(seed, attempt)` — so a fleet of
//! retriers born at the same instant never retries in lockstep, and a
//! test replaying the same seed sees the same delays.
//!
//! The policy lives in this crate (the dependency leaf both the serving
//! and fleet layers share) for the same reason [`CancelToken`] does:
//! both sides speak it, neither depends on the other.
//!
//! [`CancelToken`]: crate::CancelToken

use std::time::Duration;

/// SplitMix64 — the repo's one small mixing function. Besides retry
/// jitter it derives block-to-queue affinity, fault decisions, client
/// launch ids and the `Random` scheduling stream, all without carrying
/// RNG state.
#[inline]
#[must_use]
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Retry policy for resubmitted work: exponential backoff, a hard cap,
/// and deterministic jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First-retry backoff, in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub cap_ms: u64,
    /// Submission attempts before giving up and returning the last
    /// failure (1 = no retries).
    pub max_attempts: u32,
    /// Jitter seed; same seed, same delays.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ms: 5,
            cap_ms: 500,
            max_attempts: 8,
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based), honouring
    /// `floor_ms` (e.g. a server's `retry_after_ms` hint) as a floor.
    #[must_use]
    pub fn delay(&self, attempt: u32, floor_ms: u64) -> Duration {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(32))
            .min(self.cap_ms)
            .max(floor_ms);
        // Up to 50% additive jitter, deterministic in (seed, attempt).
        let jitter = splitmix(self.seed ^ u64::from(attempt)) % (exp / 2).max(1);
        Duration::from_millis(exp + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let p = RetryPolicy {
            base_ms: 10,
            cap_ms: 100,
            max_attempts: 8,
            seed: 1,
        };
        let d0 = p.delay(0, 0).as_millis() as u64;
        let d3 = p.delay(3, 0).as_millis() as u64;
        assert!((10..15).contains(&d0), "{d0}");
        assert!((80..121).contains(&d3), "{d3}");
        // Capped: exponent saturates at cap + 50% jitter.
        assert!(p.delay(30, 0).as_millis() as u64 <= 150);
    }

    #[test]
    fn jitter_is_deterministic_in_seed_and_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay(2, 0), p.delay(2, 0));
        let q = RetryPolicy {
            seed: p.seed ^ 1,
            ..p.clone()
        };
        // Different seeds decorrelate at least one early attempt.
        assert!((0..4).any(|a| p.delay(a, 0) != q.delay(a, 0)));
    }

    #[test]
    fn floor_is_honoured() {
        let p = RetryPolicy {
            base_ms: 1,
            cap_ms: 2,
            max_attempts: 2,
            seed: 0,
        };
        assert!(p.delay(0, 40).as_millis() >= 40);
    }
}
