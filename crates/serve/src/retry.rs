//! Deterministic retry with bounded exponential backoff.
//!
//! Supervision must be as reproducible as the experiments it runs: given
//! the same failure sequence, the service makes the same retry decisions
//! with the same delays. The backoff is therefore a pure function of the
//! attempt number — `base × 2^(attempt-1)`, saturating at a cap — with
//! **no jitter**. Jitter exists to decorrelate fleets of clients hammering
//! a shared resource; a single-host campaign queue has no such contention,
//! and determinism is worth more than the decorrelation.

/// Hard ceiling on any single backoff delay, regardless of the
/// configured cap: one hour. A spec-supplied `backoff_ms`/cap near
/// `u64::MAX` must not reach `Duration` arithmetic (where
/// `Instant + Duration` can overflow and panic) — the policy saturates
/// here first.
pub const MAX_BACKOFF_MS: u64 = 60 * 60 * 1000;

/// Bounded-retry policy for transient job failures (worker panics,
/// checkpoint-corruption restarts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many retries a job gets after its first failed attempt.
    pub max_retries: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2, base_ms: 100, cap_ms: 30_000 }
    }
}

impl RetryPolicy {
    /// Whether a job that has already run `attempt` times (1-based) may
    /// run again.
    #[must_use]
    pub(crate) fn allows(&self, attempt: u32) -> bool {
        attempt <= self.max_retries
    }

    /// The deterministic delay before retry number `retry` (1-based):
    /// `base × 2^(retry-1)`, saturating at `cap_ms` and, regardless of
    /// the configured cap, at [`MAX_BACKOFF_MS`].
    #[must_use]
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let shift = retry.saturating_sub(1).min(63);
        self.base_ms
            .saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX))
            .min(self.cap_ms)
            .min(MAX_BACKOFF_MS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy { max_retries: 5, base_ms: 100, cap_ms: 1000 };
        assert_eq!(p.backoff_ms(1), 100);
        assert_eq!(p.backoff_ms(2), 200);
        assert_eq!(p.backoff_ms(3), 400);
        assert_eq!(p.backoff_ms(4), 800);
        assert_eq!(p.backoff_ms(5), 1000, "capped");
        assert_eq!(p.backoff_ms(63), 1000, "shift overflow saturates");
    }

    #[test]
    fn pathological_caps_saturate_at_the_hard_ceiling() {
        // A client can put any u64 in the spec's backoff_ms; the policy
        // must never hand Duration arithmetic a near-u64::MAX delay.
        let p = RetryPolicy { max_retries: 10, base_ms: u64::MAX, cap_ms: u64::MAX };
        assert_eq!(p.backoff_ms(1), MAX_BACKOFF_MS);
        assert_eq!(p.backoff_ms(64), MAX_BACKOFF_MS);
        // The saturated delay survives Duration conversion and Instant
        // addition (the original overflow panic site).
        let d = std::time::Duration::from_millis(p.backoff_ms(64));
        assert!(std::time::Instant::now().checked_add(d).is_some());
        // A modest cap below the ceiling still wins.
        let q = RetryPolicy { max_retries: 3, base_ms: u64::MAX, cap_ms: 500 };
        assert_eq!(q.backoff_ms(2), 500);
    }

    #[test]
    fn backoff_is_deterministic() {
        let p = RetryPolicy::default();
        for retry in 1..10 {
            assert_eq!(p.backoff_ms(retry), p.backoff_ms(retry), "pure function of retry number");
        }
    }

    #[test]
    fn retry_budget_is_bounded() {
        let p = RetryPolicy { max_retries: 2, ..RetryPolicy::default() };
        assert!(p.allows(1));
        assert!(p.allows(2));
        assert!(!p.allows(3));
        let never = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
        assert!(!never.allows(1));
    }
}
