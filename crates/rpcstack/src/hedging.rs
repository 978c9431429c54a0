//! Request hedging ("the tail at scale" technique).
//!
//! A hedged client sends a second copy of a slow request to a different
//! replica and takes whichever answer arrives first, cancelling the loser.
//! The paper attributes most of the fleet's `Cancelled` errors — 45% of
//! all errors and 55% of error-wasted cycles — to hedging (§4.4).

use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::SimDuration;

/// A hedging policy for one method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Whether hedging is enabled at all.
    pub enabled: bool,
    /// Issue the hedge if no response after this long (typically the
    /// method's historical P95).
    pub hedge_after: SimDuration,
    /// Probability that an eligible slow request actually hedges
    /// (brownout guard: hedging everything would double load).
    pub probability: f64,
}

impl HedgePolicy {
    /// A disabled policy.
    pub fn disabled() -> Self {
        HedgePolicy {
            enabled: false,
            hedge_after: SimDuration::ZERO,
            probability: 0.0,
        }
    }

    /// A policy hedging after `hedge_after` with the given probability.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]`.
    pub fn after(hedge_after: SimDuration, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "hedge probability must be in [0,1]"
        );
        HedgePolicy {
            enabled: true,
            hedge_after,
            probability,
        }
    }

    /// Decides whether a request that will take `expected_primary` should
    /// issue a hedge, and if so after what delay.
    ///
    /// Returns `None` when no hedge fires: the policy is disabled, the
    /// primary is fast enough that the hedge timer never expires, or the
    /// probabilistic guard declines.
    pub fn decide(&self, expected_primary: SimDuration, rng: &mut Prng) -> Option<SimDuration> {
        if !self.enabled || expected_primary <= self.hedge_after {
            return None;
        }
        rng.chance(self.probability).then_some(self.hedge_after)
    }
}

/// Outcome of a hedged pair: which copy won, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeOutcome {
    /// Completion time as observed by the caller.
    pub winner_latency: SimDuration,
    /// `true` if the hedge (second copy) won.
    pub hedge_won: bool,
}

/// Resolves a hedged pair given both copies' would-be latencies.
///
/// The hedge starts `hedge_delay` after the primary; the caller observes
/// the earlier finisher, and the loser is cancelled at that instant.
pub fn resolve_hedge(
    primary_latency: SimDuration,
    hedge_latency: SimDuration,
    hedge_delay: SimDuration,
) -> HedgeOutcome {
    let hedge_finish = hedge_delay + hedge_latency;
    if hedge_finish < primary_latency {
        HedgeOutcome {
            winner_latency: hedge_finish,
            hedge_won: true,
        }
    } else {
        HedgeOutcome {
            winner_latency: primary_latency,
            hedge_won: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_never_hedges() {
        let p = HedgePolicy::disabled();
        let mut rng = Prng::seed_from(1);
        assert_eq!(p.decide(SimDuration::from_secs(10), &mut rng), None);
    }

    #[test]
    fn fast_requests_never_hedge() {
        let p = HedgePolicy::after(SimDuration::from_millis(100), 1.0);
        let mut rng = Prng::seed_from(2);
        assert_eq!(p.decide(SimDuration::from_millis(50), &mut rng), None);
    }

    #[test]
    fn slow_requests_hedge_with_configured_probability() {
        let p = HedgePolicy::after(SimDuration::from_millis(10), 0.3);
        let mut rng = Prng::seed_from(3);
        let n = 100_000;
        let hedged = (0..n)
            .filter(|_| p.decide(SimDuration::from_secs(1), &mut rng).is_some())
            .count();
        let rate = hedged as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "hedge rate {rate}");
    }

    #[test]
    fn hedge_wins_when_much_faster() {
        let o = resolve_hedge(
            SimDuration::from_millis(500),
            SimDuration::from_millis(20),
            SimDuration::from_millis(100),
        );
        assert!(o.hedge_won);
        assert_eq!(o.winner_latency, SimDuration::from_millis(120));
    }

    #[test]
    fn primary_wins_when_hedge_is_slow() {
        let o = resolve_hedge(
            SimDuration::from_millis(150),
            SimDuration::from_millis(200),
            SimDuration::from_millis(100),
        );
        assert!(!o.hedge_won);
        assert_eq!(o.winner_latency, SimDuration::from_millis(150));
    }

    #[test]
    fn primary_wins_before_hedge_starts() {
        let o = resolve_hedge(
            SimDuration::from_millis(80),
            SimDuration::from_millis(200),
            SimDuration::from_millis(100),
        );
        assert!(!o.hedge_won);
        assert_eq!(o.winner_latency, SimDuration::from_millis(80));
    }

    #[test]
    fn hedging_reduces_observed_latency() {
        // The point of hedging: the observed latency is min(primary,
        // delay + hedge) <= primary.
        for (p, h, d) in [(1000u64, 900u64, 100u64), (500, 10, 50), (50, 50, 100)] {
            let o = resolve_hedge(
                SimDuration::from_millis(p),
                SimDuration::from_millis(h),
                SimDuration::from_millis(d),
            );
            assert!(o.winner_latency <= SimDuration::from_millis(p));
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_panics() {
        let _ = HedgePolicy::after(SimDuration::from_millis(1), 1.5);
    }
}
