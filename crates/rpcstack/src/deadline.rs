//! Deadline budgets and propagation.
//!
//! Stubby-style RPC systems attach an absolute deadline to every call;
//! each nested hop inherits what remains after the parent's elapsed time
//! and a propagation safety margin. The paper observes the consequences
//! — `Deadline exceeded` is one of its Fig. 23 error classes and hedging
//! policies key off expected latencies — and motivates deadline-aware
//! scheduling as future work. This module implements the budget algebra
//! used for such studies.

use rpclens_simcore::time::{SimDuration, SimTime};

/// A deadline budget carried by one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// Absolute expiry instant.
    pub expires_at: SimTime,
}

impl Deadline {
    /// A deadline `budget` from `now`.
    pub fn after(now: SimTime, budget: SimDuration) -> Deadline {
        Deadline {
            expires_at: now + budget,
        }
    }

    /// The remaining budget at `now` (zero if expired).
    pub fn remaining(&self, now: SimTime) -> SimDuration {
        self.expires_at.since(now)
    }

    /// Whether the deadline has expired at `now`.
    pub fn expired(&self, now: SimTime) -> bool {
        now >= self.expires_at
    }

    /// Derives the deadline a child call should carry: the parent's
    /// remainder shrunk by `margin` (time reserved for the response to
    /// travel back and be processed).
    ///
    /// Returns `None` when nothing would remain — the caller should fail
    /// fast with `DeadlineExceeded` instead of issuing a doomed child.
    pub fn propagate(&self, now: SimTime, margin: SimDuration) -> Option<Deadline> {
        let remaining = self.remaining(now);
        if remaining <= margin {
            return None;
        }
        Some(Deadline {
            expires_at: now + SimDuration::from_nanos(remaining.as_nanos() - margin.as_nanos()),
        })
    }
}

/// Per-method deadline policy: how a server decides the budget for calls
/// it originates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlinePolicy {
    /// Default budget for root calls.
    pub root_budget: SimDuration,
    /// Margin reserved per hop when propagating.
    pub hop_margin: SimDuration,
    /// Minimum budget worth issuing a call with; below this, fail fast.
    pub min_budget: SimDuration,
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        DeadlinePolicy {
            root_budget: SimDuration::from_secs(10),
            hop_margin: SimDuration::from_millis(2),
            min_budget: SimDuration::from_micros(500),
        }
    }
}

impl DeadlinePolicy {
    /// The deadline for a root call issued at `now`.
    pub fn root(&self, now: SimTime) -> Deadline {
        Deadline::after(now, self.root_budget)
    }

    /// The deadline for a child call at `now` under `parent`, or `None`
    /// if the remaining budget is below the useful minimum.
    pub fn child(&self, parent: Deadline, now: SimTime) -> Option<Deadline> {
        let child = parent.propagate(now, self.hop_margin)?;
        (child.remaining(now) >= self.min_budget).then_some(child)
    }

    /// How many sequential hops a fresh root budget can traverse before
    /// the budget dips below `min_budget`, assuming each hop consumes
    /// `per_hop` of wall time plus the propagation margin.
    pub fn max_depth(&self, per_hop: SimDuration) -> u32 {
        let mut now = SimTime::ZERO;
        let mut deadline = self.root(now);
        let mut depth = 0;
        loop {
            now += per_hop;
            match self.child(deadline, now) {
                Some(d) => {
                    deadline = d;
                    depth += 1;
                }
                None => return depth,
            }
            if depth > 10_000 {
                return depth; // Defensive bound for degenerate inputs.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn remaining_counts_down_and_expires() {
        let d = Deadline::after(t(0), SimDuration::from_millis(100));
        assert_eq!(d.remaining(t(0)), SimDuration::from_millis(100));
        assert_eq!(d.remaining(t(60)), SimDuration::from_millis(40));
        assert!(!d.expired(t(99)));
        assert!(d.expired(t(100)));
        assert_eq!(d.remaining(t(150)), SimDuration::ZERO);
    }

    #[test]
    fn propagation_shrinks_by_margin() {
        let d = Deadline::after(t(0), SimDuration::from_millis(100));
        let child = d.propagate(t(10), SimDuration::from_millis(5)).unwrap();
        // 90 ms remained; the child gets 85 ms.
        assert_eq!(child.remaining(t(10)), SimDuration::from_millis(85));
    }

    #[test]
    fn propagation_fails_when_margin_exceeds_remainder() {
        let d = Deadline::after(t(0), SimDuration::from_millis(10));
        assert!(d.propagate(t(9), SimDuration::from_millis(5)).is_none());
        assert!(d.propagate(t(20), SimDuration::from_millis(1)).is_none());
    }

    #[test]
    fn policy_fails_fast_below_min_budget() {
        let p = DeadlinePolicy {
            root_budget: SimDuration::from_millis(10),
            hop_margin: SimDuration::from_millis(2),
            min_budget: SimDuration::from_millis(5),
        };
        let root = p.root(t(0));
        // At t=2ms: 8ms remain, child gets 6ms >= min 5ms.
        assert!(p.child(root, t(2)).is_some());
        // At t=4ms: 6ms remain, child gets 4ms < min 5ms.
        assert!(p.child(root, t(4)).is_none());
    }

    #[test]
    fn budgets_monotonically_shrink_down_a_chain() {
        let p = DeadlinePolicy::default();
        let mut now = t(0);
        let mut d = p.root(now);
        let mut last = d.remaining(now);
        for _ in 0..20 {
            now += SimDuration::from_millis(3);
            d = p.child(d, now).expect("budget lasts 20 shallow hops");
            let r = d.remaining(now);
            assert!(r < last);
            last = r;
        }
    }

    #[test]
    fn max_depth_matches_hand_computation() {
        let p = DeadlinePolicy {
            root_budget: SimDuration::from_millis(20),
            hop_margin: SimDuration::from_millis(2),
            min_budget: SimDuration::from_millis(1),
        };
        // Each hop: 3 ms wall + 2 ms margin = 5 ms of budget; 20 ms
        // affords hops while remaining - margin >= 1 ms.
        let depth = p.max_depth(SimDuration::from_millis(3));
        assert_eq!(depth, 3);
        // A zero-cost chain is bounded only by the margins.
        let free = p.max_depth(SimDuration::ZERO);
        assert!((9..=10).contains(&free), "depth {free}");
    }

    #[test]
    fn default_policy_supports_paper_scale_depths() {
        // Trees in the study reach depth ~10-19; the default budget must
        // not strangle them at millisecond hop costs.
        let p = DeadlinePolicy::default();
        assert!(p.max_depth(SimDuration::from_millis(5)) >= 19);
    }
}
