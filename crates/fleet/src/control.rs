//! The closed-loop controllers: their specs and the pure decision
//! functions, evaluated on control-window boundaries.
//!
//! Under the open-loop fault plane the fleet never fights back — overload
//! fronts shed until the episode ends on its own. This module adds the
//! three reactions production fleets mount, each a *pure function of the
//! seed and the incident trajectories* so that every simulation shard
//! reconstructs the identical controller timeline (shards run
//! independently and merge; a controller that reacted to per-shard
//! observed counters would break the bit-identical-at-any-shard-count
//! contract):
//!
//! - **Autoscaler** ([`AutoscalerSpec`]): per-cluster capacity, stepped
//!   up after sustained overload at consecutive window boundaries and
//!   decayed back when the condition clears. Capacity divides the
//!   effective overload factor, feeding back into utilization and
//!   shedding.
//! - **Load-balancer weight shift** (`lb_shift`): paths whose region
//!   pair is cut or browned out at the window boundary are steered away
//!   from, through the same placement re-pick as retry failover
//!   (`Avoid`).
//! - **Bounded admission queues** ([`AdmissionSpec`]): while a site is
//!   overloaded, admission replaces the ambient shed rule — waits past
//!   the shed bound are rejected (`NoResource`), waits past the caller's
//!   patience are abandoned (`Aborted`), and the pool's utilization is
//!   capped at `util_cap` (the queue is bounded, so it cannot saturate).
//!   Every offered call resolves to exactly one verdict; the
//!   conservation proptest pins `admitted + shed + abandoned == offered`.
//!
//! Controller decisions are sampled at [`CONTROL_WINDOW`] boundaries
//! and held for the whole window, mirroring how real control loops act
//! on aggregated telemetry rather than per-request state. They run inside
//! [`crate::faults::FaultPlane`] and read the incident trajectories its
//! per-call query composes. See `docs/ROBUSTNESS.md` for the closed- vs
//! open-loop comparison.

use rpclens_simcore::time::SimDuration;

/// The control window: controllers decide at its boundaries, and the
/// incident summary samples at them. It is the TSDB sample period, so
/// controller timelines line up with the driver's window streams.
pub const CONTROL_WINDOW: SimDuration = rpclens_tsdb::DEFAULT_SAMPLE_PERIOD;

/// Autoscaler configuration: capacity added under sustained overload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerSpec {
    /// Consecutive overloaded window boundaries before scaling starts
    /// (clamped to at least 1).
    pub sustain_windows: u32,
    /// Capacity factor added per sustained window (and removed per calm
    /// window while above 1.0).
    pub step: f64,
    /// Ceiling on the capacity factor (must be at least 1.0).
    pub max_factor: f64,
}

/// Bounded admission queue configuration for overloaded sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSpec {
    /// Queue waits beyond this bound are rejected at admission
    /// (`NoResource`).
    pub shed_wait: SimDuration,
    /// Waits beyond the caller's patience are abandoned (`Aborted`).
    /// Should exceed `shed_wait`; abandonment takes precedence.
    pub abandon_wait: SimDuration,
    /// Utilization cap the bounded queue enforces on the pool (the
    /// shed/abandoned fraction never reaches the workers).
    pub util_cap: f64,
}

/// Which controllers a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSpec {
    /// Autoscaler reacting to sustained incident overload.
    pub autoscaler: Option<AutoscalerSpec>,
    /// Load-balancer weight shift away from cut/browned-out region
    /// pairs.
    pub lb_shift: bool,
    /// Bounded admission queues on overloaded sites.
    pub admission: Option<AdmissionSpec>,
}

/// One capacity update: `prev` is the factor of the previous window,
/// `streak` the number of consecutive overloaded boundaries including the
/// current one. Pure, so the autoscaler-monotonicity proptest can drive
/// it with arbitrary condition sequences.
pub fn step_capacity(spec: &AutoscalerSpec, prev: f64, streak: u32) -> f64 {
    if streak >= spec.sustain_windows.max(1) {
        (prev + spec.step).min(spec.max_factor.max(1.0))
    } else {
        (prev - spec.step).max(1.0)
    }
}

/// The verdict of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The call enters the bounded queue and is served.
    Admitted,
    /// The queue bound rejects the call at admission (`NoResource`).
    Shed,
    /// The caller's patience expires while queued (`Aborted`).
    Abandoned,
}

/// Classifies one offered call by its sampled queue wait. Pure, total:
/// every offered call gets exactly one verdict.
pub fn admission_verdict(spec: &AdmissionSpec, queue_wait: SimDuration) -> AdmissionVerdict {
    if queue_wait > spec.abandon_wait {
        AdmissionVerdict::Abandoned
    } else if queue_wait > spec.shed_wait {
        AdmissionVerdict::Shed
    } else {
        AdmissionVerdict::Admitted
    }
}

/// Running conservation tally over admission verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionTally {
    /// Calls offered to the bounded queue.
    pub offered: u64,
    /// Calls admitted and served.
    pub admitted: u64,
    /// Calls rejected at admission.
    pub shed: u64,
    /// Calls abandoned while queued.
    pub abandoned: u64,
}

impl AdmissionTally {
    /// Records one verdict.
    pub fn record(&mut self, verdict: AdmissionVerdict) {
        self.offered += 1;
        match verdict {
            AdmissionVerdict::Admitted => self.admitted += 1,
            AdmissionVerdict::Shed => self.shed += 1,
            AdmissionVerdict::Abandoned => self.abandoned += 1,
        }
    }

    /// The conservation law every tally must satisfy.
    pub fn conserves(&self) -> bool {
        self.admitted + self.shed + self.abandoned == self.offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlane, FaultScenario};
    use proptest::prelude::*;
    use rpclens_netsim::topology::Topology;
    use rpclens_simcore::time::SimTime;

    fn admission() -> AdmissionSpec {
        AdmissionSpec {
            shed_wait: SimDuration::from_millis(15),
            abandon_wait: SimDuration::from_millis(60),
            util_cap: 0.96,
        }
    }

    /// The incident-smoke preset running `control` as its controllers.
    fn plane(control: ControlSpec) -> FaultPlane {
        let scenario = FaultScenario {
            control: Some(control),
            ..FaultScenario::incident_smoke()
        };
        FaultPlane::new(&scenario, 7, &Topology::default_world(7)).expect("incidents strike")
    }

    fn closed_loop() -> FaultPlane {
        plane(
            FaultScenario::incident_smoke()
                .control
                .expect("closed loop"),
        )
    }

    /// The opening instant of every control window in a day.
    fn day_of_windows() -> impl Iterator<Item = SimTime> {
        let window = CONTROL_WINDOW.as_nanos();
        (0..SimDuration::from_hours(24).as_nanos() / window)
            .map(move |w| SimTime::from_nanos(w * window))
    }

    #[test]
    fn capacity_rises_under_sustained_overload_and_decays_after() {
        let mut p = closed_loop();
        let factors: Vec<f64> = day_of_windows().map(|t| p.capacity_factor(0, t)).collect();
        assert!(factors.iter().all(|&f| (1.0..=2.5).contains(&f)));
        // With 2 h mean fronts and 45 min drains over 24 h, capacity
        // must have moved.
        assert!(
            factors.iter().any(|&f| f > 1.0),
            "autoscaler never scaled: {factors:?}"
        );
        // Somewhere the factor decays again (front ends).
        assert!(
            factors.windows(2).any(|w| w[1] < w[0]),
            "capacity never decayed: {factors:?}"
        );
    }

    #[test]
    fn capacity_timeline_is_query_order_independent() {
        let (mut fwd, mut rev) = (closed_loop(), closed_loop());
        let windows: Vec<SimTime> = day_of_windows().collect();
        let recorded: Vec<f64> = windows.iter().map(|&t| fwd.capacity_factor(1, t)).collect();
        for (&t, &expect) in windows.iter().zip(&recorded).rev() {
            assert_eq!(rev.capacity_factor(1, t), expect, "window at {t}");
        }
    }

    #[test]
    fn no_autoscaler_means_unit_capacity() {
        let mut p = plane(ControlSpec {
            autoscaler: None,
            lb_shift: false,
            admission: None,
        });
        for t in day_of_windows() {
            assert_eq!(p.capacity_factor(0, t), 1.0);
        }
    }

    #[test]
    fn admission_verdicts_follow_the_two_thresholds() {
        let spec = admission();
        assert_eq!(
            admission_verdict(&spec, SimDuration::from_millis(1)),
            AdmissionVerdict::Admitted
        );
        assert_eq!(
            admission_verdict(&spec, SimDuration::from_millis(30)),
            AdmissionVerdict::Shed
        );
        assert_eq!(
            admission_verdict(&spec, SimDuration::from_millis(90)),
            AdmissionVerdict::Abandoned
        );
    }

    #[test]
    fn timeline_render_reports_activity() {
        let mut p = closed_loop();
        let text = p.render_timeline(4, SimDuration::from_hours(24));
        assert!(text.contains("controller timeline"));
        assert!(text.contains("windows with controller activity"));
    }

    proptest! {
        /// Satellite: admission-queue conservation — every offered call
        /// resolves to exactly one of admitted/shed/abandoned.
        #[test]
        fn admission_conserves_offered_calls(
            shed_ms in 1u64..200,
            patience_extra_ms in 0u64..500,
            waits in proptest::collection::vec(0u64..1_000_000, 1..400),
        ) {
            let spec = AdmissionSpec {
                shed_wait: SimDuration::from_millis(shed_ms),
                abandon_wait: SimDuration::from_millis(shed_ms + patience_extra_ms),
                util_cap: 0.96,
            };
            let mut tally = AdmissionTally::default();
            for w in &waits {
                tally.record(admission_verdict(&spec, SimDuration::from_micros(*w)));
            }
            prop_assert_eq!(tally.offered, waits.len() as u64);
            prop_assert!(tally.conserves());
        }

        /// Satellite: autoscaler monotonicity — capacity never leaves
        /// `[1, max_factor]`, and within any run of consecutive
        /// overloaded boundaries past the sustain threshold the factor
        /// is non-decreasing.
        #[test]
        fn autoscaler_is_monotone_under_sustained_overload(
            sustain in 1u32..5,
            step in 0.05f64..1.0,
            max_factor in 1.0f64..4.0,
            conditions in proptest::collection::vec(any::<bool>(), 1..200),
        ) {
            let spec = AutoscalerSpec { sustain_windows: sustain, step, max_factor };
            let mut prev = 1.0f64;
            let mut streak = 0u32;
            let mut factors = Vec::with_capacity(conditions.len());
            for &overloaded in &conditions {
                streak = if overloaded { streak + 1 } else { 0 };
                prev = step_capacity(&spec, prev, streak);
                factors.push((prev, streak));
            }
            for &(f, _) in &factors {
                prop_assert!((1.0..=max_factor.max(1.0)).contains(&f), "factor {} out of band", f);
            }
            for pair in factors.windows(2) {
                let (f0, _) = pair[0];
                let (f1, s1) = pair[1];
                if s1 > sustain {
                    // Both this boundary and the previous were past the
                    // sustain threshold: capacity must not decrease.
                    prop_assert!(f1 >= f0, "capacity fell {} -> {} during sustained overload", f0, f1);
                }
            }
        }
    }
}
