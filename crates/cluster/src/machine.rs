//! A machine whose execution speed couples to its exogenous state.
//!
//! The paper's Fig. 17 shows that per-component RPC latency tracks CPU
//! utilization, memory bandwidth, long-wakeup rate, and CPI — except for
//! services on *reserved cores* (KV-Store), which only track CPI. The
//! machine model reproduces that causal structure:
//!
//! - handler execution time = `work / (speed / slowdown)`, where the
//!   slowdown is the machine's instantaneous CPI relative to its baseline;
//! - scheduler wakeup latency is short normally but long (>50 µs) with the
//!   machine's current long-wakeup probability;
//! - a reserved-core machine bypasses the utilization-dependent part of
//!   both couplings.

use crate::exogenous::{ExogenousProfile, ExogenousVars};
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::{SimDuration, SimTime};

/// Identifier of a machine within the fleet (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

/// Static machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Relative CPU speed (1.0 = fleet baseline). The fleet mixes CPU
    /// generations, which is why the profiler reports *normalized* cycles.
    pub speed: f64,
    /// Whether the studied service holds reserved cores on this machine.
    pub reserved_cores: bool,
    /// Baseline CPI at low load (denominator of the slowdown factor).
    pub baseline_cpi: f64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            speed: 1.0,
            reserved_cores: false,
            baseline_cpi: 1.0,
        }
    }
}

/// A simulated machine.
///
/// Machines hold no generator state of their own: every stochastic draw
/// (currently only [`Machine::wakeup_latency`]) samples from a caller
/// supplied [`Prng`]. This keeps a machine's behaviour a pure function of
/// `(profile, t, caller randomness)`, which is what lets the fleet driver
/// replay the same trace on any shard and get identical latencies.
#[derive(Debug, Clone)]
pub struct Machine {
    id: MachineId,
    config: MachineConfig,
    profile: ExogenousProfile,
}

/// Threshold above which a scheduling event counts as a "long wakeup"
/// (Table 2 uses 50 µs).
pub const LONG_WAKEUP_THRESHOLD: SimDuration = SimDuration::from_micros(50);

impl Machine {
    /// Creates a machine with the given profile.
    pub fn new(id: MachineId, config: MachineConfig, profile: ExogenousProfile) -> Self {
        Machine {
            id,
            config,
            profile,
        }
    }

    /// This machine's id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// This machine's static configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The machine's exogenous state at `t`.
    pub fn exogenous(&self, t: SimTime) -> ExogenousVars {
        self.profile.sample(t)
    }

    /// The exogenous profile driving this machine.
    pub fn profile(&self) -> &ExogenousProfile {
        &self.profile
    }

    /// The multiplicative slowdown applied to compute at instant `t`.
    ///
    /// On shared machines this is the instantaneous CPI over the baseline
    /// CPI (contention raises CPI, which stretches every instruction). On
    /// reserved cores, contention from co-tenants is excluded; only a
    /// small chip-level CPI effect remains.
    pub fn slowdown(&self, t: SimTime) -> f64 {
        self.slowdown_from(&self.profile.sample(t))
    }

    /// [`Machine::slowdown`] computed from already-sampled exogenous
    /// state, for callers that need several machine quantities at the
    /// same instant and want to pay for one profile sample.
    pub fn slowdown_from(&self, vars: &ExogenousVars) -> f64 {
        if self.config.reserved_cores {
            // Reserved cores escape scheduling/bandwidth contention but
            // still see chip-wide effects (uncore frequency, LLC) that the
            // paper observes as a residual CPI correlation.
            1.0 + 0.3 * (vars.cpi / self.config.baseline_cpi - 1.0).max(0.0)
        } else {
            (vars.cpi / self.config.baseline_cpi).max(0.5)
        }
    }

    /// Converts a nominal compute requirement into wall time at `t`.
    ///
    /// `nominal` is the duration the work would take on an unloaded
    /// baseline machine.
    pub fn execute(&self, nominal: SimDuration, t: SimTime) -> SimDuration {
        nominal.mul_f64(self.slowdown(t) / self.config.speed)
    }

    /// Samples one scheduler wakeup latency at instant `t` from `rng`.
    ///
    /// Most wakeups are a few microseconds; with the machine's current
    /// long-wakeup probability the thread instead waits beyond
    /// [`LONG_WAKEUP_THRESHOLD`], with an exponential tail. Draws come
    /// from the caller's generator (in the fleet driver, the per-trace
    /// stream) so that concurrent traces touching the same machine never
    /// perturb each other's samples.
    pub fn wakeup_latency(&self, t: SimTime, rng: &mut Prng) -> SimDuration {
        self.wakeup_latency_from(&self.profile.sample(t), rng)
    }

    /// [`Machine::wakeup_latency`] computed from already-sampled
    /// exogenous state; identical draws from `rng`.
    pub fn wakeup_latency_from(&self, vars: &ExogenousVars, rng: &mut Prng) -> SimDuration {
        let long_rate = if self.config.reserved_cores {
            // Dedicated cores do not contend for runqueue slots.
            0.0005
        } else {
            vars.long_wakeup_rate
        };
        if rng.chance(long_rate) {
            // A long wakeup: threshold plus an exponential excess whose
            // mean grows with utilization.
            let mean_excess_us = 80.0 * (1.0 + 2.0 * vars.cpu_util);
            let excess = -rng.next_f64_open().ln() * mean_excess_us;
            LONG_WAKEUP_THRESHOLD + SimDuration::from_micros_f64(excess)
        } else {
            // Normal wakeup: a few microseconds, mildly load-dependent.
            let mean_us = 2.0 + 6.0 * vars.cpu_util;
            SimDuration::from_micros_f64(-rng.next_f64_open().ln() * mean_us)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(reserved: bool, profile: ExogenousProfile) -> Machine {
        Machine::new(
            MachineId(1),
            MachineConfig {
                reserved_cores: reserved,
                ..MachineConfig::default()
            },
            profile,
        )
    }

    #[test]
    fn execute_scales_with_speed() {
        let profile = ExogenousProfile::light(1);
        let fast = Machine::new(
            MachineId(0),
            MachineConfig {
                speed: 2.0,
                ..MachineConfig::default()
            },
            profile,
        );
        let slow = Machine::new(MachineId(1), MachineConfig::default(), profile);
        let t = SimTime::ZERO;
        let nominal = SimDuration::from_millis(10);
        let f = fast.execute(nominal, t);
        let s = slow.execute(nominal, t);
        assert!((s.as_secs_f64() / f.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn busy_machines_run_slower() {
        let busy = machine(false, ExogenousProfile::busy(2));
        let light = machine(false, ExogenousProfile::light(2));
        // Compare average slowdown across a day.
        let mut busy_sum = 0.0;
        let mut light_sum = 0.0;
        for i in 0..288 {
            let t = SimTime::ZERO + SimDuration::from_mins(i * 5);
            busy_sum += busy.slowdown(t);
            light_sum += light.slowdown(t);
        }
        assert!(busy_sum > light_sum * 1.05, "{busy_sum} vs {light_sum}");
    }

    #[test]
    fn reserved_cores_shrink_utilization_coupling() {
        let profile = ExogenousProfile::busy(3);
        let shared = machine(false, profile);
        let reserved = machine(true, profile);
        // Variance of slowdown across the day should be much lower with
        // reserved cores.
        let collect = |m: &Machine| -> Vec<f64> {
            (0..288)
                .map(|i| m.slowdown(SimTime::ZERO + SimDuration::from_mins(i * 5)))
                .collect()
        };
        let var = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64
        };
        let vs = var(&collect(&shared));
        let vr = var(&collect(&reserved));
        assert!(vr < vs * 0.5, "reserved var {vr} vs shared var {vs}");
    }

    #[test]
    fn wakeup_latencies_have_long_tail_on_busy_machines() {
        let busy = machine(false, ExogenousProfile::busy(4));
        let mut rng = Prng::seed_from(4);
        let mut long = 0u32;
        let n = 50_000;
        for i in 0..n {
            let t = SimTime::ZERO + SimDuration::from_millis(i as u64);
            if busy.wakeup_latency(t, &mut rng) >= LONG_WAKEUP_THRESHOLD {
                long += 1;
            }
        }
        let rate = long as f64 / n as f64;
        // The busy profile's long-wakeup rate is ~0.5-2%.
        assert!(rate > 0.001 && rate < 0.1, "long rate {rate}");
    }

    #[test]
    fn reserved_cores_avoid_long_wakeups() {
        let shared = machine(false, ExogenousProfile::busy(5));
        let reserved = machine(true, ExogenousProfile::busy(5));
        let count_long = |m: &Machine, seed: u64| {
            let mut rng = Prng::seed_from(seed);
            (0..50_000u64)
                .filter(|&i| {
                    m.wakeup_latency(SimTime::ZERO + SimDuration::from_millis(i), &mut rng)
                        >= LONG_WAKEUP_THRESHOLD
                })
                .count()
        };
        let s = count_long(&shared, 5);
        let r = count_long(&reserved, 5);
        assert!(r * 4 < s, "reserved {r} vs shared {s}");
    }

    #[test]
    fn wakeups_are_positive_and_bounded_sane() {
        let m = machine(false, ExogenousProfile::shared(6));
        let mut rng = Prng::seed_from(6);
        for i in 0..10_000u64 {
            let w = m.wakeup_latency(SimTime::ZERO + SimDuration::from_millis(i), &mut rng);
            assert!(w < SimDuration::from_millis(20), "wakeup {w} implausible");
        }
    }

    #[test]
    fn wakeup_is_pure_function_of_time_and_rng() {
        // Two clones of the machine given identical caller rngs must
        // produce identical samples — the machine itself holds no
        // generator state.
        let m1 = machine(false, ExogenousProfile::busy(7));
        let m2 = m1.clone();
        let mut r1 = Prng::seed_from(7);
        let mut r2 = Prng::seed_from(7);
        for i in 0..1_000u64 {
            let t = SimTime::ZERO + SimDuration::from_millis(i);
            assert_eq!(m1.wakeup_latency(t, &mut r1), m2.wakeup_latency(t, &mut r2));
        }
    }
}
