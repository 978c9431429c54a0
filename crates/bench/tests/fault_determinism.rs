//! The fault and incident planes' behavioural guarantees at smoke scale.
//!
//! Their digests are pinned at every (shards, threads) cell by
//! `determinism.rs` against `crates/bench/DIGESTS`; this file checks what
//! those scenarios *do*:
//!
//! 1. Closed-loop controllers turn fewer calls away than the same
//!    incident schedule run open loop.
//! 2. Chaos-smoke reconciles with the paper's Fig. 23 error taxonomy.
//! 3. An overload-collapse retry storm is clamped by the retry budget,
//!    and the retry-storm detector says so.

use rpclens_bench::run_at_sharded_faults;
use rpclens_core::figs::fig23;
use rpclens_fleet::driver::{FleetRun, SimScale};
use rpclens_fleet::faults::FaultScenario;
use rpclens_fleet::telemetry::{slo_findings, DEFAULT_TAIL_TOLERANCE};
use rpclens_obs::{Severity, SloConfig};

fn smoke_run(faults: FaultScenario, shards: usize) -> FleetRun {
    run_at_sharded_faults(SimScale::smoke(), Some(shards), faults)
}

#[test]
fn closed_loop_controllers_reduce_steady_state_shedding() {
    // `incident-open-loop` is `incident-smoke` minus the control plane:
    // the same seeded incident schedule strikes the same entities at the
    // same times, but nothing reacts. The closed loop must turn fewer
    // calls away — capacity absorbs the overload fronts the open loop
    // can only shed against.
    let open = smoke_run(FaultScenario::incident_open_loop(), 1);
    let closed = smoke_run(FaultScenario::incident_smoke(), 1);
    let open_sheds = open.telemetry.counters.resilience.load_sheds;
    let closed_turned_away = closed.telemetry.counters.resilience.load_sheds
        + closed.telemetry.counters.control.admission_abandoned;
    assert!(open_sheds > 0, "open loop never shed under incidents");
    let open_rate = open_sheds as f64 / open.total_spans as f64;
    let closed_rate = closed_turned_away as f64 / closed.total_spans as f64;
    assert!(
        closed_rate < open_rate,
        "closed-loop turn-away rate {closed_rate:.5} must beat open-loop {open_rate:.5} \
         ({closed_turned_away}/{} vs {open_sheds}/{})",
        closed.total_spans,
        open.total_spans
    );
}

#[test]
fn chaos_smoke_reconciles_with_fig23() {
    let run = smoke_run(FaultScenario::chaos_smoke(), 1);
    let fig = fig23::compute(&run);
    let checks = fig23::causal_checks(&fig);
    assert!(checks.all_passed(), "{checks}");
}

#[test]
fn overload_collapse_storm_is_clamped_by_the_retry_budget() {
    // That calls were shed and retries denied is an invariant of the
    // overload-collapse row in determinism.rs.
    let run = smoke_run(FaultScenario::overload_collapse(), 1);
    // The retry-storm detector must report the amplification as clamped
    // (Info), not a storm: the token-bucket budget is doing its job.
    let findings = slo_findings(&run, None, &SloConfig::default(), DEFAULT_TAIL_TOLERANCE);
    let overall = findings
        .iter()
        .find(|f| f.detector == "retry-storm" && f.subject == "overall")
        .expect("retry-storm overall finding");
    assert_eq!(overall.severity, Severity::Info, "{overall:?}");
    assert!(
        overall.detail.contains("budget clamped"),
        "{}",
        overall.detail
    );
}
