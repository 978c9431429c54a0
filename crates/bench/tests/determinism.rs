//! The determinism contract, table-driven: execution shape must not
//! change a single bit of any output.
//!
//! A run partitions its roots into shards, executes them on a worker
//! pool, and folds the shards back together in shard-id order (see
//! `docs/ARCHITECTURE.md`). Neither knob may leak into what a run
//! computes. Three parts pin this:
//!
//! 1. **Smoke matrix.** Rows are the digest-pinned fault scenarios
//!    (`none`, `chaos-smoke`, `partition`, `overload-collapse`,
//!    `incident-smoke`, `incident-open-loop`), cells every
//!    (shards, threads) in {1,4}². Each cell runs once and must match
//!    the committed manifest digest in `crates/bench/DIGESTS` and the
//!    row's `<scenario>.tsdb` digest of every TSDB series, the (1,1)
//!    cell's deterministic and robustness sections, and its own
//!    execution shape; each row then checks its scenario's invariants.
//!    The `none` and `incident-smoke` rows also pin every rendered
//!    artifact and its checks (`<scenario>.artifacts`).
//! 2. **4k-root scale.** A full-retention run at shards 1, 2 and 8:
//!    raw simulation outputs, every rendered artifact, every TSDB
//!    series and the per-window detector samples, the manifest's
//!    deterministic section and the profiler reservoirs are identical.
//! 3. **Ordered fold.** Whatever order workers complete shards in,
//!    `fleet::pool::OrderedFold` applies them in shard-id order.

use proptest::prelude::*;
use rpclens_bench::{produce, run_configured, Artifact};
use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
use rpclens_fleet::faults::FaultScenario;
use rpclens_fleet::pool::OrderedFold;
use rpclens_fleet::telemetry::{manifest_for_run, window_samples};
use rpclens_obs::manifest::fnv1a;
use rpclens_obs::{RobustnessSection, RunManifest, ShardCounters};
use rpclens_simcore::time::SimDuration;
use rpclens_tsdb::metric::MetricValue;

/// The committed golden digest of `scenario`, read from the digest
/// table the CI gates grep as well.
fn committed_digest(scenario: &str) -> u64 {
    include_str!("../DIGESTS")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (name, digest) = line.split_once(' ')?;
            (name == scenario).then(|| digest.trim().parse().expect("digest is a u64"))
        })
        .unwrap_or_else(|| panic!("no `{scenario}` row in crates/bench/DIGESTS"))
}

/// Every metric the driver registers, in sorted order.
const TSDB_METRICS: [&str; 8] = [
    "driver/admission/abandoned",
    "driver/admission/shed",
    "driver/errors/count",
    "driver/retries/count",
    "driver/rpcs/count",
    "driver/wire/congested",
    "machine/cpu/utilization",
    "rpc/server/count",
];

/// One TSDB series: metric, rendered labels, and `(ns, value)` points
/// (counters as-is, gauges as their f64 bits).
type SeriesRow = (&'static str, String, Vec<(u64, u64)>);

/// Every series of `run.tsdb`, sorted by metric then labels.
///
/// # Panics
///
/// Panics if the TSDB holds a series of an unlisted metric or a
/// distribution point; neither is written by the driver.
fn tsdb_series(run: &FleetRun) -> Vec<SeriesRow> {
    let mut rows = Vec::new();
    for name in TSDB_METRICS {
        let mut series: Vec<_> = run.tsdb.series_of(name).collect();
        series.sort_by(|a, b| a.0.cmp(b.0));
        for (labels, s) in series {
            let points = s
                .points()
                .iter()
                .map(|(t, v)| {
                    let v = match v {
                        MetricValue::Counter(c) => *c,
                        MetricValue::Gauge(g) => g.to_bits(),
                        MetricValue::Distribution(_) => panic!("{name} holds a distribution"),
                    };
                    (t.as_nanos(), v)
                })
                .collect();
            rows.push((name, labels.to_string(), points));
        }
    }
    assert_eq!(rows.len(), run.tsdb.num_series(), "unlisted TSDB metric");
    rows
}

/// fnv1a over every series of `run.tsdb`: the value a `.tsdb` row of
/// `crates/bench/DIGESTS` pins.
fn tsdb_digest(run: &FleetRun) -> u64 {
    let mut bytes = Vec::new();
    for (name, labels, points) in tsdb_series(run) {
        for field in [name.as_bytes(), labels.as_bytes()] {
            bytes.extend_from_slice(field);
            bytes.push(0);
        }
        for (ns, v) in points {
            bytes.extend_from_slice(&ns.to_le_bytes());
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.push(0xff);
    }
    fnv1a(&bytes)
}

/// fnv1a over every artifact's rendered text and its checks, in
/// `Artifact::ALL` order, as `produce` returns them: the value a
/// `.artifacts` row of `crates/bench/DIGESTS` pins.
fn artifacts_digest(run: &FleetRun) -> u64 {
    let mut output = String::new();
    for artifact in Artifact::ALL {
        let (text, checks) = produce(artifact, Some(run));
        output.push_str(&text);
        output.push_str(&checks.to_string());
    }
    fnv1a(output.as_bytes())
}

/// The scenarios whose rendered artifacts are pinned as well: the
/// fault-free run, and the one that exercises every disruption layer.
const ARTIFACT_ROWS: [&str; 2] = ["none", "incident-smoke"];

/// Smoke-matrix cells: every (shards, threads) in {1,4}², (1,1) first
/// so it can serve as the reference.
const CELLS: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];

/// A row's scenario-specific checks on its reference manifest.
type Invariants = fn(&RunManifest);

/// Smoke-matrix rows: a fault scenario, by its preset and `DIGESTS` name,
/// with the invariants its reference manifest must show.
const ROWS: [(&str, Invariants); 6] = [
    ("none", none_invariants),
    ("chaos-smoke", chaos_smoke_invariants),
    ("partition", partition_invariants),
    ("overload-collapse", overload_collapse_invariants),
    ("incident-smoke", incident_smoke_invariants),
    ("incident-open-loop", incident_open_loop_invariants),
];

/// The robustness section every fault scenario's manifest carries.
fn robustness(m: &RunManifest) -> &RobustnessSection {
    m.robustness
        .as_ref()
        .expect("fault scenarios carry robustness")
}

/// Every incident kind struck some entity in some episode.
fn assert_every_incident_struck(r: &RobustnessSection) {
    let struck = |&(_, entities, episodes): &(String, u64, u64)| entities > 0 && episodes > 0;
    assert!(
        r.incidents.len() == 3 && r.incidents.iter().all(struck),
        "{:?}",
        r.incidents
    );
}

/// `--faults none` is the pre-fault-plane simulator: no robustness
/// section, because no fault path ever ran.
fn none_invariants(m: &RunManifest) {
    assert!(
        m.robustness.is_none(),
        "fault-free manifests must not carry a robustness section"
    );
}

/// Chaos-smoke faults actually fired: the scenario is not a silent
/// no-op, and its digest differs from the fault-free one.
fn chaos_smoke_invariants(m: &RunManifest) {
    let r = robustness(m);
    assert!(r.retries_issued > 0, "no retries executed");
    assert!(r.failovers > 0, "no failovers executed");
    assert!(r.causal_unavailable > 0, "no causal unavailability");
    assert!(r.deadline_exceeded > 0, "no deadline expirations");
    assert_ne!(m.digest(), committed_digest("none"));
}

/// Partition runs the per-pair blackout/brownout path only: blackouts
/// make targets unavailable, and nothing surges, so nothing is shed.
fn partition_invariants(m: &RunManifest) {
    let r = robustness(m);
    assert!(
        r.causal_unavailable > 0,
        "no blackout made a target unavailable"
    );
    assert_eq!(r.load_sheds, 0, "partition has no overload source");
}

/// Overload-collapse runs the per-site surge and its shed-wait rule
/// only: calls are shed, the tight retry budget denies retries, and no
/// target is ever unreachable.
fn overload_collapse_invariants(m: &RunManifest) {
    let r = robustness(m);
    assert!(r.load_sheds > 0, "no surge shed a call");
    assert!(
        r.retries_denied > 0,
        "the retry budget never denied a retry"
    );
    assert_eq!(
        r.causal_unavailable, 0,
        "overload-collapse has no outage source"
    );
}

/// Incident-smoke struck: every incident kind has a blast radius, the
/// controllers acted, and bounded admission conserves offered calls.
fn incident_smoke_invariants(m: &RunManifest) {
    let r = robustness(m);
    assert_every_incident_struck(r);
    let controller = |name: &str| {
        r.controllers
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing controller row {name}: {:?}", r.controllers))
            .1
    };
    assert!(controller("autoscaler_scaled_windows") > 0);
    assert!(controller("admission_offered") > 0);
    assert_eq!(
        controller("admission_admitted")
            + controller("admission_shed")
            + controller("admission_abandoned"),
        controller("admission_offered"),
        "bounded admission must conserve offered calls"
    );
}

/// Incident-open-loop is incident-smoke's schedule with no controllers:
/// the regional front sheds at its own wait threshold (no admission
/// queue), every incident kind still strikes, and the run differs from
/// the closed-loop one.
fn incident_open_loop_invariants(m: &RunManifest) {
    let r = robustness(m);
    assert!(r.load_sheds > 0, "the overload front never shed a call");
    assert_every_incident_struck(r);
    assert!(r.controllers.is_empty(), "{:?}", r.controllers);
    assert_ne!(m.digest(), committed_digest("incident-smoke"));
}

#[test]
fn smoke_matrix_holds_every_committed_digest() {
    for (scenario, invariants) in ROWS {
        let expected = committed_digest(scenario);
        let expected_tsdb = committed_digest(&format!("{scenario}.tsdb"));
        let expected_artifacts = ARTIFACT_ROWS
            .contains(&scenario)
            .then(|| committed_digest(&format!("{scenario}.artifacts")));
        let mut reference: Option<RunManifest> = None;
        for (shards, threads) in CELLS {
            let faults = FaultScenario::by_name(scenario).expect("known preset");
            let run = run_configured(SimScale::smoke(), Some(shards), Some(threads), faults);
            let manifest = manifest_for_run(&run);
            assert_eq!(
                manifest.digest(),
                expected,
                "{scenario} digest drifted from crates/bench/DIGESTS at \
                 shards={shards} threads={threads}; if the drift is intentional, \
                 re-baseline the table and the CI gates together"
            );
            assert_eq!(
                tsdb_digest(&run),
                expected_tsdb,
                "{scenario}.tsdb digest drifted from crates/bench/DIGESTS at \
                 shards={shards} threads={threads}"
            );
            if let Some(expected) = expected_artifacts {
                assert_eq!(
                    artifacts_digest(&run),
                    expected,
                    "{scenario}.artifacts digest drifted from crates/bench/DIGESTS at \
                     shards={shards} threads={threads}"
                );
            }
            // Thread count is execution shape: recorded in the undigested
            // runtime section, clamped to the shard count.
            assert_eq!(manifest.runtime.shards, shards);
            assert_eq!(manifest.runtime.threads, threads.min(shards));
            if let Some(r) = &manifest.robustness {
                assert_eq!(r.scenario, scenario);
            }
            match &reference {
                None => reference = Some(manifest),
                Some(first) => {
                    assert_eq!(
                        first.deterministic, manifest.deterministic,
                        "{scenario} deterministic sections diverge at \
                         shards={shards} threads={threads}"
                    );
                    assert_eq!(
                        first.robustness, manifest.robustness,
                        "{scenario} robustness sections diverge at \
                         shards={shards} threads={threads}"
                    );
                }
            }
        }
        invariants(reference.as_ref().expect("at least one cell"));
    }
}

fn run_with_shards(shards: usize) -> FleetRun {
    let scale = SimScale {
        name: "determinism",
        total_methods: 320,
        roots: 4_000,
        duration: SimDuration::from_hours(24),
        trace_sample_rate: 1,
        profiler_sample_cap: 10_000,
        seed: 23,
    };
    let mut config = FleetConfig::at_scale(scale);
    config.shards = shards;
    run_fleet(config)
}

#[test]
fn determinism_scale_is_bit_identical_at_any_shard_count() {
    let base = run_with_shards(1);
    let base_manifest = manifest_for_run(&base);
    let base_series = tsdb_series(&base);
    let base_windows = format!("{:?}", window_samples(&base));
    let base_bytes = base_manifest.deterministic_json();
    let base_artifacts: Vec<String> = Artifact::ALL
        .iter()
        .map(|&artifact| produce(artifact, Some(&base)).0)
        .collect();
    for shards in [2usize, 8] {
        let run = &run_with_shards(shards);

        // Raw simulation outputs first: cheap to diagnose when they
        // differ, and they are the inputs every figure derives from.
        assert_eq!(base.total_spans, run.total_spans, "shards={shards}");
        assert_eq!(base.method_calls, run.method_calls, "shards={shards}");
        assert_eq!(base.method_bytes, run.method_bytes, "shards={shards}");
        assert_eq!(base.store.len(), run.store.len(), "shards={shards}");
        for (i, (a, b)) in base
            .store
            .traces()
            .iter()
            .zip(run.store.traces())
            .enumerate()
        {
            assert_eq!(a.root_start, b.root_start, "trace {i} at shards={shards}");
            assert_eq!(a.spans, b.spans, "trace {i} spans at shards={shards}");
        }
        assert_eq!(
            base.errors.kinds_by_count(),
            run.errors.kinds_by_count(),
            "shards={shards}"
        );
        assert_eq!(
            base.profiler.total_cycles(),
            run.profiler.total_cycles(),
            "shards={shards}"
        );

        // The TSDB the detectors read: every series point for point, and
        // the per-window samples joined from the driver streams.
        assert!(
            tsdb_series(run) == base_series,
            "TSDB differs at shards={shards}"
        );
        assert_eq!(
            format!("{:?}", window_samples(run)),
            base_windows,
            "window samples differ at shards={shards}"
        );

        // Then the deliverables themselves: every rendered figure and
        // table, compared as exact text.
        for (artifact, expected) in Artifact::ALL.iter().zip(&base_artifacts) {
            let (text, _) = produce(*artifact, Some(run));
            assert_eq!(
                &text,
                expected,
                "artifact {} differs at shards={shards}",
                artifact.name()
            );
        }

        // The telemetry layer folds per-shard counters, reservoirs and
        // histograms on top: field-level comparison first, then the
        // rendered bytes a user diffs on disk.
        let manifest = manifest_for_run(run);
        assert_eq!(
            base_manifest.deterministic, manifest.deterministic,
            "deterministic section differs at shards={shards}"
        );
        assert_eq!(
            base_bytes,
            manifest.deterministic_json(),
            "deterministic JSON bytes differ at shards={shards}"
        );
        // The runtime section is the explicitly non-deterministic
        // remainder, and must reflect the actual execution shape.
        assert_eq!(manifest.runtime.shards, shards, "shards={shards}");
        assert_eq!(manifest.runtime.per_shard.len(), shards, "shards={shards}");

        // The full manifest (runtime included) still parses, and the
        // digest binds exactly the deterministic bytes.
        let back = RunManifest::parse(&manifest.to_json_string()).expect("manifest roundtrip");
        assert_eq!(back.deterministic, base_manifest.deterministic);

        // Per-method profiler reservoirs merge via deterministic
        // bottom-k, so capped methods keep identical sample sets.
        for method in base.profiler.methods_with_samples(1) {
            assert_eq!(
                base.profiler.method_samples(method),
                run.profiler.method_samples(method),
                "method {method} samples differ at shards={shards}"
            );
        }
    }
}

/// A distinct, recognisable accumulator for shard `i`: real telemetry
/// counters plus an order-sensitive payload standing in for the trace
/// store (concatenation order must equal shard-id order).
fn shard_item(i: usize) -> (ShardCounters, Vec<u64>) {
    let mut c = ShardCounters::new();
    let i64 = i as u64;
    c.roots = 10 + i64;
    c.spans = 100 + 7 * i64;
    c.hedges_issued = i64 % 3;
    c.max_depth = i64 % 9;
    for k in 0..20u64 {
        c.root_latency_us.record(1 + (i64 * 37 + k * 11) % 5_000);
        c.queue.record((i64 + k) % 5 * 250);
        c.wire.record((i64 + k).is_multiple_of(4));
    }
    (c, vec![i64 * 3, i64 * 3 + 1, i64 * 3 + 2])
}

fn fold_items(acc: &mut (ShardCounters, Vec<u64>), next: (ShardCounters, Vec<u64>)) {
    acc.0.absorb(&next.0);
    acc.1.extend(next.1);
}

proptest! {
    /// Merged accumulators are independent of worker completion order:
    /// pushing shards through `OrderedFold` in a random permutation
    /// yields exactly the sequential in-order fold.
    #[test]
    fn ordered_fold_is_completion_order_invariant(
        keys in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let n = keys.len();
        // Derive a completion permutation from the random keys.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (keys[i], i));

        let mut sequential = OrderedFold::new();
        for i in 0..n {
            sequential.push(i, shard_item(i), fold_items);
        }
        let expected = sequential.finish();

        let mut shuffled = OrderedFold::new();
        for &i in &order {
            shuffled.push(i, shard_item(i), fold_items);
        }
        prop_assert_eq!(shuffled.folded(), n);
        let got = shuffled.finish();

        // Order-sensitive payload merged in shard-id order, not
        // completion order.
        prop_assert_eq!(&got.1, &expected.1);
        let flat: Vec<u64> = (0..n as u64).flat_map(|i| [i * 3, i * 3 + 1, i * 3 + 2]).collect();
        prop_assert_eq!(&got.1, &flat);
        // Counters identical field for field (absorb is a sum/max fold,
        // but equality of the full struct also covers the histograms).
        prop_assert_eq!(format!("{:?}", got.0), format!("{:?}", expected.0));
    }
}
