//! The three simulation workloads: one fleet run plus every artifact,
//! the run manifest and the SLO findings, as `repro all` produces them.

use crate::span::Tracer;
use crate::{percentile, vm_kib, Metrics, Rep};
use rpclens_bench::{produce, Artifact};
use rpclens_core::check::ExpectationSet;
use rpclens_core::figs::fig23;
use rpclens_fleet::catalog::{Catalog, CatalogConfig};
use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
use rpclens_fleet::faults::FaultScenario;
use rpclens_fleet::telemetry::{detector_bands, manifest_for_run, slo_findings};
use rpclens_fleet::workload::Workload;
use rpclens_netsim::topology::Topology;
use rpclens_obs::detect::render_findings;
use rpclens_obs::manifest::fnv1a;
use std::time::Instant;

/// Roots of `fleet-sampled`: the `fleet` preset's shape (10k methods,
/// 1-in-1024 trace retention, profiler cap 256, a simulated day) cut
/// from 2M roots so that several repetitions fit in one run.
const FLEET_SAMPLED_ROOTS: u64 = 300_000;

/// One simulation workload: a preset, a fault scenario and an explicit
/// (shards, threads) pair, never derived from the host's core count.
pub struct SimWorkload {
    scale: SimScale,
    faults: FaultScenario,
    shards: usize,
    threads: usize,
}

impl SimWorkload {
    /// The workload called `name` at simulation seed `seed`.
    pub fn by_name(name: &str, seed: u64) -> Option<SimWorkload> {
        let (mut scale, faults, shards) = match name {
            "figures-default" => (SimScale::default_scale(), FaultScenario::none(), 2),
            "fleet-sampled" => {
                let mut scale = SimScale::fleet();
                scale.roots = FLEET_SAMPLED_ROOTS;
                (scale, FaultScenario::none(), 8)
            }
            "incident-control" => (
                SimScale::default_scale(),
                FaultScenario::incident_smoke(),
                2,
            ),
            _ => return None,
        };
        scale.seed = seed;
        Some(SimWorkload {
            scale,
            faults,
            shards,
            threads: 2,
        })
    }
}

/// Times the setup layers one by one, the way `run_fleet` calls them
/// internally, and samples resident memory while their outputs are live.
fn probe_setup(w: &SimWorkload, tracer: &mut Tracer, m: &mut Metrics) {
    let seed = w.scale.seed;
    let (topology, s) = timed(tracer, "netsim.topology", || Topology::default_world(seed));
    m.put("netsim.topology_s", s);
    let config = CatalogConfig {
        total_methods: w.scale.total_methods,
        seed,
    };
    let (catalog, s) = timed(tracer, "fleet.catalog", || {
        Catalog::generate(&config, &topology)
    });
    m.put("fleet.catalog_s", s);
    let (roots, s) = timed(tracer, "fleet.workload", || {
        Workload::new(&catalog, &topology, w.scale.duration, seed ^ 0xAB).generate(w.scale.roots)
    });
    m.put("fleet.workload_s", s);
    m.put("mem.after_setup_mb", vm_kib("VmRSS") / 1024.0);
    drop((roots, catalog, topology));
}

fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = tracer.time(name, f);
    (out, start.elapsed().as_secs_f64())
}

/// One artifact, rendered and checked as `repro` does: under a fault
/// scenario Fig. 23 swaps its static bands for the causal
/// reconciliation checks (or none, for stress presets).
fn render(artifact: Artifact, run: &FleetRun, faults: &FaultScenario) -> (String, ExpectationSet) {
    if artifact == Artifact::Fig23 && faults.name != "none" {
        let fig = fig23::compute(run);
        let checks = if faults.reconciles_taxonomy() {
            fig23::causal_checks(&fig)
        } else {
            ExpectationSet::new()
        };
        (fig23::render(&fig), checks)
    } else {
        produce(artifact, Some(run))
    }
}

/// Runs one repetition of a simulation workload.
pub fn run(w: &SimWorkload, tracer: &mut Tracer) -> Rep {
    let mut m = Metrics::default();
    let rep = tracer.enter("bench.rep");
    if tracer.enabled() {
        probe_setup(w, tracer, &mut m);
    }

    let mut config = FleetConfig::at_scale(w.scale.clone()).with_faults(w.faults);
    config.shards = w.shards;
    config.threads = w.threads;
    let wall_start = Instant::now();
    let (run, run_fleet_s) = timed(tracer, "fleet.run_fleet", || run_fleet(config));
    m.put("mem.after_simulate_mb", vm_kib("VmRSS") / 1024.0);

    // The SLO report and the causal Fig. 23 reconciliation gate every
    // `repro` invocation, so they count as checks like the artifacts'.
    let mut checks = ExpectationSet::new();
    let (findings, s) = timed(tracer, "obs.detect", || {
        let (slo, tolerance) = detector_bands(&run.config.scale);
        render_findings(&slo_findings(&run, None, &slo, tolerance))
    });
    m.put("obs.detect_s", s);
    let mut output = findings;
    if w.faults.reconciles_taxonomy() {
        checks.extend(fig23::causal_checks(&fig23::compute(&run)));
        output.push_str(&checks.to_string());
    }

    // A user asking `repro` for one artifact waits for the fleet run (if
    // the artifact needs one) and that artifact's analysis: those are
    // the request latencies behind `rpc_p50_us` / `rpc_p99_us` here.
    let figs = tracer.enter("core.figs");
    let figs_start = Instant::now();
    let mut request_us = Vec::with_capacity(Artifact::ALL.len());
    for artifact in Artifact::ALL {
        let start = Instant::now();
        let name = format!("core.figs.{}", artifact.name());
        let (text, set) = tracer.time(name.clone(), || render(artifact, &run, &w.faults));
        let s = start.elapsed().as_secs_f64();
        m.put(&format!("{name}_s"), s);
        let fleet_s = if artifact.needs_run() {
            run_fleet_s
        } else {
            0.0
        };
        request_us.push((fleet_s + s) * 1e6);
        output.push_str(&text);
        output.push_str(&set.to_string());
        checks.extend(set);
    }
    m.put("core.figs_s", figs_start.elapsed().as_secs_f64());
    tracer.exit(figs);
    m.put("mem.after_figs_mb", vm_kib("VmRSS") / 1024.0);

    let (manifest, s) = timed(tracer, "obs.manifest", || manifest_for_run(&run));
    m.put("obs.manifest_s", s);
    // The manifest digest leaves out the robustness section (executed
    // retries, failovers, incident and controller rows); digest it here.
    output.push_str(&format!("{:?}", manifest.robustness));
    let output_digest = fnv1a(output.as_bytes());
    let wall_s = wall_start.elapsed().as_secs_f64();

    let t = &run.telemetry;
    let phase = |name: &str| {
        t.phases
            .phases()
            .iter()
            .find(|(p, _)| p == name)
            .map_or(0.0, |(_, ms)| ms / 1e3)
    };
    let spans = run.total_spans as f64;
    m.put("setup_s", run_fleet_s - phase("simulate") - phase("tsdb"));
    m.put("wall_s", wall_s);
    m.put("sim_ns_per_span", run_fleet_s * 1e9 / spans);
    m.put("rpcs_per_s", spans / wall_s);
    request_us.sort_by(f64::total_cmp);
    m.put("rpc_p50_us", percentile(&request_us, 0.50));
    m.put("rpc_p99_us", percentile(&request_us, 0.99));

    m.put("fleet.driver.generate_s", phase("generate"));
    m.put("fleet.driver.simulate_s", phase("simulate"));
    m.put("fleet.driver.merge_s", phase("merge"));
    m.put("fleet.driver.tsdb_s", phase("tsdb"));
    let shard_ms: Vec<f64> = t.per_shard.iter().map(|r| r.wall_ms).collect();
    let busy_ms: f64 = shard_ms.iter().sum();
    let max_ms = shard_ms.iter().copied().fold(0.0, f64::max);
    m.put("fleet.driver.shard_ns_per_span", busy_ms * 1e6 / spans);
    m.put(
        "fleet.pool.idle_frac",
        1.0 - busy_ms / (t.threads_used as f64 * phase("simulate") * 1e3),
    );
    m.put(
        "fleet.pool.straggler_ratio",
        max_ms * shard_ms.len() as f64 / busy_ms,
    );

    let c = &t.counters;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    m.put("trace.retained_frac", ratio(c.traces_sampled, c.roots));
    m.put("fleet.spans_per_root", ratio(c.spans, c.roots));
    m.put(
        "cluster.queue_wait_frac",
        ratio(c.queue.waits, c.queue.samples),
    );
    m.put(
        "netsim.congested_frac",
        ratio(c.wire.congested, c.wire.samples),
    );
    m.put("rpcstack.hedges_per_span", ratio(c.hedges_issued, c.spans));
    m.put(
        "fleet.faults.retries_issued",
        c.resilience.retries_issued as f64,
    );
    m.put(
        "fleet.faults.retries_denied",
        c.resilience.retries_denied as f64,
    );
    m.put("fleet.faults.failovers", c.resilience.failovers as f64);
    m.put(
        "fleet.control.admission_shed_frac",
        ratio(c.control.admission_shed, c.control.admission_offered),
    );
    m.put("fleet.control.lb_shifts", c.control.lb_shifts as f64);

    let total = checks.items.len();
    let passed = checks.passed();
    m.put("failed_frac", ratio((total - passed) as u64, total as u64));
    let pins = vec![
        ("manifest_digest", format!("{:016x}", manifest.digest())),
        ("output_digest", format!("{output_digest:016x}")),
        ("spans", run.total_spans.to_string()),
        ("checks_passed", format!("{passed}/{total}")),
        ("misses", checks.failures().join(" ")),
    ];
    drop(run);
    tracer.exit(rep);
    if tracer.enabled() {
        let totals = tracer.totals();
        m.put("self.bench.rep_s", totals["bench.rep"].self_s());
        m.put("self.core.figs_s", totals["core.figs"].self_s());
    }
    m.put("peak_rss_mb", vm_kib("VmHWM") / 1024.0);
    Rep {
        metrics: m,
        pins,
        operations: 1,
        failed: 0,
    }
}
