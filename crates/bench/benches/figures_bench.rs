//! One benchmark per paper table/figure: regenerates each artifact's
//! analysis from a cached smoke-scale fleet run. These benches both time
//! the analysis pipeline and serve as the canonical "regenerate
//! everything" entry point under `cargo bench`.
//!
//! The per-artifact rows are *warm*: the first (warm-up) iteration fills
//! the trace store's analysis index, and every measured iteration reads
//! the cached entries, so they time a figure's own work. The
//! `analysis_index` row is *cold*: each iteration rebuilds every index
//! entry (all span metrics and the tree shapes) from the store with the
//! public builders, on the run's thread budget.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rpclens_bench::{produce, run_at, Artifact};
use rpclens_fleet::driver::{FleetRun, SimScale};
use rpclens_trace::index::{MethodStats, SpanMetric, TreeShapes};
use std::sync::OnceLock;

fn shared_run() -> &'static FleetRun {
    static RUN: OnceLock<FleetRun> = OnceLock::new();
    RUN.get_or_init(|| run_at(SimScale::smoke()))
}

fn bench_figures(c: &mut Criterion) {
    let run = shared_run();
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    for artifact in Artifact::ALL {
        g.bench_function(artifact.name(), |b| {
            b.iter(|| {
                let (text, checks) = produce(artifact, Some(run));
                black_box((text.len(), checks.items.len()))
            })
        });
    }
    g.bench_function("analysis_index", |b| {
        let threads = run.telemetry.threads_used;
        b.iter(|| {
            let spans = SpanMetric::ALL
                .map(|metric| MethodStats::build(&run.store, metric, threads).rows().len());
            black_box((spans, TreeShapes::build(&run.store, threads).roots.len()))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
