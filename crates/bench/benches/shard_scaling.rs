//! Shard-scaling benchmark: the same fleet run at 1, 2, 4, and 8 shards.
//!
//! Every configuration produces bit-identical output (enforced by the
//! `determinism` test suite), so this bench measures pure wall-clock
//! scaling of the parallel driver. The README's speedup table is
//! generated from these numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rpclens_fleet::driver::{run_fleet, FleetConfig, SimScale};
use rpclens_simcore::time::SimDuration;

fn bench_shard_scaling(c: &mut Criterion) {
    let scale = SimScale {
        name: "scaling",
        total_methods: 320,
        roots: 8_000,
        duration: SimDuration::from_hours(24),
        trace_sample_rate: 1,
        profiler_sample_cap: 10_000,
        seed: 6,
    };
    let mut g = c.benchmark_group("shard_scaling");
    g.sample_size(10);
    g.throughput(Throughput::Elements(scale.roots));
    for shards in [1usize, 2, 4, 8] {
        g.bench_function(format!("8k_roots_{shards}_shards"), |b| {
            b.iter(|| {
                let mut config = FleetConfig::at_scale(scale.clone());
                config.shards = shards;
                black_box(run_fleet(config))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
