//! Microbenchmarks for the simulation core: these paths run hundreds of
//! millions of times per fleet day, so their constant factors set the
//! simulator's wall-clock budget.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rpclens_simcore::prelude::*;

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("log_histogram");
    g.throughput(Throughput::Elements(1));
    g.bench_function("record", |b| {
        let mut h = LogHistogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(v >> 32));
        });
    });
    g.bench_function("quantile", |b| {
        let mut h = LogHistogram::new();
        for i in 0..100_000u64 {
            h.record(i * 13 % 1_000_000);
        }
        b.iter(|| black_box(h.quantile(0.99)));
    });
    g.finish();
}

fn bench_rng_and_dists(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampling");
    g.throughput(Throughput::Elements(1));
    let mut rng = Prng::seed_from(1);
    g.bench_function("prng_u64", |b| b.iter(|| black_box(rng.next_u64())));
    g.bench_function("gaussian", |b| b.iter(|| black_box(rng.next_gaussian())));
    let ln = LogNormal::from_median_sigma(1e-3, 1.2).expect("valid");
    g.bench_function("lognormal", |b| b.iter(|| black_box(ln.sample(&mut rng))));
    let bp = BoundedPareto::new(1.0, 1e6, 1.1).expect("valid");
    g.bench_function("bounded_pareto", |b| {
        b.iter(|| black_box(bp.sample(&mut rng)))
    });
    let weights: Vec<f64> = (1..=10_000).map(|i| 1.0 / i as f64).collect();
    let alias = AliasTable::new(&weights).expect("valid");
    g.bench_function("alias_10k", |b| {
        b.iter(|| black_box(alias.sample(&mut rng)))
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("stats");
    let mut rng = Prng::seed_from(2);
    let mut values: Vec<f64> = (0..10_000).map(|_| rng.next_f64()).collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    g.bench_function("percentile_10k", |b| {
        b.iter(|| black_box(percentile(&values, 0.99)))
    });
    g.bench_function("quantile_summary_10k", |b| {
        b.iter(|| {
            black_box(rpclens_simcore::stats::QuantileSummary::from_samples(
                values.clone(),
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_histogram, bench_rng_and_dists, bench_stats);
criterion_main!(benches);
