//! Shared extraction helpers used by the figure modules.

use crate::render::TextTable;
use rpclens_fleet::driver::FleetRun;
use rpclens_simcore::stats::{percentile, sorted_finite, QuantileSummary};
pub use rpclens_trace::index::MethodRow;
use rpclens_trace::index::{MethodStats, SpanMetric};
use rpclens_trace::span::MethodId;

/// A per-method heatmap, sorted by the median of the metric — the layout
/// every per-method figure in the paper uses.
#[derive(Debug, Clone, Default)]
pub struct MethodHeatmap {
    /// Rows in ascending median order.
    pub rows: Vec<MethodRow>,
}

impl MethodHeatmap {
    /// The heatmap of `metric` under the paper's query, read from the run's
    /// analysis index (built on first use with the run's thread budget).
    pub fn of(run: &FleetRun, metric: SpanMetric) -> MethodHeatmap {
        MethodHeatmap::from_stats(run.store.method_stats(metric, run.telemetry.threads_used))
    }

    /// Orders one index entry's rows by median; ties keep method order.
    pub fn from_stats(stats: &MethodStats) -> MethodHeatmap {
        MethodHeatmap::by_median(stats.rows().to_vec())
    }

    fn by_median(mut rows: Vec<MethodRow>) -> MethodHeatmap {
        rows.sort_by(|a, b| a.summary.p50.partial_cmp(&b.summary.p50).expect("finite"));
        MethodHeatmap { rows }
    }

    /// Builds a heatmap from precomputed per-method sample vectors.
    ///
    /// Input order does not matter: rows are keyed by method id before the
    /// median sort, so callers may pass samples straight out of a hash map
    /// and still get a deterministic layout.
    pub fn from_samples(
        mut samples: Vec<(MethodId, Vec<f64>)>,
        min_samples: usize,
    ) -> MethodHeatmap {
        samples.sort_by_key(|(method, _)| *method);
        let rows = samples
            .into_iter()
            .filter(|(_, values)| values.len() >= min_samples)
            .filter_map(|(method, values)| {
                let summary = QuantileSummary::from_samples(values)?;
                Some(MethodRow { method, summary })
            });
        MethodHeatmap::by_median(rows.collect())
    }

    /// Number of methods.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the heatmap is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The distribution, across methods, of one per-method quantile
    /// (`q` must be one of the stored levels). This is the "CDF" panel of
    /// the paper's per-method figures.
    pub fn across_methods(&self, q: f64) -> Vec<f64> {
        sorted_finite(
            self.rows
                .iter()
                .filter_map(|r| r.summary.get(q))
                .collect::<Vec<f64>>(),
        )
    }

    /// The fraction of methods whose quantile `q` satisfies `pred`.
    pub fn fraction_where<F: Fn(f64) -> bool>(&self, q: f64, pred: F) -> f64 {
        if self.rows.is_empty() {
            return f64::NAN;
        }
        self.share_of_methods(|s| s.get(q).is_some_and(&pred))
    }

    /// Renders about `rows` evenly spaced rows (every row when there are
    /// fewer), one column per quantile level, each headed `P<level><unit>`.
    pub fn table(
        &self,
        rows: usize,
        levels: &[f64],
        unit: &str,
        fmt: impl Fn(f64) -> String,
    ) -> String {
        let mut header = vec!["method#".to_string()];
        header.extend(
            levels
                .iter()
                .map(|q| format!("P{}{unit}", (q * 100.0).round())),
        );
        let mut t = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
        for (i, row) in self
            .rows
            .iter()
            .enumerate()
            .step_by((self.len() / rows).max(1))
        {
            let mut cells = vec![i.to_string()];
            cells.extend(
                levels
                    .iter()
                    .map(|&q| fmt(row.summary.get(q).expect("a stored level"))),
            );
            t.row(cells);
        }
        t.render()
    }

    /// The fraction of methods whose summary satisfies `pred` (0 when
    /// there are none).
    pub fn share_of_methods(&self, pred: impl Fn(&QuantileSummary) -> bool) -> f64 {
        let n = self.rows.iter().filter(|r| pred(&r.summary)).count();
        n as f64 / self.rows.len().max(1) as f64
    }

    /// The value of quantile `inner` at position `outer` across methods
    /// (e.g. "the P99 latency of the method at the 10th percentile of
    /// methods").
    pub fn quantile_of_quantiles(&self, inner: f64, outer: f64) -> Option<f64> {
        let v = self.across_methods(inner);
        percentile(&v, outer)
    }
}

#[cfg(test)]
pub(crate) mod testrun {
    //! A single shared small fleet run for the analysis tests: the
    //! simulation is deterministic, so one instance serves every module.

    use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
    use rpclens_simcore::time::SimDuration;
    use std::sync::OnceLock;

    static RUN: OnceLock<FleetRun> = OnceLock::new();

    /// The shared test run (2,000 methods, 60,000 roots).
    pub fn shared() -> &'static FleetRun {
        RUN.get_or_init(|| {
            let scale = SimScale {
                name: "core-test",
                total_methods: 2_000,
                roots: 60_000,
                duration: SimDuration::from_hours(24),
                trace_sample_rate: 1,
                profiler_sample_cap: 10_000,
                seed: 7,
            };
            run_fleet(FleetConfig::at_scale(scale))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common_tests::*;
    use rpclens_trace::query::{MethodQuery, MIN_SAMPLES};
    use rpclens_trace::tree::TreeStats;
    use std::collections::HashMap;

    mod common_tests {
        pub use super::super::testrun::shared;
    }

    /// Every field of every row, floats as bits.
    fn bits(rows: &[MethodRow]) -> Vec<(MethodId, usize, [u64; 7])> {
        rows.iter()
            .map(|r| {
                let s = r.summary;
                let qs = [s.p01, s.p10, s.p50, s.p90, s.p95, s.p99, s.mean];
                (r.method, s.count, qs.map(f64::to_bits))
            })
            .collect()
    }

    fn sorted_methods(run: &FleetRun) -> Vec<MethodId> {
        let mut methods: Vec<MethodId> = run.store.methods().collect();
        methods.sort_unstable();
        methods
    }

    #[test]
    fn heatmap_is_sorted_by_median() {
        let hm = MethodHeatmap::of(shared(), SpanMetric::Latency);
        assert!(hm.len() > 30, "{} methods", hm.len());
        assert!(hm
            .rows
            .windows(2)
            .all(|w| w[0].summary.p50 <= w[1].summary.p50));
    }

    #[test]
    fn index_entries_match_the_samples_reference() {
        let run = shared();
        let q = MethodQuery::default();
        for metric in SpanMetric::ALL {
            let mut reference = Vec::new();
            for method in sorted_methods(run) {
                let samples = q.samples(&run.store, method, |_, s| metric.of(s));
                if let Some(summary) = samples.and_then(QuantileSummary::from_samples) {
                    reference.push(MethodRow { method, summary });
                }
            }
            assert!(reference.len() > 30, "{metric:?}");
            let entry = run.store.method_stats(metric, 2);
            assert_eq!(bits(entry.rows()), bits(&reference), "{metric:?}");
            for method in sorted_methods(run) {
                let row = entry.rows().binary_search_by_key(&method, |r| r.method);
                assert_eq!(
                    entry.get(method).map(|s| s.p50.to_bits()),
                    row.ok().map(|i| entry.rows()[i].summary.p50.to_bits())
                );
            }
            assert!(entry.get(MethodId(u32::MAX)).is_none());
        }
    }

    #[test]
    fn tree_shapes_match_the_per_trace_reference() {
        // The per-trace walk behind Figs. 4 and 5 before the index.
        let run = shared();
        let (mut descendants, mut ancestors) = (HashMap::new(), HashMap::new());
        let mut roots = Vec::new();
        for trace in run.store.traces() {
            let stats = TreeStats::compute(trace);
            roots.push((stats.descendants[0], stats.max_depth));
            for (i, span) in trace.spans.iter().enumerate() {
                let d = descendants.entry(span.method).or_insert_with(Vec::new);
                d.push(stats.descendants[i] as f64);
                let a = ancestors.entry(span.method).or_insert_with(Vec::new);
                a.push(stats.ancestors[i] as f64);
            }
        }
        let reference = |samples: HashMap<MethodId, Vec<f64>>| {
            bits(&MethodHeatmap::from_samples(samples.into_iter().collect(), MIN_SAMPLES).rows)
        };
        let shapes = run.store.tree_shapes(2);
        let heatmap = |stats| bits(&MethodHeatmap::from_stats(stats).rows);
        assert_eq!(shapes.roots, roots);
        assert_eq!(heatmap(&shapes.descendants), reference(descendants));
        assert_eq!(heatmap(&shapes.ancestors), reference(ancestors));
    }

    #[test]
    fn second_read_returns_the_cached_entry() {
        let run = shared();
        for metric in SpanMetric::ALL {
            let first = run.store.method_stats(metric, 2);
            // A different thread budget cannot trigger a rebuild either.
            let second = run.store.method_stats(metric, 1);
            assert!(std::ptr::eq(first, second), "{metric:?} was rebuilt");
        }
        assert!(std::ptr::eq(
            run.store.tree_shapes(2),
            run.store.tree_shapes(1)
        ));
    }

    #[test]
    fn across_methods_matches_rows() {
        let hm = MethodHeatmap::of(shared(), SpanMetric::Latency);
        let medians = hm.across_methods(0.5);
        assert_eq!(medians.len(), hm.len());
        // Sorted output.
        assert!(medians.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fraction_where_counts_correctly() {
        let hm = MethodHeatmap::from_samples(
            vec![
                (rpclens_trace::span::MethodId(0), vec![1.0; 200]),
                (rpclens_trace::span::MethodId(1), vec![10.0; 200]),
            ],
            100,
        );
        assert_eq!(hm.len(), 2);
        assert_eq!(hm.fraction_where(0.5, |v| v > 5.0), 0.5);
        assert_eq!(hm.fraction_where(0.5, |v| v > 0.0), 1.0);
    }

    #[test]
    fn from_samples_enforces_min() {
        let hm = MethodHeatmap::from_samples(
            vec![(rpclens_trace::span::MethodId(0), vec![1.0; 5])],
            100,
        );
        assert!(hm.is_empty());
    }
}
