//! Shared extraction helpers used by the figure modules.

use rpclens_fleet::driver::FleetRun;
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_simcore::stats::{percentile, sorted_finite, QuantileSummary};
use rpclens_trace::query::MethodQuery;
use rpclens_trace::span::{MethodId, SpanRecord, TraceData};

/// One row of a per-method "heatmap": the method and its metric quantiles.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// The method.
    pub method: MethodId,
    /// Quantiles of the metric for this method.
    pub summary: QuantileSummary,
}

/// A per-method heatmap, sorted by the median of the metric — the layout
/// every per-method figure in the paper uses.
#[derive(Debug, Clone, Default)]
pub struct MethodHeatmap {
    /// Rows in ascending median order.
    pub rows: Vec<MethodRow>,
}

impl MethodHeatmap {
    /// Builds a heatmap from per-method samples produced by `metric`.
    ///
    /// Methods failing the query's sample-count gate are skipped.
    pub fn build<F>(run: &FleetRun, query: &MethodQuery, metric: F) -> MethodHeatmap
    where
        F: Fn(&TraceData, &SpanRecord) -> f64,
    {
        let mut methods: Vec<MethodId> = run.store.methods().collect();
        methods.sort_unstable();
        let mut rows = Vec::new();
        for method in methods {
            if let Some(samples) = query.samples(&run.store, method, &metric) {
                if let Some(summary) = QuantileSummary::from_samples(samples) {
                    rows.push(MethodRow { method, summary });
                }
            }
        }
        rows.sort_by(|a, b| a.summary.p50.partial_cmp(&b.summary.p50).expect("finite"));
        MethodHeatmap { rows }
    }

    /// Builds a heatmap from precomputed per-method sample vectors.
    ///
    /// Input order does not matter: rows are keyed by method id before the
    /// median sort, so callers may pass samples straight out of a hash map
    /// and still get a deterministic layout.
    pub fn from_samples(samples: Vec<(MethodId, Vec<f64>)>, min_samples: usize) -> MethodHeatmap {
        let mut samples = samples;
        samples.sort_by_key(|(method, _)| *method);
        let mut rows = Vec::new();
        for (method, values) in samples {
            if values.len() < min_samples {
                continue;
            }
            if let Some(summary) = QuantileSummary::from_samples(values) {
                rows.push(MethodRow { method, summary });
            }
        }
        rows.sort_by(|a, b| a.summary.p50.partial_cmp(&b.summary.p50).expect("finite"));
        MethodHeatmap { rows }
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
        let n = self
            .rows
            .iter()
            .filter(|r| r.summary.get(q).map(&pred).unwrap_or(false))
            .count();
        n as f64 / self.rows.len() as f64
    }

    /// The value of quantile `inner` at position `outer` across methods
    /// (e.g. "the P99 latency of the method at the 10th percentile of
    /// methods").
    pub fn quantile_of_quantiles(&self, inner: f64, outer: f64) -> Option<f64> {
        let v = self.across_methods(inner);
        percentile(&v, outer)
    }
}

/// Sums a group of latency components for a span, in seconds.
pub fn component_sum_secs(span: &SpanRecord, components: &[LatencyComponent]) -> f64 {
    components
        .iter()
        .map(|&c| span.component(c).as_secs_f64())
        .sum()
}

/// The default per-method query used by the paper's analyses.
pub fn paper_query() -> MethodQuery {
    MethodQuery::default()
}

/// Collects `(total_latency_secs, span)` over all OK spans in the store.
pub fn all_ok_spans(run: &FleetRun) -> Vec<(f64, &SpanRecord)> {
    let mut out = Vec::new();
    for trace in run.store.traces() {
        for span in &trace.spans {
            if span.is_ok() {
                out.push((span.total_latency().as_secs_f64(), span));
            }
        }
    }
    out
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

    mod common_tests {
        pub use super::super::testrun::shared;
    }

    #[test]
    fn heatmap_is_sorted_by_median() {
        let run = shared();
        let q = paper_query();
        let hm = MethodHeatmap::build(run, &q, |_, s| s.total_latency().as_secs_f64());
        assert!(hm.len() > 30, "{} methods", hm.len());
        assert!(hm
            .rows
            .windows(2)
            .all(|w| w[0].summary.p50 <= w[1].summary.p50));
    }

    #[test]
    fn build_matches_eligible_then_samples_reference() {
        let run = shared();
        let q = paper_query();
        let metric = |_: &TraceData, s: &SpanRecord| s.total_latency().as_secs_f64();
        let mut reference = Vec::new();
        for (method, _) in q.eligible_methods(&run.store) {
            let samples = q.samples(&run.store, method, metric).expect("eligible");
            if let Some(summary) = QuantileSummary::from_samples(samples) {
                reference.push(MethodRow { method, summary });
            }
        }
        reference.sort_by(|a, b| a.summary.p50.partial_cmp(&b.summary.p50).expect("finite"));
        let bits = |rows: &[MethodRow]| -> Vec<(MethodId, usize, [u64; 7])> {
            rows.iter()
                .map(|r| {
                    let s = r.summary;
                    let qs = [s.p01, s.p10, s.p50, s.p90, s.p95, s.p99, s.mean];
                    (r.method, s.count, qs.map(f64::to_bits))
                })
                .collect()
        };
        let hm = MethodHeatmap::build(run, &q, metric);
        assert!(!reference.is_empty());
        assert_eq!(bits(&hm.rows), bits(&reference));
    }

    #[test]
    fn across_methods_matches_rows() {
        let run = shared();
        let q = paper_query();
        let hm = MethodHeatmap::build(run, &q, |_, s| s.total_latency().as_secs_f64());
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

    #[test]
    fn all_ok_spans_excludes_errors() {
        let run = shared();
        let spans = all_ok_spans(run);
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|(_, s)| s.is_ok()));
        assert!((spans.len() as u64) < run.total_spans);
    }
}
