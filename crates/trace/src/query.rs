//! Per-method trace queries with the paper's filters.
//!
//! The paper's per-method analyses (§2.1) apply three rules that this
//! module encodes once so every figure uses identical semantics:
//!
//! 1. Only methods with ≥ 100 samples are analysed (so P99 is defined).
//! 2. Erroneous RPCs are excluded from latency distributions.
//! 3. Some figures restrict to intra-cluster calls (client and server in
//!    the same cluster).

use crate::collector::TraceStore;
use crate::span::{MethodId, SpanRecord, TraceData};
use rpclens_netsim::topology::ClusterId;
use rpclens_rpcstack::component::LatencyComponent;

/// The paper's minimum sample count for per-method statistics.
pub const MIN_SAMPLES: usize = 100;

/// A reusable per-method query over a [`TraceStore`].
#[derive(Debug, Clone, Copy)]
pub struct MethodQuery {
    /// Drop erroneous spans (the paper's latency rule).
    pub exclude_errors: bool,
    /// Keep only spans whose client and server share a cluster.
    pub intra_cluster_only: bool,
    /// Keep only spans served from this cluster (for per-cluster views).
    pub server_cluster: Option<ClusterId>,
    /// Minimum number of samples for a method to be reported.
    pub min_samples: usize,
}

impl Default for MethodQuery {
    fn default() -> Self {
        MethodQuery {
            exclude_errors: true,
            intra_cluster_only: false,
            server_cluster: None,
            min_samples: MIN_SAMPLES,
        }
    }
}

impl MethodQuery {
    /// A query that keeps everything (for error accounting).
    pub fn unfiltered() -> Self {
        MethodQuery {
            exclude_errors: false,
            intra_cluster_only: false,
            server_cluster: None,
            min_samples: 1,
        }
    }

    /// Whether a span passes this query's filters.
    pub fn accepts(&self, span: &SpanRecord) -> bool {
        if self.exclude_errors && !span.is_ok() {
            return false;
        }
        if self.intra_cluster_only && span.client_cluster != span.server_cluster {
            return false;
        }
        if let Some(c) = self.server_cluster {
            if span.server_cluster != c {
                return false;
            }
        }
        true
    }

    /// Extracts a per-span metric for one method, or `None` if fewer than
    /// `min_samples` spans pass the filters.
    pub fn samples<F>(&self, store: &TraceStore, method: MethodId, f: F) -> Option<Vec<f64>>
    where
        F: Fn(&TraceData, &SpanRecord) -> f64,
    {
        let mut out = Vec::new();
        store.for_each_span(method, |trace, span| {
            if self.accepts(span) {
                out.push(f(trace, span));
            }
        });
        (out.len() >= self.min_samples).then_some(out)
    }

    /// Per-method completion-time samples in seconds.
    pub fn latency_samples(&self, store: &TraceStore, method: MethodId) -> Option<Vec<f64>> {
        self.samples(store, method, |_, s| s.total_latency().as_secs_f64())
    }

    /// Per-method samples of one latency component, in seconds.
    pub fn component_samples(
        &self,
        store: &TraceStore,
        method: MethodId,
        c: LatencyComponent,
    ) -> Option<Vec<f64>> {
        self.samples(store, method, move |_, s| s.component(c).as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SpanMetric;
    use crate::span::{ServiceId, SpanBuilder};
    use rpclens_rpcstack::component::LatencyBreakdown;
    use rpclens_rpcstack::error::ErrorKind;
    use rpclens_simcore::time::{SimDuration, SimTime};

    fn make_store() -> TraceStore {
        let mut store = TraceStore::new();
        for i in 0..150u64 {
            let mut b = LatencyBreakdown::new();
            b.set(
                LatencyComponent::ServerApplication,
                SimDuration::from_micros(1000 + i),
            );
            b.set(
                LatencyComponent::ServerRecvQueue,
                SimDuration::from_micros(10),
            );
            let mut builder = SpanBuilder::new(
                MethodId(1),
                ServiceId(0),
                ClusterId(0),
                ClusterId(if i % 3 == 0 { 0 } else { 1 }),
            )
            .breakdown(b);
            if i % 10 == 0 {
                builder = builder.error(ErrorKind::Unavailable);
            }
            let root = builder.build();
            let child = SpanBuilder::new(MethodId(2), ServiceId(0), ClusterId(1), ClusterId(1))
                .parent(0)
                .build();
            store.add(TraceData::new(SimTime::ZERO, vec![root, child]));
        }
        store
    }

    #[test]
    fn errors_are_excluded_by_default() {
        let store = make_store();
        let q = MethodQuery::default();
        let samples = q.latency_samples(&store, MethodId(1)).unwrap();
        assert_eq!(samples.len(), 135); // 150 minus 15 errors.
        let all = MethodQuery::unfiltered()
            .latency_samples(&store, MethodId(1))
            .unwrap();
        assert_eq!(all.len(), 150);
    }

    #[test]
    fn intra_cluster_filter_applies() {
        let store = make_store();
        let q = MethodQuery {
            intra_cluster_only: true,
            exclude_errors: false,
            min_samples: 1,
            ..MethodQuery::default()
        };
        let samples = q.latency_samples(&store, MethodId(1)).unwrap();
        assert_eq!(samples.len(), 50); // Every third span is same-cluster.
    }

    #[test]
    fn server_cluster_filter_applies() {
        let store = make_store();
        let q = MethodQuery {
            server_cluster: Some(ClusterId(1)),
            exclude_errors: false,
            min_samples: 1,
            ..MethodQuery::default()
        };
        let samples = q.latency_samples(&store, MethodId(1)).unwrap();
        assert_eq!(samples.len(), 100);
    }

    #[test]
    fn min_samples_gate_enforced() {
        let store = make_store();
        let q = MethodQuery {
            min_samples: 1000,
            ..MethodQuery::default()
        };
        assert!(q.latency_samples(&store, MethodId(1)).is_none());
    }

    #[test]
    fn component_samples_extract_one_component() {
        let store = make_store();
        let q = MethodQuery::default();
        let queue = q
            .component_samples(&store, MethodId(1), LatencyComponent::ServerRecvQueue)
            .unwrap();
        assert!(queue.iter().all(|&s| (s - 10e-6).abs() < 1e-9));
    }

    #[test]
    fn eligible_methods_sorted_and_counted() {
        // The index holds the methods passing the paper query's gate.
        let store = make_store();
        let rows = store.method_stats(SpanMetric::Latency, 1).rows();
        let methods: Vec<_> = rows.iter().map(|r| (r.method, r.summary.count)).collect();
        assert_eq!(methods, vec![(MethodId(1), 135), (MethodId(2), 150)]);
    }

    #[test]
    fn tree_shape_samples_cover_all_spans() {
        // Errors included: all 150 spans of each method are summarised.
        let store = make_store();
        let shapes = store.tree_shapes(1);
        let d = shapes.descendants.get(MethodId(1)).expect("method 1");
        assert_eq!(d.count, 150);
        assert!(d.p01 == 1.0 && d.p99 == 1.0);
        let a = shapes.ancestors.get(MethodId(2)).expect("method 2");
        assert_eq!(a.count, 150);
        assert!(a.p01 == 1.0 && a.p99 == 1.0);
        assert_eq!(shapes.roots, vec![(1, 1); 150]);
    }
}
