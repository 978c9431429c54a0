//! The per-method analysis index: the per-method statistics the paper's
//! figures read (Figs. 2–7, 10–13, 21, §2.4), built once per store.
//!
//! [`TraceStore::method_stats`] and [`TraceStore::tree_shapes`] fill one
//! entry on its first read and return the cached entry on every later
//! one — "parse once, analyse many" — so the first figure to need a
//! metric pays for that metric alone. A fill summarises contiguous method
//! chunks on [`run_shards`] and folds them in method order: every entry
//! is the same at any thread count, and bit-identical to
//! [`MethodQuery::samples`] followed by [`QuantileSummary::from_samples`].

use crate::collector::TraceStore;
use crate::query::{MethodQuery, MIN_SAMPLES};
use crate::span::{MethodId, SpanRecord};
use crate::tree::TreeStats;
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_simcore::pool::run_shards;
use rpclens_simcore::stats::{sorted_finite, QuantileSummary};
use std::sync::OnceLock;

/// A per-span metric the per-method figures summarise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanMetric {
    /// Completion time, seconds (Figs. 2, 3, 10 and 21).
    Latency,
    /// Request payload bytes (Figs. 6 and 21).
    RequestBytes,
    /// Response payload bytes (Fig. 6).
    ResponseBytes,
    /// Response bytes over request bytes, at least one (Fig. 7).
    SizeRatio,
    /// Latency tax over completion time (Fig. 11).
    TaxRatio,
    /// Network wire plus RPC processing latency, both ways, seconds
    /// (Fig. 12).
    WireAndStack,
    /// Latency of the four queues, seconds (Fig. 13).
    Queueing,
}

impl SpanMetric {
    /// Every metric, in cache-slot order.
    pub const ALL: [SpanMetric; 7] = [
        SpanMetric::Latency,
        SpanMetric::RequestBytes,
        SpanMetric::ResponseBytes,
        SpanMetric::SizeRatio,
        SpanMetric::TaxRatio,
        SpanMetric::WireAndStack,
        SpanMetric::Queueing,
    ];

    /// The metric's value for one span.
    pub fn of(self, span: &SpanRecord) -> f64 {
        let secs = |components: &[LatencyComponent]| -> f64 {
            components
                .iter()
                .map(|&c| span.component(c).as_secs_f64())
                .sum()
        };
        match self {
            SpanMetric::Latency => span.total_latency().as_secs_f64(),
            SpanMetric::RequestBytes => span.request_bytes as f64,
            SpanMetric::ResponseBytes => span.response_bytes as f64,
            SpanMetric::SizeRatio => {
                span.response_bytes as f64 / (span.request_bytes as f64).max(1.0)
            }
            SpanMetric::TaxRatio => span.breakdown().tax_ratio().unwrap_or(0.0),
            SpanMetric::WireAndStack => secs(&[
                LatencyComponent::RequestNetworkWire,
                LatencyComponent::ResponseNetworkWire,
                LatencyComponent::RequestProcessing,
                LatencyComponent::ResponseProcessing,
            ]),
            SpanMetric::Queueing => secs(&[
                LatencyComponent::ClientSendQueue,
                LatencyComponent::ServerRecvQueue,
                LatencyComponent::ServerSendQueue,
                LatencyComponent::ClientRecvQueue,
            ]),
        }
    }
}

/// One method's quantile summary of a metric.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// The method.
    pub method: MethodId,
    /// Quantiles of the metric for this method.
    pub summary: QuantileSummary,
}

/// Per-method summaries of one metric, in ascending method id, with a
/// dense lookup by method id.
#[derive(Debug, Clone, Default)]
pub struct MethodStats {
    rows: Vec<MethodRow>,
    /// Row position by method id; `u32::MAX` where the method has no row.
    slot: Vec<u32>,
}

impl MethodStats {
    /// Summarises `metric` for every method with at least
    /// [`MIN_SAMPLES`] spans passing the paper's query, on up to
    /// `threads` workers. This is the uncached builder behind
    /// [`TraceStore::method_stats`].
    pub fn build(store: &TraceStore, metric: SpanMetric, threads: usize) -> MethodStats {
        let query = MethodQuery::default();
        summarise_methods(store, threads, |span, _| {
            query.accepts(span).then(|| metric.of(span))
        })
    }

    /// The rows, in ascending method id.
    pub fn rows(&self) -> &[MethodRow] {
        &self.rows
    }

    /// The summary of `method`, if it has a row.
    pub fn get(&self, method: MethodId) -> Option<&QuantileSummary> {
        let &i = self.slot.get(method.0 as usize)?;
        self.rows.get(i as usize).map(|r| &r.summary)
    }
}

/// Tree shapes (§2.4): per-method descendant and ancestor counts over
/// every span, errors included, plus each trace's root shape.
#[derive(Debug, Clone, Default)]
pub struct TreeShapes {
    /// Per-method descendant-count summaries (Figs. 4 and 5).
    pub descendants: MethodStats,
    /// Per-method ancestor-count summaries (Fig. 5).
    pub ancestors: MethodStats,
    /// `(root descendants, max depth)` of every trace, in store order
    /// (the §2.4 comparison).
    pub roots: Vec<(u32, u32)>,
}

impl TreeShapes {
    /// Computes one [`TreeStats`] per trace, then summarises both counts
    /// for every method with at least [`MIN_SAMPLES`] spans on up to
    /// `threads` workers. This is the uncached builder behind
    /// [`TraceStore::tree_shapes`].
    pub fn build(store: &TraceStore, threads: usize) -> TreeShapes {
        let mut first_span = Vec::with_capacity(store.len());
        let mut roots = Vec::with_capacity(store.len());
        let mut descendants = Vec::with_capacity(store.total_spans());
        let mut ancestors = Vec::with_capacity(store.total_spans());
        for trace in store.traces() {
            let stats = TreeStats::compute(trace);
            first_span.push(descendants.len());
            roots.push((stats.descendants[0], stats.max_depth));
            descendants.extend(stats.descendants);
            ancestors.extend(stats.ancestors);
        }
        let column = |values: &[u32]| {
            summarise_methods(store, threads, |_, (t, s)| {
                Some(values[first_span[t as usize] + s as usize] as f64)
            })
        };
        TreeShapes {
            descendants: column(&descendants),
            ancestors: column(&ancestors),
            roots,
        }
    }
}

/// The cached entries of one store: a slot per [`SpanMetric`] plus the
/// tree shapes. Cleared whenever the store changes.
#[derive(Debug, Default)]
pub(crate) struct AnalysisCache {
    spans: [OnceLock<MethodStats>; SpanMetric::ALL.len()],
    shapes: OnceLock<TreeShapes>,
}

impl TraceStore {
    /// The per-method summaries of `metric` under the paper's query,
    /// built with up to `threads` workers on first use and cached; later
    /// reads return the same entry whatever `threads` they pass.
    pub fn method_stats(&self, metric: SpanMetric, threads: usize) -> &MethodStats {
        self.analysis.spans[metric as usize]
            .get_or_init(|| MethodStats::build(self, metric, threads))
    }

    /// The tree shapes, built with up to `threads` workers on first use
    /// and cached like [`TraceStore::method_stats`].
    pub fn tree_shapes(&self, threads: usize) -> &TreeShapes {
        self.analysis
            .shapes
            .get_or_init(|| TreeShapes::build(self, threads))
    }
}

/// Summarises, for every method with at least [`MIN_SAMPLES`] values,
/// the values `value` returns for its spans, given each span and its
/// `(trace, span)` location. Methods are split into contiguous chunks of
/// about equal span counts, summarised on up to `threads` workers and
/// folded in ascending method id.
fn summarise_methods(
    store: &TraceStore,
    threads: usize,
    value: impl Fn(&SpanRecord, (u32, u32)) -> Option<f64> + Sync,
) -> MethodStats {
    let mut methods: Vec<MethodId> = store.methods().collect();
    methods.sort_unstable();
    let per_chunk = store.total_spans().div_ceil(threads.max(1));
    let mut chunks: Vec<&[MethodId]> = Vec::new();
    let (mut start, mut load) = (0, 0);
    for (i, &method) in methods.iter().enumerate() {
        load += store.spans_of(method).len();
        if load >= per_chunk || i + 1 == methods.len() {
            chunks.push(&methods[start..=i]);
            (start, load) = (i + 1, 0);
        }
    }
    let summarise_chunk = |i: usize| {
        let mut buf = Vec::new();
        let mut rows = Vec::new();
        for &method in chunks[i] {
            buf.clear();
            for &(t, s) in store.spans_of(method) {
                let span = &store.traces()[t as usize].spans[s as usize];
                buf.extend(value(span, (t, s)));
            }
            if buf.len() < MIN_SAMPLES {
                continue;
            }
            // Keep the allocation for the next method.
            let sorted = sorted_finite(std::mem::take(&mut buf));
            if let Some(summary) = QuantileSummary::from_sorted(&sorted) {
                rows.push(MethodRow { method, summary });
            }
            buf = sorted;
        }
        rows
    };
    let rows = match chunks.len() {
        0 => Vec::new(),
        n => run_shards(
            n,
            threads,
            summarise_chunk,
            |acc: &mut Vec<MethodRow>, next| acc.extend(next),
        ),
    };
    let mut slot = vec![u32::MAX; rows.last().map_or(0, |r| r.method.0 as usize + 1)];
    for (i, row) in rows.iter().enumerate() {
        slot[row.method.0 as usize] = i as u32;
    }
    MethodStats { rows, slot }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ServiceId, SpanBuilder, TraceData};
    use rpclens_netsim::topology::ClusterId;
    use rpclens_rpcstack::component::LatencyBreakdown;
    use rpclens_rpcstack::error::ErrorKind;
    use rpclens_simcore::rng::Prng;
    use rpclens_simcore::time::{SimDuration, SimTime};

    /// 2,400 chain traces of one to four spans over twelve methods
    /// (method `4 * (t % 3) + depth`), with random component latencies
    /// and sizes, and an error every seventh span.
    fn store() -> TraceStore {
        let mut rng = Prng::seed_from(11);
        let mut store = TraceStore::new();
        for t in 0..2_400u32 {
            let spans = (0..1 + t % 4)
                .map(|i| {
                    let mut b = LatencyBreakdown::new();
                    for c in LatencyComponent::ALL {
                        b.set(c, SimDuration::from_micros(rng.index(5_000) as u64));
                    }
                    let client = ClusterId(rng.index(2) as u16);
                    let method = MethodId(4 * (t % 3) + i);
                    let mut s = SpanBuilder::new(method, ServiceId(0), client, ClusterId(0))
                        .breakdown(b)
                        .sizes(rng.index(9_000) as u64, rng.index(9_000) as u64);
                    if i > 0 {
                        s = s.parent(i - 1);
                    }
                    if (t + i) % 7 == 0 {
                        s = s.error(ErrorKind::Unavailable);
                    }
                    s.build()
                })
                .collect();
            store.add(TraceData::new(SimTime::ZERO, spans));
        }
        store
    }

    fn bits(stats: &MethodStats) -> Vec<(MethodId, usize, [u64; 7])> {
        let row = |r: &MethodRow| {
            let s = r.summary;
            let qs = [s.p01, s.p10, s.p50, s.p90, s.p95, s.p99, s.mean];
            (r.method, s.count, qs.map(f64::to_bits))
        };
        stats.rows().iter().map(row).collect()
    }

    #[test]
    fn entries_are_thread_invariant() {
        let store = store();
        let shapes = |threads| {
            let s = TreeShapes::build(&store, threads);
            (bits(&s.descendants), bits(&s.ancestors), s.roots)
        };
        let one_shapes = shapes(1);
        // Every span of a depth-3 method sits exactly three deep.
        let depth3 = one_shapes.1.iter().filter(|r| r.2[2] == 3.0f64.to_bits());
        assert_eq!((one_shapes.1.len(), depth3.count()), (12, 3));
        // 2 and 7 split the twelve methods unevenly; 15 is more threads
        // than methods.
        let threads = [2, 7, store.methods().count() + 3];
        for metric in SpanMetric::ALL {
            let one = bits(&MethodStats::build(&store, metric, 1));
            assert_eq!(one.len(), 12, "{metric:?}");
            for t in threads {
                let many = MethodStats::build(&store, metric, t);
                assert_eq!(bits(&many), one, "{metric:?} threads={t}");
            }
        }
        for t in threads {
            assert!(shapes(t) == one_shapes, "tree shapes differ at threads={t}");
        }
    }

    #[test]
    fn adding_a_trace_drops_cached_entries() {
        let mut store = store();
        let before = store.method_stats(SpanMetric::Latency, 2).rows()[0].summary;
        assert_eq!(store.tree_shapes(2).roots.len(), 2_400);
        let root = SpanBuilder::new(MethodId(0), ServiceId(0), ClusterId(0), ClusterId(0));
        store.add(TraceData::new(SimTime::ZERO, vec![root.build()]));
        let after = store.method_stats(SpanMetric::Latency, 2).rows()[0].summary;
        assert_eq!(after.count, before.count + 1);
        assert_eq!(store.tree_shapes(2).roots.len(), 2_401);
    }

    #[test]
    fn an_empty_store_has_empty_entries() {
        let store = TraceStore::new();
        assert!(store.method_stats(SpanMetric::Latency, 2).rows().is_empty());
        assert!(store.tree_shapes(2).roots.is_empty());
    }
}
