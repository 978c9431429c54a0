//! Metric kinds, values, labels, and descriptors.

use rpclens_simcore::hist::LogHistogram;
use rpclens_simcore::time::SimDuration;
use std::fmt;

/// The kind of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// A monotonically non-decreasing cumulative count.
    Counter,
    /// A point-in-time measurement.
    Gauge,
    /// A histogram-valued sample (Monarch's distribution points).
    Distribution,
}

/// One sampled value.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Cumulative counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Distribution reading (values recorded within the window).
    Distribution(LogHistogram),
}

impl MetricValue {
    /// The kind of this value.
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Distribution(_) => MetricKind::Distribution,
        }
    }

    /// The counter reading, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge reading, if this is a gauge.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The distribution, if this is a distribution.
    pub fn as_distribution(&self) -> Option<&LogHistogram> {
        match self {
            MetricValue::Distribution(h) => Some(h),
            _ => None,
        }
    }
}

/// A canonical (sorted, deduplicated) label set identifying one series.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    /// The empty label set.
    pub fn empty() -> Self {
        Labels(Vec::new())
    }

    /// Builds a canonical label set from pairs; later duplicates win.
    pub fn from_pairs<I, K, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        let mut v: Vec<(String, String)> = pairs
            .into_iter()
            .map(|(k, val)| (k.into(), val.into()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v.dedup_by(|a, b| {
            if a.0 == b.0 {
                // Keep the later pair's value (which is `a` after reverse
                // iteration order of dedup_by): copy it into `b`.
                std::mem::swap(&mut a.1, &mut b.1);
                true
            } else {
                false
            }
        });
        Labels(v)
    }

    /// Looks up a label value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.0[i].1.as_str())
    }

    /// Iterates `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns a copy with one label added or replaced.
    pub fn with(&self, key: &str, value: &str) -> Labels {
        let mut pairs: Vec<(String, String)> = self.0.clone();
        match pairs.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => pairs[i].1 = value.to_string(),
            Err(i) => pairs.insert(i, (key.to_string(), value.to_string())),
        }
        Labels(pairs)
    }
}

impl fmt::Display for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

/// Static description of a metric: its name, kind, and retention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDescriptor {
    /// Metric name, e.g. `rpc/server/latency`.
    pub name: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// How long points are retained (the paper mixes 700-day and 30-day
    /// retentions).
    pub retention: SimDuration,
}

impl MetricDescriptor {
    /// A counter with the given retention.
    pub fn counter(name: &str, retention: SimDuration) -> Self {
        MetricDescriptor {
            name: name.to_string(),
            kind: MetricKind::Counter,
            retention,
        }
    }

    /// A gauge with the given retention.
    pub fn gauge(name: &str, retention: SimDuration) -> Self {
        MetricDescriptor {
            name: name.to_string(),
            kind: MetricKind::Gauge,
            retention,
        }
    }

    /// A distribution with the given retention.
    pub fn distribution(name: &str, retention: SimDuration) -> Self {
        MetricDescriptor {
            name: name.to_string(),
            kind: MetricKind::Distribution,
            retention,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_canonicalize_order() {
        let a = Labels::from_pairs([("b", "2"), ("a", "1")]);
        let b = Labels::from_pairs([("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.get("a"), Some("1"));
        assert_eq!(a.get("b"), Some("2"));
        assert_eq!(a.get("c"), None);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn labels_display_is_sorted() {
        let l = Labels::from_pairs([("zone", "us"), ("app", "x")]);
        assert_eq!(l.to_string(), "{app=x,zone=us}");
        assert_eq!(Labels::empty().to_string(), "{}");
    }

    #[test]
    fn with_adds_or_replaces() {
        let l = Labels::from_pairs([("a", "1")]);
        let l2 = l.with("b", "2").with("a", "9");
        assert_eq!(l2.get("a"), Some("9"));
        assert_eq!(l2.get("b"), Some("2"));
        // Original is untouched.
        assert_eq!(l.get("a"), Some("1"));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn value_kind_accessors() {
        let c = MetricValue::Counter(5);
        let g = MetricValue::Gauge(2.5);
        let mut h = LogHistogram::new();
        h.record(1);
        let d = MetricValue::Distribution(h);
        assert_eq!(c.kind(), MetricKind::Counter);
        assert_eq!(c.as_counter(), Some(5));
        assert_eq!(c.as_gauge(), None);
        assert_eq!(g.as_gauge(), Some(2.5));
        assert!(d.as_distribution().is_some());
        assert_eq!(d.kind(), MetricKind::Distribution);
    }

    #[test]
    fn descriptor_constructors_set_kind() {
        let r = SimDuration::from_hours(1);
        assert_eq!(MetricDescriptor::counter("c", r).kind, MetricKind::Counter);
        assert_eq!(MetricDescriptor::gauge("g", r).kind, MetricKind::Gauge);
        assert_eq!(
            MetricDescriptor::distribution("d", r).kind,
            MetricKind::Distribution
        );
    }
}
