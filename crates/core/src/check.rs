//! Paper-vs-measured expectation checks.
//!
//! Absolute numbers cannot be expected to match a production fleet, but
//! the *shapes* — who wins, by roughly what factor, where crossovers fall
//! — should. Each figure emits [`Expectation`]s with generous bands; the
//! repro harness prints them and EXPERIMENTS.md records them.

use std::fmt;

/// One paper-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct Expectation {
    /// Short id, e.g. `fig2.p99_ge_1ms`.
    pub id: String,
    /// What the paper reports.
    pub paper: String,
    /// The measured value.
    pub measured: f64,
    /// Accepted band (inclusive).
    pub band: (f64, f64),
}

impl Expectation {
    /// Creates an expectation.
    pub fn new(id: &str, paper: &str, measured: f64, lo: f64, hi: f64) -> Self {
        Expectation {
            id: id.to_string(),
            paper: paper.to_string(),
            measured,
            band: (lo, hi),
        }
    }

    /// Whether the measured value falls in the band.
    pub fn passed(&self) -> bool {
        self.measured.is_finite() && self.measured >= self.band.0 && self.measured <= self.band.1
    }
}

impl fmt::Display for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: measured {:.4} (band {:.4}..{:.4}) — paper: {}",
            if self.passed() { "PASS" } else { "MISS" },
            self.id,
            self.measured,
            self.band.0,
            self.band.1,
            self.paper
        )
    }
}

/// A collection of expectations for one figure or table.
#[derive(Debug, Clone, Default)]
pub struct ExpectationSet {
    /// The expectations, in declaration order.
    pub items: Vec<Expectation>,
}

impl ExpectationSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an expectation.
    pub fn push(&mut self, e: Expectation) {
        self.items.push(e);
    }

    /// Convenience: add by parts.
    pub fn add(&mut self, id: &str, paper: &str, measured: f64, lo: f64, hi: f64) {
        self.push(Expectation::new(id, paper, measured, lo, hi));
    }

    /// Number of passing expectations.
    pub fn passed(&self) -> usize {
        self.items.iter().filter(|e| e.passed()).count()
    }

    /// Whether all expectations pass.
    pub fn all_passed(&self) -> bool {
        self.passed() == self.items.len()
    }

    /// The ids of failing expectations.
    pub fn failures(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter(|e| !e.passed())
            .map(|e| e.id.as_str())
            .collect()
    }

    /// Merges another set into this one.
    pub fn extend(&mut self, other: ExpectationSet) {
        self.items.extend(other.items);
    }
}

impl fmt::Display for ExpectationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.items {
            writeln!(f, "{e}")?;
        }
        write!(f, "{}/{} checks passed", self.passed(), self.items.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_and_fail_detection() {
        let ok = Expectation::new("x", "p", 0.5, 0.4, 0.6);
        assert!(ok.passed());
        let low = Expectation::new("x", "p", 0.3, 0.4, 0.6);
        assert!(!low.passed());
        let nan = Expectation::new("x", "p", f64::NAN, 0.0, 1.0);
        assert!(!nan.passed());
        // Band edges are inclusive.
        assert!(Expectation::new("x", "p", 0.4, 0.4, 0.6).passed());
        assert!(Expectation::new("x", "p", 0.6, 0.4, 0.6).passed());
    }

    #[test]
    fn set_aggregation() {
        let mut s = ExpectationSet::new();
        s.add("a", "p", 1.0, 0.0, 2.0);
        s.add("b", "p", 5.0, 0.0, 2.0);
        assert_eq!(s.passed(), 1);
        assert!(!s.all_passed());
        assert_eq!(s.failures(), vec!["b"]);
        let mut t = ExpectationSet::new();
        t.add("c", "p", 1.0, 0.0, 2.0);
        s.extend(t);
        assert_eq!(s.items.len(), 3);
        assert_eq!(s.passed(), 2);
    }

    #[test]
    fn display_includes_verdict() {
        let e = Expectation::new("fig.x", "paper says y", 0.5, 0.4, 0.6);
        let text = e.to_string();
        assert!(text.contains("PASS"));
        assert!(text.contains("fig.x"));
        let mut s = ExpectationSet::new();
        s.push(e);
        assert!(s.to_string().contains("1/1 checks passed"));
    }
}
