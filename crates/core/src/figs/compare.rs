//! §2.4's cross-study comparison of call-tree shapes.
//!
//! Regenerates the tree-shape populations of the Alibaba, Meta, and
//! DeathStarBench studies from their published parameters and compares
//! them against this fleet's measured shapes. Paper anchors: every
//! population is wider than deep; this fleet's descendant tails are the
//! largest; DSB's graphs are far smaller than production systems'.

use crate::check::ExpectationSet;
use crate::render::TextTable;
use rpclens_fleet::baselines::{BaselineGenerator, BaselineKind, ShapeSummary, TreeShape};
use rpclens_fleet::driver::FleetRun;

/// One population's shape summary.
#[derive(Debug)]
pub struct PopulationRow {
    /// Population label.
    pub label: String,
    /// Shape summary.
    pub summary: ShapeSummary,
}

/// The computed comparison.
#[derive(Debug)]
pub struct Compare {
    /// This fleet first, then the three baselines.
    pub rows: Vec<PopulationRow>,
}

/// Computes the comparison (baselines sample 20,000 trees each).
pub fn compute(run: &FleetRun) -> Compare {
    // Our fleet's root-tree shapes, from the trace store's index.
    let ours: Vec<TreeShape> = run
        .store
        .tree_shapes(run.telemetry.threads_used)
        .roots
        .iter()
        .map(|&(descendants, depth)| TreeShape { descendants, depth })
        .collect();
    let mut rows = vec![PopulationRow {
        label: "This fleet (measured)".to_string(),
        summary: ShapeSummary::from_shapes(&ours),
    }];
    for kind in BaselineKind::ALL {
        let mut g = BaselineGenerator::new(kind, run.config.scale.seed);
        let shapes = g.sample_n(20_000);
        rows.push(PopulationRow {
            label: kind.label().to_string(),
            summary: ShapeSummary::from_shapes(&shapes),
        });
    }
    Compare { rows }
}

/// Renders the comparison table.
pub fn render(c: &Compare) -> String {
    let mut t = TextTable::new(&[
        "population",
        "median size",
        "P99 size",
        "median depth",
        "P99 depth",
        "max depth",
    ]);
    for r in &c.rows {
        t.row(vec![
            r.label.clone(),
            format!("{:.0}", r.summary.median_size),
            format!("{:.0}", r.summary.p99_size),
            format!("{:.0}", r.summary.median_depth),
            format!("{:.0}", r.summary.p99_depth),
            r.summary.max_depth.to_string(),
        ]);
    }
    format!("§2.4 — Call-tree shapes across studies\n{}", t.render())
}

/// Paper-vs-measured checks.
pub fn checks(c: &Compare) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    let get = |label_frag: &str| {
        c.rows
            .iter()
            .find(|r| r.label.contains(label_frag))
            .map(|r| &r.summary)
            .expect("population exists")
    };
    let ours = get("This fleet");
    let dsb = get("DeathStarBench");
    let alibaba = get("Alibaba");
    // Everyone is wider than deep.
    for r in &c.rows {
        s.add(
            &format!(
                "compare.{}_wider",
                r.label
                    .split_whitespace()
                    .next()
                    .unwrap_or("x")
                    .to_lowercase()
            ),
            "call graphs are wider than they are deep",
            r.summary.p99_size / r.summary.p99_depth.max(1.0),
            1.5,
            f64::INFINITY,
        );
    }
    // Our descendant tail is the biggest (the paper's key difference vs
    // Alibaba).
    s.add(
        "compare.our_tail_largest",
        "this fleet's P99 tree size exceeds the baselines'",
        ours.p99_size / alibaba.p99_size.max(1.0),
        0.8,
        f64::INFINITY,
    );
    // DSB graphs are far smaller.
    s.add(
        "compare.dsb_small",
        "DeathStarBench graphs are much smaller than production trees",
        ours.p99_size / dsb.p99_size.max(1.0),
        2.0,
        f64::INFINITY,
    );
    // Depths are similar across studies (single digits to low tens).
    s.add(
        "compare.depth_similar",
        "call depths are similar across studies",
        ours.p99_depth,
        3.0,
        20.0,
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testrun::shared;

    #[test]
    fn checks_pass_on_test_run() {
        let c = compute(shared());
        let checks = checks(&c);
        assert!(checks.all_passed(), "{checks}");
    }

    #[test]
    fn four_populations() {
        let c = compute(shared());
        assert_eq!(c.rows.len(), 4);
        assert!(render(&c).contains("Alibaba"));
    }
}
