//! Table 2: the exogenous variables and their observed fleet ranges.

use crate::check::ExpectationSet;
use crate::render::TextTable;
use rpclens_cluster::exogenous::ExogenousVars;
use rpclens_fleet::driver::{FleetRun, ServiceSite};
use rpclens_fleet::pool::run_shards;
use rpclens_simcore::time::{SimDuration, SimTime};

/// One variable's definition and observed range.
#[derive(Debug)]
pub struct VariableRow {
    /// Variable name (Table 2).
    pub name: &'static str,
    /// Description (Table 2).
    pub description: &'static str,
    /// Minimum day-average observed across sites.
    pub min: f64,
    /// Maximum day-average observed across sites.
    pub max: f64,
}

/// The computed table.
#[derive(Debug)]
pub struct Table2 {
    /// The four variables.
    pub rows: Vec<VariableRow>,
}

/// Each site's day average, in site order.
///
/// The sites are split into `threads` contiguous chunks averaged on the
/// shard pool, which folds them in chunk order, so the result is the same
/// at every thread count; with one thread nothing is spawned.
pub(crate) fn day_averages(sites: &[ServiceSite], threads: usize) -> Vec<ExogenousVars> {
    if sites.is_empty() {
        return Vec::new();
    }
    let day = SimDuration::from_hours(24);
    let chunks: Vec<&[ServiceSite]> = sites.chunks(sites.len().div_ceil(threads.max(1))).collect();
    run_shards(
        chunks.len(),
        threads,
        |i| {
            chunks[i]
                .iter()
                .map(|site| site.load.window_average(SimTime::ZERO, day))
                .collect()
        },
        |acc: &mut Vec<ExogenousVars>, next| acc.extend(next),
    )
}

/// Computes observed ranges across all deployment sites, sweeping them
/// on the run's own thread budget.
pub fn compute(run: &FleetRun) -> Table2 {
    let mut ranges = [[f64::MAX, f64::MIN]; 4];
    let sites = run.sites.values().as_slice();
    for v in day_averages(sites, run.telemetry.threads_used) {
        let vals = [v.cpu_util * 100.0, v.mem_bw_gbps, v.long_wakeup_rate, v.cpi];
        for (r, val) in ranges.iter_mut().zip(vals) {
            r[0] = r[0].min(val);
            r[1] = r[1].max(val);
        }
    }
    let defs = [
        ("CPU util", "% CPU utilized"),
        ("Memory BW", "Total memory bandwidth utilized (GB/s)"),
        (
            "Long wakeup rate",
            "Fraction of scheduling events longer than 50 us",
        ),
        ("Cycles per Inst.", "CPU's cycles per instruction"),
    ];
    Table2 {
        rows: defs
            .iter()
            .zip(ranges)
            .map(|(&(name, description), r)| VariableRow {
                name,
                description,
                min: r[0],
                max: r[1],
            })
            .collect(),
    }
}

/// Renders the table.
pub fn render(t2: &Table2) -> String {
    let mut t = TextTable::new(&["variable", "description", "observed range"]);
    for r in &t2.rows {
        t.row(vec![
            r.name.to_string(),
            r.description.to_string(),
            format!("{:.3} .. {:.3}", r.min, r.max),
        ]);
    }
    format!("Table 2 — Exogenous variables\n{}", t.render())
}

/// Checks the observed ranges are physically sensible.
pub fn checks(t2: &Table2) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    let row = |name: &str| t2.rows.iter().find(|r| r.name == name).expect("row");
    let cpu = row("CPU util");
    s.add(
        "table2.cpu_min",
        "CPU util spans a wide range",
        cpu.min,
        0.0,
        50.0,
    );
    s.add("table2.cpu_max", "hot sites run high", cpu.max, 50.0, 100.0);
    let bw = row("Memory BW");
    s.add(
        "table2.membw",
        "memory bandwidth in tens of GB/s",
        bw.max,
        30.0,
        130.0,
    );
    let wk = row("Long wakeup rate");
    s.add(
        "table2.wakeup",
        "long-wakeup rate is a small fraction",
        wk.max,
        0.001,
        0.2,
    );
    let cpi = row("Cycles per Inst.");
    s.add("table2.cpi", "CPI near 1-2", cpi.max, 0.9, 2.5);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testrun::shared;

    #[test]
    fn checks_pass_on_test_run() {
        let t2 = compute(shared());
        let c = checks(&t2);
        assert!(c.all_passed(), "{c}");
    }

    #[test]
    fn day_averages_are_thread_invariant() {
        let sites = shared().sites.values().as_slice();
        let bits = |threads| -> Vec<[u64; 4]> {
            day_averages(sites, threads)
                .iter()
                .map(|v| [v.cpu_util, v.mem_bw_gbps, v.long_wakeup_rate, v.cpi].map(f64::to_bits))
                .collect()
        };
        let one = bits(1);
        assert_eq!(one.len(), sites.len());
        for threads in [2, 7, sites.len() + 3] {
            assert_eq!(bits(threads), one, "threads={threads}");
        }
        assert!(day_averages(&[], 4).is_empty());
    }

    #[test]
    fn four_variables_with_ranges() {
        let t2 = compute(shared());
        assert_eq!(t2.rows.len(), 4);
        for r in &t2.rows {
            assert!(r.min <= r.max, "{}: {} > {}", r.name, r.min, r.max);
        }
        assert!(render(&t2).contains("Long wakeup rate"));
    }
}
