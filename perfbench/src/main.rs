//! One repetition of one rpclens benchmark workload.
//!
//! ```text
//! rpclens-perfbench <workload> --seed N [--trace] [--spans FILE]
//! ```
//!
//! Each repetition runs in a fresh process, so `peak_rss_mb` (the
//! process's `VmHWM`) never carries over between repetitions or
//! workloads. The process prints one JSON object: the repetition's
//! metrics, the values `perfbench/run.py` compares against the pinned
//! ones, and how many operations ran and failed. With `--trace` it also
//! records a span around every layer call, appends the spans to `FILE`
//! as JSON lines when it ends, and adds per-name totals (count, total
//! and self nanoseconds) to its output. `perfbench/run.py` drives this
//! binary; see `perfbench/README.md`.

mod sim;
mod span;
mod wire;

use rpclens_obs::json::Json;
use span::Tracer;
use std::collections::BTreeMap;
use std::io::Write;

/// Named metric values of one repetition.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// The outcome of one repetition.
pub struct Rep {
    /// Every metric the repetition measured.
    pub metrics: Metrics,
    /// Deterministic outputs that must equal the pinned values.
    pub pins: Vec<(&'static str, String)>,
    /// Operations run (one fleet run, or one call per RPC).
    pub operations: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`) in KiB, or 0
/// where procfs is unavailable.
pub fn vm_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Nearest-rank percentile of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn usage() -> ! {
    eprintln!(
        "usage: rpclens-perfbench <figures-default|fleet-sampled|incident-control|wire-memlink> \
         --seed N [--trace] [--spans FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(workload) = args.next() else { usage() };
    let mut seed = None;
    let mut traced = false;
    let mut spans_path = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => traced = true,
            "--spans" => spans_path = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let Some(seed) = seed else { usage() };

    let mut tracer = Tracer::new(traced);
    let rep = if workload == "wire-memlink" {
        wire::run(seed, &mut tracer)
    } else {
        let Some(w) = sim::SimWorkload::by_name(&workload, seed) else {
            eprintln!("unknown workload {workload}");
            usage();
        };
        sim::run(&w, &mut tracer)
    };

    if let Some(path) = spans_path {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("open span file {path}: {e}"));
        let mut out = std::io::BufWriter::new(file);
        let run_id = format!("{workload}-{seed}-{}", std::process::id());
        tracer
            .write_jsonl(&mut out, &run_id)
            .and_then(|()| out.flush())
            .unwrap_or_else(|e| panic!("write span file {path}: {e}"));
    }

    let spans = tracer
        .totals()
        .into_iter()
        .map(|(name, t)| {
            let row = [t.count, t.total_ns, t.self_ns].map(|v| Json::Uint(u128::from(v)));
            (name, Json::Array(row.to_vec()))
        })
        .collect();
    let json = Json::obj([
        ("workload", Json::Str(workload)),
        ("seed", Json::Uint(u128::from(seed))),
        ("traced", Json::Bool(traced)),
        ("operations", Json::Uint(u128::from(rep.operations))),
        ("failed", Json::Uint(u128::from(rep.failed))),
        (
            "pins",
            Json::Object(
                rep.pins
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v)))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Object(
                rep.metrics
                    .0
                    .into_iter()
                    .map(|(k, v)| (k, Json::Float(v)))
                    .collect(),
            ),
        ),
        ("spans", Json::Object(spans)),
    ]);
    print!("{}", json.to_pretty());
}
