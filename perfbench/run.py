#!/usr/bin/env python3
"""Runs one rpclens benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --pin

Run from the repository root. The runner builds `perfbench/` (a cargo
package of its own) into `$CARGO_TARGET_DIR` (default `.bench_build`),
then starts one process per repetition of the workload until `--seconds`
are used up, so set-up and peak memory are measured afresh each time.
Every repetition's deterministic outputs are compared with the values
pinned in `perfbench/pins.json`; a mismatch makes the run incorrect.

With `--trace 0` every repetition is untraced and the end-to-end metrics
are the medians over them. With `--trace 1` traced and untraced
repetitions alternate: the per-layer metrics are medians over the traced
ones, `trace.overhead_s` is the traced minus the untraced median
`wall_s`, and the spans are written to `perfbench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--pin` re-runs every
pinned seed once and rewrites `perfbench/pins.json`; use it only for a
change that is meant to alter simulated output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
OUT = HERE / "out"
REP_TIMEOUT_S = 150
# Fewest repetitions of each kind (untraced, and traced under --trace 1)
# a run makes, however long they take.
MIN_REPS = 2


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return target / "release" / "rpclens-perfbench"


def sim_seed(pins, workload, seed):
    """The seed the workload runs at: `seed` itself when its outputs are
    pinned, otherwise a pinned seed of the cycle chosen by `seed`."""
    w = pins[workload]
    if str(seed) in w["pins"]:
        return seed
    return w["cycle"][seed % len(w["cycle"])]


def run_rep(binary, workload, seed, traced, spans):
    cmd = [str(binary), workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace", "--spans", str(spans)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        die(f"{workload} repetition exited with {proc.returncode}")
    return json.loads(proc.stdout), elapsed


def pin():
    pins = json.loads(PINS.read_text())
    binary = build()
    for workload, w in pins.items():
        seeds = sorted({*w["cycle"], w["held_out"]})
        w["pins"] = {}
        for seed in seeds:
            rep, elapsed = run_rep(binary, workload, seed, False, None)
            w["pins"][str(seed)] = rep["pins"]
            print(f"{workload} seed {seed}: {rep['pins']} ({elapsed:.1f} s)", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if args.pin:
        return pin()
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        die(f"unknown workload {args.workload}; one of {sorted(names)}")
    pins = json.loads(PINS.read_text())
    binary = build()
    seed = sim_seed(pins, args.workload, args.seed)
    expected = pins[args.workload]["pins"][str(seed)]

    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans.unlink(missing_ok=True)

    reps = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        rep, elapsed = run_rep(binary, args.workload, seed, traced, spans)
        rep["elapsed"] = elapsed
        reps.append(rep)
        used = time.monotonic() - start
        typical = statistics.median(r["elapsed"] for r in reps)
        if len(reps) >= MIN_REPS * (1 + args.trace) and used + typical > args.seconds:
            break

    attempted = sum(r["operations"] for r in reps)
    failed = 0
    for i, r in enumerate(reps):
        if r["pins"] != expected:
            print(f"rep {i}: outputs {r['pins']} differ from pinned {expected}")
            failed += r["operations"]
        else:
            failed += r["failed"]

    untraced = [r["metrics"] for r in reps if not r["traced"]]
    traced = [r["metrics"] for r in reps if r["traced"]]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    pool = traced if args.trace else untraced
    metrics = {}
    for m in wanted:
        values = [r[m["name"]] for r in pool if m["name"] in r]
        metrics[m["name"]] = statistics.median(values) if values else 0.0
    if args.trace:
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in untraced))

    print(f"workload {args.workload}: seed {args.seed} runs simulation/wire seed {seed}; "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions in "
          f"{time.monotonic() - start:.1f} s")
    print(f"{'all outputs verified' if failed == 0 else f'{failed} operations FAILED'}; "
          f"pinned: {expected}")
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>16.6g} {m['unit']}")
    if args.trace:
        print(f"self time per span over {len(traced)} traced repetitions "
              f"(spans in {spans.relative_to(ROOT)}):")
        totals = {}
        for r in reps:
            for name, row in r["spans"].items():
                totals[name] = [a + b for a, b in zip(totals.get(name, [0, 0, 0]), row)]
        for name, (count, total, own) in sorted(totals.items()):
            print(f"  {name:<40} n={count:<7} total {total / 1e9:10.4f} s  "
                  f"self {own / 1e9:10.4f} s")

    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
