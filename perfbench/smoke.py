"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--scale tiny|full]

Runs every workload through run.py with tracing off and on, checks that
each run is correct and emits every metric named in BENCHMARK.json with its
unit, and prints the end-to-end metrics of each workload together with
fail_ratio.  It then runs the verify workload at n_max = 2 with the x
boundary sign fault injected (BoundaryPhases(pi, 0), as `toruslandau verify
--debug-flip-x-sign` does) and checks that fail_ratio comes out non-zero, so
failures are shown to be counted.

At the default tiny scale (N <= 2, mesh-n 4) it takes well under a minute;
the layer sweep then runs at N = 1, 2 and its metric names follow.  At full
scale it makes the measured runs and takes several minutes.  Exits 1 on any
problem.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
E2E_SHOWN = ("run_s", "setup_s", "peak_rss_mb", "fail_ratio", "margin_decades")


def bench(*args) -> dict:
    """Run run.py once and return its result line."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--seed", "1", *args]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="tiny")
    args = parser.parse_args()
    scale = workloads.SCALES[args.scale]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {n: run.unit_of(n) for n in run.layer_metric_names(workloads.SCALES["full"])}
    problems = [] if declared == emitted else [
        "BENCHMARK.json per_layer differs from the metrics run.py emits: "
        f"{sorted(set(declared) ^ set(emitted))}"]
    per_layer = {n: run.unit_of(n) for n in run.layer_metric_names(scale)}
    seconds = "1" if args.scale == "tiny" else str(spec["run_seconds"])

    for name in workloads.NAMES:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            res = bench("--workload", name, "--seconds", seconds, "--trace", str(trace),
                        "--scale", args.scale)
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != expected:
                problems.append(f"{name} trace {trace}: metrics or units differ: "
                                f"{sorted(set(units.items()) ^ set(expected.items()))}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace {trace}: {res['failed']} operations failed")
            if trace == 0:
                shown = dict(res["metrics"], fail_ratio={
                    "value": res["failed"] / res["attempted"], "unit": "ratio"})
                print(f"{name:<8} " + "  ".join(
                    f"{k} {shown[k]['value']:.4g} {shown[k]['unit']}" for k in E2E_SHOWN))

    res = bench("--workload", "verify", "--seconds", "1", "--trace", "0",
                "--scale", "tiny", "--fault")
    fail_ratio = res["failed"] / res["attempted"]
    print(f"verify with the x boundary sign fault: fail_ratio {fail_ratio:.4g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    if not fail_ratio > 0 or res["correct"]:
        problems.append("the injected fault was not counted as a failure")

    for p in problems:
        print(f"FAILED {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
