"""toruslandau benchmark: one workload, one fresh process, one closed-loop client.

    python3 perfbench/run.py --workload {verify,large_n} --seed S \\
                             --seconds T --trace {0,1}

Run it from the root of a checkout; it imports the package from ./src and
writes only under ./.perfbench_out.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

A pass is one execution of the workload's calls.  The first pass of a
process runs with the allocator and caches cold and takes about a tenth
longer; it is printed as first_pass_s and kept out of the other timings.

--trace 0 runs the first pass, then repeats the workload, each pass followed
by a few set-up samples, while the next round still fits in T seconds, and
reports the end-to-end metrics:
  run_s           wall time of one pass inside the package's entry points:
                  for each operation of the pass (a CLI command, or one
                  criterion's check inside run_acceptance) its shortest
                  time over the passes after the first, summed (best of k).
                  On a shared 2-core host, contention from outside
                  stretches single passes by up to 2x, and the median of a
                  run's passes moved by a third between runs; the best time
                  moves least, and timing each operation on its own lets
                  the best time of each come from a different pass.
  setup_s         median, over fresh interpreters started between the
                  passes, of the time from interpreter start until
                  toruslandau.cli is imported and its parser built
  peak_rss_mb     ru_maxrss of this process
  pass_ratio      operations that passed / operations attempted
  margin_decades  smallest log10(tolerance / measured) over the checks
fail_ratio = 1 - pass_ratio is printed beside them; it is 0 on a correct
run, so it is not itself a bounded metric.  So is first_pass_s: one sample
a run is too few to bound on a shared machine.

--trace 1 runs the first pass, two more untraced passes, then one pass with
every public function of the working modules wrapped in spans, then the
layer sweep (perfbench/sweep.py), and reports the per-layer metrics.
trace_overhead_s is the traced pass minus the best of the two untraced
passes, taken operation by operation as for run_s.  It is one traced sample,
so on a shared host it carries that host's noise and can read negative.

BLAS and OpenMP run one thread, like the client itself: on a shared 2-core
host, two BLAS threads made passes no faster and used a fifth more CPU time,
and they depend on the second core being free.  --scale tiny and --fault
serve perfbench/smoke.py only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP read these when numpy loads, so they are set before the
# modules below import it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import sweep  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import dir_digest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LEDGER = OUT / "digests.json"
SETUP_PER_PASS = 4
SETUP_CODE = ("import time\n"
              "from toruslandau.cli import build_parser\n"
              "build_parser()\n"
              "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n")

# Per-layer metrics of the traced pass: span name -> reported statistics.
LAYER_STATS = {
    "lll_basis.eval_fourier": ("calls", "points", "self_s"),
    "lll_basis.eval_gaussian": ("calls", "points", "self_s"),
    "lll_basis.normalize": ("calls", "s"),
    "levels.inner_product": ("calls", "s"),
    "levels.gram_matrix": ("calls", "s"),
    "levels.section_eval": ("calls", "points", "self_s"),
    "levels.level_basis": ("calls", "s"),
    "levels.rayleigh_quotient": ("calls", "s"),
    "levels.density_map": ("calls", "s"),
    "translations.translation_matrix.lattice": ("calls", "s"),
    "translations.translation_matrix.off_lattice": ("calls", "s"),
    "translations.translate_section.lattice": ("calls", "points", "self_s"),
    "translations.translate_section.off_lattice": ("calls", "points", "self_s"),
    "translations.commutator_matrix_residual": ("calls", "s"),
    "cocycle.uniform_mesh": ("s",),
    "cocycle.triangle_identity": ("calls", "self_s"),
    "cocycle.cocycle_constant": ("calls", "self_s"),
    "cocycle.total_flux": ("s",),
    "gridio.write": ("calls", "bytes", "self_s"),
    "verify.run_acceptance": ("calls", "s"),
    "cli.main": ("calls", "s"),
    **{f"verify.c{k}": ("s",) for k in range(1, 11)},
}
MARGIN_CRITERIA = ("c2", "c3", "c4", "c6", "c10")
UNITS = {"calls": "count", "points": "count", "bytes": "B", "s": "s", "self_s": "s",
         "margin_decades": "decades"}


def layer_metric_names(scale) -> list[str]:
    """Names of the per-layer metrics a traced run at `scale` emits, in order."""
    names = [f"{layer}.{stat}" for layer, stats in LAYER_STATS.items() for stat in stats]
    names += [f"verify.{c}.margin_decades" for c in MARGIN_CRITERIA]
    return names + ["traced_wall_s", "trace_overhead_s",
                    *sweep.metric_names(scale.sweep_ns, scale.mesh_n)]


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "s")


def loadavg():
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def environment(np, load_start) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, **{v: os.environ.get(v) for v in THREAD_VARS},
            "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start}


def setup_seconds(samples: int) -> list[float]:
    """Time to import toruslandau.cli and build its parser in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(samples):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def load_ledger() -> dict:
    try:
        return json.loads(LEDGER.read_text())
    except (OSError, ValueError):
        return {}


class Runner:
    """Runs passes of one workload and gates every operation it performs."""

    def __init__(self, fn, reference: dict):
        self.fn = fn
        self.reference = reference   # command inputs -> digest of its output
        self.passes = []             # Outcome per pass
        self.cpu_s = []              # (CPU time of this process, wall time) per pass
        self.failures = []

    def one_pass(self) -> workloads.Outcome:
        work = OUT / "work"
        shutil.rmtree(work, ignore_errors=True)
        cpu, wall = time.process_time(), time.perf_counter()
        outcome = self.fn(work)
        self.cpu_s.append((time.process_time() - cpu, time.perf_counter() - wall))
        shutil.rmtree(work, ignore_errors=True)
        for op in outcome.ops:
            if op.digest is not None and self.reference.setdefault(op.key, op.digest) != op.digest:
                op.ok = False
                op.detail += " output bytes differ from an earlier run of the same inputs"
            if not op.ok:
                self.failures.append(f"{op.name}: {op.detail}")
        self.passes.append(outcome)
        return outcome

    def attempted(self) -> int:
        return sum(len(p.ops) for p in self.passes)

    def failed(self) -> int:
        return sum(not op.ok for p in self.passes for op in p.ops)

    def margin(self) -> float:
        values = [v for p in self.passes for v in p.margins.values()]
        return min(values) if values else 0.0


def best_of(passes) -> float:
    """Sum over the operations of each one's shortest time over the passes."""
    calls = {call for p in passes for call in p.call_s}
    return sum(min(p.call_s[call] for p in passes if call in p.call_s) for call in calls)


def end_to_end(runner: Runner, seconds: float, setup: list[float]) -> dict:
    """Measure passes and set-up samples; `setup` receives the samples."""
    start = time.perf_counter()
    setup_seconds(1)  # warms the file cache; not counted
    runner.one_pass()
    while True:
        round_start = time.perf_counter()
        runner.one_pass()
        setup += setup_seconds(SETUP_PER_PASS)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    attempted, failed = runner.attempted(), runner.failed()
    return {
        "run_s": {"value": best_of(runner.passes[1:]), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MiB"},
        "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        "margin_decades": {"value": runner.margin(), "unit": "decades"},
    }


def per_layer(tl, runner: Runner, scale, record: dict) -> dict:
    runner.one_pass()
    untraced = [runner.one_pass(), runner.one_pass()]
    tracer = Tracer()
    tracer.install(tl)
    try:
        start = time.perf_counter()
        traced = runner.one_pass()
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    self_total = tracer.self_total()
    if self_total > wall:
        runner.failures.append(f"self times sum to {self_total} s > traced wall {wall} s")
    sweep_metrics, skipped = sweep.run(tl, scale.sweep_ns, scale.mesh_n)

    summary = tracer.summary()
    values = {}
    for layer, stats in LAYER_STATS.items():
        for stat in stats:
            values[f"{layer}.{stat}"] = summary.get(layer, {}).get(stat, 0)
    for c in MARGIN_CRITERIA:
        values[f"verify.{c}.margin_decades"] = traced.margins.get(c, 0.0)
    values["traced_wall_s"] = traced.seconds
    values["trace_overhead_s"] = traced.seconds - best_of(untraced)
    values.update(sweep_metrics)
    record.update(spans=[s.as_list() for s in tracer.spans], self_total_s=self_total,
                  traced_pass_wall_s=wall, sweep_skipped=skipped)
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    parser.add_argument("--fault", action="store_true",
                        help="inject the x boundary sign fault into verify")
    args = parser.parse_args(argv)
    load_start = loadavg()

    if not (SRC / "toruslandau" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'toruslandau'}", file=sys.stderr)
        return 2
    setup = []

    sys.path.insert(0, str(SRC))
    import numpy as np
    import toruslandau
    import toruslandau.cli
    if Path(toruslandau.__file__).resolve().parent != SRC / "toruslandau":
        print(f"error: imported {toruslandau.__file__}, not the checkout's", file=sys.stderr)
        return 2

    record = {"args": vars(args), "env": environment(np, load_start)}
    OUT.mkdir(exist_ok=True)
    ledger = load_ledger()
    src_key = dir_digest(SRC / "toruslandau", "*.py")
    scale = workloads.SCALES[args.scale]
    runner = Runner(workloads.make(toruslandau, args.workload, args.seed, scale, args.fault),
                    ledger.setdefault(src_key, {}))

    if args.trace:
        metrics = per_layer(toruslandau, runner, scale, record)
    else:
        metrics = end_to_end(runner, args.seconds, setup)
    attempted, failed = runner.attempted(), runner.failed()
    record["env"]["loadavg_end"] = loadavg()
    record.update(pass_s=[p.seconds for p in runner.passes], pass_cpu_s=runner.cpu_s,
                  call_s=[p.call_s for p in runner.passes], setup_s=setup,
                  margins=[p.margins for p in runner.passes], failures=runner.failures)
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record))

    env = record["env"]
    cpu, wall = (sum(t) for t in zip(*runner.cpu_s))
    print(f"# {args.workload} seed {args.seed} scale {args.scale}: {len(runner.passes)} "
          f"pass(es), {attempted} operations, {failed} failed; "
          f"CPU/wall time of the passes {cpu / wall:.3f}")
    print(f"# python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, threads "
          + ", ".join(f"{v}={env[v]}" for v in THREAD_VARS)
          + f"; cpu_count {env['cpu_count']}, affinity {env['affinity']}; "
          f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    if args.trace == 0:
        shown = dict(metrics, fail_ratio={"value": failed / attempted, "unit": "ratio"},
                     first_pass_s={"value": runner.passes[0].seconds, "unit": "s"})
        for name in ("run_s", "first_pass_s", "setup_s", "peak_rss_mb", "fail_ratio",
                     "margin_decades"):
            print(f"#   {name:<15} {shown[name]['value']:.6g} {shown[name]['unit']}")
    for line in runner.failures[:20]:
        print(f"# FAILED {line.strip()[:400]}")
    print(json.dumps({"correct": not runner.failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
