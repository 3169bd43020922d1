"""The benchmark's workloads, their output checks and their precision margins.

Each workload is one closed-loop client of the package's public entry points,
`verify.run_acceptance` and `cli.main`: the next call starts only after the
previous one has returned.  An operation is one CLI command or one acceptance
criterion.  It fails on a non-zero exit, a failed criterion, a failed output
check, or a precision margin at or below zero.

Workloads, and why each was chosen:

verify   `run_acceptance(n_max=4, seed=S)`, what `toruslandau verify
         --n-max 4 --seed S` runs.  The only workload that uses the level-1
         section calculus, the pointwise Fourier/Gaussian duality and the
         four-matrix commutator.
large_n  CLI commands at N = 12: density, translate at a lattice and at a
         half-lattice displacement, and basis for every residue class nu.
         Ground-level grid sampling dominates (cost ~N^3); the MB-scale CSV
         grids are gridio's only real load.  No cocycle code runs.  basis
         checks Fourier/Gaussian duality at the CLI's default 500 points
         (its --seed is left at the default), so the margin is the same in
         every run of the same code.  The duality margin is smallest near
         nu = N/2, and that class sets large_n's margin_decades.

Both are smaller than the CLI's default verify scope (n_max = 6) and N = 16,
so that a run of under a minute holds several passes: on a shared 2-core
machine single passes vary by up to 2x, and only the best of several passes
is steady.  large_n cannot run at N = 16 in any case: there `basis` fails its
duality check for nu near N/2 (a defect of the program, also seen at
N = 14), and every operation of a workload must pass.  No workload runs the
`cocycle` command on its own: its pure-Python per-triangle loops ran up to
twice as slow in some minutes as in others there, and no run length the time
budget allows steadied them.  Cocycle code is timed inside verify
(criterion 9) and by the layer sweep's mesh cocycle sum.

The program sees only the generated call or CLI arguments.  verify's seed
and the translation displacements are drawn from the benchmark's seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

EPS = 2.220446049250313e-16  # a measured zero is clamped to machine epsilon


@dataclass
class Op:
    """One operation: a CLI command or an acceptance criterion."""

    name: str
    ok: bool
    detail: str = ""
    key: str = ""            # identifies the command's inputs across runs
    digest: str | None = None  # sha256 of every file the command wrote


@dataclass
class Outcome:
    ops: list = field(default_factory=list)
    margins: dict = field(default_factory=dict)  # check name -> decades
    call_s: dict = field(default_factory=dict)   # operation -> wall time

    @property
    def seconds(self) -> float:
        return sum(self.call_s.values())


@dataclass(frozen=True)
class Scale:
    """Problem sizes: `full` for measured runs, `tiny` for the smoke test."""

    n_max: int       # verify: largest flux quantum count
    large_n: int     # large_n: flux quanta of every command
    mesh_n: int      # subdivisions per side of the sweep's mesh
    sweep_ns: tuple  # the layer sweep's flux quantum counts


SCALES = {"full": Scale(n_max=4, large_n=12, mesh_n=64, sweep_ns=(1, 6, 10, 30)),
          "tiny": Scale(n_max=2, large_n=2, mesh_n=4, sweep_ns=(1, 2))}

NAMES = ("verify", "large_n")


def decades(tolerance: float, measured: float, lower_bound: bool = False) -> float:
    """log10(tolerance / measured); inverted for a lower-bound check."""
    measured = max(abs(float(measured)), EPS)
    ratio = measured / tolerance if lower_bound else tolerance / measured
    return math.log10(ratio)


def dir_digest(path: Path, pattern: str = "*") -> str:
    """sha256 over the relative names and bytes of the files under path."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob(pattern) if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# verify

def criterion_margins(tl, results) -> dict:
    """Margins of the criteria whose CheckResult.data carries a measured value.

    Criteria 1, 5, 7, 8 and 9 record no measured value and are pass/fail only.
    """
    get = tl.tolerances.get
    data = {f"c{i}": r.data for i, r in enumerate(results, 1)}
    margins = {}
    for key, tol in (("c2", "gram_identity_abs"), ("c3", "poisson_duality_rel"),
                     ("c10", "quadrature_doubling_abs")):
        if "worst" in data.get(key, {}):
            margins[key] = decades(get(tol), data[key]["worst"])
    c4 = data.get("c4", {})
    if "worst" in c4 and "shift" in c4:
        margins["c4"] = min(decades(get("boundary_residual_rel"), c4["worst"]),
                            decades(get("double_shift_abs"), c4["shift"]))
    half = data.get("c6", {}).get("half_lattice_defects")
    if half:
        smallest = min(v for mins in half.values() for v in mins)
        margins["c6"] = decades(get("projection_defect_half"), smallest,
                                lower_bound=True)
    return margins


def verify_workload(tl, seed: int, scale: Scale, fault: bool = False):
    """run_acceptance, with each criterion's check timed as its own operation.

    run_acceptance looks its checks up in the verify module when it runs, so
    each is wrapped there for the pass (ten clock reads a pass) and restored.
    A pass's times are the ten checks plus `rest`, whatever else of the call
    they leave.
    """
    vf = tl.verify
    phases = tl.lll_basis.BoundaryPhases(math.pi, 0.0) if fault else None

    def timed(call_s: dict, key: str, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                call_s[key] = time.perf_counter() - start
        return call

    def run(out_dir: Path) -> Outcome:
        call_s = {}
        current = {fn.__name__: getattr(vf, fn.__name__) for _, fn in vf.ALL_CHECKS}
        for key, fn in vf.ALL_CHECKS:
            setattr(vf, fn.__name__, timed(call_s, f"c{key}", current[fn.__name__]))
        start = time.perf_counter()
        try:
            results = vf.run_acceptance(n_max=scale.n_max, seed=seed, fault_phases=phases)
        except Exception:  # a crash fails the call, and the run goes on
            return Outcome([Op("run_acceptance", False, traceback.format_exc())],
                           call_s=call_s)
        finally:
            call_s["rest"] = time.perf_counter() - start - sum(call_s.values())
            for name, fn in current.items():
                setattr(vf, name, fn)
        ops = [Op(f"c{i}", r.passed, r.name) for i, r in enumerate(results, 1)]
        return Outcome(ops, criterion_margins(tl, results), call_s)

    return run


# ---------------------------------------------------------------------------
# CLI workloads

def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def _manifest_matches(out: Path) -> bool:
    """run_manifest.json lists exactly the other files of the directory."""
    listed = _read(out / "run_manifest.json")["outputs"]
    present = sorted(p.name for p in out.iterdir() if p.name != "run_manifest.json")
    return sorted(listed) == present


def check_density(tl, out: Path, n: int):
    get = tl.tolerances.get
    side = _read(out / f"density_N{n}_L0_deviation.json")
    geo = side["geometry"]
    mean_err = abs(side["mean_rho"] * geo["L1"] * geo["L2"] - n) / n
    return [], {"density_mean": decades(get("density_mean_abs"), mean_err)}


def check_lattice(tl, out: Path, n1: int, n2: int):
    get = tl.tolerances.get
    rep = _read(out / "translation_report.json")
    problems = [] if rep["lattice"] and rep["lattice_indices"] == [n1, n2] \
        else [f"not classified as lattice ({n1}, {n2})"]
    if not rep["phases"]["wintner_consistent"]:
        problems.append("lattice displacement failed the Wintner check")
    return problems, {
        "unitarity": decades(get("unitarity_abs"), rep["unitarity_defect"]),
        "lattice_projection": decades(get("projection_defect_lattice"),
                                      rep["projection_defect"])}


def check_half(tl, out: Path):
    rep = _read(out / "translation_report.json")
    problems = [] if not rep["lattice"] else ["half-lattice point read as lattice"]
    if rep["phases"]["wintner_consistent"]:
        problems.append("half-lattice displacement passed the Wintner check")
    # The report carries only the largest projection defect over the level
    # basis, while the lower-bound check applies to the smallest, so this
    # command is pass/fail only and gives no margin.
    return problems, {}


def check_basis(tl, out: Path, n: int, nu: int):
    get = tl.tolerances.get
    rep = _read(out / f"basis_N{n}_nu{nu}_report.json")
    problems = [] if rep["duality_ok"] and rep["boundary_ok"] else ["report flags a failed check"]
    return problems, {
        "duality": decades(get("poisson_duality_rel"), rep["duality_max_rel"]),
        "boundary": decades(get("boundary_residual_rel"), rep["boundary_residual_rel"])}


def large_n_commands(seed: int, scale: Scale):
    """(name, argv, check) for the large_n workload, drawn from the seed."""
    rng = random.Random(seed)
    n = scale.large_n
    n1, n2 = rng.randrange(1, n), rng.randrange(1, n)
    commands = [
        ("density", ["density", "--N", str(n), "--level", "0"],
         lambda tl, out: check_density(tl, out, n)),
        ("translate_lattice",
         ["translate", "--N", str(n), "--a-frac", f"{n1 / n!r},{n2 / n!r}"],
         lambda tl, out: check_lattice(tl, out, n1, n2)),
        ("translate_half",
         ["translate", "--N", str(n), "--a-frac", f"{(n1 + 0.5) / n!r},0.0"],
         check_half),
    ]
    for nu in range(n):
        commands.append((f"basis_nu{nu}", ["basis", "--N", str(n), "--nu", str(nu)],
                         lambda tl, out, nu=nu: check_basis(tl, out, n, nu)))
    return commands


def run_command(tl, name: str, argv: list, check, out: Path):
    """Run one CLI command into its own directory and check what it wrote.

    Returns (Op, margins, seconds spent inside cli.main).
    """
    out.mkdir(parents=True)
    sink = io.StringIO()
    key = " ".join(argv)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = tl.cli.main([*argv, "--out-dir", str(out)])
            finally:
                seconds = time.perf_counter() - start
        if code != 0:
            return Op(name, False, f"exit {code}: {sink.getvalue()[-300:]}", key), {}, seconds
        problems, margins = check(tl, out)
        if not _manifest_matches(out):
            problems.append("manifest does not list the emitted files")
        problems += [f"{m} margin {v:.3g} decades" for m, v in margins.items() if not v > 0]
    except Exception:  # a crash or an unreadable output fails the command
        return Op(name, False, traceback.format_exc(), key), {}, time.perf_counter() - start
    return (Op(name, not problems, "; ".join(problems), key, dir_digest(out)),
            margins, seconds)


def cli_workload(tl, commands):
    def run(out_dir: Path) -> Outcome:
        outcome = Outcome()
        for name, argv, check in commands:
            op, margins, seconds = run_command(tl, name, argv, check, out_dir / name)
            outcome.call_s[name] = seconds
            outcome.ops.append(op)
            outcome.margins.update({f"{name}.{k}": v for k, v in margins.items()})
        return outcome

    return run


def make(tl, name: str, seed: int, scale: Scale, fault: bool = False):
    """The workload's callable: out_dir -> Outcome, one closed-loop pass."""
    if name == "verify":
        return verify_workload(tl, seed, scale, fault)
    if fault:
        raise ValueError("the injected fault applies to the verify workload only")
    if name == "large_n":
        return cli_workload(tl, large_n_commands(seed, scale))
    raise ValueError(f"unknown workload {name!r}")
