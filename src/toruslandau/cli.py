"""Command-line front end: emit plot-ready grids and run the verification suite.

Subcommands
    basis      sample one ground-state section on a grid (Re, Im, density)
    density    deviation-from-uniformity maps and the d(N) decay table
    translate  diagnostics of one magnetic translation
    cocycle    per-triangle flux identity and the cocycle-sum theorem
    verify     the full acceptance suite

Every run writes run_manifest.json listing parameters, tolerances in effect
and every emitted file; reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, gridio, lll_basis, tolerances, verify
from .errors import TorusLandauError
from .geometry import parse_config, resolve_geometry
from .lll_basis import boundary_residuals, duality_residuals, normalize, theta_basis
from .levels import GridField, Quadrature, density_map
from .cocycle import total_flux, uniform_mesh
from .translations import translation_report


def _add_geometry_args(parser, n_is_list=False):
    if n_is_list:
        parser.add_argument("--N", type=str, default=None,
                            help="comma-separated flux quantum counts")
    else:
        parser.add_argument("--N", type=int, default=None,
                            help="number of flux quanta (square torus unless sides given)")
    parser.add_argument("--L1", type=float, default=None, help="torus side L1")
    parser.add_argument("--L2", type=float, default=None, help="torus side L2")
    parser.add_argument("--units", choices=("natural", "physical"), default=None,
                        help="interpretation of L1/L2 (default natural)")
    parser.add_argument("--B", type=float, default=None,
                        help="magnetic field (gauss), physical units only")
    parser.add_argument("--config", type=str, default=None,
                        help="key=value config file; flags override it")


def _add_output_args(parser, grid_files=True):
    parser.add_argument("--out-dir", type=str, default=".",
                        help="directory for emitted files")
    if grid_files:
        parser.add_argument("--format", choices=("csv", "matrix", "json"),
                            default="csv", help="grid file format")


def _geometry_options(args, n_value=None):
    options = {}
    if args.config:
        options.update(parse_config(Path(args.config).read_text()))
    for key in ("L1", "L2", "units", "B"):
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    n = n_value if n_value is not None else getattr(args, "N", None)
    if n is not None:
        options["N"] = int(n)
    return options


def _torus(args, n_value=None):
    """The torus of the geometry flags; ValueError if its sections overflow a
    double on its cell (lll_basis._check_torus), for every command that
    samples sections."""
    geo = resolve_geometry(_geometry_options(args, n_value))
    lll_basis._check_torus(geo)
    return geo


def _write_field(field: GridField, stem: Path, fmt: str) -> Path:
    if fmt == "matrix":
        return gridio.write_matrix(field, stem.with_suffix(".dat"))
    if fmt == "json":
        return gridio.write_json_grid(field, stem.with_suffix(".grid.json"))
    return gridio.write_csv(field, stem.with_suffix(".csv"))


def _write_manifest(out_dir: Path, command: str, params: dict, outputs: list,
                    checks: dict) -> Path:
    manifest = {
        "command": command,
        "parameters": params,
        "version": __version__,
        "tolerances": {k: v for k, (v, _) in tolerances.TOLERANCES.items()},
        "outputs": sorted(str(p.name) for p in outputs),
        "checks": checks,
    }
    return gridio.write_json(manifest, out_dir / "run_manifest.json")


def _parse_flux(text: str) -> float:
    """Flux value, plain or '<x>pi'; ValueError naming --flux unless finite."""
    head, scale = text.strip().lower(), 1.0
    if head.endswith("pi"):
        head, scale = head[:-2].strip("*"), math.pi
        head += "1" if head in "+-" else ""   # "pi", "+pi" and "-pi"
    try:
        value = float(head) * scale
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"--flux must be a finite number, e.g. 6.283 or 2pi, got {text!r}")
    return value


def _check_seed(seed: int) -> None:
    """ValueError naming --seed unless it is a valid random seed."""
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")


# --------------------------------------------------------------------------

def cmd_basis(args) -> int:
    _check_seed(args.seed)
    geo = _torus(args)
    psi = normalize(theta_basis(geo, args.nu))
    quad = Quadrature(geo, args.grid)
    # one grid pass: weighted for the density, then psi in place for the rest
    weighted = quad.sample([psi])
    density = quad.density(weighted)
    vals = lll_basis._psi_frame(geo, quad.z, lambda: weighted, grid=True)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    stem = f"basis_N{geo.N}_nu{args.nu}"
    fields = {"re": vals[0].real, "im": vals[0].imag, "density": density}
    outputs = [_write_field(GridField(geo, f"{stem}_{key}", values), out / f"{stem}_{key}",
                            args.format) for key, values in fields.items()]

    rng = np.random.default_rng(args.seed)
    zs = rng.random(500) * geo.L1 + 1j * rng.random(500) * geo.L2
    (duality,) = duality_residuals([psi], zs)
    resid = boundary_residuals([psi], quad.z, base=vals)[0]
    checks = {
        "duality_max_rel": duality,
        "duality_ok": duality < tolerances.get("poisson_duality_rel"),
        "boundary_residual_rel": resid,
        "boundary_ok": resid < tolerances.get("boundary_residual_rel"),
    }
    outputs.append(gridio.write_json({
        "geometry": {"L1": geo.L1, "L2": geo.L2, "N": geo.N},
        "nu": args.nu, "grid": args.grid, "norm_const": psi.norm_const, **checks,
    }, out / f"{stem}_report.json"))

    params = {"N": geo.N, "nu": args.nu, "grid": args.grid, "seed": args.seed,
              "L1": geo.L1, "L2": geo.L2, "format": args.format}
    _write_manifest(out, "basis", params, outputs,
                    {k: v for k, v in checks.items() if k.endswith("_ok")})
    ok = checks["duality_ok"] and checks["boundary_ok"]
    print(f"wrote {len(outputs)} files to {out}; duality {duality:.2e}, "
          f"boundary {resid:.2e}")
    return 0 if ok else 1


def cmd_density(args) -> int:
    n_list = _parse_numbers(args.N or "1,3,6,10", "--N N1,N2,...", int)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        # d(N) is judged in list order, so it must be the order of N
        raise ValueError(f"--N must be strictly increasing, got {args.N}")
    if len(set(args.level)) < len(args.level):
        raise ValueError(f"--level repeats a level: {' '.join(map(str, args.level))}")
    geos = [_torus(args, n) for n in n_list]
    maps = [[density_map(geo, level, args.grid) for geo in geos] for level in args.level]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    summary = {"levels": {}, "N": n_list}
    ok = finite = True
    for level, level_maps in zip(args.level, maps):
        rows = []
        for n, dm in zip(n_list, level_maps):
            stem = out / f"density_N{n}_L{level}_deviation"
            outputs.append(_write_field(dm.deviation, stem, args.format))
            outputs.append(gridio.write_sidecar(
                dm.deviation, stem.with_suffix(".json"),
                extra={"level": level, "mean_rho": dm.mean,
                       "max_deviation": dm.max_deviation,
                       "relative_deviation": dm.relative_deviation}))
            rows.append({"N": n, "d": dm.relative_deviation,
                         "mean_rho": dm.mean, "grid": dm.rho.nx})
        ds = [r["d"] for r in rows]
        decreasing = all(b < a for a, b in zip(ds, ds[1:]))
        ok = ok and (decreasing or len(ds) < 2)
        finite = finite and all(math.isfinite(d) for d in ds)
        summary["levels"][str(level)] = {"table": rows, "decreasing": decreasing}
    outputs.append(gridio.write_json(summary, out / "density_summary.json"))
    params = {"N": n_list, "level": args.level, "grid": args.grid,
              "format": args.format}
    _write_manifest(out, "density", params, outputs,
                    {"d_decreasing": ok, "d_finite": finite})
    for level in args.level:
        table = summary["levels"][str(level)]["table"]
        print(f"level {level}: " + "  ".join(
            f"d({r['N']})={r['d']:.3e}" for r in table))
    if not finite:
        print("d(N) is not finite: the density maps did not evaluate on this torus")
    return 0 if ok and finite else 1


def _parse_numbers(text: str, form: str, kind=float, count=None) -> list:
    """Comma-separated numbers of type kind, exactly count of them if count
    is given; ValueError naming the flag's form if not."""
    try:
        values = [kind(t) for t in text.split(",")]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise ValueError(f"expected {form}, got {text!r}")
    return values


def _parse_displacement(args, geo) -> complex:
    if args.a is not None and args.a_frac is not None:
        raise ValueError("give one of --a RE,IM and --a-frac F1,F2, not both")
    if args.a_frac is not None:
        f1, f2 = _parse_numbers(args.a_frac, "--a-frac F1,F2", count=2)
        return f1 * geo.L1 + 1j * f2 * geo.L2
    if args.a is None:
        raise ValueError("specify --a RE,IM or --a-frac F1,F2")
    re, im = _parse_numbers(args.a, "--a RE,IM", count=2)
    return re + 1j * im


def cmd_translate(args) -> int:
    geo = _torus(args)
    a = _parse_displacement(args, geo)
    report = translation_report(geo, a, level=args.level, side=args.grid)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = gridio.write_json(report, out / "translation_report.json")
    params = {"N": geo.N, "a": [a.real, a.imag], "level": args.level,
              "grid": args.grid}
    lattice_ok = (not report["lattice"]) or (
        report["unitarity_defect"] < tolerances.get("unitarity_abs")
        and report["projection_defect"] < tolerances.get("projection_defect_lattice"))
    _write_manifest(out, "translate", params, [path],
                    {"lattice_consistency": lattice_ok})
    kind = "lattice" if report["lattice"] else "off-lattice"
    print(f"a = {a:.6g} ({kind}): unitarity defect "
          f"{report['unitarity_defect']:.2e}, projection defect "
          f"{report['projection_defect']:.2e}")
    return 0 if lattice_ok else 1


def cmd_cocycle(args) -> int:
    L1, L2 = args.L1, args.L2
    for flag, side in (("--L1", L1), ("--L2", L2)):
        if not (math.isfinite(side) and side > 0):
            raise ValueError(f"{flag} must be finite and positive, got {side}")
    if not 0 < L1 * L2 < math.inf:
        raise ValueError(f"--L1 * --L2 must be finite and positive, got {L1 * L2}")
    flux = _parse_flux(args.flux)
    b = flux / (L1 * L2)
    result = total_flux(uniform_mesh(args.mesh_n, L1, L2, b))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "mesh_n": args.mesh_n, "L1": L1, "L2": L2, "B": b,
        "flux": result.flux, "sum_cocycles": result.sum_cocycles,
        "flux_quanta": result.flux_quanta,
        "theorem_holds": result.theorem_holds,
        "weil_integral": result.weil_integral,
        "worst_triangle_identity_rel": result.worst_identity_rel,
    }
    if args.per_triangle:
        report["cocycles"] = result.cocycles.tolist()
    path = gridio.write_json(report, out / "cocycle_report.json")
    params = {"mesh_n": args.mesh_n, "flux": flux, "L1": L1, "L2": L2}
    _write_manifest(out, "cocycle", params, [path], {
        "triangle_identity": result.identity_holds,
        "edge_cancellation": result.edges_cancel,
        "cocycle_sum": result.theorem_holds,
        "weil_integral": result.weil_integral,
    })
    print(f"sum c = {result.sum_cocycles:.12g}, flux = {result.flux:.12g}, "
          f"Weil integral: {result.weil_integral}")
    ok = result.identity_holds and result.edges_cancel and result.theorem_holds
    return 0 if ok else 1


def cmd_verify(args) -> int:
    _check_seed(args.seed)
    results = verify.run_acceptance(n_max=args.n_max, seed=args.seed)
    note = verify._cap_note(args.n_max)
    if note:
        print(note)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruslandau",
        description="Landau levels on a magnetized torus: grids, translations, "
                    "cocycles, and the verification suite.")
    parser.add_argument("--show-tolerances", action="store_true",
                        help="print the tolerance table and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("basis", help="sample one ground-state section")
    _add_geometry_args(p)
    _add_output_args(p)
    p.add_argument("--nu", type=int, default=0, help="section index in [0, N)")
    p.add_argument("--grid", type=int, default=128, help="samples per side")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("density", help="deviation-from-uniformity maps")
    _add_geometry_args(p, n_is_list=True)
    _add_output_args(p)
    p.add_argument("--level", type=int, nargs="+", default=[0], choices=(0, 1))
    p.add_argument("--grid", type=int, default=None,
                   help="samples per side (default: multiple of 2N >= max(64,16N))")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("translate", help="magnetic translation diagnostics")
    _add_geometry_args(p)
    _add_output_args(p, grid_files=False)
    p.add_argument("--a", type=str, default=None,
                   help="displacement RE,IM in natural units")
    p.add_argument("--a-frac", type=str, default=None,
                   help="displacement F1,F2 in units of (L1, L2)")
    p.add_argument("--level", type=int, default=0, choices=(0, 1))
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("cocycle", help="triangulated flux identity")
    p.add_argument("--L1", type=float, default=1.0, help="torus side L1")
    p.add_argument("--L2", type=float, default=1.0, help="torus side L2")
    _add_output_args(p, grid_files=False)
    p.add_argument("--mesh-n", type=int, default=8,
                   help="grid subdivisions per side (2 n^2 triangles)")
    p.add_argument("--flux", type=str, default="2pi",
                   help="total flux, e.g. '6.283', '2pi', '3pi'")
    p.add_argument("--per-triangle", action="store_true",
                   help="include the per-triangle cocycle table")
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--n-max", type=int, default=6,
                   help="largest flux quantum count exercised")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.show_tolerances:
        print(tolerances.format_table())
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (TorusLandauError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
