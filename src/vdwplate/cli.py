"""Command-line driver.

Exit codes: 0 success, 2 numerical failure (non-convergence, a failed
factorization or quadrature, memory exhaustion), 3 invalid input, 4 I/O or
other operating-system failure (any OSError).  Commands raise; main alone
maps an exception to its exit code and one stderr line.  Flags are the only
inputs; the parser holds their defaults, the grid's from one GridCylSpec().
Outputs embed the resolved configuration and the package version; repeated
runs with the same flags are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import (FMT, empirical_d3, fit_power_law, fit_to_csv, solve_row,
                          sweep_from_csv, sweep_interaction_energy, sweep_to_csv,
                          table_to_json)
from .eigensolver import (GridCyl, GridCylSpec, electron_plate_ground,
                          feshbach_fixed_point)
# unused here; perfbench's test_tracer_wraps_every_import_site still asserts it
from .eigensolver import lowest_eigenpair  # noqa: F401
from .model import E_ELECTRON_PLATE, E_HYDROGEN, as_vec3
from .multipole import GroundBasis, HydrogenOrbital, ProductState, orientation_coefficient
from .spectra import helium_variational_energy, hvz_gap

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_INPUT = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for numerics
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_INPUT)


def _emit(text: str, path: str | None):
    """Write text to path, joined to VDWPLATE_OUTDIR when relative, or to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    outdir = os.environ.get("VDWPLATE_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_floats(text: str, expected: int | None = None) -> list:
    try:
        vals = [float(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"cannot parse numbers from {text!r}") from exc
    if expected is not None and len(vals) != expected:
        raise ValueError(f"expected {expected} numbers in {text!r}")
    return vals


def _report(resolved: dict, lines: list) -> str:
    """The resolved configuration as '# key = value' lines, then the report lines."""
    head = [f"# vdwplate {__version__}"]
    head += [f"# {k} = {v}" for k, v in sorted(resolved.items())]
    return "\n".join(head + lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_eplate(args) -> int:
    res = electron_plate_ground(args.n, args.L)     # ValueError for n < 32 or an L Grid1D refuses
    rel = res.deviation / -E_ELECTRON_PLATE
    lines = [f"eigenvalue = {FMT % res.value}",
             f"fine_value = {FMT % res.fine_value}",
             f"coarse_value = {FMT % res.coarse_value}",
             f"reference = {FMT % E_ELECTRON_PLATE}",
             f"deviation = {FMT % res.deviation}",
             f"relative_error = {FMT % rel}",
             f"residual = {FMT % res.residual}"]
    if rel > 1e-3:
        lines.append("warning: deviation large for this grid; refine n or L")
    _emit(_report({"command": "eplate", "n": args.n, "L": args.L}, lines), args.output)
    return EXIT_OK


def _plate_inputs(args) -> tuple:
    """(m, grid spec) of hydrogen and sweep from the flags --m, --h, --l-xi, --l-rho."""
    return (args.m + 0.0,       # -0.0 prints as 0
            GridCylSpec(h_target=args.h, l_xi_plus=args.l_xi, l_rho=args.l_rho))


def cmd_hydrogen(args) -> int:
    m, spec = _plate_inputs(args)
    r = args.r
    if r is None:
        raise ValueError("hydrogen needs --r")
    grid = GridCyl.for_distance(r, spec)    # ValueError outside DISTANCE or below h/2
    resolved = {"command": "hydrogen", "r": r, "m": m,
                **{f"grid.{k}": v for k, v in grid.metadata().items()}}
    row, residual = solve_row(grid, m)
    report = hvz_gap(row.e_plate, r, residual, m)
    lines = [f"E = {FMT % row.e_plate}",
             f"E_free_same_grid = {FMT % row.e_free}",
             f"W = {FMT % row.w}",
             f"essential_bottom = {FMT % report.essential_bottom}",
             f"hvz_gap = {FMT % report.gap}",
             f"status = {report.status}",
             f"iterations = {row.iterations}",
             f"residual = {FMT % residual}"]
    _emit(_report(resolved, lines), args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    m, spec = _plate_inputs(args)
    table = sweep_interaction_energy(_parse_floats(args.r_values), plate_m=m, spec=spec,
                                     jobs=args.jobs)
    text = table_to_json(table) if args.format == "json" else sweep_to_csv(table)
    _emit(text, args.output)
    if any(row.w is None for row in table.rows):
        print("warning: sweep has gap rows", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_fit(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        table = sweep_from_csv(fh.read())
    fit = fit_power_law(table, _parse_floats(args.exponents))
    if args.format == "json":
        text = table_to_json(table, fit)
    else:
        text = fit_to_csv(fit)
    _emit(text, args.output)
    print(f"# empirical_D3 = {FMT % empirical_d3(table)}", file=sys.stderr)
    return EXIT_OK


def cmd_cv(args) -> int:
    v = as_vec3(_parse_floats(args.v, 3))     # finite before it is normalized
    if not np.any(v):
        raise ValueError("direction must be nonzero")
    # an exact power-of-two scale keeps the norm clear of overflow and underflow
    v = np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1])
    v = v / np.linalg.norm(v)
    if args.molecule == "hydrogen":
        basis = GroundBasis((HydrogenOrbital(),))
        note = "hydrogen ground state"
    elif args.molecule == "helium":
        basis = GroundBasis((ProductState((HydrogenOrbital(z=2.0),
                                           HydrogenOrbital(z=2.0))),))
        note = "doubly occupied scaled orbital (variational state)"
    else:
        raise ValueError(f"unknown molecule {args.molecule!r}")
    c = orientation_coefficient(basis, v)
    resolved = {"command": "cv", "molecule": args.molecule,
                "v": ",".join(FMT % x for x in v), "state": note}
    _emit(_report(resolved, [f"C = {FMT % c}"]), args.output)
    return EXIT_OK


def cmd_helium(args) -> int:
    he = helium_variational_energy()
    lines = [f"kinetic = {FMT % he.kinetic}",
             f"attraction = {FMT % he.attraction}",
             f"repulsion = {FMT % he.repulsion}",
             f"total = {FMT % he.total}",
             f"reference = {FMT % (5.5 * E_HYDROGEN)}"]
    _emit(_report({"command": "helium"}, lines), args.output)
    return EXIT_OK


def cmd_feshbach_demo(args) -> int:
    if args.n < 2 or args.trials < 1:
        raise ValueError(f"need n >= 2 and trials >= 1, got n = {args.n}, "
                         f"trials = {args.trials}")
    rng = np.random.default_rng(args.seed)
    n = args.n
    worst = 0.0
    lines = []
    for trial in range(args.trials):
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        vals, vecs = np.linalg.eigh(h)
        gap = vals[1] - vals[0]
        noise = rng.standard_normal(n)
        noise -= vecs[:, 0] * (vecs[:, 0] @ noise)
        psi = vecs[:, 0] + 0.1 * min(1.0, gap) * noise / np.linalg.norm(noise)
        psi /= np.linalg.norm(psi)
        fixed = feshbach_fixed_point(h, psi, (vals[0] - 1.0, 0.5 * (vals[0] + vals[1])))
        err = abs(fixed - vals[0])
        worst = max(worst, err)
        lines.append(f"trial {trial}: fixed_point = {FMT % fixed}  "
                     f"direct = {FMT % vals[0]}  error = {err:.3e}")
    lines.append(f"worst_error = {worst:.3e}")
    resolved = {"command": "feshbach-demo", "n": n, "trials": args.trials, "seed": args.seed}
    _emit(_report(resolved, lines), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vdwplate",
                     description="Molecule/half-space van der Waals laboratory")
    parser.add_argument("--version", action="version", version=f"vdwplate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the report here (VDWPLATE_OUTDIR joins relative paths)")

    grid = GridCylSpec()

    def plate_inputs(p):
        p.add_argument("--m", type=float, default=1.0)
        p.add_argument("--h", type=float, default=grid.h_target)
        p.add_argument("--l-xi", dest="l_xi", type=float, default=grid.l_xi_plus)
        p.add_argument("--l-rho", dest="l_rho", type=float, default=grid.l_rho)

    p = sub.add_parser("eplate", help="1D electron/plate ground energy")
    common(p)
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--L", type=float, default=400.0)
    p.set_defaults(fn=cmd_eplate)

    p = sub.add_parser("hydrogen", help="single E(r) solve plus the HVZ gap")
    common(p)
    plate_inputs(p)
    p.add_argument("--r", type=float, default=None)
    p.set_defaults(fn=cmd_hydrogen)

    p = sub.add_parser("sweep", help="W(r) over a list of distances")
    common(p)
    plate_inputs(p)
    p.add_argument("--r-values", required=True, help="comma-separated radii")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("fit", help="power-law fit of a sweep CSV")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--exponents", default="3,5")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("cv", help="orientation coefficient of the leading term")
    common(p)
    p.add_argument("--molecule", default="hydrogen")
    p.add_argument("--v", default="1,0,0")
    p.set_defaults(fn=cmd_cv)

    p = sub.add_parser("helium", help="variational helium energy decomposition")
    common(p)
    p.set_defaults(fn=cmd_helium)

    p = sub.add_parser("feshbach-demo", help="fixed point vs direct eigenvalue on random matrices")
    common(p)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_feshbach_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:      # unreadable input, unwritable output, a refused fork
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RuntimeError, MemoryError) as exc:   # NonConvergenceError, InertiaError included
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
