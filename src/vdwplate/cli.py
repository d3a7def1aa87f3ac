"""Command-line driver.

Exit codes: 0 success, 2 numerical failure (non-convergence, a failed
factorization or quadrature, memory exhaustion), 3 invalid input, 4 I/O
failure.  Outputs embed the resolved configuration and the package version;
repeated runs with the same flags are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import (FMT, asymptotic_residual_report, fit_power_law,
                          fit_to_csv, sweep_from_csv, sweep_interaction_energy,
                          sweep_to_csv, table_to_json)
from .eigensolver import (GridCyl, GridCylSpec, NonConvergenceError,
                          HYDROGEN_SHIFT, assemble_hydrogen_plate, electron_plate_ground,
                          feshbach_fixed_point, lowest_eigenpair)
from .model import load_config
from .multipole import GroundBasis, HydrogenOrbital, ProductState, orientation_coefficient
from .spectra import (electron_plate_energy_deviation, helium_variational_energy,
                      hvz_gap)

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_INPUT = 3
EXIT_IO = 4


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for numerics
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_INPUT)


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get("VDWPLATE_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        sys.exit(EXIT_IO)


def _parse_floats(text: str, expected: int | None = None) -> list:
    try:
        vals = [float(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"cannot parse numbers from {text!r}") from exc
    if expected is not None and len(vals) != expected:
        raise InputError(f"expected {expected} numbers in {text!r}")
    return vals


def _config_values(args) -> dict:
    if getattr(args, "config", None):
        try:
            return load_config(args.config).values
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            sys.exit(EXIT_IO)
        except ValueError as exc:
            raise InputError(str(exc))
    return {}


def _pick(args, name: str, cfg: dict, default, key: str | None = None):
    """Flag value if given, else the config-file value under key (default
    name), else default."""
    val = getattr(args, name, None)
    if val is not None:
        return val
    return cfg.get(key or name, default)


def _echo(resolved: dict) -> str:
    lines = [f"# vdwplate {__version__}"]
    lines += [f"# {k} = {v}" for k, v in sorted(resolved.items())]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_eplate(args) -> int:
    cfg = _config_values(args)
    n = int(_pick(args, "n", cfg, 4096))
    length = float(_pick(args, "L", cfg, 400.0))
    if n < 16 or length <= 0:
        raise InputError("need n >= 16 and L > 0")
    resolved = {"command": "eplate", "n": n, "L": length,
                "extrapolate": not args.no_extrapolate}
    res = electron_plate_ground(n, length, extrapolate=not args.no_extrapolate)
    dev = electron_plate_energy_deviation(res.value)
    lines = [_echo(resolved).rstrip("\n"),
             f"eigenvalue = {FMT % res.value}",
             f"fine_value = {FMT % res.fine_value}"]
    if res.coarse_value is not None:
        lines.append(f"coarse_value = {FMT % res.coarse_value}")
        lines.append(f"extrapolated = {FMT % res.extrapolated}")
    lines += [f"reference = {FMT % (-1.0 / 64.0)}",
              f"deviation = {FMT % dev}",
              f"relative_error = {FMT % (dev / (1.0 / 64.0))}",
              f"residual = {FMT % res.residual}"]
    if dev / (1.0 / 64.0) > 1e-3:
        lines.append("warning: deviation large for this grid; refine n or L")
    _emit("\n".join(lines) + "\n", _resolve_output(args.output))
    return EXIT_OK


def _grid_spec(args, cfg: dict) -> GridCylSpec:
    return GridCylSpec(h_target=float(_pick(args, "h", cfg, 0.1)),
                       l_xi_plus=float(_pick(args, "l_xi", cfg, 28.0, "L_xi")),
                       l_rho=float(_pick(args, "l_rho", cfg, 28.0, "L_rho")))


def _grid_for(args, cfg: dict, r: float) -> GridCyl:
    """Explicit node counts when counts and extents are all given, else the spec grid."""
    counts = [_pick(args, "n_xi", cfg, None), _pick(args, "n_rho", cfg, None),
              _pick(args, "l_xi", cfg, None, "L_xi"), _pick(args, "l_rho", cfg, None, "L_rho")]
    if None in counts:
        return GridCyl.for_distance(r, _grid_spec(args, cfg))
    n_xi, n_rho, l_xi, l_rho = counts
    return GridCyl.from_counts(r, int(n_xi), int(n_rho), float(l_xi), float(l_rho))


def cmd_hydrogen(args) -> int:
    cfg = _config_values(args)
    r = float(_pick(args, "r", cfg, None) or 0.0)
    m = float(_pick(args, "m", cfg, 1.0))
    tol = float(_pick(args, "tol", cfg, 0.0))
    seed = int(_pick(args, "seed", cfg, 0))
    max_iter = int(_pick(args, "max_iter", cfg, 2000))
    if r <= 0:
        raise InputError(f"plate distance must be positive, got {r}")
    if not 0.0 <= m <= 1.0:
        raise InputError(f"mirror strength must lie in [0, 1], got {m}")
    grid = _grid_for(args, cfg, r)
    resolved = {"command": "hydrogen", "r": r, "m": m, "tol": tol, "seed": seed,
                **{f"grid.{k}": v for k, v in grid.metadata().items()}}
    try:
        e_plate = lowest_eigenpair(assemble_hydrogen_plate(grid, m), tol=tol,
                                   max_iter=max_iter, seed=seed, sigma=HYDROGEN_SHIFT)
        e_free = lowest_eigenpair(assemble_hydrogen_plate(grid, 0.0), tol=tol,
                                  max_iter=max_iter, seed=seed, sigma=HYDROGEN_SHIFT)
    except NonConvergenceError as exc:
        print(_echo(resolved), end="")
        print(f"non-convergence: {exc}")
        return EXIT_NUMERICAL
    report = hvz_gap(e_plate.value, r)
    lines = [_echo(resolved).rstrip("\n"),
             f"E = {FMT % e_plate.value}",
             f"E_free_same_grid = {FMT % e_free.value}",
             f"W = {FMT % (e_plate.value - e_free.value)}",
             f"essential_bottom = {FMT % report.essential_bottom}",
             f"hvz_gap = {FMT % report.gap}",
             f"status = {report.status}",
             f"iterations = {e_plate.iterations}",
             f"residual = {FMT % e_plate.residual}"]
    _emit("\n".join(lines) + "\n", _resolve_output(args.output))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _config_values(args)
    rs = _parse_floats(args.r_values)
    if not rs or any(r <= 0 for r in rs):
        raise InputError("sweep radii must be positive")
    m = float(_pick(args, "m", cfg, 1.0))
    if not 0.0 <= m <= 1.0:
        raise InputError(f"mirror strength must lie in [0, 1], got {m}")
    tol = float(_pick(args, "tol", cfg, 0.0))
    seed = int(_pick(args, "seed", cfg, 0))
    table = sweep_interaction_energy(rs, plate_m=m, spec=_grid_spec(args, cfg),
                                     tol=tol, seed=seed, jobs=args.jobs)
    text = table_to_json(table) if args.format == "json" else sweep_to_csv(table)
    _emit(text, _resolve_output(args.output))
    if any(row.w is None for row in table.rows):
        print("warning: sweep has gap rows", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            table = sweep_from_csv(fh.read())
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    exponents = [int(x) for x in _parse_floats(args.exponents)]
    try:
        fit = fit_power_law(table, exponents, weight_power=args.weight_power)
    except ValueError as exc:
        raise InputError(str(exc))
    if args.format == "json":
        text = table_to_json(table, fit)
    else:
        text = fit_to_csv(fit)
    _emit(text, _resolve_output(args.output))
    report = asymptotic_residual_report(table)
    print(f"# empirical_D3 = {FMT % report.empirical_d3}", file=sys.stderr)
    return EXIT_OK


def cmd_cv(args) -> int:
    v = np.array(_parse_floats(args.v, 3))
    if np.linalg.norm(v) == 0:
        raise InputError("direction must be nonzero")
    v = v / np.linalg.norm(v)
    if args.molecule == "hydrogen":
        basis = GroundBasis((HydrogenOrbital(),))
        note = "hydrogen ground state"
    elif args.molecule == "helium":
        basis = GroundBasis((ProductState((HydrogenOrbital(z=2.0),
                                           HydrogenOrbital(z=2.0))),))
        note = "doubly occupied scaled orbital (variational state)"
    else:
        raise InputError(f"unknown molecule {args.molecule!r}")
    c = orientation_coefficient(basis, v)
    resolved = {"command": "cv", "molecule": args.molecule,
                "v": ",".join(FMT % x for x in v), "state": note}
    _emit(_echo(resolved) + f"C = {FMT % c}\n", _resolve_output(args.output))
    return EXIT_OK


def cmd_helium(args) -> int:
    he = helium_variational_energy()
    resolved = {"command": "helium"}
    lines = [_echo(resolved).rstrip("\n"),
             f"kinetic = {FMT % he.kinetic}",
             f"attraction = {FMT % he.attraction}",
             f"repulsion = {FMT % he.repulsion}",
             f"total = {FMT % he.total}",
             f"reference = {FMT % (5.5 * -0.25)}"]
    _emit("\n".join(lines) + "\n", _resolve_output(args.output))
    return EXIT_OK


def cmd_feshbach_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.n
    worst = 0.0
    lines = [_echo({"command": "feshbach-demo", "n": n, "trials": args.trials,
                    "seed": args.seed}).rstrip("\n")]
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
    _emit("\n".join(lines) + "\n", _resolve_output(args.output))
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
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--output", help="write the report here (VDWPLATE_OUTDIR joins relative paths)")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("eplate", help="1D electron/plate ground energy")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--no-extrapolate", action="store_true")
    p.set_defaults(fn=cmd_eplate)

    p = sub.add_parser("hydrogen", help="single E(r) solve plus the HVZ gap")
    common(p)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--l-xi", dest="l_xi", type=float, default=None)
    p.add_argument("--l-rho", dest="l_rho", type=float, default=None)
    p.add_argument("--n-xi", dest="n_xi", type=int, default=None)
    p.add_argument("--n-rho", dest="n_rho", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=cmd_hydrogen)

    p = sub.add_parser("sweep", help="W(r) over a list of distances")
    common(p)
    p.add_argument("--r-values", required=True, help="comma-separated radii")
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--l-xi", dest="l_xi", type=float, default=None)
    p.add_argument("--l-rho", dest="l_rho", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("fit", help="power-law fit of a sweep CSV")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--exponents", default="3,5")
    p.add_argument("--weight-power", dest="weight_power", type=float, default=6.0)
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
    p.set_defaults(fn=cmd_feshbach_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = 0
    try:
        return args.fn(args)
    except ValueError as exc:   # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, MemoryError) as exc:   # NonConvergenceError included
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
