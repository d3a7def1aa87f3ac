"""Distance sweeps of the interaction energy, power-law coefficient fits, and
their CSV/JSON serializations.

W(r) is always computed as a same-grid difference: the plate run (mirror
strength m) minus the free run (m = 0) on the identical grid and stencil, so
the leading discretization error cancels.  Outputs embed the resolved
configuration and are byte-identical across reruns with the same seed.
"""

from __future__ import annotations

import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .eigensolver import (GridCyl, GridCylSpec, HYDROGEN_SHIFT,
                          assemble_hydrogen_plate, lowest_eigenpair)
from .multipole import GroundBasis, orientation_coefficient, unit_vector

FMT = "%.17g"


@dataclass(frozen=True)
class SweepRow:
    r: float
    n_xi: int
    n_rho: int
    e_plate: float | None
    e_free: float | None
    iterations: int = 0
    error: str | None = None

    @property
    def w(self) -> float | None:
        if self.e_plate is None or self.e_free is None:
            return None
        return self.e_plate - self.e_free


@dataclass
class SweepTable:
    rows: list
    m: float
    grid: dict
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        rs = [row.r for row in self.rows]
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("sweep radii must be strictly increasing")

    def solved_arrays(self):
        """(r, W) over rows that solved; gaps are dropped."""
        good = [(row.r, row.w) for row in self.rows if row.w is not None]
        if not good:
            raise ValueError("no solved rows in the sweep table")
        r, w = zip(*good)
        return np.array(r), np.array(w)


def _solve_sweep_row(args) -> SweepRow:
    r, m, spec, tol, seed = args
    grid = GridCyl.for_distance(r, spec)
    try:
        ops = [assemble_hydrogen_plate(grid, mm) for mm in (m, 0.0)]
        res = [lowest_eigenpair(op, tol=tol, seed=seed, sigma=HYDROGEN_SHIFT)
               for op in ops]
        return SweepRow(r=r, n_xi=grid.n_xi, n_rho=grid.n_rho,
                        e_plate=res[0].value, e_free=res[1].value,
                        iterations=res[0].iterations + res[1].iterations)
    except RuntimeError as exc:     # NonConvergenceError or a failed factorization
        return SweepRow(r=r, n_xi=grid.n_xi, n_rho=grid.n_rho,
                        e_plate=None, e_free=None, error=str(exc))


def sweep_interaction_energy(r_values, plate_m: float = 1.0,
                             spec: GridCylSpec = GridCylSpec(),
                             tol: float = 0.0, seed: int = 0,
                             jobs: int = 1) -> SweepTable:
    """Solve E(r) and the matching free-hydrogen energy for each r.

    Rows are independent solves; jobs > 1 runs them in worker processes and
    merges in r order.  A solve that fails to converge or to factor marks its
    row as a gap instead of aborting the sweep.
    """
    rs = sorted(float(r) for r in r_values)
    if any(r <= 0 for r in rs):
        raise ValueError("all radii must be positive")
    work = [(r, plate_m, spec, tol, seed) for r in rs]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_solve_sweep_row, work))
    else:
        rows = [_solve_sweep_row(w) for w in work]
    grid_meta = {"h_target": spec.h_target, "l_xi_plus": spec.l_xi_plus,
                 "l_rho": spec.l_rho}
    config = {"tol": tol, "seed": seed, "jobs": jobs}
    return SweepTable(rows=rows, m=plate_m, grid=grid_meta, config=config)


# ---------------------------------------------------------------------------
# Power-law fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    exponents: tuple
    coefficients: np.ndarray
    residuals: np.ndarray
    r_values: np.ndarray
    window: tuple
    condition: float
    weight_power: float

    def coefficient(self, exponent: int) -> float:
        return float(self.coefficients[self.exponents.index(exponent)])

    def predict(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return sum(c * r ** (-k) for c, k in zip(self.coefficients, self.exponents))


def fit_power_law(table, exponents, weight_power: float = 6.0) -> FitResult:
    """Weighted least squares of W(r) in the basis {r^-k}.

    Weights r^{weight_power} (default r^6) equalize the leading-term influence
    across the window.  Accepts a SweepTable or an (r, W) array pair.
    """
    if isinstance(table, SweepTable):
        r, w = table.solved_arrays()
    else:
        r, w = (np.asarray(a, dtype=float) for a in table)
    exponents = tuple(int(k) for k in exponents)
    if len(set(exponents)) != len(exponents) or any(k <= 0 for k in exponents):
        raise ValueError("exponents must be distinct positive integers")
    if r.size < len(exponents):
        raise ValueError("need at least as many rows as exponents")
    design = np.column_stack([r ** (-float(k)) for k in exponents])
    sqrt_w = r ** (weight_power / 2.0)
    a = design * sqrt_w[:, None]
    rank = np.linalg.matrix_rank(a)
    if rank < len(exponents):
        raise ValueError("rank-deficient design matrix")
    coeffs, *_ = np.linalg.lstsq(a, w * sqrt_w, rcond=None)
    residuals = w - design @ coeffs
    return FitResult(
        exponents=exponents,
        coefficients=coeffs,
        residuals=residuals,
        r_values=r,
        window=(float(r.min()), float(r.max())),
        condition=float(np.linalg.cond(a)),
        weight_power=weight_power,
    )


@dataclass(frozen=True)
class BracketReport:
    """Residual of W against the explicit two-term hydrogen law.

    residuals hold R(r) = W(r) + 1/r^3 + 18/r^5; empirical_d3 is the largest
    r^6 |R(r)| over the window, the constant a sixth-order correction would
    need.  When a per-row error budget is given, rows whose residual exceeds
    it are flagged.
    """

    r_values: np.ndarray
    residuals: np.ndarray
    scaled: np.ndarray        # r^6 * R(r)
    empirical_d3: float
    flagged: list


def asymptotic_residual_report(table, error_budget=None) -> BracketReport:
    if isinstance(table, SweepTable):
        r, w = table.solved_arrays()
    else:
        r, w = (np.asarray(a, dtype=float) for a in table)
    resid = w + r ** -3.0 + 18.0 * r ** -5.0
    scaled = resid * r ** 6.0
    flagged = []
    if error_budget is not None:
        budget = np.broadcast_to(np.asarray(error_budget, dtype=float), r.shape)
        flagged = [float(rr) for rr, res, b in zip(r, resid, budget) if abs(res) > b]
    return BracketReport(r_values=r, residuals=resid, scaled=scaled,
                         empirical_d3=float(np.max(np.abs(scaled))), flagged=flagged)


@dataclass(frozen=True)
class RatioReport:
    r_values: np.ndarray
    ratios: np.ndarray
    m: float

    @property
    def approaches_m(self) -> bool:
        """True when |ratio - m| is non-increasing along the r ladder."""
        dev = np.abs(self.ratios - self.m)
        return bool(np.all(np.diff(dev) <= 0))


def dielectric_scaling(table_m: SweepTable, table_1: SweepTable) -> RatioReport:
    """Per-r ratio W_m / W_1; the large-r limit is the mirror strength m."""
    r_m, w_m = table_m.solved_arrays()
    r_1, w_1 = table_1.solved_arrays()
    if r_m.shape != r_1.shape or not np.allclose(r_m, r_1):
        raise ValueError("tables must share the same r grid")
    return RatioReport(r_values=r_m, ratios=w_m / w_1, m=table_m.m)


def predicted_interaction_table(basis: GroundBasis, v, r_values):
    """Leading-order predictions -C(v)/r^3 for each r.

    Returns (C, rows) with rows of (r, predicted W)."""
    v = unit_vector(v)
    c = orientation_coefficient(basis, v)
    rows = [(float(r), -c / float(r) ** 3) for r in r_values]
    return c, rows


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _config_lines(table: SweepTable) -> list:
    lines = [f"# vdwplate sweep {__version__}", f"# m = {FMT % table.m}"]
    for key in sorted(table.grid):
        lines.append(f"# grid.{key} = {table.grid[key]}")
    for key in sorted(table.config):
        lines.append(f"# {key} = {table.config[key]}")
    return lines


def sweep_to_csv(table: SweepTable) -> str:
    out = io.StringIO()
    for line in _config_lines(table):
        out.write(line + "\n")
    out.write("r,n_xi,n_rho,E_plate,E_free,W,error\n")
    for row in table.rows:
        if row.w is None:
            out.write(f"{FMT % row.r},{row.n_xi},{row.n_rho},,,,{row.error}\n")
        else:
            out.write(",".join([FMT % row.r, str(row.n_xi), str(row.n_rho),
                                FMT % row.e_plate, FMT % row.e_free,
                                FMT % row.w, ""]) + "\n")
    return out.getvalue()


def sweep_from_csv(text: str) -> SweepTable:
    grid: dict = {}
    config: dict = {}
    rows = []
    m = 1.0
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("# ")
            if "=" in body:
                key, _, val = body.partition("=")
                key, val = key.strip(), val.strip()
                if key == "m":
                    m = float(val)
                elif key.startswith("grid."):
                    grid[key[5:]] = val
                else:
                    config[key] = val
            continue
        if line.startswith("r,"):
            continue
        parts = line.split(",", 6)   # the error text may itself hold commas
        if parts[3] == "":
            rows.append(SweepRow(r=float(parts[0]), n_xi=int(parts[1]),
                                 n_rho=int(parts[2]), e_plate=None, e_free=None,
                                 error=parts[6] or "gap"))
        else:
            rows.append(SweepRow(r=float(parts[0]), n_xi=int(parts[1]),
                                 n_rho=int(parts[2]), e_plate=float(parts[3]),
                                 e_free=float(parts[4])))
    return SweepTable(rows=rows, m=m, grid=grid, config=config)


def fit_to_csv(fit: FitResult) -> str:
    out = io.StringIO()
    out.write(f"# vdwplate fit {__version__}\n")
    out.write(f"# exponents = {','.join(str(k) for k in fit.exponents)}\n")
    out.write(f"# weight_power = {FMT % fit.weight_power}\n")
    out.write(f"# window = {FMT % fit.window[0]},{FMT % fit.window[1]}\n")
    out.write(f"# condition = {FMT % fit.condition}\n")
    for k, c in zip(fit.exponents, fit.coefficients):
        out.write(f"# c{k} = {FMT % c}\n")
    out.write("r,residual\n")
    for r, res in zip(fit.r_values, fit.residuals):
        out.write(f"{FMT % r},{FMT % res}\n")
    return out.getvalue()


def fit_to_dict(fit: FitResult) -> dict:
    return {
        "exponents": list(fit.exponents),
        "coefficients": [float(c) for c in fit.coefficients],
        "residuals": [float(x) for x in fit.residuals],
        "r_values": [float(x) for x in fit.r_values],
        "window": list(fit.window),
        "condition": fit.condition,
        "weight_power": fit.weight_power,
    }


def table_to_json(table: SweepTable, fit: FitResult | None = None) -> str:
    doc = {
        "version": __version__,
        "config": {**table.config, "m": table.m},
        "grid": table.grid,
        "rows": [asdict(row) | {"W": row.w} for row in table.rows],
    }
    if fit is not None:
        doc["fit"] = fit_to_dict(fit)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
