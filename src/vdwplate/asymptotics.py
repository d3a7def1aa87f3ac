"""Distance sweeps of the interaction energy, power-law coefficient fits, and
their CSV/JSON serializations.

W(r) is always computed as a same-grid difference: the plate run (mirror
strength m) minus the free run (m = 0) on the identical grid and stencil, so
the leading discretization error cancels.  Outputs embed the resolved
configuration and are byte-identical across reruns.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .eigensolver import (GridCyl, GridCylSpec, _solve_settings, assemble_hydrogen_plate,
                          kinetic_preconditioner, lowest_eigenpair)
from .model import MIRROR_STRENGTH

FMT = "%.17g"
CSV_COLUMNS = ("r", "n_xi", "n_rho", "E_plate", "E_free", "W", "iterations", "error")


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
        MIRROR_STRENGTH.check("mirror strength m", self.m)
        rs = [row.r for row in self.rows]
        if (any(not 0 < r < np.inf for r in rs)
                or any(b <= a for a, b in zip(rs, rs[1:]))):
            raise ValueError("sweep radii must be finite, positive and strictly increasing")
        for row in self.rows:   # a non-finite E_plate or E_free makes W non-finite
            if row.w is not None and not np.isfinite(row.w):
                raise ValueError(f"sweep row at r = {FMT % row.r} has a non-finite energy")

    def solved_arrays(self):
        """(r, W) over rows that solved; gaps are dropped."""
        good = [(row.r, row.w) for row in self.rows if row.w is not None]
        if not good:
            raise ValueError("no solved rows in the sweep table")
        r, w = zip(*good)
        return np.array(r), np.array(w)


def solve_row(grid: GridCyl, m: float) -> tuple:
    """(SweepRow, plate residual) of W on one grid.

    One assembly builds the plate operator and the free diagonal, which
    set_diagonal writes in after the plate solve: the row holds one operator
    throughout.  Both solves take the grid's kinetic_preconditioner, and the
    free one starts from the plate's Ritz vector; iterations sums their
    applications.  At m = 0 the plate operator is the free one: one solve.
    Raises what lowest_eigenpair raises.
    """
    op, diagonals = assemble_hydrogen_plate(grid, (m, 0.0) if m != 0 else (0.0,))
    precondition = kinetic_preconditioner(grid)
    plate = lowest_eigenpair(op, precondition)
    free, iterations = plate, plate.iterations
    if m != 0:
        op.set_diagonal(diagonals[0])
        op.guess = plate.vector
        free = lowest_eigenpair(op, precondition)
        iterations += free.iterations
    row = SweepRow(r=grid.r, n_xi=grid.n_xi, n_rho=grid.n_rho,
                   e_plate=plate.value, e_free=free.value, iterations=iterations)
    return row, plate.residual


def _solve_sweep_row(args) -> SweepRow:
    grid, m = args
    try:
        return solve_row(grid, m)[0]
    except RuntimeError as exc:     # NonConvergenceError or InertiaError
        return SweepRow(r=grid.r, n_xi=grid.n_xi, n_rho=grid.n_rho,
                        e_plate=None, e_free=None, error=str(exc))


def sweep_interaction_energy(r_values, plate_m: float = 1.0,
                             spec: GridCylSpec = GridCylSpec(),
                             jobs: int = 1) -> SweepTable:
    """Solve E(r) and the matching free-hydrogen energy for each r.

    Rows are independent solves; jobs > 1 runs them in min(jobs, rows) worker
    processes and merges in r order.  The workers are forked inside
    _solve_settings, so each inherits one OpenBLAS thread and never sets
    the count: in a forked child that restarts OpenBLAS's server threads,
    which spin for about 0.1 s each against the worker's solves.  So the
    pool forks wherever fork exists (Python 3.14 defaults to forkserver,
    whose workers inherit no count).  multiprocessing and the pool are
    imported here, by the one path that uses them, not with the package.  A
    solve that fails to converge or to certify its shift marks its row as a gap
    instead of aborting the sweep.  plate_m outside MIRROR_STRENGTH raises
    ValueError before any grid or worker is made.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    MIRROR_STRENGTH.check("mirror strength m", plate_m)
    rs = sorted(float(r) for r in r_values)
    if not rs or any(not 0 < r < np.inf for r in rs) or len(set(rs)) != len(rs):
        raise ValueError("sweep radii must be given, finite, positive and distinct")
    # every grid is built, and so checked, before the first solve or worker
    work = [(GridCyl.for_distance(r, spec), plate_m) for r in rs]
    workers = min(jobs, len(work))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        context = (multiprocessing.get_context("fork")
                   if "fork" in multiprocessing.get_all_start_methods() else None)
        with _solve_settings(), ProcessPoolExecutor(workers, mp_context=context) as pool:
            rows = list(pool.map(_solve_sweep_row, work))
    else:
        rows = [_solve_sweep_row(w) for w in work]
    return SweepTable(rows=rows, m=plate_m, grid=asdict(spec), config={"jobs": jobs})


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

    def coefficient(self, exponent: int) -> float:
        return float(self.coefficients[self.exponents.index(exponent)])


def _r_w(table) -> tuple:
    """(r, W) arrays of a SweepTable's solved rows, or of an (r, W) pair."""
    if isinstance(table, SweepTable):
        return table.solved_arrays()
    r, w = (np.asarray(a, dtype=float) for a in table)
    return r, w


def fit_power_law(table, exponents) -> FitResult:
    """Weighted least squares of W(r) in the basis {r^-k}.

    Weights r^6 equalize the leading-term influence across the window.
    Accepts a SweepTable or an (r, W) array pair.  The exponents must be
    distinct positive integers (3.0 counts as 3; 3.5, inf or NaN raise
    ValueError).  Radii whose r^3 weights or r^-k columns overflow or
    underflow raise ValueError.
    """
    r, w = _r_w(table)
    exponents = tuple(exponents)
    if (not exponents or len(set(exponents)) != len(exponents)
            or not all(float(k).is_integer() and k > 0 for k in exponents)):
        raise ValueError(f"exponents must be one or more distinct positive integers, "
                         f"got {list(exponents)}")
    exponents = tuple(int(k) for k in exponents)
    if r.size < len(exponents):
        raise ValueError("need at least as many rows as exponents")
    with np.errstate(over="ignore", under="ignore"):
        design = np.column_stack([r ** (-float(k)) for k in exponents])
        sqrt_w = r ** 3.0
    if not all(np.all((np.finfo(float).tiny <= x) & (x < np.inf)) for x in (design, sqrt_w)):
        raise ValueError(f"r^3 weights or r^-k columns overflow or underflow on the "
                         f"radii {float(r.min())!r} to {float(r.max())!r}")
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
    )


def empirical_d3(table) -> float:
    """Largest r^6 |W(r) + 1/r^3 + 18/r^5| over the window: the constant a
    sixth-order term beyond the two-term hydrogen law would need."""
    r, w = _r_w(table)
    return float(np.max(np.abs((w + r ** -3.0 + 18.0 * r ** -5.0) * r ** 6.0)))


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
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in table.rows:
        head = f"{FMT % row.r},{row.n_xi},{row.n_rho}"
        if row.w is None:
            out.write(f"{head},,,,{row.iterations},{row.error}\n")
        else:
            out.write(f"{head},{FMT % row.e_plate},{FMT % row.e_free},"
                      f"{FMT % row.w},{row.iterations},\n")
    return out.getvalue()


def _header_value(text: str):
    """A '# key = value' header value as the int or float whose str() it
    is; any other text, '1e5' or 'cell-average', stays a string."""
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        if str(value) == text:
            return value
    return text


def sweep_from_csv(text: str) -> SweepTable:
    grid: dict = {}
    config: dict = {}
    rows = []
    m = 1.0
    columns = CSV_COLUMNS
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
                    grid[key[5:]] = _header_value(val)
                else:
                    config[key] = _header_value(val)
            continue
        if line.startswith("r,"):
            columns = line.split(",")   # files without an iterations column still load
            continue
        # error is the last column, and its text may itself hold commas
        col = dict(zip(columns, raw.split(",", len(columns) - 1)))
        missing = [c for c in CSV_COLUMNS[:5] if c not in col]     # r .. E_free
        if missing:
            raise ValueError(f"sweep CSV line {line!r} lacks columns {', '.join(missing)}")
        solved = col["E_plate"] != ""
        rows.append(SweepRow(r=float(col["r"]), n_xi=int(col["n_xi"]),
                             n_rho=int(col["n_rho"]),
                             e_plate=float(col["E_plate"]) if solved else None,
                             e_free=float(col["E_free"]) if solved else None,
                             iterations=int(col.get("iterations", 0)),
                             error=None if solved else col.get("error") or "gap"))
    return SweepTable(rows=rows, m=m, grid=grid, config=config)


def fit_to_csv(fit: FitResult) -> str:
    out = io.StringIO()
    out.write(f"# vdwplate fit {__version__}\n")
    out.write(f"# exponents = {','.join(str(k) for k in fit.exponents)}\n")
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
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
