"""Correctness bookkeeping and the comparisons against the stored seed
reference.  Nothing here imports vdwplate, so the checks stay independent of
the code they judge."""

from __future__ import annotations

import json
import os

W_TOL = 1e-9            # |W - W_ref| per row, same grid
C3_WINDOW = (-1.1, -0.9)
RATIO_WINDOW = (0.4, 0.6)
E_ELECTRON_PLATE = -1.0 / 64.0

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Checks:
    """Counts attempted and failed operations; keeps the first failure texts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    def fail(self, what: str):
        self.check(False, what)


def essential_bottom(r: float) -> float:
    """Conductor plate: electron bound to the plate plus the nucleus image."""
    return E_ELECTRON_PLATE - 1.0 / (4.0 * r)


def check_w_rows(checks: Checks, rows, reference_rows, label: str):
    """One check per reference row: solved, on the same grid, W within W_TOL.

    rows are dicts with keys r, n_xi, n_rho, W (None for a gap row).
    """
    by_r = {float(row["r"]): row for row in rows}
    for ref in reference_rows:
        r = float(ref["r"])
        row = by_r.get(r)
        if row is None:
            checks.fail(f"{label}: no row at r={r:g}")
            continue
        if row["W"] is None:
            checks.fail(f"{label}: gap row at r={r:g}")
            continue
        same_grid = (int(row["n_xi"]), int(row["n_rho"])) == (ref["n_xi"], ref["n_rho"])
        dev = abs(float(row["W"]) - ref["W"])
        checks.check(same_grid and dev <= W_TOL,
                     f"{label}: r={r:g} grid {row['n_xi']}x{row['n_rho']} "
                     f"(ref {ref['n_xi']}x{ref['n_rho']}), |W-W_ref|={dev:.3e}")
    checks.check(len(rows) == len(reference_rows),
                 f"{label}: {len(rows)} rows, reference has {len(reference_rows)}")


def check_below_continuum(checks: Checks, rows, label: str):
    for row in rows:
        e = row["E_plate"]
        ok = e is not None and float(e) < essential_bottom(float(row["r"]))
        checks.check(ok, f"{label}: E_plate={e} at r={row['r']} not below the "
                         f"essential spectrum")


def check_c3(checks: Checks, c3: float, label: str):
    lo, hi = C3_WINDOW
    checks.check(lo <= c3 <= hi, f"{label}: c3={c3:.6g} outside [{lo}, {hi}]")


def check_ratios(checks: Checks, ratios, m: float, label: str):
    lo, hi = RATIO_WINDOW
    for q in ratios:
        checks.check(lo <= q <= hi, f"{label}: ratio {q:.6g} outside [{lo}, {hi}]")
    dev = [abs(q - m) for q in ratios]
    checks.check(all(b <= a for a, b in zip(dev, dev[1:])),
                 f"{label}: ratios do not approach {m} monotonically: {list(ratios)}")


def parse_sweep_csv(text: str) -> list:
    """Rows of a `vdwplate sweep` CSV as dicts (W None on a gap row)."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("r,"):
            continue
        parts = line.split(",", 6)
        solved = parts[5] != ""
        rows.append({"r": float(parts[0]), "n_xi": int(parts[1]),
                     "n_rho": int(parts[2]),
                     "E_plate": float(parts[3]) if solved else None,
                     "E_free": float(parts[4]) if solved else None,
                     "W": float(parts[5]) if solved else None})
    return rows
