"""The three workloads.  Each builds its inputs from the seed in __init__,
runs one timed pass in run_pass() through the public API or CLI of vdwplate,
and judges a pass's outputs in check(), outside the timed region.

Functions of vdwplate are looked up on their module at call time
(`asymptotics.fit_power_law`, not a name imported here), so the tracer's
wrappers are used when they are installed.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import tempfile
import time

import numpy as np

from checks import (Checks, check_below_continuum, check_c3, check_ratios,
                    check_w_rows, load_reference, parse_sweep_csv)

# accuracy figures are floored so that a value at rounding level repeats
C_ERR_FLOOR = 1e-6
REL_ERR_FLOOR = 1e-12


def _floored(value: float, floor: float) -> float:
    return max(abs(float(value)), floor)


def _row_dicts(table) -> list:
    return [{"r": row.r, "n_xi": row.n_xi, "n_rho": row.n_rho,
             "E_plate": row.e_plate, "E_free": row.e_free, "W": row.w}
            for row in table.rows]


class OpTimes:
    """Durations of the operations inside a pass, by kind."""

    def __init__(self):
        self.samples: dict = {}

    def call(self, kind: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.samples.setdefault(kind, []).append(time.perf_counter() - start)
        return out


class ProductionSweep:
    """`vdwplate sweep` on the production grid, then `vdwplate fit`, in-process."""

    name = "production_sweep"
    R_VALUES = (10.0, 12.0, 14.0, 16.0)

    def __init__(self, seed: int, work_dir: str, nproc: int):
        order = list(self.R_VALUES)
        random.Random(seed).shuffle(order)   # the CLI sorts; the output must not change
        self.r_arg = ",".join(f"{r:g}" for r in order)
        self.work_dir = work_dir
        self.reference = load_reference()["production_sweep"]

    def run_pass(self, ops: OpTimes):
        from vdwplate import cli
        out_dir = tempfile.mkdtemp(prefix="production-", dir=self.work_dir)
        csv_path = os.path.join(out_dir, "sweep.csv")
        fit_path = os.path.join(out_dir, "fit.json")
        rc_sweep = ops.call("cli.sweep", cli.main, [
            "sweep", "--r-values", self.r_arg, "--m", "1", "--h", "0.1",
            "--l-xi", "28", "--l-rho", "28", "--jobs", "1", "--output", csv_path])
        rc_fit = ops.call("cli.fit", cli.main, [
            "fit", "--input", csv_path, "--exponents", "3,5", "--format", "json",
            "--output", fit_path])
        return {"dir": out_dir, "rc": (rc_sweep, rc_fit)}

    def check(self, out, checks: Checks) -> dict:
        try:
            rc_sweep, rc_fit = out["rc"]
            checks.check(rc_sweep == 0, f"sweep exited {rc_sweep}")
            checks.check(rc_fit == 0, f"fit exited {rc_fit}")
            with open(os.path.join(out["dir"], "sweep.csv"), encoding="utf-8") as fh:
                rows = parse_sweep_csv(fh.read())
            with open(os.path.join(out["dir"], "fit.json"), encoding="utf-8") as fh:
                fit = json.load(fh)["fit"]
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)
        check_w_rows(checks, rows, self.reference["rows"], "production m=1")
        check_below_continuum(checks, rows, "production m=1")
        coeffs = dict(zip(fit["exponents"], fit["coefficients"]))
        check_c3(checks, coeffs[3], "production fit")
        c3_err = _floored(coeffs[3] + 1.0, C_ERR_FLOOR)
        return {"acc_err": c3_err, "c3_abs_err": c3_err,
                "c5_abs_err": _floored(coeffs[5] + 18.0, C_ERR_FLOOR)}


class DielectricLadder:
    """Two reduced-grid sweeps (m=0.5, m=1) through the process pool."""

    name = "dielectric_ladder"
    R_VALUES = tuple(8.0 + 2.0 * i for i in range(9))
    MIRRORS = (0.5, 1.0)

    def __init__(self, seed: int, work_dir: str, nproc: int):
        from vdwplate.eigensolver import GridCylSpec
        order = list(self.R_VALUES)
        random.Random(seed).shuffle(order)   # the sweep sorts; the output must not change
        self.r_values = order
        self.spec = GridCylSpec(h_target=0.2, l_xi_plus=20.0, l_rho=20.0)
        self.jobs = max(1, min(2, nproc))
        self.reference = load_reference()["dielectric_ladder"]

    def run_pass(self, ops: OpTimes):
        from vdwplate import asymptotics
        tables = [ops.call("sweep", asymptotics.sweep_interaction_energy,
                           self.r_values, plate_m=m, spec=self.spec, jobs=self.jobs)
                  for m in self.MIRRORS]
        ratio = asymptotics.dielectric_scaling(tables[0], tables[1])
        fit = asymptotics.fit_power_law(tables[1], (3, 5))
        text = asymptotics.table_to_json(tables[1], fit)
        return {"tables": tables, "ratio": ratio, "fit": fit, "json": text}

    def check(self, out, checks: Checks) -> dict:
        half, full = out["tables"]
        for m, table in zip(self.MIRRORS, (half, full)):
            check_w_rows(checks, _row_dicts(table), self.reference[f"m={m:g}"],
                         f"ladder m={m:g}")
        check_below_continuum(checks, _row_dicts(full), "ladder m=1")
        check_ratios(checks, list(out["ratio"].ratios), self.MIRRORS[0], "ladder")
        c3 = out["fit"].coefficient(3)
        check_c3(checks, c3, "ladder fit")
        doc = json.loads(out["json"])
        checks.check([row["W"] for row in doc["rows"]] == [row.w for row in full.rows]
                     and doc["fit"]["coefficients"][0] == c3,
                     "ladder JSON does not reproduce the table and fit")
        c3_err = _floored(c3 + 1.0, C_ERR_FLOOR)
        return {"acc_err": c3_err, "c3_abs_err": c3_err,
                "c5_abs_err": _floored(out["fit"].coefficient(5) + 18.0, C_ERR_FLOOR)}


# ---------------------------------------------------------------------------
# analytic_lab
# ---------------------------------------------------------------------------

def _feshbach_case(rng, n: int = 50):
    """The recipe of acceptance criterion 8: a start vector near the ground state."""
    a = rng.standard_normal((n, n))
    h = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(h)
    gap = vals[1] - vals[0]
    noise = rng.standard_normal(n)
    noise -= vecs[:, 0] * (vecs[:, 0] @ noise)
    psi = vecs[:, 0] + 0.1 * min(1.0, gap) * noise / np.linalg.norm(noise)
    psi /= np.linalg.norm(psi)
    return h, psi, vals[0], vals[1]


def _reference_interaction(q, p, v, r, a) -> float:
    """Direct pairs once, mirror terms with coefficient a at half weight."""
    mirror = p - 2.0 * (p @ v + r)[:, None] * v
    energy = 0.0
    for i in range(len(q)):
        for j in range(len(q)):
            if j > i:
                energy += q[i] * q[j] / np.linalg.norm(p[i] - p[j])
            energy += 0.5 * a * q[i] * q[j] / np.linalg.norm(p[i] - mirror[j])
    return energy


def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class AnalyticLab:
    """No 2D solve: the 1D plate problem, the Feshbach map, the multipole
    quadratures, the helium and threshold formulas, image-charge energies and
    the model checks.  Block sizes give eplate, Feshbach and multipole
    comparable shares of a pass."""

    name = "analytic_lab"
    EPLATE_N = (1024, 4096, 16384, 65536)
    EPLATE_L = 400.0
    N_FESHBACH = 24
    N_MIRROR_RADII = 400
    N_DIRECTIONS = 32
    N_HELIUM = 16
    N_CHARGE_SETS = 32
    EPS_LADDER = (1.5, 2.0, 4.0, 8.0, 16.0, 64.0, math.inf)
    N_MOLECULES = 64

    def __init__(self, seed: int, work_dir: str, nproc: int):
        rng = np.random.default_rng(seed)
        self.feshbach = [_feshbach_case(rng) for _ in range(self.N_FESHBACH)]
        self.radii = [float(r) for r in rng.uniform(8.0, 40.0, self.N_MIRROR_RADII)]
        self.directions = [_unit(rng) for _ in range(self.N_DIRECTIONS)]
        self.charge_sets = []
        for _ in range(self.N_CHARGE_SETS):
            k = int(rng.integers(2, 7))
            q = rng.choice([-2.0, -1.0, 1.0, 2.0], size=k)
            p = rng.uniform(-1.5, 1.5, size=(k, 3))
            self.charge_sets.append((q, p, _unit(rng), float(rng.uniform(2.0, 6.0))))
        self.molecules = []
        for _ in range(self.N_MOLECULES):
            z = float(rng.integers(1, 4))
            d = rng.uniform(0.5, 3.0) * _unit(rng)
            self.molecules.append((z, d, _unit(rng), float(rng.uniform(4.0, 10.0))))
        self.trapezoids = [(a, c, math.hypot((a + c) / 2.0, h)) for a, c, h in
                           rng.uniform(0.05, 10.0, size=(self.N_MOLECULES, 3))]
        ref = load_reference()
        self.plate_rows = ([(row["r"], row["E_plate"]) for row in ref["production_sweep"]["rows"]]
                           + [(row["r"], row["E_plate"]) for row in ref["dielectric_ladder"]["m=1"]])

    def run_pass(self, ops: OpTimes):
        from vdwplate import eigensolver, model, multipole, potential, spectra
        out = {}
        out["eplate"] = [ops.call(f"eplate.n{n}", eigensolver.electron_plate_ground,
                                  n, self.EPLATE_L) for n in self.EPLATE_N]

        fesh = []
        for h, psi, l0, l1 in self.feshbach:
            fp = ops.call("feshbach", eigensolver.feshbach_fixed_point,
                          h, psi, (l0 - 1.0, 0.5 * (l0 + l1)))
            g_lo = np.linalg.eigvalsh(eigensolver.feshbach_matrix(h, psi, l0 - 1.0))[0]
            g_hi = np.linalg.eigvalsh(eigensolver.feshbach_matrix(h, psi, l0 - 0.2))[0]
            fesh.append((fp, g_lo, g_hi))
        out["feshbach"] = fesh

        mirror = []
        for r in self.radii:
            cut = ops.call("mirror.cutoff", multipole.mirror_energy_expectation,
                           multipole.HydrogenOrbital(cutoff_r=r), r)
            plain = ops.call("mirror.plain", multipole.mirror_energy_expectation,
                             multipole.HydrogenOrbital(), r)
            mirror.append((r, cut, plain))
        out["mirror"] = mirror

        hydrogen = multipole.GroundBasis((multipole.HydrogenOrbital(),))
        helium = multipole.GroundBasis((multipole.ProductState(
            (multipole.HydrogenOrbital(z=2.0), multipole.HydrogenOrbital(z=2.0))),))
        out["cv"] = [(ops.call("cv", multipole.orientation_coefficient, hydrogen, v),
                      ops.call("cv", multipole.orientation_coefficient, helium, v))
                     for v in self.directions]

        out["helium"] = []
        for _ in range(self.N_HELIUM):
            he = ops.call("helium", spectra.helium_variational_energy)
            verdicts = (spectra.binding_condition({1: -0.25}, 1),
                        spectra.binding_condition({2: he.total, 1: -1.0}, 2))
            out["helium"].append((he, verdicts))
        out["hvz"] = [(r, e, spectra.hvz_gap(e, r)) for r, e in self.plate_rows]

        energies = []
        for q, p, v, r in self.charge_sets:
            plate = model.PlateConfig(v, r, 1.0)
            charges = potential.ChargeSet(q, p, plate)
            for eps2 in self.EPS_LADDER:
                coeffs = potential.greens_coefficients(1.0, eps2)
                energies.append((q, p, v, r, coeffs,
                                 ops.call("interaction", potential.interaction_energy,
                                          charges, coeffs)))
        out["interaction"] = energies

        verdicts = []
        for z, d, v, r in self.molecules:
            pair = model.Molecule(np.array([z, z]), np.array([d, -d]), int(2 * z))
            shifted = model.Molecule(np.array([z, z]), np.array([d, -d]) + d, int(2 * z))
            charged = model.Molecule(np.array([z, z]), np.array([d, -d]), int(2 * z) + 1)
            plate = model.PlateConfig(v, r + 2.0 * float(np.linalg.norm(d)), 1.0)
            verdicts.append(tuple(ops.call("validate", model.validate_molecule, mol, plate).valid
                                  for mol in (pair, shifted, charged)))
        out["molecules"] = verdicts
        out["trapezoids"] = [model.trapezoid_inequality(a, c, b).holds
                             for a, c, b in self.trapezoids]
        return out

    def check(self, out, checks: Checks) -> dict:
        # acceptance criteria 1 and 2: relative error 1e-5 against -1/64
        eplate_err = None
        for n, res in zip(self.EPLATE_N, out["eplate"]):
            rel = abs(res.value + 1.0 / 64.0) * 64.0
            checks.check(rel <= 1e-5, f"eplate n={n}: relative error {rel:.3e}")
            if n == 4096:
                eplate_err = rel
        # criterion 8: fixed point within 1e-10, F_P(lambda) non-increasing
        for (h, psi, l0, _), (fp, g_lo, g_hi) in zip(self.feshbach, out["feshbach"]):
            checks.check(abs(fp - l0) <= 1e-10 and g_lo >= g_hi - 1e-12,
                         f"feshbach: |fp - lambda0|={abs(fp - l0):.3e}, "
                         f"g_lo={g_lo:.6g}, g_hi={g_hi:.6g}")
        # criterion 3 on the plain orbital; cut-off orbitals: Newton term, no
        # tail, ordered negative remainder bracket
        for r, cut, plain in out["mirror"]:
            target = -1.0 / r ** 3 - 18.0 / r ** 5
            checks.check(abs(plain.value - target) <= 1e-7,
                         f"mirror r={r:.4g}: |value - target|={abs(plain.value - target):.3e}")
            checks.check(abs(cut.newton_term - 1.0 / r) <= 1e-12 and cut.tail_mass == 0.0
                         and cut.remainder_lo <= cut.remainder_hi < 0.0,
                         f"mirror cut-off r={r:.4g}: newton={cut.newton_term!r}, "
                         f"tail={cut.tail_mass!r}")
        # criterion 10: C = 1 for hydrogen in every direction; 1/2 for the
        # doubly occupied z=2 orbital (<R^2> = 3, C = <R^2>/6)
        for c_h, c_he in out["cv"]:
            checks.check(abs(c_h - 1.0) <= 1e-6 and abs(c_he - 0.5) <= 1e-6,
                         f"C(v): hydrogen {c_h!r}, helium {c_he!r}")
        # criteria 6 and 7
        helium_err = None
        for he, (v_h, v_he) in out["helium"]:
            total_err = abs(he.total + 1.375) / 1.375
            rep_err = abs(he.repulsion - 0.625) / 0.625
            checks.check(total_err <= 5e-3 and rep_err <= 5e-3,
                         f"helium: total {he.total!r}, repulsion {he.repulsion!r}")
            checks.check(v_h[1].certified and all(v.certified for v in v_he.values()),
                         "binding verdicts not certified")
            helium_err = total_err
        for r, e, rep in out["hvz"]:
            bottom = -1.0 / 64.0 - 1.0 / (4.0 * r)
            checks.check(rep.status == "bound" and abs(rep.gap - (e - bottom)) <= 1e-15,
                         f"hvz r={r:g}: gap {rep.gap!r}, status {rep.status}")
        for q, p, v, r, coeffs, energy in out["interaction"]:
            ref = _reference_interaction(q, p, v, r, coeffs.a)
            checks.check(abs(energy - ref) <= 1e-12 * max(1.0, abs(ref))
                         and abs(coeffs.a + coeffs.b - 1.0) <= 1e-15,
                         f"interaction energy {energy!r}, reference {ref!r}")
        for valid in out["molecules"]:
            checks.check(valid == (True, False, False), f"validate_molecule gave {valid}")
        checks.check(all(out["trapezoids"]), "trapezoid inequality failed")
        helium_err = _floored(helium_err, REL_ERR_FLOOR)
        return {"acc_err": helium_err, "helium_rel_err": helium_err,
                "eplate_rel_err": _floored(eplate_err, REL_ERR_FLOOR)}


WORKLOADS = {cls.name: cls for cls in (ProductionSweep, DielectricLadder, AnalyticLab)}
