"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy eigensolver sweeps (criteria 4, 5, 11) run at the production grid
(h = 0.1, extents 28) and are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from vdwplate.asymptotics import (dielectric_scaling, fit_power_law,
                                  sweep_interaction_energy)
from vdwplate.eigensolver import (Grid1D, GridCyl, GridCylSpec,
                                  PartitionOfUnity, assemble_hydrogen_plate,
                                  electron_plate_ground, feshbach_fixed_point,
                                  feshbach_matrix, hardy_check)
from vdwplate.model import E_HYDROGEN, trapezoid_inequality
from vdwplate.multipole import (GroundBasis, HydrogenOrbital,
                                mirror_energy_expectation, orientation_coefficient)
from vdwplate.spectra import (binding_condition, electron_plate_energy_deviation,
                              essential_spectrum_bottom, helium_variational_energy)

PRODUCTION_SPEC = GridCylSpec()  # h = 0.1, extents 28


# lines echoed by the terminal-summary hook in conftest so the criterion
# verdicts survive pytest's output capture
RESULT_LINES: list = []


def report(number: int, label: str, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {number}: {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    RESULT_LINES.append((number, line))
    return ok


@pytest.fixture(scope="module")
def eplate_run():
    t0 = time.perf_counter()
    res = electron_plate_ground(4096, 400.0)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def production_sweep():
    t0 = time.perf_counter()
    table = sweep_interaction_energy([10.0, 12.0, 14.0, 16.0], plate_m=1.0,
                                     spec=PRODUCTION_SPEC)
    elapsed = time.perf_counter() - t0
    return table, elapsed


@pytest.fixture(scope="module")
def dielectric_tables():
    rs = [12.0, 16.0, 20.0, 24.0]
    half = sweep_interaction_energy(rs, plate_m=0.5, spec=PRODUCTION_SPEC)
    full = sweep_interaction_energy(rs, plate_m=1.0, spec=PRODUCTION_SPEC)
    return half, full


def test_criterion_1_electron_plate_energy(eplate_run):
    res, elapsed = eplate_run
    rel = abs(res.value - (-1.0 / 64.0)) * 64.0
    ok = rel <= 1e-5 and elapsed < 5.0
    assert report(1, "1D electron/plate ground energy at n=4096, L=400",
                  ok, f"value={res.value:.12g}, rel_err={rel:.3e}, {elapsed:.2f}s"), \
        f"relative error {rel:.3e} (tol 1e-5) in {elapsed:.2f}s (budget 5s)"


def test_criterion_2_ratio_identity(eplate_run):
    res, _ = eplate_run
    dev = electron_plate_energy_deviation(res.value)
    ok = dev <= 1e-6
    assert report(2, "computed energy equals E_h/16 within 1e-6",
                  ok, f"deviation={dev:.3e}"), f"deviation {dev:.3e} > 1e-6"


def test_criterion_3_quadrature_constants():
    t0 = time.perf_counter()
    zeta = HydrogenOrbital()
    exp_i = mirror_energy_expectation(zeta, 20.0)
    elapsed = time.perf_counter() - t0
    target = -1.0 / 20.0 ** 3 - 18.0 / 20.0 ** 5
    value_err = abs(exp_i.value - target)

    def oracle(k):
        val, err = quad(lambda R: R ** (k + 2) * np.exp(-R) / 2.0, 0.0, 120.0,
                        epsabs=1e-13, epsrel=1e-13, limit=200)
        assert err < 1e-11 * max(1.0, val)
        return val / (k + 1.0)

    m2_err = abs(exp_i.moment_x1_sq - oracle(2)) / 4.0
    m4_err = abs(exp_i.moment_x1_4 - oracle(4)) / 72.0
    ok = (value_err <= 1e-7 and m2_err <= 1e-10 and m4_err <= 1e-10
          and elapsed < 1.0)
    assert report(3, "quadrature value -1/r^3 - 18/r^5 at r=20 and moments 4, 72",
                  ok, f"value_err={value_err:.2e}, moment_errs=({m2_err:.2e}, "
                      f"{m4_err:.2e}), {elapsed:.2f}s"), \
        (value_err, m2_err, m4_err, elapsed)


def test_criterion_4_leading_coefficient_fit(production_sweep):
    table, elapsed = production_sweep
    fit = fit_power_law(table, (3, 5))
    c3 = fit.coefficient(3)
    c5 = fit.coefficient(5)  # reported, not gated at desk scale
    ok = -1.1 <= c3 <= -0.9 and elapsed < 1800.0
    assert report(4, "fitted leading coefficient from the m=1 sweep",
                  ok, f"c3={c3:.4f} (window [-1.1, -0.9]), c5={c5:.2f} reported, "
                      f"{elapsed:.0f}s"), (c3, elapsed)


def test_criterion_5_hvz_ordering(production_sweep):
    table, _ = production_sweep
    gaps = [(row.r, row.e_plate - essential_spectrum_bottom(row.r))
            for row in table.rows]
    ok = all(g < 0 for _, g in gaps)
    assert report(5, "every sweep row lies below the essential spectrum",
                  ok, ", ".join(f"r={r:g}: gap={g:.4f}" for r, g in gaps)), gaps


def test_criterion_6_helium_energy():
    t0 = time.perf_counter()
    he = helium_variational_energy()
    elapsed = time.perf_counter() - t0
    total_err = abs(he.total - 5.5 * E_HYDROGEN) / abs(5.5 * E_HYDROGEN)
    rep_err = abs(he.repulsion - 0.625) / 0.625
    ok = total_err <= 5e-3 and rep_err <= 5e-3 and elapsed < 10.0
    assert report(6, "helium variational energy 5.5 E_h with repulsion 5/8",
                  ok, f"total={he.total:.6f}, repulsion={he.repulsion:.6f}, "
                      f"{elapsed:.2f}s"), (he.total, he.repulsion, elapsed)


def test_criterion_7_binding_verdicts():
    hydrogen = binding_condition({1: E_HYDROGEN}, 1)
    he = helium_variational_energy()
    helium = binding_condition({2: he.total, 1: 4.0 * E_HYDROGEN}, 2)
    ok = hydrogen[1].certified and all(v.certified for v in helium.values())
    assert report(7, "binding conditions certified for hydrogen and helium",
                  ok, f"hydrogen k=1: {hydrogen[1].certified}; helium k=1,2: "
                      f"{helium[1].certified}, {helium[2].certified}"), (hydrogen, helium)


def test_criterion_8_feshbach_oracle():
    rng = np.random.default_rng(20260810)
    worst_fp = 0.0
    monotone_ok = True
    for _ in range(100):
        a = rng.standard_normal((50, 50))
        h = 0.5 * (a + a.T)
        vals, vecs = np.linalg.eigh(h)
        gap = vals[1] - vals[0]
        noise = rng.standard_normal(50)
        noise -= vecs[:, 0] * (vecs[:, 0] @ noise)
        psi = vecs[:, 0] + 0.1 * min(1.0, gap) * noise / np.linalg.norm(noise)
        psi /= np.linalg.norm(psi)
        fp = feshbach_fixed_point(h, psi, (vals[0] - 1.0, 0.5 * (vals[0] + vals[1])))
        worst_fp = max(worst_fp, abs(fp - vals[0]))
        lam_pair = (vals[0] - 1.0, vals[0] - 0.2)
        g_lo = np.linalg.eigvalsh(feshbach_matrix(h, psi, lam_pair[0]))[0]
        g_hi = np.linalg.eigvalsh(feshbach_matrix(h, psi, lam_pair[1]))[0]
        monotone_ok = monotone_ok and (g_lo >= g_hi - 1e-12)
    ok = worst_fp <= 1e-10 and monotone_ok
    assert report(8, "fixed point matches the direct eigenvalue on 100 matrices",
                  ok, f"worst_error={worst_fp:.2e}, monotone={monotone_ok}"), \
        (worst_fp, monotone_ok)


def test_criterion_9_property_suites():
    rng = np.random.default_rng(7)
    # Hardy inequality on 200 random admissible grid functions
    grid = Grid1D(2000, 50.0)
    x = grid.nodes
    hardy_ok = True
    for _ in range(200):
        alpha = rng.uniform(0.3, 2.0)
        k = int(rng.integers(1, 6))
        poly = np.polynomial.Polynomial(rng.standard_normal(4))
        u = x * np.exp(-alpha * x) * (1.0 + 0.3 * np.sin(k * x / 5.0)) \
            * (1.0 + 0.1 * poly(x / 50.0))
        lhs, rhs = hardy_check(u, grid)
        hardy_ok = hardy_ok and lhs <= rhs + 1e-12

    # trapezoid inequality on 1e5 sampled geometries
    n = 100_000
    a = rng.uniform(0.05, 10.0, n)
    c = rng.uniform(0.05, 10.0, n)
    height = rng.uniform(0.0, 10.0, n)
    b = np.hypot((a + c) / 2.0, height)
    trapezoid_ok = bool(np.all(2.0 / b <= 1.0 / a + 1.0 / c + 1e-12))
    spot = trapezoid_inequality(a[0], c[0], b[0])
    trapezoid_ok = trapezoid_ok and spot.holds

    # partition identity and IMS localization identity on grid functions
    r = 40.0
    part = PartitionOfUnity(r)
    pts_sample = rng.standard_normal((4000, 3)) * 15.0
    j_sq_dev = float(np.max(np.abs(part.j1(pts_sample) ** 2
                                   + part.j2(pts_sample) ** 2 - 1.0)))
    spec = GridCylSpec(h_target=0.125, l_xi_plus=18.0, l_rho=18.0)
    gridcyl = GridCyl.for_distance(r, spec)
    op = assemble_hydrogen_plate(gridcyl, (1.0,))[0]
    pts = gridcyl.points()
    j1, j2, grad = part.j1(pts), part.j2(pts), part.gradient_sq(pts)
    ims_ok = True
    worst_ims = 0.0
    for cwidth in (r / 3.5, r / 3.0, r / 2.5):
        u = np.exp(-np.linalg.norm(pts, axis=1) ** 2 / (2 * cwidth ** 2))
        u = u * np.sqrt(gridcyl.volume_weights())
        lhs = u @ (op.matrix @ u)
        rhs = ((j1 * u) @ (op.matrix @ (j1 * u))
               + (j2 * u) @ (op.matrix @ (j2 * u)) - u @ (grad * u))
        rel = abs(lhs - rhs) / abs(u @ (grad * u))
        worst_ims = max(worst_ims, rel)
        ims_ok = ims_ok and rel <= 0.05

    ok = hardy_ok and trapezoid_ok and j_sq_dev <= 1e-10 and ims_ok
    assert report(9, "Hardy, trapezoid, IMS identity, and partition of unity",
                  ok, f"hardy={hardy_ok}, trapezoid={trapezoid_ok}, "
                      f"J^2 dev={j_sq_dev:.1e}, IMS rel err={worst_ims:.3f}"), \
        (hardy_ok, trapezoid_ok, j_sq_dev, worst_ims)


def test_criterion_10_orientation_coefficient():
    rng = np.random.default_rng(11)
    basis = GroundBasis((HydrogenOrbital(),))
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        worst = max(worst, abs(orientation_coefficient(basis, v) - 1.0))

    # rotation covariance on a non-spherical grid basis
    from test_multipole import spherical_product_grid
    from vdwplate.multipole import GridWaveFn
    pts, wts = spherical_product_grid()
    radius = np.linalg.norm(pts, axis=1)
    fa = GridWaveFn.from_samples(pts, wts, pts[:, 0] * np.exp(-radius / 2.0))
    fb = GridWaveFn.from_samples(pts, wts, pts[:, 1] * np.exp(-radius / 2.0))
    pair = GroundBasis((fa, fb))
    theta = 0.9
    rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                    [np.sin(theta), np.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    rotated = GroundBasis((fa.rotated(rot), fb.rotated(rot)))
    cov_dev = 0.0
    for _ in range(5):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        cov_dev = max(cov_dev, abs(orientation_coefficient(pair, v)
                                   - orientation_coefficient(rotated, rot @ v)))
    ok = worst <= 1e-6 and cov_dev <= 1e-10
    assert report(10, "hydrogen orientation coefficient 1 and rotation covariance",
                  ok, f"max |C-1|={worst:.2e}, covariance dev={cov_dev:.2e}"), \
        (worst, cov_dev)


def test_criterion_11_dielectric_scaling(dielectric_tables):
    half, full = dielectric_tables
    rep = dielectric_scaling(half, full)
    in_window = bool(np.all((rep.ratios >= 0.4) & (rep.ratios <= 0.6)))
    ok = in_window and rep.approaches_m
    detail = ", ".join(f"r={r:g}: {q:.4f}" for r, q in zip(rep.r_values, rep.ratios))
    assert report(11, "W_m/W_1 in [0.4, 0.6] drifting monotonically to 0.5",
                  ok, detail), (rep.ratios, rep.approaches_m)


def test_criterion_12_exact_fit_recovery():
    rs = np.arange(8.0, 41.0, 2.0)
    ws = -1.0 / rs ** 3 - 18.0 / rs ** 5
    fit = fit_power_law((rs, ws), (3, 5))
    e3 = abs(fit.coefficient(3) + 1.0)
    e5 = abs(fit.coefficient(5) + 18.0)
    ok = e3 <= 1e-12 and e5 <= 1e-12
    assert report(12, "noiseless synthetic coefficients recovered exactly",
                  ok, f"|c3+1|={e3:.2e}, |c5+18|={e5:.2e}"), (e3, e5)
