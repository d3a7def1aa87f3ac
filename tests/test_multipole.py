import dataclasses
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc

from conftest import random_unit_vectors
from vdwplate import multipole
from vdwplate.model import CUTOFF_SCALE, DISTANCE, MIRROR_SCALE, ORBITAL_SCALE, Molecule
from vdwplate.multipole import (GridWaveFn, GroundBasis, HydrogenOrbital,
                                ProductState, QuadratureError,
                                mirror_energy_expectation, orientation_coefficient,
                                cutoff_profile_derivative, smooth_step,
                                smooth_step_derivative)
from vdwplate.spectra import helium_variational_energy


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def radial_moment_oracle(k: int) -> float:
    """<x1^k> for the hydrogen ground state via adaptive quadrature.

    Radial density R^2 e^{-R}/2, angular average of cos^k is 1/(k+1).
    """
    val, err = quad(lambda R: R ** (k + 2) * np.exp(-R) / 2.0, 0.0, 120.0,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-11 * max(1.0, val)
    return val / (k + 1.0)


def leading_term_oracle(v, electrons) -> float:
    """The paper's -O_v at one configuration: -((w.v)^2 + |w|^2)/16, w = sum x_i."""
    w = np.asarray(electrons).sum(axis=0)
    return -((w @ v) ** 2 + w @ w) / 16.0


def spherical_product_grid(r_max=30.0, n_r=120, n_theta=40, n_phi=16):
    """Product quadrature grid for integrals of smooth, decaying 3D functions."""
    from numpy.polynomial.legendre import leggauss
    tr, wr = leggauss(n_r)
    radius = 0.5 * r_max * (tr + 1.0)
    w_rad = 0.5 * r_max * wr * radius ** 2
    tc, wc = leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * np.pi / n_phi
    sin_t = np.sqrt(1.0 - tc ** 2)
    pts = np.stack([
        (radius[:, None, None] * tc[None, :, None]).repeat(n_phi, axis=2),
        radius[:, None, None] * sin_t[None, :, None] * np.cos(phi)[None, None, :],
        radius[:, None, None] * sin_t[None, :, None] * np.sin(phi)[None, None, :],
    ], axis=-1).reshape(-1, 3)
    wts = np.broadcast_to((w_rad[:, None, None] * wc[None, :, None]) * w_phi,
                          (n_r, n_theta, n_phi)).ravel()
    return pts, wts


class RadiiOrbital:
    """A HydrogenOrbital in the arithmetic that built every rule in radii, one
    call at a time: the oracle of the tables in units of a length.  Its
    _pair_rule joins each count's Legendre and Laguerre tables, scales them to
    the pieces in radii, and evaluates the density at every node of the call.
    valid is False where HydrogenOrbital(cutoff_r=...) raises."""

    def __init__(self, z: float = 1.0, cutoff_r: float | None = None):
        self.z, self.cutoff_r = float(z), cutoff_r
        self._amp = self.z ** 1.5 / np.sqrt(8.0 * np.pi)
        self._norm = 1.0
        self.valid = True
        if cutoff_r is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                norm = self.norm()
            self.valid = 0 < norm < np.inf
            if self.valid:
                self._norm /= norm

    def _envelope(self, radius):
        radius = np.asarray(radius, dtype=float)
        env = np.full(radius.shape, self._norm * self._amp)
        if self.cutoff_r is not None:
            above = radius > self.cutoff_r / 5.0
            env[above] *= multipole.cutoff_profile(radius[above], self.cutoff_r)
        return env

    def _envelope_derivative(self, radius):
        radius = np.asarray(radius, dtype=float)
        base = np.full_like(radius, self._norm * self._amp)
        if self.cutoff_r is None:
            return -0.5 * self.z * base
        h = multipole.cutoff_profile(radius, self.cutoff_r)
        dh = cutoff_profile_derivative(radius, self.cutoff_r)
        return base * (dh - 0.5 * self.z * h)

    def _pair_rule(self, other, density, counts, cuts=()):
        s = 0.5 * (self.z + other.z)
        cutoffs = [orb.cutoff_r for orb in (self, other) if orb.cutoff_r is not None]
        end = min((c / 4.0 for c in cutoffs), default=np.inf)
        splits = {c / 5.0 for c in cutoffs} | set(cuts)
        edges = np.array([0.0, *sorted(b for b in splits if b < end), end])
        half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
        if end == np.inf:
            half[-1], mid[-1] = 0.0, edges[-2]
        legendre_t, legendre_w, laguerre_t, laguerre_w = (
            np.concatenate(part) for rule in (multipole.angular_legendre_rule,
                                              multipole.radial_laguerre_rule)
            for part in zip(*(rule(n) for n in counts)))
        radius = half[:, None] * legendre_t + mid[:, None]
        decay = np.exp(-s * radius)
        weights = half[:, None] * legendre_w * 4.0 * np.pi * decay
        if end == np.inf:
            radius[-1] = edges[-2] + laguerre_t / s
            weights[-1] = laguerre_w * (4.0 * np.pi * decay[-1, 0] / s)
        weights = weights * density(radius) * radius ** 2
        return [(radius[:, b - n:b].ravel(), weights[:, b - n:b].ravel())
                for n, b in zip(counts, itertools.accumulate(counts))]

    def pair_integral(self, other, fn) -> float:
        def density(R):
            env = self._envelope(R)
            return env ** 2 if other is self else env * other._envelope(R)

        [(radius, weights)] = self._pair_rule(other, density, (multipole.RADIAL_NODES,))
        return float(np.sum(weights * np.asarray(fn(radius))))

    def overlap(self, other) -> float:
        return self.pair_integral(other, lambda R: np.ones_like(R))

    def norm(self) -> float:
        return float(np.sqrt(self.overlap(self)))

    def moment2(self, other) -> float:
        return self.pair_integral(other, lambda R: R ** 2) / 3.0

    def kinetic_energy(self) -> float:
        [(_, weights)] = self._pair_rule(
            self, lambda R: self._envelope_derivative(R) ** 2, (multipole.RADIAL_NODES,))
        return float(np.sum(weights))

    def mirror_energy_expectation(self, r: float, m: float = 1.0) -> tuple:
        """Every field of the expectation but quad_error, with its checks."""
        def pieces(radius, weights):
            i, j = np.searchsorted(radius, (r / 4.0, 2.0 * r))
            r2 = radius * radius
            r4 = r2 * r2
            m2 = weights @ r2 / 3.0
            m4 = weights @ r4 / 5.0
            m6_in = weights[:i] @ (r4[:i] * r2[:i]) / 7.0
            newton = weights[:j].sum() / r + 2.0 * (weights[j:] @ (1.0 / radius[j:]))
            return np.array([m2, m4, m6_in, weights[i:].sum(), newton])

        rules = self._pair_rule(self, lambda R: self._envelope(R) ** 2,
                                (multipole.RADIAL_NODES, 2 * multipole.RADIAL_NODES),
                                cuts=(r / 4.0, 2.0 * r))
        base, refined = (pieces(*rule) for rule in rules)
        quad_error = float(np.max(np.abs(refined - base) / np.maximum(np.abs(refined), 1.0)))
        if not quad_error <= multipole.QUAD_TOL:
            raise QuadratureError(f"doubling nodes moved results by {quad_error:.3e}")
        mass = float(rules[1][1].sum())
        if not abs(mass - 1.0) <= multipole.QUAD_TOL:
            raise QuadratureError(f"the rule's mass is {mass!r}")
        m2, m4, m6_in, tail, newton = refined.tolist()
        return (float(-m * (m2 / (4.0 * r ** 3) + m4 / (4.0 * r ** 5))), newton,
                float(-m * m6_in / (3.0 * r ** 7)), float(-m * m6_in / (5.0 * r ** 7)),
                tail, m2, m4, m6_in)


def refusal(cutoff_r, z: float = 1.0) -> str | None:
    """The text of the ValueError HydrogenOrbital(z, cutoff_r) raises, None
    where it accepts: z * cutoff_r outside CUTOFF_SCALE, or where the norm in
    radii is not finite and positive."""
    lo, hi = CUTOFF_SCALE
    if cutoff_r is not None and not lo <= z * cutoff_r <= hi:
        return "cut-off scale"
    return None if RadiiOrbital(z, cutoff_r).valid else "gives the norm"


def rounding_bound(r: float) -> float:
    """Relative bound on two roundings of one radial quadrature at length r.

    A node's radius on a piece of width ~r carries an absolute rounding of
    about eps r, which moves e^{-R} by eps r relative; the bound is the larger
    of 1e-14 and twice that (1e-14 up to r = 22)."""
    return max(1e-14, 2.0 * np.finfo(float).eps * r)


class TestSmoothStep:
    def test_derivative_matches_central_differences(self):
        t = np.linspace(0.2, 0.8, 61)
        step = 1e-6
        fd = (smooth_step(t + step) - smooth_step(t - step)) / (2.0 * step)
        assert np.allclose(smooth_step_derivative(t), fd, rtol=1e-8, atol=0.0)

    def test_derivative_edges(self):
        # exactly 0 at and outside [0, 1], and at the ends of (0, 1), where
        # e^{-1/t} underflows, with no warning
        t = np.array([-1.0, 0.0, 1e-300, 1.0 - 1e-16, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = smooth_step_derivative(t)
            scalars = [smooth_step_derivative(x) for x in t]
        assert np.all(d == 0.0) and all(x == 0.0 for x in scalars)

    def test_step_bit_identical_to_masked_form(self):
        # e^{-1/max(t, 1e-300)} is exactly 0 for t <= 0, so the step needs no
        # np.where masks: the values equal the masked form's to the bit, with
        # no warning at the edges
        def masked(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                f = np.where(t > 0.0, np.exp(-1.0 / np.clip(t, 1e-300, None)), 0.0)
                g = np.where(t < 1.0, np.exp(-1.0 / np.clip(1.0 - t, 1e-300, None)), 0.0)
            return f / (f + g)

        edges = [0.0, -0.0, 1.0, 1e-300, 1e-320, 5e-324, -5e-324, 1.0 - 1e-16, 1.0 + 1e-16,
                 1.0 / 746.0, 1.0 / 745.0, np.inf, -np.inf, 1e300, -1e300]
        t = np.concatenate([edges, np.linspace(-0.5, 1.5, 20001),
                            np.linspace(-1e-3, 1e-3, 2001), np.linspace(1.0 - 1e-3, 1.0 + 1e-3, 2001)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = smooth_step(t)
            scalars = [smooth_step(x) for x in edges]
        assert got.tobytes() == masked(t).tobytes()
        assert scalars == [masked(x) for x in edges]

    def test_cutoff_derivative(self):
        # the bump drops from 1 to 0 across [r/5, r/4] and is flat elsewhere
        r = 40.0
        drop, _ = quad(lambda radius: cutoff_profile_derivative(radius, r), r / 5.0, r / 4.0,
                       epsabs=1e-13, epsrel=1e-13)
        assert drop == pytest.approx(-1.0, abs=1e-10)
        outside = np.array([0.0, 1.0, r / 5.0, r / 4.0, 10.5, 3.0 * r])
        assert np.all(cutoff_profile_derivative(outside, r) == 0.0)


class TestHydrogenOrbital:
    def test_norm(self):
        assert HydrogenOrbital().norm() == pytest.approx(1.0, abs=1e-12)
        assert HydrogenOrbital(z=2.0).norm() == pytest.approx(1.0, abs=1e-12)
        assert HydrogenOrbital(cutoff_r=40.0).norm() == pytest.approx(1.0, abs=1e-12)

    def test_moments_against_oracle(self):
        orb = HydrogenOrbital()
        for k, exact in ((2, 4.0), (4, 72.0), (6, 2880.0)):
            oracle = radial_moment_oracle(k)
            assert oracle == pytest.approx(exact, rel=1e-12)
            # <x1^k>: the radial moment times the angular factor 1/(k+1)
            moment = orb.density_expectation(lambda R: R ** k) / (k + 1.0)
            assert moment == pytest.approx(oracle, rel=1e-10)

    def test_scaled_moments(self):
        # <R^2> scales as 1/z^2
        orb = HydrogenOrbital(z=2.0)
        assert orb.density_expectation(lambda R: R ** 2) / 3.0 == pytest.approx(1.0, rel=1e-12)

    def test_cutoff_support(self):
        psi = HydrogenOrbital(cutoff_r=40.0)
        assert psi.radial_value(10.0 * 1.0001) == 0.0
        assert psi.radial_value(40.0 / 5.0 * 0.999) > 0.0

    def test_kinetic_energy(self):
        # <-Laplacian> of e^{-zR/2} is z^2/4
        assert HydrogenOrbital().kinetic_energy() == pytest.approx(0.25, abs=1e-12)
        assert HydrogenOrbital(z=2.0).kinetic_energy() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _closed_form_errors(z: float) -> list:
        """|value / closed form - 1| of norm, overlap, moment2 per axis and
        kinetic_energy of the plain orbital, computed with warnings as errors."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = HydrogenOrbital(z=z)
            values = [psi.norm(), psi.overlap(psi), psi.moment2(psi), psi.kinetic_energy()]
        assert np.array_equal(values[2], values[2][0, 0] * np.eye(3))
        values[2] = values[2][0, 0]
        assert all(math.isfinite(v) for v in values)
        exact = (1.0, 1.0, 4.0 / z ** 2, z ** 2 / 4.0)
        return [abs(v / e - 1.0) for v, e in zip(values, exact)]

    def test_scale_range_on_a_log_scan(self):
        # every z in ORBITAL_SCALE gives the closed forms to 1e-14 with no
        # warning, and every other z one ValueError.  Unchecked, z = 1e-160
        # overflowed, 1e-150 gave the norm 0, 1e-100 the kinetic energy 0
        # (exact z^2/4 = 2.5e-201), 1e160 overflowed and 1e300 raised
        # OverflowError
        lo, hi = ORBITAL_SCALE
        scan = [*np.geomspace(1e-300, 1e300, 601), 1e-160, 1e-150, 1e-100, 1e160, lo, hi,
                np.nextafter(lo, 0.0), np.nextafter(hi, np.inf), 0.0, -1.0, math.inf, math.nan]
        accepted = 0
        for z in map(float, scan):
            if lo <= z <= hi:
                assert max(self._closed_form_errors(z)) <= 1e-14
                accepted += 1
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="orbital scale z must lie in its domain"):
                    HydrogenOrbital(z=z)
        assert accepted == 7 + 2      # 7 scan points, 1e-3 ... 1e3, and both ends

    def test_scale_range_ends(self):
        # just inside either end of ORBITAL_SCALE
        rng = np.random.default_rng(62)
        lo, hi = ORBITAL_SCALE
        for u in rng.uniform(-16.0, -1.0, 150):
            for z in (lo * (1.0 + 10.0 ** u), hi * (1.0 - 10.0 ** u)):
                assert max(self._closed_form_errors(z)) <= 1e-14


@pytest.mark.parametrize("call, domain", [
    (lambda: HydrogenOrbital(z=100.0, cutoff_r=1e6).norm(), "cut-off scale"),
    (lambda: mirror_energy_expectation(HydrogenOrbital(z=1e-55), 1.0), "orbital scale"),
    (lambda: HydrogenOrbital(z=1e50, cutoff_r=1.817267264355245e-61).kinetic_energy(),
     "orbital scale")], ids=["z100_cutoff1e6_norm", "z1e-55_mirror", "z1e50_cutoff_kinetic"])
def test_float_extreme_defects_refused(call, domain):
    # each overflowed under warnings as errors, and the first norm was NaN
    # without (1.8e-61 was the smallest cutoff_r accepted before the domains):
    # one ValueError naming the domain now refuses each, before any
    # arithmetic.  The CLI passes no z or cutoff_r of its user's, so no exit
    # code applies
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{domain} .* must lie in its domain"):
            call()

class TestLeadingCoefficient:
    def test_matches_full_interaction_at_large_r(self, rng):
        # r^3 (I/2) -> leading coefficient along a geometric r ladder
        from vdwplate.model import PlateConfig
        from vdwplate.potential import molecule_mirror_interaction
        mol = Molecule.helium()
        v = np.array([1.0, 0.0, 0.0])
        electrons = rng.standard_normal((2, 3)) * 0.6
        lead = leading_term_oracle(v, electrons)
        gaps = []
        for r in (1e2, 1e3, 1e4):
            terms = molecule_mirror_interaction(mol, PlateConfig(v, r), electrons)
            gaps.append(abs(r ** 3 * terms.total / 2.0 - lead))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-3 * max(1.0, abs(lead))

    def test_neutral_cancellation_of_low_orders(self, rng):
        # extract the 1/r .. 1/r^4 coefficients of the numerically expanded
        # interaction by an exact Vandermonde solve; neutrality and centering
        # cancel the first two
        from vdwplate.model import PlateConfig
        from vdwplate.potential import molecule_mirror_interaction
        mol = Molecule.helium()
        v = np.array([0.0, 1.0, 0.0])
        electrons = rng.standard_normal((2, 3)) * 0.5
        rs = np.array([1e4, 2e4, 4e4, 8e4])
        vals = np.array([
            molecule_mirror_interaction(mol, PlateConfig(v, r), electrons).total
            for r in rs])
        design = np.column_stack([rs ** -k for k in (1, 2, 3, 4)])
        c1, c2, c3, _ = np.linalg.solve(design, vals)
        assert abs(c1) <= 1e-9
        assert abs(c2) <= 1e-9 * max(1.0, abs(c3))
        lead = leading_term_oracle(v, electrons)
        assert c3 == pytest.approx(2.0 * lead, rel=1e-3)


class TestMirrorEnergyExpectation:
    def test_uncut_reference_value(self):
        e = mirror_energy_expectation(HydrogenOrbital(), 20.0)
        assert e.value == pytest.approx(-1.0 / 8000.0 - 18.0 / 3.2e6, abs=1e-7)
        assert e.value == pytest.approx(-1.30625e-4, abs=1e-7)

    def test_newton_leg(self):
        # exactly 1/r for a density supported inside |x| < 2r
        cut = HydrogenOrbital(cutoff_r=20.0)
        e = mirror_energy_expectation(cut, 20.0)
        assert e.newton_term == pytest.approx(1.0 / 20.0, abs=1e-14)
        assert e.tail_mass == 0.0
        uncut = mirror_energy_expectation(HydrogenOrbital(), 20.0)
        assert uncut.newton_term == pytest.approx(1.0 / 20.0, abs=1e-12)

    def test_remainder_bracket(self):
        e = mirror_energy_expectation(HydrogenOrbital(cutoff_r=20.0), 20.0)
        assert e.remainder_lo <= e.remainder_hi < 0.0
        # in-support sixth moment bracket: -m6/(3 r^7) and -m6/(5 r^7)
        assert e.remainder_lo == pytest.approx(-e.moment_x1_6 / (3.0 * 20.0 ** 7), rel=1e-12)

    def test_m_scaling(self):
        full = mirror_energy_expectation(HydrogenOrbital(), 15.0, m=1.0)
        half = mirror_energy_expectation(HydrogenOrbital(), 15.0, m=0.5)
        assert half.value == pytest.approx(0.5 * full.value, rel=1e-14)

    @pytest.mark.parametrize("r", [8.0, 20.0, 40.0])
    def test_window_closed_forms(self, r):
        # |psi|^2 4 pi R^2 = R^2 e^{-R}/2 for the plain orbital; a = r/4
        a = r / 4.0
        plain = mirror_energy_expectation(HydrogenOrbital(), r)
        assert plain.tail_mass == pytest.approx(np.exp(-a) * (a * a + 2.0 * a + 2.0) / 2.0,
                                                rel=1e-13)
        assert plain.moment_x1_6 == pytest.approx(2880.0 * gammainc(9, a), rel=1e-13)
        cut = mirror_energy_expectation(HydrogenOrbital(cutoff_r=r), r)
        assert cut.tail_mass == 0.0
        assert abs(cut.newton_term - 1.0 / r) <= 1e-14

    def test_quadrature_error_flagged(self, monkeypatch):
        # the RADIAL_NODES of the call reaches the tables
        built = []
        table = multipole._piece_table
        monkeypatch.setattr(multipole, "_piece_table",
                            lambda edges, ratios, counts: built.append(counts) or
                            table(edges, ratios, counts))
        monkeypatch.setattr(multipole, "RADIAL_NODES", 8)
        rough = HydrogenOrbital(cutoff_r=20.0)
        with pytest.raises(QuadratureError):
            mirror_energy_expectation(rough, 20.0)
        assert built == [(8,), (8, 16)]

    # every field at r = 13.7 from the flat rule in units of r, one power-sum
    # reduction for all parts.  PIECE_POWERS holds the fields of the per-piece
    # power tensor scaled by (r E)^j, IN_RADII those of the rules built in
    # radii, PINNED_POWERS those of R ** 4 and R ** 6 before the R^2 ladder,
    # and PINNED_WINDOWS, for the supports that pass r/4, a rule per window
    # ([0, inf), [0, r/4], [r/4, inf), [2r, inf))
    PINNED = {
        13.7: (-0.0001281657575869257, 0.072992700729927, -7.319595531912323e-08,
               -4.391757319147394e-08, 0.0, 1.29534997571909, 4.295782156598566,
               19.89080263600732, 2.0675592646983566e-16),
        27.4: (-0.00031359026522024516, 0.07299270072992703, -9.782555877485909e-08,
               -5.869533526491545e-08, 0.291830373777152, 3.0622479065747576,
               30.622969313264512, 26.583830675675156, 5.345676057215214e-16),
        None: (-0.0004261969548627813, 0.07299270072857518, -9.187014148794144e-08,
               -5.512208489276486e-08, 0.3349422730281834, 4.000000000000003,
               72.00000000000009, 24.965462155820656, 2.7755575615628914e-16),
    }
    PIECE_POWERS = {
        13.7: (-0.00012816575758692572, 0.07299270072992697, -7.319595531912323e-08,
               -4.3917573191473945e-08, 0.0, 1.2953499757190903, 4.295782156598568,
               19.890802636007322, 3.4283337953014165e-16),
        27.4: (-0.00031359026522024516, 0.07299270072992703, -9.782555877485909e-08,
               -5.869533526491545e-08, 0.29183037377715204, 3.0622479065747576,
               30.62296931326452, 26.583830675675152, 3.480440099512122e-16),
        None: (-0.00042619695486278123, 0.07299270072857518, -9.18701414879415e-08,
               -5.51220848927649e-08, 0.33494227302818325, 4.000000000000002,
               72.0000000000001, 24.965462155820678, 7.115257183356785e-16),
    }
    IN_RADII = {
        13.7: (-0.00012816575758692575, 0.072992700729927, -7.319595531912326e-08,
               -4.391757319147395e-08, 0.0, 1.2953499757190905, 4.295782156598567,
               19.890802636007326, 1.7141668976507078e-16),
        27.4: (-0.00031359026522024516, 0.07299270072992703, -9.78255587748591e-08,
               -5.869533526491546e-08, 0.291830373777152, 3.0622479065747576,
               30.62296931326452, 26.583830675675156, 0.0),
        None: (-0.00042619695486278134, 0.07299270072857518, -9.187014148794145e-08,
               -5.512208489276487e-08, 0.3349422730281833, 4.000000000000003,
               72.00000000000011, 24.965462155820664, 2.7755575615628914e-16),
    }
    PINNED_POWERS = {
        13.7: (-0.00012816575758692575, 0.072992700729927, -7.319595531912326e-08,
               -4.391757319147395e-08, 0.0, 1.2953499757190905, 4.295782156598568,
               19.890802636007326, 2.067559264698356e-16),
        27.4: (-0.00031359026522024516, 0.07299270072992703, -9.78255587748591e-08,
               -5.869533526491546e-08, 0.291830373777152, 3.0622479065747576,
               30.62296931326452, 26.583830675675156, 1.3364190143038036e-16),
        None: (-0.00042619695486278134, 0.07299270072857518, -9.187014148794144e-08,
               -5.512208489276486e-08, 0.3349422730281833, 4.000000000000003,
               72.00000000000011, 24.96546215582066, 2.7755575615628914e-16),
    }
    PINNED_WINDOWS = {
        27.4: (-0.0003135902652202451, 0.07299270072992703, -9.78255587748591e-08,
               -5.869533526491546e-08, 0.291830373777152, 3.062247906574757,
               30.622969313264527, 26.583830675675156, 1.3364190143038036e-16),
        None: (-0.00042619695486278085, 0.0729927007285752, -9.187014148794144e-08,
               -5.512208489276486e-08, 0.3349422730281837, 3.9999999999999987,
               71.99999999999991, 24.96546215582066, 1.1842378929335016e-15),
    }

    @pytest.mark.parametrize("cutoff_r", [13.7, 27.4, None], ids=["cut_r", "cut_2r", "plain"])
    def test_bitwise_pinned(self, cutoff_r):
        e = mirror_energy_expectation(HydrogenOrbital(cutoff_r=cutoff_r), 13.7)
        assert dataclasses.astuple(e) == self.PINNED[cutoff_r]
        fields = dataclasses.astuple(e)[:-1]    # every field but quad_error
        assert fields == pytest.approx(self.PIECE_POWERS[cutoff_r][:-1], rel=1e-15, abs=0.0)
        assert fields == pytest.approx(self.IN_RADII[cutoff_r][:-1], rel=1e-15, abs=0.0)
        assert fields == pytest.approx(self.PINNED_POWERS[cutoff_r][:-1], rel=1e-15, abs=0.0)
        if cutoff_r in self.PINNED_WINDOWS:
            old = self.PINNED_WINDOWS[cutoff_r][:-1]
            assert fields == pytest.approx(old, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("cutoff_r", [13.7, 27.4, None], ids=["cut_r", "cut_2r", "plain"])
    def test_one_density_evaluation_per_node_count(self, monkeypatch, cutoff_r):
        # both node counts share one bump evaluation, made when the layout's
        # table is built: once for the orbital's norm and once for the
        # mirror's rule, at every node of the table, and never again for the
        # same cutoff ratios; no rule evaluates the orbital pointwise
        calls = []
        profile, value = multipole.cutoff_profile, HydrogenOrbital.radial_value
        monkeypatch.setattr(multipole, "cutoff_profile",
                            lambda radius, r: calls.append(np.size(radius)) or profile(radius, r))
        monkeypatch.setattr(HydrogenOrbital, "radial_value",
                            lambda self, radius: calls.append("value") or value(self, radius))
        multipole._piece_table.cache_clear()
        ratio = None if cutoff_r is None else cutoff_r / 13.7
        for r in (13.7, 13.7, 31.0):
            psi = HydrogenOrbital(cutoff_r=None if ratio is None else ratio * r)
            mirror_energy_expectation(psi, r)
        # the norm's two pieces at RADIAL_NODES; the mirror's two (cut at r)
        # or three (cut at 2r) pieces at RADIAL_NODES and twice that
        n = multipole.RADIAL_NODES
        assert calls == {None: [], 13.7: [2 * n, 6 * n], 27.4: [2 * n, 9 * n]}[cutoff_r]

    @pytest.mark.parametrize("ratio", [None, 1.0, 2.0, 0.5], ids=["plain", "cut_r", "cut_2r",
                                                                 "cut_half_r"])
    def test_matches_the_rules_in_radii(self, ratio):
        # every field but quad_error over log-spaced r across DISTANCE,
        # against the rules built in radii: within 1e-14 relative up to r = 22
        # and the rounding bound of a piece of width r beyond; the floors
        # cover subnormal moments (the tail mass beyond r = 2800).  Neither
        # side raises QuadratureError for r in MIRROR_SCALE (z = 1), and
        # every r beyond it is refused
        tiny = np.finfo(float).tiny
        compared = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in np.geomspace(*DISTANCE, 121).tolist():
                cutoff_r = None if ratio is None else ratio * r
                if (text := refusal(cutoff_r)) is not None:
                    with pytest.raises(ValueError, match=text):
                        HydrogenOrbital(cutoff_r=cutoff_r)
                    continue
                psi = HydrogenOrbital(cutoff_r=cutoff_r)
                if r > MIRROR_SCALE[1]:
                    with pytest.raises(ValueError, match="mirror scale z \\* r"):
                        mirror_energy_expectation(psi, r)
                    continue
                old = RadiiOrbital(cutoff_r=cutoff_r).mirror_energy_expectation(r)
                new = dataclasses.astuple(mirror_energy_expectation(psi, r))[:-1]
                floors = (tiny / r ** 3 + tiny / r ** 5, tiny / r, tiny / r ** 7, tiny / r ** 7,
                          tiny, tiny, tiny, tiny)
                for field, (a, b, floor) in enumerate(zip(new, old, floors)):
                    assert a == pytest.approx(b, rel=rounding_bound(r), abs=floor), (r, field)
                compared += 1
        # r up to 1e4 (a cut-off at 2r up to 5e3)
        assert compared == {None: 103, 1.0: 103, 2.0: 98, 0.5: 103}[ratio]

    def test_remainder_finite_up_to_r_max(self):
        # at the upper end of DISTANCE, for an np.float64 r and a float, an
        # orbital cut off at 20 carries the moments; z = 0.1 puts z * r at
        # the upper end of MIRROR_SCALE
        r = np.nextafter(DISTANCE[1], 0.0)
        psi = HydrogenOrbital(z=0.1, cutoff_r=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for radius in (r, float(r), DISTANCE[1]):
                e = mirror_energy_expectation(psi, radius)
                assert e.moment_x1_6 > 0.0
                assert e.remainder_lo == -e.moment_x1_6 / radius ** 7 / 3.0
                assert e.remainder_hi == -e.moment_x1_6 / radius ** 7 / 5.0
                assert all(math.isfinite(x) for x in dataclasses.astuple(e))

    @pytest.mark.parametrize("r, cutoff_r", [(1.35e8, None), (1e10, None), (1.49e4, 2.98e4)])
    def test_unresolved_support_refused(self, r, cutoff_r):
        # the doubled rules agreed on a wrong mass, so quad_error passed:
        # 3.1e-111 on a mass of 2.8e-125 (r = 1.35e8), 0 on a mass of 0
        # (1e10), and 1.8e-10 on 1 + 1.07e-8 (a cutoff of 2r at 1.49e4).
        # Each is now refused before any rule: the first two lie beyond
        # DISTANCE, the third beyond CUTOFF_SCALE (and MIRROR_SCALE)
        text = "plate distance r" if r > DISTANCE[1] else "cut-off scale"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{text}.* must lie in its domain"):
                mirror_energy_expectation(HydrogenOrbital(cutoff_r=cutoff_r), r)

    @seed(1729)
    @settings(max_examples=300, deadline=None, database=None)
    @given(log_r=st.floats(*map(math.log, DISTANCE)),
           ratio=st.sampled_from([None, 0.5, 1.0, 2.0]))
    def test_finite_and_normalized_or_refused(self, log_r, ratio):
        # log-uniform r over DISTANCE: finite fields on a rule of mass 1
        # within QUAD_TOL, or QuadratureError, or an orbital the constructor
        # refuses; never a RuntimeWarning
        r = min(max(math.exp(log_r), DISTANCE[0]), DISTANCE[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                psi = HydrogenOrbital(cutoff_r=None if ratio is None else ratio * r)
                e = mirror_energy_expectation(psi, r)
            except (QuadratureError, ValueError):
                return
            rule = psi._pair_rule(psi, (2 * multipole.RADIAL_NODES,), length=r, cuts=(0.25, 2.0))
            assert abs(rule.integral() - 1.0) <= multipole.QUAD_TOL
        assert all(math.isfinite(x) for x in dataclasses.astuple(e))

    @pytest.mark.parametrize("r", [math.inf, 1e300, 1e-300])
    def test_radius_out_of_range(self, r):
        # inf returned -0.0 with NaN terms, 1e300 raised OverflowError,
        # 1e-300 returned -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="plate distance r must lie in its domain"):
                mirror_energy_expectation(HydrogenOrbital(), r)

    def test_bump_evaluated_above_its_inner_edge(self, monkeypatch):
        # tables in units of the length evaluate the bump once per cutoff
        # ratio, at every node of the table: exactly 1.0 up to its inner
        # edge ratio/5, so there the table's weights are its base weights
        seen = []
        profile = multipole.cutoff_profile

        def spy(radius, r):
            out = profile(radius, r)
            seen.append((np.array(radius), r, out))
            return out

        monkeypatch.setattr(multipole, "cutoff_profile", spy)
        multipole._piece_table.cache_clear()
        for r in (8.0, 13.7, 40.0):
            mirror_energy_expectation(HydrogenOrbital(cutoff_r=r), r)
            mirror_energy_expectation(HydrogenOrbital(cutoff_r=2.0 * r), r)
        # the norm's table (ratio 1) and the mirror's at ratios 1 and 2
        assert [ratio for _, ratio, _ in seen] == [1.0, 1.0, 2.0]
        counts = (multipole.RADIAL_NODES, 2 * multipole.RADIAL_NODES)
        tables = [multipole._piece_table((0.0, 0.2, 0.25), (1.0, 1.0), counts[:1]),
                  multipole._piece_table((0.0, 0.2, 0.25), (1.0, 1.0), counts),
                  multipole._piece_table((0.0, 0.25, 0.4, 0.5), (2.0, 2.0), counts)]
        for (radius, ratio, bump), table in zip(seen, tables):
            assert np.array_equal(radius, table.nodes) and np.all(np.isfinite(radius))
            inner = radius <= ratio / 5.0
            assert inner.any() and np.all(bump[inner] == 1.0)
            assert np.array_equal(table.weights[inner], table.base[inner])

    def test_piece_tables_built_once_per_layout(self, monkeypatch):
        # a call builds no table: each layout's nodes, weights, bumps and
        # powers are built once, in units of r, and kept read-only
        multipole._piece_table.cache_clear()
        for r in (8.0, 13.7):
            mirror_energy_expectation(HydrogenOrbital(cutoff_r=r), r)
            mirror_energy_expectation(HydrogenOrbital(), r)
        info = multipole._piece_table.cache_info()
        assert (info.misses, info.hits) == (3, 3)
        counts = (multipole.RADIAL_NODES, 2 * multipole.RADIAL_NODES)
        table = multipole._piece_table((0.0, 0.2, 0.25), (1.0, 1.0), counts)
        assert multipole._piece_table((0.0, 0.2, 0.25), (1.0, 1.0), counts) is table
        plain = multipole._piece_table((0.0, 0.25, 2.0), (), counts)
        for array in (table.nodes, table.squares, table.base, table.weights, *plain.laguerre):
            assert not array.flags.writeable
        assert (table.runs, plain.runs) == (2 * counts, 3 * counts)
        rules = []
        for rule in (multipole.angular_legendre_rule, multipole.radial_laguerre_rule):
            monkeypatch.setattr(multipole, rule.__name__, lambda n: rules.append(n) or rule(n))
        for r in (9.0, 20.0, 33.3):
            mirror_energy_expectation(HydrogenOrbital(cutoff_r=r), r)
            mirror_energy_expectation(HydrogenOrbital(), r)
        assert rules == []
        assert multipole._piece_table.cache_info().misses == 3

    def test_piece_table_cache_bounded(self):
        multipole._piece_table.cache_clear()
        for ratio in np.linspace(1.0, 3.0, 40):
            mirror_energy_expectation(HydrogenOrbital(cutoff_r=ratio * 10.0), 10.0)
        info = multipole._piece_table.cache_info()
        assert info.currsize == info.maxsize == 16

    def test_cutoff_below_minimum_rejected(self):
        # below 1.8e-61 the kinetic density overflowed (RuntimeWarning), and
        # below 2.7e-103 the norm's and moment2's did too; now every z *
        # cutoff_r below CUTOFF_SCALE is refused, and its lower end accepted
        low = float(np.nextafter(CUTOFF_SCALE[0], 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cutoff_r in (low, 9.8e-62, 2.7e-103, 5.35e-107, 0.0, -1.0, math.nan):
                with pytest.raises(ValueError, match="cut-off scale z \\* cutoff_r"):
                    HydrogenOrbital(cutoff_r=cutoff_r)
            for z in ORBITAL_SCALE:
                psi = HydrogenOrbital(z=z, cutoff_r=CUTOFF_SCALE[0] / z)
                values = [psi.norm(), psi.overlap(psi), psi.moment2(psi)[0, 0],
                          psi.kinetic_energy()]
                assert all(math.isfinite(x) for x in values)

    @seed(1729)
    @settings(max_examples=200, deadline=None, database=None)
    @given(log_c=st.floats(math.log(1e-120), math.log(1e12)),
           log_z=st.floats(math.log(1e-3), math.log(1e3)))
    def test_cutoff_integrals_finite_or_refused(self, log_c, log_z):
        # log-uniform cutoff_r on both sides of the accepted range: finite
        # integrals, or one ValueError; never a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                psi = HydrogenOrbital(z=math.exp(log_z), cutoff_r=math.exp(log_c))
            except ValueError:
                return
            values = [psi.norm(), psi.overlap(psi), psi.moment2(psi)[0, 0], psi.kinetic_energy()]
        assert all(math.isfinite(x) for x in values)

    def test_infinite_cutoff_rejected(self):
        # its norm was NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cut-off scale"):
                HydrogenOrbital(cutoff_r=math.inf)

    @pytest.mark.parametrize("cutoff_r", [1e20, 1e300])
    def test_huge_cutoff_rejected(self, cutoff_r):
        # at 1e20 no node of the rule saw e^{-R} > 0 and the norm was 0
        # (ZeroDivisionError); at 1e300 R^2 overflowed and the norm was NaN.
        # Both lie far above CUTOFF_SCALE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cut-off scale"):
                HydrogenOrbital(cutoff_r=cutoff_r)

    def test_nan_quadrature_error_raises(self, monkeypatch):
        # a NaN move passed "quad_error > QUAD_TOL"
        rule = HydrogenOrbital._pair_rule

        def nan_rule(self, *args, **kwargs):
            out = rule(self, *args, **kwargs)
            return out._replace(weights=np.full_like(out.weights, np.nan))

        monkeypatch.setattr(HydrogenOrbital, "_pair_rule", nan_rule)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="nan"):
                mirror_energy_expectation(HydrogenOrbital(), 20.0)


class TestPairRule:
    """One _pair_rule call over several node counts against one call per
    count, and the tables in units of a length against the rules in radii."""

    R = 13.7
    SPECS = {"plain": {}, "cut_r": {"cutoff_r": R}, "cut_2r": {"cutoff_r": 2 * R},
             "z2": {"z": 2.0}, "z2_cut_2r": {"z": 2.0, "cutoff_r": 2 * R}}
    ORBITALS = {name: HydrogenOrbital(**spec) for name, spec in SPECS.items()}
    IN_RADII_ORBITALS = {name: RadiiOrbital(**spec) for name, spec in SPECS.items()}
    PAIRS = [("plain", "plain"), ("cut_r", "cut_r"), ("cut_2r", "cut_2r"),
             ("plain", "z2"), ("cut_r", "z2_cut_2r")]
    # in radii: (1.0, 2.0) lies inside every support; (60.0, 90.0) beyond
    # every cut-off support; (r/4, 2r) are the mirror expectation's cuts
    CUTS = [(), (1.0, 2.0), (R / 4.0, 2.0 * R), (60.0, 90.0)]

    @pytest.mark.parametrize("pair", PAIRS, ids=["-".join(p) for p in PAIRS])
    @pytest.mark.parametrize("cuts", CUTS, ids=["none", "inside", "mirror", "beyond"])
    def test_each_count_bit_identical(self, pair, cuts):
        a, b = (self.ORBITALS[k] for k in pair)
        scaled = tuple(c / self.R for c in cuts)
        counts = (multipole.RADIAL_NODES, 2 * multipole.RADIAL_NODES, 37)
        together = a._pair_rule(b, counts, length=self.R, cuts=scaled)
        runs = together.table.runs
        assert runs == counts * (len(runs) // len(counts))
        stops = list(itertools.accumulate(runs))
        for k, n in enumerate(counts):
            alone = a._pair_rule(b, (n,), length=self.R, cuts=scaled)
            assert alone.table.runs == (n,) * (len(runs) // len(counts))
            blocks = [slice(stop - n, stop) for stop in stops[k::len(counts)]]
            for joined, single in zip(together[:3], alone[:3]):
                assert np.concatenate([joined[block] for block in blocks]).tobytes() \
                    == single.tobytes()
            radius = alone.radius
            assert radius.size == n * (len(alone.table.edges) - 1
                                       + (alone.table.laguerre is not None))
            assert np.all(np.diff(radius) > 0) and not np.isin(cuts, radius).any()

    # sha256 over radius and weights at 200 and 400 nodes for each cut set,
    # the finite pieces' before the tail's: the tables in units of R, and the
    # rules built in radii, which the oracle RadiiOrbital reproduces to the bit
    PINNED_RULES = {("plain", "plain"): "708e8f503a2e239f", ("cut_r", "cut_r"): "fb2b2441d1228d69",
                    ("cut_2r", "cut_2r"): "f62c93012abea1f3", ("plain", "z2"): "c20e966cf88dff62",
                    ("cut_r", "z2_cut_2r"): "a80fe33339da40c6"}
    RULES_IN_RADII = {("plain", "plain"): "920b8f9651cd6f3c", ("cut_r", "cut_r"): "3938078575bc7aef",
                    ("cut_2r", "cut_2r"): "12665d01260a59c4", ("plain", "z2"): "ca8727c39481e5a4",
                    ("cut_r", "z2_cut_2r"): "063eced0558fe7a9"}

    @pytest.mark.parametrize("pair", PAIRS, ids=["-".join(p) for p in PAIRS])
    def test_rules_pinned(self, pair):
        a, b = (self.ORBITALS[k] for k in pair)
        digest = hashlib.sha256()
        for cuts in self.CUTS:
            for n in (200, 400):
                rule = a._pair_rule(b, (n,), length=self.R, cuts=tuple(c / self.R for c in cuts))
                finite = rule.table.nodes.size
                for part in (slice(None, finite), slice(finite, None)):
                    digest.update(rule.radius[part].tobytes())
                    digest.update(rule.weights[part].tobytes())
        assert digest.hexdigest()[:16] == self.PINNED_RULES[pair]
        a, b = (self.IN_RADII_ORBITALS[k] for k in pair)
        digest = hashlib.sha256()
        for cuts in self.CUTS:
            for radius, weights in a._pair_rule(
                    b, lambda R: a._envelope(R) * b._envelope(R), (200, 400), cuts=cuts):
                digest.update(radius.tobytes())
                digest.update(weights.tobytes())
        assert digest.hexdigest()[:16] == self.RULES_IN_RADII[pair]

    PINNED_NORM_KINETIC = {
        "plain": (1.0000000000000002, 0.2500000000000001),
        "cut_r": (0.9999999999999998, 1.3387351674676715),
        "cut_2r": (1.0, 0.3245713732793649),
        "z2": (1.0000000000000004, 1.0000000000000009),
        "z2_cut_2r": (0.9999999999999999, 1.0017156446841198),
    }
    PINNED_OVERLAP = {("plain", "z2"): 0.8380524814062791,
                      ("cut_r", "z2_cut_2r"): 0.9231226481210857,
                      ("plain", "z2_cut_2r"): 0.8338314857538832}

    def test_integrals_pinned(self):
        # uncut pairs keep the arithmetic in radii to the bit; cut-off pairs
        # meet it to rounding
        orb, radii = self.ORBITALS, self.IN_RADII_ORBITALS
        for name, (norm, kinetic) in self.PINNED_NORM_KINETIC.items():
            values = (orb[name].norm(), orb[name].kinetic_energy())
            assert values == (norm, kinetic)
            old = (radii[name].norm(), radii[name].kinetic_energy())
            assert values == (old if "cut" not in name else pytest.approx(old, rel=1e-15, abs=0.0))
        for (a, b), value in self.PINNED_OVERLAP.items():
            assert orb[a].overlap(orb[b]) == value
            assert value == pytest.approx(radii[a].overlap(radii[b]), rel=1e-15, abs=0.0)
        assert radii["plain"].overlap(radii["z2"]) == self.PINNED_OVERLAP[("plain", "z2")]
        assert dataclasses.astuple(helium_variational_energy()) == (
            2.0000000000000018, -4.000000000000007, 0.6250000000000007)

    def test_uncut_pairs_keep_the_arithmetic_in_radii(self):
        pairs = [("plain", "plain"), ("plain", "z2"), ("z2", "z2")]
        fns = [lambda R: np.ones_like(R), lambda R: R ** 2, lambda R: 1.0 / R,
               lambda R: 1.0 / R - np.exp(-2.0 * R) * (1.0 / R + 1.0)]
        for a, b in pairs:
            for fn in fns:
                assert (self.ORBITALS[a].pair_integral(self.ORBITALS[b], fn)
                        == self.IN_RADII_ORBITALS[a].pair_integral(self.IN_RADII_ORBITALS[b], fn))
            assert self.ORBITALS[a].kinetic_energy() == self.IN_RADII_ORBITALS[a].kinetic_energy()

    def test_self_overlap_evaluates_the_bump_once(self, monkeypatch):
        # the norm's table is built in units of cutoff_r: its bump is
        # evaluated once, at the nodes of both pieces, and never again for
        # another cutoff_r; no rule evaluates the orbital pointwise
        calls = []
        profile, value = multipole.cutoff_profile, HydrogenOrbital.radial_value
        monkeypatch.setattr(multipole, "cutoff_profile",
                            lambda radius, r: calls.append(np.size(radius)) or profile(radius, r))
        monkeypatch.setattr(HydrogenOrbital, "radial_value",
                            lambda self, radius: calls.append("value") or value(self, radius))
        multipole._piece_table.cache_clear()
        for cutoff_r in (self.R, 2.0 * self.R, 1e-3, 1e4):
            HydrogenOrbital(cutoff_r=cutoff_r)
        assert calls == [2 * multipole.RADIAL_NODES]

    @pytest.mark.parametrize("ratio", [1.0, 2.0, 0.5])
    def test_cut_off_integrals_match_the_rules_in_radii(self, ratio):
        # norm, overlap, moment2 and kinetic energy over cutoff radii from
        # 1e-6 to 1e8, across CUTOFF_SCALE; those HydrogenOrbital accepts
        # give finite integrals with no warning
        compared = 0
        for cutoff_r in np.geomspace(1e-6, 1e8, 57):
            specs = [(1.0, cutoff_r), (2.0, ratio * cutoff_r)]
            if refused := [(z, c, text) for z, c in specs if (text := refusal(c, z))]:
                for z, c, text in refused:
                    with pytest.raises(ValueError, match=text):
                        HydrogenOrbital(z=z, cutoff_r=c)
                continue
            (a, pa), (b, pb) = ((HydrogenOrbital(z, c), RadiiOrbital(z, c)) for z, c in specs)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                new = [a._norm, a.norm(), a.overlap(b), a.moment2(b)[0, 0], a.kinetic_energy()]
            with np.errstate(over="ignore", invalid="ignore"):
                old = [pa._norm, pa.norm(), pa.overlap(pb), pa.moment2(pb), pa.kinetic_energy()]
            assert np.all(np.isfinite(new))
            assert new == pytest.approx(old, rel=rounding_bound(cutoff_r), abs=np.finfo(float).tiny)
            compared += 1
        # the rest have an orbital outside CUTOFF_SCALE
        assert compared == {1.0: 31, 2.0: 30, 0.5: 33}[ratio]

    def test_cutoff_scan_accepts_the_set_in_radii(self):
        # every cutoff_r in CUTOFF_SCALE, and no other, on a log scan, with no
        # warning; the rules in radii accepted all of them, and more
        # ([5.34e-107, 1.04e8], 229 points)
        accepted = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cutoff_r in np.geomspace(1e-300, 1e300, 1201).tolist():
                try:
                    HydrogenOrbital(cutoff_r=cutoff_r)
                    accepted.append(True)
                except ValueError as exc:
                    assert refusal(cutoff_r) in str(exc)
                    accepted.append(False)
                assert accepted[-1] == (refusal(cutoff_r) is None)
                assert RadiiOrbital(cutoff_r=cutoff_r).valid or not accepted[-1]
        assert sum(accepted) == 17      # 1e-4, 10^-3.5, ..., 1e4


class TestOrientationCoefficient:
    def test_hydrogen_is_one(self, rng):
        basis = GroundBasis((HydrogenOrbital(),))
        for v in random_unit_vectors(rng, 5):
            assert orientation_coefficient(basis, v) == pytest.approx(1.0, abs=1e-10)

    def test_one_dimensional_basis_is_plain_expectation(self, rng):
        pts, wts = spherical_product_grid()
        vals = pts[:, 0] * np.exp(-np.linalg.norm(pts, axis=1) / 2.0)
        fn = GridWaveFn.from_samples(pts, wts, vals)
        basis = GroundBasis((fn,))
        v = random_unit_vectors(rng, 1)[0]
        t = fn.moment2(fn)
        expectation = (v @ t @ v + np.trace(t)) / 16.0
        assert orientation_coefficient(basis, v) == pytest.approx(expectation, rel=1e-12)

    def test_rotation_covariance(self, rng):
        pts, wts = spherical_product_grid()
        radius = np.linalg.norm(pts, axis=1)
        fa = GridWaveFn.from_samples(pts, wts, pts[:, 0] * np.exp(-radius / 2.0))
        fb = GridWaveFn.from_samples(pts, wts, pts[:, 1] * np.exp(-radius / 2.0))
        basis = GroundBasis((fa, fb))
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                        [math.sin(theta), math.cos(theta), 0.0],
                        [0.0, 0.0, 1.0]])
        rotated = GroundBasis((fa.rotated(rot), fb.rotated(rot)))
        for v in random_unit_vectors(rng, 5):
            c0 = orientation_coefficient(basis, v)
            c1 = orientation_coefficient(rotated, rot @ v)
            assert c1 == pytest.approx(c0, abs=1e-10)

    def test_positivity(self, rng):
        pts, wts = spherical_product_grid()
        radius = np.linalg.norm(pts, axis=1)
        for _ in range(3):
            coeffs = rng.standard_normal(3)
            vals = (coeffs[0] + coeffs[1] * pts[:, 2] + coeffs[2] * pts[:, 0]) * np.exp(-radius)
            fn = GridWaveFn.from_samples(pts, wts, vals)
            assert orientation_coefficient(GroundBasis((fn,)), [0.0, 0.0, 1.0]) > 0.0

    def test_moments_once_per_basis(self, monkeypatch, rng):
        # T does not depend on v: 32 directions make one moment quadrature
        # per basis, and each C(v) equals the one computed from a fresh T
        calls = []
        for cls in (HydrogenOrbital, ProductState):
            def spy(self, other, moment2=cls.moment2):
                calls.append(type(self).__name__)
                return moment2(self, other)
            monkeypatch.setattr(cls, "moment2", spy)
        hydrogen = GroundBasis((HydrogenOrbital(),))
        helium = GroundBasis((ProductState((HydrogenOrbital(z=2.0), HydrogenOrbital(z=2.0))),))
        directions = random_unit_vectors(rng, 32)
        for basis, made in ((hydrogen, ["HydrogenOrbital"]),
                            (helium, ["ProductState", "HydrogenOrbital", "HydrogenOrbital"])):
            calls.clear()
            values = [orientation_coefficient(basis, v) for v in directions]
            assert calls == made
            fn = basis.functions[0]
            t = fn.moment2(fn)
            assert values == [(float(v @ t @ v) + float(np.trace(t))) / 16.0 for v in directions]
            assert not basis.second_moments.flags.writeable

    def test_non_orthonormal_rejected(self):
        orb = HydrogenOrbital()
        with pytest.raises(ValueError):
            GroundBasis((orb, orb))

    def test_nan_function_rejected(self):
        # a NaN Gram matrix passed the orthonormality test, and C(v) came back NaN
        pts, wts = spherical_product_grid(r_max=10.0, n_r=30, n_theta=10, n_phi=8)
        fn = GridWaveFn.from_samples(pts, wts, np.exp(-np.linalg.norm(pts, axis=1)))
        fn.values = np.full_like(fn.values, np.nan)
        with pytest.raises(ValueError, match="orthonormal"):
            GroundBasis((fn,))

    def test_helium_product_state(self):
        # two electrons in the z=2 orbital: <R^2> = 3 each, independent,
        # so C(v) = (2*1 + 2*3)/16 = 0.5
        state = ProductState((HydrogenOrbital(z=2.0), HydrogenOrbital(z=2.0)))
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        c = orientation_coefficient(GroundBasis((state,)), [0.0, 1.0, 0.0])
        assert c == pytest.approx(0.5, abs=1e-12)

    def test_product_state_takes_s_orbitals_only(self):
        # ProductState drops the dipole cross terms, which vanish for s
        # orbitals alone
        pts, wts = spherical_product_grid(r_max=10.0, n_r=30, n_theta=10, n_phi=8)
        radius = np.linalg.norm(pts, axis=1)
        p_orbital = GridWaveFn.from_samples(pts, wts, pts[:, 2] * np.exp(-radius))
        with pytest.raises(ValueError, match="HydrogenOrbital"):
            ProductState((HydrogenOrbital(), p_orbital))


class TestGridWaveFn:
    def test_norm_enforced(self):
        pts, wts = spherical_product_grid(r_max=10.0, n_r=30, n_theta=10, n_phi=8)
        with pytest.raises(ValueError):
            GridWaveFn(pts, wts, np.ones(len(wts)))

    def test_nan_values_rejected(self):
        # NaN passed the norm test and the function was kept with norm NaN
        pts, wts = spherical_product_grid(r_max=10.0, n_r=30, n_theta=10, n_phi=8)
        vals = np.exp(-np.linalg.norm(pts, axis=1))
        vals[0] = np.nan
        with pytest.raises(ValueError, match="norm nan"):
            GridWaveFn(pts, wts, vals)
        with pytest.raises(ValueError, match="samples must be finite"):
            GridWaveFn.from_samples(pts, wts, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_samples_refuses_non_finite_samples(self, bad):
        # refused by from_samples itself, not by __init__'s norm test,
        # whose message would send the caller back to from_samples
        pts, wts = spherical_product_grid(r_max=10.0, n_r=30, n_theta=10, n_phi=8)
        vals = np.exp(-np.linalg.norm(pts, axis=1))
        vals[3] = bad
        with pytest.raises(ValueError, match="samples must be finite") as err:
            GridWaveFn.from_samples(pts, wts, vals)
        assert "use from_samples" not in str(err.value)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_from_samples_scales_before_the_norm(self, scale):
        # squares of 1e200 overflow and of 1e-200 underflow; scaled by the
        # largest |value| first, the samples normalize with no warning
        pts, wts = np.eye(3), np.ones(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn = GridWaveFn.from_samples(pts, wts, [scale, scale, 0.0])
        assert fn.norm() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(fn.values, [np.sqrt(0.5), np.sqrt(0.5), 0.0], rtol=1e-15, atol=0.0)

    def test_from_samples_refuses_the_zero_function(self):
        with pytest.raises(ValueError, match="zero function"):
            GridWaveFn.from_samples(np.eye(3), np.ones(3), np.zeros(3))

    def test_mismatched_grids_rejected(self):
        pts, wts = spherical_product_grid(r_max=10.0, n_r=30, n_theta=10, n_phi=8)
        fa = GridWaveFn.from_samples(pts, wts, np.exp(-np.linalg.norm(pts, axis=1)))
        fb = GridWaveFn.from_samples(pts * 1.1, wts, np.exp(-np.linalg.norm(pts, axis=1)))
        with pytest.raises(ValueError):
            fa.overlap(fb)
