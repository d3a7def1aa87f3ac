import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

from conftest import random_unit_vectors
from vdwplate import multipole
from vdwplate.model import Molecule
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
        monkeypatch.setattr(multipole, "RADIAL_NODES", 8)
        rough = HydrogenOrbital(cutoff_r=20.0)
        with pytest.raises(QuadratureError):
            mirror_energy_expectation(rough, 20.0)

    # every field at r = 13.7, with R^4 and R^6 taken from one R^2 ladder.
    # PINNED_POWERS holds the fields of R ** 4 and R ** 6, which the ladder
    # moves by at most 6e-16 relative.  PINNED_WINDOWS is the oracle of a rule
    # per window ([0, inf), [0, r/4], [r/4, inf), [2r, inf)) for the supports
    # that pass r/4; cutoff_r = r drops both cuts and matches it to the bit
    PINNED = {
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
        powers = self.PINNED_POWERS[cutoff_r][:-1]  # every field but quad_error
        assert dataclasses.astuple(e)[:-1] == pytest.approx(powers, rel=1e-15, abs=0.0)
        if cutoff_r in self.PINNED_WINDOWS:     # every field but quad_error
            old = self.PINNED_WINDOWS[cutoff_r][:-1]
            assert dataclasses.astuple(e)[:-1] == pytest.approx(old, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("cutoff_r", [13.7, 27.4, None], ids=["cut_r", "cut_2r", "plain"])
    def test_one_density_evaluation_per_node_count(self, monkeypatch, cutoff_r):
        # both node counts share one density evaluation
        calls = []
        envelope = HydrogenOrbital._envelope

        def spy(self, radius):
            calls.append(len(radius))
            return envelope(self, radius)

        psi = HydrogenOrbital(cutoff_r=cutoff_r)
        monkeypatch.setattr(HydrogenOrbital, "_envelope", spy)
        mirror_energy_expectation(psi, 13.7)
        assert len(calls) == 1

    @pytest.mark.parametrize("r", [math.inf, 1e300, 1e-300])
    def test_radius_out_of_range(self, r):
        # inf returned -0.0 with NaN terms, 1e300 raised OverflowError,
        # 1e-300 returned -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r must be positive"):
                mirror_energy_expectation(HydrogenOrbital(), r)

    def test_range_test_matches_the_power_test(self):
        # the scalar test R_MIN <= r <= R_MAX accepts exactly the r whose
        # r^-7 and r^7 float64 pow makes normal, the test it replaced
        def power_test(r):
            with np.errstate(all="ignore"):
                extremes = np.float64(r) ** np.array([-7.0, 7.0])
            return bool(np.all((np.finfo(float).tiny <= extremes) & (extremes < np.inf)))

        def accepted(r):
            try:
                mirror_energy_expectation(psi, r)
            except ValueError as exc:
                assert "r must be positive" in str(exc)
                return False
            return True

        psi = HydrogenOrbital()
        ends = [multipole.R_MIN, multipole.R_MAX]
        neighbours = [float(np.nextafter(end, side)) for end in ends for side in (0.0, np.inf)]
        cases = [0.0, -0.0, -1.0, -multipole.R_MIN, -13.7, math.nan, math.inf, -math.inf,
                 1.0, 13.7, *ends, *neighbours]
        for r in cases:
            assert accepted(r) == power_test(r), r
        assert [power_test(r) for r in neighbours] == [False, True, True, False]

    def test_bump_evaluated_above_its_inner_edge(self, monkeypatch):
        # below cutoff_r/5 the bump is exactly 1, so no node there reaches it
        seen = []
        profile = multipole.cutoff_profile

        def spy(radius, r):
            seen.append((np.asarray(radius).copy(), r))
            return profile(radius, r)

        monkeypatch.setattr(multipole, "cutoff_profile", spy)
        for r in (8.0, 13.7, 40.0):
            mirror_energy_expectation(HydrogenOrbital(cutoff_r=r), r)
            mirror_energy_expectation(HydrogenOrbital(cutoff_r=2.0 * r), r)
        assert len(seen) == 12
        assert all(radius.size and np.all(radius > cutoff_r / 5.0) for radius, cutoff_r in seen)

    def test_joined_rules_built_once_per_count_tuple(self, monkeypatch):
        # a call joins no table: each count tuple's joined Legendre and
        # Laguerre rules are built once and kept read-only
        counts = (multipole.RADIAL_NODES, 2 * multipole.RADIAL_NODES)
        mirror_energy_expectation(HydrogenOrbital(cutoff_r=20.0), 20.0)
        tables = multipole._joined_rules(counts)
        assert multipole._joined_rules(counts) is tables
        for table, rule, part in zip(tables, [multipole.angular_legendre_rule] * 2
                                     + [multipole.radial_laguerre_rule] * 2, [0, 1, 0, 1]):
            assert not table.flags.writeable
            assert table.tobytes() == np.concatenate([rule(n)[part] for n in counts]).tobytes()
        joins = []
        concatenate = np.concatenate
        monkeypatch.setattr(np, "concatenate", lambda *a, **k: joins.append(1) or concatenate(*a, **k))
        mirror_energy_expectation(HydrogenOrbital(cutoff_r=20.0), 20.0)
        mirror_energy_expectation(HydrogenOrbital(), 20.0)
        assert joins == []

    def test_infinite_cutoff_rejected(self):
        # its norm was NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and positive"):
                HydrogenOrbital(cutoff_r=math.inf)

    @pytest.mark.parametrize("cutoff_r", [1e20, 1e300])
    def test_huge_cutoff_rejected(self, cutoff_r):
        # at 1e20 no node of the rule saw e^{-R} > 0 and the norm was 0
        # (ZeroDivisionError); at 1e300 R^2 overflowed and the norm was NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gives the norm"):
                HydrogenOrbital(cutoff_r=cutoff_r)

    def test_nan_quadrature_error_raises(self, monkeypatch):
        # a NaN move passed "quad_error > QUAD_TOL"
        rule = HydrogenOrbital._pair_rule

        def nan_rule(self, other, density, counts, cuts=()):
            return [(radius, np.full_like(weights, np.nan))
                    for radius, weights in rule(self, other, density, counts, cuts=cuts)]

        monkeypatch.setattr(HydrogenOrbital, "_pair_rule", nan_rule)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="nan"):
                mirror_energy_expectation(HydrogenOrbital(), 20.0)


class TestPairRule:
    """One _pair_rule call over several node counts against one call per count."""

    R = 13.7
    ORBITALS = {"plain": HydrogenOrbital(), "cut_r": HydrogenOrbital(cutoff_r=R),
                "cut_2r": HydrogenOrbital(cutoff_r=2 * R), "z2": HydrogenOrbital(z=2.0),
                "z2_cut_2r": HydrogenOrbital(z=2.0, cutoff_r=2 * R)}
    PAIRS = [("plain", "plain"), ("cut_r", "cut_r"), ("cut_2r", "cut_2r"),
             ("plain", "z2"), ("cut_r", "z2_cut_2r")]
    # (1.0, 2.0) lies inside every support; (60.0, 90.0) beyond every cut-off
    # support; (r/4, 2r) are the mirror expectation's cuts
    CUTS = [(), (1.0, 2.0), (R / 4.0, 2.0 * R), (60.0, 90.0)]

    @pytest.mark.parametrize("pair", PAIRS, ids=["-".join(p) for p in PAIRS])
    @pytest.mark.parametrize("cuts", CUTS, ids=["none", "inside", "mirror", "beyond"])
    def test_each_count_bit_identical(self, pair, cuts):
        a, b = (self.ORBITALS[k] for k in pair)
        def density(R):
            return a._envelope(R) * b._envelope(R)

        counts = (multipole.RADIAL_NODES, 2 * multipole.RADIAL_NODES, 37)
        together = a._pair_rule(b, density, counts, cuts=cuts)
        assert len(together) == len(counts)
        for n, (radius, weights) in zip(counts, together):
            [(alone_r, alone_w)] = a._pair_rule(b, density, (n,), cuts=cuts)
            assert radius.tobytes() == alone_r.tobytes()
            assert weights.tobytes() == alone_w.tobytes()
            assert np.all(np.diff(radius) > 0) and not np.isin(cuts, radius).any()

    # the rules and values built one count per call, before the counts were
    # fused: sha256 over radius and weights at 200 and 400 nodes for each cut set
    PINNED_RULES = {("plain", "plain"): "920b8f9651cd6f3c", ("cut_r", "cut_r"): "3938078575bc7aef",
                    ("cut_2r", "cut_2r"): "12665d01260a59c4", ("plain", "z2"): "ca8727c39481e5a4",
                    ("cut_r", "z2_cut_2r"): "063eced0558fe7a9"}

    @pytest.mark.parametrize("pair", PAIRS, ids=["-".join(p) for p in PAIRS])
    def test_rules_pinned(self, pair):
        a, b = (self.ORBITALS[k] for k in pair)
        digest = hashlib.sha256()
        for cuts in self.CUTS:
            for radius, weights in a._pair_rule(
                    b, lambda R: a._envelope(R) * b._envelope(R), (200, 400), cuts=cuts):
                digest.update(radius.tobytes())
                digest.update(weights.tobytes())
        assert digest.hexdigest()[:16] == self.PINNED_RULES[pair]

    PINNED_NORM_KINETIC = {
        "plain": (1.0000000000000002, 0.2500000000000001),
        "cut_r": (0.9999999999999999, 1.338735167467672),
        "cut_2r": (1.0, 0.32457137327936497),
        "z2": (1.0000000000000004, 1.0000000000000009),
        "z2_cut_2r": (0.9999999999999999, 1.0017156446841198),
    }
    PINNED_OVERLAP = {("plain", "z2"): 0.8380524814062791,
                      ("cut_r", "z2_cut_2r"): 0.9231226481210852,
                      ("plain", "z2_cut_2r"): 0.8338314857538832}

    def test_integrals_pinned(self):
        orb = self.ORBITALS
        for name, (norm, kinetic) in self.PINNED_NORM_KINETIC.items():
            assert (orb[name].norm(), orb[name].kinetic_energy()) == (norm, kinetic)
        for (a, b), value in self.PINNED_OVERLAP.items():
            assert orb[a].overlap(orb[b]) == value
        assert dataclasses.astuple(helium_variational_energy()) == (
            2.0000000000000018, -4.000000000000007, 0.6250000000000007)

    def test_self_overlap_evaluates_the_bump_once(self, monkeypatch):
        calls = []
        envelope = HydrogenOrbital._envelope

        def spy(self, radius):
            calls.append(len(radius))
            return envelope(self, radius)

        monkeypatch.setattr(HydrogenOrbital, "_envelope", spy)
        HydrogenOrbital(cutoff_r=self.R)
        assert len(calls) == 1


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

    def test_mismatched_grids_rejected(self):
        pts, wts = spherical_product_grid(r_max=10.0, n_r=30, n_theta=10, n_phi=8)
        fa = GridWaveFn.from_samples(pts, wts, np.exp(-np.linalg.norm(pts, axis=1)))
        fb = GridWaveFn.from_samples(pts * 1.1, wts, np.exp(-np.linalg.norm(pts, axis=1)))
        with pytest.raises(ValueError):
            fa.overlap(fb)
