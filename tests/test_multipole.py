import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_unit_vectors
from vdwplate.model import Molecule
from vdwplate.multipole import (GridWaveFn, GroundBasis, HydrogenOrbital,
                                ProductState, QuadratureError,
                                geometric_tail_split, inverse_distance_series,
                                leading_interaction_coefficient,
                                mirror_energy_expectation, orientation_coefficient,
                                r3_coefficient)


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
            assert orb.axis_moment(k) == pytest.approx(oracle, rel=1e-10)
        assert orb.axis_moment(3) == 0.0

    def test_scaled_moments(self):
        # <R^2> scales as 1/z^2
        orb = HydrogenOrbital(z=2.0)
        assert orb.axis_moment(2) == pytest.approx(1.0, rel=1e-12)

    def test_cutoff_support(self):
        psi = HydrogenOrbital(cutoff_r=40.0)
        assert psi.radial_value(10.0 * 1.0001) == 0.0
        assert psi.radial_value(40.0 / 5.0 * 0.999) > 0.0

    def test_hydrogen_energy(self):
        assert HydrogenOrbital().hydrogen_energy() == pytest.approx(-0.25, abs=1e-12)
        # scaled orbital against unit coupling: z^2/4 - z/2 = 0 at z = 2
        assert HydrogenOrbital(z=2.0).hydrogen_energy() == pytest.approx(0.0, abs=1e-12)


class TestInverseDistanceSeries:
    def test_z_zero(self):
        se = inverse_distance_series(np.zeros(3), [0.0, 0.0, 1.0], 3.0, 4)
        assert se.partial_sum == se.exact == pytest.approx(1.0 / 6.0)

    def test_r3_coefficient(self, rng):
        for v in random_unit_vectors(rng, 10):
            z = rng.standard_normal(3)
            se = inverse_distance_series(z, v, 5.0, 3)
            assert se.terms[2] == pytest.approx(r3_coefficient(z, v) / 125.0, rel=1e-12)

    def test_halving_r_remainder_decay(self, rng):
        # order 3: first omitted term carries r^-(3+2); directions near the
        # degree-4 Legendre roots suppress that term and are skipped
        from scipy.special import eval_legendre
        r, checked = 16.0, 0
        while checked < 40:
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            z = rng.standard_normal(3)
            z /= np.linalg.norm(z)
            if abs(eval_legendre(4, z @ v)) < 0.1:
                continue
            checked += 1
            rem1 = inverse_distance_series(z, v, r, 3).remainder
            rem2 = inverse_distance_series(z, v, 2 * r, 3).remainder
            assert abs(rem2 / rem1 - 2.0 ** -5) <= 0.2 * 2.0 ** -5

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_truncation_order_scaling(self, order, rng):
        from scipy.special import eval_legendre
        r, checked = 8.0, 0
        while checked < 12:
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            z = rng.standard_normal(3)
            z *= rng.uniform(0.05, 0.25) * r / np.linalg.norm(z)
            if abs(eval_legendre(order + 1, (z @ v) / np.linalg.norm(z))) < 0.2:
                continue
            checked += 1
            rem1 = inverse_distance_series(z, v, r, order).remainder
            rem2 = inverse_distance_series(z, v, 2 * r, order).remainder
            target = 2.0 ** -(order + 2)
            assert abs(rem2 / rem1 - target) <= 0.25 * target

    def test_validity_window(self):
        with pytest.raises(ValueError):
            inverse_distance_series([10.0, 0.0, 0.0], [1.0, 0.0, 0.0], 3.0, 2)


class TestGeometricSplit:
    def test_x1_zero(self):
        gs = geometric_tail_split(0.0, 3.0)
        assert np.all(gs.terms == 0.0) and gs.remainder == 0.0 and gs.exact == 0.0

    def test_exact_identity_at_quarter(self):
        gs = geometric_tail_split(1.0, 4.0, order=5)
        assert abs(gs.total - gs.exact) <= 1e-14

    def test_exact_identity_random(self, rng):
        # identity holds to roundoff relative to the largest intermediate;
        # approaching the pole at x1 = -r the conditioning factor 1/(1+x1/r)
        # enters the attainable accuracy
        for _ in range(10_000):
            r = rng.uniform(0.1, 50.0)
            x1 = rng.uniform(-0.95 * r, 5.0 * r)
            gs = geometric_tail_split(x1, r, order=int(rng.integers(1, 6)))
            scale = max(1.0, abs(gs.exact), np.abs(gs.terms).max(), abs(gs.remainder))
            assert abs(gs.total - gs.exact) <= 1e-14 * scale
        for _ in range(500):
            r = rng.uniform(0.1, 50.0)
            x1 = rng.uniform(-0.999 * r, -0.95 * r)
            gs = geometric_tail_split(x1, r, order=5)
            scale = max(1.0, abs(gs.exact), abs(gs.remainder))
            assert abs(gs.total - gs.exact) <= 1e-12 * scale

    def test_even_terms_give_asymptotic_constants(self):
        # the k=2 and k=4 terms integrate against the ground-state density to
        # the r^-3 and r^-5 coefficients: <x1^2>/4 = 1, <x1^4>/4 = 18
        orb = HydrogenOrbital()
        assert orb.axis_moment(2) / 4.0 == pytest.approx(1.0, rel=1e-12)
        assert orb.axis_moment(4) / 4.0 == pytest.approx(18.0, rel=1e-12)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            geometric_tail_split(-5.0, 4.0)
        with pytest.raises(ValueError):
            geometric_tail_split(1.0, 4.0, order=6)


class TestLeadingCoefficient:
    def test_hydrogen_formula(self, rng):
        mol = Molecule.hydrogen()
        for v in random_unit_vectors(rng, 10):
            x = rng.standard_normal(3)
            lead = leading_interaction_coefficient(mol, v, [x])
            assert lead == pytest.approx(-((x @ v) ** 2 + x @ x) / 16.0, rel=1e-14)

    def test_balanced_electrons_vanish(self):
        mol = Molecule.helium()
        x = np.array([[0.7, -0.2, 0.4], [-0.7, 0.2, -0.4]])
        assert leading_interaction_coefficient(mol, [0.0, 0.0, 1.0], x) == 0.0

    def test_invalid_molecule_rejected(self):
        mol = Molecule(np.array([1.0]), np.array([[0.3, 0.0, 0.0]]), 1)
        with pytest.raises(ValueError):
            leading_interaction_coefficient(mol, [1.0, 0.0, 0.0], [np.zeros(3)])

    def test_matches_full_interaction_at_large_r(self, rng):
        # r^3 (I/2) -> leading coefficient along a geometric r ladder
        from vdwplate.model import PlateConfig
        from vdwplate.potential import molecule_mirror_interaction
        mol = Molecule.helium()
        v = np.array([1.0, 0.0, 0.0])
        electrons = rng.standard_normal((2, 3)) * 0.6
        lead = leading_interaction_coefficient(mol, v, electrons)
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
        lead = leading_interaction_coefficient(mol, v, electrons)
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

    def test_quadrature_error_flagged(self):
        rough = HydrogenOrbital(cutoff_r=20.0, n_radial=8)
        with pytest.raises(QuadratureError):
            mirror_energy_expectation(rough, 20.0)


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
