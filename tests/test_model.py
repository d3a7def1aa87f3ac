import concurrent.futures
import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import random_unit_vectors
from vdwplate import asymptotics
from vdwplate.asymptotics import SweepTable, sweep_interaction_energy
from vdwplate.eigensolver import (Grid1D, GridCyl, GridCylSpec, NonConvergenceError,
                                  assemble_hydrogen_plate, electron_plate_ground)
from vdwplate.model import (CUTOFF_SCALE, DISTANCE, E_ELECTRON_PLATE, E_HYDROGEN, GRID_SPEC,
                            LENGTH_1D, MIRROR_SCALE, MIRROR_STRENGTH, ORBITAL_SCALE, Molecule,
                            PlateConfig, trapezoid_inequality, validate_molecule)
from vdwplate.multipole import HydrogenOrbital, QuadratureError, mirror_energy_expectation
from vdwplate.spectra import essential_spectrum_bottom, hvz_gap


def test_units():
    assert E_HYDROGEN == -0.25
    assert E_ELECTRON_PLATE == -1.0 / 64.0


class TestReflect:
    """PlateConfig.mirror, the reflection through the plate plane {x.v = -r}."""

    def test_axis_example(self, rng):
        # for v = e1: (x1, x2, x3) -> (-x1 - 2r, x2, x3)
        for r in (0.5, 2.0, 17.0):
            x = rng.standard_normal((10, 3))
            expected = np.column_stack([-x[:, 0] - 2.0 * r, x[:, 1], x[:, 2]])
            assert np.allclose(PlateConfig([1.0, 0.0, 0.0], r).mirror(x), expected,
                               rtol=0.0, atol=1e-14)

    def test_fixed_plane(self, rng):
        for v in random_unit_vectors(rng, 20):
            plate = PlateConfig(v, rng.uniform(0.1, 10.0))
            t = rng.standard_normal(3)
            x = -plate.r * v + (t - (t @ v) * v)    # on the plate plane
            assert np.allclose(plate.mirror(x), x, rtol=0.0, atol=1e-13)

    def test_involution(self, rng):
        for v in random_unit_vectors(rng, 20):
            plate = PlateConfig(v, rng.uniform(0.1, 10.0))
            x = rng.standard_normal(3)
            assert np.allclose(plate.mirror(plate.mirror(x)), x, rtol=0.0, atol=1e-13)

    def test_isometry(self, rng):
        vs = random_unit_vectors(rng, 50)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal((50, 3))
        for v, a, b in zip(vs, x, y):
            plate = PlateConfig(v, rng.uniform(0.1, 10.0))
            d0 = np.linalg.norm(a - b)
            d1 = np.linalg.norm(plate.mirror(a) - plate.mirror(b))
            assert abs(d0 - d1) <= 1e-12 * max(1.0, d0)


class TestPlateConfig:
    def test_valid(self):
        p = PlateConfig(np.array([0.0, 0.0, 1.0]), r=5.0, m=0.5)
        assert p.signed_distance([0.0, 0.0, 0.0]) == 5.0

    def test_mirror(self):
        p = PlateConfig(np.array([1.0, 0.0, 0.0]), r=2.0)
        assert np.allclose(p.mirror([1.0, 3.0, 0.0]), [-5.0, 3.0, 0.0])

    def test_rejections(self):
        with pytest.raises(ValueError):
            PlateConfig(np.array([1.0, 1.0, 0.0]), r=1.0)
        with pytest.raises(ValueError):
            PlateConfig(np.array([1.0, 0.0, 0.0]), r=-1.0)
        with pytest.raises(ValueError):
            PlateConfig(np.array([1.0, 0.0, 0.0]), r=1.0, m=1.5)

    @pytest.mark.parametrize("r", [math.inf, 1e308, 1e6, float(np.nextafter(DISTANCE.lo, 0.0)),
                                   float(np.nextafter(DISTANCE.hi, math.inf))])
    def test_distance_outside_its_domain_refused(self, r):
        # r = inf and 1e308 gave NaN image energies; r > 0 was the only rule
        with pytest.raises(ValueError, match="plate distance r must lie in its domain"):
            PlateConfig(np.array([1.0, 0.0, 0.0]), r)


class TestValidateMolecule:
    def test_hydrogen_valid(self):
        plate = PlateConfig(np.array([1.0, 0.0, 0.0]), r=3.0)
        assert validate_molecule(Molecule.hydrogen(), plate).valid

    def test_side_condition(self):
        plate = PlateConfig(np.array([1.0, 0.0, 0.0]), r=2.0)
        mol = Molecule(np.array([1.0]), np.array([[-4.0, 0.0, 0.0]]), 1)
        report = validate_molecule(mol, plate)
        assert not report.valid
        assert any("side condition" in v for v in report.violations)

    def test_centered_diatomic(self):
        mol = Molecule(np.array([1.0, 1.0]),
                       np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), 2)
        assert validate_molecule(mol).valid

    def test_non_neutral_and_off_center(self):
        mol = Molecule(np.array([2.0]), np.array([[0.0, 0.0, 0.0]]), 1)
        assert any("neutral" in v for v in validate_molecule(mol).violations)
        mol2 = Molecule(np.array([1.0]), np.array([[0.5, 0.0, 0.0]]), 1)
        assert any("centered" in v for v in validate_molecule(mol2).violations)


class TestTrapezoid:
    def test_unit_square_diagonal(self):
        chk = trapezoid_inequality(1.0, 1.0, np.sqrt(2.0))
        assert chk.holds
        assert chk.lhs == pytest.approx(np.sqrt(2.0))
        assert chk.rhs == pytest.approx(2.0)

    def test_equality_degenerate_collinear(self):
        # equality requires h = 0 and a = c, i.e. a = b = c (electron on the
        # nucleus in the physical picture)
        chk = trapezoid_inequality(2.0, 2.0, 2.0)
        assert chk.holds
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-15)

    def test_b_equals_a_plus_c_is_strict(self):
        # realizable (height sqrt(3) a) but not an equality case
        chk = trapezoid_inequality(1.0, 1.0, 2.0)
        assert chk.holds
        assert chk.lhs < chk.rhs

    def test_unrealizable_rejected(self):
        with pytest.raises(ValueError):
            trapezoid_inequality(2.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            trapezoid_inequality(-1.0, 1.0, 1.0)

    @pytest.mark.parametrize("sides", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
                                       (1.0, 1.0, math.nan)])
    def test_nan_length_rejected(self, sides):
        # NaN failed both comparisons and came back as holds = False; Python's
        # min hides a NaN depending on where it sits
        with pytest.raises(ValueError):
            trapezoid_inequality(*sides)

    def test_random_geometry_oracle(self, rng):
        # sample actual trapezoid vertices, measure the sides and diagonal
        n = 100_000
        a = rng.uniform(0.05, 10.0, n)
        c = rng.uniform(0.05, 10.0, n)
        h = rng.uniform(0.0, 10.0, n)
        lo = np.stack([-a / 2, np.zeros(n)], axis=1)
        hi = np.stack([c / 2, h], axis=1)
        b = np.linalg.norm(hi - lo, axis=1)
        assert np.all(b >= (a + c) / 2 * (1 - 1e-12))
        assert np.all(2.0 / b <= 1.0 / a + 1.0 / c + 1e-12)


class TestDeclaredDomains:
    """Each input is checked once, where it enters, against one declared
    domain: inside, results are finite or a documented refusal, with no
    RuntimeWarning; one ulp outside either end, one ValueError names it."""

    def test_seeded_scan_finite_or_refused(self):
        # z, z * cutoff_r and the mirror's r drawn log-uniform or at an end
        # of their domains (r of DISTANCE with z * r in MIRROR_SCALE), the
        # plain orbital in a third of the draws: every integral and every
        # field of the mirror expectation is finite, with no QuadratureError,
        # and only a product z * cutoff_r or z * r that rounds outside its
        # domain is refused
        rng = np.random.default_rng(41)

        def draw(lo, hi):
            if rng.random() >= 0.8:
                return float(rng.choice((lo, hi)))
            return min(max(math.exp(rng.uniform(math.log(lo), math.log(hi))), lo), hi)

        counts = {"finite": 0, "quadrature": 0, "refused": 0}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k in range(600):
                z = draw(*ORBITAL_SCALE)
                r = draw(DISTANCE[0], min(DISTANCE[1], MIRROR_SCALE[1] / z))
                cutoff_r = None if k % 3 == 0 else draw(*CUTOFF_SCALE) / z
                if cutoff_r is not None and not CUTOFF_SCALE[0] <= z * cutoff_r <= CUTOFF_SCALE[1]:
                    with pytest.raises(ValueError, match="cut-off scale"):
                        HydrogenOrbital(z, cutoff_r)
                    counts["refused"] += 1
                    continue
                psi = HydrogenOrbital(z, cutoff_r)
                values = [psi.norm(), psi.overlap(psi), psi.moment2(psi)[0, 0],
                          psi.kinetic_energy()]
                if not MIRROR_SCALE[0] <= z * r <= MIRROR_SCALE[1]:
                    with pytest.raises(ValueError, match="mirror scale"):
                        mirror_energy_expectation(psi, r)
                    counts["refused"] += 1
                    continue
                try:
                    values += dataclasses.astuple(mirror_energy_expectation(psi, r))
                    counts["finite"] += 1
                except QuadratureError:
                    counts["quadrature"] += 1
                assert all(math.isfinite(v) for v in values), (z, cutoff_r, r, values)
        assert counts == {"finite": 594, "quadrature": 0, "refused": 6}

    @pytest.mark.parametrize("L", LENGTH_1D)
    def test_electron_plate_at_the_length_ends(self, L):
        # finite values or NonConvergenceError: at L = 1e4 the n = 16 and 32
        # grids lie so far below the coarse shift's reach that inverse
        # iteration stalls
        outcomes = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for n in (32, 64, 4096):
                try:
                    res = electron_plate_ground(n, L)
                except NonConvergenceError:
                    outcomes.append("stalled")
                    continue
                assert all(math.isfinite(v) for v in dataclasses.astuple(res))
                outcomes.append("finite")
        stalled = [] if L == LENGTH_1D[0] else ["stalled"]
        assert outcomes == stalled + ["finite"] * (3 - len(stalled))

    # (message, domain, entry point) of each declared domain
    ENTRIES = {
        "z": ("orbital scale z", ORBITAL_SCALE, lambda v: HydrogenOrbital(z=v)),
        "z_cutoff": ("cut-off scale", CUTOFF_SCALE, lambda v: HydrogenOrbital(cutoff_r=v)),
        "mirror_r": ("plate distance r", DISTANCE, lambda v: mirror_energy_expectation(
            HydrogenOrbital(z=0.1, cutoff_r=20.0), v)),    # z * r inside MIRROR_SCALE
        "grid_r": ("plate distance r", DISTANCE, lambda v: GridCyl.for_distance(
            v, GridCylSpec(0.02, 1.0, 1.0) if v < 1.0 else GridCylSpec(100.0, 1e3, 1e3))),
        "L": ("domain length L", LENGTH_1D, lambda v: Grid1D(32, v)),
        "h": ("grid h_target", GRID_SPEC, lambda v: GridCylSpec(h_target=v)),
        "l_xi": ("grid l_xi_plus", GRID_SPEC, lambda v: GridCylSpec(l_xi_plus=v)),
        "l_rho": ("grid l_rho", GRID_SPEC, lambda v: GridCylSpec(l_rho=v)),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_ends_accepted_and_one_ulp_outside_refused(self, entry):
        text, domain, enter = self.ENTRIES[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for end, outward in zip(domain, (0.0, math.inf)):
                enter(end)
                for bad in (float(np.nextafter(end, outward)), -end, math.nan):
                    with pytest.raises(ValueError, match=f"{text}.* must lie in its domain"):
                        enter(bad)

    def test_cutoff_scale_end_resolved(self):
        # at the upper end of CUTOFF_SCALE, for z at both ends of
        # ORBITAL_SCALE, the cut-off orbital's own integrals meet the plain
        # orbital's closed forms, as the bump lies far outside the density;
        # 1e6 gave moment2 off by 3.31 relative (C(v) = 4.31) and is refused
        hi = CUTOFF_SCALE[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in ORBITAL_SCALE:
                psi = HydrogenOrbital(z=z, cutoff_r=hi / z)
                assert psi.moment2(psi)[0, 0] == pytest.approx(4.0 / z ** 2, rel=1e-12, abs=0.0)
                assert psi.kinetic_energy() == pytest.approx(z * z / 4.0, rel=1e-12, abs=0.0)
                with pytest.raises(ValueError, match="cut-off scale.* must lie in its domain"):
                    HydrogenOrbital(z=z, cutoff_r=1e6 / z)

    def test_mirror_scale_end_resolved(self):
        # the plain orbital at z * r = 1e4 (the upper end of MIRROR_SCALE)
        # meets <x1^2> = 4/z^2, <x1^4> = 72/z^4, <x1^6> = 2880/z^6, a Newton
        # term of 1/r and a tail mass of 0; above the end, where the rules
        # raised QuadratureError from z * r of about 1.6e4 on, ValueError
        # names the domain
        hi = MIRROR_SCALE[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (0.1, 1.0, ORBITAL_SCALE[1]):
                r = hi / z
                e = mirror_energy_expectation(HydrogenOrbital(z=z), r)
                fields = (e.moment_x1_sq, e.moment_x1_4, e.moment_x1_6, e.newton_term)
                closed = (4.0 / z ** 2, 72.0 / z ** 4, 2880.0 / z ** 6, 1.0 / r)
                assert fields == pytest.approx(closed, rel=1e-12, abs=0.0)
                assert e.tail_mass == 0.0
            for z, r in ((1.0, float(np.nextafter(hi, math.inf))), (1.0, 1.6e4),
                         (ORBITAL_SCALE[1], DISTANCE[1])):
                with pytest.raises(ValueError, match="mirror scale.* must lie in its domain"):
                    mirror_energy_expectation(HydrogenOrbital(z=z), r)

    @pytest.mark.parametrize("entry", ["mirror", "bottom", "hvz", "table", "sweep", "assemble"])
    def test_mirror_strength_refused_where_m_enters(self, monkeypatch, entry):
        # m outside [0, 1] returned NaN fields (mirror, m = NaN), five times
        # the conductor value (mirror, m = 5) and a "bound" verdict
        # (hvz_gap, m = -2); each entry now refuses it, the sweep before it
        # builds a grid or starts a pool, and accepts both ends
        def refused(*args, **kwargs):
            raise AssertionError("no grid or pool for a refused m")

        enter = {
            "mirror": lambda m: mirror_energy_expectation(HydrogenOrbital(), 10.0, m),
            "bottom": lambda m: essential_spectrum_bottom(10.0, m),
            "hvz": lambda m: hvz_gap(-0.3, 10.0, m=m),
            "table": lambda m: SweepTable(rows=[], m=m, grid={}),
            "sweep": lambda m: sweep_interaction_energy([3.0], m, GridCylSpec(0.5, 4.0, 4.0),
                                                        jobs=2),
            "assemble": lambda m: assemble_hydrogen_plate(
                GridCyl.for_distance(3.0, GridCylSpec(0.5, 4.0, 4.0)), (1.0, m)),
        }[entry]
        for m in MIRROR_STRENGTH:
            enter(m)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
        monkeypatch.setattr(asymptotics, "GridCyl", refused)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (math.nan, -0.5, 1.5):
                with pytest.raises(ValueError, match="mirror strength m must lie in its domain"):
                    enter(m)
