import numpy as np
import pytest

from vdwplate.model import E_HYDROGEN
from vdwplate.spectra import (BindingVerdict, binding_condition,
                              electron_plate_energy_deviation,
                              essential_spectrum_bottom, helium_variational_energy,
                              hvz_gap, k_electron_plate_bottom)


class TestEssentialSpectrumBottom:
    def test_values(self):
        assert essential_spectrum_bottom(10.0) == pytest.approx(-0.040625)
        assert essential_spectrum_bottom(4.0) == pytest.approx(-0.078125)

    def test_limit_and_monotonicity(self):
        rs = np.linspace(1.0, 1e6, 200)
        vals = np.array([essential_spectrum_bottom(r) for r in rs])
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] == pytest.approx(-1.0 / 64.0, abs=1e-6)
        assert np.all(vals < -1.0 / 64.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            essential_spectrum_bottom(0.0)

    def test_mirror_strength(self):
        # m^2 (-1/64) - m/(4r): the electron level scales as m^2, the nucleus as m
        assert essential_spectrum_bottom(8.0, 0.5) == -0.01953125
        assert essential_spectrum_bottom(10.0, 1.0) == essential_spectrum_bottom(10.0)
        zero = essential_spectrum_bottom(8.0, 0.0)
        assert zero == 0.0 and np.copysign(1.0, zero) == 1.0


class TestHvzGap:
    def test_bound_state(self):
        rep = hvz_gap(-0.25, 10.0)
        assert rep.gap == pytest.approx(-0.209375)
        assert rep.status == "bound"

    def test_marginal(self):
        bottom = essential_spectrum_bottom(5.0)
        assert hvz_gap(bottom, 5.0).status == "marginal"

    def test_not_certified(self):
        assert hvz_gap(-0.01, 10.0).status == "no certified ground state"

    def test_mirror_strength(self):
        rep = hvz_gap(-0.25, 8.0, 0.0, 0.5)
        assert rep.essential_bottom == essential_spectrum_bottom(8.0, 0.5)
        assert rep.gap == -0.25 + 0.01953125
        assert hvz_gap(-0.25, 8.0, m=0.0).gap == -0.25

    @pytest.mark.parametrize("offset, status", [
        (-2e-12, "bound"), (-0.9e-12, "marginal"), (0.0, "marginal"),
        (0.9e-12, "marginal"), (2e-12, "no certified ground state")])
    def test_gap_inside_residual_is_marginal(self, offset, status):
        # a gap the solve's residual bound cannot resolve is neither verdict
        r, residual = 5.0, 1e-12
        energy = essential_spectrum_bottom(r) + offset
        rep = hvz_gap(energy, r, residual)
        assert rep.residual == residual and rep.status == status


class TestElectronPlateDeviation:
    def test_exact(self):
        assert electron_plate_energy_deviation(-1.0 / 64.0) == 0.0

    def test_example(self):
        assert electron_plate_energy_deviation(-0.01560) == pytest.approx(2.5e-5)


class TestKElectronBottom:
    def test_values(self):
        assert k_electron_plate_bottom(1) == pytest.approx(-1.0 / 64.0)
        assert k_electron_plate_bottom(2) == pytest.approx(-1.0 / 32.0)
        assert k_electron_plate_bottom(0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            k_electron_plate_bottom(-1)


class TestBindingCondition:
    def test_hydrogen_certified(self):
        verdicts = binding_condition({1: E_HYDROGEN}, 1)
        assert verdicts[1] == BindingVerdict(k=1, lhs=-0.25, rhs=-1.0 / 64.0,
                                             certified=True)

    def test_helium_certified(self):
        verdicts = binding_condition({2: 5.5 * E_HYDROGEN, 1: 4.0 * E_HYDROGEN}, 2)
        assert verdicts[1].certified
        assert verdicts[1].rhs == pytest.approx(-1.0 - 1.0 / 64.0)
        assert verdicts[2].certified
        assert verdicts[2].rhs == pytest.approx(-1.0 / 32.0)

    def test_violation_not_certified(self):
        verdicts = binding_condition({1: -0.01}, 1)
        assert not verdicts[1].certified

    def test_missing_subsystem(self):
        with pytest.raises(ValueError):
            binding_condition({2: -1.0}, 2)

    def test_monotone_in_upper_bound(self):
        # improving (lowering) the full-system bound can only keep or gain
        # certification
        loose = binding_condition({1: -0.014}, 1)[1].certified
        tight = binding_condition({1: -0.2}, 1)[1].certified
        assert (not loose) and tight


class TestHeliumVariational:
    def test_total(self):
        he = helium_variational_energy()
        assert he.total == pytest.approx(5.5 * E_HYDROGEN, rel=5e-3)
        assert he.total == pytest.approx(-1.375, abs=1e-4)

    def test_pieces(self):
        he = helium_variational_energy()
        # one-electron pieces sum to twice the scaled hydrogen energy
        assert he.kinetic + he.attraction == pytest.approx(8.0 * E_HYDROGEN, abs=1e-4)
        assert he.repulsion == pytest.approx(0.625, abs=1e-4)

    def test_quadrature_exact(self):
        # Gauss-Laguerre integrates every piece to rounding
        he = helium_variational_energy()
        assert abs(he.kinetic - 2.0) <= 1e-12
        assert abs(he.attraction + 4.0) <= 1e-12
        assert abs(he.repulsion - 0.625) <= 1e-12
