"""Spectral thresholds, binding-condition verdicts, and closed-form reference
energies for the half-space systems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import E_ELECTRON_PLATE, E_HYDROGEN
from .multipole import HydrogenOrbital


def essential_spectrum_bottom(r: float) -> float:
    """Bottom of the essential spectrum of the hydrogen/plate Hamiltonian.

    The electron can escape along the plate with energy -1/64 while the
    nucleus keeps its image attraction -1/(4r).
    """
    if not r > 0:
        raise ValueError("r must be positive")
    return E_ELECTRON_PLATE - 1.0 / (4.0 * r)


@dataclass(frozen=True)
class ThresholdReport:
    r: float
    energy: float
    essential_bottom: float

    @property
    def gap(self) -> float:
        return self.energy - self.essential_bottom

    @property
    def status(self) -> str:
        if self.gap < 0:
            return "bound"
        return "marginal" if self.gap == 0 else "no certified ground state"


def hvz_gap(energy: float, r: float) -> ThresholdReport:
    """Compare a computed ground energy against the essential-spectrum bottom.

    gap < 0 certifies a discrete ground state below the continuum.
    """
    return ThresholdReport(r=r, energy=energy,
                          essential_bottom=essential_spectrum_bottom(r))


def electron_plate_energy_deviation(e_electron: float) -> float:
    """|E_electron - E_HYDROGEN/16|, the identity satisfied by the 1D ground energy."""
    return abs(e_electron - E_HYDROGEN / 16.0)


def k_electron_plate_bottom(k: int) -> float:
    """Spectrum bottom of k independent electrons against a conducting plate: -k/64."""
    if k < 0 or k != int(k):
        raise ValueError("k must be a nonnegative integer")
    return k * E_ELECTRON_PLATE


@dataclass(frozen=True)
class BindingVerdict:
    k: int
    lhs: float      # upper bound on the full-system ground energy
    rhs: float      # subsystem bound plus k electrons on the plate
    certified: bool


def binding_condition(molecule_energies: dict, n_electrons: int) -> dict:
    """Verdicts for: full system below every (N-k)-electron subsystem plus k
    plate-bound electrons.

    molecule_energies maps electron count j to an energy that is an upper
    bound for j = N and exact-or-lower for j < N; a verdict is certified only
    when the strict inequality holds with those one-sided values.  The
    0-electron energy defaults to the bare nuclear repulsion 0 for an atom.
    """
    if n_electrons < 1:
        raise ValueError("need at least one electron")
    energies = dict(molecule_energies)
    energies.setdefault(0, 0.0)
    if n_electrons not in energies:
        raise ValueError(f"missing full-system energy for N = {n_electrons}")
    verdicts = {}
    for k in range(1, n_electrons + 1):
        sub = n_electrons - k
        if sub not in energies:
            raise ValueError(f"missing subsystem energy for {sub} electrons")
        lhs = energies[n_electrons]
        rhs = energies[sub] + k * E_HYDROGEN / 16.0
        verdicts[k] = BindingVerdict(k=k, lhs=lhs, rhs=rhs, certified=lhs < rhs)
    return verdicts


@dataclass(frozen=True)
class HeliumEnergy:
    kinetic: float
    attraction: float
    repulsion: float

    @property
    def total(self) -> float:
        return self.kinetic + self.attraction + self.repulsion


def helium_variational_energy() -> HeliumEnergy:
    """Energy of helium in the doubly occupied scaled hydrogen orbital.

    The trial orbital is the ground state of -Laplacian - 2/|x| (radial density
    4 R^2 e^{-2R}).  Kinetic and nuclear-attraction terms are the orbital's
    Gauss-Laguerre integrals; the electron repulsion is the density against
    its closed-form Newton potential U(R) = 1/R - e^{-2R} (1/R + 1).  Each is
    exact to rounding: kinetic 2, attraction -4, repulsion 5/8, total
    5.5 * E_HYDROGEN.
    """
    orbital = HydrogenOrbital(z=2.0)
    attraction_each = -2.0 * orbital.density_expectation(lambda radius: 1.0 / radius)
    repulsion = orbital.density_expectation(
        lambda radius: 1.0 / radius - np.exp(-2.0 * radius) * (1.0 / radius + 1.0))
    return HeliumEnergy(kinetic=2.0 * orbital.kinetic_energy(),
                        attraction=2.0 * attraction_each,
                        repulsion=repulsion)
