"""Image-charge potentials and electrostatic interaction energies.

Conventions (model units, Coulomb prefactor 1): the interface Green's function
splits as G = G0 + Gd with G0(x, y) = 1/|x - y| and Gd(x, y) = A/|x - mirror(y)|,
where A = (eps1 - eps2)/(eps1 + eps2) is the mirror coefficient of the medium-1
side.  A perfect conductor is the limit A -> -1; the positive mirror strength
is m = -A.  Mirror interactions between distinct charges enter at full weight,
self-image terms at half weight (the global 1/2 of the image construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import COINCIDENCE_TOL, Molecule, PlateConfig, as_vec3, reflect

E1 = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class GreensCoeffs:
    """Mirror and transmission coefficients of a planar dielectric interface.

    a = (eps1 - eps2)/(eps1 + eps2) scales the mirror term of the medium-1
    Green's function; b = 2*eps2/(eps1 + eps2) scales the transmitted field in
    medium 2 (exposed for completeness, never used by the Hamiltonians since
    the electron cannot cross the plate).  a + b = 1.
    """

    a: float
    b: float
    eps1: float
    eps2: float  # math.inf encodes the conductor limit

    @property
    def mirror_strength(self) -> float:
        """m = -a, in (0, 1] for eps2 > eps1; m = 1 is the perfect conductor."""
        return -self.a


def greens_coefficients(eps1: float, eps2: float = math.inf) -> GreensCoeffs:
    """Coefficients A, B for a charge in medium 1 facing medium 2.

    eps2 = inf gives the conductor limit A = -1, B = 2.
    """
    if not eps1 > 0:
        raise ValueError(f"eps1 must be positive, got {eps1}")
    if math.isinf(eps2):
        return GreensCoeffs(a=-1.0, b=2.0, eps1=eps1, eps2=math.inf)
    if not eps2 > 0:
        raise ValueError(f"eps2 must be positive, got {eps2}")
    return GreensCoeffs(
        a=(eps1 - eps2) / (eps1 + eps2),
        b=2.0 * eps2 / (eps1 + eps2),
        eps1=eps1,
        eps2=eps2,
    )


def hydrogen_image_bracket(x, r: float) -> np.ndarray:
    """Image part of the hydrogen/plate potential before the global 1/2.

    Nucleus at the origin, plate through -r*e1:

        -1/(2r) - 1/|2r e1 + (x - x*)| + 2/|2r e1 + x|,   x* = (-x1, x2, x3).

    Finite and <= 0 for x1 > -r, with equality only at x = 0 (the three terms
    cancel there).  Broadcasts over leading axes of x.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    x = as_vec3(x)
    x1 = x[..., 0]
    if np.any(x1 <= -r):
        raise ValueError("x must lie in the half-space x1 > -r")
    xs = reflect(x, E1)
    ee = np.linalg.norm(2.0 * r * E1 + (x - xs), axis=-1)  # = 2(r + x1)
    en = np.linalg.norm(2.0 * r * E1 + x, axis=-1)
    return -1.0 / (2.0 * r) - 1.0 / ee + 2.0 / en


def hydrogen_plate_potential(x, r: float, m: float = 1.0) -> np.ndarray:
    """Full potential of the hydrogen/plate Hamiltonian at electron position x.

    -1/|x| plus m/2 times the image bracket.  Rejects the nuclear singularity
    and points outside the half-space.
    """
    x = as_vec3(x)
    dist = np.linalg.norm(x, axis=-1)
    if np.any(dist < COINCIDENCE_TOL):
        raise ValueError("electron coincides with the nucleus")
    return -1.0 / dist + 0.5 * m * hydrogen_image_bracket(x, r)


@dataclass(frozen=True)
class MirrorInteraction:
    """The three mirror sums and their combination, scaled by the mirror strength m.

    electron_nucleus:  sum_{i,l} 2 Z_l / |x_i + 2r v - y_l*|
    electron_electron: unordered pairs i < j at weight 2 plus self terms once
    nucleus_nucleus:   same convention over nuclei
    total = electron_nucleus - electron_electron - nucleus_nucleus; the full
    Hamiltonian adds total/2 to the free-molecule Hamiltonian.
    """

    electron_nucleus: float
    electron_electron: float
    nucleus_nucleus: float

    @property
    def total(self) -> float:
        return self.electron_nucleus - self.electron_electron - self.nucleus_nucleus


def _mirror_sum(q_a: np.ndarray, p_a: np.ndarray, q_b: np.ndarray, p_b: np.ndarray,
                plate: PlateConfig) -> float:
    """sum over ordered pairs (i, j) of q_a[i] q_b[j] / |p_a[i] - mirror(p_b[j])|."""
    d = np.linalg.norm(p_a[:, None, :] - plate.mirror(p_b)[None, :, :], axis=-1)
    if np.any(d < COINCIDENCE_TOL):
        raise ValueError("charge coincides with a mirror position")
    return float(np.sum(q_a[:, None] * q_b[None, :] / d))


def _coulomb_sum(q: np.ndarray, p: np.ndarray) -> float:
    """sum over unordered pairs i < j of q[i] q[j] / |p[i] - p[j]|."""
    i, j = np.triu_indices(q.size, k=1)
    d = np.linalg.norm(p[i] - p[j], axis=-1)
    if np.any(d < COINCIDENCE_TOL):
        raise ValueError("coincident charge positions")
    return float(np.sum(q[i] * q[j] / d))


def molecule_mirror_interaction(mol: Molecule, plate: PlateConfig, electrons) -> MirrorInteraction:
    """Mirror-interaction sums for electrons at the given positions.

    Every term is scaled by plate.m (the mirror strength).  All electrons must
    satisfy the side condition x.v > -r.
    """
    x = as_vec3(electrons)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[0] != mol.n_electrons:
        raise ValueError(f"expected {mol.n_electrons} electron positions, got {x.shape[0]}")
    if np.any(plate.signed_distance(x) <= 0):
        raise ValueError("electron outside the half-space x.v > -r")
    if np.any(plate.signed_distance(mol.positions) <= 0):
        raise ValueError("nucleus outside the half-space y.v > -r")

    y, z = mol.positions, mol.charges
    ones = np.ones(x.shape[0])

    i1 = 2.0 * _mirror_sum(ones, x, z, y, plate)
    # within one species: cross pairs twice, self terms once
    i2 = _mirror_sum(ones, x, ones, x, plate)
    i3 = _mirror_sum(z, y, z, y, plate)
    m = plate.m
    return MirrorInteraction(m * i1, m * i2, m * i3)


def classical_potential(mol: Molecule, plate: PlateConfig, electrons) -> float:
    """Classical potential part of the full Hamiltonian: direct Coulomb plus total/2."""
    x = as_vec3(electrons)
    if x.ndim == 1:
        x = x[None, :]
    # electrons carry charge -1, nuclei their atomic numbers
    q = np.concatenate([-np.ones(x.shape[0]), mol.charges])
    direct = _coulomb_sum(q, np.vstack([x, mol.positions]))
    return direct + 0.5 * molecule_mirror_interaction(mol, plate, electrons).total


@dataclass(frozen=True)
class ChargeSet:
    """Point charges on the medium-1 side of a plate."""

    charges: np.ndarray
    positions: np.ndarray
    plate: PlateConfig

    def __post_init__(self):
        q = np.asarray(self.charges, dtype=float)
        p = as_vec3(self.positions)
        if p.ndim == 1:
            p = p[None, :]
        if q.ndim != 1 or p.shape != (q.size, 3):
            raise ValueError("need one position per charge")
        if np.any(self.plate.signed_distance(p) <= 0):
            raise ValueError("all charges must lie strictly inside medium 1")
        object.__setattr__(self, "charges", q)
        object.__setattr__(self, "positions", p)


def interaction_energy(charges: ChargeSet, coeffs: GreensCoeffs) -> float:
    """Electrostatic energy of point charges facing a dielectric half-space.

    Direct Coulomb terms over unordered pairs, plus the mirror terms: cross
    pairs at full weight and self-image terms at half weight, every mirror
    term carrying the coefficient A of the interface Green's function.
    """
    q, p = charges.charges, charges.positions
    # ordered pairs: each cross pair twice, each self-image once, all halved
    return _coulomb_sum(q, p) + 0.5 * coeffs.a * _mirror_sum(q, p, q, p, charges.plate)
