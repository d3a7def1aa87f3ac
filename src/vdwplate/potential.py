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
from functools import lru_cache

import numpy as np

from .model import COINCIDENCE_TOL, PERMITTIVITY, Molecule, PlateConfig, as_vec3


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


def greens_coefficients(eps1: float, eps2: float = math.inf) -> GreensCoeffs:
    """Coefficients A, B for a charge in medium 1 facing medium 2.

    eps1 and eps2 lie in PERMITTIVITY, where A and B are finite, except that
    eps2 = inf gives the conductor limit A = -1, B = 2.
    """
    PERMITTIVITY.check("permittivity eps1", eps1)
    if eps2 == math.inf:
        return GreensCoeffs(a=-1.0, b=2.0, eps1=eps1, eps2=math.inf)
    PERMITTIVITY.check("permittivity eps2", eps2)
    return GreensCoeffs(
        a=(eps1 - eps2) / (eps1 + eps2),
        b=2.0 * eps2 / (eps1 + eps2),
        eps1=eps1,
        eps2=eps2,
    )


@dataclass(frozen=True)
class MirrorInteraction:
    """The three mirror sums and their combination, scaled by the mirror strength m.

    electron_nucleus:  sum_{i,l} 2 Z_l / |x_i + 2r v - y_l*|
    electron_electron: unordered pairs i < j at weight 2 plus self terms once
    nucleus_nucleus:   same convention over nuclei
    total = electron_nucleus - electron_electron - nucleus_nucleus; the full
    Hamiltonian adds total/2 to the free-molecule Hamiltonian.  The electron
    sums are arrays over the leading axes of a stack of configurations;
    nucleus_nucleus is one number.
    """

    electron_nucleus: float | np.ndarray
    electron_electron: float | np.ndarray
    nucleus_nucleus: float

    @property
    def total(self) -> float | np.ndarray:
        # -I3 - I2 + I1: the term order of hydrogen's closed form
        # -1/(2r) - 1/(2(x.v + r)) + 2/|x + 2r v|, on which the last digits of E(r) depend
        return -self.nucleus_nucleus - self.electron_electron + self.electron_nucleus


def _mirror_sum(q_a: np.ndarray, p_a: np.ndarray, q_b: np.ndarray, p_b: np.ndarray,
                plate: PlateConfig) -> float | np.ndarray:
    """sum over ordered pairs (i, j) of q_a[i] q_b[j] / |p_a[i] - mirror(p_b[j])|.

    Positions have shape (..., n, 3); the sum runs over the pair axes and
    broadcasts over the leading ones.  The separation is formed as
    (p_a - p_b) + 2 (p_b.v + r) v, so a self-image separation is 2 (x.v + r) v
    with no cancellation between coordinates near the plate.
    """
    sep = (p_a[..., :, None, :] - p_b[..., None, :, :]
           + 2.0 * plate.signed_distance(p_b)[..., None, :, None] * plate.v)
    d = np.linalg.norm(sep, axis=-1)
    if np.any(d < COINCIDENCE_TOL):
        raise ValueError("charge coincides with a mirror position")
    return np.sum(q_a[:, None] * q_b[None, :] / d, axis=(-2, -1))


@lru_cache(maxsize=16)
def _pair_indices(n: int) -> tuple:
    """The index arrays (i, j) of the pairs i < j of n charges, read-only."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _coulomb_sum(q: np.ndarray, p: np.ndarray) -> float:
    """sum over unordered pairs i < j of q[i] q[j] / |p[i] - p[j]|."""
    i, j = _pair_indices(q.size)
    d = np.linalg.norm(p[i] - p[j], axis=-1)
    if np.any(d < COINCIDENCE_TOL):
        raise ValueError("coincident charge positions")
    return float(np.sum(q[i] * q[j] / d))


def molecule_mirror_interaction(mol: Molecule, plate: PlateConfig, electrons) -> MirrorInteraction:
    """Mirror-interaction sums for electrons at the given positions.

    electrons has shape (..., n_electrons, 3): one configuration, or a stack
    of them along the leading axes.  Every term is scaled by plate.m (the
    mirror strength).  All electrons must satisfy the side condition x.v > -r.
    """
    x = as_vec3(electrons)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[-2] != mol.n_electrons:
        raise ValueError(f"expected {mol.n_electrons} electron positions, got {x.shape[-2]}")
    if np.any(plate.signed_distance(x) <= 0):
        raise ValueError("electron outside the half-space x.v > -r")
    if np.any(plate.signed_distance(mol.positions) <= 0):
        raise ValueError("nucleus outside the half-space y.v > -r")

    y, z = mol.positions, mol.charges
    ones = np.ones(mol.n_electrons)

    i1 = 2.0 * _mirror_sum(ones, x, z, y, plate)
    # within one species: cross pairs twice, self terms once
    i2 = _mirror_sum(ones, x, ones, x, plate)
    i3 = _mirror_sum(z, y, z, y, plate)
    m = plate.m
    return MirrorInteraction(m * i1, m * i2, m * i3)


@dataclass(frozen=True)
class ChargeSet:
    """Point charges on the medium-1 side of a plate.

    The plate gives the geometry only, its normal v and distance r; its
    mirror strength m is not read (interaction_energy takes A from coeffs).
    """

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
    The plate of charges places the mirror plane only: A comes from coeffs,
    never from the plate's m.
    """
    q, p = charges.charges, charges.positions
    # ordered pairs: each cross pair twice, each self-image once, all halved
    return _coulomb_sum(q, p) + 0.5 * coeffs.a * float(_mirror_sum(q, p, q, p, charges.plate))
