"""Geometry, units, and validity checks for the molecule/plate configuration.

Model units fix the kinetic prefactor and the Coulomb prefactor to 1, so the
free-hydrogen ground energy is exactly E_H = -1/4 and the electron/plate
reference energy is E_H/16 = -1/64.  All energies in the package are reported
in these units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Ground-state energy of free hydrogen in model units.
E_HYDROGEN = -0.25
# Ground-state energy of a single electron bound to a perfectly conducting
# plate by its own image charge: E_HYDROGEN / 16.
E_ELECTRON_PLATE = E_HYDROGEN / 16.0

UNIT_TOL = 1e-12
CENTERING_TOL = 1e-10
COINCIDENCE_TOL = 1e-12

class Domain(NamedTuple):
    """A declared input domain, the closed interval [lo, hi]."""

    lo: float
    hi: float

    def check(self, name: str, value) -> None:
        """Raise ValueError naming the domain unless value lies in it (NaN does not)."""
        if not self.lo <= value <= self.hi:
            raise ValueError(f"{name} must lie in its domain [{self.lo:g}, {self.hi:g}], "
                             f"got {value}")


# Declared input domains with round ends, each checked once, by Domain.check,
# where its value enters.  Each holds every value the package or a benchmark
# workload passes with at least a factor-10 margin; inside them no integral or
# solve warns or leaves the floats.
ORBITAL_SCALE = Domain(1e-3, 1e3)     # z of a HydrogenOrbital
CUTOFF_SCALE = Domain(1e-4, 1e4)      # the dimensionless z * cutoff_r
DISTANCE = Domain(1e-2, 1e5)          # r of PlateConfig, mirror_energy_expectation, GridCyl
MIRROR_SCALE = Domain(1e-5, 1e4)      # the dimensionless z * r of mirror_energy_expectation
MIRROR_STRENGTH = Domain(0.0, 1.0)    # m, no margin: 0 no plate, 1 a perfect conductor
PERMITTIVITY = Domain(1e-2, 1e3)      # eps1 and a finite eps2 of greens_coefficients
LENGTH_1D = Domain(1e-4, 1e4)         # L of a Grid1D
GRID_SPEC = Domain(1e-3, 1e3)         # the step and extents of a GridCylSpec


def as_vec3(x) -> np.ndarray:
    """Coerce to a float array whose last axis has length 3; reject non-finite input."""
    a = np.asarray(x, dtype=float)
    if a.shape == () or a.shape[-1] != 3:
        raise ValueError(f"expected 3-component vector(s), got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector components must be finite")
    return a


def unit_vector(v) -> np.ndarray:
    """Validate that v is a unit 3-vector within 1e-12."""
    v = as_vec3(v)
    if v.ndim != 1:
        raise ValueError("plate normal must be a single 3-vector")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        raise ValueError(f"|v| = {np.linalg.norm(v)!r} is not 1 within {UNIT_TOL}")
    return v


@dataclass(frozen=True)
class PlateConfig:
    """Half-space interface: unit normal v, distance r from the origin, mirror strength m.

    The plate occupies {x : x.v <= -r}; the physical region is x.v > -r.
    r lies in DISTANCE and m in MIRROR_STRENGTH: m = 1 is a perfect
    conductor, 0 < m < 1 a dielectric and m = 0 no plate.
    """

    v: np.ndarray
    r: float
    m: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "v", unit_vector(self.v))
        self.v.setflags(write=False)
        DISTANCE.check("plate distance r", self.r)
        MIRROR_STRENGTH.check("mirror strength m", self.m)

    def signed_distance(self, x) -> np.ndarray:
        """Distance of x from the plate plane, positive inside the physical half-space."""
        return as_vec3(x) @ self.v + self.r

    def mirror(self, x) -> np.ndarray:
        """Mirror image of x with respect to the plate plane {x.v = -r}."""
        x = as_vec3(x)
        return x - 2.0 * self.signed_distance(x)[..., None] * self.v


@dataclass(frozen=True)
class Molecule:
    """Fixed nuclei (Born-Oppenheimer) plus an electron count.

    charges holds the atomic numbers Z_k, positions the nuclear coordinates y_k.
    """

    charges: np.ndarray
    positions: np.ndarray
    n_electrons: int

    def __post_init__(self):
        z = np.asarray(self.charges, dtype=float)
        y = as_vec3(self.positions)
        if y.ndim == 1:
            y = y[None, :]
        if z.ndim != 1 or y.shape != (z.size, 3):
            raise ValueError("need one 3-vector position per nuclear charge")
        if np.any(z <= 0) or np.any(z != np.round(z)):
            raise ValueError("nuclear charges must be positive integers")
        object.__setattr__(self, "charges", z)
        object.__setattr__(self, "positions", y)
        self.charges.setflags(write=False)
        self.positions.setflags(write=False)

    @classmethod
    def hydrogen(cls) -> "Molecule":
        return cls(np.array([1.0]), np.zeros((1, 3)), 1)

    @classmethod
    def helium(cls) -> "Molecule":
        return cls(np.array([2.0]), np.zeros((1, 3)), 2)

    @property
    def total_charge(self) -> float:
        return float(self.charges.sum())


@dataclass
class ValidationReport:
    """Outcome of validate_molecule: one entry per violated invariant."""

    violations: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_molecule(mol: Molecule, plate: PlateConfig | None = None) -> ValidationReport:
    """Check neutrality, charge centering, and (given a plate) the nuclei-side condition.

    Diagnostic only: returns a report, never raises.
    """
    report = ValidationReport()
    if mol.n_electrons != round(mol.total_charge):
        report.violations.append(
            f"not neutral: N = {mol.n_electrons} but sum of Z = {mol.total_charge:g}"
        )
    center = mol.charges @ mol.positions
    if np.linalg.norm(center) > CENTERING_TOL:
        report.violations.append(
            f"not centered: |sum Z_k y_k| = {np.linalg.norm(center):.3e} > {CENTERING_TOL}"
        )
    if plate is not None:
        dist = plate.signed_distance(mol.positions)
        bad = np.nonzero(dist <= 0)[0]
        for k in bad:
            report.violations.append(
                f"nucleus {k} violates the side condition: y.v = {mol.positions[k] @ plate.v:g} <= -r = {-plate.r:g}"
            )
    return report


@dataclass(frozen=True)
class TrapezoidCheck:
    lhs: float
    rhs: float
    holds: bool


def trapezoid_inequality(a: float, c: float, b: float) -> TrapezoidCheck:
    """Check 2/b <= 1/a + 1/c for an isosceles trapezoid.

    a and c are the parallel side lengths, b the diagonal.  Realizability
    requires b >= (a+c)/2 (the diagonal is the hypotenuse of a right triangle
    with leg (a+c)/2); equality in the inequality occurs exactly in the
    degenerate collinear case a = b = c.
    """
    if min(a, c, b) <= 0:
        raise ValueError("side and diagonal lengths must be positive")
    if b < (a + c) / 2.0 * (1.0 - 1e-12):
        raise ValueError(f"no isosceles trapezoid has diagonal {b} < (a+c)/2 = {(a + c) / 2}")
    lhs = 2.0 / b
    rhs = 1.0 / a + 1.0 / c
    return TrapezoidCheck(lhs, rhs, lhs <= rhs)


# ---------------------------------------------------------------------------
# Plain-text configuration files: `key = value` lines and `#` comments.
# ---------------------------------------------------------------------------

CONFIG_KEYS = {
    "r": float,
    "m": float,
    "h": float,
    "L_xi": float,
    "L_rho": float,
}


def parse_config(text: str) -> dict:
    """Typed values of the accepted keys; any other key raises ValueError."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key, rhs = key.strip(), rhs.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = CONFIG_KEYS[key](rhs)
    return values


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
