"""Wavefunctions, expectations of the mirror interaction against them, and the
orientation coefficient of the leading van der Waals term.

Quadrature conventions: every radial integral takes its rule from
HydrogenOrbital._pair_rule.  The unbounded tail of a density that decays
exponentially uses Gauss-Laguerre nodes (the weight matches the density); the
finite pieces, split at bump edges or window cuts, use Gauss-Legendre, so
masked integrands stay smooth.  The pieces sit at fixed fractions of a length
(r for the mirror expectation, cutoff_r for a lone cut-off orbital), so they
are tabulated in units of it once per layout and tuple of node counts.  A rule
is one flat (radius, weights) pair in (part, count) runs, reduced by one sum
or by one reduction per run.  Node counts are fixed, so runs are bitwise
reproducible.  Convergence is assessed by doubling: one call builds the rules
of both counts, each equal to the rule built for its count alone bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import (CUTOFF_SCALE, DISTANCE, MIRROR_SCALE, MIRROR_STRENGTH, ORBITAL_SCALE, as_vec3,
                    unit_vector)

RADIAL_NODES = 200
ANGULAR_NODES = 64
NORM_TOL = 1e-10
ORTHONORMAL_TOL = 1e-8
QUAD_TOL = 1e-9     # largest relative move of a quadrature under node doubling

# Both Gauss rules come from Golub-Welsch: the nodes are the eigenvalues of
# the Jacobi matrix of the weight, the weights mu_0 times the squared first
# components of its eigenvectors.  The tridiagonal eigensolve stays stable at
# node counts where the classical weight formulas overflow.


@lru_cache(maxsize=None)
def radial_laguerre_rule(n: int = RADIAL_NODES):
    """Nodes/weights for f -> int_0^inf f(t) e^{-t} dt."""
    nodes, vecs = eigh_tridiagonal(2.0 * np.arange(n) + 1.0,
                                   np.arange(1, n, dtype=float))
    return nodes, vecs[0, :] ** 2


@lru_cache(maxsize=None)
def angular_legendre_rule(n: int = ANGULAR_NODES):
    """Nodes/weights for f -> int_{-1}^{1} f(c) dc."""
    k = np.arange(1, n, dtype=float)
    nodes, vecs = eigh_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k ** 2 - 1.0))
    return nodes, 2.0 * vecs[0, :] ** 2


# ---------------------------------------------------------------------------
# Smooth cutoffs
# ---------------------------------------------------------------------------

def smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly monotone between.

    f = e^{-1/t} with t raised to at least 1e-300 is exactly 0 for t <= 0,
    as e^{-1e300} underflows to 0; g = e^{-1/(1-t)} likewise for t >= 1.
    """
    t = np.asarray(t, dtype=float)
    f = np.exp(-1.0 / np.maximum(t, 1e-300))
    g = np.exp(-1.0 / np.maximum(1.0 - t, 1e-300))
    return f / (f + g)


# e^{-1/t} underflows to 0 for t < 1/746, and so does the derivative of the
# step; clipping t to [STEP_EDGE, 1 - STEP_EDGE] keeps 1/t^2 finite there.
STEP_EDGE = 1e-3


def smooth_step_derivative(t):
    """d/dt smooth_step: f g (1/t^2 + 1/(1-t)^2)/(f + g)^2 on (0, 1), 0 elsewhere,
    with f = e^{-1/t} and g = e^{-1/(1-t)}."""
    t = np.clip(np.asarray(t, dtype=float), STEP_EDGE, 1.0 - STEP_EDGE)
    f, g = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
    return f * g * (1.0 / t ** 2 + 1.0 / (1.0 - t) ** 2) / (f + g) ** 2


def cutoff_profile(radius, r: float):
    """Spherical bump h_r: 1 on |x| <= r/5, 0 on |x| >= r/4, smooth between."""
    s = np.asarray(radius, dtype=float) / r
    return 1.0 - smooth_step((s - 0.2) / 0.05)


def cutoff_profile_derivative(radius, r: float):
    """d/dR of the bump h_r: nonzero only on r/5 < |x| < r/4."""
    s = np.asarray(radius, dtype=float) / r
    return -smooth_step_derivative((s - 0.2) / 0.05) / (0.05 * r)


# ---------------------------------------------------------------------------
# Radial tables in units of a length
# ---------------------------------------------------------------------------

class _PieceTable(NamedTuple):
    """The rules of a piece layout for a tuple of node counts, in units of a
    length L, read-only and shared by every call with the layout.  Row p
    holds the Gauss-Legendre nodes T of finite piece p for every count side
    by side; laguerre holds the joined Gauss-Laguerre nodes and weights of
    the tail, None when the support ends."""

    edges: tuple            # piece p spans [edges[p], edges[p + 1]]; the tail starts at edges[-1]
    nodes: np.ndarray       # (pieces, nodes) T
    squares: np.ndarray     # T^2
    base: np.ndarray        # half-width x Legendre weight x 4 pi
    weights: np.ndarray     # base x the bumps of the pair's cut-off orbitals
    laguerre: tuple | None
    runs: tuple             # nodes per (part, count) run: the pieces, then the tail


@lru_cache(maxsize=16)
def _piece_table(edges: tuple, ratios: tuple, counts: tuple) -> _PieceTable:
    """The table of a piece layout and a tuple of node counts.

    ratios holds cutoff_r / L for each cut-off orbital of a pair, so a self
    pair's bump enters squared; a pair with none has a tail.  A bump is
    evaluated once per distinct ratio, at every node (1.0 below ratio/5).
    """
    legendre_t, legendre_w = (np.concatenate(part) for part in
                              zip(*(angular_legendre_rule(n) for n in counts)))
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    nodes = half[:, None] * legendre_t + mid[:, None]
    base = half[:, None] * legendre_w * (4.0 * np.pi)
    bumps = math.prod(cutoff_profile(nodes, c) ** ratios.count(c) for c in sorted(set(ratios)))
    laguerre = None if ratios else tuple(
        np.concatenate(part) for part in zip(*(radial_laguerre_rule(n) for n in counts)))
    runs = counts * (len(edges) - 1 + (laguerre is not None))
    table = _PieceTable(edges, nodes, nodes * nodes, base, base * bumps, laguerre, runs)
    for array in [*table[1:5], *(laguerre or ())]:
        array.flags.writeable = False
    return table


class _RadialRule(NamedTuple):
    """A pair's rule for every count of a _pair_rule call, flat and in radii:
    the pieces' nodes row by row, then the tail's, in the runs of table.runs."""

    radius: np.ndarray
    squares: np.ndarray     # radius^2
    weights: np.ndarray
    counts: tuple
    table: _PieceTable

    def integral(self, fn=None) -> float:
        """sum(weights * fn(radius)), or sum(weights), for a call with one count."""
        return float(np.sum(self.weights if fn is None
                            else self.weights * np.asarray(fn(self.radius))))

    def power_sums(self) -> np.ndarray:
        """(counts, parts, 5): sum(weights * R^j), j = 0, 2, 4, 6, -1, per count
        and part (the finite pieces, then the tail)."""
        rows = np.empty((5, self.weights.size))
        rows[0] = self.weights
        for j in (1, 2, 3):         # the R^2 ladder
            np.multiply(rows[j - 1], self.squares, out=rows[j])
        np.divide(self.weights, self.radius, out=rows[4])
        sums = np.add.reduceat(rows, [*accumulate(self.table.runs[:-1], initial=0)], axis=1)
        return sums.T.reshape(-1, len(self.counts), 5).swapaxes(0, 1)


# ---------------------------------------------------------------------------
# Wavefunctions
# ---------------------------------------------------------------------------

class HydrogenOrbital:
    """Hydrogen-type s orbital: scale z gives z^{3/2} (8 pi)^{-1/2} e^{-z|x|/2},
    optionally multiplied by the smooth cutoff supported in |x| <= cutoff_r/4
    and renormalized.

    z must lie in the domain ORBITAL_SCALE and z * cutoff_r in CUTOFF_SCALE,
    and the cut-off orbital must have a finite positive norm, or ValueError is
    raised; beyond CUTOFF_SCALE the rule's fixed pieces miss the density.
    """

    n_electrons = 1

    def __init__(self, z: float = 1.0, cutoff_r: float | None = None):
        ORBITAL_SCALE.check("orbital scale z", z)
        if cutoff_r is not None:
            CUTOFF_SCALE.check(f"cut-off scale z * cutoff_r ({z} * {cutoff_r})", z * cutoff_r)
        self.z = float(z)
        self.cutoff_r = cutoff_r
        self._amp = self.z ** 1.5 / np.sqrt(8.0 * np.pi)
        self._norm = 1.0
        if cutoff_r is not None:
            norm = self.norm()
            if not 0 < norm < np.inf:
                raise ValueError(f"cutoff radius parameter {cutoff_r} gives the norm {norm}")
            self._norm /= norm

    @property
    def _scale(self) -> float:
        """The envelope's constant factor, the value below cutoff_r/5."""
        return self._norm * self._amp

    # radial profile ---------------------------------------------------------

    def _envelope_derivative(self, radius):
        """psi'(R) e^{+zR/2}: the scalar -z/2 times _scale for the plain orbital."""
        if self.cutoff_r is None:
            return -0.5 * self.z * self._scale
        h = cutoff_profile(radius, self.cutoff_r)
        dh = cutoff_profile_derivative(radius, self.cutoff_r)
        return self._scale * (dh - 0.5 * self.z * h)

    def radial_value(self, radius):
        """Wavefunction value at |x| = radius; no quadrature rule calls it."""
        radius = np.asarray(radius, dtype=float)
        bump = 1.0 if self.cutoff_r is None else cutoff_profile(radius, self.cutoff_r)
        return self._scale * bump * np.exp(-0.5 * self.z * radius)

    def __call__(self, points):
        return self.radial_value(np.linalg.norm(as_vec3(points), axis=-1))

    # quadrature -------------------------------------------------------------

    def _pair_rule(self, other: "HydrogenOrbital", counts, length=None, cuts=(),
                   density=None) -> _RadialRule:
        """The rule of 4 pi int_0^inf d(R) e^{-sR} f(R) R^2 dR, s = (za+zb)/2,
        for every node count in the tuple counts.

        d(R) is the pair's density with the exponential stripped: the product
        of the two envelopes, or density(R) when given.  [0, end of the joint
        support) is split at the cutoff-bump edges and at each cut inside it,
        cuts in units of length (by default the smaller cutoff_r, 1.0 for an
        uncut pair).  The finite pieces take Gauss-Legendre from _piece_table
        in units of length; a call scales each weight in the order of the
        product in radii (length, e^{-sR}, d(R), R^2).  An uncut pair's tail
        takes Gauss-Laguerre shifted to its start, in radii; without cuts it
        keeps the arithmetic of the rule in radii to the bit.  No node lies on
        a cut.
        The rule is flat, the pieces row by row and then the tail, in the
        (part, count) runs of table.runs; each count's runs equal the rule of
        a call with that count alone bit for bit.
        """
        s = 0.5 * (self.z + other.z)
        cutoffs = [orb.cutoff_r for orb in (self, other) if orb.cutoff_r is not None]
        if length is None:
            length = min(cutoffs, default=1.0)
        ratios = tuple(sorted(c / length for c in cutoffs))
        end = min((c / 4.0 for c in ratios), default=np.inf)
        splits = {c / 5.0 for c in ratios} | set(cuts)
        edges = (0.0, *sorted(b for b in splits if b < end), *([end] if ratios else []))
        table = _piece_table(edges, ratios, counts)
        radius = length * table.nodes
        squares = table.squares * (length * length)
        weights = (table.weights if density is None else table.base) * length
        weights *= np.exp(table.nodes * (-s * length))
        weights *= self._scale * other._scale if density is None else density(radius)
        weights *= squares
        flat = (radius.ravel(), squares.ravel(), weights.ravel())
        if table.laguerre is not None:
            laguerre_t, laguerre_w = table.laguerre
            start = length * edges[-1]
            tail = start + laguerre_t / s
            tail_squares = tail ** 2
            weights_t = laguerre_w * (4.0 * np.pi * np.exp(-s * start) / s)
            d = self._scale * other._scale if density is None else density(tail)
            flat = [np.concatenate(pair) for pair in
                    zip(flat, (tail, tail_squares, weights_t * d * tail_squares))]
        return _RadialRule(*flat, counts, table)

    def pair_integral(self, other: "HydrogenOrbital", fn) -> float:
        """4 pi int_0^inf psi_a psi_b f(R) R^2 dR."""
        return self._pair_rule(other, (RADIAL_NODES,)).integral(fn)

    def density_expectation(self, fn) -> float:
        """Expectation of f(R) against |psi|^2."""
        return self.pair_integral(self, fn)

    # moments and overlaps ----------------------------------------------------

    def overlap(self, other: "HydrogenOrbital") -> float:
        return self._pair_rule(other, (RADIAL_NODES,)).integral()

    def moment2(self, other: "HydrogenOrbital") -> np.ndarray:
        r2 = self.pair_integral(other, lambda R: R ** 2)
        return np.eye(3) * (r2 / 3.0)

    def norm(self) -> float:
        return float(np.sqrt(self.overlap(self)))

    def kinetic_energy(self) -> float:
        """<psi | -Laplacian | psi> by radial quadrature (s-wave form)."""
        return self._pair_rule(self, (RADIAL_NODES,),
                               density=lambda R: self._envelope_derivative(R) ** 2).integral()


class GridWaveFn:
    """Single-particle wavefunction sampled on quadrature points with weights."""

    n_electrons = 1

    def __init__(self, points, weights, values):
        self.points = as_vec3(points)
        self.weights = np.asarray(weights, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.points.ndim != 2 or self.weights.shape != (self.points.shape[0],) \
                or self.values.shape != self.weights.shape:
            raise ValueError("points (n,3), weights (n,), values (n,) must align")
        if not abs(self.norm() - 1.0) <= NORM_TOL:     # NaN fails too
            raise ValueError(f"grid wavefunction norm {self.norm()!r} is not 1; "
                             "use from_samples to normalize")

    @classmethod
    def from_samples(cls, points, weights, values) -> "GridWaveFn":
        """The samples at unit norm, divided by their largest |value| first so
        that no square overflows; ValueError if one is not finite or all are 0."""
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("grid wavefunction samples must be finite")
        peak = np.max(np.abs(values), initial=0.0)
        nrm = np.sqrt(np.sum(np.asarray(weights) * (values / peak) ** 2)) if peak > 0 else 0.0
        if nrm == 0:
            raise ValueError("cannot normalize the zero function")
        return cls(points, weights, values / peak / nrm)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.weights * self.values ** 2)))

    def _check_grid(self, other: "GridWaveFn"):
        if self.points.shape != other.points.shape or \
                not np.array_equal(self.points, other.points):
            raise ValueError("grid wavefunctions live on different point sets")

    def overlap(self, other: "GridWaveFn") -> float:
        self._check_grid(other)
        return float(np.sum(self.weights * self.values * other.values))

    def moment2(self, other: "GridWaveFn") -> np.ndarray:
        self._check_grid(other)
        wvv = self.weights * self.values * other.values
        return (self.points * wvv[:, None]).T @ self.points

    def rotated(self, rot) -> "GridWaveFn":
        """The rotated function psi(R^T x), sampled on the rotated point set."""
        rot = np.asarray(rot, dtype=float)
        return GridWaveFn(self.points @ rot.T, self.weights, self.values)


class ProductState:
    """Tensor product of hydrogen-like orbitals (symmetric spatial part)."""

    def __init__(self, orbitals):
        self.orbitals = tuple(orbitals)
        if not self.orbitals:
            raise ValueError("need at least one orbital")
        if not all(isinstance(orb, HydrogenOrbital) for orb in self.orbitals):
            raise ValueError("product state factors must be HydrogenOrbital")

    @property
    def n_electrons(self) -> int:
        return len(self.orbitals)

    def norm(self) -> float:
        return float(np.sqrt(self.overlap(self)))

    def _pairs(self, other: "ProductState"):
        if not isinstance(other, ProductState) or other.n_electrons != self.n_electrons:
            raise ValueError("product states must have matching electron counts")
        return list(zip(self.orbitals, other.orbitals))

    def overlap(self, other: "ProductState") -> float:
        out = 1.0
        for a, b in self._pairs(other):
            out *= a.overlap(b)
        return out

    def moment2(self, other: "ProductState") -> np.ndarray:
        """<psi_a | (sum_i x_i)(sum_i x_i)^T | psi_b>.

        The cross terms x_i x_j^T (i != j) carry the dipole moments
        <a_i | x | b_i>, which vanish between s orbitals, so only the
        one-electron second moments remain.
        """
        pairs = self._pairs(other)
        ovs = np.array([a.overlap(b) for a, b in pairs])
        out = np.zeros((3, 3))
        for i, (a, b) in enumerate(pairs):
            out += a.moment2(b) * float(np.prod(np.delete(ovs, i)))
        return out


@dataclass(frozen=True)
class GroundBasis:
    """Orthonormal wavefunctions spanning a ground-state eigenspace.

    second_moments is computed on first use and kept, as it does not depend
    on the direction v of orientation_coefficient.
    """

    functions: tuple

    def __post_init__(self):
        fns = tuple(self.functions)
        object.__setattr__(self, "functions", fns)
        n = len(fns)
        if n == 0:
            raise ValueError("empty basis")
        gram = np.array([[fns[a].overlap(fns[b]) for b in range(n)] for a in range(n)])
        dev = float(np.max(np.abs(gram - np.eye(n))))
        if not dev <= ORTHONORMAL_TOL:
            raise ValueError(f"basis not orthonormal: max |G - I| = {dev:.3e}")

    @cached_property
    def second_moments(self) -> np.ndarray:
        """T[a, b] = <psi_a | (sum x_i)(sum x_i)^T | psi_b> for a <= b, shape
        (n, n, 3, 3) and read-only; the entries below the diagonal are 0."""
        fns = self.functions
        n = len(fns)
        t = np.zeros((n, n, 3, 3))
        for a in range(n):
            for b in range(a, n):
                t[a, b] = fns[a].moment2(fns[b])
        t.flags.writeable = False
        return t


# ---------------------------------------------------------------------------
# Expectations and the leading interaction coefficient
# ---------------------------------------------------------------------------

class QuadratureError(RuntimeError):
    """Raised when doubling the node count moves a result beyond tolerance, or
    when a rule misses the mass of the density it integrates."""


@dataclass(frozen=True)
class MirrorEnergyExpectation:
    """Expectation of half the mirror interaction against a spherical orbital.

    value holds the even-series part through order r^-5,
    -m (<x1^2>/4r^3 + <x1^4>/4r^5).  The exact expectation lies between
    value + remainder_lo and value + remainder_hi, up to an exponentially
    small term when tail_mass > 0 (orbital not supported inside |x| <= r/4).
    newton_term is the electron/mirror-nucleus integral, exactly 1/r for
    densities supported inside |x| < 2r.
    """

    value: float
    newton_term: float
    remainder_lo: float
    remainder_hi: float
    tail_mass: float
    moment_x1_sq: float
    moment_x1_4: float
    moment_x1_6: float
    quad_error: float

    @property
    def bracket(self) -> tuple:
        return (self.value + self.remainder_lo, self.value + self.remainder_hi)


def mirror_energy_expectation(psi: HydrogenOrbital, r: float,
                              m: float = 1.0) -> MirrorEnergyExpectation:
    """Evaluate <psi | (m/2) * mirror interaction | psi> by radial quadrature.

    Uses Newton's theorem for the spherically symmetric electron/mirror-nucleus
    term.  The axial term 1/r - 1/(r + x1) expands in t = x1/r as the sum of
    -(1/r)(-t)^k over k = 1..5 plus the exact remainder -(1/r) t^6/(1 + t);
    odd powers integrate to zero against the spherical density.  The r^-7
    remainder is bracketed from the in-support sixth moment (1/(1 + t)
    between 4/5 and 4/3 there).
    One _pair_rule call in units of r, cut at r/4 and 2r (a cut beyond a
    cut-off support is dropped, so its tail_mass is exactly 0), gives the
    rules at RADIAL_NODES and twice that.  Every window is a run of parts of
    power_sums: m2 and m4 take all, m6 and the Newton mass those below r/4
    and 2r, the tail mass and the outer 1/R sum those above.  quad_error is
    the largest relative move between the rules; QuadratureError is raised
    where it exceeds QUAD_TOL or is NaN, and where the refined rule's mass
    misses 1 by more than QUAD_TOL, which doubling hardly moves.  r must lie
    in DISTANCE, m in MIRROR_STRENGTH and z * r in MIRROR_SCALE (beyond it the
    fixed pieces miss the density), or ValueError is raised.
    """
    DISTANCE.check("plate distance r", r)
    MIRROR_SCALE.check("mirror scale z * r", psi.z * r)
    MIRROR_STRENGTH.check("mirror strength m", m)

    rule = psi._pair_rule(psi, (RADIAL_NODES, 2 * RADIAL_NODES), length=r, cuts=(0.25, 2.0))
    i, j = (bisect_right(rule.table.edges, cut) - 1 for cut in (0.25, 2.0))
    moves = []
    for parts in rule.power_sums().tolist():
        mass, r2, r4, r6, inverse = zip(*parts)
        moves.append([sum(r2) / 3.0, sum(r4) / 5.0, sum(r6[:i], 0.0) / 7.0, sum(mass[i:], 0.0),
                      sum(mass[:j], 0.0) / r + 2.0 * sum(inverse[j:], 0.0)])
    base, refined = np.array(moves)
    quad_error = float(np.max(np.abs(refined - base) / np.maximum(np.abs(refined), 1.0)))
    if not quad_error <= QUAD_TOL:
        raise QuadratureError(
            f"radial quadrature not converged: doubling nodes moved results by {quad_error:.3e}"
        )
    total = sum(mass)       # the refined rule's, the last of the loop
    if not abs(total - 1.0) <= QUAD_TOL:
        raise QuadratureError(f"radial quadrature not resolved: the rule's mass is {total!r}")
    m2, m4, m6_in, tail, newton = refined.tolist()
    remainder = m6_in / r ** 7
    return MirrorEnergyExpectation(
        value=float(-m * (m2 / (4.0 * r ** 3) + m4 / (4.0 * r ** 5))),
        newton_term=newton,
        remainder_lo=float(-m * remainder / 3.0),
        remainder_hi=float(-m * remainder / 5.0),
        tail_mass=tail,
        moment_x1_sq=m2,
        moment_x1_4=m4,
        moment_x1_6=m6_in,
        quad_error=quad_error,
    )


def orientation_coefficient(basis: GroundBasis, v) -> float:
    """Largest eigenvalue of O_v = ((sum x_i . v)^2 + |sum x_i|^2)/16 on the basis.

    Entry (a, b) is (v.T.v + tr T)/16 for the second-moment matrix
    T = <psi_a | (sum x_i)(sum x_i)^T | psi_b>, basis.second_moments[a, b],
    whose quadratures run once per basis, not once per direction.  For the
    hydrogen ground state the coefficient equals 1 for every direction.
    """
    v = unit_vector(v)
    moments = basis.second_moments
    n = len(moments)
    mat = np.empty((n, n))
    for a in range(n):
        for b in range(a, n):
            t = moments[a, b]
            mat[a, b] = mat[b, a] = (float(v @ t @ v) + float(np.trace(t))) / 16.0
    top = float(np.linalg.eigvalsh(mat)[-1])
    if top <= 0:
        raise ValueError("orientation coefficient must be positive")
    return top
