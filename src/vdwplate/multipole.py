"""Series expansions of the mirror interaction, wavefunction expectations, and
the orientation coefficient of the leading van der Waals term.

Quadrature conventions: radial integrals against exponentially decaying
densities use Gauss-Laguerre nodes (the weight matches the density); integrals
restricted to finite windows use Gauss-Legendre on the window so masked
integrands stay smooth.  Node counts are fixed so repeated runs are bitwise
reproducible; convergence is assessed by doubling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_legendre

from .model import Molecule, as_vec3, unit_vector, validate_molecule

RADIAL_NODES = 200
ANGULAR_NODES = 64
NORM_TOL = 1e-10
ORTHONORMAL_TOL = 1e-8

_laggauss_cache: dict = {}
_leggauss_cache: dict = {}


def radial_laguerre_rule(n: int = RADIAL_NODES):
    """Nodes/weights for f -> int_0^inf f(t) e^{-t} dt.

    Golub-Welsch on the Laguerre Jacobi matrix; stable at node counts where
    the classical weight formulas overflow.
    """
    if n not in _laggauss_cache:
        nodes, vecs = eigh_tridiagonal(2.0 * np.arange(n) + 1.0,
                                       np.arange(1, n, dtype=float))
        _laggauss_cache[n] = (nodes, vecs[0, :] ** 2)
    return _laggauss_cache[n]


def angular_legendre_rule(n: int = ANGULAR_NODES):
    """Nodes/weights for f -> int_{-1}^{1} f(c) dc."""
    if n not in _leggauss_cache:
        _leggauss_cache[n] = leggauss(n)
    return _leggauss_cache[n]


# ---------------------------------------------------------------------------
# Smooth cutoffs
# ---------------------------------------------------------------------------

def smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly monotone between."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.where(t > 0.0, np.exp(-1.0 / np.clip(t, 1e-300, None)), 0.0)
        g = np.where(t < 1.0, np.exp(-1.0 / np.clip(1.0 - t, 1e-300, None)), 0.0)
    return f / (f + g)


def cutoff_profile(radius, r: float):
    """Spherical bump h_r: 1 on |x| <= r/5, 0 on |x| >= r/4, smooth between."""
    s = np.asarray(radius, dtype=float) / r
    return 1.0 - smooth_step((s - 0.2) / 0.05)


def cutoff_profile_derivative(radius, r: float, step: float = 1e-6):
    """d/dR of the bump, by central differences on the smooth profile."""
    radius = np.asarray(radius, dtype=float)
    lo = np.clip(radius - step, 0.0, None)
    return (cutoff_profile(radius + step, r) - cutoff_profile(lo, r)) / (radius + step - lo)


# ---------------------------------------------------------------------------
# Wavefunctions
# ---------------------------------------------------------------------------

class HydrogenOrbital:
    """Hydrogen-type s orbital: scale z gives z^{3/2} (8 pi)^{-1/2} e^{-z|x|/2},
    optionally multiplied by the smooth cutoff supported in |x| <= cutoff_r/4
    and renormalized.
    """

    n_electrons = 1

    def __init__(self, z: float = 1.0, cutoff_r: float | None = None,
                 n_radial: int = RADIAL_NODES):
        if not z > 0:
            raise ValueError("orbital scale must be positive")
        if cutoff_r is not None and not cutoff_r > 0:
            raise ValueError("cutoff radius parameter must be positive")
        self.z = float(z)
        self.cutoff_r = cutoff_r
        self.n_radial = int(n_radial)
        self._amp = self.z ** 1.5 / np.sqrt(8.0 * np.pi)
        if cutoff_r is None:
            self._norm = 1.0
        else:
            self._norm = 1.0
            self._norm = 1.0 / np.sqrt(self.pair_integral(self, lambda R: 1.0))

    # radial profile ---------------------------------------------------------

    def _envelope(self, radius):
        """Profile with the exponential stripped: psi(R) * e^{+zR/2}."""
        radius = np.asarray(radius, dtype=float)
        env = np.full_like(radius, self._norm * self._amp)
        if self.cutoff_r is not None:
            env = env * cutoff_profile(radius, self.cutoff_r)
        return env

    def _envelope_derivative(self, radius):
        """d/dR of psi(R) with the exponential stripped: (psi' e^{+zR/2})."""
        radius = np.asarray(radius, dtype=float)
        base = np.full_like(radius, self._norm * self._amp)
        if self.cutoff_r is None:
            return -0.5 * self.z * base
        h = cutoff_profile(radius, self.cutoff_r)
        dh = cutoff_profile_derivative(radius, self.cutoff_r)
        return base * (dh - 0.5 * self.z * h)

    def radial_value(self, radius):
        """Wavefunction value at |x| = radius."""
        radius = np.asarray(radius, dtype=float)
        return self._envelope(radius) * np.exp(-0.5 * self.z * radius)

    def __call__(self, points):
        return self.radial_value(np.linalg.norm(as_vec3(points), axis=-1))

    # quadrature -------------------------------------------------------------

    def _breakpoints(self, other: "HydrogenOrbital"):
        """Cutoff-bump edges of the pair, and the end of the joint support."""
        cuts = [orb.cutoff_r for orb in (self, other) if orb.cutoff_r is not None]
        if not cuts:
            return [], None
        end = min(c / 4.0 for c in cuts)
        return sorted({c / 5.0 for c in cuts if c / 5.0 < end}), end

    def _pair_quadrature(self, other: "HydrogenOrbital", factor_a, factor_b, fn,
                         n: int, lo: float = 0.0, hi: float | None = None) -> float:
        """4 pi int_lo^hi a(R) b(R) e^{-sR} f(R) R^2 dR, s = (za+zb)/2.

        Uncut pairs on the unbounded range use the global Gauss-Laguerre rule
        (exact for polynomial f); finite ranges and cutoff pairs are split at
        the bump edges and handled by Gauss-Legendre per smooth segment.
        """
        s = 0.5 * (self.z + other.z)
        breaks, end = self._breakpoints(other)
        if end is not None:
            hi = end if hi is None else min(hi, end)
        if hi is None:
            # tail (or full range) of an uncut pair: shifted Gauss-Laguerre
            t, w = radial_laguerre_rule(n)
            radius = lo + t / s
            vals = factor_a(radius) * factor_b(radius) * np.asarray(fn(radius))
            return float(np.exp(-s * lo) * np.sum(w * 4.0 * np.pi * vals * radius ** 2) / s)
        if hi <= lo:
            return 0.0
        edges = [lo] + [b for b in breaks if lo < b < hi] + [hi]
        c_nodes, c_weights = angular_legendre_rule(n)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            radius = 0.5 * (b - a) * c_nodes + 0.5 * (b + a)
            vals = (factor_a(radius) * factor_b(radius) * np.exp(-s * radius)
                    * np.asarray(fn(radius)) * radius ** 2)
            total += 0.5 * (b - a) * float(np.sum(c_weights * 4.0 * np.pi * vals))
        return total

    def pair_integral(self, other: "HydrogenOrbital", fn, n_radial: int | None = None,
                      lo: float = 0.0, hi: float | None = None) -> float:
        """4 pi int_lo^hi psi_a psi_b f(R) R^2 dR (hi = None: no upper limit)."""
        n = n_radial or max(self.n_radial, other.n_radial)
        return self._pair_quadrature(other, self._envelope, other._envelope, fn,
                                     n, lo=lo, hi=hi)

    def density_expectation(self, fn, n_radial: int | None = None) -> float:
        """Expectation of f(R) against |psi|^2."""
        return self.pair_integral(self, fn, n_radial)

    # moments and overlaps ----------------------------------------------------

    def axis_moment(self, k: int, n_radial: int | None = None) -> float:
        """<x1^k>: radial moment times the angular factor 1/(k+1); 0 for odd k."""
        if k % 2 == 1:
            return 0.0
        return self.density_expectation(lambda R: R ** k, n_radial) / (k + 1.0)

    def overlap(self, other) -> float:
        if isinstance(other, HydrogenOrbital):
            return self.pair_integral(other, lambda R: np.ones_like(R))
        return other.overlap(self)

    def moment1(self, other) -> np.ndarray:
        if isinstance(other, HydrogenOrbital):
            return np.zeros(3)
        return other.moment1(self)

    def moment2(self, other) -> np.ndarray:
        if isinstance(other, HydrogenOrbital):
            r2 = self.pair_integral(other, lambda R: R ** 2)
            return np.eye(3) * (r2 / 3.0)
        return other.moment2(self)

    def norm(self) -> float:
        return float(np.sqrt(self.pair_integral(self, lambda R: np.ones_like(R))))

    def kinetic_energy(self, n_radial: int | None = None) -> float:
        """<psi | -Laplacian | psi> by radial quadrature (s-wave form)."""
        n = n_radial or self.n_radial
        return self._pair_quadrature(self, self._envelope_derivative,
                                     self._envelope_derivative,
                                     lambda radius: np.ones_like(radius), n)

    def hydrogen_energy(self, n_radial: int | None = None) -> float:
        """<psi | -Laplacian - 1/|x| | psi> by radial quadrature (s-wave form)."""
        attraction = -self.density_expectation(lambda radius: 1.0 / radius, n_radial)
        return float(self.kinetic_energy(n_radial) + attraction)

    def distance_l2(self, other: "HydrogenOrbital") -> float:
        """L2 distance ||psi_a - psi_b||."""
        sq = (self.pair_integral(self, lambda R: np.ones_like(R))
              + other.pair_integral(other, lambda R: np.ones_like(R))
              - 2.0 * self.overlap(other))
        return float(np.sqrt(max(sq, 0.0)))


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
        if abs(self.norm() - 1.0) > NORM_TOL:
            raise ValueError(f"grid wavefunction norm {self.norm()!r} is not 1; "
                             "use from_samples to normalize")

    @classmethod
    def from_samples(cls, points, weights, values) -> "GridWaveFn":
        values = np.asarray(values, dtype=float)
        nrm = np.sqrt(np.sum(np.asarray(weights) * values ** 2))
        if nrm == 0:
            raise ValueError("cannot normalize the zero function")
        return cls(points, weights, values / nrm)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.weights * self.values ** 2)))

    def _check_grid(self, other: "GridWaveFn"):
        if self.points.shape != other.points.shape or \
                not np.array_equal(self.points, other.points):
            raise ValueError("grid wavefunctions live on different point sets")

    def overlap(self, other: "GridWaveFn") -> float:
        self._check_grid(other)
        return float(np.sum(self.weights * self.values * other.values))

    def moment1(self, other: "GridWaveFn") -> np.ndarray:
        self._check_grid(other)
        return (self.weights * self.values * other.values) @ self.points

    def moment2(self, other: "GridWaveFn") -> np.ndarray:
        self._check_grid(other)
        wvv = self.weights * self.values * other.values
        return (self.points * wvv[:, None]).T @ self.points

    def rotated(self, rot) -> "GridWaveFn":
        """The rotated function psi(R^T x), sampled on the rotated point set."""
        rot = np.asarray(rot, dtype=float)
        return GridWaveFn(self.points @ rot.T, self.weights, self.values)


class ProductState:
    """Tensor product of single-particle wavefunctions (symmetric spatial part)."""

    def __init__(self, orbitals):
        self.orbitals = tuple(orbitals)
        if not self.orbitals:
            raise ValueError("need at least one orbital")

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

    def moment1(self, other: "ProductState") -> np.ndarray:
        pairs = self._pairs(other)
        ovs = np.array([a.overlap(b) for a, b in pairs])
        out = np.zeros(3)
        for i, (a, b) in enumerate(pairs):
            out += a.moment1(b) * float(np.prod(np.delete(ovs, i)))
        return out

    def moment2(self, other: "ProductState") -> np.ndarray:
        """<psi_a | (sum_i x_i)(sum_i x_i)^T | psi_b>."""
        pairs = self._pairs(other)
        ovs = np.array([a.overlap(b) for a, b in pairs])
        m1 = [a.moment1(b) for a, b in pairs]
        out = np.zeros((3, 3))
        n = len(pairs)
        for i, (a, b) in enumerate(pairs):
            out += a.moment2(b) * float(np.prod(np.delete(ovs, i)))
        for i in range(n):
            for j in range(n):
                if i != j:
                    rest = float(np.prod(np.delete(ovs, [i, j])))
                    out += np.outer(m1[i], m1[j]) * rest
        return out


@dataclass(frozen=True)
class GroundBasis:
    """Orthonormal wavefunctions spanning a ground-state eigenspace."""

    functions: tuple

    def __post_init__(self):
        fns = tuple(self.functions)
        object.__setattr__(self, "functions", fns)
        n = len(fns)
        if n == 0:
            raise ValueError("empty basis")
        gram = np.array([[fns[a].overlap(fns[b]) for b in range(n)] for a in range(n)])
        dev = float(np.max(np.abs(gram - np.eye(n))))
        if dev > ORTHONORMAL_TOL:
            raise ValueError(f"basis not orthonormal: max |G - I| = {dev:.3e}")

    def __len__(self) -> int:
        return len(self.functions)


# ---------------------------------------------------------------------------
# Inverse-distance multipole expansion
# ---------------------------------------------------------------------------

SERIES_VALIDITY_FACTOR = 5.0 / 3.0


@dataclass(frozen=True)
class SeriesEval:
    """Truncated expansion of 1/|2 r v + z| together with the exact kernel."""

    terms: np.ndarray       # term k carries r^{-(k+1)}, k = 0..order
    partial_sum: float
    exact: float

    @property
    def remainder(self) -> float:
        return self.exact - self.partial_sum


def inverse_distance_series(z, v, r: float, order: int) -> SeriesEval:
    """Expand 1/|2 r v + z| in powers of 1/r up to z-degree `order`.

    The degree-k term is (-1)^k |z|^k P_k(z.v/|z|) / (2r)^{k+1}; the first
    omitted term scales like r^{-(order+2)}.  Valid for |z| <= 5r/3.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if order < 0:
        raise ValueError("order must be >= 0")
    z = as_vec3(z)
    v = unit_vector(v)
    zn = float(np.linalg.norm(z))
    if zn > SERIES_VALIDITY_FACTOR * r:
        raise ValueError("|z| outside the validity window |z| <= 5r/3")
    ks = np.arange(order + 1)
    if zn == 0.0:
        terms = np.zeros(order + 1)
        terms[0] = 1.0 / (2.0 * r)
    else:
        u = float(z @ v) / zn
        legendre = np.array([eval_legendre(int(k), u) for k in ks])
        terms = (-1.0) ** ks * zn ** ks * legendre / (2.0 * r) ** (ks + 1)
    exact = 1.0 / float(np.linalg.norm(2.0 * r * v + z))
    return SeriesEval(terms=terms, partial_sum=float(terms.sum()), exact=exact)


def r3_coefficient(z, v) -> float:
    """Coefficient of r^{-3} in the expansion: (3 (z.v)^2 - |z|^2)/16."""
    z, v = as_vec3(z), unit_vector(v)
    return (3.0 * float(z @ v) ** 2 - float(z @ z)) / 16.0


# ---------------------------------------------------------------------------
# Geometric split of the axial interaction kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricSplit:
    """Exact finite-geometric terms of 1/r - 1/(r + x1) plus closed-form remainder."""

    terms: np.ndarray
    remainder: float
    exact: float

    @property
    def total(self) -> float:
        return float(self.terms.sum() + self.remainder)


def geometric_tail_split(x1: float, r: float, order: int = 5) -> GeometricSplit:
    """Split 1/r - 1/(r+x1) into powers of x1/r with an exact remainder.

    term k is -(1/r)(-x1/r)^k for k = 1..order; the remainder is
    -(1/r)(-x1/r)^{order+1} / (1 + x1/r).  Valid for all x1 > -r; terms plus
    remainder reproduce the kernel to machine precision.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if x1 <= -r:
        raise ValueError("x1 must exceed -r")
    if not 1 <= order <= 5:
        raise ValueError("order must be between 1 and 5")
    t = x1 / r
    ks = np.arange(1, order + 1)
    terms = -((-t) ** ks) / r
    remainder = -((-t) ** (order + 1)) / (r * (1.0 + t))
    exact = 1.0 / r - 1.0 / (r + x1)
    return GeometricSplit(terms=terms, remainder=float(remainder), exact=exact)


# ---------------------------------------------------------------------------
# Leading interaction coefficient and expectations
# ---------------------------------------------------------------------------

def leading_interaction_coefficient(mol: Molecule, v, electrons) -> float:
    """r^3-scaled leading coefficient of half the mirror interaction.

    Equals -[(sum x_i . v)^2 + |sum x_i|^2]/16; requires a neutral, centered
    molecule (otherwise the 1/r and 1/r^2 terms do not cancel and r^-3 is not
    the leading order).
    """
    v = unit_vector(v)
    report = validate_molecule(mol)
    if not report.valid:
        raise ValueError(f"molecule invalid for the expansion: {report}")
    x = as_vec3(electrons)
    if x.ndim == 1:
        x = x[None, :]
    w = x.sum(axis=0)
    return -(float(w @ v) ** 2 + float(w @ w)) / 16.0


class QuadratureError(RuntimeError):
    """Raised when doubling the node count moves a result beyond tolerance."""


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


def mirror_energy_expectation(psi: HydrogenOrbital, r: float, m: float = 1.0,
                              quad_tol: float = 1e-9) -> MirrorEnergyExpectation:
    """Evaluate <psi | (m/2) * mirror interaction | psi> by radial quadrature.

    Uses Newton's theorem for the spherically symmetric electron/mirror-nucleus
    term and the geometric split for the axial term; odd powers integrate to
    zero against the spherical density.  The r^-7 remainder is bracketed from
    the in-support sixth moment (1/(1 + x1/r) between 4/5 and 4/3 there).
    """
    if not r > 0:
        raise ValueError("r must be positive")

    def pieces(n):
        ones = lambda R: np.ones_like(R)
        m2 = psi.density_expectation(lambda R: R ** 2, n) / 3.0
        m4 = psi.density_expectation(lambda R: R ** 4, n) / 5.0
        m6_in = psi.pair_integral(psi, lambda R: R ** 6, n, hi=r / 4.0) / 7.0
        tail = psi.pair_integral(psi, ones, n, lo=r / 4.0)
        total_mass = psi.pair_integral(psi, ones, n)
        mass_in_2r = total_mass - psi.pair_integral(psi, ones, n, lo=2.0 * r)
        newton = mass_in_2r / r + 2.0 * psi.pair_integral(psi, lambda R: 1.0 / R, n, lo=2.0 * r)
        return np.array([m2, m4, m6_in, tail, newton])

    base = pieces(psi.n_radial)
    refined = pieces(2 * psi.n_radial)
    quad_error = float(np.max(np.abs(refined - base) / np.maximum(np.abs(refined), 1.0)))
    if quad_error > max(quad_tol, 1e-15):
        raise QuadratureError(
            f"radial quadrature not converged: doubling nodes moved results by {quad_error:.3e}"
        )
    m2, m4, m6_in, tail, newton = refined
    value = -m * (m2 / (4.0 * r ** 3) + m4 / (4.0 * r ** 5))
    return MirrorEnergyExpectation(
        value=float(value),
        newton_term=float(newton),
        remainder_lo=float(-m * m6_in / (3.0 * r ** 7)),
        remainder_hi=float(-m * m6_in / (5.0 * r ** 7)),
        tail_mass=float(tail),
        moment_x1_sq=float(m2),
        moment_x1_4=float(m4),
        moment_x1_6=float(m6_in),
        quad_error=quad_error,
    )


def orientation_coefficient(basis: GroundBasis, v) -> float:
    """Largest eigenvalue of O_v = ((sum x_i . v)^2 + |sum x_i|^2)/16 on the basis.

    For the hydrogen ground state this equals 1 for every direction.
    """
    v = unit_vector(v)
    fns = basis.functions
    n = len(fns)
    mat = np.empty((n, n))
    for a in range(n):
        for b in range(a, n):
            t = fns[a].moment2(fns[b])
            mat[a, b] = mat[b, a] = (float(v @ t @ v) + float(np.trace(t))) / 16.0
    top = float(np.linalg.eigvalsh(mat)[-1])
    if top <= 0:
        raise ValueError("orientation coefficient must be positive")
    return top
