"""Half-space Hamiltonian discretizations, sparse lowest-eigenpair solves,
the Feshbach map, and localization utilities.

The axisymmetric hydrogen/plate problem is reduced to the (xi, rho) half-plane
(angular mode 0): nodes are cell-centered on both axes, with Dirichlet faces
at the plate xi = -r and at the outer truncation boundaries and the natural
axis condition at rho = 0.  Cell centering keeps the nucleus midway between
axial nodes and strictly off every node.  Operators are assembled in
symmetrized coordinates s = sqrt(volume weight) * u so the matrix is symmetric
under the plain dot product.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs, dsytrf, dsytrs

from .model import (DISTANCE, E_ELECTRON_PLATE, GRID_SPEC, LENGTH_1D, MIRROR_STRENGTH, Molecule,
                    PlateConfig)
from .multipole import HydrogenOrbital, smooth_step, smooth_step_derivative
from .potential import molecule_mirror_interaction
from .spectra import electron_plate_energy_deviation


class NonConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested tolerance."""

    def __init__(self, message, value=None, residual=None, iterations=None):
        super().__init__(message)
        self.value = value
        self.residual = residual
        self.iterations = iterations


class SingularBlockError(RuntimeError):
    """The projected block H_perp - lambda is singular or indefinite."""


class InertiaError(RuntimeError):
    """No shift below the spectrum is certified: the 1D search ends at the
    Gershgorin bound, or _ritz_shift finds no positive v or is refused."""


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (0, L) with Dirichlet boundaries at 0 and L.

    Interior nodes x_i = (i+1) h, i = 0..n-1, h = L/(n+1).  L must lie in
    the domain LENGTH_1D.
    """

    n: int
    L: float

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("at least 16 interior nodes required")
        LENGTH_1D.check("domain length L", self.L)

    @property
    def h(self) -> float:
        return self.L / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n) + 1.0) * self.h


@dataclass(frozen=True)
class GridCylSpec:
    """Resolution/extent parameters reused across a sweep (production defaults),
    each in the domain GRID_SPEC."""

    h_target: float = 0.1
    l_xi_plus: float = 28.0   # axial extent beyond the nucleus
    l_rho: float = 28.0       # radial extent

    def __post_init__(self):
        for name, value in vars(self).items():
            GRID_SPEC.check(f"grid {name}", value)


@dataclass(frozen=True)
class GridCyl:
    """Cell-centered axisymmetric grid for the hydrogen/plate problem.

    Axial nodes xi_i = -r + (i + 1/2) h_xi run from the plate face at -r to
    the outer face; radial nodes rho_j = (j + 1/2) h_rho start at the axis.
    r/h_xi is integral so the nucleus (xi=0, rho=0) sits midway between axial
    node columns and on no node.
    """

    r: float
    n_xi: int
    n_rho: int
    h_xi: float
    h_rho: float

    @classmethod
    def for_distance(cls, r: float, spec: GridCylSpec = GridCylSpec()) -> "GridCyl":
        """The grid of spec at r, which must lie in the domain DISTANCE and be
        at least h/2: below, the axial step r / n_left shrinks with r, and the
        grid grows as 1/r."""
        DISTANCE.check("plate distance r", r)
        if r < spec.h_target / 2:
            raise ValueError(f"plate distance must be at least h/2 = {spec.h_target / 2}, "
                             f"got {r}; lower --h for a closer plate")
        h_rho = spec.h_target
        n_left = max(1, round(r / spec.h_target))
        h_xi = r / n_left
        n_xi = n_left + max(1, round(spec.l_xi_plus / h_xi))
        n_rho = max(1, round(spec.l_rho / h_rho))
        return cls(r=r, n_xi=n_xi, n_rho=n_rho, h_xi=h_xi, h_rho=h_rho)

    def __post_init__(self):
        if min(self.n_xi, self.n_rho) < 4:
            raise ValueError("grid too small")
        dist = np.hypot(self.xi[np.argmin(np.abs(self.xi))], self.rho[0])
        if dist < 1e-9:
            raise ValueError("a grid node coincides with the nucleus")

    @property
    def xi(self) -> np.ndarray:
        return -self.r + (np.arange(self.n_xi) + 0.5) * self.h_xi

    @property
    def rho(self) -> np.ndarray:
        return (np.arange(self.n_rho) + 0.5) * self.h_rho

    @property
    def l_xi(self) -> float:
        return -self.r + self.n_xi * self.h_xi

    @property
    def l_rho(self) -> float:
        return self.n_rho * self.h_rho

    @property
    def size(self) -> int:
        return self.n_xi * self.n_rho

    def volume_weights(self) -> np.ndarray:
        """2 pi rho h_xi h_rho per node, flattened in (xi, rho) C order."""
        w = 2.0 * np.pi * self.rho * self.h_xi * self.h_rho
        return np.tile(w, (self.n_xi, 1)).ravel()

    def points(self) -> np.ndarray:
        """Nodes as 3D points (xi, rho, 0), flattened in (xi, rho) C order."""
        xi, rho = np.meshgrid(self.xi, self.rho, indexing="ij")
        return np.stack([xi, rho, np.zeros_like(xi)], axis=-1).reshape(-1, 3)

    def metadata(self) -> dict:
        return {k: getattr(self, k) for k in ("n_xi", "n_rho", "h_xi", "h_rho", "l_xi", "l_rho")}


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

class SparseSymOp:
    """Symmetric sparse Z-matrix in CSR form, the hypotheses of the M-matrix
    test (_m_matrix_certified) that every certified solve rests on.

    matrix is built by one sp.diags call from the diagonal and the upper
    bands, bands[k] = H[i, i + k] for k > 0, each mirrored to -k, so it is
    symmetric by construction; a non-finite entry, an offset <= 0 or a
    positive band entry raises ValueError.  set_diagonal keeps all that.
    row_entries = 2 x bands + 1 bounds the entries a row stores.  The
    off-diagonal |row sums| are summed from the bands once, when built;
    norm_estimate adds them to the diagonal's, and set_diagonal reuses them.
    guess, when given, is lowest_eigenpair's start vector (the 1s state, then
    the plate's Ritz vector in a W row), not orthogonal to the lowest one.
    """

    def __init__(self, diagonal: np.ndarray, bands: dict, guess: np.ndarray | None = None):
        if not all(np.all(np.isfinite(a)) for a in (diagonal, *bands.values())):
            raise ValueError("operator entries must be finite")
        if min(bands, default=1) <= 0:
            raise ValueError(f"band offsets must be positive, got {sorted(bands)}")
        if any(np.any(np.asarray(b) > 0.0) for b in bands.values()):
            raise ValueError("operator must be a Z-matrix, yet an off-diagonal is positive")
        ks = sorted([0, *bands, *(-k for k in bands)])
        self.matrix = sp.diags([bands[abs(k)] if k else diagonal for k in ks], ks, format="csr")
        self.row_entries = len(ks)
        self.guess = guess
        n = self.dim
        self._off_sums = np.zeros(n)
        for k, band in bands.items():     # H[i, i + k] and its mirror H[i + k, i]
            self._off_sums[:n - k] += np.abs(band)
            self._off_sums[k:] += np.abs(band)
        self._norm = self._row_sum_max(diagonal)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _row_sum_max(self, d) -> float:
        return float(np.max(np.abs(d) + self._off_sums))

    def set_diagonal(self, d: np.ndarray) -> None:
        """Write d over the matrix's diagonal in place, on its own indptr and
        indices.  Symmetry and the Z sign pattern live in the bands, checked
        when built, so only d's finiteness is checked; the off-diagonal row
        sums are reused for the norm."""
        if not np.all(np.isfinite(d)):
            raise ValueError("operator entries must be finite")
        self.matrix.setdiag(d)
        self._norm = self._row_sum_max(d)

    def norm_estimate(self) -> float:
        """Row-sum (infinity norm) bound on ||H||: max_i |H_ii| + the
        off-diagonal |row sum| of row i, computed when the diagonal was last
        written (when built, or by set_diagonal).  It sums in another order
        than abs(matrix).sum(axis=1), so the two agree to a few ulp, not
        always to the bit."""
        return self._norm


def assemble_1d_operator(grid: Grid1D, potential: np.ndarray | None = None) -> SparseSymOp:
    """Tridiagonal -d^2/dx^2 + diag(potential) with Dirichlet ends."""
    n, h = grid.n, grid.h
    v = np.zeros(n) if potential is None else np.asarray(potential, dtype=float)
    main = np.full(n, 2.0) / h ** 2 + v
    return SparseSymOp(main, {1: np.full(n - 1, -1.0) / h ** 2})


def assemble_1d_electron_plate(grid: Grid1D) -> SparseSymOp:
    """-d^2/dx^2 - 1/(4x) on (0, L): one electron against its plate image."""
    return assemble_1d_operator(grid, -1.0 / (4.0 * grid.nodes))


def coulomb_cell_average(xi, rho, h_xi: float, h_rho: float):
    """Exact volume average of -1/|x| over the cell around each (xi, rho) node.

    Uses the closed forms int rho'/|x| drho' = sqrt(xi^2 + rho'^2) and
    int sqrt(xi^2 + c^2) dxi = (xi sqrt(xi^2+c^2) + c^2 asinh(xi/c))/2.
    """
    def anti(x, c):
        out = 0.5 * x * np.hypot(x, c)
        pos = c > 0
        safe = np.where(pos, c, 1.0)
        out = out + np.where(pos, 0.5 * c ** 2 * np.arcsinh(x / safe), 0.0)
        return out

    xa, xb = xi - h_xi / 2.0, xi + h_xi / 2.0
    ra = np.clip(rho - h_rho / 2.0, 0.0, None)
    rb = rho + h_rho / 2.0
    num = anti(xb, rb) - anti(xa, rb) - anti(xb, ra) + anti(xa, ra)
    vol = 0.5 * (rb ** 2 - ra ** 2) * h_xi
    return -num / vol


def _cell_stencil(h: float, w_faces: np.ndarray, w_nodes: np.ndarray):
    """(main, off) diagonals of -(1/w) d/dx (w d/dx) on cells of width h, in sqrt(w) u.

    w_faces holds the weight at the n + 1 cell faces, w_nodes at the n nodes.
    Both end faces are Dirichlet by ghost reflection; a face of weight 0 (the
    axis) adds nothing.
    """
    main = (w_faces[:-1] + w_faces[1:]) / (w_nodes * h ** 2)
    main[[0, -1]] += w_faces[[0, -1]] / (w_nodes[[0, -1]] * h ** 2)
    off = -w_faces[1:-1] / (h ** 2 * np.sqrt(w_nodes[:-1] * w_nodes[1:]))
    return main, off


def _axis_stencils(grid: GridCyl) -> tuple:
    """(main, off) of the axial and of the radial cell stencil of grid, weights
    1 and rho: the kinetic operator is their Kronecker sum."""
    return (_cell_stencil(grid.h_xi, np.ones(grid.n_xi + 1), np.ones(grid.n_xi)),
            _cell_stencil(grid.h_rho, np.arange(grid.n_rho + 1) * grid.h_rho, grid.rho))


def assemble_hydrogen_plate(grid: GridCyl, ms) -> tuple:
    """Hydrogen/plate Hamiltonian on the axisymmetric grid at ms[0], and the
    diagonals of those at ms[1:], each m in MIRROR_STRENGTH.

    The Coulomb term is cell-averaged (point values converge below second
    order through the nuclear cusp); the smooth image term, half of
    molecule_mirror_interaction for hydrogen against the plate through -r e1,
    is evaluated at the nodes, one electron configuration per node, and
    skipped at m = 0, where it is zero.  The kinetic part, one cell stencil
    per axis (_axis_stencils), makes each operator five-diagonal, with upper
    bands at 1 and n_rho; the operator carries the 1s start vector.  Those
    at ms[1:] differ only in their diagonal (SparseSymOp.set_diagonal), so a
    W row, which asks for (m, 0.0), holds one operator and the free diagonal.
    """
    for m in ms:
        MIRROR_STRENGTH.check("mirror strength m", m)
    ax, rad = _axis_stencils(grid)
    kinetic = np.add.outer(ax[0], rad[0]).ravel()
    xi_off = np.repeat(ax[1], grid.n_rho)
    rho_off = np.tile(np.append(rad[1], 0.0), grid.n_xi)[:-1]  # 0 between xi rows

    pts = grid.points()
    coulomb = coulomb_cell_average(pts[:, 0], pts[:, 1], grid.h_xi, grid.h_rho)
    guess = HydrogenOrbital()(pts) * np.sqrt(grid.volume_weights())
    diagonals = []
    for m in ms:
        v = coulomb
        if m != 0.0:
            plate = PlateConfig(np.array([1.0, 0.0, 0.0]), grid.r, m)
            v = v + 0.5 * molecule_mirror_interaction(Molecule.hydrogen(), plate,
                                                      pts[:, None, :]).total
        diagonals.append(kinetic + v)
    return SparseSymOp(diagonals[0], {1: rho_off, grid.n_rho: xi_off}, guess), diagonals[1:]


# c of (K + c)^-1, which stands in for (H - E)^-1: in the ground state's tail
# V is small and -E near 1/4.  At r = 16 on the production grid, c = 0.1,
# 0.15, 0.2, 0.25, 0.3 took 13, 11, 10, 11, 12 applications (plate solve).
KINETIC_SHIFT = 0.2


def kinetic_preconditioner(grid: GridCyl):
    """r -> (K + KINETIC_SHIFT)^-1 r for every operator on grid, K = A_xi (x)
    I + I (x) A_rho the Kronecker sum of its axis stencils, which holds no m.
    Each A = Q diag(l) Q^T (eigh_tridiagonal), so r, an n_xi x n_rho array,
    goes through two dense products each way: the fast diagonalization
    method (Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185)."""
    (l_xi, q_xi), (l_rho, q_rho) = (eigh_tridiagonal(*axis) for axis in _axis_stencils(grid))
    scale = 1.0 / (np.add.outer(l_xi, l_rho) + KINETIC_SHIFT)

    def precondition(r):
        t = (q_xi.T @ r.reshape(scale.shape) @ q_rho) * scale
        return (q_xi @ t @ q_rho.T).ravel()

    return precondition


# ---------------------------------------------------------------------------
# Lowest eigenpair
# ---------------------------------------------------------------------------

@dataclass
class EigResult:
    """A certified lowest eigenpair: the lowest eigenvalue lies in [shift, value]."""

    value: float        # Rayleigh quotient of vector
    vector: np.ndarray  # unit; an entry <= 0 lies below its rounding (_ritz_shift)
    iterations: int     # Davidson's preconditioner applications (2D) or back-solves (1D)
    residual: float     # ||H vector - value vector||
    shift: float        # sigma the M-matrix test certified below the spectrum


# The OpenBLAS copies of the numpy and scipy wheels, each reached through an
# extension module that links it: (module, thread-count getter, setter).
_OPENBLAS_THREADS = (
    ("numpy.linalg._umath_linalg",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy.sparse.linalg._dsolve._superlu",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS copy found.

    Empty on other BLAS builds (MKL, Accelerate), which are left alone.
    """
    controls = []
    for module, getter, setter in _OPENBLAS_THREADS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get, set_ = getattr(lib, getter), getattr(lib, setter)
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return tuple(controls)


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or a no-op on other C libraries.

    malloc_trim(0) hands the malloc heap's free pages back to the system.
    A W row's assembly frees its temporaries (node points, Coulomb and image
    terms, MBs each on the production grid) into the heap, where they stay
    resident unless the next grid's arrays fit the holes; lowest_eigenpair
    trims at the start of every solve.  perfbench's peak_rss_mb, four runs
    each (2-core x86_64): production sweep (r = 10-16) 103.7-105.1 MB with
    the trim, 106.3-107.3 MB without; dielectric_ladder 68.2-68.8 and
    68.9-69.2 MB.  The trims take 6.7 and 3.4 ms of a sweep of each.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda pad: 0
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_settings_lock = threading.Lock()
_settings_users = 0         # blocks inside _solve_settings, in any thread
_settings_saved = []        # BLAS thread counts before the first entered


@contextlib.contextmanager
def _solve_settings():
    """Run the block with every OpenBLAS copy on one thread; restore the counts.

    Sweeps get their parallelism from worker processes, so BLAS threads on
    top of them only compete for the same cores.  Serial solves run on one
    thread too, so that results repeat to the bit: on OpenBLAS's default 2
    threads the production rows at r = 10-16 moved W by up to 1.1e-15 and
    were no faster (2-core x86_64 host).  The counts are process wide, and
    solves may overlap in threads (numpy's products release the GIL): the
    first to enter saves the counts, the last to leave restores them.  Workers
    forked inside this block inherit the count 1 and a nonzero
    _settings_users, so they never set a count, which in a forked child
    restarts OpenBLAS's server threads (each spins about 0.1 s).
    """
    global _settings_users, _settings_saved
    controls = _blas_thread_controls()
    with _settings_lock:
        if _settings_users == 0:
            _settings_saved = [get() for get, _ in controls]
            for _, set_threads in controls:
                set_threads(1)
        _settings_users += 1
    try:
        yield
    finally:
        with _settings_lock:
            _settings_users -= 1
            if _settings_users == 0:
                for (_, set_threads), count in zip(controls, _settings_saved):
                    set_threads(count)


def _rounding(op: SparseSymOp, v: np.ndarray, j: int) -> tuple:
    """(H v, |H| v, gamma_j = j eps / (1 - j eps)) of the M-matrix test.  No
    |H| is copied: |H| v = (|d| + d) v - H v, d the diagonal, as H's
    off-diagonal is <= 0."""
    eps, d, hv = np.finfo(float).eps, op.matrix.diagonal(), op.matrix @ v
    return hv, (np.abs(d) + d) * v - hv, j * eps / (1.0 - j * eps)


def _m_matrix_certified(op: SparseSymOp, sigma: float, v: np.ndarray) -> bool:
    """Whether H - sigma is proven positive definite by the positive vector v.

    H = op.matrix is a symmetric Z-matrix (SparseSymOp builds no other),
    and a Z-matrix A with A v > 0 for some v > 0 is a nonsingular M-matrix,
    hence positive definite (Berman & Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, Thm 6.2.3, condition I27).  The 1D solve passes
    its factor's probe (H - sigma)^-1 1, a 2D solve the v of _ritz_shift.
    The test asks that the computed H v - sigma v exceed gamma_{k+3} (|H| v
    + |sigma| v) in every entry, k = op.row_entries (_rounding), so it holds
    for H itself, not only for the rounded H - sigma.  False on a v with an
    entry <= 0 or NaN, or on a shift with eigenvalues below it.

    Rounding, v > 0: the computed left side is within gamma_{k+2} (|H| v +
    |sigma| v) of (H - sigma) v.  H v is within gamma_k |H| v of its value
    and (|d| + d) v <= 2 |H| v, so the computed |H| v is within gamma_{k+3}
    of |H| v, relative, and with the last four roundings the computed right
    side is at least gamma_{k+3} (1 - gamma_{k+8}) (|H| v + |sigma| v),
    which exceeds gamma_{k+2} (|H| v + |sigma| v): a passed test leaves
    (H - sigma) v > 0 in exact arithmetic.
    """
    if not np.all(v > 0.0):
        return False
    hv, abs_hv, gamma = _rounding(op, v, op.row_entries + 3)
    return bool(np.all(hv - sigma * v > gamma * (abs_hv + abs(sigma) * v)))


def _admitted_shift(op: SparseSymOp, v: np.ndarray) -> float:
    """The largest sigma _m_matrix_certified admits with v, four roundings
    stricter, or -inf for a v not > 0: min q / (1 +- gamma) by its sign, q =
    (H v - gamma_{k+7} |H| v) / v, Collatz's bound (Math. Z. 48 (1942) 221)."""
    if not np.all(v > 0.0):
        return -np.inf
    hv, abs_hv, gamma = _rounding(op, v, op.row_entries + 7)
    low = float(np.min((hv - gamma * abs_hv) / v))
    return low / (1.0 + gamma) if low > 0.0 else low / (1.0 - gamma)


def _ritz_shift(op: SparseSymOp, x: np.ndarray, error: float, w: np.ndarray) -> float:
    """The best _admitted_shift of v = x + delta w, confirmed by
    _m_matrix_certified: x the Ritz vector, error that of its H x - lam x.

    Where the ground state's tail falls below the rounding of x, x is noise
    of either sign; w > 0 with (H - sigma) w > 0 there lifts it, at a cost
    of delta (H w)_i / x_i near the peak of x.  delta climbs by 10 from
    error / ||w||_inf, at most 8 rungs, to the first fall (each (H v)_i / v_i
    is monotone in delta, so their minimum rises, then falls).  InertiaError
    if no v is positive (x is not the ground state's) or the test refuses."""
    delta, sigma, v = error / np.max(w), -np.inf, x
    for k in range(8):
        trial = x + delta * 10.0 ** k * w
        if (shift := _admitted_shift(op, trial)) < sigma:
            break
        sigma, v = shift, trial
    if sigma == -np.inf:
        raise InertiaError("no x + delta w is positive: the Ritz vector certifies no shift")
    if not _m_matrix_certified(op, sigma, v):
        raise InertiaError(f"the M-matrix test refuses the Ritz vector's shift {sigma!r}")
    return sigma


class _Factor:
    """A factor of an n x n H - sigma by SuperLU (shifted_factor), dpttrf
    (_tridiagonal_factor) or dsytrf (_dense_factor): solve maps a right-hand
    side through it, nnz is its fill, lu is the back end's own factor."""

    def __init__(self, solve, n: int, nnz: int, lu):
        self._solve, self.n, self.nnz, self.lu = solve, n, nnz, lu

    def solve(self, rhs):
        return self._solve(rhs)

    @functools.cached_property
    def probe(self) -> np.ndarray:
        """solve(1) in double, the v of _m_matrix_certified, solved once per factor."""
        return np.asarray(self.solve(np.ones(self.n)), dtype=float)


def _certified_factor(op: SparseSymOp, sigma: float, norm_est: float):
    """(factor, shift), the 1D solve's shift search: while _tridiagonal_factor
    finds no factor of H - sigma or _m_matrix_certified refuses its probe,
    sigma is lowered by a step that starts at |sigma| (1 at sigma = 0) and
    doubles, down to the Gershgorin bound -norm_est - 1, norm_est =
    ||H||_inf; InertiaError if that is refused."""
    floor, step = -norm_est - 1.0, abs(sigma) or 1.0
    while (lu := _tridiagonal_factor(op, sigma)) is None or not _m_matrix_certified(
            op, sigma, lu.probe):
        if sigma <= floor:
            raise InertiaError(f"the M-matrix test refuses the Gershgorin shift {sigma}")
        sigma, step = max(sigma - step, floor), 2.0 * step
    return lu, sigma


def shifted_factor(matrix, sigma: float):
    """Double factor of H - sigma and the number of eigenvalues of H below
    sigma, the Feshbach map's certificate on a sparse H (dense: _dense_factor).

    H is any symmetric sparse matrix; the count is read from the pivots
    alone.  SuperLU's symmetric mode pivots on the diagonal in a
    minimum-degree order of A^T + A, so P (H - sigma) P^T = L D L^T with
    diag(U) = D unless a zero diagonal pivot made the row and column orders
    differ (then InertiaError).  By Sylvester's law of inertia the negative
    entries of diag(U) count the eigenvalues below sigma.
    """
    n = matrix.shape[0]
    lu = spla.splu((matrix - sigma * sp.identity(n, format="csc")).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise InertiaError(f"off-diagonal pivots in the factor of H - {sigma}: no inertia")
    return _Factor(lu.solve, n, lu.nnz, lu), int(np.count_nonzero(lu.U.diagonal() < 0.0))


DAVIDSON_BASIS = 20     # basis vectors kept per solve, as many as ARPACK's ncv
DAVIDSON_MAX_SOLVES = 2000  # applications (2D) or back-solves (1D) before NonConvergenceError


def _non_convergence(lam, residual, bound, solves) -> NonConvergenceError:
    """A certified solve's residual still above bound = 64 eps ||H||_inf."""
    return NonConvergenceError(f"residual {residual:.3e} exceeds 64 eps ||H|| = {bound:.3e} "
                               f"after {solves} iterations",
                               value=lam, residual=residual, iterations=solves)


def lowest_eigenpair(op: SparseSymOp, precondition) -> EigResult:
    """Lowest eigenpair of a symmetric sparse Z-matrix by Davidson's method,
    certified by its own Ritz vector.

    precondition maps a residual r to about (H - lam)^-1 r; on a grid it is
    kinetic_preconditioner's.  The iteration (Davidson, J. Comput. Phys. 17
    (1975) 87; Morgan & Scott, SIAM J. Sci. Stat. Comput. 7 (1986) 817)
    takes the lowest Ritz pair (x, lam) of V^T H V, V orthonormal, and
    expands V by precondition(H x - lam x), orthogonalized twice.  It starts
    from op.guess or default_rng(0)'s vector, so results repeat to the bit,
    and stops at the first ||H x - lam x|| <= 64 eps ||H||_inf, unit x, or
    raises NonConvergenceError after DAVIDSON_MAX_SOLVES applications
    (iterations).  At most DAVIDSON_BASIS vectors are kept; a full basis
    restarts from x.  x, flipped to a positive sum, certifies the shift with
    w = precondition(1) > 0 (_ritz_shift; (K + c)^-1 of an M-matrix is
    positive), soundly whatever precondition does.  Trims the heap first.
    """
    h, n = op.matrix, op.dim
    with _solve_settings():
        _malloc_trim()(0)
        bound = 64.0 * np.finfo(float).eps * op.norm_estimate()
        basis = np.empty((min(DAVIDSON_BASIS, n), n))
        proj = np.empty((len(basis), len(basis)))     # V^T H V
        t = np.random.default_rng(0).standard_normal(n) if op.guess is None else op.guess
        k, applied = -1, 0          # k: index of the newest basis vector
        while True:
            q = basis[:k + 1]
            for _ in range(2):      # full reorthogonalization; twice is enough
                t = t - q.T @ (q @ t)
            k += 1
            basis[k] = t / np.linalg.norm(t)
            proj[:k + 1, k] = proj[k, :k + 1] = basis[:k + 1] @ (h @ basis[k])
            _, s = np.linalg.eigh(proj[:k + 1, :k + 1])
            x = s[:, 0] @ basis[:k + 1]
            x /= np.linalg.norm(x)
            hx = h @ x
            lam = float(x @ hx)
            r = hx - lam * x
            residual = float(np.linalg.norm(r))
            if residual <= bound:
                x = x if x.sum() > 0.0 else -x
                error = np.max(np.abs(r)) + bound / 64.0 * np.max(np.abs(x))  # + H x's rounding
                return EigResult(value=lam, vector=x, iterations=applied, residual=residual,
                                 shift=_ritz_shift(op, x, error, precondition(np.ones(n))))
            if applied == DAVIDSON_MAX_SOLVES:
                raise _non_convergence(lam, residual, bound, applied)
            t = precondition(r)
            applied += 1
            if k + 1 == len(basis):
                basis[0], proj[0, 0], k = x, lam, 0


# First 1D shift, 1e-3 relative below -1/64: certified at once for n = 32 ... 2^20, L = 1 ... 400
ELECTRON_PLATE_SHIFT = (1.0 + 1e-3) * E_ELECTRON_PLATE


def hydrogen_plate_ground(r: float, m: float = 1.0, spec: GridCylSpec = GridCylSpec()):
    """Assemble and solve E(r) on a fresh grid; returns (EigResult, GridCyl)."""
    grid = GridCyl.for_distance(r, spec)
    op = assemble_hydrogen_plate(grid, (m,))[0]
    return lowest_eigenpair(op, kinetic_preconditioner(grid)), grid


@dataclass
class ElectronPlateResult:
    """1D electron/plate ground-energy solve with Richardson acceleration."""

    value: float            # Richardson-extrapolated over the n and n//2 grids
    fine_value: float
    coarse_value: float
    deviation: float        # electron_plate_energy_deviation(value)
    residual: float         # ||A x - value x|| of the unit fine-grid vector


def _tridiagonal_factor(op: SparseSymOp, sigma: float) -> _Factor | None:
    """dpttrf's L D L^T factor of tridiagonal H - sigma, lu = (d, e), or None
    where a pivot fails.  H's CSR diagonals hold the arrays it was built
    from, to the bit, so dpttrf's input is theirs."""
    d, e, info = dpttrf(op.matrix.diagonal() - sigma, op.matrix.diagonal(1))
    if info:
        return None
    return _Factor(lambda rhs: dpttrs(d, e, rhs)[0], len(d), 2 * len(d) - 1, (d, e))


def _tridiagonal_ground(grid: Grid1D) -> EigResult:
    """Lowest eigenpair of the 1D electron/plate operator by inverse iteration
    from the probe of the factor _certified_factor finds from
    ELECTRON_PLATE_SHIFT down (_tridiagonal_factor).

    It stops as lowest_eigenpair does, at the first Rayleigh quotient with
    residual <= 64 eps ||H||_inf, or raises after DAVIDSON_MAX_SOLVES
    back-solves.  Davidson is kept for the 2D solves only: at n = 65536,
    L = 400 it takes 14.7 ms on the same dpttrf factor, inverse iteration
    6.9 ms (median of 7, 2-core x86_64).  Runs on one BLAS thread.
    """
    op = assemble_1d_electron_plate(grid)
    h, norm_est = op.matrix, op.norm_estimate()
    bound = 64.0 * np.finfo(float).eps * norm_est
    with _solve_settings():
        lu, sigma = _certified_factor(op, ELECTRON_PLATE_SHIFT, norm_est)
        x, solves = lu.probe, 0
        while True:
            x = x / np.linalg.norm(x)
            hx = h @ x
            lam = float(x @ hx)
            residual = float(np.linalg.norm(hx - lam * x))
            if residual <= bound:
                return EigResult(value=lam, vector=x, iterations=solves, residual=residual,
                                 shift=sigma)
            if solves == DAVIDSON_MAX_SOLVES:
                raise _non_convergence(lam, residual, bound, solves)
            x = lu.solve(x)
            solves += 1


def electron_plate_ground(n: int, L: float) -> ElectronPlateResult:
    """Ground energy of -d^2/dx^2 - 1/(4x), second order in h, Richardson-accelerated.

    Each grid is solved by _tridiagonal_ground.  The scheme converges cleanly
    at O(h^2); extrapolating over the n and n//2 grids removes the leading
    term and is reported alongside both raw values.  n >= 32 keeps the coarse
    grid at Grid1D's 16 nodes or more.
    """
    if n < 32:
        raise ValueError(f"need n >= 32 for the n//2 grid, got {n}")
    fine_grid, coarse_grid = Grid1D(n, L), Grid1D(n // 2, L)
    fine, coarse = (_tridiagonal_ground(g) for g in (fine_grid, coarse_grid))
    hf, hc = fine_grid.h, coarse_grid.h
    value = fine.value + (fine.value - coarse.value) * hf ** 2 / (hc ** 2 - hf ** 2)
    return ElectronPlateResult(
        value=value, fine_value=fine.value, coarse_value=coarse.value,
        deviation=electron_plate_energy_deviation(value), residual=fine.residual,
    )


# ---------------------------------------------------------------------------
# Feshbach map
# ---------------------------------------------------------------------------

def _as_basis(p, n: int) -> np.ndarray:
    b = np.asarray(p, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    if b.shape[0] != n:
        raise ValueError("projection basis does not match the operator dimension")
    gram = b.T @ b
    if not np.max(np.abs(gram - np.eye(b.shape[1]))) <= 1e-8:     # NaN fails too
        raise ValueError("projection basis must be orthonormal")
    return b


def feshbach_matrix(h, p, lam: float) -> np.ndarray:
    """Feshbach matrix on Ran P: B^T H B - B^T H Q (H_perp - lam)^{-1} Q H B.

    h is a symmetric matrix (dense or sparse); p an orthonormal basis of the
    projection range (n,) or (n, k).  By the
    block-inverse identity, (F - lam)^{-1} = S = B^T (H - lam)^{-1} B, so F
    comes from k back-solves with the one factor of H - lam (_dense_factor
    for a dense H, shifted_factor for a sparse one):
    S = V diag(w) V^T gives F = lam + V diag(1/w) V^T.  Haynsworth's inertia
    additivity In(H - lam) = In(H_perp - lam) + In(S) certifies the block:
    H_perp - lam is positive exactly when S has as many negative eigenvalues
    as H - lam (a zero eigenvalue of S, a singular block, leaves S with
    fewer, so the count also keeps 1/w finite).  A zero pivot in the factor
    (lam an eigenvalue of H to rounding) moves lam up by a rounding-level
    step.  Raises SingularBlockError when the count differs or no factor has
    an inertia.
    """
    mat = _as_operator(h)
    w, v, _, lam = _feshbach(mat, _as_basis(p, mat.shape[0]), lam)
    f = lam * np.eye(len(w)) + (v / w) @ v.T
    return 0.5 * (f + f.T)


def _as_operator(h):
    """A sparse H as CSC, the form SuperLU factors; any other H as a dense array."""
    return sp.csc_matrix(h, dtype=float) if sp.issparse(h) else np.asarray(h, dtype=float)


def _dense_factor(matrix: np.ndarray, sigma: float):
    """Bunch-Kaufman factor P (H - sigma) P^T = L D L^T of a dense symmetric
    H - sigma (LAPACK dsytrf, lower storage, lu = (ldu, ipiv)) and the
    number of eigenvalues of H below sigma, as shifted_factor.

    D is block diagonal: ipiv > 0 marks a 1x1 block, and the two rows of a
    2x2 block both carry ipiv < 0.  Bunch and Kaufman take a 2x2 pivot
    [[a, b], [b, c]] only when |a c| < alpha^2 b^2 (alpha^2 < 1), so each
    2x2 block has one negative eigenvalue, and Sylvester's law of inertia
    gives the count.  An exactly zero pivot (info > 0) raises RuntimeError,
    as SuperLU does on a singular factor.
    """
    n = matrix.shape[0]
    ldu, ipiv, info = dsytrf(matrix - sigma * np.eye(n), lower=1)
    if info > 0:
        raise RuntimeError(f"zero pivot {info} in the factor of H - {sigma}")
    one = ipiv > 0
    below = np.count_nonzero(ldu.diagonal()[one] < 0.0) + np.count_nonzero(~one) // 2
    factor = _Factor(lambda rhs: dsytrs(ldu, ipiv, rhs, lower=1)[0], n, n * (n + 1) // 2,
                     (ldu, ipiv))
    return factor, int(below)


def _feshbach(mat, b: np.ndarray, lam: float):
    """The certified eigenpairs (w, V) of S = B^T (H - lam)^{-1} B as in
    feshbach_matrix, the back-solves Y = (H - lam)^{-1} B, and the lam used,
    which a zero pivot moves.  mat is a CSC or a dense array (_as_operator)."""
    factor_of = shifted_factor if sp.issparse(mat) else _dense_factor
    try:
        lu, below = factor_of(mat, lam)
    except RuntimeError:            # InertiaError, or an exactly singular factor
        # a zero pivot.  F is smooth in lam below the complement spectrum, so
        # F(lam + step) is F(lam) to rounding, and a block certified positive
        # at lam + step is positive at lam.
        lam += 64.0 * np.finfo(float).eps * max(1.0, abs(lam), abs(mat).max())
        try:
            lu, below = factor_of(mat, lam)
        except RuntimeError as exc:
            raise SingularBlockError(f"no certified factor of H - {lam}: {exc}") from exc
    y = lu.solve(b)
    w, v = np.linalg.eigh(b.T @ y)
    negative = int(np.count_nonzero(w < 0.0))
    if negative != below:
        raise SingularBlockError(
            f"H_perp - lambda is not positive: B^T (H - lambda)^-1 B has "
            f"{negative} negative eigenvalues, H - lambda has {below}"
        )
    return w, v, y, lam


FIXED_POINT_TOL = 1e-12     # |g(lambda) - lambda| or Newton step that ends the search
FIXED_POINT_MAX_ITER = 200  # evaluations inside the bracket before NonConvergenceError


def feshbach_fixed_point(h, p, bracket) -> float:
    """Solve lambda = min eig F_P(lambda) by safeguarded Newton on the given bracket.

    g(lambda) = min eig F_P(lambda) decreases in lambda below the complement
    spectrum, so f(lambda) = g(lambda) - lambda crosses zero once.  Each
    evaluation is one certified factor of H - lambda (feshbach_matrix), whose
    back-solves Y = (H - lambda)^{-1} B also give the slope
    f' = -(g - lambda)^2 ||Y u||^2, u the lowest eigenvector of F_P: from
    (F - lambda)^{-1} = S = B^T Y and S' = Y^T Y.  F_P is not formed: with
    S = V diag(w) V^T, g = lambda + min 1/w_i and u is the matching column
    of V.  A sparse H is converted to CSC once per call, a dense H stays
    dense (feshbach_matrix).  After the two end
    evaluations and the sign check, the first iterate is the fixed-point
    probe lo + f(lo), which lands exactly when P spans an eigenspace (g
    constant); each later iterate is the Newton step from the last one, or
    the midpoint of the bracket when that step leaves it.  The search returns the last evaluated lambda once |f| <=
    FIXED_POINT_TOL or the next Newton step is no longer than
    FIXED_POINT_TOL; the step stop keeps iterates off the eigenvalue of H
    itself, where H - lambda is singular to rounding.  FIXED_POINT_MAX_ITER
    bounds the evaluations inside the bracket, the probe included.  Raises
    NonConvergenceError, carrying the last iterate (inside the bracket), when
    FIXED_POINT_MAX_ITER evaluations do not stop.
    """
    tol, max_iter = FIXED_POINT_TOL, FIXED_POINT_MAX_ITER
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    mat = _as_operator(h)
    b = _as_basis(p, mat.shape[0])

    def f_and_slope(lam):
        w, v, y, used = _feshbach(mat, b, lam)
        i = np.argmin(1.0 / w)
        gap = float(used + 1.0 / w[i] - lam)
        return gap, -gap ** 2 * float(np.sum((y @ v[:, i]) ** 2))

    f_lo = f_and_slope(lo)[0]
    if abs(f_lo) <= tol:
        return lo
    f_hi = f_and_slope(hi)[0]
    if abs(f_hi) <= tol:
        return hi
    if not (f_lo > 0.0 > f_hi):
        raise ValueError(
            f"g(lambda) - lambda does not change sign on the bracket "
            f"({f_lo:.3e} at {lo}, {f_hi:.3e} at {hi})"
        )

    nxt = lo + f_lo
    for _ in range(max_iter):
        lam = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        f, slope = f_and_slope(lam)
        if abs(f) <= tol:
            return lam
        if f > 0.0:
            lo = lam
        else:
            hi = lam
        step = -f / slope
        if abs(step) <= tol:
            return lam
        nxt = lam + step
    raise NonConvergenceError(
        f"Newton did not reach tol = {tol:.3e} within {max_iter} evaluations "
        f"(bracket width {hi - lo:.3e})",
        value=lam, iterations=max_iter,
    )


# ---------------------------------------------------------------------------
# IMS partition of unity
# ---------------------------------------------------------------------------

@dataclass
class PartitionOfUnity:
    """J1 (far region) and J2 (near region) built from two smooth ramps.

    Profiles are functions of s = |x|/r: c1 rises from 0 to 1 over
    [1/4, 2/7] and c2 falls from 1 to 0 over [2/7, 1/3], and J_i =
    c_i / sqrt(c1^2 + c2^2).  J1 vanishes for s <= 1/4 and is 1 for s >= 1/3,
    J2 is the complement, and J1^2 + J2^2 = 1 identically.  gradient_bound
    holds sup_x (|grad J1|^2 + |grad J2|^2) * r^2, which does not depend on r.
    """

    r: float
    gradient_bound: float = field(init=False)

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("r must be positive")
        self.gradient_bound = self._peak()

    @staticmethod
    @functools.cache
    def _peak() -> float:
        """sup_s of the squared gradient of profiles, once per process: the
        largest of 24001 samples, refined between its two neighbours."""
        # imported here: scipy.optimize would add 0.2 s to the package import
        from scipy.optimize import minimize_scalar
        profiles = PartitionOfUnity.profiles
        s = np.linspace(0.0, 0.6, 24001)
        i = int(np.argmax(profiles(s)[2]))
        peak = minimize_scalar(lambda t: -float(profiles(t)[2]), method="bounded",
                               bounds=(s[i - 1], s[i + 1]), options={"xatol": 1e-12})
        return float(-peak.fun)

    @staticmethod
    def profiles(s) -> tuple:
        """(J1, J2, (dJ1/ds)^2 + (dJ2/ds)^2) at s from one evaluation of the ramps.

        The squared gradient is ((c1' c2 - c1 c2') / (c1^2 + c2^2))^2.
        """
        s = np.asarray(s, dtype=float)
        w1, w2 = 2.0 / 7.0 - 0.25, 1.0 / 3.0 - 2.0 / 7.0     # ramp widths
        t1, t2 = (s - 0.25) / w1, (s - 2.0 / 7.0) / w2
        c1, c2 = smooth_step(t1), 1.0 - smooth_step(t2)
        d1, d2 = smooth_step_derivative(t1) / w1, -smooth_step_derivative(t2) / w2
        sq = c1 ** 2 + c2 ** 2
        norm = np.sqrt(sq)
        return c1 / norm, c2 / norm, ((d1 * c2 - c1 * d2) / sq) ** 2

    def _at(self, points) -> tuple:
        return self.profiles(np.linalg.norm(np.asarray(points, dtype=float), axis=-1) / self.r)

    def j1(self, points):
        return self._at(points)[0]

    def j2(self, points):
        return self._at(points)[1]

    def gradient_sq(self, points):
        """|grad J1|^2 + |grad J2|^2 at 3D points (radial profiles, chain rule)."""
        return self._at(points)[2] / self.r ** 2


def hardy_check(u: np.ndarray, grid: Grid1D) -> tuple:
    """Quadrature values (lhs, rhs) of the half-line Hardy inequality.

    lhs = int u^2/(4x^2), rhs = int u'^2 with the derivative taken as forward
    differences through the zero boundary values.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n,):
        raise ValueError("u must live on the interior nodes of the grid")
    h = grid.h
    lhs = float(np.sum(u ** 2 / (4.0 * grid.nodes ** 2)) * h)
    padded = np.concatenate([[0.0], u, [0.0]])
    rhs = float(np.sum(np.diff(padded) ** 2) / h)
    return lhs, rhs
