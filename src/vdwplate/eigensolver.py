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

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from .model import E_ELECTRON_PLATE
from .multipole import HydrogenOrbital, smooth_step
from .potential import hydrogen_image_bracket

SYMMETRY_TOL = 1e-12


class NonConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested tolerance."""

    def __init__(self, message, value=None, residual=None, iterations=None):
        super().__init__(message)
        self.value = value
        self.residual = residual
        self.iterations = iterations


class SingularBlockError(RuntimeError):
    """The projected block H_perp - lambda looks singular or indefinite."""


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (0, L) with Dirichlet boundaries at 0 and L.

    Interior nodes x_i = (i+1) h, i = 0..n-1, h = L/(n+1).
    """

    n: int
    L: float

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("at least 16 interior nodes required")
        if not self.L > 0:
            raise ValueError("domain length must be positive")

    @property
    def h(self) -> float:
        return self.L / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n) + 1.0) * self.h


@dataclass(frozen=True)
class GridCylSpec:
    """Resolution/extent parameters reused across a sweep (production defaults)."""

    h_target: float = 0.1
    l_xi_plus: float = 28.0   # axial extent beyond the nucleus
    l_rho: float = 28.0       # radial extent


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
        if not r > 0:
            raise ValueError("plate distance must be positive")
        n_left = max(1, round(r / spec.h_target))
        h_xi = r / n_left
        n_xi = n_left + max(1, round(spec.l_xi_plus / h_xi))
        h_rho = spec.h_target
        n_rho = max(1, round(spec.l_rho / h_rho))
        return cls(r=r, n_xi=n_xi, n_rho=n_rho, h_xi=h_xi, h_rho=h_rho)

    @classmethod
    def from_counts(cls, r: float, n_xi: int, n_rho: int,
                    l_xi: float, l_rho: float) -> "GridCyl":
        """Explicit node counts; l_xi is the outer axial coordinate (> 0)."""
        if r + l_xi <= 0 or l_rho <= 0:
            raise ValueError("axial and radial extents must be positive")
        return cls(r=r, n_xi=n_xi, n_rho=n_rho,
                   h_xi=(r + l_xi) / n_xi, h_rho=l_rho / n_rho)

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

    def meshes(self):
        return np.meshgrid(self.xi, self.rho, indexing="ij")

    def to_physical(self, s: np.ndarray) -> np.ndarray:
        """Map a symmetrized-coordinate vector to nodal u values (n_xi, n_rho)."""
        return (s / np.sqrt(self.volume_weights())).reshape(self.n_xi, self.n_rho)

    def embed_with_boundary(self, u: np.ndarray) -> np.ndarray:
        """Nodal values framed by the zero Dirichlet boundary layers."""
        out = np.zeros((self.n_xi + 2, self.n_rho + 1))
        out[1:-1, :-1] = u.reshape(self.n_xi, self.n_rho)
        return out

    def points(self) -> np.ndarray:
        """Nodes as 3D points (xi, rho, 0), flattened in (xi, rho) C order."""
        xi, rho = self.meshes()
        return np.stack([xi, rho, np.zeros_like(xi)], axis=-1).reshape(-1, 3)

    def sample_symmetrized(self, fn) -> np.ndarray:
        """Sample an axisymmetric function f(points3d) into symmetrized coordinates."""
        vals = np.asarray(fn(self.points()), dtype=float)
        return vals * np.sqrt(self.volume_weights())

    def metadata(self) -> dict:
        return {
            "n_xi": self.n_xi, "n_rho": self.n_rho,
            "h_xi": self.h_xi, "h_rho": self.h_rho,
            "l_xi": self.l_xi, "l_rho": self.l_rho,
        }


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

@dataclass
class SparseSymOp:
    """Symmetric sparse operator and the weights of its inner product.

    weights are the quadrature weights of the inner product in operator
    coordinates (all ones for symmetrized cylindrical operators, h for 1D).
    """

    matrix: sp.csr_matrix
    weights: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValueError("operator must be square")
        if not np.all(np.isfinite(m.data)):
            raise ValueError("operator entries must be finite")
        asym = abs(m - m.T)
        if asym.nnz and asym.max() > SYMMETRY_TOL * max(1.0, abs(m).max()):
            raise ValueError("operator is not symmetric")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm_estimate(self) -> float:
        """Row-sum (infinity norm) bound on ||H||."""
        return float(np.abs(self.matrix).sum(axis=1).max())


def assemble_1d_operator(grid: Grid1D, potential: np.ndarray | None = None) -> SparseSymOp:
    """Tridiagonal -d^2/dx^2 + diag(potential) with Dirichlet ends."""
    n, h = grid.n, grid.h
    v = np.zeros(n) if potential is None else np.asarray(potential, dtype=float)
    main = np.full(n, 2.0) / h ** 2 + v
    off = np.full(n - 1, -1.0) / h ** 2
    mat = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    return SparseSymOp(matrix=mat, weights=np.full(n, h))


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


def assemble_hydrogen_plate(grid: GridCyl, m: float = 1.0) -> SparseSymOp:
    """Hydrogen/plate Hamiltonian on the axisymmetric grid (m = 0 drops the plate).

    The Coulomb term is cell-averaged (point values converge below second
    order through the nuclear cusp); the smooth image bracket is evaluated at
    the nodes.  Dirichlet faces are imposed by ghost reflection.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError("mirror strength m must lie in [0, 1]")
    hx, hr = grid.h_xi, grid.h_rho
    rho = grid.rho

    d_main = np.full(grid.n_xi, 2.0) / hx ** 2
    d_main[0] += 1.0 / hx ** 2      # plate face at xi = -r
    d_main[-1] += 1.0 / hx ** 2     # outer axial face
    d_off = np.full(grid.n_xi - 1, -1.0) / hx ** 2
    ax = sp.diags([d_off, d_main, d_off], [-1, 0, 1])

    faces = np.arange(grid.n_rho + 1) * hr
    s_main = (faces[:-1] + faces[1:]) / (rho * hr ** 2)
    s_main[-1] += faces[-1] / (rho[-1] * hr ** 2)   # outer radial face
    s_off = -faces[1:-1] / (hr ** 2 * np.sqrt(rho[:-1] * rho[1:]))
    rad = sp.diags([s_off, s_main, s_off], [-1, 0, 1])

    xx, rr = grid.meshes()
    v = coulomb_cell_average(xx, rr, hx, hr).ravel()
    if m != 0.0:
        v = v + 0.5 * m * hydrogen_image_bracket(grid.points(), grid.r)

    mat = (sp.kron(ax, sp.identity(grid.n_rho))
           + sp.kron(sp.identity(grid.n_xi), rad)
           + sp.diags(v)).tocsr()
    return SparseSymOp(matrix=mat, weights=np.ones(grid.size))


# ---------------------------------------------------------------------------
# Lowest eigenpair
# ---------------------------------------------------------------------------

@dataclass
class EigResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    norm_estimate: float
    converged: bool = True


def lowest_eigenpair(op: SparseSymOp, sigma: float, tol: float = 1e-9,
                     max_iter: int | None = None, seed: int = 0) -> EigResult:
    """Lowest eigenpair of a symmetric sparse operator by shift-invert Lanczos.

    ARPACK iterates on (H - sigma)^{-1}, applied through a sparse LU
    factorization, from a seeded start vector.  sigma must lie below the
    spectrum, so the eigenvalue nearest sigma is the lowest.  iterations
    counts the back-solves; the eigenvector is normalized against op.weights.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    h = op.matrix
    n = op.dim
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    solves = 0
    maxiter = max_iter if max_iter is not None else max(2000, 10 * n)
    lu = spla.splu((h - sigma * sp.identity(n, format="csc")).tocsc())

    def back_solve(b):
        nonlocal solves
        solves += 1
        return lu.solve(b)

    op_inv = spla.LinearOperator(h.shape, matvec=back_solve, dtype=float)
    try:
        vals, vecs = spla.eigsh(h, k=1, sigma=sigma, which="LM", v0=v0,
                                tol=tol, maxiter=maxiter, OPinv=op_inv)
    except spla.ArpackNoConvergence as exc:
        best_val = float(exc.eigenvalues[0]) if len(exc.eigenvalues) else math.nan
        best_res = math.nan
        if len(exc.eigenvalues):
            x = exc.eigenvectors[:, 0]
            best_res = float(np.linalg.norm(h @ x - best_val * x))
        raise NonConvergenceError(
            f"eigensolver did not converge within {maxiter} iterations",
            value=best_val, residual=best_res, iterations=solves,
        ) from exc
    lam, x = float(vals[0]), vecs[:, 0]

    residual = float(np.linalg.norm(h @ x - lam * x))
    norm_est = op.norm_estimate()
    # tol = 0 follows the ARPACK convention: converge to machine precision
    tol_eff = tol if tol > 0 else 64.0 * np.finfo(float).eps
    if residual > tol_eff * norm_est:
        raise NonConvergenceError(
            f"residual {residual:.3e} exceeds tol * ||H|| = {tol_eff * norm_est:.3e}",
            value=lam, residual=residual, iterations=solves,
        )
    x = x / np.sqrt(np.sum(op.weights * x ** 2))
    return EigResult(value=lam, vector=x, iterations=solves,
                     residual=residual, norm_estimate=norm_est)


# Shift for hydrogen/plate shift-invert solves; the Hamiltonian is bounded
# below by -17/8 - 1/(4r), so -3 sits safely under the spectrum for r >= 1/2.
HYDROGEN_SHIFT = -3.0


def hydrogen_plate_ground(r: float, m: float = 1.0,
                          spec: GridCylSpec = GridCylSpec(),
                          tol: float = 0.0, seed: int = 0):
    """Assemble and solve E(r) on a fresh grid; returns (EigResult, GridCyl)."""
    grid = GridCyl.for_distance(r, spec)
    op = assemble_hydrogen_plate(grid, m)
    res = lowest_eigenpair(op, tol=tol, seed=seed, sigma=HYDROGEN_SHIFT)
    return res, grid


@dataclass
class ElectronPlateResult:
    """1D electron/plate ground-energy solve with Richardson acceleration."""

    value: float            # extrapolated when requested, else the fine value
    fine_value: float
    coarse_value: float | None
    extrapolated: float | None
    deviation: float        # |value - (-1/64)|
    residual: float         # ||A x - value x|| of the unit fine-grid vector


def _tridiagonal_ground(grid: Grid1D) -> tuple:
    """Lowest eigenvalue of the 1D electron/plate operator and its residual.

    Bisection (LAPACK stebz) isolates the eigenvalue and inverse iteration
    gives its vector; the value returned is the Rayleigh quotient of that
    vector, accurate to rounding where the bisection value is not.  The
    stemr driver is avoided because it allocates a dense n x n array.
    """
    a = assemble_1d_electron_plate(grid).matrix
    _, vecs = eigh_tridiagonal(a.diagonal(), a.diagonal(1),
                               select="i", select_range=(0, 0))
    x = vecs[:, 0]                  # unit 2-norm, as LAPACK stein returns it
    ax = a @ x
    lam = float(x @ ax)
    return lam, float(np.linalg.norm(ax - lam * x))


def electron_plate_ground(n: int, L: float, extrapolate: bool = True) -> ElectronPlateResult:
    """Ground energy of -d^2/dx^2 - 1/(4x), second order in h, Richardson-accelerated.

    Each grid is solved directly as a symmetric tridiagonal eigenproblem.  The
    scheme converges cleanly at O(h^2); extrapolating over the n and n//2
    grids removes the leading term and is reported alongside both raw values.
    """
    fine_grid = Grid1D(n, L)
    fine, residual = _tridiagonal_ground(fine_grid)
    coarse = extrap = None
    value = fine
    if extrapolate and n // 2 >= 16:
        coarse_grid = Grid1D(n // 2, L)
        coarse, _ = _tridiagonal_ground(coarse_grid)
        hf, hc = fine_grid.h, coarse_grid.h
        extrap = fine + (fine - coarse) * hf ** 2 / (hc ** 2 - hf ** 2)
        value = extrap
    return ElectronPlateResult(
        value=value, fine_value=fine, coarse_value=coarse, extrapolated=extrap,
        deviation=abs(value - E_ELECTRON_PLATE), residual=residual,
    )


# ---------------------------------------------------------------------------
# Feshbach map
# ---------------------------------------------------------------------------

def _as_matrix(h):
    if isinstance(h, SparseSymOp):
        return h.matrix
    if sp.issparse(h):
        return h.tocsr()
    return np.asarray(h, dtype=float)


def _as_basis(p, n: int) -> np.ndarray:
    b = np.asarray(p, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    if b.shape[0] != n:
        raise ValueError("projection basis does not match the operator dimension")
    gram = b.T @ b
    if np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-8:
        raise ValueError("projection basis must be orthonormal")
    return b


def _complement_min_eig_probe(h, b: np.ndarray, lam: float, steps: int = 30,
                              seed: int = 12345) -> float:
    """Lanczos estimate of the smallest eigenvalue of P_perp (H - lam) P_perp.

    Converges to the extreme Ritz value from above; serves as the positivity
    probe before forming the resolvent.
    """
    n = b.shape[0]
    rng = np.random.default_rng(seed)

    def deflate(x):
        return x - b @ (b.T @ x)

    def apply(x):
        x = deflate(x)
        return deflate(h @ x - lam * x)

    q = deflate(rng.standard_normal(n))
    q /= np.linalg.norm(q)
    alphas, betas = [], []
    q_prev = np.zeros(n)
    beta = 0.0
    for _ in range(min(steps, max(2, n - b.shape[1]))):
        w = apply(q)
        alpha = float(q @ w)
        w = w - alpha * q - beta * q_prev
        w = deflate(w)
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        betas.append(beta)
        if beta < 1e-13:
            break
        q_prev, q = q, w / beta
    t = np.diag(alphas)
    if len(alphas) > 1:
        off = np.array(betas[: len(alphas) - 1])
        t = t + np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(t)[0])


def feshbach_matrix(h, p, lam: float, probe: bool = True) -> np.ndarray:
    """Feshbach matrix on Ran P: B^T H B - B^T H Q (H_perp - lam)^{-1} Q H B.

    h is a symmetric operator (dense, sparse, or SparseSymOp); p an
    orthonormal basis of the projection range (n,) or (n, k).  Raises
    SingularBlockError when the positivity probe finds H_perp - lam
    non-positive.
    """
    mat = _as_matrix(h)
    n = mat.shape[0]
    b = _as_basis(p, n)
    k = b.shape[1]

    if probe:
        est = _complement_min_eig_probe(mat, b, lam)
        if est <= 0.0:
            raise SingularBlockError(
                f"H_perp - lambda is not positive (probe estimate {est:.3e})"
            )

    hb = mat @ b
    php = b.T @ hb
    c = hb - b @ (b.T @ hb)          # Q H B, orthogonal to Ran B

    if isinstance(mat, np.ndarray):
        bordered = np.zeros((n + k, n + k))
        bordered[:n, :n] = mat - lam * np.eye(n)
        bordered[:n, n:] = b
        bordered[n:, :n] = b.T
        rhs = np.vstack([c, np.zeros((k, k))])
        y = np.linalg.solve(bordered, rhs)[:n]
    else:
        bordered = sp.bmat([[mat - lam * sp.identity(n), sp.csc_matrix(b)],
                            [sp.csc_matrix(b.T), None]], format="csc")
        lu = spla.splu(bordered)
        y = np.column_stack([lu.solve(np.concatenate([c[:, j], np.zeros(k)]))[:n]
                             for j in range(k)])
    f = php - c.T @ y
    return 0.5 * (f + f.T)


def feshbach_fixed_point(h, p, bracket, tol: float = 1e-12,
                         max_iter: int = 200) -> float:
    """Solve lambda = min eig F_P(lambda) by bisection on the given bracket.

    g(lambda) = min eig F_P(lambda) decreases in lambda below the complement
    spectrum, so g(lambda) - lambda crosses zero once.  A fixed-point probe
    short-circuits the exact-projector case (g constant).  Raises
    NonConvergenceError, carrying the midpoint of the last bracket, when
    max_iter bisection steps do not reach tol.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")

    def g(lam):
        return float(np.linalg.eigvalsh(feshbach_matrix(h, p, lam))[0])

    f_lo = g(lo) - lo
    if abs(f_lo) <= tol:
        return lo
    f_hi = g(hi) - hi
    if abs(f_hi) <= tol:
        return hi
    if not (f_lo > 0.0 > f_hi):
        raise ValueError(
            f"g(lambda) - lambda does not change sign on the bracket "
            f"({f_lo:.3e} at {lo}, {f_hi:.3e} at {hi})"
        )

    # one fixed-point step lands exactly when P spans an eigenspace
    cand = lo + f_lo
    if lo < cand < hi:
        f_cand = g(cand) - cand
        if abs(f_cand) <= tol:
            return cand
        if f_cand > 0.0:
            lo = cand
        else:
            hi = cand

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = g(mid) - mid
        if abs(f_mid) <= tol or (hi - lo) <= tol:
            return mid
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    raise NonConvergenceError(
        f"bisection did not reach tol = {tol:.3e} within {max_iter} steps "
        f"(bracket width {hi - lo:.3e})",
        value=0.5 * (lo + hi), iterations=max_iter,
    )


# ---------------------------------------------------------------------------
# IMS partition of unity and cutoff states
# ---------------------------------------------------------------------------

def _chi1(s):
    return smooth_step((np.asarray(s, dtype=float) - 0.25) / (2.0 / 7.0 - 0.25))


def _chi2(s):
    return 1.0 - smooth_step((np.asarray(s, dtype=float) - 2.0 / 7.0) / (1.0 / 3.0 - 2.0 / 7.0))


@dataclass
class PartitionOfUnity:
    """J1 (far region) and J2 (near region) built from the two radial bumps.

    Profiles are functions of s = |x|/r; J1 vanishes for s <= 1/4 and is 1
    for s >= 1/3, J2 is the complement, and J1^2 + J2^2 = 1 identically.
    gradient_bound holds sup_x (|grad J1|^2 + |grad J2|^2) * r^2.
    """

    r: float
    gradient_bound: float = field(init=False)

    def __post_init__(self):
        s = np.linspace(0.0, 0.6, 24001)
        g = self.gradient_sq_profile(s)
        self.gradient_bound = float(np.max(g))

    def j1_profile(self, s):
        c1, c2 = _chi1(s), _chi2(s)
        return c1 / np.sqrt(c1 ** 2 + c2 ** 2)

    def j2_profile(self, s):
        c1, c2 = _chi1(s), _chi2(s)
        return c2 / np.sqrt(c1 ** 2 + c2 ** 2)

    def gradient_sq_profile(self, s, step: float = 1e-6):
        """(dJ1/ds)^2 + (dJ2/ds)^2 by central differences on the profiles."""
        s = np.asarray(s, dtype=float)
        lo = np.clip(s - step, 0.0, None)
        hi = s + step
        d1 = (self.j1_profile(hi) - self.j1_profile(lo)) / (hi - lo)
        d2 = (self.j2_profile(hi) - self.j2_profile(lo)) / (hi - lo)
        return d1 ** 2 + d2 ** 2

    def _s(self, points):
        pts = np.asarray(points, dtype=float)
        return np.linalg.norm(pts, axis=-1) / self.r

    def j1(self, points):
        return self.j1_profile(self._s(points))

    def j2(self, points):
        return self.j2_profile(self._s(points))

    def gradient_sq(self, points):
        """|grad J1|^2 + |grad J2|^2 at 3D points (radial profiles, chain rule)."""
        return self.gradient_sq_profile(self._s(points)) / self.r ** 2


def build_ims_partition(r: float) -> PartitionOfUnity:
    if not r > 0:
        raise ValueError("r must be positive")
    return PartitionOfUnity(r=r)


def cutoff_ground_state(r: float) -> HydrogenOrbital:
    """Hydrogen ground state cut off smoothly inside |x| <= r/4 and renormalized."""
    if not r > 0:
        raise ValueError("r must be positive")
    return HydrogenOrbital(z=1.0, cutoff_r=r)


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
