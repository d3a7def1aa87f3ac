import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import FactorCall, blas_threads, count_probes, spy_factors, sym_op

from vdwplate import eigensolver
from vdwplate.eigensolver import (ElectronPlateResult, Grid1D, GridCyl, GridCylSpec,
                                  DAVIDSON_BASIS, HYDROGEN_SHIFT, InertiaError,
                                  NonConvergenceError,
                                  PartitionOfUnity, SingularBlockError, SparseSymOp,
                                  assemble_1d_electron_plate, assemble_1d_operator,
                                  assemble_hydrogen_plate, coulomb_cell_average,
                                  electron_plate_ground, feshbach_fixed_point,
                                  feshbach_matrix, hardy_check, hydrogen_plate_ground,
                                  lowest_eigenpair, shifted_factor)
from vdwplate.model import E_ELECTRON_PLATE, E_HYDROGEN, Molecule, PlateConfig
from vdwplate.multipole import HydrogenOrbital
from vdwplate.potential import molecule_mirror_interaction
from vdwplate.spectra import essential_spectrum_bottom

E_EP = E_ELECTRON_PLATE


def _numpy_reports_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _band_spectrum(mat):
    """Every eigenvalue of a symmetric sparse matrix by LAPACK's band solver:
    the dense oracle at a third of eigvalsh's cost on a 2D grid operator."""
    low = sp.tril(mat).tocoo()
    band = np.zeros((np.max(low.row - low.col) + 1, mat.shape[0]))
    band[low.row - low.col, low.col] = low.data
    return scipy.linalg.eigvals_banded(band, lower=True)


class TestGrid1D:
    def test_spacing(self):
        g = Grid1D(99, 10.0)
        assert g.h == pytest.approx(0.1)
        assert g.nodes[0] == pytest.approx(0.1) and g.nodes[-1] == pytest.approx(9.9)

    def test_too_small(self):
        with pytest.raises(ValueError):
            Grid1D(8, 1.0)


class TestAssemble1D:
    def test_free_laplacian_dirichlet(self):
        g = Grid1D(400, 1.0)
        res = lowest_eigenpair(assemble_1d_operator(g), sigma=0.5)
        exact = np.pi ** 2
        assert abs(res.value - exact) <= 5.0 * exact * g.h ** 2

    def test_electron_plate_ground_pair(self):
        g = Grid1D(2048, 300.0)
        res = lowest_eigenpair(assemble_1d_electron_plate(g), sigma=-1.0)
        assert res.value == pytest.approx(E_EP, rel=3e-4)
        exact = g.nodes * np.exp(-g.nodes / 8.0)
        exact /= np.linalg.norm(exact)
        overlap = abs(res.vector / np.linalg.norm(res.vector) @ exact)
        assert overlap >= 1.0 - 1e-6

    def test_second_order_convergence(self):
        # Richardson self-convergence: halving h shrinks the error by ~4
        errs = []
        for n in (512, 1024, 2048):
            g = Grid1D(n, 300.0)
            res = lowest_eigenpair(assemble_1d_electron_plate(g), sigma=-1.0)
            errs.append(res.value - E_EP)
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 3.8 <= abs(r1) <= 4.2 and 3.8 <= abs(r2) <= 4.2

    def test_richardson_driver(self):
        res = electron_plate_ground(2048, 300.0)
        assert isinstance(res, ElectronPlateResult)
        assert abs(res.value - E_EP) < abs(res.fine_value - E_EP)
        assert res.deviation <= 1e-7

    def test_tridiagonal_matches_shift_invert(self):
        # the direct tridiagonal solve against the certified sparse solve on one grid
        ref = lowest_eigenpair(assemble_1d_electron_plate(Grid1D(2048, 300.0)), sigma=-1.0)
        res = electron_plate_ground(2048, 300.0)
        assert abs(res.fine_value - ref.value) <= 1e-13
        assert res.residual <= 1e-12

    def test_reference_grid_raw_value(self):
        # raw n=4096, L=400 operator: second-order scheme lands at 3.7e-5
        # relative; the 1e-5 figure is reached by the Richardson driver
        g = Grid1D(4096, 400.0)
        res = lowest_eigenpair(assemble_1d_electron_plate(g), sigma=-1.0)
        assert abs(res.value - E_EP) / abs(E_EP) <= 5e-5


class TestTridiagonalGround:
    """The 1D solve: inverse iteration on one certified dpttrf factor."""

    @staticmethod
    def _oracle(grid):
        """Rayleigh quotient of LAPACK's (stebz + stein) lowest eigenvector,
        and its residual."""
        h = assemble_1d_electron_plate(grid).matrix
        _, vecs = scipy.linalg.eigh_tridiagonal(h.diagonal(), h.diagonal(1),
                                                select="i", select_range=(0, 0))
        x = vecs[:, 0]
        hx = h @ x
        lam = float(x @ hx)
        return lam, float(np.linalg.norm(hx - lam * x))

    @pytest.mark.parametrize("n, L", [(32, 40.0), (512, 120.0), (2048, 300.0),
                                      (4096, 400.0), (65536, 400.0)])
    def test_matches_eigh_tridiagonal(self, monkeypatch, n, L):
        grid = Grid1D(n, L)
        oracle, oracle_residual = self._oracle(grid)
        res = eigensolver._tridiagonal_ground(grid)
        assert electron_plate_ground(n, L).fine_value == res.value
        # each Rayleigh quotient lies within its residual of the eigenvalue
        assert abs(res.value - oracle) <= res.residual + oracle_residual
        if n <= 4096:
            # at n = 65536, ||H||_inf = 1.1e5, both quotients carry rounding
            # of a few 1e-12 relative (later iterates move by as much)
            assert abs(res.value - oracle) <= 1e-12 * abs(oracle)
        assert np.all(res.vector > 0.0)
        norm = assemble_1d_electron_plate(grid).norm_estimate()
        assert res.residual <= 64.0 * np.finfo(float).eps * norm
        assert res.shift == eigensolver.ELECTRON_PLATE_SHIFT < res.value
        assert res.factorizations == 1 and 1 <= res.iterations <= 10
        assert res.factor_nnz == res.factor.nnz == 2 * n - 1
        # Davidson's stop: the first residual within 64 eps ||H||_inf, so one
        # back-solve fewer misses it
        monkeypatch.setattr(eigensolver, "DAVIDSON_MAX_SOLVES", res.iterations - 1)
        with pytest.raises(NonConvergenceError, match="exceeds 64 eps") as exc:
            eigensolver._tridiagonal_ground(grid)
        assert exc.value.iterations == res.iterations - 1
        assert exc.value.residual > 64.0 * np.finfo(float).eps * norm

    @pytest.mark.parametrize("n", [2 ** k for k in range(9, 17)])
    def test_back_solves_bounded_on_lab_grids(self, n):
        # the fine and coarse grids of electron_plate_ground(n, 400) for
        # n = 1024 ... 65536 take 4, 4, 3, 3, 3, 2, 2, 2 back-solves
        assert eigensolver._tridiagonal_ground(Grid1D(n, 400.0)).iterations <= 4

    @pytest.mark.parametrize("n, solves", [(16, 67), (32, 31)])
    def test_back_solves_on_coarsest_grids(self, n, solves):
        # recorded, not bounded: the grids of electron_plate_ground(32, 400),
        # whose lowest eigenvalues lie far above ELECTRON_PLATE_SHIFT, so each
        # back-solve shrinks the error only by 0.63 (n = 16) or 0.37 (n = 32)
        assert eigensolver._tridiagonal_ground(Grid1D(n, 400.0)).iterations == solves

    def test_every_factor_is_certified(self, monkeypatch):
        # the M-matrix test runs on the probe of each factor that dpttrf
        # completes; one that always refuses drives sigma to the Gershgorin
        # bound and raises InertiaError
        calls, certify = [], eigensolver._m_matrix_certified

        def spy(op, sigma, lu):
            calls.append((sigma, lu, certify(op, sigma, lu)))
            return calls[-1][2]

        monkeypatch.setattr(eigensolver, "_m_matrix_certified", spy)
        res = eigensolver._tridiagonal_ground(Grid1D(512, 120.0))
        assert calls == [(res.shift, res.factor, True)]
        monkeypatch.setattr(eigensolver, "_m_matrix_certified", lambda op, sigma, lu: False)
        with pytest.raises(InertiaError, match="Gershgorin"):
            eigensolver._tridiagonal_ground(Grid1D(512, 120.0))

    def test_shift_above_ground_is_lowered(self, monkeypatch):
        # -0.005 lies between the two lowest eigenvalues: the pivots or the
        # M-matrix test refuse it and its doublings until one lies below
        monkeypatch.setattr(eigensolver, "ELECTRON_PLATE_SHIFT", -0.005)
        grid = Grid1D(2048, 300.0)
        oracle = self._oracle(grid)[0]
        res = eigensolver._tridiagonal_ground(grid)
        assert abs(res.value - oracle) <= 1e-12 * abs(oracle)
        assert res.shift < oracle and res.factorizations > 1
        assert res.shift == -0.005 * 2.0 ** (res.factorizations - 1)
        assert np.all(res.vector > 0.0)

    def test_back_solve_cap_raises(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "DAVIDSON_MAX_SOLVES", 1)
        with pytest.raises(NonConvergenceError) as exc:
            electron_plate_ground(2048, 300.0)
        assert exc.value.iterations == 1 and exc.value.residual > 0.0

    def test_solves_inside_solve_settings(self, monkeypatch):
        # like every solve, the 1D factor and its back-solves run on one
        # BLAS thread (_solve_settings), so that results repeat to the bit
        seen = []
        for name in ("dpttrf", "dpttrs"):
            def spy(*args, _lapack=getattr(eigensolver, name), _name=name):
                seen.append((_name, eigensolver._settings_users, blas_threads()))
                return _lapack(*args)

            monkeypatch.setattr(eigensolver, name, spy)
        electron_plate_ground(1024, 200.0)
        ones = [1] * len(eigensolver._blas_thread_controls())
        assert {name for name, _, _ in seen} == {"dpttrf", "dpttrs"}
        assert all(users > 0 and threads == ones for _, users, threads in seen)
        assert eigensolver._settings_users == 0

    def test_no_bisection_import(self):
        assert not hasattr(eigensolver, "eigh_tridiagonal")

    def test_factor_from_construction_arrays(self):
        # dpttrf reads the CSR diagonals, which hold the arrays the operator
        # was built from, and then set_diagonal's, to the bit: its factor is
        # dpttrf's on those arrays, byte for byte
        grid = Grid1D(512, 120.0)
        sigma = eigensolver.ELECTRON_PLATE_SHIFT
        band = np.full(grid.n - 1, -1.0) / grid.h ** 2
        plate = np.full(grid.n, 2.0) / grid.h ** 2 - 1.0 / (4.0 * grid.nodes)
        op = SparseSymOp(plate, {1: band})
        for diagonal in (plate, plate + 1.0 / (3.0 * grid.nodes)):
            op.set_diagonal(diagonal)
            d, e, info = eigensolver.dpttrf(diagonal - sigma, band)
            lu = eigensolver._tridiagonal_factor(op, sigma).lu
            assert info == 0 and lu[0].tobytes() == d.tobytes() and lu[1].tobytes() == e.tobytes()

    @pytest.mark.parametrize("n", [16, 32, 4096])
    def test_one_probe_solve_per_factor(self, monkeypatch, n):
        # the M-matrix test solves (H - sigma) v = 1 once per factor, and
        # inverse iteration starts from that v without solving it again
        made, probes = count_probes(monkeypatch)
        res = eigensolver._tridiagonal_ground(Grid1D(n, 400.0))
        assert res.factor is made[-1] and len(made) == res.factorizations
        assert probes == made

    @pytest.mark.parametrize("n, L", [(32, 6e-153), (32, 1e-100), (64, 1e-120),
                                      (4096, 1e-78), (32, 1e-77)])
    def test_tiny_length_stays_in_the_floats(self, n, L):
        # iterates near h^2 and residuals near 1/h^2 squared out of the
        # floats; these lengths lie far below LENGTH_1D, so one ValueError
        # refuses them before any arithmetic, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="domain length L must lie in its domain"):
                electron_plate_ground(n, L)


class TestSparseSymOp:
    def test_mirrors_the_upper_bands(self, rng):
        # H = D + U + U^T exactly, whatever the values: symmetric by construction
        n = 30
        diagonal = rng.standard_normal(n)
        bands = {k: -rng.random(n - k) for k in (1, 4, 29)}
        h = SparseSymOp(diagonal, bands).matrix
        upper = sp.diags([bands[k] for k in bands], list(bands), shape=(n, n))
        assert h.format == "csr" and h.shape == (n, n)
        assert (h != h.T).nnz == 0
        assert (h != sp.diags(diagonal) + upper + upper.T).nnz == 0

    @pytest.mark.parametrize("offset", [1, 3])
    def test_positive_band_entry_rejected(self, offset):
        bands = {1: -np.ones(5), 3: -np.ones(3)}
        bands[offset][1] = 1e-300
        with pytest.raises(ValueError, match="Z-matrix"):
            SparseSymOp(np.ones(6), bands)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "band"])
    def test_non_finite_entry_rejected(self, bad, where):
        diagonal, band = np.ones(6), -np.ones(5)
        (diagonal if where == "diagonal" else band)[3] = bad
        with pytest.raises(ValueError, match="finite"):
            SparseSymOp(diagonal, {1: band})

    @pytest.mark.parametrize("offset", [0, -1])
    def test_offset_not_positive_rejected(self, offset):
        with pytest.raises(ValueError, match="offsets must be positive"):
            SparseSymOp(np.ones(6), {1: -np.ones(5), offset: -np.ones(6 - abs(offset))})

    @staticmethod
    def _operators():
        """(name, operator, a second diagonal) on the 1D grids and on the
        production and ladder grids at r = 10 and 24."""
        for n, L in [(32, 40.0), (1024, 400.0), (65536, 400.0), (1000, 1e-3)]:
            grid = Grid1D(n, L)
            yield f"1d-{n}-{L}", assemble_1d_electron_plate(grid), \
                assemble_1d_operator(grid).matrix.diagonal()
        for name, spec in [("production", GridCylSpec()), ("ladder", GridCylSpec(0.2, 20.0, 20.0))]:
            for r in (10.0, 24.0):
                op, (free,) = assemble_hydrogen_plate(GridCyl.for_distance(r, spec), (1.0, 0.0))
                yield f"{name}-{r}", op, free

    def test_norm_estimate_within_two_ulp(self):
        # max_i |H_ii| + off_i sums in another order than scipy's row sums
        # of |H|; both before and after set_diagonal they agree to 2 ulp.
        # The |H| v of the M-matrix test, (|d| + d) v - H v, lies within
        # gamma_{k+3} of scipy's, relative, k = row_entries
        rng = np.random.default_rng(0)
        for name, op, other in self._operators():
            assert op.row_entries == np.diff(op.matrix.indptr).max(), name
            j = op.row_entries + 3
            gamma = j * np.finfo(float).eps / (1.0 - j * np.finfo(float).eps)
            for diagonal in (None, other):
                if diagonal is not None:
                    op.set_diagonal(diagonal)
                want = float(abs(op.matrix).sum(axis=1).max())
                assert abs(op.norm_estimate() - want) <= 2.0 * np.spacing(want), name
                h, v = op.matrix, rng.random(op.dim) + 0.5
                d = h.diagonal()
                exact = abs(h) @ v
                assert np.all(np.abs((np.abs(d) + d) * v - h @ v - exact) <= gamma * exact), name

    @pytest.mark.parametrize("excess, certified", [(1e-15, False), (1e-13, True)])
    def test_m_matrix_test_refuses_within_rounding(self, excess, certified):
        # (H v)_1 = excess > 0 on tridiag(-1, 2, -1): a proof only above the
        # rounding bound gamma_6 (|H| v)_1, about 2.7e-15 here
        op = SparseSymOp(np.full(3, 2.0), {1: -np.ones(2)})
        probe = np.array([1.0, 1.0 + excess / 2.0, 1.0])
        assert (op.matrix @ probe)[1] > 0.0
        factor = SimpleNamespace(probe=probe)
        assert eigensolver._m_matrix_certified(op, 0.0, factor) is certified

    def test_norm_estimate_builds_no_abs_matrix(self, monkeypatch, coarse_spec):
        # the off-diagonal row sums are kept from the bands, and the M-matrix
        # test takes |H| v from the diagonal and H v, so neither the norm, a
        # new diagonal nor a certified factor copies |H|
        def refused(self):
            raise AssertionError("|H| was built")

        op, (free,) = assemble_hydrogen_plate(GridCyl.for_distance(8.0, coarse_spec), (1.0, 0.0))
        plate = float(abs(op.matrix).sum(axis=1).max())
        monkeypatch.setattr(type(op.matrix), "__abs__", refused)
        assert not hasattr(SparseSymOp, "abs_matrix")
        assert abs(op.norm_estimate() - plate) <= 2.0 * np.spacing(plate)
        assert lowest_eigenpair(op, sigma=HYDROGEN_SHIFT).factorizations == 1
        op.set_diagonal(free)
        op.norm_estimate()


class TestLowestEigenpair:
    def test_diagonal_matrix(self):
        op = sym_op(sp.diags([3.0, 1.0, 2.0]))
        res = lowest_eigenpair(op, sigma=0.0)
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(np.abs(res.vector), [0.0, 1.0, 0.0], atol=1e-12)

    @staticmethod
    def _random_sparse_symmetric(rng, n):
        dense = rng.standard_normal((n, n))
        dense = 0.5 * (dense + dense.T)
        dense[np.abs(dense) < 1.5] = 0.0
        return dense

    @classmethod
    def _random_z(cls, rng, n):
        """A random sparse symmetric Z-matrix: off-diagonals <= 0."""
        dense = -np.abs(cls._random_sparse_symmetric(rng, n))
        np.fill_diagonal(dense, rng.uniform(0.0, 8.0, n))
        return dense

    def test_random_sparse_vs_dense_oracle(self, rng):
        n = 500
        dense = self._random_z(rng, n)
        op = sym_op(dense)
        # Gershgorin: the row-sum norm bounds the spectrum from below
        res = lowest_eigenpair(op, sigma=-op.norm_estimate() - 1.0)
        oracle = np.linalg.eigvalsh(dense)[0]
        assert res.value == pytest.approx(oracle, abs=1e-10)

    def test_inertia_matches_dense_count(self, rng):
        dense = self._random_sparse_symmetric(rng, 200)
        vals = np.linalg.eigvalsh(dense)
        for k in (0, 1, 4, 100, 199):
            sigma = vals[0] - 1.0 if k == 0 else 0.5 * (vals[k - 1] + vals[k])
            _, below = shifted_factor(sp.csr_matrix(dense), sigma)
            assert below == np.count_nonzero(vals < sigma) == k

    @pytest.fixture(scope="class", params=[
        "electron_plate_1d", "hydrogen_r0.5_m1", "hydrogen_r0.5_m0",
        "hydrogen_r8_m1", "hydrogen_r8_m0", "random_z"])
    def z_matrix(self, request, coarse_spec):
        """(name, Z-matrix, its full spectrum), one band eigensolve per operator."""
        name = request.param
        if name == "electron_plate_1d":
            mat = assemble_1d_electron_plate(Grid1D(400, 100.0)).matrix
        elif name == "random_z":
            mat = sp.csr_matrix(self._random_z(np.random.default_rng(20261018), 200))
        else:
            r, m = (float(x[1:]) for x in name.split("_")[1:])
            grid = GridCyl.for_distance(r, coarse_spec)
            mat = assemble_hydrogen_plate(grid, (m,))[0].matrix
        return name, mat, _band_spectrum(mat)

    def test_inertia_exact_on_z_matrices(self, z_matrix):
        # the pivots give the count on both sides of the lowest eigenvalue:
        # below it (where the M-matrix test would also certify H - sigma)
        # every count must be 0, and above it must match the full spectrum
        name, mat, vals = z_matrix
        assert sp.triu(mat, k=1).max() <= 0.0
        shifts = [vals[0] - 1.0, vals[0] - 1e-3, HYDROGEN_SHIFT]
        shifts += [0.5 * (vals[k - 1] + vals[k]) for k in (1, 2, 5)]
        for sigma in shifts:
            assert shifted_factor(mat, sigma)[1] == np.count_nonzero(vals < sigma)
        if name == "hydrogen_r0.5_m1":     # HYDROGEN_SHIFT is not certified here
            assert vals[0] < HYDROGEN_SHIFT

    def test_positive_vector_needs_a_z_matrix(self):
        # (H + 1) v = 1 with v = (1/3, 1/3) > 0, yet H + 1 is indefinite:
        # without off-diagonals <= 0 a positive vector proves nothing
        mat = sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert np.all(spla.spsolve((mat + sp.identity(2)).tocsc(), np.ones(2)) > 0.0)
        assert shifted_factor(mat, -1.0)[1] == 1
        with pytest.raises(ValueError, match="Z-matrix"):
            sym_op(mat)

    def test_certified_factor_builds_no_lu_copies(self):
        # reading the pivots through lu.U makes SciPy build and keep CSC
        # copies of L and U, about 12 bytes per fill entry; lowest_eigenpair
        # certifies its shift by the M-matrix test without them
        grid = GridCyl.for_distance(16.0, GridCylSpec(0.2, 20.0, 20.0))
        op, _ = assemble_hydrogen_plate(grid, (1.0,))
        mat = op.matrix
        tracemalloc.start()
        try:
            res = lowest_eigenpair(op, sigma=HYDROGEN_SHIFT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.factorizations == 1 and res.shift == HYDROGEN_SHIFT
        assert peak < 8 * res.factor_nnz
        # between the two lowest eigenvalues the count comes from the pivots
        assert shifted_factor(mat, -1.0)[1] == 0
        low = np.sort(spla.eigsh(mat.tocsc(), k=2, sigma=-1.0, which="LM")[0])
        assert low[0] < -0.1 < low[1]
        assert shifted_factor(mat, -0.1)[1] == 1

    def test_shift_above_lowest_returns_lowest(self, rng):
        dense = self._random_z(rng, 300)
        vals = np.linalg.eigvalsh(dense)
        op = sym_op(dense)
        res = lowest_eigenpair(op, sigma=0.5 * (vals[0] + vals[1]))
        assert res.value == pytest.approx(vals[0], abs=1e-10)
        assert res.shift < vals[0] and res.factorizations > 1
        assert shifted_factor(op.matrix, res.shift)[1] == 0

    def test_uncertified_factor_raises(self, monkeypatch):
        # the M-matrix test proves nothing for a non-Z operator: one positive
        # off-diagonal pair, or a zero diagonal that would force an
        # off-diagonal pivot.  Both are refused when the operator is built,
        # before any factor is made
        n = 40
        chain = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                         [-1, 0, 1]).tolil()
        chain[10, 11] = chain[11, 10] = 0.5
        swap = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 5.0]]))
        factors = spy_factors(monkeypatch)
        for mat in (chain.tocsr(), swap):
            with pytest.raises(ValueError, match="Z-matrix"):
                sym_op(mat)
        assert factors == []

    def test_determinism(self):
        g = Grid1D(512, 100.0)
        op = assemble_1d_electron_plate(g)
        a = lowest_eigenpair(op, sigma=-1.0)
        b = lowest_eigenpair(op, sigma=-1.0)
        assert a.value == b.value and a.iterations == b.iterations
        assert np.array_equal(a.vector, b.vector)

    def test_unreachable_tolerance(self, monkeypatch):
        # at sigma = -1 this operator needs far more than 50 back-solves
        g = Grid1D(256, 100.0)
        op = assemble_1d_electron_plate(g)
        monkeypatch.setattr(eigensolver, "DAVIDSON_MAX_SOLVES", 50)
        with pytest.raises(NonConvergenceError) as err:
            lowest_eigenpair(op, sigma=-1.0)
        assert err.value.residual is None or err.value.residual > 0

    def test_max_iter_counts_back_solves(self, monkeypatch):
        op = assemble_1d_electron_plate(Grid1D(256, 100.0))
        lowest = lowest_eigenpair(op, sigma=-1.0).value
        monkeypatch.setattr(eigensolver, "DAVIDSON_MAX_SOLVES", 7)
        with pytest.raises(NonConvergenceError) as err:
            lowest_eigenpair(op, sigma=-1.0)
        # the error carries the last Rayleigh quotient, an upper bound
        assert err.value.iterations == 7 and err.value.residual > 0
        assert err.value.value > lowest

    @pytest.mark.skipif(not _numpy_reports_openblas(),
                        reason="numpy is not built against OpenBLAS")
    def test_openblas_thread_controls_found(self):
        assert eigensolver._blas_thread_controls()

    @pytest.mark.parametrize("max_iter, raises", [(2000, None), (50, NonConvergenceError)])
    def test_one_blas_thread_per_solve(self, monkeypatch, max_iter, raises):
        # every OpenBLAS copy runs one thread inside the solve, and the
        # counts before it come back afterwards, also when it raises
        controls = eigensolver._blas_thread_controls()
        original = blas_threads()
        factors = spy_factors(monkeypatch)
        monkeypatch.setattr(eigensolver, "DAVIDSON_MAX_SOLVES", max_iter)
        op = assemble_1d_electron_plate(Grid1D(256, 100.0))
        try:
            for _, set_threads in controls:
                set_threads(2)
            before = blas_threads()
            if raises is None:
                lowest_eigenpair(op, sigma=-1.0)
            else:
                with pytest.raises(raises):
                    lowest_eigenpair(op, sigma=-1.0)
            assert blas_threads() == before
        finally:
            for (_, set_threads), count in zip(controls, original):
                set_threads(count)
        assert [f.threads for f in factors] == [[1] * len(controls)]

    @pytest.mark.skipif(not eigensolver._blas_thread_controls(),
                        reason="no OpenBLAS thread controls")
    def test_one_blas_thread_across_threads(self):
        # A enters, B enters, A leaves while B still solves: B must keep one
        # thread, and the counts from before A come back when B leaves
        controls = eigensolver._blas_thread_controls()
        original = blas_threads()
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with eigensolver._solve_settings():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def thread_b():
            a_in.wait(10)
            with eigensolver._solve_settings():
                b_in.set()
                a_out.wait(10)
                seen["b after a left"] = blas_threads()

        try:
            for _, set_threads in controls:
                set_threads(2)
            workers = [threading.Thread(target=f) for f in (thread_a, thread_b)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(20)
            assert not any(t.is_alive() for t in workers)
            assert a_out.is_set()
            assert seen["b after a left"] == [1] * len(controls)
            assert blas_threads() == [2] * len(controls)
        finally:
            for (_, set_threads), count in zip(controls, original):
                set_threads(count)

    @pytest.mark.skipif(not eigensolver._blas_thread_controls(),
                        reason="no OpenBLAS thread controls")
    def test_concurrent_solves_keep_one_blas_thread(self, monkeypatch):
        # more solving threads than cores, switched often: every factor runs
        # on one BLAS thread, and the counts from before come back at the end
        controls = eigensolver._blas_thread_controls()
        original = blas_threads()
        factors = spy_factors(monkeypatch)
        op = assemble_1d_electron_plate(Grid1D(256, 100.0))
        values = []

        def solve():
            for _ in range(3):
                values.append(lowest_eigenpair(op, sigma=-0.1).value)

        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for _, set_threads in controls:
                set_threads(2)
            workers = [threading.Thread(target=solve) for _ in range(6)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(60)
            assert not any(t.is_alive() for t in workers)
            assert blas_threads() == [2] * len(controls)
        finally:
            sys.setswitchinterval(interval)
            for (_, set_threads), count in zip(controls, original):
                set_threads(count)
        assert len(values) == 18 and len(set(values)) == 1
        assert [f.threads for f in factors] == [[1] * len(controls)] * 18

    def test_heap_trimmed_before_first_factor(self, monkeypatch, coarse_spec):
        # the malloc heap is trimmed once per solve, after the row's one
        # assembly and before the factor of H - sigma
        events = spy_factors(monkeypatch)
        image = eigensolver.molecule_mirror_interaction

        def recording_image(mol, plate, electrons):
            events.append("assemble")
            return image(mol, plate, electrons)

        def names():
            return ["factor" if isinstance(e, FactorCall) else e for e in events]

        monkeypatch.setattr(eigensolver, "molecule_mirror_interaction", recording_image)
        monkeypatch.setattr(eigensolver, "_malloc_trim",
                            lambda: lambda pad: events.append(("trim", pad)))
        grid = GridCyl.for_distance(8.0, coarse_spec)
        op, _ = assemble_hydrogen_plate(grid, (1.0,))
        free, _ = assemble_hydrogen_plate(grid, (0.0,))
        assert names() == ["assemble"]
        res = lowest_eigenpair(op, sigma=HYDROGEN_SHIFT)
        assert names() == ["assemble", ("trim", 0), "factor"]
        # a solve with a borrowed factor trims as well, and factors nothing
        lowest_eigenpair(free, sigma=res.shift, factor=res.factor)
        assert names() == ["assemble", ("trim", 0), "factor", ("trim", 0)]

    def test_full_basis_is_exact(self, monkeypatch):
        # far below a clustered spectrum each back-solve adds little, yet a
        # basis that spans the whole space makes the Rayleigh-Ritz pair exact
        solves = []
        solve = eigensolver._Factor.solve

        def counting_solve(self, rhs):
            solves.append(1)
            return solve(self, rhs)

        factors = spy_factors(monkeypatch)
        monkeypatch.setattr(eigensolver._Factor, "solve", counting_solve)
        monkeypatch.setattr(eigensolver, "DAVIDSON_MAX_SOLVES", 300)
        op = sym_op(sp.diags(np.arange(1.0, 9.0)))
        res = lowest_eigenpair(op, sigma=-1000.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.residual <= 64.0 * np.finfo(float).eps * op.norm_estimate()
        # one solve per factor is the M-matrix test's probe, the rest Davidson's
        assert len(factors) == 1
        assert res.iterations == len(solves) - len(factors) <= 8

    def test_borrowed_factor_that_cannot_certify_falls_back(self):
        # the factor of diag(1..12) proves nothing for diag(1..12) - 3, which
        # has two eigenvalues below -0.5: the solve factors its own operator,
        # lowering the shift until the M-matrix test certifies it
        diag = sp.diags(np.arange(1.0, 13.0)).tocsr()
        lu, _ = shifted_factor(diag, -0.5)
        op = sym_op(diag - 3.0 * sp.identity(12))
        res = lowest_eigenpair(op, sigma=-0.5, factor=lu)
        assert res.factorizations >= 1 and res.factor is not lu
        assert res.shift < res.value
        assert res.value == pytest.approx(np.linalg.eigvalsh(op.matrix.toarray())[0],
                                          abs=1e-12)

    @pytest.mark.parametrize("sigma", [-1.0, -2.0])
    def test_singular_factor_lowers_the_shift(self, monkeypatch, sigma):
        # diag(1..12) - 3 has the eigenvalues -2, -1, 0, ...: H - sigma is
        # exactly singular at sigma = -1 and at the lowered -2, so SuperLU
        # refuses those factors, and the shift is lowered as for a refused one
        factors = spy_factors(monkeypatch)
        res = lowest_eigenpair(sym_op(sp.diags(np.arange(1.0, 13.0) - 3.0)), sigma=sigma)
        assert res.value == pytest.approx(-2.0, abs=1e-12)
        assert [f.sigma for f in factors] == {-1.0: [-1.0, -2.0, -4.0], -2.0: [-2.0, -4.0]}[sigma]
        assert res.factorizations == len(factors) and res.shift == -4.0

    @pytest.mark.parametrize("sigma, tried", [(0.5, [0.5, 0.0, -1.0, -3.0]),
                                              (0.0, [0.0, -1.0, -3.0])])
    def test_nonnegative_shift_lowered_by_doubling_step(self, monkeypatch, sigma, tried):
        # the step starts at |sigma|, 1 at sigma = 0, and doubles.  For
        # diag(1..12) - 3 the M-matrix test refuses 0.5, and H - sigma is
        # exactly singular at 0 and at -1
        factors = spy_factors(monkeypatch)
        res = lowest_eigenpair(sym_op(sp.diags(np.arange(1.0, 13.0) - 3.0)), sigma=sigma)
        assert [f.sigma for f in factors] == tried
        assert res.factorizations == len(tried) and res.shift == -3.0
        assert res.value == pytest.approx(-2.0, abs=1e-12)

    def test_refused_gershgorin_shift_raises(self, monkeypatch, coarse_spec):
        # a test that refuses every factor lowers the 2D shift to the
        # Gershgorin bound, -||H||_inf - 1, and stops there
        factors = spy_factors(monkeypatch)
        monkeypatch.setattr(eigensolver, "_m_matrix_certified", lambda op, sigma, lu: False)
        op, _ = assemble_hydrogen_plate(GridCyl.for_distance(8.0, coarse_spec), (1.0,))
        with pytest.raises(InertiaError, match="Gershgorin"):
            lowest_eigenpair(op, sigma=HYDROGEN_SHIFT)
        assert factors[-1].sigma == -op.norm_estimate() - 1.0
        assert [f.sigma for f in factors[:3]] == [HYDROGEN_SHIFT * 2.0 ** k for k in range(3)]

    def test_every_factor_maker_returns_a_factor(self):
        # SuperLU in float32 and float64, dpttrf and dsytrf: one factor type,
        # whose probe is solve(1) in double (to float32's rounding of H - sigma
        # times its condition for the single factor)
        op = assemble_1d_electron_plate(Grid1D(64, 40.0))
        sigma = eigensolver.ELECTRON_PLATE_SHIFT
        dense = op.matrix.toarray()
        exact = np.linalg.solve(dense - sigma * np.eye(64), np.ones(64))
        for factor, rtol in [(eigensolver._single_factor(op, sigma), 1e-3),
                             (shifted_factor(op.matrix, sigma)[0], 1e-12),
                             (eigensolver._tridiagonal_factor(op, sigma), 1e-12),
                             (eigensolver._dense_factor(dense, sigma)[0], 1e-12)]:
            assert type(factor) is eigensolver._Factor and factor.n == 64
            assert factor.probe.dtype == np.float64
            assert np.allclose(factor.probe, exact, rtol=rtol, atol=0.0)

    def test_one_shift_search_and_one_norm_per_solve(self, monkeypatch):
        # both certified solves search their shift in _certified_factor, each
        # with its own factor maker, and compute ||H||_inf once
        makers, norms = [], []
        search, norm_estimate = eigensolver._certified_factor, SparseSymOp.norm_estimate

        def spy_search(op, sigma, factor_of, norm_est):
            makers.append(factor_of.__name__)
            return search(op, sigma, factor_of, norm_est)

        def spy_norm(op):
            norms.append(op)
            return norm_estimate(op)

        monkeypatch.setattr(eigensolver, "_certified_factor", spy_search)
        monkeypatch.setattr(SparseSymOp, "norm_estimate", spy_norm)
        eigensolver._tridiagonal_ground(Grid1D(64, 40.0))
        assert makers == ["_tridiagonal_factor"] and len(norms) == 1
        lowest_eigenpair(assemble_1d_electron_plate(Grid1D(64, 40.0)), sigma=-1.0)
        assert makers == ["_tridiagonal_factor", "_single_factor"] and len(norms) == 2

    def test_variational_upper_bound(self, rng):
        g = Grid1D(512, 120.0)
        op = assemble_1d_electron_plate(g)
        res = lowest_eigenpair(op, sigma=-1.0)
        for _ in range(20):
            u = rng.standard_normal(g.n)
            quad_form = (u @ (op.matrix @ u)) / (u @ u)
            assert res.value <= quad_form + 1e-12

    def test_discrete_symmetry(self, rng, coarse_spec):
        grid = GridCyl.for_distance(6.0, coarse_spec)
        op = assemble_hydrogen_plate(grid, (1.0,))[0]
        for _ in range(10):
            u = rng.standard_normal(op.dim)
            v = rng.standard_normal(op.dim)
            a = u @ (op.matrix @ v)
            b = (op.matrix @ u) @ v
            assert a == pytest.approx(b, rel=1e-12)


class TestHydrogenPlateOperator:
    def test_plate_off_recovers_hydrogen(self, coarse_spec):
        res, _ = hydrogen_plate_ground(10.0, m=0.0, spec=coarse_spec)
        assert res.value == pytest.approx(E_HYDROGEN, abs=5e-3)

    def test_bound_below_essential_spectrum(self, coarse_spec):
        res, _ = hydrogen_plate_ground(10.0, m=1.0, spec=coarse_spec)
        assert res.value < E_HYDROGEN
        assert res.value < essential_spectrum_bottom(10.0)
        assert res.factorizations == 1

    def test_shift_lowered_near_plate(self, monkeypatch):
        # at r = 0.5 E(r) = -0.4405 lies below HYDROGEN_SHIFT; an unchecked
        # shift-invert solve there converges to -0.205
        spec = GridCylSpec(0.1, 10.0, 10.0)
        factors = spy_factors(monkeypatch)
        res, grid = hydrogen_plate_ground(0.5, 1.0, spec)
        # the single factor at HYDROGEN_SHIFT, refused by the M-matrix test,
        # and one single factor at the doubled shift, which it certifies
        assert [(f.sigma, f.precision) for f in factors] == [
            (HYDROGEN_SHIFT, np.float32), (2.0 * HYDROGEN_SHIFT, np.float32)]
        assert res.factorizations == 2 and res.iterations == 10
        assert res.shift == 2.0 * HYDROGEN_SHIFT
        ref = lowest_eigenpair(assemble_hydrogen_plate(grid, (1.0,))[0], sigma=-3.0)
        assert res.value == pytest.approx(ref.value, abs=1e-12)
        assert res.shift < res.value < HYDROGEN_SHIFT
        op, _ = assemble_hydrogen_plate(grid, (1.0,))
        assert shifted_factor(op.matrix, res.shift)[1] == 0

    def test_shift_near_ground_saves_back_solves(self, coarse_spec):
        for m in (1.0, 0.0):
            op = assemble_hydrogen_plate(GridCyl.for_distance(8.0, coarse_spec), (m,))[0]
            near = lowest_eigenpair(op, sigma=HYDROGEN_SHIFT)
            far = lowest_eigenpair(op, sigma=-3.0)
            assert near.value == pytest.approx(far.value, abs=1e-12)
            assert near.shift == HYDROGEN_SHIFT and far.shift == -3.0
            assert near.iterations < far.iterations
            assert 0 < near.factor_nnz

    @pytest.mark.parametrize("r", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("m", [1.0, 0.0])
    def test_ground_vector_positive_and_1s_start(self, coarse_spec, r, m):
        # off-diagonals <= 0 on a connected grid: by Perron-Frobenius the
        # ground vector is positive, so the positive 1s start has a component
        # along it, and starting there costs no more back-solves than a
        # random start
        op = assemble_hydrogen_plate(GridCyl.for_distance(r, coarse_spec), (m,))[0]
        off = sp.triu(op.matrix, k=1)
        assert off.max() <= 0.0
        assert sp.csgraph.connected_components(off, directed=False)[0] == 1
        assert np.all(op.guess > 0.0)
        res = lowest_eigenpair(op, sigma=HYDROGEN_SHIFT)
        vec = res.vector * np.sign(res.vector.sum())
        assert np.all(vec > 0.0)
        random_start = lowest_eigenpair(sym_op(op.matrix), sigma=HYDROGEN_SHIFT)
        assert res.value == pytest.approx(random_start.value, abs=1e-12)
        assert res.iterations <= random_start.iterations

    def test_lanczos_stops_at_residual_contract(self, coarse_spec):
        for m in (1.0, 0.0):
            op = assemble_hydrogen_plate(GridCyl.for_distance(8.0, coarse_spec), (m,))[0]
            res = lowest_eigenpair(op, sigma=HYDROGEN_SHIFT)
            assert res.iterations <= 12
            assert res.residual <= 64.0 * np.finfo(float).eps * op.norm_estimate()
            assert res.residual == pytest.approx(
                np.linalg.norm(op.matrix @ res.vector - res.value * res.vector))

    @pytest.mark.parametrize("r", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("m", [1.0, 0.5])
    def test_free_solve_borrows_the_plate_factor(self, coarse_spec, r, m):
        # the free operator differs from the plate's by the diagonal image
        # term, so the plate's factor certifies its shift (no factor of its
        # own) and preconditions it to the own-factor value
        grid = GridCyl.for_distance(r, coarse_spec)
        plate_op, _ = assemble_hydrogen_plate(grid, (m,))
        free_op, _ = assemble_hydrogen_plate(grid, (0.0,))
        plate = lowest_eigenpair(plate_op, sigma=HYDROGEN_SHIFT)
        free = lowest_eigenpair(free_op, sigma=plate.shift, factor=plate.factor)
        own = lowest_eigenpair(free_op, sigma=plate.shift)
        assert free.factorizations == 0 and free.factor is plate.factor
        assert own.factorizations == 1
        assert free.value == pytest.approx(own.value, abs=1e-13)
        assert free.residual <= 64.0 * np.finfo(float).eps * free_op.norm_estimate()

    def test_own_factor_is_single_precision(self, coarse_spec):
        # the M-matrix test, run in double, certifies the single factor; it
        # preconditions as well as the double factor and is lent as before
        grid = GridCyl.for_distance(8.0, coarse_spec)
        op, _ = assemble_hydrogen_plate(grid, (1.0,))
        free_op, _ = assemble_hydrogen_plate(grid, (0.0,))
        plate = lowest_eigenpair(op, sigma=HYDROGEN_SHIFT)
        assert plate.factorizations == 1
        assert plate.factor.solve(np.ones(op.dim, np.float32)).dtype == np.float32
        assert eigensolver._m_matrix_certified(op, plate.shift, plate.factor)
        double, below = shifted_factor(op.matrix, HYDROGEN_SHIFT)
        assert below == 0 and plate.factor_nnz == double.nnz
        ref = lowest_eigenpair(op, sigma=HYDROGEN_SHIFT, factor=double)
        assert plate.value == pytest.approx(ref.value, abs=1e-13)
        assert plate.iterations == ref.iterations
        free = lowest_eigenpair(free_op, sigma=plate.shift, factor=plate.factor)
        assert free.factorizations == 0 and free.factor is plate.factor

    def test_restarted_solve_matches_arpack(self):
        # a shift far below E(r) at r = 0.5 needs more back-solves than the
        # basis holds, so the iteration restarts; ARPACK is the oracle
        op, _ = assemble_hydrogen_plate(
            GridCyl.for_distance(0.5, GridCylSpec(0.1, 10.0, 10.0)), (1.0,))
        res = lowest_eigenpair(op, sigma=-3.0)
        assert res.iterations > DAVIDSON_BASIS
        ref = spla.eigsh(op.matrix.tocsc(), k=1, sigma=-3.0, which="LM", tol=0.0,
                         v0=np.ones(op.dim))[0][0]
        assert res.value == pytest.approx(ref, abs=1e-12)

    def test_energy_increases_with_distance(self, coarse_spec):
        values = [hydrogen_plate_ground(r, 1.0, coarse_spec)[0].value
                  for r in (10.0, 15.0, 20.0, 30.0)]
        assert np.all(np.diff(values) > 0)
        assert values[-1] < E_HYDROGEN + 5e-3

    @pytest.mark.parametrize("r", [0.5, 8.0])
    def test_five_diagonal_assembly_matches_kron_oracle(self, coarse_spec, r):
        # one call builds the first requested operator and each later m's
        # diagonal, which set_diagonal writes in; each operator so made
        # equals, to the bit, the sum of the axial and radial Kronecker
        # products and the potential
        grid = GridCyl.for_distance(r, coarse_spec)

        def stencil(*args):
            main, off = eigensolver._cell_stencil(*args)
            return sp.diags([off, main, off], [-1, 0, 1])

        ax = stencil(grid.h_xi, np.ones(grid.n_xi + 1), np.ones(grid.n_xi))
        rad = stencil(grid.h_rho, np.arange(grid.n_rho + 1) * grid.h_rho, grid.rho)
        pts = grid.points()
        coulomb = coulomb_cell_average(pts[:, 0], pts[:, 1], grid.h_xi, grid.h_rho)
        guess = HydrogenOrbital()(pts) * np.sqrt(grid.volume_weights())
        ms = (0.0, 0.5, 1.0)
        op, diagonals = assemble_hydrogen_plate(grid, ms)
        for m, diagonal in zip(ms, [None, *diagonals], strict=True):
            if diagonal is not None:
                op.set_diagonal(diagonal)
            v = coulomb
            if m != 0.0:
                plate = PlateConfig(np.array([1.0, 0.0, 0.0]), r, m)
                v = v + 0.5 * molecule_mirror_interaction(Molecule.hydrogen(), plate,
                                                          pts[:, None, :]).total
            ref = (sp.kron(ax, sp.identity(grid.n_rho))
                   + sp.kron(sp.identity(grid.n_xi), rad) + sp.diags(v)).tocsr()
            for name in ("indptr", "indices", "data"):
                got, want = getattr(op.matrix, name), getattr(ref, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), (m, name)
            assert np.array_equal(op.guess, guess)

    def test_set_diagonal_keeps_the_structure(self, coarse_spec):
        # the free diagonal is written over the plate operator's values, on
        # the same indptr and indices; a non-finite diagonal is refused
        grid = GridCyl.for_distance(8.0, coarse_spec)
        op, (free,) = assemble_hydrogen_plate(grid, (1.0, 0.0))
        before = {name: getattr(op.matrix, name) for name in ("indptr", "indices", "data")}
        op.set_diagonal(free)
        for name, array in before.items():
            assert np.shares_memory(getattr(op.matrix, name), array), name
        assert np.array_equal(op.matrix.diagonal(), free)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                op.set_diagonal(np.where(np.arange(op.dim) == 3, bad, free))
            assert np.array_equal(op.matrix.diagonal(), free)

    def test_cell_average_against_midpoint_far_field(self):
        # away from the nucleus the cell average reduces to the midpoint value
        v_avg = coulomb_cell_average(np.array([5.0]), np.array([4.0]), 0.1, 0.1)
        assert v_avg[0] == pytest.approx(-1.0 / np.hypot(5.0, 4.0), rel=1e-4)

    def test_grid_convergence_second_order(self):
        # simultaneous h-halving on both axes; exact-halving ladder
        energies = []
        for h in (0.1, 0.05, 0.025):
            spec = GridCylSpec(h_target=h, l_xi_plus=10.0, l_rho=10.0)
            energies.append(hydrogen_plate_ground(5.0, 1.0, spec)[0].value)
        d1 = energies[1] - energies[0]
        d2 = energies[2] - energies[1]
        assert 3.5 <= d1 / d2 <= 4.5

    def test_nucleus_midway_between_axial_nodes(self, coarse_spec):
        grid = GridCyl.for_distance(7.0, coarse_spec)
        nearest = np.min(np.abs(grid.xi))
        assert nearest == pytest.approx(grid.h_xi / 2.0, rel=1e-12)

    def test_invalid_m(self, coarse_spec):
        grid = GridCyl.for_distance(5.0, coarse_spec)
        for ms in ((1.5,), (0.0, -0.5)):
            with pytest.raises(ValueError):
                assemble_hydrogen_plate(grid, ms)


class TestFeshbach:
    def test_rank_one_schur_scalar(self):
        h = np.array([[1.0, 0.4], [0.4, 3.0]])
        f = feshbach_matrix(h, np.array([1.0, 0.0]), 0.5)
        assert f.shape == (1, 1)
        assert f[0, 0] == pytest.approx(1.0 - 0.16 / (3.0 - 0.5), rel=1e-14)

    def test_far_below_spectrum_resolvent_small(self, rng):
        n = 40
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        b = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        lam = np.linalg.eigvalsh(h)[0] - 1e4
        f = feshbach_matrix(h, b, lam)
        php = b.T @ h @ b
        assert np.max(np.abs(f - php)) <= 1e-2

    def test_ground_projector_reproduces_eigenvalue(self, rng):
        n = 30
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        vals, vecs = np.linalg.eigh(h)
        f = feshbach_matrix(h, vecs[:, 0], vals[0])
        assert f[0, 0] == pytest.approx(vals[0], abs=1e-12)

    def test_fixed_point_random_matrix(self, rng, monkeypatch):
        n = 50
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        vals, vecs = np.linalg.eigh(h)
        gap = vals[1] - vals[0]
        noise = rng.standard_normal(n)
        noise -= vecs[:, 0] * (vecs[:, 0] @ noise)
        psi = vecs[:, 0] + 0.1 * min(1.0, gap) * noise / np.linalg.norm(noise)
        psi /= np.linalg.norm(psi)
        bracket = (vals[0] - 1.0, 0.5 * (vals[0] + vals[1]))
        fp = feshbach_fixed_point(h, psi, bracket)
        assert fp == pytest.approx(vals[0], abs=1e-10)
        # one evaluation inside the bracket (the fixed-point probe) cannot reach
        # tol: the last iterate comes back inside the error, never as a result
        monkeypatch.setattr(eigensolver, "FIXED_POINT_MAX_ITER", 1)
        with pytest.raises(NonConvergenceError) as err:
            feshbach_fixed_point(h, psi, bracket)
        assert err.value.iterations == 1
        assert bracket[0] < err.value.value < bracket[1]
        assert abs(err.value.value - vals[0]) > 1e-10

    @staticmethod
    def _near_ground_case(rng, n, noise_scale):
        """The recipe of acceptance criterion 8: psi near the ground vector."""
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        vals, vecs = np.linalg.eigh(h)
        noise = rng.standard_normal(n)
        noise -= vecs[:, 0] * (vecs[:, 0] @ noise)
        noise *= noise_scale * min(1.0, vals[1] - vals[0]) / np.linalg.norm(noise)
        psi = vecs[:, 0] + noise
        return h, psi / np.linalg.norm(psi), vals

    @staticmethod
    def _spy_evaluations(monkeypatch) -> list:
        """The lambda of every evaluation of the map: _feshbach makes the one
        certified factor of H - lambda on a dense or a sparse H."""
        lams = []
        real = eigensolver._feshbach

        def spy(mat, b, lam):
            lams.append(lam)
            return real(mat, b, lam)

        monkeypatch.setattr(eigensolver, "_feshbach", spy)
        return lams

    @pytest.mark.parametrize("sparse", [False, True])
    def test_one_probe_solve_per_factor(self, monkeypatch, sparse):
        # dsytrf and SuperLU factors, one per evaluation of the map; none is
        # tested by the M-matrix test, so no probe is solved
        lams = self._spy_evaluations(monkeypatch)
        made, probes = count_probes(monkeypatch)
        h, psi, vals = self._near_ground_case(np.random.default_rng(7), 40, 0.1)
        bracket = (vals[0] - 1.0, 0.5 * (vals[0] + vals[1]))
        fp = feshbach_fixed_point(sp.csr_matrix(h) if sparse else h, psi, bracket)
        assert abs(fp - vals[0]) <= 1e-10
        assert len(made) == len(lams) >= 3 and probes == []

    def test_fixed_point_factorization_budget(self, monkeypatch):
        # each evaluation is one certified factor of H - lambda; Newton needs
        # a handful per fixed point: the two bracket ends, the probe, and at
        # most five more
        lams = self._spy_evaluations(monkeypatch)
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            h, psi, vals = self._near_ground_case(rng, 50, 0.1)
            lams.clear()
            fp = feshbach_fixed_point(h, psi, (vals[0] - 1.0, 0.5 * (vals[0] + vals[1])))
            assert abs(fp - vals[0]) <= 1e-10
            assert 3 <= len(lams) <= 8

    def test_fixed_point_stress(self):
        # larger noise moves the probe far from the answer: Newton, bisecting
        # where it leaves the bracket, still never evaluates on the eigenvalue
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(20, 81))
            h, psi, vals = self._near_ground_case(rng, n, rng.uniform(0.0, 1.0))
            fp = feshbach_fixed_point(h, psi, (vals[0] - 1.0, 0.5 * (vals[0] + vals[1])))
            assert abs(fp - vals[0]) <= 1e-10

    def test_fixed_point_steep_slope(self):
        # psi barely overlaps the ground vector, so f' = -1/|<psi, v0>|^2 is
        # about -1e4 at the root and |f| <= 1e-12 would need lambda within
        # 1e-16 of the eigenvalue: the search must stop on the Newton step
        rng = np.random.default_rng(3)
        n = 30
        for _ in range(40):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            h = (q * rng.uniform(-3.0, 3.0, n)) @ q.T
            h = 0.5 * (h + h.T)
            vals, vecs = np.linalg.eigh(h)
            c0 = np.sqrt(10.0 ** rng.uniform(-4.0, -3.0))
            rest = rng.standard_normal(n - 1)
            rest *= np.sqrt(1.0 - c0 ** 2) / np.linalg.norm(rest)
            psi = c0 * vecs[:, 0] + vecs[:, 1:] @ rest
            z = np.linalg.qr(np.column_stack([psi, rng.standard_normal((n, n - 1))]))[0][:, 1:]
            bottom = np.linalg.eigvalsh(z.T @ h @ z)[0]
            fp = feshbach_fixed_point(h, psi, (vals[0] - 1.0, 0.5 * (vals[0] + bottom)))
            assert abs(fp - vals[0]) <= 1e-10

    def test_fixed_point_two_column_projection(self, monkeypatch):
        # with k = 2 the fixed point takes the lowest of the eigenvalues
        # lambda + 1/w_i of F: below the root S > 0 and the largest w_i gives
        # it, above the root the one negative w_i does.  Any other choice
        # still finds the root from above, but in up to 18 factors, not 5
        lams = self._spy_evaluations(monkeypatch)
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(20, 81))
            h, psi, vals = self._near_ground_case(rng, n, 0.1)
            q = np.linalg.qr(np.column_stack([psi, rng.standard_normal((n, n - 1))]))[0]
            bottom = np.linalg.eigvalsh(q[:, 2:].T @ h @ q[:, 2:])[0]
            lams.clear()
            fp = feshbach_fixed_point(h, q[:, :2], (vals[0] - 1.0, 0.5 * (vals[0] + bottom)))
            assert abs(fp - vals[0]) <= 1e-10
            assert 3 <= len(lams) <= 8

    def test_exact_projector_shortcut(self, rng):
        n = 25
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        vals, vecs = np.linalg.eigh(h)
        fp = feshbach_fixed_point(h, vecs[:, 0],
                                  (vals[0] - 1.0, 0.5 * (vals[0] + vals[1])))
        assert fp == pytest.approx(vals[0], abs=1e-13)

    def test_monotone_decrease(self, rng):
        n = 35
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        vals, vecs = np.linalg.eigh(h)
        psi = vecs[:, 0] + 0.05 * vecs[:, 2]
        psi /= np.linalg.norm(psi)
        samples = vals[0] - np.array([2.0, 1.0, 0.5, 0.1])
        mins = [np.linalg.eigvalsh(feshbach_matrix(h, psi, lam))[0] for lam in samples]
        assert np.all(np.diff(mins) <= 1e-12)

    def test_singular_block_probe(self, rng):
        n = 30
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        vals, vecs = np.linalg.eigh(h)
        with pytest.raises(SingularBlockError):
            # lambda inside the complement spectrum
            feshbach_matrix(h, vecs[:, 0], 0.5 * (vals[5] + vals[6]))

    def test_indefinite_block_found_by_lanczos_probe_raises(self):
        # lambda 1e-3 above the bottom of the complement spectrum: H_perp - lambda
        # has one negative eigenvalue, which a 30-step Lanczos probe of
        # P_perp (H - lambda) P_perp misses for this seed
        rng = np.random.default_rng(4)
        n = 100
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        b = np.linalg.eigh(h)[1][:, 0] + 0.1 * rng.standard_normal(n)
        b /= np.linalg.norm(b)
        z = np.linalg.qr(np.column_stack([b, rng.standard_normal((n, n - 1))]))[0][:, 1:]
        lam = np.linalg.eigvalsh(z.T @ h @ z)[0] + 1e-3
        assert np.linalg.eigvalsh(z.T @ h @ z - lam * np.eye(n - 1))[0] < 0.0
        with pytest.raises(SingularBlockError):
            feshbach_matrix(h, b, lam)

    @pytest.mark.parametrize("form", ["dense", "csr"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_explicit_complement_oracle(self, rng, k, form):
        # F = B^T H B - B^T H Z (Z^T (H - lambda) Z)^{-1} Z^T H B, Z spanning Ran B^perp
        n = 40
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        h[np.abs(h) < 0.8] = 0.0
        vecs = np.linalg.eigh(h)[1]
        b = np.linalg.qr(vecs[:, :k] + 0.2 * rng.standard_normal((n, k)))[0]
        z = np.linalg.qr(np.column_stack([b, rng.standard_normal((n, n - k))]))[0][:, k:]
        h_perp = z.T @ h @ z
        bottom = np.linalg.eigvalsh(h_perp)[0]
        op = {"dense": h, "csr": sp.csr_matrix(h)}[form]
        for lam in (bottom - 2.0, bottom - 0.3):
            zhb = z.T @ h @ b
            oracle = b.T @ h @ b - zhb.T @ np.linalg.solve(h_perp - lam * np.eye(n - k), zhb)
            f = feshbach_matrix(op, b, lam)
            assert np.max(np.abs(f - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        with pytest.raises(SingularBlockError):
            feshbach_matrix(op, b, bottom + 0.05)

    @pytest.mark.parametrize("h, b", [([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0]),
                                      ([[0.0, 1.0], [1.0, 1.0]], [0.0, 1.0])])
    def test_zero_schur_complement_raises(self, h, b):
        # H_perp - 0 = 0 and B^T H^{-1} B = 0: a singular block, and no 1/0
        # (the suite turns RuntimeWarning into an error)
        with pytest.raises(SingularBlockError):
            feshbach_matrix(np.array(h), np.array(b), 0.0)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_lambda_on_an_eigenvalue_of_h(self, sparse):
        # H - 1 has an exactly zero pivot, yet H_perp - 1 = diag(2, 4) > 0 and F(1) = 1
        h = np.diag([1.0, 3.0, 5.0])
        f = feshbach_matrix(sp.csr_matrix(h) if sparse else h, np.eye(3)[:, 0], 1.0)
        assert f[0, 0] == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_zero_pivot_inside_the_factor(self, sparse):
        # H - 1 = diag(1, 0, 2, 3): the second pivot is exactly zero (dsytrf's
        # info = 2), so lam moves up a rounding-level step; H_perp - 1 =
        # diag(1, 2, 3) > 0 and F(1) = 1
        h = np.diag([2.0, 1.0, 3.0, 4.0])
        if not sparse:
            with pytest.raises(RuntimeError):
                eigensolver._dense_factor(h, 1.0)
        f = feshbach_matrix(sp.csr_matrix(h) if sparse else h, np.eye(4)[:, 1], 1.0)
        assert f[0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_zero_pivot_on_the_complement_bottom_raises(self, sparse):
        # H - 2 = diag(-1, 0, 1, 2) is singular too, but there the zero is in
        # H_perp - 2 = diag(0, 1, 2): no step up certifies a singular block
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(SingularBlockError):
            feshbach_matrix(sp.csr_matrix(h) if sparse else h, np.eye(4)[:, 0], 2.0)

    def test_dense_factor_inertia_and_solve(self, rng):
        # Bunch-Kaufman's 2x2 blocks each hold one negative eigenvalue: the
        # count matches the spectrum and SuperLU's pivots, with and without
        # 2x2 pivots
        two_by_two = 0
        for trial in range(200):
            n = int(rng.integers(2, 81))
            a = rng.standard_normal((n, n))
            h = 0.5 * (a + a.T)
            if trial % 2:
                h = np.diag(rng.uniform(-1.0, 1.0, n)) + 1e-2 * h
            vals = np.linalg.eigvalsh(h)
            sigma = rng.uniform(vals[0] - 0.5, vals[-1] + 0.5)
            factor, below = eigensolver._dense_factor(h, sigma)
            _, ipiv = factor.lu
            assert below == np.count_nonzero(vals < sigma)
            assert below == shifted_factor(sp.csc_matrix(h), sigma)[1]
            two_by_two += np.any(ipiv < 0)
            rhs = rng.standard_normal((n, 3))
            x = factor.solve(rhs)
            assert np.allclose(x, np.linalg.solve(h - sigma * np.eye(n), rhs),
                               rtol=1e-8, atol=1e-8 * np.max(np.abs(x)))
        assert 20 <= two_by_two < 200

    def test_dense_and_sparse_paths_agree(self):
        # the recipe of acceptance criterion 8: Bunch-Kaufman on a dense H and
        # SuperLU on its CSR copy give the same map, fixed point and verdict
        rng = np.random.default_rng(35)
        for _ in range(50):
            h, psi, vals = self._near_ground_case(rng, 50, 0.1)
            hs = sp.csr_matrix(h)
            for lam in (vals[0] - 1.0, vals[0] - 0.2):
                dense, sparse = feshbach_matrix(h, psi, lam), feshbach_matrix(hs, psi, lam)
                assert abs(dense[0, 0] - sparse[0, 0]) <= 1e-12 * abs(sparse[0, 0])
            bracket = (vals[0] - 1.0, 0.5 * (vals[0] + vals[1]))
            assert abs(feshbach_fixed_point(h, psi, bracket)
                       - feshbach_fixed_point(hs, psi, bracket)) <= 1e-12
            for mat in (h, hs):
                with pytest.raises(SingularBlockError):
                    # lambda inside the complement spectrum
                    feshbach_matrix(mat, psi, 0.5 * (vals[5] + vals[6]))

    def test_accuracy_against_explicit_complement(self):
        # F against the complement eigendecomposition Z^T H Z = U diag(mu) U^T,
        # F = B^T H B - C^T diag(1/(mu - lam)) C with C = U^T Z^T H B, for P the
        # projection on a vector near the ground state and lam at least 2e-2
        # below mu_0 (closer, S^-1 loses digits: the map is not guarded there)
        rng = np.random.default_rng(20261020)
        worst = {"dense": 0.0, "sparse": 0.0}
        for _ in range(600):
            n = int(rng.integers(20, 61))
            h, psi, vals = self._near_ground_case(rng, n, rng.uniform(0.0, 1.0))
            q = np.linalg.qr(np.column_stack([psi, rng.standard_normal((n, n - 1))]))[0]
            b, z = q[:, :1], q[:, 1:]
            mu, u = np.linalg.eigh(z.T @ h @ z)
            lam = mu[0] - rng.uniform(2e-2, mu[0] - vals[0] + 1.0)
            c = u.T @ (z.T @ h @ b)
            oracle = b.T @ h @ b - c.T @ (c / (mu - lam)[:, None])
            for form, mat in (("dense", h), ("sparse", sp.csr_matrix(h))):
                err = np.max(np.abs(feshbach_matrix(mat, b, lam) - oracle))
                worst[form] = max(worst[form], err / np.max(np.abs(oracle)))
        assert max(worst.values()) <= 1e-12, worst

    def test_grid_cross_oracle(self):
        # fixed point with the cutoff state as projection equals the direct
        # lowest eigenpair of the same discretized operator
        spec = GridCylSpec(h_target=0.2, l_xi_plus=14.0, l_rho=14.0)
        for r in (10.0, 14.0):
            grid = GridCyl.for_distance(r, spec)
            op = assemble_hydrogen_plate(grid, (1.0,))[0]
            direct = lowest_eigenpair(op, sigma=HYDROGEN_SHIFT)
            pvec = HydrogenOrbital(cutoff_r=r)(grid.points()) * np.sqrt(grid.volume_weights())
            pvec /= np.linalg.norm(pvec)
            fp = feshbach_fixed_point(op.matrix, pvec, (-0.5, -0.1))
            assert fp == pytest.approx(direct.value, abs=1e-8)

    def test_pivots_are_the_one_certificate(self, monkeypatch, rng):
        # the Feshbach map certifies its block by pivot inertia alone and
        # never runs the M-matrix test, on a dense H with off-diagonals of
        # both signs or on a hydrogen/plate Z-matrix
        h, psi, vals = self._near_ground_case(rng, 50, 0.1)
        grid = GridCyl.for_distance(10.0, GridCylSpec(h_target=0.2, l_xi_plus=14.0,
                                                      l_rho=14.0))
        op = assemble_hydrogen_plate(grid, (1.0,))[0]
        direct = lowest_eigenpair(op, sigma=HYDROGEN_SHIFT).value
        pvec = HydrogenOrbital(cutoff_r=10.0)(grid.points()) * np.sqrt(grid.volume_weights())
        cases = [(h, psi, (vals[0] - 1.0, 0.5 * (vals[0] + vals[1])), vals[0]),
                 (op.matrix, pvec / np.linalg.norm(pvec), (-0.5, -0.1), direct)]

        def refuse(*args):
            raise AssertionError("the Feshbach map ran the M-matrix test")

        monkeypatch.setattr(eigensolver, "_m_matrix_certified", refuse)
        for mat, p, bracket, lowest in cases:
            fp = feshbach_fixed_point(mat, p, bracket)
            assert fp == pytest.approx(lowest, abs=1e-8)
            assert np.linalg.eigvalsh(feshbach_matrix(mat, p, fp))[0] == pytest.approx(
                fp, abs=1e-8)


class TestIMSPartition:
    def test_rejects_nonpositive_r(self):
        for r in (0, -1):
            with pytest.raises(ValueError):
                PartitionOfUnity(r)

    def test_gradient_matches_central_differences(self):
        # inside both ramps, away from s = 2/7 where the gradient vanishes
        s = np.concatenate([np.linspace(0.255, 0.28, 200), np.linspace(0.29, 0.328, 200)])
        step = 1e-7
        j1_hi, j2_hi, _ = PartitionOfUnity.profiles(s + step)
        j1_lo, j2_lo, _ = PartitionOfUnity.profiles(s - step)
        fd = ((j1_hi - j1_lo) ** 2 + (j2_hi - j2_lo) ** 2) / (2.0 * step) ** 2
        assert np.allclose(PartitionOfUnity.profiles(s)[2], fd, rtol=1e-5, atol=0.0)

    def test_region_values(self):
        part = PartitionOfUnity(10.0)
        assert part.j2([2.0, 0.0, 0.0]) == 1.0 and part.j1([2.0, 0.0, 0.0]) == 0.0
        assert part.j1([5.0, 0.0, 0.0]) == 1.0 and part.j2([5.0, 0.0, 0.0]) == 0.0

    def test_partition_identity(self, rng):
        part = PartitionOfUnity(3.0)
        pts = rng.standard_normal((500, 3)) * 2.0
        total = part.j1(pts) ** 2 + part.j2(pts) ** 2
        assert np.max(np.abs(total - 1.0)) <= 1e-10

    def test_gradient_bound(self, rng):
        part = PartitionOfUnity(7.0)
        pts = rng.standard_normal((2000, 3)) * 4.0
        grad = part.gradient_sq(pts)
        assert np.all(grad * part.r ** 2 <= part.gradient_bound * (1.0 + 1e-12))
        assert part.gradient_bound > 0

    def test_gradient_bound_once_per_process(self, monkeypatch):
        # the bound does not depend on r: one bounded search serves every
        # instance, with the value each instance's own search gave
        import scipy.optimize
        calls, search = [], scipy.optimize.minimize_scalar
        monkeypatch.setattr(scipy.optimize, "minimize_scalar",
                            lambda *args, **kwargs: calls.append(1) or search(*args, **kwargs))
        PartitionOfUnity._peak.cache_clear()
        bounds = [PartitionOfUnity(r).gradient_bound for r in (10.0, 24.0, 1e-3, 1e5)]
        assert bounds == [2390.7869428777717] * 4 and calls == [1]

    def test_ims_identity_on_grid_functions(self, rng):
        # <u, H u> = sum_i <J_i u, H J_i u> - <u, (|grad J1|^2 + |grad J2|^2) u>
        # up to the discrete commutator, which is O(h^2) relative to the
        # localization term once the grid resolves the partition transitions
        # (their width scales with r)
        r = 40.0
        mismatch = {}
        for h in (0.25, 0.125):
            spec = GridCylSpec(h_target=h, l_xi_plus=18.0, l_rho=18.0)
            grid = GridCyl.for_distance(r, spec)
            op = assemble_hydrogen_plate(grid, (1.0,))[0]
            part = PartitionOfUnity(r)
            pts = grid.points()
            j1 = part.j1(pts)
            j2 = part.j2(pts)
            grad = part.gradient_sq(pts)
            worst = 0.0
            for c in (r / 3.5, r / 3.0, r / 2.5):
                u = np.exp(-np.linalg.norm(pts, axis=1) ** 2 / (2 * c ** 2))
                u = u * np.sqrt(grid.volume_weights())
                lhs = u @ (op.matrix @ u)
                rhs = ((j1 * u) @ (op.matrix @ (j1 * u))
                       + (j2 * u) @ (op.matrix @ (j2 * u))
                       - u @ (grad * u))
                loc = abs(u @ (grad * u))
                assert abs(lhs - rhs) <= 0.05 * loc + 1e-12
                worst = max(worst, abs(lhs - rhs) / loc)
            mismatch[h] = worst
        # quadrature error shrinks at second order under h-halving
        assert mismatch[0.125] <= mismatch[0.25] / 2.5


def _distance(psi, zeta) -> float:
    """||psi - zeta|| of two normalized orbitals: sqrt(2 - 2 <psi|zeta>)."""
    return float(np.sqrt(2.0 - 2.0 * psi.overlap(zeta)))


def _energy(psi) -> float:
    """<psi | -Laplacian - 1/|x| | psi> of an s orbital by radial quadrature."""
    return psi.kinetic_energy() - psi.density_expectation(lambda radius: 1.0 / radius)


class TestCutoffGroundState:
    def test_support(self):
        psi = HydrogenOrbital(cutoff_r=40.0)
        assert psi.radial_value(10.001) == 0.0
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_distance_oracle(self):
        # independent dense-trapezoid oracle for ||psi - zeta||
        zeta = HydrogenOrbital()
        for r, expected in ((40.0, None), (100.0, None)):
            psi = HydrogenOrbital(cutoff_r=r)
            radius = np.linspace(0.0, 80.0, 400_001)
            diff = psi.radial_value(radius) - zeta.radial_value(radius)
            oracle = np.sqrt(np.trapezoid(4.0 * np.pi * diff ** 2 * radius ** 2, radius))
            assert _distance(psi, zeta) == pytest.approx(oracle, abs=1e-6)
        # frozen oracle values: the tail mass beyond r/5 puts the distance
        # near 7.4e-2 at r=40; it drops below 1e-3 only around r=90
        assert _distance(HydrogenOrbital(cutoff_r=40.0), zeta) == pytest.approx(0.0741, abs=0.002)
        assert _distance(HydrogenOrbital(cutoff_r=100.0), zeta) <= 1e-3

    def test_distance_decay_rate(self):
        zeta = HydrogenOrbital()
        rs = np.array([40.0, 60.0, 80.0, 100.0])
        dists = np.array([_distance(HydrogenOrbital(cutoff_r=r), zeta) for r in rs])
        assert np.all(np.diff(dists) < 0)
        # ||psi - zeta||^2 ~ tail mass ~ e^{-r/5}: the norm decays like e^{-r/10}
        ratios = dists[1:] / dists[:-1]
        predicted = np.exp(-np.diff(rs) / 10.0)
        assert np.allclose(ratios, predicted, rtol=0.35)

    def test_energy_approaches_hydrogen(self):
        e40, e80 = (_energy(HydrogenOrbital(cutoff_r=r)) for r in (40.0, 80.0))
        assert abs(e40 - E_HYDROGEN) <= 1e-2
        assert abs(e80 - E_HYDROGEN) < abs(e40 - E_HYDROGEN)
        assert abs(e80 - E_HYDROGEN) <= 1e-5


class TestHardy:
    def test_reference_profile(self):
        g = Grid1D(4000, 40.0)
        u = g.nodes * np.exp(-g.nodes)
        lhs, rhs = hardy_check(u, g)
        assert lhs < rhs
        assert lhs == pytest.approx(0.125, abs=5e-3)
        assert rhs == pytest.approx(0.25, abs=5e-3)

    def test_quadratic_scaling(self):
        g = Grid1D(500, 30.0)
        u = np.sin(np.pi * g.nodes / 30.0) * np.exp(-g.nodes / 3.0)
        l1, r1 = hardy_check(u, g)
        l2, r2 = hardy_check(3.0 * u, g)
        assert l2 == pytest.approx(9.0 * l1, rel=1e-12)
        assert r2 == pytest.approx(9.0 * r1, rel=1e-12)

    def test_random_smooth_profiles(self, rng):
        g = Grid1D(2000, 50.0)
        x = g.nodes
        for _ in range(200):
            alpha = rng.uniform(0.3, 2.0)
            k = rng.integers(1, 6)
            poly = np.polynomial.Polynomial(rng.standard_normal(4))
            u = x * np.exp(-alpha * x) * (1.0 + 0.3 * np.sin(k * x / 5.0)) * (1.0 + 0.1 * poly(x / 50.0))
            lhs, rhs = hardy_check(u, g)
            assert lhs <= rhs + 1e-12
