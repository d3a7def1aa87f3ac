import numpy as np
import pytest
import scipy.sparse as sp

from vdwplate.eigensolver import (ElectronPlateResult, Grid1D, GridCyl, GridCylSpec,
                                  HYDROGEN_SHIFT, NonConvergenceError,
                                  PartitionOfUnity, SingularBlockError, SparseSymOp,
                                  assemble_1d_electron_plate, assemble_1d_operator,
                                  assemble_hydrogen_plate, build_ims_partition,
                                  coulomb_cell_average, cutoff_ground_state,
                                  electron_plate_ground, feshbach_fixed_point,
                                  feshbach_matrix, hardy_check, hydrogen_plate_ground,
                                  lowest_eigenpair)
from vdwplate.model import E_ELECTRON_PLATE, E_HYDROGEN
from vdwplate.multipole import HydrogenOrbital
from vdwplate.spectra import essential_spectrum_bottom

E_EP = E_ELECTRON_PLATE


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
        # the direct tridiagonal solve against ARPACK shift-invert on one grid
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


class TestLowestEigenpair:
    def test_diagonal_matrix(self):
        op = SparseSymOp(sp.diags([3.0, 1.0, 2.0]).tocsr(), weights=np.ones(3))
        res = lowest_eigenpair(op, sigma=0.0)
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(np.abs(res.vector), [0.0, 1.0, 0.0], atol=1e-12)

    def test_random_sparse_vs_dense_oracle(self, rng):
        n = 500
        dense = rng.standard_normal((n, n))
        dense = 0.5 * (dense + dense.T)
        dense[np.abs(dense) < 1.5] = 0.0
        mat = sp.csr_matrix(dense)
        op = SparseSymOp(mat, weights=np.ones(n))
        # Gershgorin: the row-sum norm bounds the spectrum from below
        res = lowest_eigenpair(op, sigma=-op.norm_estimate() - 1.0, tol=1e-12)
        oracle = np.linalg.eigvalsh(dense)[0]
        assert res.value == pytest.approx(oracle, abs=1e-10)

    def test_determinism(self):
        g = Grid1D(512, 100.0)
        op = assemble_1d_electron_plate(g)
        a = lowest_eigenpair(op, sigma=-1.0, seed=3)
        b = lowest_eigenpair(op, sigma=-1.0, seed=3)
        assert a.value == b.value
        assert np.array_equal(a.vector, b.vector)

    def test_unreachable_tolerance(self):
        g = Grid1D(256, 100.0)
        op = assemble_1d_electron_plate(g)
        with pytest.raises(NonConvergenceError) as err:
            lowest_eigenpair(op, tol=1e-30, sigma=-1.0, max_iter=50)
        assert err.value.residual is None or err.value.residual > 0

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
        op = assemble_hydrogen_plate(grid, 1.0)
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

    def test_energy_increases_with_distance(self, coarse_spec):
        values = [hydrogen_plate_ground(r, 1.0, coarse_spec)[0].value
                  for r in (10.0, 15.0, 20.0, 30.0)]
        assert np.all(np.diff(values) > 0)
        assert values[-1] < E_HYDROGEN + 5e-3

    def test_dirichlet_boundary_embedding(self, coarse_spec):
        res, grid = hydrogen_plate_ground(8.0, 1.0, coarse_spec)
        framed = grid.embed_with_boundary(grid.to_physical(res.vector))
        assert np.all(framed[0] == 0.0)       # plate face xi = -r
        assert np.all(framed[-1] == 0.0)      # outer axial face
        assert np.all(framed[:, -1] == 0.0)   # outer radial face

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
        with pytest.raises(ValueError):
            assemble_hydrogen_plate(grid, m=1.5)


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

    def test_fixed_point_random_matrix(self, rng):
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
        # three bisection steps cannot reach tol: the last midpoint comes back
        # inside the error, never as a result
        with pytest.raises(NonConvergenceError) as err:
            feshbach_fixed_point(h, psi, bracket, max_iter=3)
        assert bracket[0] < err.value.value < bracket[1]
        assert abs(err.value.value - vals[0]) > 1e-10

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

    def test_grid_cross_oracle(self):
        # fixed point with the cutoff state as projection equals the direct
        # lowest eigenpair of the same discretized operator
        spec = GridCylSpec(h_target=0.2, l_xi_plus=14.0, l_rho=14.0)
        grid = GridCyl.for_distance(10.0, spec)
        op = assemble_hydrogen_plate(grid, 1.0)
        direct = lowest_eigenpair(op, sigma=HYDROGEN_SHIFT)
        pvec = grid.sample_symmetrized(cutoff_ground_state(10.0))
        pvec /= np.linalg.norm(pvec)
        fp = feshbach_fixed_point(op, pvec, (-0.5, -0.1), tol=1e-12)
        assert fp == pytest.approx(direct.value, abs=1e-8)


class TestIMSPartition:
    def test_region_values(self):
        part = build_ims_partition(10.0)
        assert part.j2([2.0, 0.0, 0.0]) == 1.0 and part.j1([2.0, 0.0, 0.0]) == 0.0
        assert part.j1([5.0, 0.0, 0.0]) == 1.0 and part.j2([5.0, 0.0, 0.0]) == 0.0

    def test_partition_identity(self, rng):
        part = build_ims_partition(3.0)
        pts = rng.standard_normal((500, 3)) * 2.0
        total = part.j1(pts) ** 2 + part.j2(pts) ** 2
        assert np.max(np.abs(total - 1.0)) <= 1e-10

    def test_gradient_bound(self, rng):
        part = build_ims_partition(7.0)
        pts = rng.standard_normal((2000, 3)) * 4.0
        grad = part.gradient_sq(pts)
        assert np.all(grad * part.r ** 2 <= part.gradient_bound * (1.0 + 1e-6))
        assert part.gradient_bound > 0

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
            op = assemble_hydrogen_plate(grid, 1.0)
            part = build_ims_partition(r)
            xi, rho = grid.meshes()
            pts = np.stack([xi, rho, np.zeros_like(xi)], axis=-1).reshape(-1, 3)
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


class TestCutoffGroundState:
    def test_support(self):
        psi = cutoff_ground_state(40.0)
        assert psi.radial_value(10.001) == 0.0
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_distance_oracle(self):
        # independent dense-trapezoid oracle for ||psi - zeta||
        zeta = HydrogenOrbital()
        for r, expected in ((40.0, None), (100.0, None)):
            psi = cutoff_ground_state(r)
            radius = np.linspace(0.0, 80.0, 400_001)
            diff = psi.radial_value(radius) - zeta.radial_value(radius)
            oracle = np.sqrt(np.trapezoid(4.0 * np.pi * diff ** 2 * radius ** 2, radius))
            assert psi.distance_l2(zeta) == pytest.approx(oracle, abs=1e-6)
        # frozen oracle values: the tail mass beyond r/5 puts the distance
        # near 7.4e-2 at r=40; it drops below 1e-3 only around r=90
        assert cutoff_ground_state(40.0).distance_l2(zeta) == pytest.approx(0.0741, abs=0.002)
        assert cutoff_ground_state(100.0).distance_l2(zeta) <= 1e-3

    def test_distance_decay_rate(self):
        zeta = HydrogenOrbital()
        rs = np.array([40.0, 60.0, 80.0, 100.0])
        dists = np.array([cutoff_ground_state(r).distance_l2(zeta) for r in rs])
        assert np.all(np.diff(dists) < 0)
        # ||psi - zeta||^2 ~ tail mass ~ e^{-r/5}: the norm decays like e^{-r/10}
        ratios = dists[1:] / dists[:-1]
        predicted = np.exp(-np.diff(rs) / 10.0)
        assert np.allclose(ratios, predicted, rtol=0.35)

    def test_energy_approaches_hydrogen(self):
        e40 = cutoff_ground_state(40.0).hydrogen_energy()
        e80 = cutoff_ground_state(80.0).hydrogen_energy()
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
