import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from conftest import blas_threads, count_probes, spy_factors
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwplate import asymptotics, eigensolver
from vdwplate.asymptotics import (SweepRow, SweepTable,
                                  dielectric_scaling, empirical_d3,
                                  fit_power_law, fit_to_csv,
                                  sweep_from_csv, sweep_interaction_energy,
                                  sweep_to_csv, table_to_json)
from vdwplate.eigensolver import HYDROGEN_SHIFT, GridCyl, GridCylSpec


def synthetic_table(rs, ws, m=1.0):
    rows = [SweepRow(r=float(r), n_xi=10, n_rho=10, e_plate=float(w), e_free=0.0)
            for r, w in zip(rs, ws)]
    return SweepTable(rows=rows, m=m, grid={"h_target": 0.1}, config={"seed": 0})


class TestFitPowerLaw:
    def test_exact_recovery(self):
        rs = np.arange(8.0, 41.0, 2.0)
        ws = -1.0 / rs ** 3 - 18.0 / rs ** 5
        fit = fit_power_law(synthetic_table(rs, ws), (3, 5))
        assert fit.coefficient(3) == pytest.approx(-1.0, abs=1e-12)
        assert fit.coefficient(5) == pytest.approx(-18.0, abs=1e-12)

    def test_pure_cubic(self):
        rs = np.arange(8.0, 41.0, 2.0)
        fit = fit_power_law(synthetic_table(rs, -1.0 / rs ** 3), (3, 5))
        assert fit.coefficient(3) == pytest.approx(-1.0, abs=1e-12)
        assert fit.coefficient(5) == pytest.approx(0.0, abs=1e-12)

    def test_residual_orthogonality(self, rng):
        # least-squares optimality: the weighted residual is orthogonal to the
        # weighted design columns
        rs = np.linspace(10.0, 30.0, 12)
        ws = -1.0 / rs ** 3 - 18.0 / rs ** 5 + 1e-6 * rng.standard_normal(12) / rs ** 6
        fit = fit_power_law((rs, ws), (3, 5))
        sw = rs ** 3.0
        weighted_design = np.column_stack([rs ** -3.0, rs ** -5.0]) * sw[:, None]
        defect = weighted_design.T @ (sw * fit.residuals)
        # backward-error scale of the normal equations
        problem_scale = (np.linalg.norm(sw * ws)
                         + np.linalg.norm(weighted_design) * np.linalg.norm(fit.coefficients))
        scale = np.linalg.norm(weighted_design, axis=0) * problem_scale
        assert np.all(np.abs(defect) <= 1e-10 * scale)

    def test_rejections(self):
        rs = np.array([10.0, 12.0])
        ws = -1.0 / rs ** 3
        with pytest.raises(ValueError):
            fit_power_law((rs, ws), (3, 3))
        with pytest.raises(ValueError):
            fit_power_law((rs[:1], ws[:1]), (3, 5))
        with pytest.raises(ValueError):
            fit_power_law((rs, ws), (3, -1))
        with pytest.raises(ValueError, match="exponents"):
            fit_power_law((rs, ws), ())

    @pytest.mark.parametrize("exponents", [(3.5, 5), (math.inf, 5), (math.nan, 5), (3, 4.999)])
    def test_non_integer_exponents_rejected(self, exponents):
        # int() truncated 3.5 to 3 and fitted r^-3 without a word; integral
        # floats are still the integers they equal
        rs = np.arange(8.0, 41.0, 2.0)
        ws = -rs ** -3.0 - 18.0 * rs ** -5.0
        with pytest.raises(ValueError, match="exponents must be .*integers"):
            fit_power_law((rs, ws), exponents)
        fit = fit_power_law((rs, ws), (3.0, 5.0))
        assert fit.exponents == (3, 5) and all(type(k) is int for k in fit.exponents)
        assert fit.coefficient(3) == pytest.approx(-1.0, rel=1e-12)

    @pytest.mark.parametrize("rs, exponents", [
        ([1e200, 2e200, 3e200], (3, 5)), ([1e-200, 2e-200, 3e-200], (3, 5)),
        ([1e-110, 1.0, 2.0], (3, 5)), ([1e62, 2e62], (5,))])
    def test_radii_out_of_float_range_rejected(self, rs, exponents):
        # r^3 or r^-k overflowed with a RuntimeWarning, and the SVD of the
        # weighted design, full of inf and nan, did not converge; r^-5 of
        # 1e62 is subnormal, and the fit lost its digits without a word
        with pytest.raises(ValueError, match="overflow or underflow on the radii"):
            fit_power_law((np.array(rs), -np.ones(len(rs))), exponents)


class TestBracketReport:
    def test_constructed_sixth_order(self):
        rs = np.linspace(10.0, 30.0, 9)
        ws = -1.0 / rs ** 3 - 18.0 / rs ** 5 - 5.0 / rs ** 6
        assert empirical_d3(synthetic_table(rs, ws)) == pytest.approx(5.0, rel=1e-10)

    def test_exact_series_zero(self):
        rs = np.linspace(10.0, 30.0, 9)
        ws = -1.0 / rs ** 3 - 18.0 / rs ** 5
        assert empirical_d3(synthetic_table(rs, ws)) == pytest.approx(0.0, abs=1e-12)


class TestDielectricScaling:
    def test_identity_ratio(self):
        rs = np.linspace(10.0, 20.0, 6)
        ws = -1.0 / rs ** 3
        t1 = synthetic_table(rs, ws, m=1.0)
        rep = dielectric_scaling(t1, t1)
        assert np.allclose(rep.ratios, 1.0)

    def test_exact_linear_scaling(self):
        rs = np.linspace(10.0, 20.0, 6)
        ws = -1.0 / rs ** 3
        rep = dielectric_scaling(synthetic_table(rs, 0.5 * ws, m=0.5),
                                 synthetic_table(rs, ws, m=1.0))
        assert np.allclose(rep.ratios, 0.5)
        assert rep.approaches_m

    def test_mismatched_grids(self):
        t1 = synthetic_table([10.0, 12.0], [-1e-3, -5e-4])
        t2 = synthetic_table([10.0, 14.0], [-1e-3, -4e-4])
        with pytest.raises(ValueError):
            dielectric_scaling(t1, t2)


class TestSweep:
    def test_m_zero_gives_zero_interaction(self):
        spec = GridCylSpec(h_target=0.4, l_xi_plus=8.0, l_rho=8.0)
        table = sweep_interaction_energy([6.0, 8.0], plate_m=0.0, spec=spec)
        _, ws = table.solved_arrays()
        assert np.all(np.abs(ws) <= 1e-10)

    def test_rows_sorted_and_metadata(self):
        spec = GridCylSpec(h_target=0.4, l_xi_plus=8.0, l_rho=8.0)
        table = sweep_interaction_energy([8.0, 6.0], plate_m=1.0, spec=spec)
        rs, ws = table.solved_arrays()
        assert list(rs) == [6.0, 8.0]
        assert np.all(ws < 0)
        assert table.grid["h_target"] == 0.4

    def test_parallel_matches_serial(self):
        spec = GridCylSpec(h_target=0.4, l_xi_plus=8.0, l_rho=8.0)
        serial = sweep_interaction_energy([5.0, 7.0], spec=spec, jobs=1)
        parallel = sweep_interaction_energy([5.0, 7.0], spec=spec, jobs=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert a == b

    @staticmethod
    def _record_pool_sizes(monkeypatch, threads=None, methods=None):
        # a stand-in for ProcessPoolExecutor that runs in this process and
        # records the worker count it was asked for, into threads the
        # OpenBLAS thread counts it was built under, and into methods the
        # start method it was given (None: the default)
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)
                if threads is not None:
                    threads.append(blas_threads())
                if methods is not None:
                    methods.append(mp_context and mp_context.get_start_method())

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_no_larger_than_rows(self, monkeypatch):
        sizes = self._record_pool_sizes(monkeypatch)
        spec = GridCylSpec(h_target=0.4, l_xi_plus=8.0, l_rho=8.0)
        table = sweep_interaction_energy([5.0, 7.0], spec=spec, jobs=500)
        assert sizes == [2]
        assert table.config["jobs"] == 500
        assert "# jobs = 500\n" in sweep_to_csv(table)
        sweep_interaction_energy([5.0], spec=spec, jobs=2)
        assert sizes == [2]             # one row runs in this process

    @pytest.mark.skipif(not eigensolver._blas_thread_controls(),
                        reason="no OpenBLAS thread controls")
    def test_pool_built_on_one_blas_thread(self, monkeypatch):
        # the workers fork while every OpenBLAS count reads 1, and the
        # parent's counts come back afterwards, also when the pool refuses
        # to start
        controls = eigensolver._blas_thread_controls()
        original = blas_threads()
        threads = []
        self._record_pool_sizes(monkeypatch, threads)
        spec = GridCylSpec(h_target=0.4, l_xi_plus=8.0, l_rho=8.0)
        try:
            for _, set_threads in controls:
                set_threads(2)
            sweep_interaction_energy([5.0, 7.0], spec=spec, jobs=2)
            assert threads == [[1] * len(controls)]
            assert blas_threads() == [2] * len(controls)

            def refused(max_workers, mp_context=None):
                threads.append(blas_threads())
                raise OSError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
            with pytest.raises(OSError):
                sweep_interaction_energy([5.0, 7.0], spec=spec, jobs=2)
            assert threads == [[1] * len(controls)] * 2
            assert blas_threads() == [2] * len(controls)
        finally:
            for (_, set_threads), count in zip(controls, original):
                set_threads(count)

    def test_pool_forks_where_it_can(self, monkeypatch):
        # the workers must inherit the one-thread count, so the pool forks
        # even where the default start method is another (forkserver from
        # Python 3.14); without fork (Windows) it keeps the default
        methods = []
        self._record_pool_sizes(monkeypatch, methods=methods)
        spec = GridCylSpec(h_target=0.4, l_xi_plus=8.0, l_rho=8.0)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["forkserver", "spawn", "fork"])
        sweep_interaction_energy([5.0, 7.0], spec=spec, jobs=2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        sweep_interaction_energy([5.0, 7.0], spec=spec, jobs=2)
        assert methods == ["fork", None]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                        or not eigensolver._blas_thread_controls()
                        or "fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs /proc, OpenBLAS thread controls and fork")
    def test_forked_worker_starts_no_blas_threads(self, monkeypatch):
        # a worker that set the inherited count itself would restart
        # OpenBLAS's server threads (3 threads, not 1, with two copies at 2)
        controls = eigensolver._blas_thread_controls()
        original = blas_threads()
        solve_row = asymptotics.solve_row

        def counting_solve_row(grid, m):     # runs in the forked worker
            row, residual = solve_row(grid, m)
            tasks = len(os.listdir("/proc/self/task"))
            return dataclasses.replace(row, error=f"threads={tasks}"), residual

        monkeypatch.setattr(asymptotics, "solve_row", counting_solve_row)
        spec = GridCylSpec(h_target=0.4, l_xi_plus=8.0, l_rho=8.0)
        try:
            for _, set_threads in controls:
                set_threads(2)
            table = sweep_interaction_energy([5.0, 7.0], spec=spec, jobs=2)
        finally:
            for (_, set_threads), count in zip(controls, original):
                set_threads(count)
        assert [row.error for row in table.rows] == ["threads=1"] * 2

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, monkeypatch, jobs):
        sizes = self._record_pool_sizes(monkeypatch)
        with pytest.raises(ValueError, match="jobs"):
            sweep_interaction_energy([5.0, 7.0], jobs=jobs)
        assert sizes == []

    @pytest.mark.parametrize("radii", [[6.0, 6.0], [6.0, -1.0], [0.0], [],
                                       [10.0, np.inf], [np.nan]])
    def test_bad_radii_rejected_before_any_solve(self, monkeypatch, radii):
        calls = []
        monkeypatch.setattr(asymptotics, "lowest_eigenpair",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="positive and distinct"):
            sweep_interaction_energy(radii, spec=GridCylSpec(0.4, 8.0, 6.0))
        assert calls == []

    def test_one_factor_per_row(self, monkeypatch, coarse_spec):
        # the free solve of each row borrows the plate's certified factor
        factors = spy_factors(monkeypatch)
        table = sweep_interaction_energy([8.0, 10.0], spec=coarse_spec)
        assert all(row.w < 0 for row in table.rows)
        assert [(f.sigma, f.precision) for f in factors] == [(HYDROGEN_SHIFT, np.float32)] * 2

    @pytest.mark.parametrize("r, factors", [(8.0, 1), (0.5, 2)])
    def test_one_probe_solve_per_factor(self, monkeypatch, coarse_spec, r, factors):
        # the M-matrix test solves (H - sigma) v = 1 once per factor: the
        # free solve reuses the probe of the plate factor it borrows (the 1D
        # and Feshbach factors: test_one_probe_solve_per_factor in test_eigensolver)
        made, probes = count_probes(monkeypatch)
        row, _ = asymptotics.solve_row(GridCyl.for_distance(r, coarse_spec), 1.0)
        assert row.w < 0
        assert len(made) == factors and probes == made

    def test_row_holds_one_operator_at_a_time(self):
        # the free solve runs on the plate operator with its diagonal
        # rewritten, so a row peaks less than one operator's values above a
        # lone plate solve on the same grid (the ladder grid at r = 16).
        # Built before the plate solve, a second operator put the row
        # 1,007,568 B above it, against 715,520 B of values
        spec = GridCylSpec(0.2, 20.0, 20.0)
        grid = GridCyl.for_distance(16.0, spec)
        asymptotics.solve_row(grid, 1.0)      # warm every cache first

        def traced_peak(solve):
            tracemalloc.start()
            try:
                solve()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        lone = traced_peak(lambda: eigensolver.hydrogen_plate_ground(16.0, 1.0, spec))
        row = traced_peak(lambda: asymptotics.solve_row(grid, 1.0))
        values = eigensolver.assemble_hydrogen_plate(grid, (0.0,))[0].matrix.data.nbytes
        assert row < lone + values

    @pytest.mark.parametrize("m", [1.0, 0.0])
    def test_row_validates_one_operator(self, monkeypatch, coarse_spec, m):
        # the free solve rewrites the plate operator's diagonal in place, so
        # a row builds, and checks, a single SparseSymOp
        built = []
        init = eigensolver.SparseSymOp.__init__

        def counting_init(self, diagonal, bands, guess=None):
            built.append(self)
            init(self, diagonal, bands, guess)

        monkeypatch.setattr(eigensolver.SparseSymOp, "__init__", counting_init)
        row, _ = asymptotics.solve_row(GridCyl.for_distance(8.0, coarse_spec), m)
        assert row.w is not None and len(built) == 1

    def test_overflowing_w_rejected(self):
        # both energies finite, but W = -1e308 - 1e308 is -inf
        rows = [SweepRow(10.0, 5, 5, -1e308, 1e308)]
        with pytest.raises(ValueError, match="non-finite"):
            SweepTable(rows=rows, m=1.0, grid={}, config={})

    def test_strictly_increasing_required(self):
        rows = [SweepRow(10.0, 5, 5, -1.0, 0.0), SweepRow(10.0, 5, 5, -1.0, 0.0)]
        with pytest.raises(ValueError):
            SweepTable(rows=rows, m=1.0, grid={}, config={})

    def test_interaction_magnitude_and_self_convergence(self):
        # |W| r^3 near 1 at moderate r (the true value carries the +18/r^2
        # correction, so the window extends to 1.3 at r=10), W negative and
        # increasing, and doubling the resolution moves W(10) well under 10%
        coarse = sweep_interaction_energy([10.0, 16.0],
                                          spec=GridCylSpec(0.3, 20.0, 20.0))
        fine = sweep_interaction_energy([10.0, 16.0],
                                        spec=GridCylSpec(0.15, 20.0, 20.0))
        rs, ws = fine.solved_arrays()
        assert np.all(ws < 0)
        assert np.all(np.diff(ws) > 0)
        scaled = -ws * rs ** 3
        assert np.all((scaled >= 0.8) & (scaled <= 1.3))
        _, ws_coarse = coarse.solved_arrays()
        assert abs(ws_coarse[0] - ws[0]) <= 0.1 * abs(ws[0])


@st.composite
def sweep_tables(draw):
    """SweepTables with solved and gap rows; gap error text may hold commas.

    Energies stay within 1e300 so that W = E_plate - E_free is finite, as
    SweepTable requires: two finite floats near 1e308 differ by inf.
    """
    finite = st.floats(-1e300, 1e300, width=64)
    rs = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6, unique=True))
    error_text = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                         min_size=1, max_size=30)
    rows = []
    for r in sorted(rs):
        counts = dict(r=r, n_xi=draw(st.integers(4, 10 ** 6)),
                      n_rho=draw(st.integers(4, 10 ** 6)),
                      iterations=draw(st.integers(0, 10 ** 6)))
        if draw(st.booleans()):
            rows.append(SweepRow(e_plate=draw(finite), e_free=draw(finite), **counts))
        else:
            rows.append(SweepRow(e_plate=None, e_free=None, error=draw(error_text),
                                 **counts))
    spec = GridCylSpec(*(draw(st.floats(1e-3, 1e3)) for _ in range(3)))
    return SweepTable(rows=rows, m=draw(st.floats(0.0, 1.0)), grid=dataclasses.asdict(spec),
                      config={"jobs": draw(st.integers(1, 64))})


class TestSerialization:
    def make_table(self):
        rs = np.array([10.0, 12.0, 14.0])
        ws = -1.0 / rs ** 3
        table = synthetic_table(rs, ws)
        table.rows.append(SweepRow(r=16.0, n_xi=10, n_rho=10, e_plate=None,
                                   e_free=None, error="did not converge"))
        return table

    def test_csv_round_trip(self):
        table = self.make_table()
        table.rows.append(SweepRow(r=18.0, n_xi=10, n_rho=10, e_plate=None,
                                   e_free=None, iterations=7,
                                   error="residual 1e-3, above tol"))
        text = sweep_to_csv(table)
        assert "\nr,n_xi,n_rho,E_plate,E_free,W,iterations,error\n" in text
        back = sweep_from_csv(text)
        assert back.m == table.m
        assert [row.iterations for row in back.rows] == [0, 0, 0, 0, 7]
        assert len(back.rows) == 5
        for a, b in zip(table.rows[:3], back.rows[:3]):
            assert b.e_plate == pytest.approx(a.e_plate, rel=1e-16)
        assert back.rows[3].w is None
        assert [row.error for row in back.rows[3:]] == ["did not converge",
                                                        "residual 1e-3, above tol"]

    @settings(max_examples=60, deadline=None)
    @given(table=sweep_tables())
    def test_csv_round_trip_is_lossless(self, table):
        text = sweep_to_csv(table)
        back = sweep_from_csv(text)
        assert back.rows == table.rows and back.m == table.m
        assert sweep_to_csv(back) == text
        # grid and config values come back as numbers: fit --format json and
        # sweep --format json write the same types
        assert back.grid == table.grid and back.config == table.config
        assert table_to_json(back) == table_to_json(table)

    @settings(max_examples=60, deadline=None)
    @given(table=sweep_tables())
    def test_json_round_trip_is_lossless(self, table):
        doc = json.loads(table_to_json(table))
        names = [f.name for f in dataclasses.fields(SweepRow)]
        assert [SweepRow(**{k: row[k] for k in names}) for row in doc["rows"]] == table.rows
        assert [row["W"] for row in doc["rows"]] == [row.w for row in table.rows]
        assert doc["config"] == {**table.config, "m": table.m}

    def test_csv_with_sampling_key_loads(self):
        # sweeps written while the grid carried a sampling option still load and fit
        lines = ["# vdwplate sweep 0.1.0", "# m = 1", "# grid.h_target = 0.1",
                 "# grid.l_rho = 28.0", "# grid.l_xi_plus = 28.0",
                 "# grid.sampling = cell-average", "# jobs = 1", "# seed = 0",
                 "# tol = 0.0", "r,n_xi,n_rho,E_plate,E_free,W,error"]
        for r in np.arange(10.0, 21.0, 2.0):
            w = -1.0 / r ** 3 - 18.0 / r ** 5
            lines.append(f"{r:.17g},380,280,{w - 0.25:.17g},-0.25,{w:.17g},")
        table = sweep_from_csv("\n".join(lines) + "\n")
        assert table.grid["sampling"] == "cell-average"
        assert table.grid["h_target"] == 0.1 and table.config == {"jobs": 1, "seed": 0,
                                                                 "tol": 0.0}
        fit = fit_power_law(table, (3, 5))
        assert fit.coefficient(3) == pytest.approx(-1.0, abs=1e-6)
        assert fit.coefficient(5) == pytest.approx(-18.0, abs=1e-4)

    def test_gap_row_without_error_column_loads(self):
        # raised KeyError: 'error'
        text = "r,n_xi,n_rho,E_plate,E_free,W,iterations\n10,5,5,,,,3\n"
        assert sweep_from_csv(text).rows == [SweepRow(10.0, 5, 5, None, None, 3, "gap")]

    def test_csv_17_digits(self):
        table = synthetic_table([10.0], [-1.0 / 3.0])
        text = sweep_to_csv(table)
        assert "-0.33333333333333331" in text

    def test_byte_identical(self):
        table = self.make_table()
        assert sweep_to_csv(table) == sweep_to_csv(table)
        assert table_to_json(table) == table_to_json(table)

    def test_json_schema(self):
        table = self.make_table()
        fit = fit_power_law(table, (3, 5))
        doc = json.loads(table_to_json(table, fit))
        assert set(doc) == {"version", "config", "grid", "rows", "fit"}
        assert doc["rows"][0]["W"] == pytest.approx(-1e-3)
        assert doc["fit"]["exponents"] == [3, 5]
        assert doc["rows"][3]["W"] is None

    def test_fit_csv_contains_coefficients(self):
        rs = np.arange(10.0, 21.0, 2.0)
        fit = fit_power_law((rs, -1.0 / rs ** 3), (3, 5))
        text = fit_to_csv(fit)
        assert "# c3 = -" in text and "r,residual" in text
