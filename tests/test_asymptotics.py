import json
import math

import numpy as np
import pytest

from vdwplate.asymptotics import (SweepRow, SweepTable,
                                  asymptotic_residual_report, dielectric_scaling,
                                  fit_power_law, fit_to_csv, predicted_interaction_table,
                                  sweep_from_csv, sweep_interaction_energy,
                                  sweep_to_csv, table_to_json)
from vdwplate.eigensolver import GridCylSpec
from vdwplate.multipole import GroundBasis, HydrogenOrbital


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


class TestBracketReport:
    def test_constructed_sixth_order(self):
        rs = np.linspace(10.0, 30.0, 9)
        ws = -1.0 / rs ** 3 - 18.0 / rs ** 5 - 5.0 / rs ** 6
        rep = asymptotic_residual_report(synthetic_table(rs, ws))
        assert rep.empirical_d3 == pytest.approx(5.0, rel=1e-10)

    def test_exact_series_zero(self):
        rs = np.linspace(10.0, 30.0, 9)
        ws = -1.0 / rs ** 3 - 18.0 / rs ** 5
        rep = asymptotic_residual_report(synthetic_table(rs, ws))
        assert rep.empirical_d3 == pytest.approx(0.0, abs=1e-12)

    def test_budget_flagging(self):
        rs = np.array([10.0, 20.0])
        ws = -1.0 / rs ** 3 - 18.0 / rs ** 5 - np.array([0.0, 1e-5])
        rep = asymptotic_residual_report(synthetic_table(rs, ws), error_budget=1e-6)
        assert rep.flagged == [20.0]


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


class TestPredictedInteraction:
    def test_hydrogen_exact_cubic(self):
        basis = GroundBasis((HydrogenOrbital(),))
        c, rows = predicted_interaction_table(basis, [0.0, 0.0, 1.0], [10.0, 20.0])
        assert c == pytest.approx(1.0, abs=1e-10)
        assert rows[0][1] == pytest.approx(-1e-3, rel=1e-9)
        assert rows[1][1] == pytest.approx(rows[0][1] / 8.0, rel=1e-9)

    def test_rotation_covariance(self):
        basis = GroundBasis((HydrogenOrbital(),))
        theta = 1.1
        rot = np.array([[math.cos(theta), 0.0, -math.sin(theta)],
                        [0.0, 1.0, 0.0],
                        [math.sin(theta), 0.0, math.cos(theta)]])
        v = np.array([0.0, 0.0, 1.0])
        _, rows_a = predicted_interaction_table(basis, v, [12.0])
        _, rows_b = predicted_interaction_table(basis, rot @ v, [12.0])
        assert rows_a[0][1] == pytest.approx(rows_b[0][1], rel=1e-12)


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
                                   e_free=None, error="residual 1e-3, above tol"))
        text = sweep_to_csv(table)
        back = sweep_from_csv(text)
        assert back.m == table.m
        assert len(back.rows) == 5
        for a, b in zip(table.rows[:3], back.rows[:3]):
            assert b.e_plate == pytest.approx(a.e_plate, rel=1e-16)
        assert back.rows[3].w is None
        assert [row.error for row in back.rows[3:]] == ["did not converge",
                                                        "residual 1e-3, above tol"]

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
        fit = fit_power_law(table, (3, 5))
        assert fit.coefficient(3) == pytest.approx(-1.0, abs=1e-6)
        assert fit.coefficient(5) == pytest.approx(-18.0, abs=1e-4)

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
