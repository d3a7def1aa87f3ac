import concurrent.futures
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import spy_factors
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vdwplate
from vdwplate import asymptotics, cli, eigensolver
from vdwplate.asymptotics import SweepRow, SweepTable, sweep_to_csv
from vdwplate.cli import main
from vdwplate.model import CONFIG_KEYS
from vdwplate.multipole import QuadratureError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env():
    """The environment of a fresh interpreter that imports this vdwplate."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(vdwplate.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))


def spy_row_calls(monkeypatch):
    """Record each assembly asymptotics makes, with the mirror strengths it
    asks for, and each solve."""
    calls = []
    assemble, solve = asymptotics.assemble_hydrogen_plate, asymptotics.lowest_eigenpair

    def spy_assemble(grid, ms):
        calls.append(("assemble_hydrogen_plate", tuple(ms)))
        return assemble(grid, ms)

    def spy_solve(*args, **kwargs):
        calls.append("lowest_eigenpair")
        return solve(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "assemble_hydrogen_plate", spy_assemble)
    monkeypatch.setattr(asymptotics, "lowest_eigenpair", spy_solve)
    return calls


def grab(text, key):
    for line in text.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


class TestEplate:
    def test_reference_run(self, capsys):
        code, out, _ = run_cli(capsys, "eplate", "--n", "1024", "--L", "200")
        assert code == 0
        assert float(grab(out, "eigenvalue")) == pytest.approx(-1.0 / 64.0, rel=1e-6)
        assert float(grab(out, "relative_error")) <= 1e-5
        # eigenvalue is the extrapolated value; it is printed once
        assert "extrapolated" not in out

    def test_coarse_grid_flagged(self, capsys):
        # the smallest grid the Richardson step accepts
        code, out, _ = run_cli(capsys, "eplate", "--n", "32", "--L", "40")
        assert code == 0
        assert "warning" in out

    def test_bad_input_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "eplate", "--n", "4", "--L", "10")
        assert code == 3
        # the Richardson step needs n//2 >= 16
        code, out, err = run_cli(capsys, "eplate", "--n", "20")
        assert code == 3 and out == "" and "n >= 32" in err
        # L = inf printed eigenvalue = nan and exited 0
        code, out, err = run_cli(capsys, "eplate", "--n", "64", "--L", "inf")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "domain length" in err

    @pytest.mark.parametrize("L", ["1e308", "1e-310"])
    def test_length_out_of_float_range_exits_3(self, capsys, L):
        # 1e308: h ** 2 overflowed, a bare OverflowError escaped main;
        # 1e-310: h ** 2 was 0, a divide-by-zero RuntimeWarning came first.
        # Both lie far outside LENGTH_1D
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "eplate", "--n", "64", "--L", L)
        assert code == 3 and out == "" and caught == []
        assert err == (f"error: domain length L must lie in its domain [0.0001, 10000], "
                       f"got {float(L)}\n")

    def test_back_solve_cap_exits_2(self, capsys, monkeypatch):
        # one back-solve cannot bring the 1D residual within 64 eps ||H||_inf
        monkeypatch.setattr(eigensolver, "DAVIDSON_MAX_SOLVES", 1)
        code, out, err = run_cli(capsys, "eplate", "--n", "1024", "--L", "200")
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: NonConvergenceError:")
        assert len(err.splitlines()) == 1


class TestHydrogen:
    def test_basic_run(self, capsys):
        code, out, _ = run_cli(capsys, "hydrogen", "--r", "10", "--m", "1",
                               "--h", "0.35", "--l-xi", "14", "--l-rho", "14")
        assert code == 0
        assert float(grab(out, "E")) < -0.25
        assert float(grab(out, "hvz_gap")) < 0
        assert grab(out, "status") == "bound"

    def test_plate_off(self, capsys):
        code, out, _ = run_cli(capsys, "hydrogen", "--r", "8", "--m", "0",
                               "--h", "0.4", "--l-xi", "10", "--l-rho", "10")
        assert code == 0
        assert float(grab(out, "E")) == pytest.approx(-0.25, abs=0.01)
        assert float(grab(out, "W")) == 0.0

    def test_unreachable_tolerance_exits_2(self, capsys, monkeypatch):
        # one back-solve cannot meet the residual contract
        monkeypatch.setattr(eigensolver, "DAVIDSON_MAX_SOLVES", 1)
        code, out, err = run_cli(capsys, "hydrogen", "--r", "8", "--h", "0.4",
                                 "--l-xi", "10", "--l-rho", "10")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: NonConvergenceError:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("m, bottom, gap, free", [
        ("0.5", "-0.01953125", "-0.22974843702962047", "-0.24809459588647617"),
        ("0", "0", "-0.24809459588647609", "-0.24809459588647609")], ids=["m0.5", "m0"])
    def test_threshold_follows_m(self, capsys, m, bottom, gap, free):
        # the electron escapes along the plate at m^2 (-1/64); E and W do not
        # move.  E_free is solved with the plate's factor of this m, so its
        # last bits follow m; at m = 0 it is the plate solve itself
        flags = ("--r", "8", "--h", "0.4", "--l-xi", "10", "--l-rho", "10")
        code, out, _ = run_cli(capsys, "hydrogen", *flags, "--m", m)
        assert code == 0
        assert (grab(out, "essential_bottom"), grab(out, "hvz_gap")) == (bottom, gap)
        assert grab(out, "E_free_same_grid") == free

    def test_refused_gershgorin_shift_exits_2(self, capsys, monkeypatch):
        # an M-matrix test that refuses every shift ends at the Gershgorin
        # bound: a numerical failure, one stderr line
        monkeypatch.setattr(eigensolver, "_m_matrix_certified", lambda op, sigma, lu: False)
        code, out, err = run_cli(capsys, "hydrogen", "--r", "8", "--h", "0.4",
                                 "--l-xi", "10", "--l-rho", "10")
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: InertiaError:") and "Gershgorin" in err
        assert len(err.splitlines()) == 1

    def test_one_factor(self, capsys, monkeypatch):
        # the free solve borrows the plate's certified factor
        factors = spy_factors(monkeypatch)
        code, _, _ = run_cli(capsys, "hydrogen", "--r", "8", "--h", "0.4",
                             "--l-xi", "10", "--l-rho", "10")
        assert code == 0
        assert [(f.sigma, f.precision) for f in factors] == [
            (eigensolver.HYDROGEN_SHIFT, np.float32)]

    def test_non_z_operator_exits_3(self, capsys, monkeypatch):
        # lowest_eigenpair takes Z-matrices only; a positive off-diagonal
        # is an input error, not a numerical one
        monkeypatch.setattr(asymptotics, "assemble_hydrogen_plate", lambda grid, ms: iter(
            [eigensolver.SparseSymOp(np.full(2, 2.0), {1: np.ones(1)})] * len(ms)))
        code, out, err = run_cli(capsys, "hydrogen", "--r", "8", "--h", "0.4",
                                 "--l-xi", "10", "--l-rho", "10")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "Z-matrix" in err

    def test_m0_solves_once(self, capsys, monkeypatch):
        # at m = 0 the plate operator is the free one: one assembly of one
        # operator, one solve
        calls = spy_row_calls(monkeypatch)
        code, out, _ = run_cli(capsys, "hydrogen", "--r", "8", "--m", "0", "--h", "0.4",
                               "--l-xi", "10", "--l-rho", "10")
        assert code == 0
        assert calls == [("assemble_hydrogen_plate", (0.0,)), "lowest_eigenpair"]
        assert grab(out, "E") == grab(out, "E_free_same_grid")

    def test_negative_r_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "hydrogen", "--r", "-1")
        assert code == 3

    def test_missing_r_exits_3(self, capsys):
        # r defaulted to 0.0 and the message blamed a plate distance of 0
        code, out, err = run_cli(capsys, "hydrogen", "--h", "0.4")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "--r" in err

    def test_r_below_half_h_exits_3_before_assembly(self, capsys, monkeypatch):
        # at r = 0.01 the axial step would be 0.01: 784,280 nodes, 7.4x the r = 10 grid
        calls = []
        monkeypatch.setattr(asymptotics, "assemble_hydrogen_plate",
                            lambda grid, ms: calls.append(ms))
        code, out, err = run_cli(capsys, "hydrogen", "--r", "0.01")
        assert code == 3 and out == "" and calls == []
        assert len(err.splitlines()) == 1 and "h/2 = 0.05" in err and "--h" in err

    @pytest.mark.parametrize("argv, word", [
        (("hydrogen", "--r", "inf"), "plate distance"),
        (("hydrogen", "--r", "5", "--l-xi", "inf"), "l_xi_plus"),
        (("hydrogen", "--r", "5", "--h", "0"), "h_target"),
        (("sweep", "--r-values", "5", "--h", "0"), "h_target"),
        (("sweep", "--r-values", "5", "--l-rho", "nan"), "l_rho")])
    def test_grid_inputs_not_finite_positive_exit_3(self, capsys, argv, word):
        # inf ended in OverflowError, h = 0 in ZeroDivisionError
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and word in err

    @pytest.mark.parametrize("argv", [
        ("hydrogen", "--r", "1e308"),
        ("sweep", "--r-values", "1e308"),
        ("hydrogen", "--r", "10", "--l-rho", "1e308"),
        ("hydrogen", "--r", "10", "--l-xi", "1e308"),
        ("hydrogen", "--r", "10", "--h", "1e-310")])
    def test_grid_node_count_overflow_exits_3(self, capsys, argv):
        # an extent over the step rounds to inf: round(inf) raised
        # OverflowError.  Each input now lies outside its domain
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "must lie in its domain" in err

    def test_bad_m_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "hydrogen", "--r", "5", "--m", "2")
        assert code == 3

    @pytest.mark.parametrize("command", [("hydrogen", "--r", "5"), ("sweep", "--r-values", "5,6")],
                             ids=["hydrogen", "sweep"])
    @pytest.mark.parametrize("m", ["nan", "-0.5", "1.5"])
    def test_m_outside_its_domain_exits_3_before_any_solve(self, capsys, monkeypatch, command, m):
        # the CLI has no check of its own: the one declared domain is checked
        # where m enters the assembly or the sweep
        calls = spy_row_calls(monkeypatch)
        code, out, err = run_cli(capsys, *command, "--m", m)
        assert code == 3 and out == "" and "lowest_eigenpair" not in calls
        assert "mirror strength m must lie in its domain" in err

    @pytest.mark.parametrize("argv", [("hydrogen", "--r", "3"),
                                      ("sweep", "--r-values", "3"),
                                      ("sweep", "--r-values", "3", "--format", "json")],
                             ids=["hydrogen", "sweep_csv", "sweep_json"])
    def test_negative_zero_m_prints_as_zero(self, capsys, argv):
        # -0.0 printed as "-0.0", "-0" and -0.0 with the numbers of m = 0
        flags = ("--h", "0.5", "--l-xi", "4", "--l-rho", "4")
        outs = [run_cli(capsys, *argv, *flags, "--m", m) for m in ("-0.0", "0")]
        assert outs[0] == outs[1] and outs[0][0] == 0

    def test_node_count_flags_rejected(self, capsys):
        # the grid follows from h and the extents alone, as in sweep
        for flag in ("--n-xi", "--n-rho"):
            with pytest.raises(SystemExit) as exc:
                main(["hydrogen", "--r", "6", flag, "35"])
            assert exc.value.code == 3
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_same_grid_as_sweep(self, capsys):
        flags = ("--h", "0.4", "--l-xi", "8", "--l-rho", "6")
        code, out, _ = run_cli(capsys, "hydrogen", "--r", "6", *flags)
        assert code == 0
        code, csv, _ = run_cli(capsys, "sweep", "--r-values", "6", *flags)
        assert code == 0
        row = csv.splitlines()[-1].split(",")
        assert (grab(out, "# grid.n_xi"), grab(out, "# grid.n_rho")) == (row[1], row[2])
        assert float(grab(out, "W")) == float(row[5])
        # the same row solve prints the same strings, iterations included
        assert ([grab(out, k) for k in ("E", "E_free_same_grid", "W", "iterations")]
                == row[3:7])

    def test_one_assembly_per_row(self, capsys, monkeypatch):
        # each row builds its plate and free operators in one call
        calls = spy_row_calls(monkeypatch)
        code, _, _ = run_cli(capsys, "sweep", "--r-values", "6,8", "--m", "1",
                             "--h", "0.4", "--l-xi", "8", "--l-rho", "6")
        assert code == 0
        row = [("assemble_hydrogen_plate", (1.0, 0.0)), "lowest_eigenpair", "lowest_eigenpair"]
        assert calls == row * 2

    def test_one_row_solve_per_row(self, capsys, monkeypatch):
        # hydrogen and sweep share asymptotics.solve_row
        radii = []
        real = asymptotics.solve_row

        def spy(grid, m):
            radii.append(grid.r)
            return real(grid, m)

        for module in (asymptotics, cli):
            monkeypatch.setattr(module, "solve_row", spy)
        flags = ("--h", "0.4", "--l-xi", "8", "--l-rho", "6")
        assert run_cli(capsys, "hydrogen", "--r", "6", *flags)[0] == 0
        assert radii == [6.0]
        assert run_cli(capsys, "sweep", "--r-values", "8,6", *flags)[0] == 0
        assert radii == [6.0, 6.0, 8.0]

    @pytest.mark.parametrize("line", ["n_xi = 35", "n_rho = 20", "nucleus = 1 0 0 0",
                                      "v = 0 0 1", "n_electrons = 1",
                                      "tol = 1e-30", "max_iter = 1", "seed = 7"])
    def test_unread_config_keys_exit_3(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"r = 6\nh = 0.4\nL_xi = 8\nL_rho = 8\n{line}\n")
        code, out, err = run_cli(capsys, "hydrogen", "--config", str(cfg))
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "unknown key" in err

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,12}", fullmatch=True)
           .filter(lambda k: k not in CONFIG_KEYS))
    def test_random_config_keys_exit_3(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"r = 6\n{key} = 1\n")
        code, out, err = run_cli(capsys, "hydrogen", "--config", str(cfg))
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "unknown key" in err


class TestSweepAndFit:
    def test_sweep_csv_then_fit(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--r-values", "6,8",
                             "--h", "0.4", "--l-xi", "8", "--l-rho", "8",
                             "--output", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# vdwplate sweep")
        assert "r,n_xi,n_rho,E_plate,E_free,W,iterations,error" in text

        code, out, _ = run_cli(capsys, "fit", "--input", str(out_path),
                               "--exponents", "3,5")
        assert code == 0
        assert "# c3 = " in out

    def test_fit_exact_recovery_from_file(self, capsys, tmp_path):
        rs = np.arange(8.0, 41.0, 2.0)
        rows = [SweepRow(r=float(r), n_xi=1, n_rho=1,
                         e_plate=float(-1.0 / r ** 3 - 18.0 / r ** 5), e_free=0.0)
                for r in rs]
        table = SweepTable(rows=rows, m=1.0, grid={}, config={})
        path = tmp_path / "synthetic.csv"
        path.write_text(sweep_to_csv(table))
        code, out, _ = run_cli(capsys, "fit", "--input", str(path))
        assert code == 0
        c3 = float(grab(out.replace("# ", ""), "c3"))
        c5 = float(grab(out.replace("# ", ""), "c5"))
        assert c3 == pytest.approx(-1.0, abs=1e-12)
        assert c5 == pytest.approx(-18.0, abs=1e-12)

    def test_sweep_config_extents(self, capsys, tmp_path):
        # h, L_xi and L_rho from a config file build the same grid as the flags
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h = 0.4\nL_xi = 6\nL_rho = 6\n")
        code, from_cfg, _ = run_cli(capsys, "sweep", "--r-values", "8",
                                    "--config", str(cfg))
        assert code == 0
        code, from_flags, _ = run_cli(capsys, "sweep", "--r-values", "8", "--h", "0.4",
                                      "--l-xi", "6", "--l-rho", "6")
        assert code == 0
        assert from_cfg == from_flags
        assert "\n8,35,15," in from_cfg

    @pytest.mark.parametrize("line", ["tol = 1e-30", "max_iter = 1", "seed = 7"])
    def test_sweep_solver_config_keys_exit_3(self, capsys, tmp_path, line):
        # the solve has one residual contract and one start vector; a sweep
        # config with max_iter = 1 used to run and ignore the key
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"h = 0.4\nL_xi = 8\nL_rho = 8\n{line}\n")
        code, out, err = run_cli(capsys, "sweep", "--r-values", "6", "--config", str(cfg))
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "unknown key" in err

    def test_sweep_config_r_exits_3(self, capsys, tmp_path):
        # sweep radii come from --r-values alone
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 6\nh = 0.4\nL_xi = 6\nL_rho = 6\n")
        code, out, err = run_cli(capsys, "sweep", "--r-values", "8", "--config", str(cfg))
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "--r-values" in err

    @pytest.mark.parametrize("radii", ["-1", "6,6", ",", "inf", "10,inf", "nan"])
    def test_sweep_bad_radii_exit_3(self, capsys, radii):
        # sweep_interaction_energy holds the one radius check, none included;
        # main maps its ValueError to exit 3
        code, out, err = run_cli(capsys, "sweep", "--r-values", radii,
                                 "--h", "0.4", "--l-xi", "8", "--l-rho", "8")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "positive and distinct" in err

    def test_sweep_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--r-values", "6",
                               "--h", "0.4", "--l-xi", "8", "--l-rho", "8",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["r"] == 6.0

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_exits_3(self, capsys, jobs):
        code, out, err = run_cli(capsys, "sweep", "--r-values", "6",
                                 "--h", "0.4", "--l-xi", "8", "--l-rho", "8",
                                 "--jobs", jobs)
        assert code == 3 and out == ""
        assert "jobs must be >= 1" in err

    @pytest.mark.parametrize("exponents", ["3.5,5.9", "inf,5", ""])
    def test_fit_non_integer_exponents_exit_3(self, capsys, tmp_path, exponents):
        # int() truncated 3.5,5.9 to 3,5 and fitted without a word, raised
        # OverflowError on inf, and an empty list reached numpy
        rs = np.arange(8.0, 41.0, 2.0)
        rows = [SweepRow(r=float(r), n_xi=1, n_rho=1, e_plate=float(-1.0 / r ** 3),
                         e_free=0.0) for r in rs]
        path = tmp_path / "synthetic.csv"
        path.write_text(sweep_to_csv(SweepTable(rows=rows, m=1.0, grid={}, config={})))
        code, out, err = run_cli(capsys, "fit", "--input", str(path),
                                 "--exponents", exponents)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "integers" in err and "exponents" in err

    def test_fit_radii_out_of_float_range_exit_3(self, capsys, tmp_path):
        # r^3 overflowed: a RuntimeWarning, then "SVD did not converge"
        rows = [SweepRow(r=r, n_xi=1, n_rho=1, e_plate=-1e-300, e_free=0.0)
                for r in (1e200, 2e200, 3e200)]
        path = tmp_path / "far.csv"
        path.write_text(sweep_to_csv(SweepTable(rows=rows, m=1.0, grid={}, config={})))
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: r^3 weights or r^-k columns overflow or "
                                    "underflow on the radii 1e+200 to 3e+200"]

    @pytest.mark.parametrize("header", ["# m = nan", "# m = 2", "# grid.h_target = nan",
                                        "# jobs = inf"],
                             ids=["m_nan", "m_2", "h_nan", "jobs_inf"])
    def test_fit_json_non_finite_or_bad_m_header_exits_3(self, capsys, tmp_path, header):
        # all four exited 0; the JSON held NaN or Infinity, which is not JSON,
        # and m = 2 was accepted though hydrogen and sweep refuse it
        rs = np.arange(8.0, 41.0, 2.0)
        rows = [SweepRow(r=float(r), n_xi=1, n_rho=1, e_plate=float(-1.0 / r ** 3),
                         e_free=0.0) for r in rs]
        path = tmp_path / "header.csv"
        text = sweep_to_csv(SweepTable(rows=rows, m=1.0, grid={}, config={}))
        path.write_text(text.replace("\nr,", f"\n{header}\nr,", 1))   # after "# m = 1"
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--format", "json")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("text", ["r,W\n10,-0.001\n12,-0.0005\n", "hello\n"],
                             ids=["r_W", "hello"])
    def test_input_without_sweep_columns_exits_3(self, capsys, tmp_path, text):
        # both raised KeyError: 'E_plate'
        path = tmp_path / "other.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "lacks columns n_xi, n_rho, E_plate" in err

    @pytest.mark.parametrize("row, word", [("10,10,10,nan,-0.25,nan,1,", "non-finite"),
                                           ("-5,10,10,-0.26,-0.25,-0.01,1,", "positive")],
                             ids=["nan_energy", "negative_r"])
    def test_corrupt_sweep_rows_exit_3(self, capsys, tmp_path, row, word):
        # both were fitted: c3 = nan, and a fit through r = -5
        path = tmp_path / "corrupt.csv"
        path.write_text(f"{','.join(asymptotics.CSV_COLUMNS)}\n{row}\n"
                        "12,10,10,-0.2506,-0.25,-0.0006,1,\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and word in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_r_below_half_h_exits_3_before_any_solve(self, capsys, monkeypatch, jobs):
        calls = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kwargs: calls.append("pool"))
        monkeypatch.setattr(asymptotics, "lowest_eigenpair",
                            lambda *args, **kwargs: calls.append("solve"))
        code, out, err = run_cli(capsys, "sweep", "--r-values", "0.01,10", "--jobs", jobs)
        assert code == 3 and out == "" and calls == []
        assert len(err.splitlines()) == 1 and "h/2" in err

    def test_row_factor_failure_gives_gap_row(self, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(asymptotics, "lowest_eigenpair", singular)
        code, out, err = run_cli(capsys, "sweep", "--r-values", "6",
                                 "--h", "0.4", "--l-xi", "8", "--l-rho", "8")
        assert code == 2
        assert "Factor is exactly singular" in out.splitlines()[-1]
        assert "Traceback" not in err


def test_cli_import_skips_special_and_optimize():
    # every CLI call pays the import; scipy.special and scipy.optimize are
    # loaded only by the code that needs them, multiprocessing and the
    # process pool only by a sweep with jobs > 1
    probe = ("import sys, vdwplate.cli; "
             "print(sorted({'scipy.special', 'scipy.optimize', 'multiprocessing', "
             "'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCvAndHelium:
    def test_cv_hydrogen(self, capsys):
        code, out, _ = run_cli(capsys, "cv", "--molecule", "hydrogen", "--v", "0,0,1")
        assert code == 0
        assert float(grab(out, "C")) == pytest.approx(1.0, abs=1e-6)

    def test_cv_helium(self, capsys):
        # T = <(x1 + x2)(x1 + x2)^T> = 2 (<R^2>/3) I = 2 I at z = 2, so
        # C = (v.T.v + tr T)/16 = (2 + 6)/16 for every v
        code, out, _ = run_cli(capsys, "cv", "--molecule", "helium",
                               "--v", "0.3,0.4,0.8660254037844386")
        assert code == 0
        assert grab(out, "# state") == "doubly occupied scaled orbital (variational state)"
        assert abs(float(grab(out, "C")) - 0.5) <= 1e-12

    def test_cv_infinite_component_exits_3_with_one_line(self):
        # the norm was taken before the finiteness check: NumPy's
        # RuntimeWarning and its source line came before the error line
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "vdwplate.cli",
                               "cv", "--v", "inf,0,0"],
                              capture_output=True, text=True, env=_src_env(), timeout=120)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: vector components must be finite"]

    @pytest.mark.parametrize("v, printed", [
        ("1e200,0,0", "1,0,0"),
        ("1e-200,0,0", "1,0,0"),
        ("1e308,1e308,0", "0.70710678118654746,0.70710678118654746,0"),
    ])
    def test_cv_extreme_scale_direction(self, capsys, v, printed):
        # nonzero finite directions whose plain norm overflows or underflows
        code, out, err = run_cli(capsys, "cv", "--v", v)
        assert code == 0 and err == ""
        assert grab(out, "# v") == printed

    def test_cv_unknown_molecule(self, capsys):
        code, _, _ = run_cli(capsys, "cv", "--molecule", "argon")
        assert code == 3

    def test_helium(self, capsys):
        code, out, _ = run_cli(capsys, "helium")
        assert code == 0
        assert float(grab(out, "total")) == pytest.approx(-1.375, rel=5e-3)
        assert float(grab(out, "repulsion")) == pytest.approx(0.625, rel=5e-3)

    def test_quadrature_failure_exits_2(self, capsys, monkeypatch):
        def unconverged():
            raise QuadratureError("radial quadrature not converged")

        monkeypatch.setattr(cli, "helium_variational_energy", unconverged)
        code, out, err = run_cli(capsys, "helium")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err


class TestFeshbachDemo:
    def test_demo(self, capsys):
        code, out, _ = run_cli(capsys, "feshbach-demo", "--n", "30", "--trials", "3")
        assert code == 0
        worst = float(out.splitlines()[-1].split("=")[1])
        assert worst <= 1e-10

    @pytest.mark.parametrize("argv", [("--n", "1"), ("--n", "0"), ("--trials", "0")])
    def test_too_small_inputs_exit_3(self, capsys, argv):
        # n = 1 has no second eigenvalue to bracket with; trials = 0 reported
        # a worst error of 0 without a single trial
        code, out, err = run_cli(capsys, "feshbach-demo", *argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestPlumbing:
    def test_unknown_flag_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eplate", "--bogus"])
        assert exc.value.code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("helium", "--output", "{tmp}/missing/he.txt"),
        ("hydrogen", "--config", "{tmp}/missing.cfg", "--r", "8"),
        ("fit", "--input", "{tmp}/missing.csv"),
        ("sweep", "--r-values", "8,10", "--h", "0.4", "--l-xi", "10", "--l-rho", "10",
         "--jobs", "2"),
    ], ids=["output", "config", "input", "pool"])
    def test_os_error_returns_4(self, capsys, tmp_path, monkeypatch, argv):
        # main returns the code itself: no SystemExit, no traceback; a
        # refused fork at pool start escaped main as BlockingIOError
        def refused(*args, **kwargs):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: [Errno ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["eplate", "--config", "x"], ["eplate", "--seed", "1"],
        ["fit", "--input", "x", "--config", "x"], ["fit", "--input", "x", "--seed", "1"],
        ["cv", "--config", "x"], ["cv", "--seed", "1"],
        ["helium", "--config", "x"], ["helium", "--seed", "1"],
        ["feshbach-demo", "--config", "x"],
        ["hydrogen", "--r", "6", "--tol", "0"], ["hydrogen", "--r", "6", "--seed", "1"],
        ["sweep", "--r-values", "6", "--tol", "0"], ["sweep", "--r-values", "6", "--seed", "1"],
        ["fit", "--input", "x", "--weight-power", "6"], ["eplate", "--no-extrapolate"],
    ])
    def test_unread_flags_exit_3(self, capsys, argv):
        # --config exists only where a command reads it, --seed only for
        # feshbach-demo, and the solve takes no tolerance
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "eplate", "--n", "512", "--L", "120")
        _, out2, _ = run_cli(capsys, "eplate", "--n", "512", "--L", "120")
        assert out1 == out2
        _, cv1, _ = run_cli(capsys, "cv", "--v", "0.3,0.4,0.5")
        _, cv2, _ = run_cli(capsys, "cv", "--v", "0.3,0.4,0.5")
        assert cv1 == cv2

    def test_output_echoes_configuration(self, capsys):
        _, out, _ = run_cli(capsys, "eplate", "--n", "512", "--L", "120")
        assert "# vdwplate 0.1.0" in out
        assert "# n = 512" in out

    def test_outdir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("VDWPLATE_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "helium", "--output", "he.txt")
        assert code == 0
        assert (tmp_path / "he.txt").exists()

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 6\nm = 1\nh = 0.4\nL_xi = 8\nL_rho = 8\n")
        code, out, _ = run_cli(capsys, "hydrogen", "--config", str(cfg))
        assert code == 0
        assert float(grab(out, "E")) < -0.2
        # flag overrides the config-file m
        code, out2, _ = run_cli(capsys, "hydrogen", "--config", str(cfg), "--m", "0")
        assert code == 0
        assert float(grab(out2, "W")) == 0.0

    # every flag of every subcommand; a new input needs an edit here
    SURFACE = {
        "eplate": {"--output", "--n", "--L"},
        "hydrogen": {"--output", "--config", "--r", "--m", "--h", "--l-xi", "--l-rho"},
        "sweep": {"--output", "--config", "--r-values", "--m", "--h", "--l-xi",
                  "--l-rho", "--jobs", "--format"},
        "fit": {"--output", "--input", "--exponents", "--format"},
        "cv": {"--output", "--molecule", "--v"},
        "helium": {"--output"},
        "feshbach-demo": {"--output", "--n", "--trials", "--seed"},
    }

    @staticmethod
    def _help(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_cli_surface(self, capsys):
        top = self._help(capsys)
        commands = re.search(r"\{([\w,-]+)\}", top).group(1).split(",")
        assert set(commands) == set(self.SURFACE)
        flag = r"(?<![\w-])--[A-Za-z][\w-]*"
        assert set(re.findall(flag, top)) == {"--help", "--version"}
        found = {c: set(re.findall(flag, self._help(capsys, c))) - {"--help"}
                 for c in commands}
        assert found == self.SURFACE
        assert sum(len(flags) for flags in found.values()) == 31
        assert set(CONFIG_KEYS) == {"r", "m", "h", "L_xi", "L_rho"}
