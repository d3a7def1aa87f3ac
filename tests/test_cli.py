import json

import numpy as np
import pytest

from vdwplate import asymptotics, cli
from vdwplate.asymptotics import SweepRow, SweepTable, sweep_to_csv
from vdwplate.cli import main
from vdwplate.multipole import QuadratureError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_coarse_grid_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "eplate", "--n", "16", "--L", "40")
        assert code == 0
        assert "warning" in out

    def test_bad_input_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "eplate", "--n", "4", "--L", "10")
        assert code == 3


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

    def test_unreachable_tolerance_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 40\n")
        code, out, _ = run_cli(capsys, "hydrogen", "--r", "8", "--h", "0.4",
                               "--l-xi", "10", "--l-rho", "10", "--tol", "1e-30",
                               "--config", str(cfg))
        assert code == 2
        assert "non-convergence" in out

    def test_negative_r_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "hydrogen", "--r", "-1")
        assert code == 3

    def test_bad_m_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "hydrogen", "--r", "5", "--m", "2")
        assert code == 3


class TestSweepAndFit:
    def test_sweep_csv_then_fit(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--r-values", "6,8",
                             "--h", "0.4", "--l-xi", "8", "--l-rho", "8",
                             "--output", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# vdwplate sweep")
        assert "r,n_xi,n_rho,E_plate,E_free,W,error" in text

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

    def test_sweep_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--r-values", "6",
                               "--h", "0.4", "--l-xi", "8", "--l-rho", "8",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["r"] == 6.0

    def test_missing_input_exits_4(self, capsys):
        code, _, _ = run_cli(capsys, "fit", "--input", "/nonexistent/sweep.csv")
        assert code == 4

    def test_row_factor_failure_gives_gap_row(self, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(asymptotics, "lowest_eigenpair", singular)
        code, out, err = run_cli(capsys, "sweep", "--r-values", "6",
                                 "--h", "0.4", "--l-xi", "8", "--l-rho", "8")
        assert code == 2
        assert "Factor is exactly singular" in out.splitlines()[-1]
        assert "Traceback" not in err


class TestCvAndHelium:
    def test_cv_hydrogen(self, capsys):
        code, out, _ = run_cli(capsys, "cv", "--molecule", "hydrogen", "--v", "0,0,1")
        assert code == 0
        assert float(grab(out, "C")) == pytest.approx(1.0, abs=1e-6)

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


class TestPlumbing:
    def test_unknown_flag_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eplate", "--bogus"])
        assert exc.value.code == 3
        capsys.readouterr()

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
        cfg.write_text("r = 6\nm = 1\nh = 0.4\nL_xi = 8\nL_rho = 8\n"
                       "n_xi = 35\nn_rho = 20\n")
        code, out, _ = run_cli(capsys, "hydrogen", "--config", str(cfg))
        assert code == 0
        assert float(grab(out, "E")) < -0.2
        # flag overrides the config-file m
        code, out2, _ = run_cli(capsys, "hydrogen", "--config", str(cfg), "--m", "0")
        assert code == 0
        assert float(grab(out2, "W")) == 0.0
