import json
import math
import os
import subprocess
import sys

import pytest

from repeatersim import applications, cli, config


def run_cli(argv, tmp_path=None, env_extra=None):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestRates:
    def test_json_has_rate_fields(self):
        code, out = run_cli(["rates"])
        assert code == 0
        payload = json.loads(out)
        for field in ("kappa_prime", "gamma_s_prime", "snr", "squeeze",
                      "excitation_prob", "optical_depth"):
            assert field in payload
        assert payload["schema_version"] == 1

    def test_zero_detuning_exits_2_naming_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[ensemble]\ndetuning = 0\n")
        code = cli.main(["--config", cfg, "rates"])
        assert code == 2
        assert "ensemble.detuning" in capsys.readouterr().err

    def test_csv_single_row(self):
        code, out = run_cli(["rates", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# schema_version=1"
        assert len(lines) == 3
        assert lines[1].startswith("kappa_prime,")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[repeater]\nbogus = 1\n")
        code = cli.main(["--config", cfg, "rates"])
        assert code == 2
        assert "repeater.bogus" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["--config", str(tmp_path / "absent.ini"), "rates"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config")

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[ensemble]\ndetuning = \xff\n")
        code = cli.main(["--config", str(path), "rates"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config")

    def test_unwritable_output_is_an_output_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["rates", "--out", str(blocker / "rates.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert "config error" not in err


class TestDynamics:
    def test_writes_time_series(self, tmp_path):
        out_file = tmp_path / "dyn.csv"
        code, out = run_cli(["dynamics", "--out", str(out_file)])
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[1] == "t,pop_collective,pop_noise_mode,ratio"
        assert len(lines) >= 102   # schema line + header + 100 rows
        assert "extracted rate ratio" in out

    def test_summary_ratio_close_to_analytic(self, tmp_path):
        out_file = tmp_path / "dyn.csv"
        _, out = run_cli(["dynamics", "--out", str(out_file)])
        # "extracted rate ratio X vs analytic Y (deviation Z%)"
        deviation = float(out.split("deviation")[1].strip().rstrip("%)\n"))
        assert deviation < 5.0

    def test_no_spontaneous_emission_zeroes_noise_column(self, tmp_path):
        cfg = write_config(tmp_path, "[ensemble]\nspont_rate = 0\n")
        out_file = tmp_path / "dyn.csv"
        code, _ = run_cli(["--config", cfg, "dynamics", "--out", str(out_file)])
        assert code == 0
        rows = out_file.read_text().strip().splitlines()[2:]
        noise = [float(r.split(",")[2]) for r in rows]
        assert max(abs(v) for v in noise) < 1e-10

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_short_time_grid_exits_3(self, tmp_path, capsys, points):
        out_file = tmp_path / "dyn.csv"
        code, out = run_cli(["dynamics", "--points", points, "--out", str(out_file)])
        assert code == 3
        assert out == ""
        assert "at least two time points" in capsys.readouterr().err
        assert not out_file.exists()

    def test_many_noise_modes_print_the_four_mode_summary(self, tmp_path):
        # noise modes are identical; a dense 12-mode state would need
        # 3^24 entries
        _, four = run_cli(["dynamics", "--modes", "4", "--out", str(tmp_path / "a.csv")])
        code, twelve = run_cli(["dynamics", "--modes", "12",
                                "--out", str(tmp_path / "b.csv")])
        assert code == 0
        assert twelve == four
        assert (tmp_path / "b.csv").read_text() == (tmp_path / "a.csv").read_text()


class TestChain:
    def test_csv_columns(self):
        code, out = run_cli(["chain", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "i,L_i,c_i,p_i,dF_i,T_i"
        assert len(lines) == 2 + 3   # levels = 2 -> rows 0..2


class TestChsh:
    def test_value_is_tsirelson(self):
        code, out = run_cli(["chsh"])
        assert code == 0
        payload = json.loads(out)
        assert payload["chsh"] == pytest.approx(2.8284271, abs=1e-6)
        assert "E_matrix" in payload and "settings" in payload

    def test_summary_matches_library_circuit(self):
        cfg = config.from_raw(config.default_raw())
        summary = cli.chsh_summary(cfg)
        c_n, phi = cfg.applications.vacuum_coeff, cfg.applications.phase
        eta_a = cfg.repeater.app_efficiency
        assert summary["chsh"] == applications.chsh_value(c_n, phi, eta_a)
        for (psi_l, psi_r), e in zip(summary["settings"],
                                     sum(summary["E_matrix"], [])):
            setting = applications.MeasurementSetting(psi_l, psi_r)
            assert e == applications.correlation(c_n, phi, setting, eta_a).value
        last = applications.correlation(
            c_n, phi, applications.MeasurementSetting(math.pi / 2, 3 * math.pi / 4), eta_a)
        assert summary["coincidence_prob"] == last.coincidence_prob


class TestScaling:
    def test_direct_baseline_column(self, tmp_path):
        cfg = write_config(tmp_path, "[repeater]\ndark_prob = 0\n")
        code, out = run_cli(["--config", cfg, "scaling", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[1].split(",")
        assert header == ["L_over_Latt", "L0_over_Latt", "n", "ratio_compositional",
                          "ratio_closed_form", "ratio_direct"]
        direct = float(lines[2].split(",")[5])
        assert direct == pytest.approx(math.exp(100.0), rel=1e-6)

    def test_infeasible_budget_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[scaling]\ntotal_length = 0.5\n")
        code = cli.main(["--config", cfg, "optimize"])
        assert code in (2, 4) or code == 3
        # total_length below L_att cannot be segmented
        assert code != 0


class TestOptimize:
    def test_power_law(self):
        code, out = run_cli(["optimize", "--objective", "power_law", "--m", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["L0_star"] == pytest.approx(2.0, rel=1e-9)

    def test_compositional_default(self, tmp_path):
        cfg = write_config(tmp_path, "[repeater]\ndark_prob = 0\n")
        code, out = run_cli(["--config", cfg, "optimize"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n_star"] is not None
        assert payload["value"] > 0


class TestEkert:
    def test_report_fields(self):
        code, out = run_cli(["ekert", "--rounds", "5000", "--seed", "9"])
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 9
        assert payload["key_length"] > 0
        assert payload["qber"] == 0.0


class TestTeleport:
    def test_fidelity_one(self):
        code, out = run_cli(["teleport", "--bloch-theta", "1.0", "--bloch-phi", "2.0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["output_fidelity"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("flag,value", [("--bloch-theta", "nan"),
                                            ("--bloch-phi", "inf")])
    def test_non_finite_angle_exits_3_naming_reason(self, flag, value, capsys):
        code, out = run_cli(["teleport", flag, value])
        assert code == 3
        assert out == ""
        assert "Bloch angles must be finite" in capsys.readouterr().err


class TestMonteCarlo:
    def test_report_and_determinism(self):
        argv = ["montecarlo", "--trials", "3000", "--level", "1", "--seed", "5"]
        code_a, out_a = run_cli(argv)
        code_b, out_b = run_cli(argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a)
        for field in ("params_echo", "n_trials", "seed", "mean_s", "stddev_s",
                      "ci95_s", "analytic_Tn_s", "ratio"):
            assert field in payload

    def test_seed_override_changes_samples(self):
        _, out_a = run_cli(["montecarlo", "--trials", "2000", "--seed", "1"])
        _, out_b = run_cli(["montecarlo", "--trials", "2000", "--seed", "2"])
        assert json.loads(out_a)["mean_s"] != json.loads(out_b)["mean_s"]

    def test_trace_csv(self, tmp_path):
        trace = tmp_path / "trials.csv"
        code, _ = run_cli(["montecarlo", "--trials", "100", "--trace-csv", str(trace)])
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[1] == "trial,time_s"
        assert len(lines) == 102

    def test_level_beyond_draw_budget_exits_4(self, capsys):
        # level 8 at the default 10 000 trials expects about 2e14 draws
        code, out = run_cli(["montecarlo", "--level", "8"])
        assert code == 4
        assert out == ""
        assert "draws" in capsys.readouterr().err


class TestSweep:
    def test_rates_sweep_table(self):
        code, out = run_cli(["rates", "--sweep", "ensemble.detuning=5:20:4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("ensemble.detuning,")
        assert len(lines) == 2 + 4

    def test_bad_sweep_key(self, capsys):
        code = cli.main(["rates", "--sweep", "ensemble.nope=1:2:2"])
        assert code == 2

    def test_unsupported_command(self, capsys):
        code = cli.main(["teleport", "--sweep", "applications.phase=0:1:2"])
        assert code == 2


class TestOutputDirEnv:
    def test_outdir_redirects_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPEATERSIM_OUTDIR", str(tmp_path))
        code, _ = run_cli(["chain", "--format", "csv", "--out", "chain.csv"])
        assert code == 0
        assert (tmp_path / "chain.csv").exists()


class TestEntryPoint:
    def test_cli_does_not_import_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "import repeatersim, repeatersim.cli\n"
            "for argv in (['rates'], ['chain'], ['teleport'],\n"
            "             ['dynamics', '--out', sys.argv[1]]):\n"
            "    assert repeatersim.cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "d.csv")],
                              capture_output=True, env=env, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_module_invocation_byte_identical(self):
        cmd = [sys.executable, "-m", "repeatersim.cli", "chsh"]
        env = dict(os.environ)
        a = subprocess.run(cmd, capture_output=True, env=env, text=True)
        b = subprocess.run(cmd, capture_output=True, env=env, text=True)
        assert a.returncode == 0
        assert a.stdout == b.stdout
