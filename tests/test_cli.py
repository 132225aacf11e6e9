import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repeatersim import applications, cli, config, scaling


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

    @pytest.mark.parametrize("key,value", [("ensemble.detuning", "nan"),
                                           ("ensemble.rabi", "inf"),
                                           ("repeater.pulse_time", "-inf"),
                                           ("scaling.total_length", "1e400")])
    def test_non_finite_value_exits_2_naming_field(self, tmp_path, capsys, key, value):
        section, field = key.split(".")
        cfg = write_config(tmp_path, f"[{section}]\n{field} = {value}\n")
        code, out = run_cli(["--config", cfg, "rates"])
        assert code == 2
        assert out == ""
        assert f"{key}: {value!r} is not a finite number" in capsys.readouterr().err

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

    @pytest.mark.parametrize("ini,reason", [
        ("[ensemble]\nspont_rate = 0\n", "snr is infinite at ensemble.spont_rate = 0.0"),
        ("[ensemble]\nrabi = 0\n", "bad_cavity_ratio is infinite at ensemble.rabi = 0.0"),
        ("[ensemble]\ncoupling = 0\n",
         "bad_cavity_ratio is infinite at ensemble.coupling = 0.0"),
        # neither key is 0, their product underflows
        ("[ensemble]\nrabi = 1e-200\ncoupling = 1e-200\n",
         "bad_cavity_ratio is infinite at ensemble.rabi = 1e-200, "
         "ensemble.coupling = 1e-200"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_infinite_field_exits_3_naming_its_keys(self, tmp_path, capsys, ini, reason, fmt):
        code, out = run_cli(["--config", write_config(tmp_path, ini), "rates", "--format", fmt])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == f"numeric failure: {reason}\n"

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

    @pytest.mark.parametrize("args,reason", [
        (["--t-max", "nan"], "time window t_max = nan must be positive and finite"),
        (["--t-max", "inf"], "time window t_max = inf must be positive and finite"),
        (["--t-max", "-1"], "time window t_max = -1.0 must be positive and finite"),
        (["--t-max", "0"], "time window t_max = 0.0 must be positive and finite"),
        (["--points", "-1"], "the time grid needs at least two time points, got -1"),
    ])
    def test_bad_time_grid_exits_3_with_own_reason(self, tmp_path, capsys, args, reason):
        out_file = tmp_path / "dyn.csv"
        code, out = run_cli(["dynamics", *args, "--out", str(out_file)])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == f"numeric failure: {reason}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("points", [100_001, 1_000_000_000])
    def test_points_over_the_limit_exit_4_before_any_grid(self, tmp_path, capsys,
                                                          monkeypatch, points):
        def built(*args):
            raise AssertionError("dynamics built its grid")

        monkeypatch.setattr(cli, "_linspace", built)
        monkeypatch.setattr(cli.ensemble, "integrate_master_equation", built)
        out_file = tmp_path / "dyn.csv"
        code, out = run_cli(["dynamics", "--points", str(points), "--out", str(out_file)])
        assert code == 4
        assert out == ""
        assert capsys.readouterr().err == (
            f"infeasible: {points} time points are over the limit of 100000\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("cutoff", [101, 1_000_000_000])
    def test_cutoff_over_the_limit_exits_4_before_any_grid(self, tmp_path, capsys,
                                                           monkeypatch, cutoff):
        def built(*args):
            raise AssertionError("dynamics built its grid")

        monkeypatch.setattr(cli, "_linspace", built)
        monkeypatch.setattr(cli.ensemble, "integrate_master_equation", built)
        out_file = tmp_path / "dyn.csv"
        code, out = run_cli(["dynamics", "--cutoff", str(cutoff), "--out", str(out_file)])
        assert code == 4
        assert out == ""
        assert capsys.readouterr().err == (
            f"infeasible: photon-number cutoff {cutoff} is over the limit of 100\n")
        assert not out_file.exists()

    def test_cutoff_at_the_limit_runs(self, tmp_path):
        code, out = run_cli(["dynamics", "--cutoff", "100", "--out", str(tmp_path / "d.csv")])
        assert code == 0
        assert "extracted rate ratio" in out

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
        summary, table = cli.chsh_report(cfg, None)
        assert table is None
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


    @pytest.mark.parametrize("command", ["chsh", "ekert"])
    def test_subnormal_coincidence_weight_exits_3(self, command, tmp_path, capsys):
        # eta_a^2 / (2 (c_n + 1)^2) = 1.25e-321, below the normal floats
        cfg = write_config(tmp_path, "[applications]\nvacuum_coeff = 1\n"
                                     "[repeater]\napp_efficiency = 1e-160\n")
        code, out = run_cli(["--config", cfg, command])
        assert code == 3
        assert out == ""
        assert "no coincidences: correlation undefined" in capsys.readouterr().err


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_table_is_the_optimizers_single_scan(self, monkeypatch, fmt):
        calls = []
        total_time = scaling.total_time

        def counted(*args, **kwargs):
            calls.append(args[0].levels)
            return total_time(*args, **kwargs)

        monkeypatch.setattr(scaling, "total_time", counted)
        code, out = run_cli(["scaling", "--format", fmt])
        assert code == 0
        n_max = config.from_raw(config.default_raw()).scaling.n_max
        assert calls == list(range(1, n_max + 1))

    @pytest.mark.parametrize("section,key,value,reason", [
        ("ensemble", "density", "0", "density must be positive"),
        ("ensemble", "sample_length", "0", "sample_length must be positive"),
        ("ensemble", "wavenumber", "0", "wavenumber must be positive"),
        ("scaling", "total_length", "0", "total_length must be positive"),
        ("scaling", "target_infidelity", "0", "target_infidelity must be in (0, 1)"),
        ("scaling", "target_infidelity", "1", "target_infidelity must be in (0, 1)"),
        ("scaling", "per_connection_dark", "-1e-300", "per_connection_dark must be >= 0"),
        ("scaling", "asym", "-1e-300", "asym must be >= 0"),
        ("scaling", "n_max", "0", "n_max must be >= 1"),
        ("scaling", "n_max", "1024",
         "n_max must be <= 1023, got 1024: the segment length L/2^n must be a float"),
        ("applications", "vacuum_coeff", "-1e-300", "vacuum_coeff must be >= 0"),
        ("applications", "rounds", "0", "rounds must be >= 1"),
        ("output", "format", "xml", "format must be json or csv"),
        ("output", "precision", "0", "precision must be in [1, 17]"),
        ("output", "precision", "18", "precision must be in [1, 17]"),
    ])
    def test_option_key_just_outside_its_range_exits_2_naming_it(
            self, tmp_path, capsys, section, key, value, reason):
        cfg = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
        code, out = run_cli(["--config", cfg, "scaling"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"config error: {section}.{key}: {reason}\n"

    def test_n_max_at_the_bound_runs(self, tmp_path):
        cfg = write_config(tmp_path, "[scaling]\nn_max = 1023\n")
        code, _ = run_cli(["--config", cfg, "optimize"])
        assert code == 0


class TestOverflowRefusals:
    @pytest.mark.parametrize("command", ["scaling", "optimize"])
    def test_overflowed_total_time_exits_4(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "[repeater]\npulse_time = 1e300\n")
        code, out = run_cli(["--config", cfg, command])
        assert code == 4
        assert out == ""
        assert capsys.readouterr().err == (
            "infeasible: no feasible segmentation in the scanned range\n")

    def test_overflowed_chain_time_exits_3_naming_the_level(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[repeater]\npulse_time = 1e300\nlevels = 8\n")
        code, out = run_cli(["--config", cfg, "chain"])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == (
            "numeric failure: time T_7 = inf s at level 7 overflows a float\n")

    @pytest.mark.parametrize("length,n_star,value", [(1000, 9, 3.76168325e24),
                                                     (4000, 11, 4.26791645e39)])
    def test_long_channel_optimizes_past_the_direct_baseline(self, tmp_path, length,
                                                               n_star, value):
        # exp(L/L_att) overflows above L = 709.8 and the short-segmentation
        # rows have no signal (n = 1, 2 at 4000) or overflow; the rest are feasible
        cfg = write_config(tmp_path, f"[scaling]\ntotal_length = {length}\n")
        code, out = run_cli(["--config", cfg, "optimize"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["n_star"], payload["value"]) == (n_star, value)

    @pytest.mark.parametrize("length", [1000, 4000])
    def test_overflowed_direct_baseline_exits_3_naming_it(self, tmp_path, capsys, length):
        cfg = write_config(tmp_path, f"[scaling]\ntotal_length = {length}\n")
        code, out = run_cli(["--config", cfg, "scaling"])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == (
            f"numeric failure: direct baseline exp(L/L_att) = exp({float(length)!r}) "
            "overflows a float\n")

    def test_overflowed_montecarlo_statistics_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[repeater]\npulse_time = 1e300\n")
        code, out = run_cli(["--config", cfg, "montecarlo"])
        assert code == 3
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: waiting-time statistics of 10000 trials "
                              "overflow a float: ")


class TestOptimize:
    def test_power_law(self):
        code, out = run_cli(["optimize", "--objective", "power_law", "--m", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["L0_star"] == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("m", ["nan", "inf", "-inf", "0"])
    def test_power_law_exponent_not_positive_finite_exits_3(self, m, capsys):
        code, out = run_cli(["optimize", "--objective", "power_law", f"--m={m}"])
        assert code == 3
        assert out == ""
        assert "exponent must be positive and finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("seed", ["-1", "99999999999999999999999999"])
    def test_seed_outside_64_bits_exits_3_naming_the_seed(self, seed, capsys):
        code, out = run_cli(["ekert", "--rounds", "1000", "--seed", seed])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == \
            f"numeric failure: seed must fit in 64 bits, got {seed}\n"

    def test_rounds_beyond_draw_budget_exits_4(self, capsys):
        # three draws a round: 4e8 rounds need 1.2e9 draws, past the 1e9 budget;
        # the request is refused before any array is allocated
        code, out = run_cli(["ekert", "--rounds", "400000000", "--seed", "9"])
        assert code == 4
        assert out == ""
        err = capsys.readouterr().err
        assert "1.2e+09 random draws" in err and "budget of 1e+09" in err

    def test_rounds_beyond_memory_cap_exits_4(self, capsys):
        # 3e8 rounds are within the draw budget but would hold about 16 GiB
        code, out = run_cli(["ekert", "--rounds", "300000000", "--seed", "9"])
        assert code == 4
        assert out == ""
        err = capsys.readouterr().err
        assert "300000000 rounds would hold about" in err and "memory cap of 1024 MiB" in err


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

    @pytest.mark.parametrize("seed", ["-1", "99999999999999999999999999"])
    def test_seed_outside_64_bits_exits_3_naming_the_seed(self, seed, capsys):
        code, out = run_cli(["montecarlo", "--trials", "100", "--seed", seed])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == \
            f"numeric failure: seed must fit in 64 bits, got {seed}\n"

    def test_config_seed_outside_64_bits_exits_2_naming_the_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[trials]\nseed = 18446744073709551616\n")
        code, out = run_cli(["--config", cfg, "montecarlo"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == ("config error: trials.seed: seed must fit in "
                                           "64 bits, got 18446744073709551616\n")

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

    def test_trials_beyond_memory_cap_exit_4(self, capsys):
        # 1e9 level-0 trials are 1e9 draws, within the budget, but their
        # samples alone would take 8 GB
        code, out = run_cli(["montecarlo", "--level", "0", "--trials", "1000000000"])
        assert code == 4
        assert out == ""
        assert "MiB, over the memory cap of 1024 MiB" in capsys.readouterr().err

    def test_trace_beyond_memory_cap_exits_4(self, tmp_path, capsys):
        # 1e7 level-0 samples fit, their formatted trace rows do not
        trace = tmp_path / "trials.csv"
        code, out = run_cli(["montecarlo", "--level", "0", "--trials", "10000000",
                             "--trace-csv", str(trace)])
        assert code == 4
        assert out == "" and not trace.exists()
        assert "a trace of 10000000 trials would hold" in capsys.readouterr().err


class TestFormatting:
    def test_emit_json_serialises_numpy_integers(self, capsys):
        cfg = config.from_raw(config.read_raw(None))
        cli.emit_json({"count": np.int64(3), "value": np.float64(0.1234567891234)},
                      cfg, "")
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 3 and isinstance(payload["count"], int)
        assert payload["value"] == 0.123456789

    @pytest.mark.parametrize("argv, first", [
        (["teleport"], "bloch_theta,"),
        (["ekert", "--rounds", "1000"], "rounds,"),
        (["montecarlo", "--trials", "100"], "n_trials,"),
    ])
    def test_sampled_reports_follow_csv_format(self, argv, first, tmp_path):
        # the flag and the config key select CSV alike; a nested field, the
        # Monte Carlo parameter echo, stays out of the row
        by_config = ["--config", write_config(tmp_path, "[output]\nformat = csv\n")]
        for args in (argv + ["--format", "csv"], by_config + argv):
            code, out = run_cli(args)
            assert code == 0
            lines = out.strip().splitlines()
            assert len(lines) == 3 and lines[0] == "# schema_version=1"
            assert lines[1].startswith(first) and "params_echo" not in lines[1]
            assert len(lines[2].split(",")) == len(lines[1].split(","))

    def test_sweep_keeps_numpy_integer_columns(self, monkeypatch):
        monkeypatch.setitem(cli.REPORTS, "rates",
                            lambda cfg, args: ({"n": np.int64(7), "x": 0.5}, None))
        code, out = run_cli(["rates", "--sweep", "ensemble.detuning=5:20:2"])
        assert code == 0
        assert out.strip().splitlines()[1:] == ["ensemble.detuning,n,x",
                                                "5.0,7,0.5", "20.0,7,0.5"]


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

    @pytest.mark.parametrize("command", ["dynamics", "teleport", "ekert", "montecarlo"])
    def test_unsupported_command(self, command, capsys):
        code, out = run_cli([command, "--sweep", "applications.phase=0:1:2"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"config error: --sweep is not supported for {command}\n"

    @pytest.mark.parametrize("spec", [
        "ensemble.detuning=1:2:1", "ensemble.detuning=1:2:2", "ensemble.detuning=20:5:7",
        "ensemble.detuning=5:5:3", "ensemble.detuning=-5:-20:3", "ensemble.rabi=-0.0:3:4",
        "ensemble.rabi=-2.5:0.0:1", "ensemble.rabi=-0.0:1:1", "ensemble.rabi=0.1:0.7:11",
        # the step underflows to zero
        "ensemble.rabi=0:5e-324:3",
        # the two sweeps of the `cli_session` benchmark workload
        "repeater.swap_efficiency=0.5:0.9:5", "ensemble.atom_count=50:200:4",
    ])
    def test_grid_equals_numpy_linspace_bit_for_bit(self, spec):
        key, values = cli._parse_sweep(spec)
        lo, hi, steps = spec.split("=")[1].split(":")
        want = np.linspace(float(lo), float(hi), int(steps))
        assert key == spec.split("=")[0]
        assert all(isinstance(v, float) for v in values)
        assert np.array(values).tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", ["ensemble.detuning=nan:1:3",
                                      "ensemble.detuning=1:inf:3",
                                      "ensemble.detuning=-inf:1:2",
                                      "ensemble.atom_count=nan:1:2"])
    def test_non_finite_bound_exits_2_naming_key(self, spec, capsys):
        code, out = run_cli(["rates", "--sweep", spec])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {spec.split('=')[0]}: sweep bounds must be finite")

    @pytest.mark.parametrize("steps", ["0", "MAX+1", "1000000000"])
    def test_step_count_outside_the_limit_is_refused_before_the_grid(
            self, steps, monkeypatch, capsys):
        def no_grid(*args):
            raise AssertionError("grid built for a refused sweep")

        monkeypatch.setattr(cli, "_linspace", no_grid)
        steps = steps.replace("MAX+1", str(cli.MAX_SWEEP_STEPS + 1))
        code, out = run_cli(["rates", "--sweep", f"ensemble.detuning=1:2:{steps}"])
        assert code == 2
        assert out == ""
        assert f"ensemble.detuning: sweep needs 1 to {cli.MAX_SWEEP_STEPS} steps, " \
               f"got {steps}" in capsys.readouterr().err


class TestContract:
    COMMANDS = (*cli.REPORTS, "dynamics")
    EXTREMES = {float: ("0", "-1", "1e300", "1e-300"), int: ("0", "-1", "1000000000"),
                str: ("",)}

    @staticmethod
    def refuse_constant(name):
        raise ValueError(f"{name} is not JSON")

    def test_the_parser_declares_exactly_the_table_and_dynamics(self):
        # a new subcommand must join REPORTS (or be dynamics), so the fuzz
        # below and the sweep refusal cover it
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(self.COMMANDS)

    def test_every_single_key_extreme_exits_with_a_code_and_a_reason(self, tmp_path,
                                                                    monkeypatch):
        # each schema key alone at each extreme, against every subcommand at the
        # default seeds; files go to tmp_path.  An exit-0 JSON stdout (every
        # command's but dynamics', which writes its CSV to a file) must parse
        # without NaN or Infinity.
        import contextlib
        import io

        monkeypatch.setenv("REPEATERSIM_OUTDIR", str(tmp_path))
        broken = []
        for section, keys in config.SCHEMA.items():
            for key, (conv, *_) in keys.items():
                for value in self.EXTREMES[conv]:
                    ini = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
                    for command in self.COMMANDS:
                        out, err = io.StringIO(), io.StringIO()
                        try:
                            with contextlib.redirect_stdout(out), \
                                    contextlib.redirect_stderr(err):
                                code = cli.main(["--config", ini, command])
                        except Exception as exc:   # reported with its setting
                            code = repr(exc)
                        if code == 0 and command != "dynamics":
                            try:
                                json.loads(out.getvalue(), parse_constant=self.refuse_constant)
                            except ValueError as exc:
                                code = f"stdout: {exc}"
                        if code not in (0, 2, 3, 4) or (
                                code != 0 and (out.getvalue() or not err.getvalue().strip())):
                            broken.append((f"{section}.{key}={value}", command, code,
                                           err.getvalue()))
        assert broken == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_ensemble_keys_stop_at_the_config(self, tmp_path, capsys, value):
        # the config refuses a non-finite number before EnsembleParams or
        # free_space_snr sees it, so their own refusals leave the CLI as it was
        for key, (conv, *_) in config.SCHEMA["ensemble"].items():
            if conv is float:
                ini = write_config(tmp_path, f"[ensemble]\n{key} = {value}\n")
                assert cli.main(["--config", ini, "rates"]) == 2
                out, err = capsys.readouterr()
                assert out == ""
                assert err.strip() == (f"config error: ensemble.{key}: {value!r} "
                                       "is not a finite number")


class TestConfigModule:
    def test_schema_is_the_only_declaration_of_the_option_keys(self):
        # each key's converter, default and range check sit in its SCHEMA
        # entry; config.py declares no record class of its own
        import ast
        import inspect

        tree = ast.parse(inspect.getsource(config))
        assert [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == \
            ["ConfigError"]
        modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                   for a in n.names}
        modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert "dataclasses" not in modules


class TestRecords:
    def test_ensemble_params_is_the_only_dataclass(self):
        # the other records are namedtuples: a cold process pays no dataclass
        # code generation for them
        import ast
        import pathlib

        decorated = [(path.name, node.name)
                     for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.ClassDef)
                     and any("dataclass" in ast.unparse(d) for d in node.decorator_list)]
        assert decorated == [("ensemble.py", "EnsembleParams")]

    def test_with_checks_the_override(self):
        params = config.load().repeater
        with pytest.raises(ValueError, match="excitation_prob = 1.5 outside its valid range"):
            params.with_(excitation_prob=1.5)
        assert params.with_(levels=3) == params._replace(levels=3)

    @staticmethod
    def checked_records():
        """Each checked record: a valid instance and an override its
        constructor refuses."""
        from repeatersim import fock, montecarlo, protocol

        report = scaling.ScalingReport(1.0, 1.0, 2.0, 1.0, 2.0, (), 1.0, None, 0.5, 0.01,
                                       1.0, 1.0, 0)
        return {
            "MeasurementSetting": (applications.MeasurementSetting(0.1, 0.2),
                                   {"psi_left": math.nan}),
            "PolarizationQubit": (applications.PolarizationQubit(1.0, 0.0), {"d1": 1.0}),
            "ModeLayout": (fock.ModeLayout(2, 2), {"modes": 0}),
            "PureState": (fock.PureState(fock.ModeLayout(1, 1), [1.0, 0.0]),
                          {"amplitudes": [2.0, 0.0]}),
            "DetectorModel": (fock.DetectorModel(), {"efficiency": 1.5}),
            "TrialConfig": (montecarlo.TrialConfig(1, 10), {"threads": 0}),
            "EMEState": (protocol.EMEState(0.5), {"vacuum_coeff": math.nan}),
            "RepeaterParams": (config.load().repeater, {"excitation_prob": 1.5}),
            "ScalingReport": (report, {"t_con": 0.0}),
        }

    @pytest.mark.parametrize("record", ["MeasurementSetting", "PolarizationQubit",
                                        "ModeLayout", "PureState", "DetectorModel",
                                        "TrialConfig", "EMEState", "RepeaterParams",
                                        "ScalingReport"])
    def test_replace_refuses_what_the_constructor_refuses(self, record):
        valid, override = self.checked_records()[record]
        with pytest.raises(ValueError) as built:
            type(valid)(**{**valid._asdict(), **override})
        with pytest.raises(ValueError) as replaced:
            valid._replace(**override)
        assert str(replaced.value) == str(built.value)
        assert type(valid._replace()) is type(valid)

    def test_every_checked_record_routes_replace_through_its_checks(self):
        # a namedtuple record with a ``__new__`` must also set ``_make``, or
        # ``_replace`` builds it through tuple.__new__ unchecked
        import ast
        import pathlib

        unrouted, checked = [], []
        for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef) and any(
                        "namedtuple" in ast.unparse(b) for b in node.bases):
                    names = {t.id for n in node.body if isinstance(n, ast.Assign)
                             for t in n.targets if isinstance(t, ast.Name)}
                    names |= {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                    if "__new__" in names:
                        checked.append(node.name)
                        if "_make" not in names:
                            unrouted.append(node.name)
        assert unrouted == []
        assert sorted(checked) == sorted(self.checked_records())

    def test_threads_override_is_checked(self, capsys):
        code, out = run_cli(["montecarlo", "--trials", "10", "--threads", "0"])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == "numeric failure: threads must be >= 1\n"

    def test_rates_without_config_does_not_load_configparser(self, tmp_path):
        ini = tmp_path / "unknown_key.ini"
        ini.write_text("[repeater]\nno_such_key = 1\n")
        script = (
            "import contextlib, io, sys\n"
            "import repeatersim.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = repeatersim.cli.main(sys.argv[1:])\n"
            "print(code, 'configparser' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def cold(*argv):
            done = subprocess.run([sys.executable, "-c", script, *argv],
                                  capture_output=True, env=env, text=True)
            assert done.returncode == 0, done.stderr
            return done.stdout.split()

        assert cold("rates") == ["0", "False"]
        assert cold("--config", str(ini), "rates") == ["2", "True"]


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

    def test_analytic_commands_run_with_numpy_blocked(self, tmp_path):
        ini = tmp_path / "unknown_key.ini"
        ini.write_text("[repeater]\nno_such_key = 1\n")
        # the analytic invocations of the `cli_session` benchmark workload
        session = [
            (["rates"], 0), (["chain"], 0), (["scaling"], 0), (["optimize"], 0),
            (["optimize", "--objective", "power_law", "--m", "2"], 0),
            (["scaling", "--sweep", "repeater.swap_efficiency=0.5:0.9:5"], 0),
            (["rates", "--sweep", "ensemble.atom_count=50:200:4"], 0),
            (["chsh"], 0), (["teleport", "--bloch-theta", "1.0", "--bloch-phi", "2.0"], 0),
            (["--config", str(ini), "rates"], 2),
            (["optimize", "--objective", "power_law"], 3),
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "import repeatersim, repeatersim.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy imported with the CLI'\n"
            "sys.modules['numpy'] = None\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        code = repeatersim.cli.main(argv)\n"
            "    results.append([code, out.getvalue()])\n"
            "print(json.dumps(results))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps([argv for argv, _ in session])],
            capture_output=True, env=env, text=True)
        assert done.returncode == 0, done.stderr
        blocked = json.loads(done.stdout)
        for (argv, want), (code, out) in zip(session, blocked):
            assert code == want, argv
            assert [code, out] == list(run_cli(argv)), argv

    def test_only_scaling_and_optimize_load_the_scaling_module(self, tmp_path):
        ini = tmp_path / "unknown_key.ini"
        ini.write_text("[repeater]\nno_such_key = 1\n")
        script = (
            "import contextlib, io, json, sys\n"
            "import repeatersim.cli\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        code = repeatersim.cli.main(argv)\n"
            "    loaded.append([code, 'repeatersim.scaling' in sys.modules])\n"
            "print(json.dumps(loaded))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def cold(*argvs):
            done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                                  capture_output=True, env=env, text=True)
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout)

        assert cold(["rates"], ["chain"], ["chsh"], ["teleport"],
                    ["--config", str(ini), "rates"]) == [[0, False]] * 4 + [[2, False]]
        assert cold(["scaling"]) == [[0, True]]
        assert cold(["optimize"]) == [[0, True]]

    def test_module_invocation_byte_identical(self):
        cmd = [sys.executable, "-m", "repeatersim.cli", "chsh"]
        env = dict(os.environ)
        a = subprocess.run(cmd, capture_output=True, env=env, text=True)
        b = subprocess.run(cmd, capture_output=True, env=env, text=True)
        assert a.returncode == 0
        assert a.stdout == b.stdout


class TestPackage:
    def test_init_binds_only_the_version(self):
        # one path to each public object: ``from repeatersim import protocol``,
        # never a package-level alias
        import ast
        import pathlib

        import repeatersim

        tree = ast.parse(pathlib.Path(repeatersim.__file__).read_text(encoding="utf-8"))
        body = [node for node in tree.body
                if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
        assert [ast.unparse(node) for node in body] == ["__version__ = '0.1.0'"]
        assert repeatersim.__version__ == "0.1.0"

    def test_import_loads_no_submodule(self):
        script = ("import sys\n"
                  "import repeatersim\n"
                  "print(sorted(m for m in sys.modules\n"
                  "             if m.split('.')[0] in ('repeatersim', 'numpy')))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                              text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "['repeatersim']"

    def test_unknown_name_is_an_attribute_error(self):
        import repeatersim

        with pytest.raises(AttributeError, match="no_such_name"):
            repeatersim.no_such_name
