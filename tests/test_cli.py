import argparse
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repeatersim import applications, cli, config, montecarlo, scaling


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

    @pytest.mark.parametrize("key,value,at", [
        ("density", "1e308", "density = 1e+308, length = 1.0, wavenumber = 10.0"),
        ("sample_length", "1e308", "density = 100.0, length = 1e+308, wavenumber = 10.0"),
        # k^2 is subnormal: 3 rho L / k^2 overflows
        ("wavenumber", "1e-160", "density = 100.0, length = 1.0, wavenumber = 1e-160"),
        # k^2 underflows to 0
        ("wavenumber", "1e-170", "density = 100.0, length = 1.0, wavenumber = 1e-170"),
    ])
    def test_overflowed_optical_depth_exits_3_naming_its_inputs(self, tmp_path, capsys,
                                                                key, value, at):
        ini = write_config(tmp_path, f"[ensemble]\n{key} = {value}\n")
        assert run_cli(["--config", ini, "rates"]) == (3, "")
        assert capsys.readouterr().err == (
            f"numeric failure: 3 rho L / k^2 overflows a float at {at}\n")

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
        code, out = run_cli(["--config", cfg, "dynamics", "--out", str(out_file)])
        assert code == 0
        # both ratios are infinite: nothing to refuse
        assert out == "extracted rate ratio inf vs analytic inf (deviation 0.00%)\n"
        rows = out_file.read_text().strip().splitlines()[2:]
        noise = [float(r.split(",")[2]) for r in rows]
        assert max(abs(v) for v in noise) < 1e-10

    @pytest.mark.parametrize("ini,reason", [
        ("[ensemble]\nrabi = 0\n", "bad_cavity_ratio is infinite at ensemble.rabi = 0.0"),
        ("[ensemble]\ncoupling = 0\n",
         "bad_cavity_ratio is infinite at ensemble.coupling = 0.0"),
        ("[ensemble]\nrabi = 1e-200\ncoupling = 1e-200\n",
         "bad_cavity_ratio is infinite at ensemble.rabi = 1e-200, "
         "ensemble.coupling = 1e-200"),
    ])
    @pytest.mark.parametrize("window", [[], ["--t-max", "1"]])
    def test_zero_collective_rate_exits_3_naming_its_key(self, tmp_path, capsys, ini,
                                                         reason, window):
        # kappa' = 0: no default window and no collective gain; `rates`
        # refuses the same config with the same message
        cfg = write_config(tmp_path, ini)
        out_file = tmp_path / "dyn.csv"
        code, out = run_cli(["--config", cfg, "dynamics", *window, "--out", str(out_file)])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == f"numeric failure: {reason}\n"
        assert not out_file.exists()
        assert run_cli(["--config", cfg, "rates"]) == (3, "")
        assert capsys.readouterr().err == f"numeric failure: {reason}\n"

    @pytest.mark.parametrize("window", [[], ["--t-max", "1"]])
    def test_underflowed_collective_rate_exits_3_naming_its_keys(self, tmp_path, capsys,
                                                                 window):
        # kappa' underflows to 0 at nonzero keys: bad_cavity_ratio is finite,
        # but kappa' sets no default window, and a given window would compare
        # two infinite rate ratios
        cfg = write_config(tmp_path, "[ensemble]\nrabi = 1e-170\n")
        ens = config.from_raw(config.read_raw(cfg)).ensemble
        out_file = tmp_path / "dyn.csv"
        code, out = run_cli(["--config", cfg, "dynamics", *window, "--out", str(out_file)])
        assert code == 3
        assert out == ""
        at = ", ".join(f"ensemble.{k} = {getattr(ens, k)!r}" for k in
                       ("atom_count", "rabi", "coupling", "detuning", "cavity_decay"))
        assert "ensemble.rabi = 1e-170" in at
        assert capsys.readouterr().err == (
            f"numeric failure: kappa_prime underflows to 0 at {at}, so the collective "
            "mode has no gain\n")
        assert not out_file.exists()

    def test_underflowed_rate_fit_exits_3_naming_t_max(self, tmp_path, capsys):
        # every noise-mode term of the fit underflows, so the extracted ratio
        # is inf against an analytic 41
        out_file = tmp_path / "dyn.csv"
        code, out = run_cli(["dynamics", "--t-max", "1e-300", "--out", str(out_file)])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == (
            "numeric failure: the extracted rate ratio is inf at --t-max 1e-300: the "
            "noise-mode fit underflows, so the window is too short\n")
        assert not out_file.exists()

    def test_mode_count_beyond_a_float_exits_3_naming_modes(self, tmp_path, capsys):
        out_file = tmp_path / "dyn.csv"
        code, out = run_cli(["dynamics", "--modes", str(10 ** 400), "--out", str(out_file)])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == (
            "numeric failure: --modes has 401 digits; the mode count must fit in a float\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_short_time_grid_exits_3(self, tmp_path, capsys, points):
        out_file = tmp_path / "dyn.csv"
        code, out = run_cli(["dynamics", "--points", points, "--out", str(out_file)])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == f"numeric failure: points = {points} outside [2, inf)\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("args,reason", [
        (["--t-max", "nan"], "t_max = nan outside (0, inf)"),
        (["--t-max", "inf"], "t_max = inf outside (0, inf)"),
        (["--t-max", "-1"], "t_max = -1.0 outside (0, inf)"),
        (["--t-max", "0"], "t_max = 0.0 outside (0, inf)"),
        (["--points", "-1"], "points = -1 outside [2, inf)"),
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
        ("ensemble", "density", "0", "density = 0.0 outside (0, inf)"),
        ("ensemble", "sample_length", "0", "sample_length = 0.0 outside (0, inf)"),
        ("ensemble", "wavenumber", "0", "wavenumber = 0.0 outside (0, inf)"),
        ("scaling", "total_length", "0", "total_length = 0.0 outside (0, inf)"),
        ("scaling", "target_infidelity", "0", "target_infidelity = 0.0 outside (0, 1)"),
        ("scaling", "target_infidelity", "1", "target_infidelity = 1.0 outside (0, 1)"),
        ("scaling", "per_connection_dark", "-1e-300",
         "per_connection_dark = -1e-300 outside [0, inf)"),
        ("scaling", "asym", "-1e-300", "asym = -1e-300 outside [0, inf)"),
        ("scaling", "n_max", "0", "n_max = 0 outside [1, 1023]"),
        ("scaling", "n_max", "1024", "n_max = 1024 outside [1, 1023]"),
        ("applications", "vacuum_coeff", "-1e-300", "vacuum_coeff = -1e-300 outside [0, inf)"),
        ("applications", "rounds", "0", "rounds = 0 outside [1, inf)"),
        ("output", "format", "xml", "format must be json or csv"),
        ("output", "precision", "0", "precision = 0 outside [1, 17]"),
        ("output", "precision", "18", "precision = 18 outside [1, 17]"),
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

    @pytest.mark.parametrize("command", ["scaling", "optimize"])
    def test_underflowed_app_efficiency_skips_every_row_and_exits_4(self, tmp_path, capsys,
                                                                     command):
        # p_app underflows to 0, so T_tot = T_n / p_app leaves the float range
        # on every row, which the scan skips as it skips any other such row
        cfg = write_config(tmp_path, "[repeater]\napp_efficiency = 2.3e-310\n")
        assert run_cli(["--config", cfg, command]) == (4, "")
        assert capsys.readouterr().err == (
            "infeasible: no feasible segmentation in the scanned range\n")

    def test_overflowed_closed_form_segment_skips_every_row_and_exits_4(self, tmp_path,
                                                                        capsys):
        # L0 / L_att overflows on rows n = 1, 2 and exp(L0 / L_att) on the
        # rest, so the closed-form scan keeps no row and prints no Infinity
        cfg = write_config(tmp_path, "[scaling]\ntotal_length = 1e308\n"
                                     "[repeater]\nattenuation_length = 0.1\n")
        assert run_cli(["--config", cfg, "optimize", "--objective", "closed_form"]) == (4, "")
        assert capsys.readouterr().err == (
            "infeasible: no feasible segmentation in the scanned range\n")

    def test_overflowed_chain_time_exits_3_naming_the_level(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[repeater]\npulse_time = 1e300\nlevels = 8\n")
        code, out = run_cli(["--config", cfg, "chain"])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == (
            "numeric failure: time T_7 overflows a float at T_6 = 1.152393874492528e+307, "
            "p_7 = 0.02938628434091792\n")

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
            "numeric failure: direct baseline exp(L/L_att) overflows a float at "
            f"total_length = {float(length)!r}, attenuation_length = 1.0\n")

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

    @pytest.mark.parametrize("m,value", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"),
                                         ("0", "0.0")])
    def test_power_law_exponent_not_positive_finite_exits_3(self, m, value, capsys):
        code, out = run_cli(["optimize", "--objective", "power_law", f"--m={m}"])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == f"numeric failure: m = {value} outside (0, inf)\n"

    @pytest.mark.parametrize("m,value", [("700", 2.73847842e-288), ("1e-320", 1.0)])
    def test_power_law_value_is_finite_json(self, m, value):
        code, out = run_cli(["optimize", "--objective", "power_law", "--m", m])
        assert code == 0
        assert json.loads(out, parse_constant=TestContract.refuse_constant)["value"] == value

    def test_power_law_value_beyond_a_float_exits_3_naming_its_inputs(self, capsys):
        code, out = run_cli(["optimize", "--objective", "power_law", "--m", "800"])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == (
            "numeric failure: the power-law value is 0.0 in floats at m = 800.0, "
            "total_length = 100.0, attenuation_length = 1.0\n")

    def test_closed_form_is_the_least_closed_form_cell_of_the_scaling_table(self):
        # the closed_form objective scans the rows the scaling table prints;
        # both outputs round to the same configured precision
        import csv

        code, out = run_cli(["optimize", "--objective", "closed_form"])
        assert code == 0
        best = json.loads(out)
        code, table = run_cli(["scaling", "--format", "csv"])
        assert code == 0
        rows = csv.DictReader(table.splitlines()[1:])
        cells = {int(row["n"]): float(row["ratio_closed_form"]) for row in rows}
        n_star = min(cells, key=cells.get)
        assert (best["n_star"], best["value"]) == (n_star, cells[n_star])
        # not the compositional optimum the same table ranks first
        assert best["value"] != json.loads(run_cli(["optimize"])[1])["value"]

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
            f"numeric failure: seed = {seed} outside [0, 18446744073709551616)\n"

    def test_rounds_beyond_draw_budget_exits_4(self, capsys):
        # three draws a round: 4e8 rounds need 1.2e9 draws, past the 1e9 budget;
        # the request is refused before any array is allocated
        code, out = run_cli(["ekert", "--rounds", "400000000", "--seed", "9"])
        assert code == 4
        assert out == ""
        err = capsys.readouterr().err
        assert "1.2e+09 random draws" in err and "budget of 1e+09" in err

    def test_rounds_beyond_memory_cap_exits_4(self, monkeypatch, capsys):
        # the draw budget binds before the 1 GiB cap, so lower the cap: 1e6
        # rounds hold about 2 MiB, over a cap of 1 MiB
        monkeypatch.setattr(montecarlo, "MEMORY_BUDGET", 2 ** 20)
        code, out = run_cli(["ekert", "--rounds", "1000000", "--seed", "9"])
        assert code == 4
        assert out == ""
        err = capsys.readouterr().err
        assert "1000000 rounds would hold about 2 MiB" in err and "memory cap of 1 MiB" in err


class TestTeleport:
    def test_fidelity_one(self):
        code, out = run_cli(["teleport", "--bloch-theta", "1.0", "--bloch-phi", "2.0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["output_fidelity"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("flag,value,reason", [("--bloch-theta", "nan", "theta = nan"),
                                                   ("--bloch-phi", "inf", "phi = inf")])
    def test_non_finite_angle_exits_3_naming_reason(self, flag, value, reason, capsys):
        code, out = run_cli(["teleport", flag, value])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == f"numeric failure: {reason} outside (-inf, inf)\n"


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
            f"numeric failure: seed = {seed} outside [0, 18446744073709551616)\n"

    def test_config_seed_outside_64_bits_exits_2_naming_the_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[trials]\nseed = 18446744073709551616\n")
        code, out = run_cli(["--config", cfg, "montecarlo"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == ("config error: trials.seed: seed = 18446744073709551616 "
                                           "outside [0, 18446744073709551616)\n")

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

    @pytest.mark.parametrize("argv,budget", [
        (["ekert", "--rounds"],
         " rounds needs about 3.00e+400 random draws, over the budget of 1e+09\n"),
        (["montecarlo", "--trials"],
         " trials needs about 3.90e+401 random draws, over the budget of 1e+09\n"),
        (["montecarlo", "--trace-csv", "trials.csv", "--trials"],
         " MiB, over the memory cap of 1024 MiB\n"),
    ], ids=["rounds", "trials", "trace"])
    def test_count_past_float_range_exits_4_naming_the_budget(self, tmp_path, monkeypatch,
                                                               capsys, argv, budget):
        # the budgets compare the int as it is and print it without a float
        monkeypatch.setenv("REPEATERSIM_OUTDIR", str(tmp_path))
        assert run_cli([*argv, str(10 ** 400)]) == (4, "")
        assert capsys.readouterr().err.endswith(budget)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("level", [31, 41])
    def test_deep_level_exits_4_on_the_draw_budget(self, level, capsys):
        assert run_cli(["montecarlo", "--level", str(level)]) == (4, "")
        assert capsys.readouterr().err.startswith(
            f"infeasible: level {level} with 10000 trials needs about ")

    def test_level_past_the_chain_stall_exits_3_as_chain_does(self, tmp_path, capsys):
        assert run_cli(["montecarlo", "--level", "42"]) == (3, "")
        stalled = capsys.readouterr().err
        cfg = write_config(tmp_path, "[repeater]\nlevels = 42\n")
        assert run_cli(["--config", cfg, "chain"]) == (3, "")
        assert capsys.readouterr().err == stalled
        assert stalled.startswith("numeric failure: success probability ")

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

    # an interpreter's own arithmetic message: a refusal that names no input
    BARE_MESSAGES = ("int too large to convert to float", "integer division result too large",
                     "float division by zero", "Numerical result out of range",
                     "math domain error")

    @staticmethod
    def refuse_constant(name):
        raise ValueError(f"{name} is not JSON")

    @classmethod
    def breach(cls, ini, command):
        """``(code, stderr)`` of one in-process run of ``command`` where it
        breaks the contract, else None.  A run breaks it by raising, by an
        exit code outside 0, 2, 3 and 4, by an exit-0 JSON stdout (every
        command's but dynamics', which writes its CSV to a file) that does
        not parse without NaN or Infinity, or by a non-zero exit that
        writes stdout, gives no reason or gives a bare arithmetic message."""
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["--config", str(ini), command])
        except Exception as exc:   # reported with its setting
            code = repr(exc)
        if code == 0 and command != "dynamics":
            try:
                json.loads(out.getvalue(), parse_constant=cls.refuse_constant)
            except ValueError as exc:
                code = f"stdout: {exc}"
        reason = err.getvalue()
        if code not in (0, 2, 3, 4) or (code != 0 and (
                out.getvalue() or not reason.strip()
                or any(bare in reason for bare in cls.BARE_MESSAGES))):
            return code, reason
        return None

    def test_the_parser_declares_exactly_the_table_and_dynamics(self):
        # a new subcommand must join REPORTS (or be dynamics), so the fuzz
        # below and the sweep refusal cover it
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(self.COMMANDS)

    def test_every_single_key_extreme_exits_with_a_code_and_a_reason(self, tmp_path,
                                                                    monkeypatch):
        # each schema key alone at each extreme, against every subcommand at the
        # default seeds; files go to tmp_path
        monkeypatch.setenv("REPEATERSIM_OUTDIR", str(tmp_path))
        broken = []
        for section, keys in config.SCHEMA.items():
            for key, (conv, *_) in keys.items():
                for value in self.EXTREMES[conv]:
                    ini = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
                    for command in self.COMMANDS:
                        if breach := self.breach(ini, command):
                            broken.append((f"{section}.{key}={value}", command, *breach))
        assert broken == []

    # the generated contract: two or three keys a case, from every section
    # but output (its keys redirect or reformat stdout)
    GENERATED_KEYS = [(section, key, conv) for section, keys in config.SCHEMA.items()
                      if section != "output" for key, (conv, *_) in keys.items()]
    INT_EDGES = (0, -1, 1023, 1024, 10 ** 9, 2 ** 63, 10 ** 400)
    POLICIES = ("", *montecarlo.POLICIES)
    GENERATED_CASES = 1500

    @classmethod
    def generated_value(cls, rng, conv):
        """A float log-uniform in magnitude over [1e-323, 1e308], either
        sign, or 0; an int from the edges; a policy, or the empty string."""
        if conv is float:
            if rng.random() < 0.05:
                return "0"
            return repr(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-323.0, 308.0))
        if conv is int:
            return str(rng.choice(cls.INT_EDGES))
        return rng.choice(cls.POLICIES)

    def test_generated_configs_exit_with_a_code_and_a_reason(self, tmp_path, monkeypatch):
        # each case: 2-3 keys at generated values (trials.n_trials = 200
        # unless the case sets it) against one subcommand, checked as the
        # single-key extremes above are
        import random

        monkeypatch.setenv("REPEATERSIM_OUTDIR", str(tmp_path))
        rng = random.Random(20)
        broken = []
        for case in range(self.GENERATED_CASES):
            values = {("trials", "n_trials"): "200"}
            for section, key, conv in rng.sample(self.GENERATED_KEYS, rng.choice((2, 3))):
                values[section, key] = self.generated_value(rng, conv)
            sections = {}
            for (section, key), value in values.items():
                sections.setdefault(section, []).append(f"{key} = {value}")
            # a new file a case: re-truncating one file can wait on a flush
            ini = tmp_path / f"case{case}.ini"
            ini.write_text("".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                                   for section, lines in sections.items()))
            command = rng.choice(self.COMMANDS)
            if breach := self.breach(ini, command):
                broken.append((values, command, *breach))
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

    @pytest.mark.parametrize("compute", [lambda: 2.0 ** 1024, lambda: 1.0 / (1e-170 ** 2),
                                         lambda: 1e308 * 10.0, lambda: math.inf - math.inf],
                             ids=["raises", "underflowed denominator", "inf", "nan"])
    def test_float_range_refusal_names_every_input(self, compute):
        from repeatersim._records import FloatRangeError, in_float_range

        with pytest.raises(FloatRangeError) as refused:
            in_float_range("the value", compute, a=1, b=2.5)
        assert str(refused.value) == "the value overflows a float at a = 1, b = 2.5"
        # the scan skips a row on OverflowError; a caller refusing input catches ValueError
        assert isinstance(refused.value, OverflowError) and isinstance(refused.value, ValueError)

    def test_finite_value_passes_the_float_range_check(self):
        from repeatersim._records import in_float_range

        assert in_float_range("the value", lambda: 1.5e308, a=1) == 1.5e308

    def test_with_checks_the_override(self):
        params = config.load().repeater
        with pytest.raises(ValueError, match=re.escape("excitation_prob = 1.5 outside (0, 1)")):
            params.with_(excitation_prob=1.5)
        assert params.with_(levels=3) == params._replace(levels=3)

    @staticmethod
    def checked_records():
        """Each checked record: a valid instance and an override its
        constructor refuses."""
        from repeatersim import fock, montecarlo, protocol

        report = scaling.ScalingReport(1.0, 1.0, 2.0, 1.0, 2.0, (), 1.0, None, 0.5, 0.01)
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

    def test_every_checked_record_checks_through_the_one_base(self):
        # a namedtuple's ``_make`` and ``_replace`` skip a subclass's
        # ``__new__``: a record checks its fields in ``_check`` behind
        # ``Checked``, and only PureState keeps a ``__new__``, to convert
        import ast
        import pathlib

        made, built, checked = [], [], []
        for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef):
                    made += [node.name for n in node.body if isinstance(n, ast.Assign)
                             for t in n.targets if isinstance(t, ast.Name) and t.id == "_make"]
                    defined = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                    if "__new__" in defined:
                        built.append(node.name)
                    if "_check" in defined:
                        checked.append((node.name, ast.unparse(node.bases[0])))
        assert made == []
        assert sorted(built) == ["Checked", "PureState"]
        assert sorted(checked) == sorted((name, "Checked") for name in self.checked_records())
        assert not any(hasattr(valid, "__dict__") for valid, _ in self.checked_records().values())

    def test_threads_override_is_checked(self, capsys):
        code, out = run_cli(["montecarlo", "--trials", "10", "--threads", "0"])
        assert code == 3
        assert out == ""
        assert capsys.readouterr().err == "numeric failure: threads = 0 outside [1, inf)\n"

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
            (["dynamics", "--modes", "4", "--out", str(tmp_path / "blocked_m4.csv")], 0),
            (["dynamics", "--modes", "5", "--out", str(tmp_path / "blocked_m5.csv")], 0),
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
        csv = {m: (tmp_path / f"blocked_m{m}.csv").read_text() for m in (4, 5)}
        for (argv, want), (code, out) in zip(session, blocked):
            assert code == want, argv
            assert [code, out] == list(run_cli(argv)), argv
        for m in (4, 5):   # the unblocked runs above rewrote the files
            assert (tmp_path / f"blocked_m{m}.csv").read_text() == csv[m]

    @pytest.mark.parametrize("modes", ["4", "5"])
    def test_dynamics_leaves_numpy_and_fock_unloaded(self, tmp_path, modes):
        script = (
            "import sys\n"
            "import repeatersim.cli\n"
            "assert repeatersim.cli.main(sys.argv[1:]) == 0\n"
            "print([m for m in ('numpy', 'repeatersim.fock') if m in sys.modules])\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script, "dynamics", "--modes", modes,
                               "--out", str(tmp_path / "d.csv")],
                              capture_output=True, env=env, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

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


class TestOneHome:
    """Each rule is written once in the package; these pins find a second
    copy by where its marks appear."""

    @staticmethod
    def marks(match):
        """``(file name, innermost enclosing function, mark)`` for every node
        of the package for which ``match`` returns a mark other than None."""
        import ast
        import pathlib

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, ast.FunctionDef) else where
                yield inner, child
                yield from visit(child, inner)

        return sorted((path.name, where, mark)
                      for path in pathlib.Path(cli.__file__).parent.glob("*.py")
                      for where, node in visit(ast.parse(path.read_text(encoding="utf-8")), "")
                      if (mark := match(node)) is not None)

    def test_impossible_outcome_is_refused_in_one_place(self):
        import ast

        def raised(node):
            if isinstance(node, ast.Raise) and node.exc is not None \
                    and "ImpossibleOutcomeError" in ast.unparse(node.exc):
                return "raise"
            return None

        assert self.marks(raised) == [("fock.py", "outcome_probability", "raise")]

    def test_integer_check_is_written_once(self):
        # check_int is the rule; _fmt only reads an integer back out
        import ast

        def integral(node):
            if isinstance(node, ast.Attribute) and node.attr == "Integral":
                return ast.unparse(node)
            if isinstance(node, ast.ImportFrom) and node.module == "numbers":
                return ast.unparse(node)
            return None

        assert self.marks(integral) == [("_records.py", "check_int", "numbers.Integral"),
                                        ("cli.py", "_fmt", "numbers.Integral")]

    def test_float_ranges_are_refused_by_hand_only_where_allowed(self):
        # _records.check_in states every fixed interval, of a float or an int.
        # A mark is an ``if`` that raises and asks math.isfinite or math.isinf,
        # or compares a parameter, field or local with a number or math.inf; a
        # lambda in config.py; a (name, comparison) table.  What stays is no
        # fixed interval, each for the reason beside it; the choices (policy,
        # output format, a detector's click outcome) are membership tests
        import ast

        def number(node):
            if isinstance(node, ast.Constant):
                return type(node.value) in (int, float)
            if isinstance(node, ast.UnaryOp):
                return number(node.operand)
            if isinstance(node, ast.BinOp):
                return number(node.left) and number(node.right)
            return ast.unparse(node) == "math.inf"

        def compared(compare):
            operands = (compare.left, *compare.comparators)
            return (not all(isinstance(op, (ast.In, ast.NotIn, ast.Is, ast.IsNot))
                            for op in compare.ops)
                    and any(isinstance(o, (ast.Name, ast.Attribute)) and not number(o)
                            for o in operands)
                    and any(map(number, operands)))

        def by_hand(node):
            if isinstance(node, ast.If) and any(isinstance(n, ast.Raise) for n in node.body) \
                    and any(isinstance(n, ast.Compare) and compared(n)
                            or isinstance(n, ast.Call)
                            and ast.unparse(n.func) in ("math.isfinite", "math.isinf")
                            for n in ast.walk(node.test)):
                return ast.unparse(node.test)
            if isinstance(node, ast.Lambda):
                return "lambda"
            if isinstance(node, ast.Tuple) and len(node.elts) > 1 \
                    and isinstance(node.elts[0], ast.Constant) \
                    and isinstance(node.elts[0].value, str) \
                    and any(isinstance(e, ast.Compare) for e in node.elts[1:]):
                return "table"
            return None

        marks = [m for m in self.marks(by_hand) if m[2] != "lambda" or m[0] == "config.py"]
        assert marks == [
            ("cli.py", "_parse_sweep", "not (math.isfinite(lo) and math.isfinite(hi))"),
            ("cli.py", "_parse_sweep", "not 1 <= steps <= MAX_SWEEP_STEPS"),
            # a rates field is infinite: the refusal names its zero ensemble keys
            ("cli.py", "_refuse_infinite", "math.isinf(getattr(rates, field))"),
            # a result, not an input: the noise-mode fit underflowed
            ("cli.py", "cmd_dynamics",
             "math.isfinite(analytic) and (not math.isfinite(extracted))"),
            # a result: kappa' underflowed to 0 at nonzero keys
            ("cli.py", "cmd_dynamics", "rates.kappa_prime == 0.0"),
            # the parse rule, before any record sees the value
            ("config.py", "_convert", "conv is float and (not math.isfinite(value))"),
            # detuning != 0 is not an interval
            ("ensemble.py", "__post_init__", "name == 'detuning' and value == 0.0"),
            # a rule of two fields: a resolving detector has no dark counts
            ("fock.py", "_check", "self.resolving and self.dark_count_prob != 0.0"),
            # the detector outcome: a photon count, else a click choice
            ("fock.py", "_outcome_weights",
             "not isinstance(outcome, (int, np.integer)) or outcome < 0"),
            # layout-dependent index bounds, and weights of a layout's shape
            ("fock.py", "check_mode", "not 0 <= i < self.modes"),
            ("fock.py", "condition", "w.shape != (layout.mode_dim,) or not all((0 <= x < "
                                     "math.inf for x in w.tolist()))"),
            # a computed fidelity's rounding tolerance
            ("fock.py", "fidelity", "val > 1 + 1e-12"),
            # an array's shape
            ("fock.py", "from_factor", "v.ndim != 2 or v.shape[0] != layout.dim"),
            ("fock.py", "index", "not 0 <= n <= self.cutoff"),
            # the impossible-outcome threshold
            ("fock.py", "outcome_probability", "prob < 1e-15"),
            # a result: the statistics of finite samples overflow
            ("montecarlo.py", "estimate", "not (math.isfinite(mean) and math.isfinite(stddev))"),
            # the stall thresholds
            ("protocol.py", "chain", "p < 1e-12"),
            ("protocol.py", "generate_analytic", "signal <= 0.0"),
            # the power-law value, refused on underflow to 0 as well
            ("scaling.py", "optimize_segment", "not 0.0 < value < math.inf"),
            # an InfeasibleError cap, which the scan skips
            ("scaling.py", "total_time", "not 0.0 < p_c < 1.0"),
        ]

    def test_float_overflow_is_caught_in_the_allowed_places(self):
        # in_float_range is the rule; direct_ratio's inf, the power-law value
        # (which refuses an underflow to 0 as well), the scan's row skip and
        # the scaling table's nan cell keep a non-finite result on purpose
        import ast

        def caught(node):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                return ", ".join(sorted(names & {"OverflowError", "ZeroDivisionError"})) or None
            return None

        assert self.marks(caught) == [
            ("_records.py", "in_float_range", "OverflowError, ZeroDivisionError"),
            ("cli.py", "closed_form", "OverflowError"),
            ("scaling.py", "direct_ratio", "OverflowError"),
            ("scaling.py", "optimize_segment", "OverflowError"),
            ("scaling.py", "optimize_segment", "OverflowError"),
        ]

    def test_squared_norms_of_every_row_are_summed_only_in_marginal(self):
        # everywhere else a squared norm is one vdot over the rows it needs
        import ast

        def split_norm(node):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                text = ast.unparse(node)
                if ".real ** 2" in text and ".imag ** 2" in text:
                    return text
            return None

        assert self.marks(split_norm) == [
            ("fock.py", "marginal", "v.real ** 2 + v.imag ** 2")]

    def test_pair_total_rows_are_built_in_one_place(self):
        import ast

        def pair_rows(node):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "pair_rows_over", "fock.pair_rows_over"):
                return "call"
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.indices",
                                                                          "np.add.outer"):
                return ast.unparse(node.func)
            return None

        assert self.marks(pair_rows) == [
            ("fock.py", "_check_pair_support", "call"),
            ("fock.py", "pair_rows_over", "np.indices"),
            ("protocol.py", "_heralded_factor", "call"),
            ("protocol.py", "generate_oracle", "call"),
        ]

    def test_time_grids_are_checked_in_one_place(self):
        # both ensemble integrators read their grid through _time_grid and
        # keep only their own rules: a minimum length, and the drift's start
        # through check_in
        import ast

        def grid_rule(node):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = [n.value for n in ast.walk(node.exc) if isinstance(n, ast.Constant)]
                return next((t for t in text if str(t).startswith("t_grid")), None)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_time_grid":
                return "call"
            return None

        assert self.marks(grid_rule) == [
            ("ensemble.py", "_time_grid", "t_grid must be a 1-D sequence of times"),
            ("ensemble.py", "_time_grid", "t_grid must be finite"),
            ("ensemble.py", "_time_grid", "t_grid must be non-decreasing"),
            ("ensemble.py", "integrate_master_equation", "call"),
            ("ensemble.py", "langevin_mean_ode", "call"),
        ]

    def test_draw_budget_is_compared_in_one_place(self):
        # the sampler passes its expected draws a trial, the key run 3 a round
        import ast

        def budget(node):
            if isinstance(node, ast.Compare) and "DRAW_BUDGET" in ast.unparse(node):
                return ast.unparse(node)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "check_draws":
                return ast.unparse(node.args[1])
            return None

        assert self.marks(budget) == [
            ("applications.py", "ekert_simulation", "3"),
            ("montecarlo.py", "chain_times", "_kernels().expected_draws(probs)"),
            ("montecarlo.py", "check_draws", "count > DRAW_BUDGET / per_item"),
            ("montecarlo.py", "sample_chain_time", "_kernels().expected_draws(probs)"),
        ]

    def test_coincidence_patterns_are_formed_in_one_place(self):
        # correlation, chsh_value and the key table all read _patterns
        import ast

        def pattern(node):
            if isinstance(node, ast.BinOp):
                text = ast.unparse(node)
                return next((mark for mark in ("visibility * math.cos(", "total / 4 *")
                             if text.startswith(mark)), None)
            return None

        assert self.marks(pattern) == [
            ("applications.py", "_patterns", "total / 4 *"),
            ("applications.py", "_patterns", "total / 4 *"),
            ("applications.py", "_patterns", "visibility * math.cos("),
        ]

    def test_level_zero_is_sampled_through_the_chain(self):
        # generation_times and sample_generation_time are level 0 of the
        # chain: only chain_times reaches the bulk kernels
        import ast

        def kernel_call(node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and ast.unparse(node.func.value) == "_kernels()" \
                    and node.func.attr in ("generation_times", "chain_times"):
                return node.func.attr
            return None

        assert self.marks(kernel_call) == [("montecarlo.py", "chain_times", "chain_times")]
