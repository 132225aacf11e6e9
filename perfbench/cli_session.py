"""Workload ``cli_session``: a fixed script of command-line invocations.

Operation: one ``python -m repeatersim.cli`` invocation in a fresh process,
with the default config; the next starts when the previous one exits.  One
cycle is the 16-entry ``script()``: ``rates``, ``chain``, ``scaling``,
``optimize`` (compositional and ``power_law --m 2``), ``chsh``,
``teleport``, ``ekert``, ``dynamics`` at 4 and 5 modes, ``montecarlo
--level 2 --trials 2000`` with and without ``--trace-csv``, two ``--sweep``
tables, one request the config layer rejects (unknown key, exit 2) and one
the numeric layer rejects (``power_law`` without ``--m``, exit 3).

Why: every layer runs once, cold and small, and the interpreter and import
floor dominates each invocation.  Lazy imports show only here, and so does
the cost of caches or precomputation that pay off only in a warm loop.

Set-up warms with a single invocation: every command imports the same
modules and each invocation is a fresh process, so that one fills the
bytecode and file caches every later invocation can use.

Checks: exit codes; parsed values against the library, computed in this
process; stdout byte-identical to ``goldens/``.  Invocations whose
arguments come from the seed (``teleport``, ``ekert``, ``montecarlo``)
are compared with their goldens only at ``DEFAULT_SEED``.

The traced run replays the same argv in process through
``repeatersim.cli.main`` with stdout captured, and reads import times from
``-X importtime`` in fresh processes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
import types

import numpy as np

import checks
from harness import PERFBENCH, SRC, Op
from layers import CLI_LABELS
from tracer import NAME, OP, median_total

DEFAULT_SEED = 1
GOLDEN_DIR = os.path.join(PERFBENCH, "goldens")
TIMEOUT_S = 60
MC_TRIALS = 2000
SEEDED = ("teleport", "ekert", "montecarlo", "montecarlo_trace_csv")
IMPORT_SAMPLES = 3


def r9(x):
    """A value as the command line prints it at the default precision."""
    return float(f"{float(x):.9g}")


def script(seed, workdir):
    """(label, argv, expected exit code) for one pass of the session."""
    rng = np.random.default_rng([seed])
    theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
    ekert_seed, mc_seed = (int(x) for x in rng.integers(0, 2 ** 31, 2))
    out = lambda name: os.path.join(workdir, name)  # noqa: E731
    mc = ["montecarlo", "--level", "2", "--trials", str(MC_TRIALS), "--seed", str(mc_seed)]
    entries = [
        ("rates", ["rates"], 0),
        ("chain", ["chain"], 0),
        ("scaling", ["scaling"], 0),
        ("optimize", ["optimize"], 0),
        ("optimize_power_law", ["optimize", "--objective", "power_law", "--m", "2"], 0),
        ("chsh", ["chsh"], 0),
        ("teleport", ["teleport", "--bloch-theta", repr(theta), "--bloch-phi", repr(phi)], 0),
        ("ekert", ["ekert", "--seed", str(ekert_seed)], 0),
        ("dynamics_m4", ["dynamics", "--modes", "4", "--out", out("dynamics_m4.csv")], 0),
        ("dynamics_m5", ["dynamics", "--modes", "5", "--out", out("dynamics_m5.csv")], 0),
        ("montecarlo", mc, 0),
        ("montecarlo_trace_csv", mc + ["--trace-csv", out("trace.csv")], 0),
        ("sweep_scaling", ["scaling", "--sweep", "repeater.swap_efficiency=0.5:0.9:5"], 0),
        ("sweep_rates", ["rates", "--sweep", "ensemble.atom_count=50:200:4"], 0),
        ("reject_config", ["--config", out("unknown_key.ini"), "rates"], 2),
        ("reject_numeric", ["optimize", "--objective", "power_law"], 3),
    ]
    assert tuple(label for label, _, _ in entries) == CLI_LABELS
    return entries


def prepare(workdir):
    """Create ``workdir`` with the config file the config layer must reject."""
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "unknown_key.ini"), "w", encoding="utf-8") as fh:
        fh.write("[repeater]\nno_such_key = 1\n")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPEATERSIM_OUTDIR", None)
    return env


def run_child(argv, workdir):
    """Run one process; returns (exit code, stdout, stderr, peak RSS in KiB).

    ``os.wait4`` reaps the child so its own resource usage is read; a timer
    kills a child that outlives ``TIMEOUT_S``.
    """
    with open(os.path.join(workdir, "stdout"), "w+b") as out, \
            open(os.path.join(workdir, "stderr"), "w+b") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir,
                                env=child_env())
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss


def run_in_process(argv):
    """``repeatersim.cli.main(argv)`` with stdout and stderr captured."""
    from repeatersim import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode(), 0


class Workload:
    name = "cli_session"
    cycle_s = 13.3  # baseline seconds inside the 16 invocations of a cycle
    kernel_reps = 8  # host-speed kernel runs after each operation

    def __init__(self, seed, workdir):
        from repeatersim import config

        self.seed = seed
        self.workdir = workdir
        prepare(workdir)
        self.entries = script(seed, workdir)
        self.cfg = config.load()
        self.goldens = {}
        for label, _, _ in self.entries:
            if label not in SEEDED or seed == DEFAULT_SEED:
                with open(os.path.join(GOLDEN_DIR, f"{label}.out"), "rb") as fh:
                    self.goldens[label] = fh.read()
        self.max_rss_kb = 0
        self._oracle = {}

    def _op(self, label, argv, want, in_process):
        if in_process:
            run = lambda: run_in_process(argv)  # noqa: E731
        else:
            run = lambda: self._run_counted([sys.executable, "-m", "repeatersim.cli"] + argv)  # noqa: E731
        return Op(label, run, lambda r: self.check(label, want, r), span=f"cli.{label}")

    def _run_counted(self, argv):
        result = run_child(argv, self.workdir)
        self.max_rss_kb = max(self.max_rss_kb, result[3])
        return result

    def cycle(self, k):
        return [self._op(label, argv, want, False) for label, argv, want in self.entries]

    def trace_cycle(self, k):
        from repeatersim import cli  # noqa: F401  (imported before timing starts)

        return [self._op(label, argv, want, True) for label, argv, want in self.entries]

    def warmup_ops(self):
        return [self.cycle(0)[0]]

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024.0

    # ------------------------------------------------------------------
    # checks

    def check(self, label, want_exit, result):
        code, out, err, _ = result
        fails = checks.exit_code(label, code, want_exit)
        if label in self.goldens:
            fails += checks.same_bytes(label, out, self.goldens[label])
        if code != want_exit:
            return fails + [f"{label} stderr: {err.decode(errors='replace')[-300:]}"]
        return fails + getattr(self, f"_check_{label}")(out.decode(), err.decode())

    def _argv(self, label):
        return next(argv for name, argv, _ in self.entries if name == label)

    def _equal(self, label, got, want):
        return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]

    def _check_rates(self, out, err):
        from repeatersim import ensemble

        got = json.loads(out)
        rates = ensemble.effective_rates(self.cfg.ensemble)
        fs = ensemble.free_space_snr(self.cfg.free_space.density,
                                     self.cfg.free_space.sample_length,
                                     self.cfg.free_space.wavenumber)
        fails = []
        for key in ("kappa_prime", "gamma_s_prime", "snr", "squeeze", "excitation_prob",
                    "bad_cavity_ratio"):
            fails += self._equal(f"rates {key}", got[key], r9(getattr(rates, key)))
        fails += self._equal("rates optical_depth", got["optical_depth"], r9(fs.optical_depth))
        return fails + self._equal("rates adiabatic_marginal", got["adiabatic_marginal"],
                                   rates.adiabatic_marginal)

    def _check_chain(self, out, err):
        from repeatersim import protocol

        rows = json.loads(out)["rows"]
        lib = protocol.chain(self.cfg.repeater, channel_phase=self.cfg.applications.phase)
        fails = self._equal("chain rows", len(rows), len(lib))
        for row, level in zip(rows, lib):
            for key, attr in (("c_i", "vacuum_coeff"), ("p_i", "success_prob"),
                              ("T_i", "elapsed_time"), ("L_i", "length")):
                fails += self._equal(f"chain {key}[{level.level}]", row[key],
                                     r9(getattr(level, attr)))
        return fails

    def _optimum(self, repeater=None):
        from repeatersim import scaling

        cfg = self.cfg
        return scaling.optimize_segment(repeater or cfg.repeater, cfg.scaling.total_length,
                                        objective="compositional",
                                        df_target=cfg.scaling.target_infidelity,
                                        n_max=cfg.scaling.n_max)

    def _check_scaling(self, out, err):
        from repeatersim import scaling

        got = json.loads(out)
        cfg = self.cfg
        fails = []
        for row in got["rows"]:
            n = row["n"]
            trial = cfg.repeater.with_(segment_length=cfg.scaling.total_length / 2 ** n,
                                       levels=n)
            want = scaling.total_time(trial, cfg.scaling.target_infidelity,
                                      cfg.scaling.per_connection_dark, cfg.scaling.asym)
            fails += self._equal(f"scaling ratio n={n}", row["ratio_compositional"],
                                 r9(want.ratio))
        best = self._optimum()
        return (fails + self._equal("scaling best_n", got["best_n"], best.n_star)
                + self._equal("scaling best_ratio", got["best_ratio"], r9(best.value)))

    def _check_optimize(self, out, err):
        got = json.loads(out)
        best = self._optimum()
        return (self._equal("optimize n_star", got["n_star"], best.n_star)
                + self._equal("optimize L0_star", got["L0_star"], r9(best.l0_star))
                + self._equal("optimize value", got["value"], r9(best.value)))

    def _check_optimize_power_law(self, out, err):
        got = json.loads(out)
        l_att = self.cfg.repeater.attenuation_length
        l0 = 2.0 * l_att
        value = (self.cfg.scaling.total_length / l0) ** 2 * math.exp(l0 / l_att)
        return (self._equal("power_law L0_star", got["L0_star"], r9(l0))
                + self._equal("power_law value", got["value"], r9(value)))

    def _check_chsh(self, out, err):
        got = json.loads(out)
        fails = checks.close("cli chsh", got["chsh"], checks.ROOT8, 1e-8)
        for (psi_l, psi_r), e in zip(got["settings"], sum(got["E_matrix"], [])):
            fails += checks.close("cli correlation", e, math.cos(psi_l - psi_r), 1e-8)
        return fails

    def _check_teleport(self, out, err):
        got = json.loads(out)
        res = types.SimpleNamespace(output_fidelity=got["output_fidelity"],
                                    pattern_prob=got["pattern_prob"],
                                    success_prob=got["success_prob"])
        return checks.teleport(res, self.cfg.applications.vacuum_coeff,
                               self.cfg.repeater.app_efficiency)

    def _check_ekert(self, out, err):
        from repeatersim import applications

        got = json.loads(out)
        seed = int(self._argv("ekert")[-1])
        app = self.cfg.applications
        lib = applications.ekert_simulation(app.vacuum_coeff, app.phase,
                                            self.cfg.repeater.app_efficiency,
                                            app.rounds, seed)
        return (self._equal("ekert key_length", got["key_length"], lib.sifted_length)
                + self._equal("ekert qber", got["qber"], r9(lib.qber))
                + self._equal("ekert coincidence_rate", got["coincidence_rate"],
                              r9(lib.coincidence_rate))
                + self._equal("ekert seed", got["seed"], seed))

    def _check_dynamics(self, label, out):
        from repeatersim import ensemble

        rates = ensemble.effective_rates(self.cfg.ensemble)
        analytic = (rates.kappa_prime + rates.gamma_s_prime) / rates.gamma_s_prime
        m = re.fullmatch(r"extracted rate ratio (\S+) vs analytic (\S+) "
                         r"\(deviation \S+%\)\n", out)
        if not m:
            return [f"{label}: unexpected stdout {out!r}"]
        fails = self._equal(f"{label} analytic", m.group(2), f"{analytic:.6g}")
        fails += checks.close(f"{label} rate ratio / analytic",
                              float(m.group(1)) / analytic, 1.0, 0.05)
        with open(self._argv(label)[-1], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        fails += self._equal(f"{label} csv header", lines[:2],
                             ["# schema_version=1", "t,pop_collective,pop_noise_mode,ratio"])
        fails += self._equal(f"{label} csv rows", len(lines) - 2, 120)
        return fails

    def _check_dynamics_m4(self, out, err):
        return self._check_dynamics("dynamics_m4", out)

    def _check_dynamics_m5(self, out, err):
        return self._check_dynamics("dynamics_m5", out)

    def _mc_oracle(self):
        from repeatersim import montecarlo as mc

        argv = self._argv("montecarlo")
        seed = int(argv[argv.index("--seed") + 1])
        if seed not in self._oracle:
            t = self.cfg.trials
            cfg = mc.TrialConfig(seed, MC_TRIALS, t.policy, t.threads)
            times = mc.chain_times(self.cfg.repeater, 2, cfg)
            self._oracle[seed] = (mc.estimate(self.cfg.repeater, 2, cfg), times)
        return self._oracle[seed]

    def _check_montecarlo(self, out, err):
        got = json.loads(out)
        est, _ = self._mc_oracle()
        fails = []
        for key, value in (("mean_s", est.mean), ("stddev_s", est.stddev),
                           ("ci95_s", est.ci95), ("analytic_Tn_s", est.analytic_t_n),
                           ("ratio", est.vs_analytic_ratio)):
            fails += self._equal(f"montecarlo {key}", got[key], r9(value))
        return (fails + self._equal("montecarlo n_trials", got["n_trials"], MC_TRIALS)
                + self._equal("montecarlo seed", got["seed"], est.seed))

    def _check_montecarlo_trace_csv(self, out, err):
        fails = self._check_montecarlo(out, err)
        _, times = self._mc_oracle()
        with open(self._argv("montecarlo_trace_csv")[-1], encoding="utf-8") as fh:
            rows = list(csv.reader(fh.read().splitlines()[2:]))
        got = [float(t) for _, t in rows]
        return fails + self._equal("montecarlo trace csv", got, [r9(t) for t in times])

    def _sweep_rows(self, out, key):
        lines = out.splitlines()
        if lines[0] != "# schema_version=1" or not lines[1].startswith(key + ","):
            return None, None
        header = lines[1].split(",")
        return header, [dict(zip(header, row)) for row in csv.reader(lines[2:])]

    def _check_sweep_scaling(self, out, err):
        key = "repeater.swap_efficiency"
        header, rows = self._sweep_rows(out, key)
        if rows is None:
            return [f"sweep_scaling: unexpected header in {out[:200]!r}"]
        fails = self._equal("sweep_scaling rows", len(rows), 5)
        for row, eta in zip(rows, np.linspace(0.5, 0.9, 5)):
            best = self._optimum(self.cfg.repeater.with_(swap_efficiency=float(eta)))
            fails += self._equal(f"sweep_scaling best_ratio at {eta}",
                                 float(row["best_ratio"]), r9(best.value))
        return fails

    def _check_sweep_rates(self, out, err):
        from dataclasses import replace

        from repeatersim import ensemble

        key = "ensemble.atom_count"
        header, rows = self._sweep_rows(out, key)
        if rows is None:
            return [f"sweep_rates: unexpected header in {out[:200]!r}"]
        fails = self._equal("sweep_rates rows", [int(r[key]) for r in rows],
                            [50, 100, 150, 200])
        for row in rows:
            rates = ensemble.effective_rates(replace(self.cfg.ensemble,
                                                     atom_count=int(row[key])))
            fails += self._equal(f"sweep_rates kappa_prime at {row[key]}",
                                 float(row["kappa_prime"]), r9(rates.kappa_prime))
            fails += self._equal(f"sweep_rates snr at {row[key]}",
                                 float(row["snr"]), r9(rates.snr))
        return fails

    def _check_reject_config(self, out, err):
        return (self._equal("reject_config stdout", out, "")
                + ([] if "unknown key" in err else [f"reject_config stderr {err!r}"]))

    def _check_reject_numeric(self, out, err):
        return (self._equal("reject_numeric stdout", out, "")
                + ([] if err.startswith("numeric failure") else
                   [f"reject_numeric stderr {err!r}"]))

    # ------------------------------------------------------------------
    # per-layer metrics

    def per_layer(self, spans, op_kinds):
        def calls_in(name, label):
            ops = {op for op, kind in op_kinds.items() if kind == label}
            hits = sum(1 for s in spans if s[NAME].startswith(name) and s[OP] in ops)
            return hits / len(ops) if ops else 0.0

        out = {f"cli.{label}.total_s": median_total(spans, f"cli.{label}")
               for label in CLI_LABELS}
        out["montecarlo.chain_times.calls_per_invocation"] = calls_in(
            "montecarlo.chain_times", "montecarlo_trace_csv")
        out["scaling.total_time.calls_per_invocation"] = calls_in(
            "scaling.total_time", "scaling")
        out["config.from_raw.calls"] = (calls_in("config.from_raw", "sweep_scaling")
                                        + calls_in("config.from_raw", "sweep_rates"))
        out.update(import_metrics(self.workdir))
        return out


def import_metrics(workdir):
    """Bare-interpreter time, and the import of ``repeatersim.cli`` and of
    scipy inside it, each the median over fresh processes."""
    interp, total, scipy_s = [], [], []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=workdir,
                       env=child_env())
        interp.append(time.perf_counter() - t0)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import repeatersim.cli"], check=True, cwd=workdir,
                              env=child_env(), capture_output=True, text=True)
        own, scipy = parse_importtime(done.stderr)
        total.append(own)
        scipy_s.append(scipy)
    return {"cli.interpreter_s": statistics.median(interp),
            "cli.import_s": statistics.median(total),
            "cli.import_scipy_s": statistics.median(scipy_s)}


def parse_importtime(text):
    """(seconds importing ``repeatersim``, seconds of that in scipy).

    ``-X importtime`` lists a module after its children, indented two
    spaces per level, so a scipy module counts once: when the next
    shallower line is not scipy itself.
    """
    rows = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue          # the header line
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), cumulative * 1e-6))
    own = sum(c for d, n, c in rows if d == 0 and n.split(".")[0] == "repeatersim")
    scipy = 0.0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        outer = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if outer.split(".")[0] != "scipy":
            scipy += cumulative
    return own, scipy


def write_goldens(workdir):
    """Store the stdout of every invocation at ``DEFAULT_SEED``."""
    prepare(workdir)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for label, argv, want in script(DEFAULT_SEED, workdir):
        code, out, _, _ = run_child([sys.executable, "-m", "repeatersim.cli"] + argv, workdir)
        if code != want:
            raise SystemExit(f"{label}: exit {code}, want {want}")
        with open(os.path.join(GOLDEN_DIR, f"{label}.out"), "wb") as fh:
            fh.write(out)


if __name__ == "__main__":
    # python3 perfbench/cli_session.py  -- rewrite goldens/ from the current CLI
    from harness import RUN_DIR

    write_goldens(os.path.join(RUN_DIR, "goldens_work"))
