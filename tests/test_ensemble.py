import ast
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp

from repeatersim import ensemble, fock
from repeatersim.ensemble import (
    EnsembleParams,
    effective_rates,
    free_space_snr,
    integrate_master_equation,
    langevin_mean_ode,
    langevin_mean_solution,
    squeezed_joint_state,
)


def make_params(**overrides):
    base = dict(atom_count=100, rabi=1.0, detuning=10.0, coupling=1.0,
                cavity_decay=10.0, spont_rate=1.0, interaction_time=0.0)
    base.update(overrides)
    return EnsembleParams(**base)


class TestEffectiveRates:
    def test_kappa_prime(self):
        rates = effective_rates(make_params())
        assert rates.kappa_prime == pytest.approx(0.4, abs=1e-15)

    def test_gamma_prime_and_snr(self):
        rates = effective_rates(make_params())
        assert rates.gamma_s_prime == pytest.approx(0.01, abs=1e-15)
        assert rates.snr == pytest.approx(40.0, abs=1e-12)
        assert rates.snr == pytest.approx(rates.kappa_prime / rates.gamma_s_prime, rel=1e-12)

    def test_zero_interaction_time(self):
        rates = effective_rates(make_params(interaction_time=0.0))
        assert rates.squeeze == 0.0
        assert rates.excitation_prob == 0.0

    def test_excitation_prob_definition(self):
        rates = effective_rates(make_params(interaction_time=0.05))
        assert math.cosh(rates.squeeze) == pytest.approx(
            math.exp(rates.kappa_prime * 0.05 / 2), rel=1e-12)
        assert rates.excitation_prob == pytest.approx(math.tanh(rates.squeeze) ** 2, rel=1e-12)

    def test_detuning_guard(self):
        with pytest.raises(ValueError, match="detuning"):
            make_params(detuning=0.0)

    def test_adiabatic_flag(self):
        marginal = make_params(cavity_decay=1.0)
        assert effective_rates(marginal).adiabatic_marginal
        good = make_params(atom_count=1, rabi=0.01)
        assert not effective_rates(good).adiabatic_marginal


def overflow_message(rate, params):
    """The refusal of ``rate``, naming every field of ``params``."""
    return f"{rate} overflows a float at " + ", ".join(
        f"{name} = {value!r}" for name, value in vars(params).items())


class TestOverflowRefusals:
    @pytest.mark.parametrize("field,value", [("interaction_time", 1e6), ("rabi", 1e200),
                                             ("atom_count", 10 ** 400),
                                             ("atom_count", 10 ** 308),
                                             ("coupling", 1e154),
                                             ("detuning", 1e-200)])
    def test_overflow_is_a_value_error_naming_the_inputs(self, field, value):
        # the interaction time enters only the squeezing; the rest overflow kappa'
        rate = "squeeze" if field == "interaction_time" else "kappa_prime"
        params = make_params(**{field: value})
        with pytest.raises(ValueError) as refused:
            effective_rates(params)
        assert str(refused.value) == overflow_message(rate, params)
        assert f"{field} = {value!r}" in str(refused.value)

    def test_overflow_exits_3(self, tmp_path, capsys):
        from repeatersim import cli

        ini = tmp_path / "run.ini"
        ini.write_text("[ensemble]\ninteraction_time = 1e6\n")
        assert cli.main(["--config", str(ini), "rates"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure: squeeze overflows a float at "
                              "atom_count = 100, ")

    @pytest.mark.parametrize("command", ["rates", "dynamics"])
    def test_overflow_to_inf_is_blamed_on_the_rates(self, tmp_path, capsys, command):
        # 4.0 * 10**308 is inf without a float exception, so no check of the
        # CLI's own (snr, time window) may be the one that fires
        from repeatersim import cli

        ini = tmp_path / "run.ini"
        ini.write_text(f"[ensemble]\natom_count = {10 ** 308}\n")
        args = ["--config", str(ini), command, "--out", str(tmp_path / "d.csv")]
        assert cli.main(args if command == "dynamics" else args[:3]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure: kappa_prime overflows a float at "
                              f"atom_count = {10 ** 308}, ")


def single_excitation_rates(params: EnsembleParams):
    """(kappa', gamma'_s, kappa' / gamma'_s) from the exact single-excitation
    manifold, an oracle independent of the adiabatic elimination.

    The states |G, 0> (every atom in g), |E, 0> (one collective excitation
    in e) and |S, 1> (one in s with a cavity photon) span it.  The pump
    couples the first two with sqrt(N) Omega, the cavity the last two with
    g; |E> sits at -Delta and decays at gamma, the photon at kappa.  The
    dressed |G> is the eigenvector of the smallest eigenvalue; scaled to unit
    |G> amplitude, it leaks out through the cavity at kappa |c_S|^2 and by
    spontaneous emission at gamma |c_E|^2, N gamma'_s.  Refused where
    N Omega^2 / Delta^2 >= 0.1, where |G> is no longer weakly dressed.
    """
    weak = params.atom_count * params.rabi ** 2 / params.detuning ** 2
    if weak >= 0.1:
        raise ValueError(f"N Omega^2 / Delta^2 = {weak} >= 0.1: not weakly dressed")
    a = math.sqrt(params.atom_count) * params.rabi
    h = np.array([[0.0, a, 0.0],
                  [a, -params.detuning - 0.5j * params.spont_rate, params.coupling],
                  [0.0, params.coupling, -0.5j * params.cavity_decay]])
    lam, vec = np.linalg.eig(h)
    c = vec[:, np.argmin(abs(lam))]
    c = c / c[0]
    kappa_prime = params.cavity_decay * abs(c[2]) ** 2
    gamma_s_prime = params.spont_rate * abs(c[1]) ** 2 / params.atom_count
    return kappa_prime, gamma_s_prime, kappa_prime / gamma_s_prime


class TestSingleExcitationOracle:
    LADDER = (10.0, 20.0, 40.0, 80.0, 160.0)

    def relative_errors(self, detuning):
        params = make_params(atom_count=4, detuning=detuning)
        rates = effective_rates(params)
        exact = single_excitation_rates(params)
        return np.abs(np.divide(exact, (rates.kappa_prime, rates.gamma_s_prime,
                                        rates.snr)) - 1.0)

    def test_errors_shrink_as_inverse_square_detuning(self):
        # each doubling of Delta divides the errors of kappa', gamma' and
        # the SNR by 4, the ratio tending to 4 as the corrections shrink
        errors = np.array([self.relative_errors(d) for d in self.LADDER])
        # error * Delta^2 rises from the first rung towards its limit and
        # stays within 1.25 times the first rung's (at Delta = 160: 1.10,
        # 1.11 and 1.17 times for kappa', gamma' and the SNR)
        scaled = errors * np.square(self.LADDER)[:, None]
        assert np.all(scaled <= 1.25 * scaled[0]), scaled / scaled[0]
        ratios = errors[:-1] / errors[1:]
        assert np.all((ratios > 3.5) & (ratios < 4.5)), ratios
        assert np.all(np.abs(ratios[-1] - 4.0) < 0.01), ratios
        assert np.all(np.diff(np.abs(ratios - 4.0), axis=0) < 0), ratios
        assert np.all(errors[-1] < 4e-4), errors[-1]

    def test_strong_dressing_is_refused(self):
        # the default ensemble has N Omega^2 / Delta^2 = 1
        with pytest.raises(ValueError, match="not weakly dressed"):
            single_excitation_rates(make_params())


class TestLangevinGain:
    def test_zero_time(self):
        assert langevin_mean_solution(make_params(), 0.0) == 1.0

    def test_unit_exponent(self):
        # kappa' t = 2 -> gain e
        params = make_params()
        t = 2.0 / 0.4
        assert langevin_mean_solution(params, t) == pytest.approx(math.e, rel=1e-12)

    def test_monotone(self):
        params = make_params()
        ts = np.linspace(0, 5, 40)
        gains = [langevin_mean_solution(params, t) for t in ts]
        assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_overflow_is_refused_by_name(self):
        from repeatersim._records import FloatRangeError

        # kappa' = 0.4: exp(0.2 t) leaves the float range above t = 3549
        with pytest.raises(FloatRangeError, match=r"t = 1000000\.0, atom_count = 100"):
            langevin_mean_solution(make_params(), 1e6)

    def test_ode_cross_check(self):
        params = make_params()
        t_grid = np.linspace(0.0, 3.0 / 0.4, 60)   # kappa' t in [0, 3]
        numeric = langevin_mean_ode(params, t_grid)
        closed = np.exp(0.4 * t_grid / 2)
        assert np.max(np.abs(numeric - closed) / closed) < 1e-8


def dop853_gain(kappa_prime, t_grid, rtol=1e-11, atol=1e-13):
    """Oracle for ``langevin_mean_ode``: SciPy's adaptive DOP853 from S(0) = 1
    at t = 0, read off at the distinct points of ``t_grid``."""
    t_grid = np.asarray(t_grid, dtype=float)
    distinct, where = np.unique(t_grid, return_inverse=True)
    sol = solve_ivp(lambda _t, y: 0.5 * kappa_prime * y, (0.0, float(distinct[-1])), [1.0],
                    t_eval=distinct, method="DOP853", rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y[0][where]


# the criterion-8 parameters (kappa' = 0.4)
CRITERION8 = make_params(interaction_time=0.08)


class TestLangevinIntegrator:
    """The fixed-step RK4 drift integration against DOP853 and the closed form."""

    CASES = {
        "criterion 8": (CRITERION8, np.linspace(0.0, 3.0 / 0.4, 80)),
        "late start": (make_params(atom_count=250), np.linspace(2.0, 9.0, 33)),
        "repeated points": (make_params(atom_count=30),
                            [0.0, 0.0, 1.5, 1.5, 1.5, 4.0, 10.0, 10.0, 25.0]),
        "long drift": (make_params(atom_count=1000), np.linspace(0.0, 12.0, 7)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_dop853_and_closed_form(self, case):
        params, grid = self.CASES[case]
        kappa_prime = effective_rates(params).kappa_prime
        closed = np.exp(kappa_prime * np.asarray(grid) / 2.0)
        rk4 = langevin_mean_ode(params, grid)
        oracle = dop853_gain(kappa_prime, grid)
        assert rk4.shape == closed.shape
        assert np.max(np.abs(rk4 - closed) / closed) <= 1e-10
        assert np.max(np.abs(oracle - closed) / closed) <= 1e-10
        assert np.max(np.abs(rk4 - oracle) / oracle) <= 2e-10

    def test_truncation_bound_holds_at_loose_rtol(self):
        # lam T (lam h)^4 / 120 <= rtol bounds the deficit, which is >= 0
        grid = np.linspace(0.0, 3.0 / 0.4, 80)
        closed = np.exp(0.2 * grid)
        for rtol in (1e-3, 1e-6, 1e-9):
            deficit = 1.0 - langevin_mean_ode(CRITERION8, grid, rtol=rtol) / closed
            assert deficit.min() >= -1e-14
            assert deficit.max() <= rtol

    def test_zero_rate_is_flat(self):
        params = make_params(coupling=0.0)
        assert np.array_equal(langevin_mean_ode(params, [0.0, 1.0, 5.0]), np.ones(3))

    def test_no_slower_than_dop853(self):
        grid = np.linspace(0.0, 3.0 / 0.4, 80)

        def best(call):
            times = []
            for _ in range(7):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            return min(times)

        dop853 = best(lambda: dop853_gain(0.4, grid))
        assert best(lambda: langevin_mean_ode(CRITERION8, grid)) <= dop853

    @pytest.mark.parametrize("kwargs, message", [
        ({"rtol": 0.0}, "rtol = 0.0 outside (0, inf)"),
        ({"rtol": -1e-9}, "rtol = -1e-09 outside (0, inf)"),
        ({"rtol": math.nan}, "rtol = nan outside (0, inf)"),
        ({"t_grid": []}, "the drift needs at least one time point, got 0"),
        ({"t_grid": [[0.0, 1.0]]}, "t_grid must be a 1-D sequence of times"),
        ({"t_grid": 1.0}, "t_grid must be a 1-D sequence of times"),
        ({"t_grid": [0.0, math.nan]}, "t_grid must be finite"),
        ({"t_grid": [0.0, math.inf]}, "t_grid must be finite"),
        ({"t_grid": [-1.0, 0.0]}, "t_grid[0] = -1.0 outside [0, inf)"),
        ({"t_grid": [0.0, 2.0, 1.0]}, "t_grid must be non-decreasing"),
        ({"rtol": 1e-40},
         "rtol 1e-40 needs 5.01555e+09 RK4 substeps, above the cap of 1000000"),
        ({"t_grid": [0.0, 3600.0]},
         "gain exp(kappa' T / 2) = exp(720) overflows a float"),
    ])
    def test_bad_requests_refused(self, kwargs, message):
        args = {"t_grid": np.linspace(0.0, 3.0 / 0.4, 80), **kwargs}
        with pytest.raises(ValueError) as info:
            langevin_mean_ode(CRITERION8, **args)
        assert str(info.value) == message

    def test_grid_size_counts_against_the_cap(self):
        grid = np.linspace(0.0, 1.0, ensemble.MAX_RK4_SUBSTEPS + 2)
        with pytest.raises(ValueError, match="above the cap of 1000000"):
            langevin_mean_ode(CRITERION8, grid)

    def test_infinite_rate_refused(self):
        # kappa' overflows to inf without raising; effective_rates refuses it
        params = make_params(atom_count=10 ** 308)
        with pytest.raises(ValueError) as refused:
            langevin_mean_ode(params, [0.0])
        assert str(refused.value) == overflow_message("kappa_prime", params)


class TestSqueezedJointState:
    def test_zero_squeeze_is_vacuum(self):
        rates = effective_rates(make_params(interaction_time=0.0))
        rho = squeezed_joint_state(rates, cutoff=3)
        assert rho.population((0, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_amplitude_ratio_is_excitation_prob(self):
        params = make_params(interaction_time=0.01005 / 0.4)  # p_c ~ 0.01
        rates = effective_rates(params)
        rho = squeezed_joint_state(rates, cutoff=5)
        ratio = rho.population((1, 1)) / rho.population((0, 0))
        assert ratio == pytest.approx(rates.excitation_prob, rel=1e-9)

    def test_effective_mode_mean(self):
        rates = effective_rates(make_params(interaction_time=0.08))
        rho = squeezed_joint_state(rates, cutoff=6)
        assert rho.mean_photon(1) == pytest.approx(math.sinh(rates.squeeze) ** 2, abs=1e-8)

    def test_normalization_tail_bound(self):
        rates = effective_rates(make_params(interaction_time=0.08))
        cutoff = 5
        rho = squeezed_joint_state(rates, cutoff=cutoff)
        diag_sum = sum(rho.population((n, n)) for n in range(cutoff + 1))
        assert diag_sum >= 1.0 - math.tanh(rates.squeeze) ** (2 * (cutoff + 1))


# one call of each kind in the ``exact_engines`` benchmark mix; binds ``results``
EXACT_ENGINES_MIX = """
import numpy as np
from repeatersim import applications, ensemble, protocol

criterion8 = ensemble.EnsembleParams(100, 1.0, 10.0, 1.0, 10.0, 1.0, 0.08)
rates = ensemble.effective_rates(criterion8)
generation = protocol.RepeaterParams(
    excitation_prob=0.005, pulse_time=1e-6, local_efficiency=0.2, swap_efficiency=2 / 3,
    app_efficiency=0.5, dark_prob=1e-5, segment_length=1e-12)
qubit = applications.PolarizationQubit.from_bloch(1.1, 0.4)
setting = applications.MeasurementSetting(0.3, 1.2)
results = {
    "swap_oracle": protocol.swap_oracle(1 / 3, 0.9, phase_left=0.7, phase_right=2.1).c_measured,
    "generate_oracle": protocol.generate_oracle(generation, channel_phase=0.4).infidelity,
    "chsh_value": applications.chsh_value(1.0, 1.0, 0.3),
    "correlation": applications.correlation(1 / 3, 0.4, setting, 0.5).value,
    "teleport": applications.teleport(qubit, 1.0, 0.5).output_fidelity,
    "ekert_simulation": applications.ekert_simulation(0.0, 0.3, 0.5, 10_000, 7).qber,
    "integrate_master_equation": float(ensemble.integrate_master_equation(
        criterion8, 5, 2, np.linspace(0.0, 0.125, 120)).collective[-1]),
    "squeezed_joint_state": ensemble.squeezed_joint_state(rates, cutoff=6).population((1, 1)),
    "langevin_mean_ode": float(ensemble.langevin_mean_ode(
        criterion8, np.linspace(0.0, 7.5, 80))[-1]),
}
"""


class TestScipyFreeRuntime:
    def test_runs_with_scipy_blocked(self):
        script = ("import json, sys\n"
                  "sys.modules['scipy'] = None\n"
                  + EXACT_ENGINES_MIX
                  + "print(json.dumps(results))\n")
        src = os.path.dirname(os.path.dirname(fock.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=env, text=True)
        assert done.returncode == 0, done.stderr
        blocked = json.loads(done.stdout)
        namespace = {}
        exec(EXACT_ENGINES_MIX, namespace)
        assert blocked.keys() == namespace["results"].keys()
        for name, value in namespace["results"].items():
            assert blocked[name] == pytest.approx(value, rel=1e-12, abs=1e-300), name

    def test_no_module_imports_scipy(self):
        # any depth: an import inside a function counts as much as one at the top
        offenders = []
        for name, tree in package_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module or ""]
                else:
                    continue
                offenders += [f"{name}:{node.lineno} {m}" for m in modules
                              if m.split(".")[0] == "scipy"]
        assert offenders == []

    def test_every_memo_is_bounded(self):
        # functools.cache only on a function without parameters; lru_cache
        # always with a finite integer maxsize, so a float-keyed memo cannot
        # grow without bound
        memos, offenders = [], []
        for name, tree in package_trees():
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for deco in func.decorator_list:
                    call = deco if isinstance(deco, ast.Call) else None
                    kind = ast.unparse(call.func if call else deco).rpartition(".")[2]
                    where = f"{name}:{func.name}"
                    if kind == "cache":
                        memos.append(where)
                        if call or ast.unparse(func.args):
                            offenders.append(f"{where} caches on parameters")
                    elif kind == "lru_cache":
                        memos.append(where)
                        bound = call.args + [k.value for k in call.keywords] if call else []
                        if not (len(bound) == 1 and isinstance(bound[0], ast.Constant)
                                and type(bound[0].value) is int and bound[0].value > 0):
                            offenders.append(f"{where} has no finite integer maxsize")
        assert offenders == []
        assert {"protocol.py:_engines", "montecarlo.py:_kernels"} <= set(memos)

    def test_one_eigh_rank_rule_and_no_dimension_knob(self):
        # eigh only in the rank rule and the squeezer table; no `max_dim` anywhere
        eigh, max_dim = [], []

        def visit(node, name, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            idents = {getattr(node, key, None) for key in ("id", "attr", "arg", "name")}
            if "eigh" in idents:
                eigh.append(f"{name}:{func}")
            if "max_dim" in idents:
                max_dim.append(f"{name}:{node.lineno}")
            for child in ast.iter_child_nodes(node):
                visit(child, name, func)

        for name, tree in package_trees():
            visit(tree, name, None)
        assert sorted(eigh) == ["fock.py:_compact", "fock.py:squeeze_eigenbasis"]
        assert max_dim == []

    def test_one_herald_path_outside_fock(self):
        # the oracles herald through fock.herald; the gate-chain splitter and
        # conditioning are called inside fock alone
        calls = [f"{name}:{node.lineno}" for name, tree in package_trees() if name != "fock.py"
                 for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
                 & {"apply_beamsplitter", "condition"}]
        assert calls == []

    def test_one_gate_kernel_in_fock(self):
        # no module calls np.moveaxis; in fock, the gate kernel `_act` moves a
        # factor's mode axes and `marginal` orders its populations, and no
        # other function transposes
        calls = {"moveaxis": [], "transpose": []}

        def visit(node, name, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if isinstance(node, ast.Call):
                called = getattr(node.func, "attr", getattr(node.func, "id", None))
                if called in calls:
                    calls[called].append(f"{name}:{func}")
            for child in ast.iter_child_nodes(node):
                visit(child, name, func)

        for name, tree in package_trees():
            visit(tree, name, None)
        assert calls["moveaxis"] == []
        assert sorted({c for c in calls["transpose"] if c.startswith("fock.py:")}) == [
            "fock.py:_act", "fock.py:marginal"]


def package_trees():
    """``(file name, AST)`` of every module in the package."""
    package = os.path.dirname(fock.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                yield name, ast.parse(f.read(), filename=name)


def dense_gain_populations(kappa_prime, gamma_s_prime, n_modes, cutoff, t_grid,
                           rtol=1e-12, atol=1e-14):
    """Oracle for the closed form: integrate the full (cutoff+1)^(2 m)
    complex density matrix under the gain Lindbladian with RK45.

    The Liouvillian acts on the row-major vec(rho), vec(A rho B) =
    (A kron B^T) vec(rho), and is built as a sparse matrix; the state keeps
    every coherence.  Returns (collective, per_noise_mode, traces) on
    ``t_grid``; meant for m <= 4 modes.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    layout = fock.ModeLayout(n_modes, cutoff)
    d = layout.dim
    dm = layout.mode_dim
    a = np.diag(np.sqrt(np.arange(1, dm)), 1).astype(complex)

    def embed(op, mode):
        mats = [np.eye(dm, dtype=complex)] * n_modes
        mats[mode] = op
        out = sparse.csr_array(mats[0])
        for m in mats[1:]:
            out = sparse.kron(out, m, format="csr")
        return out

    eye = sparse.identity(d, dtype=complex, format="csr")
    liouvillian = sparse.csr_array((d * d, d * d), dtype=complex)
    rates = [kappa_prime + gamma_s_prime] + [gamma_s_prime] * (n_modes - 1)
    for mode, rate in enumerate(rates):
        x = embed(a.conj().T, mode)     # gain jump X = a^dagger
        xx = x.conj().T @ x
        liouvillian = liouvillian + rate * (
            sparse.kron(x, x.conj(), format="csr")
            - 0.5 * (sparse.kron(xx, eye, format="csr")
                     + sparse.kron(eye, xx.T, format="csr")))

    y0 = fock.vacuum(layout).matrix.ravel()
    sol = solve_ivp(lambda _t, y: liouvillian @ y, (float(t_grid[0]), float(t_grid[-1])),
                    y0, t_eval=t_grid, method="RK45", rtol=rtol, atol=atol)
    assert sol.success, sol.message

    diags = sol.y[::d + 1].real   # (d, T): the populations of rho
    number_diag = [embed(a.conj().T @ a, m).diagonal().real for m in range(n_modes)]
    noise = np.mean([number_diag[m] @ diags for m in range(1, n_modes)], axis=0)
    return number_diag[0] @ diags, noise, diags.sum(axis=0)


def vectorised_master_equation(params, n_modes, cutoff, t_grid):
    """Oracle for the plain-float kernel: the closed form on NumPy arrays,
    every level of both heated modes at once.  Returns (collective,
    per_noise_mode, traces, rate_ratio)."""
    t_grid = np.asarray(t_grid, dtype=float)
    rates = effective_rates(params)
    # axis 0: collective mode, one noise mode; axis 1: time; axis 2: level
    rate_t = np.array([rates.kappa_prime + rates.gamma_s_prime,
                       rates.gamma_s_prime])[:, None, None] * (t_grid - t_grid[0])[:, None]
    x = -np.expm1(-rate_t)
    levels = np.arange(cutoff + 1)
    pops = np.exp(-rate_t) * x ** levels
    pops[..., cutoff] = x[..., 0] ** cutoff
    collective, per_noise_mode = pops @ levels
    trace_collective, trace_noise = pops.sum(axis=-1)
    denom = float(per_noise_mode.dot(t_grid))
    ratio = math.inf if denom == 0.0 else float(collective.dot(t_grid)) / denom
    return (collective, per_noise_mode, trace_collective * trace_noise ** (n_modes - 1),
            ratio)


class TestMasterEquation:
    def test_no_spontaneous_emission_keeps_noise_modes_dark(self):
        params = make_params(spont_rate=0.0)
        pops = integrate_master_equation(params, n_modes=3, cutoff=2,
                                         t_grid=np.linspace(0, 0.1, 11))
        assert np.max(np.abs(pops.per_noise_mode)) < 1e-10
        assert pops.collective[-1] > 0

    def test_short_time_rate_ratio(self):
        params = make_params()   # kappa'=0.4, gamma'=0.01
        rates = effective_rates(params)
        t_end = 0.05 / rates.kappa_prime
        pops = integrate_master_equation(params, n_modes=4, cutoff=2,
                                         t_grid=np.linspace(0, t_end, 21))
        expected = (rates.kappa_prime + rates.gamma_s_prime) / rates.gamma_s_prime
        assert pops.rate_ratio() == pytest.approx(expected, rel=0.05)

    def test_symmetric_when_collective_rate_vanishes(self):
        # kappa' = 0 (no coupling) with equal heating everywhere:
        # permutation symmetry
        params = make_params(coupling=0.0, spont_rate=5.0)
        assert effective_rates(params).kappa_prime == 0.0
        pops = integrate_master_equation(params, n_modes=3, cutoff=2,
                                         t_grid=np.linspace(0, 0.2, 9))
        assert np.max(np.abs(np.asarray(pops.collective)
                             - np.asarray(pops.per_noise_mode))) < 1e-9

    def test_trace_preservation_and_positivity(self):
        params = make_params()
        pops = integrate_master_equation(params, n_modes=3, cutoff=2,
                                         t_grid=np.linspace(0, 0.1, 15))
        assert np.max(np.abs(np.asarray(pops.traces) - 1.0)) < 1e-9
        assert np.asarray(pops.collective).min() >= -1e-10
        assert np.asarray(pops.per_noise_mode).min() >= -1e-10

    def test_populations_non_decreasing(self):
        params = make_params()
        pops = integrate_master_equation(params, n_modes=3, cutoff=2,
                                         t_grid=np.linspace(0, 0.1, 15))
        assert np.all(np.diff(pops.collective) > -1e-12)
        assert np.all(np.diff(pops.per_noise_mode) > -1e-12)

    def test_mode_count_guard(self):
        with pytest.raises(ValueError):
            integrate_master_equation(make_params(), n_modes=1, cutoff=2,
                                      t_grid=np.linspace(0, 0.1, 5))

    def test_cutoff_guard(self):
        with pytest.raises(ValueError, match="cutoff"):
            integrate_master_equation(make_params(), n_modes=2, cutoff=0,
                                      t_grid=np.linspace(0, 0.1, 5))

    @pytest.mark.parametrize("points", [0, 1])
    def test_short_time_grid_refused(self, points):
        with pytest.raises(ValueError, match="at least two time points"):
            integrate_master_equation(make_params(), n_modes=2, cutoff=2,
                                      t_grid=np.linspace(0, 0.1, points))

    @pytest.mark.parametrize("n_modes", [2, 3, 4])
    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_closed_form_matches_dense_oracle(self, n_modes, cutoff):
        # kappa' t up to 1, so every truncated level is populated
        params = make_params()
        rates = effective_rates(params)
        grid = np.linspace(0.0, 1.0 / rates.kappa_prime, 11)
        pops = integrate_master_equation(params, n_modes, cutoff, grid)
        dense = dense_gain_populations(rates.kappa_prime, rates.gamma_s_prime,
                                       n_modes, cutoff, grid)
        for closed, oracle in zip((pops.collective, pops.per_noise_mode, pops.traces),
                                  dense):
            assert np.max(np.abs(closed - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    def test_noise_modes_do_not_change_the_columns(self):
        params = make_params()
        grid = np.linspace(0, 0.1, 15)
        small = integrate_master_equation(params, n_modes=2, cutoff=2, t_grid=grid)
        large = integrate_master_equation(params, n_modes=40, cutoff=2, t_grid=grid)
        assert np.array_equal(small.collective, large.collective)
        assert np.array_equal(small.per_noise_mode, large.per_noise_mode)
        assert np.max(np.abs(np.asarray(large.traces) - 1.0)) < 1e-9


class TestMasterEquationKernel:
    """The plain-float kernel against its vectorised oracle, and the input
    refusals."""

    @pytest.mark.parametrize("points", [2, 120, 1000])
    @pytest.mark.parametrize("cutoff", [1, 2, 3, 10, 100])
    @pytest.mark.parametrize("n_modes", [2, 4, 5, 7])
    def test_matches_vectorised_oracle(self, n_modes, cutoff, points):
        params = make_params()
        rates = effective_rates(params)
        # the CLI's weak-excitation window, then one that runs both modes into
        # their cutoff
        for t_end in (0.05 / rates.kappa_prime, 30.0 / rates.gamma_s_prime):
            grid = np.linspace(0.0, t_end, points)
            pops = integrate_master_equation(params, n_modes, cutoff, grid)
            *columns, ratio = vectorised_master_equation(params, n_modes, cutoff, grid)
            for got, want in zip((pops.collective, pops.per_noise_mode, pops.traces),
                                 columns):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert pops.rate_ratio() == pytest.approx(ratio, rel=1e-12)

    def test_fields_are_lists_of_floats_for_any_sequence(self):
        params = make_params()
        grid = np.linspace(0.0, 0.1, 7)
        pops = integrate_master_equation(params, 3, 2, grid)
        for field in pops:
            assert type(field) is list
            assert all(type(v) is float for v in field)
        assert pops.time_grid == grid.tolist()
        for same in (grid.tolist(), tuple(grid.tolist()), iter(grid.tolist())):
            assert integrate_master_equation(params, 3, 2, same) == pops
        assert integrate_master_equation(params, np.int64(3), np.int64(2), grid) == pops

    def test_time_runs_from_the_first_point(self):
        params = make_params()
        # shifts that are exact in binary floating point
        shifted = integrate_master_equation(params, 3, 2, [4.0, 4.5, 5.0])
        origin = integrate_master_equation(params, 3, 2, [0.0, 0.5, 1.0])
        assert shifted[1:] == origin[1:]
        assert shifted.time_grid == [4.0, 4.5, 5.0]

    def test_populations_start_at_positive_zero(self):
        # -expm1(0.0) is -0.0, which the CSV would print as -0
        pops = integrate_master_equation(make_params(), 3, 2, [0.0, 0.1])
        assert math.copysign(1.0, pops.collective[0]) == 1.0
        assert math.copysign(1.0, pops.per_noise_mode[0]) == 1.0

    def test_saturated_modes_sit_at_the_cutoff(self):
        # e^{-Rt} underflows to 0 for both rates: every mode holds c photons
        params = make_params()
        t_end = 1e4 / effective_rates(params).gamma_s_prime
        pops = integrate_master_equation(params, 3, 5, [0.0, t_end])
        assert pops.collective[1] == pops.per_noise_mode[1] == 5.0
        assert pops.traces[1] == 1.0

    @pytest.mark.parametrize("t_grid,reason", [
        ([0.0, math.nan, 0.2], "t_grid must be finite"),
        ([0.0, 0.1, math.inf], "t_grid must be finite"),
        ([-math.inf, 0.0], "t_grid must be finite"),
        ([1.0, 0.5], "t_grid must be non-decreasing"),
        ([0.0, 0.2, 0.1], "t_grid must be non-decreasing"),
        (np.zeros((3, 2)), "t_grid must be a 1-D sequence of times"),
        (np.zeros((3, 1)), "t_grid must be a 1-D sequence of times"),
        ([[0.0, 0.1]], "t_grid must be a 1-D sequence of times"),
        (np.float64(0.5), "t_grid must be a 1-D sequence of times"),
        (0.5, "t_grid must be a 1-D sequence of times"),
    ])
    def test_bad_grid_refused_by_name(self, t_grid, reason):
        with pytest.raises(ValueError) as info:
            integrate_master_equation(make_params(), 3, 2, t_grid)
        assert str(info.value) == reason

    @pytest.mark.parametrize("n_modes,cutoff,reason", [
        (2.5, 2, "n_modes must be an integer, got 2.5"),
        (4.0, 2, "n_modes must be an integer, got 4.0"),
        (True, 2, "n_modes must be an integer, got True"),
        ("3", 2, "n_modes must be an integer, got '3'"),
        (3, 2.0, "cutoff must be an integer, got 2.0"),
        (3, True, "cutoff must be an integer, got True"),
        (3, None, "cutoff must be an integer, got None"),
    ])
    def test_non_integer_count_refused_by_name(self, n_modes, cutoff, reason):
        with pytest.raises(ValueError) as info:
            integrate_master_equation(make_params(), n_modes, cutoff, [0.0, 0.1])
        assert str(info.value) == reason


class TestFreeSpaceSnr:
    def test_formula_inversion(self):
        k = 2.0
        result = free_space_snr(density=k**2 / 3.0, length=1.0, wavenumber=k)
        assert result.snr == pytest.approx(1.0, rel=1e-12)
        assert result.optical_depth == result.snr

    def test_linearity_in_length(self):
        a = free_space_snr(1.0, 1.0, 2.0)
        b = free_space_snr(1.0, 2.0, 2.0)
        assert b.snr == pytest.approx(2 * a.snr, rel=1e-12)

    def test_diluteness_flag(self):
        dense = free_space_snr(density=8.0, length=1.0, wavenumber=1.0)
        assert dense.superradiance_risk
        dilute = free_space_snr(density=0.5, length=1.0, wavenumber=2.0)
        assert not dilute.superradiance_risk

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            free_space_snr(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("args", [
        (1e308, 1.0, 10.0),
        (100.0, 1e308, 10.0),
        (100.0, 1.0, 1e-160),     # k^2 subnormal
        (100.0, 1.0, 1e-170),     # k^2 underflows to 0
    ])
    def test_overflow_refused_naming_every_input(self, args):
        density, length, wavenumber = args
        with pytest.raises(ValueError) as info:
            free_space_snr(*args)
        assert str(info.value) == (f"3 rho L / k^2 overflows a float at density = {density}, "
                                   f"length = {length}, wavenumber = {wavenumber}")

    def test_squared_wavenumber_past_a_float_is_refused_naming_every_input(self):
        # k^2 itself overflows, which a float power raises on
        with pytest.raises(ValueError, match=re.escape(
                "3 rho L / k^2 overflows a float at density = 100.0, length = 1.0, "
                "wavenumber = 8e+266")):
            free_space_snr(100.0, 1.0, 8e266)

    def test_largest_finite_value_passes(self):
        # 3 rho L / k^2 just below the largest float
        result = free_space_snr(5e307, 1.0, 1.0)
        assert result.optical_depth == pytest.approx(1.5e308, rel=1e-15)


# each non-finite input of the ensemble records and closed forms, by the name
# its refusal carries
NON_FINITE_INPUTS = {
    **{field: (lambda v, field=field: make_params(**{field: v}))
       for field in ("atom_count", "rabi", "detuning", "coupling", "cavity_decay",
                     "spont_rate", "interaction_time")},
    "density": lambda v: free_space_snr(v, 1.0, 1.0),
    "length": lambda v: free_space_snr(1.0, v, 1.0),
    "wavenumber": lambda v: free_space_snr(1.0, 1.0, v),
    "t": lambda v: langevin_mean_solution(make_params(), v),
}
# the interval each input is refused outside; every other EnsembleParams
# field must be finite
INTERVALS = {"atom_count": "[1, inf)", "cavity_decay": "(0, inf)", "spont_rate": "[0, inf)",
             "interaction_time": "[0, inf)", "density": "(0, inf)", "length": "(0, inf)",
             "wavenumber": "(0, inf)", "t": "[0, inf)"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_INPUTS))
def test_non_finite_input_is_refused_by_name(field, value):
    with pytest.raises(ValueError) as refused:
        NON_FINITE_INPUTS[field](value)
    interval = INTERVALS.get(field, "(-inf, inf)")
    assert str(refused.value) == f"{field} = {value} outside {interval}"
