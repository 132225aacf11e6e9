"""Command-line surface.

Subcommands bind the library modules to machine-readable CSV/JSON reports.
Every command is deterministic given (config, seed) and emits byte-stable
output; numeric formatting honours the configured precision (significant
digits).  Exit codes: 0 success, 2 configuration or output file,
3 numeric failure, 4 infeasible request.

Units: lengths in multiples of the attenuation length, times in seconds,
rates in 1/s.

``REPORTS`` is the one dispatch table; ``dynamics``, which writes its CSV
to a file and prints a line of text, alone runs outside it.  A ``--sweep``
step re-runs the whole command, so only the ``ANALYTIC`` reports sweep.

The analytic commands (``rates``, ``chain``, ``scaling``, ``optimize``,
``chsh``, ``teleport`` and the sweeps) run without NumPy: the numeric
engines are imported by the commands that run them.  Only ``scaling`` and
``optimize`` load the ``scaling`` module.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys

from . import config, ensemble, montecarlo
from .config import Config, ConfigError
from .protocol import ChainStallError, InfeasibleError, chain

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OUTPUT = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4

MAX_SWEEP_STEPS = 10_000   # each step runs the whole command once
MAX_DYNAMICS_POINTS = 100_000   # the grid, populations and CSV rows are all held
MAX_DYNAMICS_CUTOFF = 100   # populations hold 2 x points x (cutoff + 1) numbers


def _fmt(value, precision: int):
    # NumPy registers its scalar types with ``numbers``
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    return float(f"{float(value):.{precision}g}")


def _round_tree(obj, precision: int):
    if isinstance(obj, dict):
        return {k: _round_tree(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v, precision) for v in obj]
    return _fmt(obj, precision)


def _resolve_path(path: str) -> str:
    outdir = os.environ.get("REPEATERSIM_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _write(text: str, path: str):
    if path:
        path = _resolve_path(path)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def emit_json(payload: dict, cfg: Config, path: str):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(_round_tree(payload, cfg.output.precision),
                      indent=2, sort_keys=True)
    _write(text + "\n", path)


def emit_csv(header, rows, cfg: Config, path: str):
    prec = cfg.output.precision
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(header)]
    for row in rows:
        lines.append(",".join(str(_fmt(v, prec)) for v in row))
    _write("\n".join(lines) + "\n", path)


def emit_report(summary: dict, table, cfg: Config, fmt: str, path: str):
    """Write a report.  CSV holds the table, or without one the summary's
    scalar fields as a single row; JSON holds the summary and the table's
    rows as records."""
    if fmt == "json":
        rows = {} if table is None else {"rows": [dict(zip(table[0], row))
                                                  for row in table[1]]}
        emit_json({**rows, **summary}, cfg, path)
    elif table is None:
        record = {k: v for k, v in summary.items() if not isinstance(v, (list, dict))}
        emit_csv(list(record), [list(record.values())], cfg, path)
    else:
        emit_csv(*table, cfg, path)


# ---------------------------------------------------------------------------
# reports: (cfg, args) -> (summary, (header, rows) or None); a sweep row is
# the summary's scalar fields


# the rates fields that are infinite where one of their ensemble keys is 0
_INFINITE_AT_ZERO = {"snr": ("spont_rate",), "bad_cavity_ratio": ("rabi", "coupling")}


def rates_report(cfg: Config, args):
    rates = ensemble.effective_rates(cfg.ensemble)
    fs = ensemble.free_space_snr(cfg.free_space.density, cfg.free_space.sample_length,
                                 cfg.free_space.wavenumber)
    for field, keys in _INFINITE_AT_ZERO.items():
        if math.isinf(getattr(rates, field)):
            # the zero keys, or all of them where their product underflowed
            keys = [k for k in keys if getattr(cfg.ensemble, k) == 0] or keys
            at = ", ".join(f"ensemble.{k} = {getattr(cfg.ensemble, k)!r}" for k in keys)
            raise ValueError(f"{field} is infinite at {at}")
    return {**rates._asdict(), "optical_depth": fs.optical_depth,
            "superradiance_risk": fs.superradiance_risk}, None


def chain_report(cfg: Config, args):
    # ChainLevel's fields in order: level, length, c, p, dF, elapsed time
    table = chain(cfg.repeater, channel_phase=cfg.applications.phase)
    summary = dict(zip(("levels", "length", "vacuum_coeff", "success_prob",
                        "fidelity_deficit", "time_s"), table[-1]))
    return summary, (("i", "L_i", "c_i", "p_i", "dF_i", "T_i"), table)


def scaling_report(cfg: Config, args):
    """The optimizer's scan beside the closed forms, which a generator
    evaluates only when the table is written (a sweep reads the summary)."""
    from . import scaling

    def closed_form(params) -> float:
        try:
            return scaling.closed_form_time(params)
        except (ValueError, OverflowError):
            return math.nan

    best = scaling.optimize_segment(cfg.repeater, cfg.scaling.total_length,
                                    objective="compositional",
                                    df_target=cfg.scaling.target_infidelity,
                                    n_max=cfg.scaling.n_max)
    total, latt = cfg.scaling.total_length, cfg.repeater.attenuation_length
    direct = scaling.direct_ratio(total / latt)
    if math.isinf(direct):
        raise OverflowError(f"direct baseline exp(L/L_att) = exp({total / latt!r}) "
                            "overflows a float")
    rows = ((total / latt, l0 / latt, n, ratio,
             closed_form(cfg.repeater.with_(segment_length=l0, levels=n)), direct)
            for n, l0, ratio in best.scanned)
    summary = {"L_over_Latt": total,
               "best_n": best.n_star, "best_L0_over_Latt": best.l0_star,
               "best_ratio": best.value, "ratio_direct": direct,
               "advantage": direct / best.value}
    return summary, (("L_over_Latt", "L0_over_Latt", "n", "ratio_compositional",
                      "ratio_closed_form", "ratio_direct"), rows)


def optimize_report(cfg: Config, args):
    from . import scaling

    best = scaling.optimize_segment(cfg.repeater, cfg.scaling.total_length,
                                    objective=args.objective, m=args.m,
                                    df_target=cfg.scaling.target_infidelity,
                                    n_max=cfg.scaling.n_max)
    return {"objective": args.objective, "L0_star": best.l0_star,
            "n_star": best.n_star, "value": best.value}, None


def chsh_report(cfg: Config, args):
    from . import applications

    results = applications.chsh_correlations(cfg.applications.vacuum_coeff,
                                             cfg.applications.phase,
                                             cfg.repeater.app_efficiency)
    by_setting = dict(zip(applications.CHSH_SETTINGS, results))
    lefts, rights = (0.0, math.pi / 2), (math.pi / 4, 3 * math.pi / 4)
    summary = {"settings": [[a, b] for a in lefts for b in rights],
               "E_matrix": [[by_setting[a, b].value for b in rights] for a in lefts],
               "chsh": applications.chsh_combination(results),
               "coincidence_prob": by_setting[math.pi / 2, 3 * math.pi / 4].coincidence_prob}
    return summary, None


def teleport_report(cfg: Config, args):
    from . import applications

    qubit = applications.PolarizationQubit.from_bloch(args.bloch_theta, args.bloch_phi)
    res = applications.teleport(qubit, cfg.applications.vacuum_coeff,
                                cfg.repeater.app_efficiency,
                                phi=cfg.applications.phase)
    return {"bloch_theta": args.bloch_theta, "bloch_phi": args.bloch_phi,
            **res._asdict()}, None


def ekert_report(cfg: Config, args):
    from . import applications

    seed = args.seed if args.seed is not None else cfg.trials.seed
    rounds = args.rounds if args.rounds is not None else cfg.applications.rounds
    stats = applications.ekert_simulation(cfg.applications.vacuum_coeff,
                                          cfg.applications.phase,
                                          cfg.repeater.app_efficiency,
                                          rounds, seed)
    return {"rounds": stats.rounds, "key_length": stats.sifted_length,
            "qber": stats.qber, "coincidence_rate": stats.coincidence_rate,
            "seed": stats.seed}, None


def montecarlo_report(cfg: Config, args):
    overrides = {"seed": args.seed, "n_trials": args.trials,
                 "policy": args.policy, "threads": args.threads}
    trials = cfg.trials._replace(**{k: v for k, v in overrides.items() if v is not None})
    level = args.level if args.level is not None else cfg.repeater.levels
    if args.trace_csv:
        # one formatted row and its tuple per trial (tracemalloc: 210 bytes)
        montecarlo.check_memory(256 * trials.n_trials,
                                f"a trace of {trials.n_trials} trials")
    times = montecarlo.chain_times(cfg.repeater, level, trials)
    est = montecarlo.estimate(cfg.repeater, level, trials, times)
    if args.trace_csv:
        emit_csv(("trial", "time_s"), list(enumerate(times)), cfg, args.trace_csv)
    return {
        "params_echo": {
            "excitation_prob": cfg.repeater.excitation_prob,
            "pulse_time": cfg.repeater.pulse_time,
            "local_efficiency": cfg.repeater.local_efficiency,
            "swap_efficiency": cfg.repeater.swap_efficiency,
            "dark_prob": cfg.repeater.dark_prob,
            "segment_length": cfg.repeater.segment_length,
            "levels": level,
        },
        "n_trials": est.n_trials, "seed": est.seed, "policy": est.policy,
        "backend": est.backend, "threads": trials.threads,
        "mean_s": est.mean, "stddev_s": est.stddev, "ci95_s": est.ci95,
        "analytic_Tn_s": est.analytic_t_n, "ratio": est.vs_analytic_ratio,
    }, None


REPORTS = {"rates": rates_report, "chain": chain_report, "scaling": scaling_report,
           "optimize": optimize_report, "chsh": chsh_report, "teleport": teleport_report,
           "ekert": ekert_report, "montecarlo": montecarlo_report}
ANALYTIC = ("rates", "chain", "scaling", "optimize", "chsh")


def _linspace(lo: float, hi: float, num: int) -> list:
    """``np.linspace(lo, hi, num)`` bit for bit, as Python floats: ``lo +
    i*step`` with the last point set to ``hi``, and ``(i/div)*delta`` when
    the step underflows to zero."""
    div = num - 1
    if div == 0:
        return [lo + 0.0 * (hi - lo)]
    delta = hi - lo
    step = delta / div
    if step == 0:
        grid = [lo + (i / div) * delta for i in range(num)]
    else:
        grid = [lo + i * step for i in range(num)]
    grid[-1] = hi
    return grid


def cmd_dynamics(cfg: Config, args) -> int:
    rates = ensemble.effective_rates(cfg.ensemble)
    t_end = args.t_max if args.t_max is not None else 0.05 / rates.kappa_prime
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ValueError(f"time window t_max = {t_end} must be positive and finite")
    if args.points < 2:
        raise ValueError(f"the time grid needs at least two time points, got {args.points}")
    if args.points > MAX_DYNAMICS_POINTS:
        raise InfeasibleError(f"{args.points} time points are over the limit of "
                              f"{MAX_DYNAMICS_POINTS}")
    if args.cutoff > MAX_DYNAMICS_CUTOFF:
        raise InfeasibleError(f"photon-number cutoff {args.cutoff} is over the limit of "
                              f"{MAX_DYNAMICS_CUTOFF}")
    grid = _linspace(0.0, t_end, args.points)
    pops = ensemble.integrate_master_equation(cfg.ensemble, args.modes,
                                              args.cutoff, grid)
    rows = []
    for k in range(len(grid)):
        noise = pops.per_noise_mode[k]
        ratio = pops.collective[k] / noise if noise > 0 else math.nan
        rows.append((grid[k], pops.collective[k], noise, ratio))
    path = args.out or "dynamics.csv"
    emit_csv(("t", "pop_collective", "pop_noise_mode", "ratio"), rows, cfg, path)
    analytic = ((rates.kappa_prime + rates.gamma_s_prime) / rates.gamma_s_prime
                if rates.gamma_s_prime > 0 else math.inf)
    extracted = pops.rate_ratio()
    deviation = abs(extracted / analytic - 1.0) if math.isfinite(analytic) else 0.0
    print(f"extracted rate ratio {extracted:.6g} vs analytic {analytic:.6g} "
          f"(deviation {100 * deviation:.2f}%)")
    return EXIT_OK


def _parse_sweep(spec: str):
    try:
        key, rng = spec.split("=", 1)
        lo, hi, steps = rng.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise ConfigError(f"sweep spec {spec!r}: expected key=a:b:steps") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{key}: sweep bounds must be finite, got {lo}:{hi}")
    if not 1 <= steps <= MAX_SWEEP_STEPS:
        raise ConfigError(f"{key}: sweep needs 1 to {MAX_SWEEP_STEPS} steps, got {steps}")
    return key, _linspace(lo, hi, steps)


def _run_sweep(name: str, raw: dict, args) -> int:
    if name not in ANALYTIC:
        raise ConfigError(f"--sweep is not supported for {name}")
    key, values = _parse_sweep(args.sweep)
    section, field = config.schema_key(key)
    is_int = config.SCHEMA[section][field][0] is int
    header, rows, cfg0 = None, [], None
    for v in values:
        text = str(int(round(v))) if is_int else repr(float(v))
        cfg = config.from_raw(config.set_raw(raw, key, text))
        cfg0 = cfg0 or cfg
        summary = {k: s for k, s in REPORTS[name](cfg, args)[0].items()
                   if isinstance(s, (numbers.Real, str))}
        header = header or [key, *summary]
        rows.append([int(text) if is_int else float(text)]
                    + [summary[k] for k in header[1:]])
    emit_report({}, (header, rows), cfg0, "csv", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeatersim",
        description="Ensemble-based quantum repeater simulator. Units: lengths "
                    "in attenuation lengths, times in seconds, rates in 1/s.")
    parser.add_argument("--config", help="INI config file (strict schema)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", default="", help="output file (default stdout)")
        p.add_argument("--sweep", default=None,
                       help="section.key=a:b:steps sweep table")
        return p

    add("rates", "effective interaction rates and free-space optical depth")
    p = add("dynamics", "integrate the heating master equation, write a time series")
    p.add_argument("--modes", type=int, default=4)
    p.add_argument("--cutoff", type=int, default=2)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--points", type=int, default=120)
    add("chain", "per-level doubling-chain table")
    add("scaling", "communication-time ratios over segment counts")
    p = add("optimize", "best segment length for a channel")
    p.add_argument("--objective", choices=("compositional", "closed_form", "power_law"),
                   default="compositional")
    p.add_argument("--m", type=float, default=None, help="power-law exponent")
    add("chsh", "four-setting correlation combination")
    p = add("teleport", "post-selected teleportation figures")
    p.add_argument("--bloch-theta", type=float, default=math.pi / 2)
    p.add_argument("--bloch-phi", type=float, default=0.0)
    p = add("ekert", "sampled key-distribution run")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p = add("montecarlo", "sampled waiting-time statistics")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--policy", choices=montecarlo.POLICIES, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--trace-csv", default="", help="optional per-trial CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw = config.read_raw(args.config or None)
        cfg = config.from_raw(raw)
        if args.format is None:
            args.format = cfg.output.format
        if not args.out and cfg.output.path:
            args.out = cfg.output.path
        if args.sweep:
            return _run_sweep(args.command, raw, args)
        if args.command == "dynamics":
            return cmd_dynamics(cfg, args)
        emit_report(*REPORTS[args.command](cfg, args), cfg, args.format, args.out)
        return EXIT_OK
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ChainStallError, ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
