"""Per-layer metrics computed from the spans of a traced run.

Layers are the package's modules.  Per-operation figures divide a sum over
the traced run by the number of traced operations, so they do not depend
on how many cycles fit in the run.  ``.total_s`` is the median inclusive
time of one call.  Every workload reports every metric of ``PER_LAYER``; a
metric of a layer the workload does not reach is 0.
"""

from __future__ import annotations

from tracer import (NAME, SIZE, duration, layer, measure_calls_per_outcome,
                    median_total, self_time)

LAYERS = ("fock", "ensemble", "protocol", "applications", "scaling", "montecarlo",
          "config", "cli")

FOCK_SELF = ("apply_beamsplitter", "apply_loss", "apply_phase", "apply_two_mode_squeeze",
             "measure_detector", "detector_probability", "tensor", "fidelity")

CLI_LABELS = ("rates", "chain", "scaling", "optimize", "optimize_power_law", "chsh",
              "teleport", "ekert", "dynamics_m4", "dynamics_m5", "montecarlo",
              "montecarlo_trace_csv", "sweep_scaling", "sweep_rates", "reject_config",
              "reject_numeric")

# name -> unit, in reporting order
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
for _fn in FOCK_SELF:
    PER_LAYER[f"fock.{_fn}.self_s"] = "s"
PER_LAYER.update({
    "fock.bytes_computed": "bytes",
    "fock.gb_per_s": "GB/s",
    "fock.max_dim": "count",
    "applications.correlation.total_s": "s",
    "applications.chsh_value.total_s": "s",
    "applications.teleport.total_s": "s",
    "applications.ekert_simulation.total_s": "s",
    "applications.measure_calls_per_outcome": "ratio",
    "protocol.generate_oracle.total_s": "s",
    "protocol.swap_oracle.total_s": "s",
    "protocol.chain.calls": "count",
    "ensemble.integrate_master_equation.m4.total_s": "s",
    "ensemble.integrate_master_equation.m5.total_s": "s",
    "ensemble.squeezed_joint_state.total_s": "s",
    "ensemble.langevin_mean_ode.total_s": "s",
    "ensemble.state_dim": "count",
})
# the sampler cases; `mc_waiting_times` runs them all, the command line's
# `montecarlo --level 2` only n2.parallel_max
MC_POLICIES = ("parallel_max", "serial_redo")
MC_CASES = tuple(f"n{n}.{policy}" for n in (1, 2, 3) for policy in MC_POLICIES)
for _case in MC_CASES:
    PER_LAYER[f"montecarlo.chain_times.{_case}.trials_per_s"] = "1/s"
PER_LAYER.update({
    "montecarlo.generation_times.trials_per_s": "1/s",
    "montecarlo.draws_per_trial.n1": "count",
    "montecarlo.draws_per_trial.n2": "count",
    "montecarlo.draws_per_trial.n3": "count",
    "montecarlo.ns_per_draw": "ns",
    "montecarlo.threads2_speedup": "ratio",
    "bench_montecarlo.generation_n0.s_per_50k": "s",
    "montecarlo.chain_times.calls_per_invocation": "count",
    "scaling.total_time.calls_per_invocation": "count",
    "scaling.optimize_segment.total_s": "s",
    "config.from_raw.calls": "count",
    "config.from_raw.total_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
})
for _label in CLI_LABELS:
    PER_LAYER[f"cli.{_label}.total_s"] = "s"
PER_LAYER["trace.op_wall_s"] = "s"
PER_LAYER["trace_overhead_frac"] = "frac"


def throughput(spans, name):
    """Summed size (trials) over summed duration of the spans called ``name``."""
    chosen = [s for s in spans if s[NAME] == name]
    busy = sum(duration(s) for s in chosen)
    return sum(s[SIZE] for s in chosen) / busy if busy else 0.0


def generic(spans, n_ops, traced_s, plain_s):
    """Metrics every workload computes the same way from its spans."""
    out = {}
    for lay in LAYERS:
        mine = [s for s in spans if layer(s) == lay]
        out[f"{lay}.calls"] = len(mine) / n_ops
        out[f"{lay}.self_s"] = sum(self_time(s) for s in mine) / n_ops
    fock = [s for s in spans if layer(s) == "fock"]
    for fn in FOCK_SELF:
        out[f"fock.{fn}.self_s"] = sum(self_time(s) for s in fock
                                       if s[NAME] == f"fock.{fn}") / n_ops
    # a dense complex128 matrix of dim^2 entries, 16 bytes each, per call
    fock_bytes = sum(16 * s[SIZE] ** 2 for s in fock)
    fock_self = sum(self_time(s) for s in fock)
    out["fock.bytes_computed"] = fock_bytes / n_ops
    out["fock.gb_per_s"] = fock_bytes / fock_self / 1e9 if fock_self else 0.0
    out["fock.max_dim"] = max((s[SIZE] for s in fock), default=0)
    for name in ("applications.correlation", "applications.chsh_value",
                 "applications.teleport", "applications.ekert_simulation",
                 "protocol.generate_oracle", "protocol.swap_oracle",
                 "ensemble.integrate_master_equation.m4",
                 "ensemble.integrate_master_equation.m5",
                 "ensemble.squeezed_joint_state", "ensemble.langevin_mean_ode",
                 "scaling.optimize_segment", "config.from_raw"):
        out[f"{name}.total_s"] = median_total(spans, name)
    out["applications.measure_calls_per_outcome"] = measure_calls_per_outcome(spans)
    out["protocol.chain.calls"] = sum(s[NAME] == "protocol.chain" for s in spans) / n_ops
    out["ensemble.state_dim"] = max(
        (s[SIZE] for s in spans if s[NAME].startswith("ensemble.integrate_master_equation")),
        default=0)
    out["montecarlo.chain_times.n2.parallel_max.trials_per_s"] = throughput(
        spans, "montecarlo.chain_times.n2.parallel_max")
    out["trace.op_wall_s"] = traced_s / n_ops
    out["trace_overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    return out


def per_layer(spans, n_ops, traced_s, plain_s, extra):
    """All of ``PER_LAYER``: generic values, then the workload's extras,
    else 0."""
    values = generic(spans, n_ops, traced_s, plain_s)
    values.update(extra)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics not declared: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
