"""Simulator and analysis toolkit for ensemble-based quantum repeaters.

Layers:

- :mod:`repeatersim.fock` — exact truncated Fock-space engine (the oracle).
- :mod:`repeatersim.ensemble` — light-atom rates, squeezing, heating dynamics.
- :mod:`repeatersim.protocol` — link generation/swapping recursions + oracles.
- :mod:`repeatersim.applications` — CHSH, key distribution, teleportation.
- :mod:`repeatersim.scaling` — communication-time scaling and optimization.
- :mod:`repeatersim.montecarlo` — seeded waiting-time trials (one lockstep
  NumPy sampler, bit-identical to the scalar reference).

The public names below are resolved on first use, so importing the package
loads no submodule and no NumPy; the analytic layers never need it.
"""

import importlib

_EXPORTS = {
    "applications": ("KeyStats", "MeasurementSetting", "PolarizationQubit",
                     "TeleportResult", "chsh_value", "correlation",
                     "ekert_simulation", "teleport"),
    "ensemble": ("EffectiveRates", "EnsembleParams", "ModePopulations",
                 "effective_rates", "free_space_snr", "integrate_master_equation",
                 "langevin_mean_ode", "langevin_mean_solution", "squeezed_joint_state"),
    "fock": ("DensityOperator", "DetectorModel", "ModeLayout", "PureState",
             "TruncationError", "apply_beamsplitter", "apply_loss", "apply_phase",
             "apply_two_mode_squeeze", "fidelity", "measure_detector", "number_state",
             "partial_trace", "pure_state", "tensor", "vacuum"),
    "montecarlo": ("McEstimate", "SplitMix", "TrialConfig", "chain_times", "estimate",
                   "generation_times", "sample_chain_time", "sample_generation_time"),
    "protocol": ("ChainStallError", "EMEState", "RepeaterParams", "chain",
                 "generate_analytic", "generate_oracle", "swap_analytic", "swap_oracle",
                 "vacuum_coeff_closed_form"),
    "scaling": ("FidelityBudget", "InfeasibleError", "ScalingReport", "closed_form_time",
                "fidelity_budget", "optimize_segment", "total_time"),
}

# public name -> submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:   # a layer, as ``import repeatersim`` once bound them all
        return importlib.import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
