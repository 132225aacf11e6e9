"""The library's twin of the command line's ``TestContract``: every public
function and input record of the library, called with NaN, +inf and -inf in
each float parameter, one at a time, refuses with a ``ValueError`` whose
message names the parameter.  ``EXCEPTIONS`` lists each deliberate
exception with its reason."""

import inspect
import math
import re

import pytest

from repeatersim import applications, ensemble, fock, montecarlo, protocol, scaling

MODULES = (applications, ensemble, fock, montecarlo, protocol, scaling)
VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def repeater(**overrides):
    return protocol.RepeaterParams(**{
        "excitation_prob": 0.01, "pulse_time": 1e-6, "local_efficiency": 0.5,
        "swap_efficiency": 2 / 3, "app_efficiency": 0.5, "dark_prob": 1e-5,
        "attenuation_length": 1.0, "segment_length": 1.0, "levels": 2, **overrides})


ENSEMBLE = ensemble.EnsembleParams(100, 1.0, 10.0, 1.0, 10.0, 1.0, 0.0502)
LINK = protocol.EMEState(0.5)
PAIR = fock.vacuum(fock.ModeLayout(2, 2))

# call -> (callable, valid keyword arguments).  Every float argument, and
# every float in a list or tuple argument, is a parameter the contract
# breaks one at a time; the others stay as given.
CALLS = {
    "applications.MeasurementSetting": (applications.MeasurementSetting,
                                        {"psi_left": 0.1, "psi_right": 0.2}),
    "applications.PolarizationQubit": (applications.PolarizationQubit,
                                       {"d0": 1.0, "d1": 0.0}),
    "applications.PolarizationQubit.from_bloch": (applications.PolarizationQubit.from_bloch,
                                                  {"theta": 1.0, "phi": 0.5}),
    "applications.correlation": (applications.correlation, {
        "c_n": 1.0, "phi": 0.5, "setting": applications.MeasurementSetting(0.1, 0.2),
        "eta_a": 0.5, "dark_prob": 1e-3}),
    "applications.chsh_correlations": (applications.chsh_correlations,
                                       {"c_n": 1.0, "phi": 0.5, "eta_a": 0.5}),
    "applications.chsh_value": (applications.chsh_value,
                                {"c_n": 1.0, "phi": 0.5, "eta_a": 0.5}),
    "applications.ekert_simulation": (applications.ekert_simulation, {
        "c_n": 1.0, "phi": 0.5, "eta_a": 0.5, "rounds": 100, "seed": 1}),
    "applications.teleport": (applications.teleport, {
        "qubit": applications.PolarizationQubit(1.0, 0.0), "c_n": 1.0, "eta_a": 0.5,
        "phi": 0.5}),
    "ensemble.EnsembleParams": (ensemble.EnsembleParams, {
        "atom_count": 100, "rabi": 1.0, "detuning": 10.0, "coupling": 1.0,
        "cavity_decay": 10.0, "spont_rate": 1.0, "interaction_time": 0.0502}),
    "ensemble.langevin_mean_solution": (ensemble.langevin_mean_solution,
                                        {"params": ENSEMBLE, "t": 1.0}),
    "ensemble.langevin_mean_ode": (ensemble.langevin_mean_ode, {
        "params": ENSEMBLE, "t_grid": [0.0, 1.0], "rtol": 1e-9}),
    "ensemble.integrate_master_equation": (ensemble.integrate_master_equation, {
        "params": ENSEMBLE, "n_modes": 2, "cutoff": 2, "t_grid": [0.0, 1.0]}),
    "ensemble.free_space_snr": (ensemble.free_space_snr,
                                {"density": 100.0, "length": 1.0, "wavenumber": 10.0}),
    "fock.beamsplitter_matrix": (fock.beamsplitter_matrix,
                                 {"cutoff": 1, "theta": 0.7, "phase": 0.3}),
    "fock.apply_beamsplitter": (fock.apply_beamsplitter, {
        "rho": PAIR, "i": 0, "j": 1, "theta": 0.7, "phase": 0.3}),
    "fock.apply_phase": (fock.apply_phase, {"rho": PAIR, "i": 0, "psi": 0.3}),
    "fock.apply_two_mode_squeeze": (fock.apply_two_mode_squeeze, {
        "rho": PAIR, "i": 0, "j": 1, "r": 0.01, "trunc_tol": 1e-6}),
    "fock.loss_kraus": (fock.loss_kraus, {"cutoff": 1, "eta": 0.5}),
    "fock.apply_loss": (fock.apply_loss, {"rho": PAIR, "i": 0, "eta": 0.5}),
    "fock.DetectorModel": (fock.DetectorModel, {"efficiency": 0.9, "dark_count_prob": 1e-3,
                                                "resolving": False}),
    "fock.alone_weights": (fock.alone_weights, {"cutoff": 1, "dark_count_prob": 1e-3}),
    "montecarlo.format_count": (montecarlo.format_count, {"count": 3, "scale": 2.0}),
    "montecarlo.check_draws": (montecarlo.check_draws,
                               {"count": 3, "per_item": 2.0, "what": "a run"}),
    "protocol.EMEState": (protocol.EMEState, {
        "vacuum_coeff": 0.5, "phase": 0.3, "fidelity_deficit": 0.01, "span_length": 1.0}),
    "protocol.RepeaterParams": (protocol.RepeaterParams, repeater()._asdict()),
    "protocol.generate_analytic": (protocol.generate_analytic,
                                   {"params": repeater(), "channel_phase": 0.3}),
    "protocol.swap_analytic": (protocol.swap_analytic,
                               {"left": LINK, "right": LINK, "eta_s": 0.5}),
    "protocol.vacuum_coeff_closed_form": (protocol.vacuum_coeff_closed_form,
                                          {"i": 3, "eta_s": 0.5, "c0": 0.1}),
    "protocol.chain": (protocol.chain, {"params": repeater(), "channel_phase": 0.3}),
    "protocol.eme_density": (protocol.eme_density, {
        "layout": fock.ModeLayout(2, 2), "pair": (0, 1), "c": 0.5, "phase": 0.3,
        "etas": (0.9, 0.8)}),
    "protocol.generation_circuit": (protocol.generation_circuit, {
        "p_c": 0.01, "eta_p": 0.3, "p_dc": 1e-5, "channel_phase": 0.3}),
    "protocol.generate_oracle": (protocol.generate_oracle, {
        "params": repeater(), "channel_phase": 0.3}),
    "protocol.swap_oracle": (protocol.swap_oracle, {
        "c": 0.5, "eta_s": 0.7, "phase_left": 0.3, "phase_right": 0.2}),
    "scaling.fidelity_budget": (scaling.fidelity_budget, {
        "segments": 4.0, "per_connection_dark": 1e-5, "asym": 1e-4, "target": 0.05}),
    "scaling.ScalingReport": (scaling.ScalingReport, {
        "t0": 1.0, "t_n": 1.0, "t_tot": 2.0, "t_con": 1.0, "ratio": 2.0, "chain": (),
        "baseline_direct_ratio": 1.0, "budget": None, "p_app": 0.5,
        "excitation_prob": 0.01}),
    "scaling.direct_ratio": (scaling.direct_ratio, {"length_ratio": 2.0}),
    "scaling.total_time": (scaling.total_time, {
        "params": repeater(), "df_target": 0.05, "per_connection_dark": 1e-5,
        "asym": 1e-4}),
    "scaling.closed_form_ratio": (scaling.closed_form_ratio,
                                  {"length_ratio": 4.0, "l0_over_latt": 1.0, "eta_s": 0.5}),
    "scaling.optimal_segment_power_law": (scaling.optimal_segment_power_law,
                                          {"m": 2.0, "l_att": 1.0}),
    "scaling.optimize_segment": (scaling.optimize_segment, {
        "params_base": repeater(), "total_length": 20.0, "df_target": 0.05, "n_max": 3}),
    "scaling.optimize_segment[power_law]": (scaling.optimize_segment, {
        "params_base": repeater(), "total_length": 20.0, "objective": "power_law",
        "m": 2.0}),
}

# (call, parameter) -> (the values it lets through or refuses otherwise, why)
EXCEPTIONS = {
    ("protocol.EMEState", "vacuum_coeff"): (
        ("inf",), "the scaling scan reaches ChainStallError through an infinite "
                  "vacuum coefficient, where eta_p p_c is subnormal"),
    ("protocol.EMEState", "phase"): (
        ("inf", "-inf"), "each swap doubles the phase, so a finite phase near the largest "
                         "float is infinite a level up"),
    ("protocol.EMEState", "span_length"): (
        ("inf",), "each swap doubles the span, so a finite span near the largest float "
                  "is infinite a level up"),
    ("scaling.ScalingReport", "baseline_direct_ratio"): (
        ("inf",), "direct_ratio's inf, carried by the report"),
    ("scaling.direct_ratio", "length_ratio"): (
        ("inf", "-inf"), "exp of an infinite length is its limit, inf or 0, so a scan "
                         "row's repeater times never fail on it"),
    ("scaling.fidelity_budget", "target"): (
        tuple(VALUES), "ROADMAP item 13 deletes it; an absent target reads as inf, and the "
                       "target only scales the negligibility flags"),
    ("montecarlo.format_count", "scale"): (
        tuple(VALUES), "formats a figure for a refusal message as it is given"),
    ("montecarlo.check_draws", "per_item"): (
        ("inf",), "an infinite count of draws is over the budget, an InfeasibleError"),
}

# the public callables without a float parameter: result records, which the
# library builds from checked inputs, and functions of records, states,
# layouts, arrays or integers
NO_FLOAT_PARAMETER = {
    "applications": {"CorrelationResult", "KeyStats", "TeleportResult", "chsh_combination"},
    "ensemble": {"EffectiveRates", "ModePopulations", "FreeSpaceSnr", "effective_rates",
                 "squeezed_joint_state"},
    "fock": {"TruncationError", "ImpossibleOutcomeError", "ModeLayout", "PureState",
             "DensityOperator", "vacuum", "number_state", "pure_state", "tensor",
             "pair_rows_over", "herald", "squeeze_eigenbasis", "marginal",
             "detector_probability", "condition", "outcome_probability",
             "normalize_outcome", "measure_detector", "partial_trace", "fidelity"},
    "montecarlo": {"TrialConfig", "SplitMix", "click_probability", "sample_chain_time",
                   "sample_generation_time", "check_memory", "chain_times",
                   "generation_times", "McEstimate", "analytic_chain_time", "estimate"},
    "protocol": {"ChainStallError", "InfeasibleError", "GenerationResult", "ChainLevel",
                 "GenerationOracleResult", "SwapOracleResult"},
    "scaling": {"FidelityBudget", "SegmentOptimum", "closed_form_time"},
}


def float_parameters(kwargs):
    """``(name, setter)`` for each float parameter of ``kwargs``: ``setter(v)``
    is the arguments with that parameter, or that element of it, set to v."""
    for name, value in kwargs.items():
        if isinstance(value, float):
            yield name, lambda v, name=name: {**kwargs, name: v}
        elif type(value) in (list, tuple) and all(isinstance(x, float) for x in value):
            for k in range(len(value)):
                yield name, lambda v, name=name, value=value, k=k: {
                    **kwargs, name: type(value)((*value[:k], v, *value[k + 1:]))}


def breach(call, name, kwargs):
    """None where ``call(**kwargs)`` refuses with a ValueError naming
    ``name``, else what it did instead."""
    try:
        result = call(**kwargs)
    except ValueError as exc:
        if re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", str(exc)):
            return None
        return f"{type(exc).__name__}: {exc}"
    except Exception as exc:   # reported with its parameter
        return f"{type(exc).__name__}: {exc}"
    return f"returned {result!r}"


def test_every_float_parameter_is_refused_by_name():
    broken, excused = [], set()
    for label, (call, kwargs) in CALLS.items():
        for name, setter in float_parameters(kwargs):
            allowed, _ = EXCEPTIONS.get((label, name), ((), ""))
            for text, value in VALUES.items():
                found = breach(call, name, setter(value))
                if found is None:
                    continue
                if text in allowed:
                    excused.add((label, name, text))
                else:
                    broken.append((label, name, text, found))
    assert broken == []
    # each listed exception is still needed: no stale reason
    listed = {(label, name, text) for (label, name), (values, _) in EXCEPTIONS.items()
              for text in values}
    assert listed == excused


def test_every_valid_call_returns():
    # the base arguments are valid, so each break above is the parameter's
    for call, kwargs in CALLS.values():
        call(**kwargs)


def test_every_float_parameter_of_a_call_is_broken():
    # a parameter annotated float, and a record's field, is in the base
    # arguments of one of the callable's entries, so none is left at its
    # default
    given = {}
    for call, kwargs in CALLS.values():
        given.setdefault(call, set()).update(kwargs)
    missing = []
    for call, names in given.items():
        fields = getattr(call, "_fields", ())
        missing += [(call.__qualname__, name)
                    for name, param in inspect.signature(call).parameters.items()
                    if "float" in str(param.annotation) and name not in names]
        missing += [(call.__qualname__, name) for name in fields if name not in names]
    assert missing == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.split(".")[-1])
def test_every_public_callable_is_in_the_contract(module):
    short = module.__name__.split(".")[-1]
    public = {name for name, obj in vars(module).items()
              if not name.startswith("_") and callable(obj)
              and getattr(obj, "__module__", None) == module.__name__}
    called = {label.split(".")[1].split("[")[0] for label in CALLS
              if label.startswith(f"{short}.")}
    assert public == called | NO_FLOAT_PARAMETER[short]
    assert not called & NO_FLOAT_PARAMETER[short]
