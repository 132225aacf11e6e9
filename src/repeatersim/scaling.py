"""Communication-time scaling: compositional evaluation of the total time,
limiting-case closed forms, segment-length optimization, the
direct-transmission baseline, and the uncorrectable-noise fidelity budget.

The compositional chain T0 -> T_n -> T_tot is the normative quantity here;
the printed closed forms are order-of-magnitude companions evaluated
alongside for cross-reporting, never silently reconciled.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._records import Checked, check_in, in_float_range
from .protocol import ChainStallError, InfeasibleError, RepeaterParams, chain


# Uncorrectable-noise allocation, reported next to the correctable budget
# rather than folded into it: ``dark`` grows linearly with the segment count,
# ``asym`` like its square root (a random walk)
FidelityBudget = namedtuple("FidelityBudget", ("target", "dark", "asym",
                                               "dark_negligible", "asym_negligible"))


def fidelity_budget(segments: float, per_connection_dark: float, asym: float,
                    target: float | None = None) -> FidelityBudget:
    """Dark-count and setup-asymmetry infidelity over ``segments`` links.

    Negligibility means at most a tenth of the target budget.
    """
    for name, value in (("segments", segments), ("per_connection_dark", per_connection_dark),
                        ("asym", asym)):
        check_in("[0, inf)", name, value)
    dark = segments * per_connection_dark
    walk = math.sqrt(segments) * asym
    tgt = target if target is not None else math.inf
    return FidelityBudget(target=tgt, dark=dark, asym=walk,
                          dark_negligible=dark <= 0.1 * tgt,
                          asym_negligible=walk <= 0.1 * tgt)


class ScalingReport(Checked, namedtuple("ScalingReport", (
        "t0", "t_n", "t_tot", "t_con", "ratio", "chain", "baseline_direct_ratio",
        "budget", "p_app", "excitation_prob"))):
    """The times in seconds, ``ratio`` = t_tot / t_con, the chain rows,
    ``baseline_direct_ratio`` = exp(L / L_att) (inf past the largest float),
    the fidelity budget, ``p_app`` and the allocated p_c; the layout (L0, L,
    n) is the caller's ``RepeaterParams``."""

    __slots__ = ()

    def _check(self):
        for name in ("t0", "t_n", "t_tot", "t_con", "ratio"):
            check_in("(0, inf)", name, getattr(self, name))
        check_in("[0, inf]", "baseline_direct_ratio", self.baseline_direct_ratio)
        check_in("(0, 1]", "p_app", self.p_app)
        check_in("(0, 1]", "excitation_prob", self.excitation_prob)
        if not abs(self.ratio - self.t_tot / self.t_con) <= 1e-12 * self.ratio:
            raise ValueError("ratio inconsistent with its factors")


def direct_ratio(length_ratio: float) -> float:
    """exp(L / L_att), the direct-transmission baseline over a channel of
    ``length_ratio`` attenuation lengths; inf where it exceeds a float, so a
    scan row's repeater times never fail on it."""
    check_in("[-inf, inf]", "length_ratio", length_ratio)
    try:
        return math.exp(length_ratio)
    except OverflowError:
        return math.inf


def total_time(params: RepeaterParams, df_target: float,
               per_connection_dark: float = 0.0, asym: float = 0.0) -> ScalingReport:
    """Compositional communication time for the configured chain.

    The whole correctable budget is spent on the excitation probability:
    p_c = df_target * L0 / L.  Application success uses the printed
    first-power lumped-efficiency form eta_a / (2 (c_n + 1)^2).
    """
    check_in("(0, 1)", "df_target", df_target)
    n = params.levels
    p_c = df_target / 2 ** n
    if not 0.0 < p_c < 1.0:
        raise InfeasibleError(f"allocated excitation probability {p_c} infeasible")
    params = params.with_(excitation_prob=p_c)
    rows = chain(params)
    t0 = rows[0].elapsed_time
    t_n = rows[-1].elapsed_time
    c_n = rows[-1].vacuum_coeff
    p_app = params.app_efficiency / (2.0 * (c_n + 1.0) ** 2)
    t_tot = in_float_range("total time T_tot", lambda: t_n / p_app, levels=n, T_n=t_n, c_n=c_n,
                           app_efficiency=params.app_efficiency)
    t_con = 2.0 * params.pulse_time / (params.local_efficiency * params.app_efficiency * df_target)
    seg_ratio = params.total_length / params.segment_length   # = 2^n
    return ScalingReport(
        t0=t0, t_n=t_n, t_tot=t_tot, t_con=t_con, ratio=t_tot / t_con,
        chain=rows,
        baseline_direct_ratio=direct_ratio(params.total_length / params.attenuation_length),
        budget=fidelity_budget(seg_ratio, per_connection_dark, asym, df_target),
        p_app=p_app,
        excitation_prob=p_c,
    )


def closed_form_ratio(length_ratio: float, l0_over_latt: float, eta_s: float) -> float:
    """Printed limiting-case expressions for T_tot / T_con: at unit swap
    efficiency the ``high_eta`` case (L/L0)^2 e^{L0/L_att}, below it the
    ``general`` case (L/L0)^{[log2(L/L0)+1]/2 + log2(1/eta_s - 1) + 2} e^{L0/L_att}.
    """
    check_in("(1, inf)", "length_ratio", length_ratio)
    check_in("(-inf, inf)", "l0_over_latt", l0_over_latt)
    check_in("(0, 1]", "eta_s", eta_s)
    if eta_s == 1.0:
        exponent = 2.0
    else:
        exponent = ((math.log2(length_ratio) + 1.0) / 2.0
                    + math.log2(1.0 / eta_s - 1.0) + 2.0)
    return length_ratio ** exponent * math.exp(l0_over_latt)


def closed_form_time(params: RepeaterParams) -> float:
    """Closed-form T_tot / T_con for the configured segment layout; a
    ``FloatRangeError``, which the scan skips, where L0 / L_att overflows."""
    l0, latt = params.segment_length, params.attenuation_length
    return closed_form_ratio(params.total_length / l0,
                             in_float_range("L0 / L_att", lambda: l0 / latt,
                                            segment_length=l0, attenuation_length=latt),
                             params.swap_efficiency)


# value: the minimized T_tot / T_con (or surrogate objective); scanned: the
# (n, L0, value) rows of the integer scan
SegmentOptimum = namedtuple("SegmentOptimum", ("l0_star", "n_star", "value", "scanned"))


def optimal_segment_power_law(m: float, l_att: float = 1.0) -> float:
    """Continuous minimizer of (L/L0)^m e^{L0/L_att}: exactly m * L_att."""
    check_in("(0, inf)", "m", m)
    check_in("(0, inf)", "l_att", l_att)
    return m * l_att


def optimize_segment(params_base: RepeaterParams, total_length: float,
                     objective: str = "compositional", m: float | None = None,
                     df_target: float = 0.05, n_max: int = 20) -> SegmentOptimum:
    """Best dyadic segmentation of a channel of the given length.

    ``compositional`` and ``closed_form`` scan integer doubling counts with
    L0 = L / 2^n; ``power_law`` returns the continuous optimum m * L_att of
    the surrogate model (requires ``m``).
    """
    l_att = params_base.attenuation_length
    check_in("(0, inf)", "total_length", total_length)
    if objective == "power_law":
        if m is None:
            raise ValueError("power_law objective needs the exponent m")
        l0 = optimal_segment_power_law(m, l_att)
        try:   # in logs, so neither factor overflows or underflows on its own
            value = math.exp(m * (math.log(total_length) - math.log(l0)) + l0 / l_att)
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:   # its own check: an underflow to 0 is refused too
            raise ValueError(f"the power-law value is {value} in floats at m = {m}, "
                             f"total_length = {total_length}, attenuation_length = {l_att}")
        return SegmentOptimum(l0_star=l0, n_star=None, value=value, scanned=())
    if total_length <= l_att:
        raise ValueError("total length must exceed the attenuation length")
    check_in("(0, 1)", "df_target", df_target)   # once, for either scan, before any row
    rows = []
    for n in range(1, n_max + 1):
        l0 = total_length / 2 ** n
        trial = params_base.with_(segment_length=l0, levels=n)
        try:
            if objective == "compositional":
                value = total_time(trial, df_target).ratio
            elif objective == "closed_form":
                value = closed_form_time(trial)
            else:
                raise ValueError(f"unknown objective {objective!r}")
        except (InfeasibleError, ChainStallError, OverflowError):
            continue   # the row has no finite time; the scan goes on without it
        rows.append((n, l0, value))
    if not rows:
        raise InfeasibleError("no feasible segmentation in the scanned range")
    best = min(rows, key=lambda r: r[2])
    return SegmentOptimum(l0_star=best[1], n_star=best[0], value=best[2],
                          scanned=tuple(rows))
