"""Light-atom interaction layer: effective rates, squeezing solution,
gain-Lindblad master equation, and free-space signal-to-noise estimates.

The collective spin-wave mode couples coherently to the forward-scattered
field while spontaneous emission heats every atomic Fourier mode at the
same per-mode rate; simulating one collective mode plus a few
representative noise modes is enough to exhibit the rate separation.

The rate formulas and the master equation are plain Python; the squeezer
and the drift integration import NumPy when they run.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._records import check_in, check_int, in_float_range

if TYPE_CHECKING:
    import numpy as np

    from . import fock

ADIABATIC_RATIO_WARN = 10.0

# work cap of the drift cross-check; rtol 1e-11 on the criterion-8 grid needs 317
MAX_RK4_SUBSTEPS = 1_000_000


# EnsembleParams' fields bounded past finiteness; the others are "(-inf, inf)"
_ENSEMBLE_INTERVALS = {"atom_count": "[1, inf)", "cavity_decay": "(0, inf)",
                       "spont_rate": "[0, inf)", "interaction_time": "[0, inf)"}


@dataclass(frozen=True)
class EnsembleParams:
    """Microscopic parameters of a driven Lambda-level ensemble.  The one
    dataclass record: callers copy it with ``dataclasses.replace``."""

    atom_count: int
    rabi: float
    detuning: float
    coupling: float
    cavity_decay: float
    spont_rate: float
    interaction_time: float

    def __post_init__(self):
        for name, value in vars(self).items():
            check_in(_ENSEMBLE_INTERVALS.get(name, "(-inf, inf)"), name, value)
            if name == "detuning" and value == 0.0:   # not an interval
                raise ValueError("detuning must be nonzero")

    @property
    def bad_cavity_ratio(self) -> float:
        """Cavity decay over the collective coupling rate; >> 1 justifies
        adiabatic elimination of the field mode."""
        coupling_rate = math.sqrt(self.atom_count) * abs(self.rabi * self.coupling) / abs(self.detuning)
        return math.inf if coupling_rate == 0 else self.cavity_decay / coupling_rate


# kappa_prime: collective emission rate into the signal mode; gamma_s_prime:
# per-atom spontaneous dephasing rate; snr = kappa_prime / gamma_s_prime;
# squeeze: Bogoliubov parameter r_c; excitation_prob = tanh^2 r_c
EffectiveRates = namedtuple("EffectiveRates", (
    "kappa_prime", "gamma_s_prime", "snr", "squeeze", "excitation_prob",
    "bad_cavity_ratio", "adiabatic_marginal"))


def effective_rates(params: EnsembleParams) -> EffectiveRates:
    """Adiabatic-elimination rates of the ensemble-field dynamics.

    kappa' = 4 N |Omega g|^2 / (Delta^2 kappa), gamma' = (Omega/Delta)^2 gamma,
    and cosh r_c = exp(kappa' t / 2) for an interaction window t.
    """
    p, at = params, vars(params)
    kp = in_float_range("kappa_prime", lambda: 4.0 * p.atom_count * abs(p.rabi * p.coupling) ** 2
                        / (p.detuning ** 2 * p.cavity_decay), **at)
    gp = in_float_range("gamma_s_prime", lambda: (p.rabi / p.detuning) ** 2 * p.spont_rate, **at)
    # snr is meant to be infinite at spont_rate = 0 only
    snr = in_float_range("snr", lambda: 4.0 * p.atom_count * abs(p.coupling) ** 2
                         / (p.cavity_decay * p.spont_rate), **at) if p.spont_rate > 0 else math.inf
    r_c = in_float_range("squeeze", lambda: math.acosh(math.exp(kp * p.interaction_time / 2.0)),
                         **at)
    p_c = math.tanh(r_c) ** 2
    ratio = params.bad_cavity_ratio
    return EffectiveRates(kp, gp, snr, r_c, p_c, ratio, ratio < ADIABATIC_RATIO_WARN)


def langevin_mean_solution(params: EnsembleParams, t: float) -> float:
    """Deterministic amplitude gain exp(kappa' t / 2) of the collective mode."""
    check_in("[0, inf)", "t", t)
    kp = effective_rates(params).kappa_prime
    return in_float_range("exp(kappa' t / 2)", lambda: math.exp(kp * t / 2.0),
                          t=t, **vars(params))


def _time_grid(t_grid) -> list:
    """``t_grid`` as floats, refused unless 1-D, finite and non-decreasing."""
    try:   # an array converts in one call; a 2-D one nests, which float refuses
        times = list(map(float, t_grid.tolist() if hasattr(t_grid, "tolist") else t_grid))
    except TypeError:
        raise ValueError("t_grid must be a 1-D sequence of times") from None
    if not all(map(math.isfinite, times)):
        raise ValueError("t_grid must be finite")
    if times != sorted(times):
        raise ValueError("t_grid must be non-decreasing")
    return times


def langevin_mean_ode(params: EnsembleParams, t_grid, rtol: float = 1e-11) -> np.ndarray:
    """Numerical integration of the drift equation dS/dt = (kappa'/2) S.

    Cross-check for the closed-form gain; the comparison budget is 1e-8.
    Fixed-step classical Runge-Kutta of order 4 from S(0) = 1, each grid
    interval cut into equal substeps.  For dS/dt = lam S one step of
    z = lam h multiplies S by the degree-4 Taylor polynomial of e^z, which
    falls short of e^z by at most z^5 / 120 relative, so the truncation
    error over [0, T] stays below lam T (lam h)^4 / 120 <= ``rtol``, where
    h is the largest substep.  Rounding adds about one ulp per substep.
    """
    check_in("(0, inf)", "rtol", rtol)
    times = _time_grid(t_grid)
    if not times:
        raise ValueError("the drift needs at least one time point, got 0")
    check_in("[0, inf)", "t_grid[0]", times[0])   # the drift starts at t = 0
    lam = 0.5 * effective_rates(params).kappa_prime
    exponent = lam * times[-1]
    if not exponent <= math.log(sys.float_info.max):   # before any RK4 step can overflow
        raise ValueError(f"gain exp(kappa' T / 2) = exp({exponent:.6g}) overflows a float")
    import numpy as np

    if exponent == 0.0:
        return np.ones(len(times))
    z_max = (120.0 * rtol / exponent) ** 0.25   # 0 only where 120 rtol / exponent underflows
    counts = [0 if t == prev else max(math.ceil(lam * (t - prev) / z_max), 1) if z_max
              else math.inf for prev, t in zip([0.0, *times], times)]
    total = sum(counts)
    if total > MAX_RK4_SUBSTEPS:
        raise ValueError(f"rtol {rtol} needs {total:.6g} RK4 substeps, above the cap "
                         f"of {MAX_RK4_SUBSTEPS}")

    s, t_prev, out = 1.0, 0.0, []
    for t, n in zip(times, counts):
        if n:
            h = (t - t_prev) / n
            for _ in range(n):
                k1 = lam * s
                k2 = lam * (s + 0.5 * h * k1)
                k3 = lam * (s + 0.5 * h * k2)
                k4 = lam * (s + h * k3)
                s += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out.append(s)
        t_prev = t
    return np.array(out)


def squeezed_joint_state(rates: EffectiveRates, cutoff: int) -> fock.DensityOperator:
    """Joint atomic/photonic state after the interaction window.

    Two-mode squeezed vacuum with parameter ``rates.squeeze``; mode 0 is the
    collective atomic mode, mode 1 the effective pulse mode.
    """
    from . import fock

    layout = fock.ModeLayout(2, cutoff)
    return fock.apply_two_mode_squeeze(fock.vacuum(layout), 0, 1, rates.squeeze)


class ModePopulations(namedtuple("ModePopulations", ("time_grid", "collective",
                                                     "per_noise_mode", "traces"))):
    """Mean occupations of the collective mode and of one noise mode over a
    time grid (all noise modes are identical), and the trace of the
    truncated multimode state; each field is a list of floats."""

    __slots__ = ()

    def rate_ratio(self) -> float:
        """Least-squares growth-rate ratio (through the origin) of the
        collective mode over a noise mode."""
        t = self.time_grid
        denom = sum(a * b for a, b in zip(self.per_noise_mode, t))
        return sum(a * b for a, b in zip(self.collective, t)) / denom if denom else math.inf


def integrate_master_equation(params: EnsembleParams, n_modes: int, cutoff: int,
                              t_grid) -> ModePopulations:
    """Solve the gain-Lindblad equation from multimode vacuum in closed form.

    Mode 0 (collective) is heated at kappa' + gamma', every other mode at
    gamma' only; valid for rate extraction in the weak-excitation window
    kappa' t << 1.  The Lindbladian is a sum of single-mode gain terms and
    a jump a^dagger keeps a Fock-diagonal state diagonal, so rho(t) is a
    product of diagonal single-mode states.  Each mode is a pure-birth
    chain whose top level c = cutoff absorbs (truncated a a^dagger =
    diag(1, ..., c, 0)): with x = 1 - exp(-R t) its populations are
    exp(-R t) x^n for n < c and x^c at n = c.  Time runs from t_grid[0].
    """
    check_int(n_modes=n_modes, cutoff=cutoff)
    check_in("[2, inf)", "n_modes", n_modes)   # one collective and one noise mode
    check_in("[1, inf)", "cutoff", cutoff)
    times = _time_grid(t_grid)
    if len(times) < 2:
        raise ValueError(f"the master equation needs at least two time points, got {len(times)}")
    rates = effective_rates(params)
    exp, expm1, log1p, t0 = math.exp, math.expm1, math.log1p, times[0]
    columns, power = [], float(n_modes - 1)   # means, traces: collective, then a noise mode
    for rate in (rates.kappa_prime + rates.gamma_s_prime, rates.gamma_s_prime):
        means, traces = [], []
        columns += means, traces
        for t in times:
            minus_rt = rate * (t0 - t)
            e, x = exp(minus_rt), 0.0 - expm1(minus_rt)   # x = +0.0, not -0.0, at t0
            # P(N >= k) = x^k up to the cutoff, so the mean is x (1 - x^c) / e;
            # past x = 1/2, 1 - e would lose e's digits, so x^c goes through log1p
            if x <= 0.5:
                x_c = x ** cutoff
                below = 1.0 - x_c
            else:
                log_x_c = cutoff * log1p(-e)
                x_c, below = exp(log_x_c), -expm1(log_x_c)
            means.append(x * below / e if e else float(cutoff))
            traces.append(below + x_c)
    state_traces = [tc * tn ** power for tc, tn in zip(columns[1], columns[3])]
    return ModePopulations(times, columns[0], columns[2], state_traces)


FreeSpaceSnr = namedtuple("FreeSpaceSnr", ("snr", "optical_depth", "superradiance_risk"))


def free_space_snr(density: float, length: float, wavenumber: float) -> FreeSpaceSnr:
    """Cavity-free signal-to-noise estimate 3 rho L / k^2.

    The value doubles as the on-resonance optical-depth estimate.  The
    superradiance flag is raised when the gas is not dilute on the optical
    wavelength scale (k / rho^{1/3} < 1).
    """
    for name, value in (("density", density), ("length", length), ("wavenumber", wavenumber)):
        check_in("(0, inf)", name, value)
    value = in_float_range("3 rho L / k^2", lambda: 3.0 * density * length / wavenumber ** 2,
                           density=density, length=length, wavenumber=wavenumber)
    dilute = wavenumber / density ** (1.0 / 3.0)
    return FreeSpaceSnr(snr=value, optical_depth=value, superradiance_risk=dilute < 1.0)
