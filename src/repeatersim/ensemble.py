"""Light-atom interaction layer: effective rates, squeezing solution,
gain-Lindblad master equation, and free-space signal-to-noise estimates.

The collective spin-wave mode couples coherently to the forward-scattered
field while spontaneous emission heats every atomic Fourier mode at the
same per-mode rate; simulating one collective mode plus a few
representative noise modes is enough to exhibit the rate separation.

The rate formulas are plain Python; the squeezer, the drift integration
and the master equation import NumPy when they run.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from . import fock

ADIABATIC_RATIO_WARN = 10.0

# work cap of the drift cross-check; rtol 1e-11 on the criterion-8 grid needs 317
MAX_RK4_SUBSTEPS = 1_000_000


def _check_finite(**values):
    """Refuse a NaN (which passes every range check) or infinite value by name.
    The chained comparison, unlike ``math.isfinite``, takes any int."""
    for name, value in values.items():
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite, got {value}")


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
        if self.atom_count < 1:
            raise ValueError(f"atom_count must be positive, got {self.atom_count}")
        if self.detuning == 0.0:
            raise ValueError("detuning must be nonzero")
        if self.cavity_decay <= 0.0:
            raise ValueError(f"cavity_decay must be positive, got {self.cavity_decay}")
        if self.spont_rate < 0.0:
            raise ValueError(f"spont_rate must be non-negative, got {self.spont_rate}")
        if self.interaction_time < 0.0:
            raise ValueError(f"interaction_time must be non-negative, got {self.interaction_time}")
        _check_finite(**vars(self))

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
    try:
        kp = 4.0 * params.atom_count * abs(params.rabi * params.coupling) ** 2 / (
            params.detuning ** 2 * params.cavity_decay)
        gp = (params.rabi / params.detuning) ** 2 * params.spont_rate
        snr = (4.0 * params.atom_count * abs(params.coupling) ** 2
               / (params.cavity_decay * params.spont_rate)) if params.spont_rate > 0 else math.inf
        r_c = math.acosh(math.exp(kp * params.interaction_time / 2.0))
        # a float product overflows to inf without raising; snr is meant to
        # be infinite at spont_rate = 0 only
        if not all(map(math.isfinite, (kp, gp, r_c))) or (
                params.spont_rate > 0 and not math.isfinite(snr)):
            raise OverflowError("an effective rate is not finite")
    # raised by a float power, math.exp, the check above, or a quotient whose
    # denominator underflowed to 0
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"effective rates overflow a float at {params}") from exc
    p_c = math.tanh(r_c) ** 2
    ratio = params.bad_cavity_ratio
    return EffectiveRates(kp, gp, snr, r_c, p_c, ratio, ratio < ADIABATIC_RATIO_WARN)


def langevin_mean_solution(params: EnsembleParams, t: float) -> float:
    """Deterministic amplitude gain exp(kappa' t / 2) of the collective mode."""
    if t < 0:
        raise ValueError("t must be non-negative")
    _check_finite(t=t)
    kp = effective_rates(params).kappa_prime
    return math.exp(kp * t / 2.0)


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
    import numpy as np

    if not (math.isfinite(rtol) and rtol > 0):
        raise ValueError(f"rtol must be finite and positive, got {rtol}")
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"t_grid must be a non-empty 1-D grid, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ValueError("t_grid must be finite")
    if times[0] < 0:
        raise ValueError(f"t_grid must be non-negative (the drift starts at t = 0), "
                         f"got {times[0]}")
    steps = np.diff(times, prepend=0.0)
    if np.any(steps < 0):
        raise ValueError("t_grid must be non-decreasing")
    lam = 0.5 * effective_rates(params).kappa_prime
    exponent = lam * times[-1]
    if not exponent <= math.log(sys.float_info.max):
        raise ValueError(f"gain exp(kappa' T / 2) = exp({exponent:.6g}) overflows a float")
    if exponent == 0.0:
        return np.ones_like(times)
    z_max = (120.0 * rtol / exponent) ** 0.25
    counts = np.where(steps > 0, np.maximum(np.ceil(lam * steps / z_max), 1.0), 0.0)
    total = float(counts.sum())
    if total > MAX_RK4_SUBSTEPS:
        raise ValueError(f"rtol {rtol} needs {total:.6g} RK4 substeps, above the cap "
                         f"of {MAX_RK4_SUBSTEPS}")

    s, t_prev, out = 1.0, 0.0, []
    for t, n in zip(times.tolist(), counts.astype(int).tolist()):
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


def squeezed_joint_state(rates: EffectiveRates, cutoff: int,
                         trunc_tol: float = 1e-6) -> fock.DensityOperator:
    """Joint atomic/photonic state after the interaction window.

    Two-mode squeezed vacuum with parameter ``rates.squeeze``; mode 0 is the
    collective atomic mode, mode 1 the effective pulse mode.
    """
    from . import fock

    layout = fock.ModeLayout(2, cutoff)
    return fock.apply_two_mode_squeeze(fock.vacuum(layout), 0, 1, rates.squeeze,
                                       trunc_tol=trunc_tol)


class ModePopulations(namedtuple("ModePopulations", ("time_grid", "collective",
                                                     "per_noise_mode", "traces"))):
    """Mean occupations of the collective mode and of one noise mode over a
    time grid (all noise modes are identical), and the trace of the
    truncated multimode state."""

    __slots__ = ()

    def rate_ratio(self) -> float:
        """Least-squares growth-rate ratio (through the origin) of the
        collective mode over a noise mode."""
        t = self.time_grid
        denom = float(self.per_noise_mode.dot(t))
        if denom == 0.0:
            return math.inf
        return float(self.collective.dot(t)) / denom


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
    import numpy as np

    if n_modes < 2:
        raise ValueError("need at least one collective and one noise mode")
    if cutoff < 1:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError(f"the master equation needs at least two time points, "
                         f"got {t_grid.size}")
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
    return ModePopulations(t_grid, collective, per_noise_mode,
                           trace_collective * trace_noise ** (n_modes - 1))


FreeSpaceSnr = namedtuple("FreeSpaceSnr", ("snr", "optical_depth", "superradiance_risk"))


def free_space_snr(density: float, length: float, wavenumber: float) -> FreeSpaceSnr:
    """Cavity-free signal-to-noise estimate 3 rho L / k^2.

    The value doubles as the on-resonance optical-depth estimate.  The
    superradiance flag is raised when the gas is not dilute on the optical
    wavelength scale (k / rho^{1/3} < 1).
    """
    if density <= 0 or length <= 0 or wavenumber <= 0:
        raise ValueError("density, length and wavenumber must all be positive")
    _check_finite(density=density, length=length, wavenumber=wavenumber)
    value = 3.0 * density * length / wavenumber ** 2
    dilute = wavenumber / density ** (1.0 / 3.0)
    return FreeSpaceSnr(snr=value, optical_depth=value, superradiance_risk=dilute < 1.0)
