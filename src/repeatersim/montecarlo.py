"""Trial-level stochastic simulation of the hierarchical generate-and-swap
process, quantifying how the multiplicative mean-time formula compares to
the exact waiting-time distribution.

Reproducibility contract: every trial draws from its own counter-based
substream keyed by ``(seed, trial index)``, so a sample depends only on
the seed and its trial index.  One NumPy sampler advances all trials of a
batch in lockstep, one level-1 link and the swap tests it triggers per
step, and finishes its last few live trials in the scalar reference
``chain_sample``, resumed from their step start; level 0 is sampled
elementwise in cache-sized blocks.  So both equal the scalar
``sample_chain_time`` bit for bit.
The samplers import ``_mc_kernels`` (and NumPy with it) on their first
call, so the parameter types and the analytic chain time load without
NumPy.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .protocol import InfeasibleError, RepeaterParams, chain

if TYPE_CHECKING:
    import numpy as np

BACKEND = "numpy"

POLICIES = ("serial_redo", "parallel_max")

MAX_LEVEL = 30   # recursion depth guard; expected work grows like prod(1/p_i)
DRAW_BUDGET = 1e9   # expected draws per chain_times call: minutes of sampling, not years
MEMORY_BUDGET = 2 ** 30   # bytes one batch, trace or key run may hold


class TrialConfig(namedtuple("TrialConfig", ("seed", "n_trials", "policy", "threads"),
                             defaults=("parallel_max", 1))):
    """Seed, trial count and swap policy of one batch.  ``threads`` is
    validated and reported but does not change the samples; the sampler
    runs on one thread."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        return self


@functools.cache
def _kernels():
    """``_mc_kernels``, imported by the first sampler call.  Memoised: an
    import statement costs about 1 us a call, as much as a ``SplitMix``
    draw."""
    from . import _mc_kernels

    return _mc_kernels


class SplitMix:
    """Scalar view of one trial substream; used by the single-sample API."""

    def __init__(self, seed: int, trial_index: int = 0):
        self.state = _kernels().stream_state(seed, trial_index)

    def geometric(self, q: float) -> int:
        self.state, k = _kernels().geometric(self.state, q)
        return k


def click_probability(params: RepeaterParams) -> float:
    """Per-attempt herald probability, dark counts included."""
    q = params.eta_p * params.excitation_prob + params.dark_prob
    if not 0.0 < q <= 1.0:
        raise ValueError(f"click probability {q} outside (0, 1]")
    return q


def sample_generation_time(params: RepeaterParams, rng: SplitMix) -> float:
    """One segment-generation waiting time: geometric attempts times the
    pulse interval."""
    return rng.geometric(click_probability(params)) * params.pulse_time


@functools.lru_cache(maxsize=256)
def _level_probs(params: RepeaterParams, n: int) -> tuple:
    """``(0.0, p_1, ..., p_n)`` of the analytic chain, memoised on the frozen
    arguments; a tuple, so no caller can change the cached value."""
    if n > MAX_LEVEL:
        raise ValueError(f"level {n} beyond supported depth {MAX_LEVEL}")
    rows = chain(params.with_(levels=n))
    return (0.0,) + tuple(row.success_prob for row in rows[1:])


def sample_chain_time(params: RepeaterParams, n: int, rng: SplitMix,
                      policy: str = "parallel_max") -> float:
    """One full waiting time for a level-``n`` link.

    Both sub-pairs are regenerated after a failed swap (retrieval is
    destructive, nothing survives to reuse).
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    probs = _level_probs(params, n)
    q = click_probability(params)
    rng.state, t = _kernels().chain_sample(n, probs, q, params.pulse_time,
                                           policy == "parallel_max", rng.state)
    return t


def check_memory(nbytes: float, what: str) -> None:
    """Raise ``InfeasibleError`` when ``what`` would hold more than
    ``MEMORY_BUDGET`` bytes."""
    if nbytes > MEMORY_BUDGET:
        raise InfeasibleError(f"{what} would hold about {nbytes / 2 ** 20:.0f} MiB, "
                              f"over the memory cap of {MEMORY_BUDGET / 2 ** 20:.0f} MiB")


def _trial_bytes(n: int) -> int:
    """Bytes a level-``n`` batch holds per trial, an upper bound: the sample
    and its statistics' temporaries, and at n >= 1 the sampler's per-trial
    state and step arrays (tracemalloc peaks: 16 at level 0, then 149,
    240 and 292 at levels 1-3)."""
    return 24 if n == 0 else 64 * (n + 2)


def generation_times(params: RepeaterParams, cfg: TrialConfig) -> np.ndarray:
    """Sampled segment-generation times, one per trial.

    Raises ``InfeasibleError`` before sampling when the batch would hold
    more than ``MEMORY_BUDGET`` bytes.
    """
    check_memory(cfg.n_trials * _trial_bytes(0), f"level 0 with {cfg.n_trials} trials")
    return _kernels().generation_times(cfg.seed, cfg.n_trials,
                                       click_probability(params), params.pulse_time)


def _expected_draws(probs) -> float:
    """Expected uniforms per trial for level success probabilities
    ``probs[1:]``: d_0 = 1, d_l = (2 d_{l-1} + 1) / p_l."""
    d = 1.0
    for p in probs[1:]:
        d = (2.0 * d + 1.0) / p
    return d


def chain_times(params: RepeaterParams, n: int, cfg: TrialConfig) -> np.ndarray:
    """Sampled level-``n`` waiting times, one per trial.

    Raises ``InfeasibleError`` before sampling when the expected number of
    draws exceeds ``DRAW_BUDGET`` or the batch would hold more than
    ``MEMORY_BUDGET`` bytes.
    """
    probs = _level_probs(params, n)
    what = f"level {n} with {cfg.n_trials} trials"
    draws = cfg.n_trials * _expected_draws(probs)
    if draws > DRAW_BUDGET:
        raise InfeasibleError(f"{what} needs about {draws:.3g} random draws, "
                              f"over the budget of {DRAW_BUDGET:.0e}")
    check_memory(cfg.n_trials * _trial_bytes(n), what)
    return _kernels().chain_times(cfg.seed, cfg.n_trials, n, probs,
                                  click_probability(params), params.pulse_time,
                                  cfg.policy == "parallel_max")


McEstimate = namedtuple("McEstimate", ("mean", "stddev", "ci95", "analytic_t_n",
                                       "vs_analytic_ratio", "n_trials", "seed", "policy",
                                       "backend"))


def analytic_chain_time(params: RepeaterParams, n: int) -> float:
    """Multiplicative mean-time formula T_n = T_0 prod(1/p_i)."""
    return chain(params.with_(levels=n))[-1].elapsed_time


def estimate(params: RepeaterParams, n: int, cfg: TrialConfig,
             times: np.ndarray | None = None) -> McEstimate:
    """Sampled waiting-time statistics against the analytic chain time.

    ``times`` are the samples of ``chain_times(params, n, cfg)``; they are
    drawn here when not given.  Raises ``OverflowError`` when a statistic
    overflows a float.
    """
    import numpy as np

    if times is None:
        times = chain_times(params, n, cfg)
    with np.errstate(over="ignore"):   # refused below, with the reason
        mean = float(times.mean())
        stddev = float(times.std(ddof=1)) if cfg.n_trials > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(stddev)):
        raise OverflowError(f"waiting-time statistics of {cfg.n_trials} trials overflow "
                            f"a float: mean {mean} s, stddev {stddev} s")
    t_n = analytic_chain_time(params, n)
    return McEstimate(
        mean=mean,
        stddev=stddev,
        ci95=1.96 * stddev / math.sqrt(cfg.n_trials),
        analytic_t_n=t_n,
        vs_analytic_ratio=mean / t_n,
        n_trials=cfg.n_trials,
        seed=cfg.seed,
        policy=cfg.policy,
        backend=BACKEND,
    )
