"""Trial-level stochastic simulation of the hierarchical generate-and-swap
process, quantifying how the multiplicative mean-time formula compares to
the exact waiting-time distribution.

Reproducibility contract: every trial draws from its own counter-based
substream keyed by ``(seed, trial index)``, so a sample depends only on
the seed and its trial index.  One NumPy sampler advances all trials of a
batch in lockstep, one level-2 attempt and the swap tests it triggers per
step, and finishes its last few live trials in a scalar walk of
``chain_sample``'s loop fed by lists of draws, resumed from their step
start; level 0 is sampled elementwise in cache-sized blocks.  So both
equal the scalar ``sample_chain_time`` bit for bit.  Generation is level
0 of the chain, so ``generation_times`` and ``sample_generation_time``
refuse what ``chain_times`` and ``sample_chain_time`` refuse at n = 0.
The samplers import ``_mc_kernels`` (and NumPy with it) on their first
call, so the parameter types and the analytic chain time load without
NumPy.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections import namedtuple
from typing import TYPE_CHECKING

from ._records import Checked, check_in, check_int
from .protocol import InfeasibleError, RepeaterParams, chain

if TYPE_CHECKING:
    import numpy as np

BACKEND = "numpy"

POLICIES = ("serial_redo", "parallel_max")

DRAW_BUDGET = 1e9   # expected draws per sampler call: minutes of sampling, not years
MEMORY_BUDGET = 2 ** 30   # bytes one batch, trace or key run may hold


class TrialConfig(Checked, namedtuple("TrialConfig", ("seed", "n_trials", "policy", "threads"),
                                      defaults=("parallel_max", 1))):
    """Seed, trial count and swap policy of one batch.  ``threads`` is
    validated and reported but does not change the samples; the sampler
    runs on one thread."""

    __slots__ = ()

    def _check(self):
        check_int(seed=self.seed, n_trials=self.n_trials, threads=self.threads)
        check_in("[0, 18446744073709551616)", "seed", self.seed)
        check_in("[1, inf)", "n_trials", self.n_trials)
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        check_in("[1, inf)", "threads", self.threads)


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
        # Python ints: NumPy integer arithmetic would overflow the mixing
        self.state = _kernels().stream_state(operator.index(seed), operator.index(trial_index))


def click_probability(params: RepeaterParams) -> float:
    """Per-attempt herald probability, dark counts included."""
    q = params.eta_p * params.excitation_prob + params.dark_prob
    check_in("(0, 1]", "click probability", q)
    return q


@functools.lru_cache(maxsize=256)
def _level_probs(params: RepeaterParams, n: int) -> tuple:
    """``(0.0, p_1, ..., p_n)`` of the analytic chain, memoised on the frozen
    arguments; a tuple, so no caller can change the cached value."""
    rows = chain(params.with_(levels=n))
    return (0.0,) + tuple(row.success_prob for row in rows[1:])


def sample_chain_time(params: RepeaterParams, n: int, rng: SplitMix,
                      policy: str = "parallel_max") -> float:
    """One full waiting time for a level-``n`` link.

    Both sub-pairs are regenerated after a failed swap (retrieval is
    destructive, nothing survives to reuse).  Raises ``InfeasibleError``
    before sampling when the expected number of draws exceeds
    ``DRAW_BUDGET``.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    probs = _level_probs(params, n)
    check_draws(1, _kernels().expected_draws(probs), f"a level-{n} sample")
    q = click_probability(params)
    rng.state, t = _kernels().chain_sample(n, probs, q, params.pulse_time,
                                           policy == "parallel_max", rng.state)
    return t


def sample_generation_time(params: RepeaterParams, rng: SplitMix) -> float:
    """One segment-generation waiting time: level 0 of the chain."""
    return sample_chain_time(params, 0, rng)


def format_count(count: int, scale: float = 1.0, spec: str = ".3g") -> str:
    """``format(count * scale, spec)``; for an int ``count`` past float
    range, where the float product would raise, the product in ``Decimal``."""
    if count <= sys.float_info.max:
        return format(count * scale, spec)
    from decimal import Decimal

    return format(Decimal(count) * Decimal(scale), spec)


def check_draws(count: int, per_item: float, what: str) -> None:
    """Raise ``InfeasibleError`` when ``count`` items of ``per_item``
    expected random draws each would use more than ``DRAW_BUDGET``; an
    infinite ``per_item`` is over it, and no draws an item fit any budget."""
    check_in("[0, inf]", "per_item", per_item)
    if per_item and count > DRAW_BUDGET / per_item:
        raise InfeasibleError(f"{what} needs about {format_count(count, per_item)} random "
                              f"draws, over the budget of {DRAW_BUDGET:.0e}")


def check_memory(nbytes: int, what: str) -> None:
    """Raise ``InfeasibleError`` when ``what`` would hold more than
    ``MEMORY_BUDGET`` bytes."""
    if nbytes > MEMORY_BUDGET:
        raise InfeasibleError(f"{what} would hold about {format_count(nbytes, 2 ** -20, '.0f')} "
                              f"MiB, over the memory cap of {MEMORY_BUDGET / 2 ** 20:.0f} MiB")


def _batch_bytes(n: int, trials: int) -> int:
    """Bytes a level-``n`` batch of ``trials`` holds, an upper bound: per trial
    the sample, its statistics' temporaries and at n >= 1 the sampler's state
    and step arrays, plus 32 per uniform of a lockstep step or level-0 block
    (tracemalloc: at most 0.78 MiB over the per-trial term, 100-15 000 trials)."""
    return trials * (24 if n == 0 else 64 * (n + 2)) + 32 * _kernels()._BLOCK


def chain_times(params: RepeaterParams, n: int, cfg: TrialConfig) -> np.ndarray:
    """Sampled level-``n`` waiting times, one per trial.

    Raises ``InfeasibleError`` before sampling when the expected number of
    draws exceeds ``DRAW_BUDGET`` or the batch would hold more than
    ``MEMORY_BUDGET`` bytes.
    """
    probs = _level_probs(params, n)
    what = f"level {n} with {cfg.n_trials} trials"
    check_draws(cfg.n_trials, _kernels().expected_draws(probs), what)
    check_memory(_batch_bytes(n, cfg.n_trials), what)
    return _kernels().chain_times(cfg.seed, cfg.n_trials, n, probs,
                                  click_probability(params), params.pulse_time,
                                  cfg.policy == "parallel_max")


def generation_times(params: RepeaterParams, cfg: TrialConfig) -> np.ndarray:
    """Sampled segment-generation times, one per trial: level 0 of the
    chain, refused where ``chain_times`` refuses it."""
    return chain_times(params, 0, cfg)


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
    with np.errstate(over="ignore"):   # NumPy warns, not raises: refused below, by name
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
