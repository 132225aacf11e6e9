"""Trial-level stochastic simulation of the hierarchical generate-and-swap
process, quantifying how the multiplicative mean-time formula compares to
the exact waiting-time distribution.

Reproducibility contract: every trial draws from its own counter-based
substream keyed by ``(seed, trial index)``, so a sample depends only on
the seed and its trial index.  One NumPy sampler advances all trials of a
batch in lockstep and equals the scalar ``sample_chain_time`` bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _mc_kernels as kernels
from .protocol import RepeaterParams, chain
from .scaling import InfeasibleError

BACKEND = "numpy"

POLICIES = ("serial_redo", "parallel_max")

MAX_LEVEL = 30   # recursion depth guard; expected work grows like prod(1/p_i)
DRAW_BUDGET = 1e9   # expected draws per chain_times call: minutes of sampling, not years


@dataclass(frozen=True)
class TrialConfig:
    """Seed, trial count and swap policy of one batch.  ``threads`` is
    validated and reported but does not change the samples; the sampler
    runs on one thread."""

    seed: int
    n_trials: int
    policy: str = "parallel_max"
    threads: int = 1

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


class SplitMix:
    """Scalar view of one trial substream; used by the single-sample API."""

    def __init__(self, seed: int, trial_index: int = 0):
        self.state = kernels.stream_state(seed, trial_index)

    def uniform(self) -> float:
        self.state, u = kernels.next_uniform(self.state)
        return u

    def geometric(self, q: float) -> int:
        self.state, k = kernels.geometric(self.state, q)
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
    rng.state, t = kernels.chain_sample(n, probs, q, params.pulse_time,
                                        policy == "parallel_max", rng.state)
    return t


def generation_times(params: RepeaterParams, cfg: TrialConfig) -> np.ndarray:
    """Sampled segment-generation times, one per trial."""
    return kernels.generation_times(cfg.seed, cfg.n_trials,
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
    draws exceeds ``DRAW_BUDGET``.
    """
    probs = _level_probs(params, n)
    draws = cfg.n_trials * _expected_draws(probs)
    if draws > DRAW_BUDGET:
        raise InfeasibleError(
            f"level {n} with {cfg.n_trials} trials needs about {draws:.3g} "
            f"random draws, over the budget of {DRAW_BUDGET:.0e}")
    return kernels.chain_times(cfg.seed, cfg.n_trials, n, probs,
                               click_probability(params), params.pulse_time,
                               cfg.policy == "parallel_max")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stddev: float
    ci95: float
    analytic_t_n: float
    vs_analytic_ratio: float
    n_trials: int
    seed: int
    policy: str
    backend: str


def analytic_chain_time(params: RepeaterParams, n: int) -> float:
    """Multiplicative mean-time formula T_n = T_0 prod(1/p_i)."""
    return chain(params.with_(levels=n))[-1].elapsed_time


def estimate(params: RepeaterParams, n: int, cfg: TrialConfig,
             times: np.ndarray | None = None) -> McEstimate:
    """Sampled waiting-time statistics against the analytic chain time.

    ``times`` are the samples of ``chain_times(params, n, cfg)``; they are
    drawn here when not given.
    """
    if times is None:
        times = chain_times(params, n, cfg)
    mean = float(times.mean())
    stddev = float(times.std(ddof=1)) if cfg.n_trials > 1 else 0.0
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
