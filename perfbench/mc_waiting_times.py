"""Workload ``mc_waiting_times``: seeded batches of the waiting-time sampler.

Operation: one ``montecarlo.generation_times`` or ``montecarlo.chain_times``
batch.  The parameters are those of ``benchmarks/bench_montecarlo.py``
(p_c = 0.01, t_Delta = 1 us, eta_s = 2/3, no dark counts, a negligible
segment).  One cycle is 10 batches, each with a fresh seed:

- ``generation_times`` (level 0): 1e6 trials, and 5e4 trials;
- ``chain_times`` level 1: 20 000 trials under each policy;
- level 2: 5 000 trials under each policy, once with ``threads=1`` and
  once with ``threads=2`` on the same seed;
- level 3: 1 000 trials under each policy.

The two level-2 batches on one seed must agree bit for bit.

Why: ``montecarlo`` and its kernels do nearly all the work and ``fock``
none.  Shallow levels take one or a few draws per trial, while at level 3
rare long trials set the step count, so a sampler that trades per-trial
overhead for per-step overhead gains on one and may lose on the other.
The 5e4 generation batch and the ``parallel_max``, one-thread level-2 and
level-3 batches are the three cases of ``bench_montecarlo.py``.  The first
is reported as ``bench_montecarlo.generation_n0.s_per_50k``; the chain
cases carry forward as ``montecarlo.chain_times.n{2,3}.parallel_max.trials_per_s``
(``bench_montecarlo.py``'s seconds per 5e4 trials are 5e4 over that rate).
"""

from __future__ import annotations

import numpy as np

import checks
from harness import WARMUP_CYCLE, Op, self_peak_rss_mb
from layers import MC_CASES, MC_POLICIES, throughput
from tracer import NAME, SIZE, duration

GENERATION_TRIALS = (1_000_000, 50_000)
CHAIN_TRIALS = {1: 20_000, 2: 5_000, 3: 1_000}
SUBSET = 4           # seeded trials per batch replayed with the scalar sampler
LEGACY_TRIALS = 50_000
WARMUP_SHRINK = 10


class Workload:
    name = "mc_waiting_times"
    cycle_s = 2.5  # baseline seconds inside the 10 batches of a cycle
    kernel_reps = 4  # host-speed kernel runs after each operation

    def __init__(self, seed, workdir=None):
        import repeatersim  # noqa: F401  (import is part of set-up)
        from repeatersim.protocol import RepeaterParams

        self.seed = seed
        self.params = RepeaterParams(excitation_prob=0.01, pulse_time=1e-6,
                                     local_efficiency=1.0, swap_efficiency=2 / 3,
                                     app_efficiency=0.5, dark_prob=0.0,
                                     segment_length=1e-9)
        self.unpaired = {}      # (policy, seed) -> level-2 output awaiting its twin

    def _subset(self, rng, n_trials):
        return sorted({0, n_trials - 1, *rng.integers(0, n_trials, SUBSET - 2).tolist()})

    def cycle(self, k, shrink=1):
        from repeatersim import montecarlo as mc

        rng = np.random.default_rng([self.seed, k])
        params = self.params
        ops = []
        for trials in GENERATION_TRIALS:
            trials //= shrink
            cfg = mc.TrialConfig(seed=int(rng.integers(0, 2 ** 63)), n_trials=trials)
            subset = self._subset(rng, trials)
            ops.append(Op(f"generation_times_{trials}",
                          lambda cfg=cfg: mc.generation_times(params, cfg),
                          lambda r, cfg=cfg, s=subset:
                          checks.generation_samples(r, params, cfg, s)))
        for n, trials in CHAIN_TRIALS.items():
            trials //= shrink
            for policy in MC_POLICIES:
                seed = int(rng.integers(0, 2 ** 63))
                subset = self._subset(rng, trials)
                for threads in ((1, 2) if n == 2 else (1,)):
                    cfg = mc.TrialConfig(seed, trials, policy, threads)
                    ops.append(Op(f"chain_times_n{n}_{policy}_t{threads}",
                                  lambda n=n, cfg=cfg: mc.chain_times(params, n, cfg),
                                  lambda r, n=n, cfg=cfg, s=subset:
                                  self._check_chain(r, n, cfg, s)))
        return ops

    def warmup_ops(self):
        """Every batch of one cycle at a tenth of its size: each kind runs
        once, and set-up is not dominated by sampling."""
        return self.cycle(WARMUP_CYCLE, shrink=WARMUP_SHRINK)

    def _check_chain(self, out, n, cfg, subset):
        fails = checks.chain_samples(out, self.params, n, cfg, subset)
        if n == 2:
            key = (cfg.policy, cfg.seed)
            twin = self.unpaired.pop(key, None)
            if twin is None:
                self.unpaired[key] = out
            else:
                fails += checks.identical(f"chain_times n=2 {cfg.policy} threads=1 "
                                          f"vs threads=2", out, twin)
        return fails

    trace_cycle = cycle

    def peak_rss_mb(self):
        return self_peak_rss_mb()

    def per_layer(self, spans, ops):
        out = {f"montecarlo.chain_times.{case}.trials_per_s":
               throughput(spans, f"montecarlo.chain_times.{case}") for case in MC_CASES}
        out["montecarlo.generation_times.trials_per_s"] = throughput(
            spans, "montecarlo.generation_times")
        t1 = sum(throughput(spans, f"montecarlo.chain_times.n2.{p}") for p in MC_POLICIES)
        t2 = sum(throughput(spans, f"montecarlo.chain_times.n2.{p}.t2") for p in MC_POLICIES)
        out["montecarlo.threads2_speedup"] = t2 / t1 if t1 else 0.0
        draws = {n: checks.draws_per_trial(self.params, n) for n in CHAIN_TRIALS}
        out.update({f"montecarlo.draws_per_trial.n{n}": d for n, d in draws.items()})
        busy = drawn = 0.0
        for s in spans:
            for n in CHAIN_TRIALS:
                if s[NAME] in (f"montecarlo.chain_times.n{n}.{p}" for p in MC_POLICIES):
                    busy += duration(s)
                    drawn += s[SIZE] * draws[n]
        out["montecarlo.ns_per_draw"] = busy / drawn * 1e9 if drawn else 0.0
        legacy = [s for s in spans if s[NAME] == "montecarlo.generation_times"
                  and s[SIZE] == LEGACY_TRIALS]
        legacy_s = sum(map(duration, legacy))
        out["bench_montecarlo.generation_n0.s_per_50k"] = (
            legacy_s / sum(s[SIZE] for s in legacy) * LEGACY_TRIALS if legacy_s else 0.0)
        return out
