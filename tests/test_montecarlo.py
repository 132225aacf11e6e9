import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repeatersim import _mc_kernels as kernels
from repeatersim import config
from repeatersim import montecarlo as mc
from repeatersim import protocol
from repeatersim.montecarlo import (
    SplitMix,
    TrialConfig,
    analytic_chain_time,
    chain_times,
    estimate,
    generation_times,
    sample_chain_time,
    sample_generation_time,
)
from repeatersim.protocol import RepeaterParams
from repeatersim.scaling import InfeasibleError


def make_params(**overrides):
    base = dict(excitation_prob=0.01, pulse_time=1e-6, local_efficiency=1.0,
                swap_efficiency=2 / 3, app_efficiency=0.5, dark_prob=0.0,
                attenuation_length=1.0, segment_length=1e-9, levels=0)
    base.update(overrides)
    return RepeaterParams(**base)


def geometric_mean_attempts(times, t_delta):
    return float(np.mean(times)) / t_delta


class TestGenerationSampling:
    def test_certain_click_is_one_attempt(self):
        params = make_params(excitation_prob=0.999999, local_efficiency=1.0)
        q = params.eta_p * params.excitation_prob
        # q = 1 through the scalar API: one attempt
        certain = make_params(**CERTAIN_CLICK)
        assert sample_generation_time(certain, SplitMix(1, 0)) == certain.pulse_time
        times = generation_times(params, TrialConfig(seed=3, n_trials=1000))
        assert np.all(times >= params.pulse_time)
        assert q < 1.0  # the sampled path uses the true q

    @pytest.mark.parametrize("q", [0.9, 0.1, 0.01])
    def test_mean_matches_inverse_probability(self, q):
        params = make_params(excitation_prob=q, local_efficiency=1.0)
        n = 100_000
        times = generation_times(params, TrialConfig(seed=11, n_trials=n))
        mean_attempts = geometric_mean_attempts(times, params.pulse_time)
        sigma = math.sqrt((1 - q) / q ** 2 / n)
        assert abs(mean_attempts - 1 / q) < 3 * sigma

    def test_mean_time_scale(self):
        params = make_params(excitation_prob=0.01, pulse_time=1e-6)
        n = 100_000
        times = generation_times(params, TrialConfig(seed=5, n_trials=n))
        sigma = 1e-4 * math.sqrt(1 - 0.01) / math.sqrt(n)
        assert abs(times.mean() - 1e-4) < 3 * sigma

    def test_click_probability_range(self):
        params = make_params(dark_prob=0.0)
        with pytest.raises(ValueError):
            mc.click_probability(params.with_(local_efficiency=1e-300,
                                              excitation_prob=1e-300))

    def test_scalar_api_matches_bulk(self):
        # one partial block, and around the ends of the level-0 blocks
        params = make_params()
        block = kernels._GEN_BLOCK
        for trials in (50, block - 1, block, block + 1, 2 * block + 3):
            cfg = TrialConfig(seed=77, n_trials=trials)
            bulk = generation_times(params, cfg)
            scalar = np.array([
                sample_generation_time(params, SplitMix(cfg.seed, k))
                for k in range(cfg.n_trials)
            ])
            assert np.array_equal(bulk, scalar), trials


class TestChainSampling:
    def test_level_probs_are_memoised_and_immutable(self):
        params = make_params()
        probs = mc._level_probs(params, 3)
        assert isinstance(probs, tuple)
        assert mc._level_probs(params.with_(), 3) is probs
        rows = protocol.chain(params.with_(levels=3))
        assert probs == (0.0,) + tuple(row.success_prob for row in rows[1:])

    def test_level_zero_is_generation(self):
        params = make_params()
        cfg = TrialConfig(seed=9, n_trials=2000)
        assert np.array_equal(chain_times(params, 0, cfg),
                              generation_times(params, cfg))
        # dark counts alone herald no link: every level-0 path refuses it
        dark = make_params(local_efficiency=1e-300, excitation_prob=1e-30, dark_prob=1e-5)
        assert mc.click_probability(dark) == 1e-5
        for sample in (lambda: generation_times(dark, cfg),
                       lambda: sample_generation_time(dark, SplitMix(9)),
                       lambda: chain_times(dark, 0, cfg)):
            with pytest.raises(protocol.ChainStallError, match="all-dark generation"):
                sample()
        # as does a T_0 = t_Δ / (η_p p_c) that overflows a float
        slow = make_params(pulse_time=1e300, excitation_prob=1e-10)
        with pytest.raises(OverflowError, match="time T_0"):
            generation_times(slow, cfg)
        with pytest.raises(InfeasibleError, match="level 0 with 1000000000 trials .* "
                                                  "over the memory cap"):
            generation_times(params, TrialConfig(seed=9, n_trials=10 ** 9))
        # one draw a trial: past 1e9 trials the draw budget refuses first
        with pytest.raises(InfeasibleError, match="random draws, over the budget"):
            generation_times(params, TrialConfig(seed=9, n_trials=10 ** 9 + 1))

    def test_level_one_serial_matches_renewal_oracle(self):
        # renewal equation: each attempt costs two fresh pairs, expected
        # attempts 1/p1 -> mean = 2 T0 / p1
        params = make_params(excitation_prob=0.05)
        cfg = TrialConfig(seed=13, n_trials=40_000, policy="serial_redo")
        times = chain_times(params, 1, cfg)
        q = params.eta_p * params.excitation_prob
        t0 = params.pulse_time / q
        p1 = 4 / 9
        expected = 2 * t0 / p1
        sigma = times.std(ddof=1) / math.sqrt(cfg.n_trials)
        assert abs(times.mean() - expected) < 3 * sigma

    def test_level_one_parallel_matches_max_oracle(self):
        # E max(X, Y) = 2/q - 1/(1 - (1-q)^2) for iid geometric attempts
        params = make_params(excitation_prob=0.05)
        cfg = TrialConfig(seed=14, n_trials=40_000, policy="parallel_max")
        times = chain_times(params, 1, cfg)
        q = params.eta_p * params.excitation_prob
        e_max = (2.0 / q - 1.0 / (1.0 - (1.0 - q) ** 2)) * params.pulse_time
        p1 = 4 / 9
        expected = e_max / p1
        sigma = times.std(ddof=1) / math.sqrt(cfg.n_trials)
        assert abs(times.mean() - expected) < 3 * sigma

    def test_level_two_against_analytic(self):
        params = make_params()
        cfg = TrialConfig(seed=15, n_trials=20_000, policy="parallel_max")
        est = estimate(params, 2, cfg)
        assert 1.0 <= est.vs_analytic_ratio < 4.0

    def test_parallel_cannot_beat_product_formula(self):
        params = make_params()
        for n in (1, 2, 3):
            cfg = TrialConfig(seed=n, n_trials=10_000, policy="parallel_max")
            est = estimate(params, n, cfg)
            three_sigma = 3 * est.ci95 / 1.96 / est.analytic_t_n
            assert est.vs_analytic_ratio >= 1.0 - three_sigma

    def test_scalar_api_matches_bulk(self):
        params = make_params()
        cfg = TrialConfig(seed=21, n_trials=40)
        bulk = chain_times(params, 2, cfg)
        scalar = np.array([
            sample_chain_time(params, 2, SplitMix(cfg.seed, k), "parallel_max")
            for k in range(cfg.n_trials)
        ])
        assert np.array_equal(bulk, scalar)

    def test_scalar_sample_over_the_draw_budget_is_refused_before_drawing(self, monkeypatch):
        # at CLI defaults a level-8 sample expects about 2e10 draws, hours of
        # the scalar walk; the budget refuses it as it refuses a batch
        def no_draws(*args):
            raise AssertionError("sampled past the draw budget")

        monkeypatch.setattr(kernels, "chain_sample", no_draws)
        params = config.from_raw(config.default_raw()).repeater
        with pytest.raises(InfeasibleError, match=re.escape(
                "a level-8 sample needs about 2.01e+10 random draws, over the budget of 1e+09")):
            sample_chain_time(params, 8, SplitMix(1))

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)], ids=["int64", "uint64"])
    def test_scalar_api_takes_numpy_integer_seeds(self, seed):
        # the lockstep API takes them; the scalar one must not overflow on them
        params = config.from_raw(config.default_raw()).repeater
        sample = sample_chain_time(params, 2, SplitMix(seed, np.int64(3)))
        assert sample == chain_times(params, 2, TrialConfig(seed, 4))[3] == 0.002215
        assert SplitMix(seed, 3).state == SplitMix(5, 3).state
        assert sample_generation_time(params, SplitMix(seed)) == \
            generation_times(params, TrialConfig(seed, 1))[0]


class TestDeterminism:
    def test_fixed_seed_reproducible(self):
        params = make_params()
        cfg = TrialConfig(seed=42, n_trials=5000)
        a = estimate(params, 2, cfg)
        b = estimate(params, 2, cfg)
        assert a == b

    def test_thread_count_invariance(self):
        params = make_params()
        one = chain_times(params, 2, TrialConfig(seed=42, n_trials=8000, threads=1))
        eight = chain_times(params, 2, TrialConfig(seed=42, n_trials=8000, threads=8))
        assert np.array_equal(one, eight)

    def test_ci_shrinks_with_trials(self):
        params = make_params()
        small = estimate(params, 1, TrialConfig(seed=1, n_trials=10_000))
        large = estimate(params, 1, TrialConfig(seed=1, n_trials=40_000))
        assert large.ci95 == pytest.approx(small.ci95 / 2, rel=0.2)

    def test_lockstep_matches_scalar(self):
        # the bulk sampler against the scalar reference, bit for bit, without
        # dark counts and at the CLI defaults (with them): levels 0-4 under
        # both policies, 109 360 trials in all
        cli_params = config.from_raw(config.default_raw()).repeater
        for params in (make_params(), cli_params):
            q = mc.click_probability(params)
            for policy in mc.POLICIES:
                for n, trials in ((0, 20_000), (1, 5_000), (2, 2_000), (3, 300), (4, 40)):
                    cfg = TrialConfig(seed=100 + n, n_trials=trials, policy=policy)
                    probs = list(mc._level_probs(params, n))
                    scalar = [
                        kernels.chain_sample(n, probs, q, params.pulse_time,
                                             policy == "parallel_max",
                                             kernels.stream_state(cfg.seed, k))[1]
                        for k in range(trials)
                    ]
                    assert np.array_equal(chain_times(params, n, cfg), scalar), (n, policy)

    def test_attempts_on_integer_boundaries(self):
        # uniforms within 8 ulps of exp(m ln(1-q)), where log(u) / ln(1-q)
        # sits on an integer and an ulp of error in log moves the floor
        for q in (0.01, 0.005, 1e-3):
            c = math.log1p(-q)
            u0 = np.exp(c * np.arange(1, 4001))
            u = (u0[:, None] + np.arange(-8, 9) * np.spacing(u0)[:, None]).ravel()
            u = u[(u > 0.0) & (u < 1.0)]
            scalar = [1 + math.floor(math.log(x) / c) for x in u]
            assert np.array_equal(kernels._attempts(u, q), scalar)

    @pytest.mark.parametrize("k", [0, 1, 2 ** 52, 2 ** 53 - 1])
    def test_uniform_conversion_edges(self, k):
        # a stream whose next draw has top 53 bits k: the bulk conversion
        # gives the scalar's u bit for bit.  (k + 0.5) / 2**53 is inside
        # (0, 1) except at k = 2**53 - 1, where k + 0.5 rounds to 2**53 in
        # the scalar reference too
        z = k << 11
        assert kernels.mix64(unmix64(z)) == z
        state = (unmix64(z) - kernels._GOLDEN) & kernels._MASK
        u = kernels.next_uniform(state)[1]
        bulk = kernels._uniforms(np.array([state], dtype=np.uint64), 1)
        assert bulk.tobytes() == np.float64(u).tobytes()
        assert (0.0 < u < 1.0) if k < 2 ** 53 - 1 else u == 1.0

    def test_top_uniforms_fail_every_swap_test(self):
        # p = x - x^2 / 2 with x = eta_s / (c + 1) <= 1 peaks at 1/2, and the
        # rounded formula keeps p <= 1/2 at its peak, where the exact product
        # of its rounded factors can pass 1/2; so the two largest uniforms,
        # 1.0 and 1 - 2^-52, fail every swap test alike
        top = [(k + 0.5) * kernels._INV_2_53 for k in (2 ** 53 - 1, 2 ** 53 - 2)]
        assert top == [1.0, 1.0 - 2.0 ** -52]
        rng = np.random.default_rng(5)
        edges = [(c, 1.0 - k * 2.0 ** -53) for c in (0.0, 5e-324, 2.0 ** -53, 1e-9)
                 for k in range(4096)]
        swept = zip(10.0 ** rng.uniform(-20.0, 3.0, 4000), 1.0 - rng.random(4000))
        p = max(protocol.swap_analytic(protocol.EMEState(c), protocol.EMEState(c), eta)[0]
                for c, eta in [*edges, *swept])
        assert p == 0.5
        assert not any(u < p for u in top)

    def test_uniform_rows_follow_the_stream(self):
        # every row the stride table serves, up to the walk's longest list
        state = kernels.stream_state(2 ** 63 + 5, 3)
        bulk = kernels._uniforms(np.array([state], dtype=np.uint64), kernels._TAIL_DRAWS)
        scalar = []
        for _ in range(kernels._TAIL_DRAWS):
            state, u = kernels.next_uniform(state)
            scalar.append(u)
        assert bulk[:, 0].tolist() == scalar


def unmix64(z):
    """The inverse of ``kernels.mix64``."""
    z ^= z >> 31 ^ z >> 62
    z = z * pow(kernels._MIX2, -1, 1 << 64) & kernels._MASK
    z ^= z >> 27 ^ z >> 54
    z = z * pow(kernels._MIX1, -1, 1 << 64) & kernels._MASK
    return z ^ z >> 30 ^ z >> 60


def scalar_chain(params, n, seed, trials, policy):
    """``chain_sample`` of trials 0..trials-1, the reference of the bulk sampler."""
    probs = mc._level_probs(params, n)
    return [kernels.chain_sample(n, probs, mc.click_probability(params),
                                 params.pulse_time, policy == "parallel_max",
                                 kernels.stream_state(seed, k))[1]
            for k in range(trials)]


def bulk_chain(params, n, seed, trials, policy):
    return kernels.chain_times(seed, trials, n, mc._level_probs(params, n),
                               mc.click_probability(params), params.pulse_time,
                               policy == "parallel_max")


# p_c + p_dc = 1 over a negligible segment: click probability exactly 1, so
# every leaf takes ``geometric``'s certain-click branch
CERTAIN_CLICK = dict(excitation_prob=0.96875, dark_prob=0.03125, segment_length=1e-17)


class TestScalarTail:
    """The lockstep sampler finishes its last ``_SCALAR_TAIL`` live trials in
    ``_walk``, scalar code fed by lists of draws; the samples must stay those
    of ``chain_sample``."""

    @pytest.mark.parametrize("overrides", [{}, CERTAIN_CLICK], ids=["q<1", "q=1"])
    @pytest.mark.parametrize("policy", mc.POLICIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batches_around_the_threshold(self, n, policy, overrides):
        tail = kernels._SCALAR_TAIL
        params = make_params(**overrides)
        assert (mc.click_probability(params) == 1.0) == bool(overrides)
        for trials in (1, tail, tail + 1, 2 * tail + 1):
            seed = 500 + trials
            assert np.array_equal(bulk_chain(params, n, seed, trials, policy),
                                  scalar_chain(params, n, seed, trials, policy)), trials

    @pytest.mark.parametrize("overrides", [{}, CERTAIN_CLICK], ids=["q<1", "q=1"])
    @pytest.mark.parametrize("policy", mc.POLICIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_resume_from_step_starts(self, n, policy, overrides):
        # the walk resumed from any of chain_sample's own step starts ends
        # with the fresh trial's time.  A resume costs the rest of the
        # trial, so a trial with more than 160 step starts (here only at
        # level 4) is resumed from 160 of them, evenly spaced
        params = make_params(**overrides)
        probs, q = mc._level_probs(params, n), mc.click_probability(params)
        parallel = policy == "parallel_max"
        for seed in range(5):
            fresh = kernels.chain_sample(n, probs, q, params.pulse_time, parallel,
                                         kernels.stream_state(seed, 0))[1]
            starts = list(step_starts(n, probs, q, params.pulse_time, parallel,
                                      kernels.stream_state(seed, 0)))
            state, tot, first = zip(*starts[::-(-len(starts) // 160)])
            assert kernels._walk(n, probs, q, params.pulse_time, parallel,
                                 state, tot, first) == [fresh] * len(state), seed

    def test_handoff_states_are_advanced_by_the_draws_used(self, monkeypatch):
        # each stream advances by exactly the draws its trial used, so the
        # state the walk resumes is the trial's own stream at the start of a
        # step, with the trial's columns there
        n, trials, seed = 3, 20, 31
        params = make_params()
        probs, q = mc._level_probs(params, n), mc.click_probability(params)
        inverse = pow(kernels._GOLDEN, -1, 1 << 64)
        handed = []
        walk = kernels._walk

        def spy(n, p, q, t_delta, parallel, state, tot, first):
            handed.extend(zip(state, (t[:] for t in tot), (f[:] for f in first)))
            return walk(n, p, q, t_delta, parallel, state, tot, first)

        monkeypatch.setattr(kernels, "_walk", spy)
        for policy in mc.POLICIES:
            parallel = policy == "parallel_max"
            handed.clear()
            assert np.array_equal(bulk_chain(params, n, seed, trials, policy),
                                  scalar_chain(params, n, seed, trials, policy))
            assert 0 < len(handed) <= kernels._SCALAR_TAIL
            used = []
            for state, tot, first in handed:
                # (state - initial state) / GOLDEN mod 2**64 is small only
                # for the trial's own stream
                k, draws = min(
                    ((k, (state - kernels.stream_state(seed, k)) * inverse % (1 << 64))
                     for k in range(trials)), key=lambda kd: kd[1])
                starts = step_starts(n, probs, q, params.pulse_time, parallel,
                                     kernels.stream_state(seed, k))
                assert (state, tot, first) in list(starts), (policy, k)
                used.append(draws)
            # a level-1 attempt takes three draws; a cascade test moved one
            assert any(d % 3 for d in used), policy


    @pytest.mark.parametrize("q", [1.0, 0.3], ids=["q=1", "q<1"])
    @pytest.mark.parametrize("policy", mc.POLICIES)
    def test_walk_refills_its_lists(self, monkeypatch, policy, q):
        # p_1 = 0.01: a level-2 trial takes about 1200 draws, more than the
        # 256 a list holds, so walked trials refill theirs, fresh ones (the
        # smaller batch) and ones resumed after lockstep steps
        n, probs, t_delta, seed = 2, (0.0, 0.01, 0.5), 1e-6, 8
        parallel = policy == "parallel_max"
        walks = []                     # the trial counts of each walk's _uniforms calls
        walk, uniforms = kernels._walk, kernels._uniforms

        def walk_spy(*args):
            walks.append([])
            return walk(*args)

        def uniforms_spy(state, draws):
            if walks:
                walks[-1].append(state.size)
            return uniforms(state, draws)

        monkeypatch.setattr(kernels, "_walk", walk_spy)
        monkeypatch.setattr(kernels, "_uniforms", uniforms_spy)
        for count in (kernels._SCALAR_TAIL, 2 * kernels._SCALAR_TAIL):
            walks.clear()
            scalar = [kernels.chain_sample(n, probs, q, t_delta, parallel,
                                           kernels.stream_state(seed, k))[1]
                      for k in range(count)]
            assert np.array_equal(
                kernels.chain_times(seed, count, n, probs, q, t_delta, parallel), scalar)
            # one call makes the lists of all walked trials; each later one
            # refills a single trial's
            (sizes,) = walks
            assert sizes[0] <= kernels._SCALAR_TAIL
            assert len(sizes) > 1 and set(sizes[1:]) == {1}, count

    @pytest.mark.parametrize("overrides", [{}, CERTAIN_CLICK], ids=["q<1", "q=1"])
    @pytest.mark.parametrize("policy", mc.POLICIES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_one_pass_parks_and_carries(self, monkeypatch, n, policy, overrides):
        # a first window with exactly one passed test, level 2 empty as in
        # every fresh trial: the link parks at level 2 and the running total
        # restarts after it; both carry into the next step
        params = make_params(**overrides)
        p_1 = mc._level_probs(params, n)[1]
        first_step = []
        uniforms = kernels._uniforms

        def spy(state, draws):
            u = uniforms(state, draws)
            first_step.append((draws, u))
            return u

        monkeypatch.setattr(kernels, "_uniforms", spy)
        seed, trials = 12, 100
        assert np.array_equal(bulk_chain(params, n, seed, trials, policy),
                              scalar_chain(params, n, seed, trials, policy))
        draws, u = first_step[0]
        assert u.shape == (draws, trials)
        w = (draws - n + 1) // 3
        passes = (u[2:3 * w:3] < p_1).sum(axis=0)
        assert w > 1 and (passes == 1).any()


def step_starts(n, probs, q, t_delta, parallel, state):
    """``chain_sample``'s trial replayed from ``state``: its stream state and
    its level columns ``(state, tot, first)`` each time the next draw is a
    leaf with none waiting at level 1, where a lockstep step may start."""
    tot, first = [0.0] * (n + 1), [0.0] * (n + 1)
    lvl = 0
    while True:
        if lvl == 0 and first[1] == 0.0:
            yield state, tot[:], first[:]
        if lvl == 0:
            state, k = kernels.geometric(state, q)
            up = k * t_delta
        else:
            state, u = kernels.next_uniform(state)
            if u >= probs[lvl]:
                lvl = 0
                continue
            up, tot[lvl] = tot[lvl], 0.0
        lvl += 1
        if lvl > n:
            return
        if first[lvl] > 0.0:
            tot[lvl] += max(first[lvl], up) if parallel else first[lvl] + up
            first[lvl] = 0.0
        else:
            first[lvl] = up
            lvl = 0


@st.composite
def hand_made_chains(draw):
    """``(n, p_levels, q)`` with a cheap enough scalar reference: p_1 down to
    0.01, so windows pass without a link; levels certain to swap; q = 1."""
    n = draw(st.integers(1, 3))
    p1 = draw(st.sampled_from([0.01, 0.05, 1.0]) | st.floats(0.2, 1.0))
    higher = st.just(1.0) | st.floats(0.3, 1.0)
    probs = (0.0, p1, *(draw(higher) for _ in range(n - 1)))
    q = draw(st.just(1.0) | st.floats(0.001, 1.0))
    return n, probs, q


class TestWindowEnds:
    """``_link_ends`` against the window's pass logic written as
    ``np.where(...).min(axis=0)``, for every pattern of passed tests."""

    @pytest.mark.parametrize("w", range(1, kernels._WINDOW + 1))
    def test_every_pass_pattern(self, w):
        ranks = np.arange(w)[:, None]
        passed = (np.arange(1 << w) >> ranks & 1).astype(bool)   # one pattern a column
        first = np.where(passed, ranks, w).min(axis=0)
        second = np.where(passed & (ranks > first), ranks, w).min(axis=0)
        for empty in (False, True):                  # level 2 empty
            flags = np.vstack([passed, np.full((1, 1 << w), empty)])
            parked_stop, link_stop, draws = kernels._link_ends(flags).astype(int)
            park = empty & (first < w)
            last = np.where(park, second, first)     # the carried link's last attempt
            carried = last < w
            # the window's rows: the running total, then attempt m in row m + 1
            assert np.array_equal(parked_stop, np.where(park, first + 2, 0))
            assert np.array_equal(link_stop[carried], last[carried] + 2)
            assert (link_stop[~carried] > w + 1).all()
            assert np.array_equal(draws[carried], 3 * (last[carried] + 1))


class TestLockstepProperties:
    """``kernels.chain_times`` against ``chain_sample`` on hand-made levels."""

    @settings(max_examples=60, deadline=None)
    # windows that pass no test at q = 1; two certain swaps over 24 trials
    @example(chain=(1, (0.0, 0.01), 1.0), parallel=True, count=300, seed=5, t_delta=1e-6)
    @example(chain=(3, (0.0, 0.05, 1.0, 1.0), 0.3), parallel=False, count=24, seed=6,
             t_delta=0.25)
    @given(chain=hand_made_chains(), parallel=st.booleans(),
           count=st.integers(1, 3 * kernels._SCALAR_TAIL) | st.just(300),
           seed=st.integers(0, 2 ** 64 - 1), t_delta=st.floats(1e-9, 1.0))
    def test_bulk_matches_scalar(self, chain, parallel, count, seed, t_delta):
        n, probs, q = chain
        assume(count * kernels.expected_draws(probs) <= 1e5)
        scalar = [kernels.chain_sample(n, probs, q, t_delta, parallel,
                                       kernels.stream_state(seed, k))[1]
                  for k in range(count)]
        assert np.array_equal(
            kernels.chain_times(seed, count, n, probs, q, t_delta, parallel), scalar)

    @pytest.mark.parametrize("policy", mc.POLICIES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_window_width_matches_scalar(self, monkeypatch, n, policy):
        # a block of 3w uniforms per trial gives the first step a window of w
        # attempts, whatever _BLOCK is; later steps, with fewer trials live,
        # may widen it
        params, seed, trials = make_params(), 9, 120
        widths = set()
        uniforms = kernels._uniforms

        def spy(state, draws):
            if state.size > kernels._SCALAR_TAIL:    # a lockstep step, not the walk
                widths.add((draws - n + 1) // 3)
            return uniforms(state, draws)

        monkeypatch.setattr(kernels, "_uniforms", spy)
        scalar = scalar_chain(params, n, seed, trials, policy)
        for w in range(1, kernels._WINDOW + 1):
            monkeypatch.setattr(kernels, "_BLOCK", 3 * w * trials)
            assert np.array_equal(bulk_chain(params, n, seed, trials, policy), scalar), w
        assert widths == set(range(1, kernels._WINDOW + 1))

    @pytest.mark.parametrize("policy", mc.POLICIES)
    @pytest.mark.parametrize("n, trials", [(4, 120), (5, 40)])
    def test_deep_levels_match_scalar(self, n, trials, policy):
        assert trials > 2 * kernels._SCALAR_TAIL
        params = make_params(swap_efficiency=0.9, dark_prob=1e-4)
        assert np.array_equal(bulk_chain(params, n, 77, trials, policy),
                              scalar_chain(params, n, 77, trials, policy))


class TestMemoryGuard:
    def test_batches_over_the_cap_are_refused_before_sampling(self):
        params = make_params()
        with pytest.raises(InfeasibleError, match="over the memory cap"):
            chain_times(params, 1, TrialConfig(seed=1, n_trials=10 ** 7))
        with pytest.raises(InfeasibleError, match="level 0 with 1000000000 trials"):
            generation_times(params, TrialConfig(seed=1, n_trials=10 ** 9))

    def test_benchmark_and_default_sizes_fit(self):
        assert mc._batch_bytes(0, 10 ** 6) <= mc.MEMORY_BUDGET
        defaults = config.from_raw(config.default_raw())
        cfg = defaults.trials
        assert mc._batch_bytes(defaults.repeater.levels, cfg.n_trials) <= mc.MEMORY_BUDGET

    # below 10 922 trials a lockstep step's window holds about as much as in
    # a large batch; 1560 and 1900 trials gave the largest excess over the
    # per-trial term at levels 1-3
    @pytest.mark.parametrize("n, trials", [
        (0, 100), (0, 15_000), (0, 400_000), (1, 100_000), (2, 40_000), (3, 10_000),
        *((n, trials) for n in (1, 2, 3) for trials in (100, 1560, 1900, 5000, 15_000))])
    def test_batch_bytes_bound_the_peak(self, n, trials):
        params = make_params()
        cfg = TrialConfig(seed=3, n_trials=trials)
        estimate(params, n, TrialConfig(seed=3, n_trials=100))   # imports and caches
        tracemalloc.start()
        try:
            estimate(params, n, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mc._batch_bytes(n, trials)


class TestStepCount:
    def test_level_three_steps(self, monkeypatch):
        # the mc_waiting_times parameters, seed 1, 1000 trials: the lockstep
        # steps and the walk's lists call _uniforms 88 times under either
        # policy; the window is wide from the first step, so the rare long
        # trials set the count
        calls = []
        uniforms = kernels._uniforms

        def spy(state, draws):
            calls.append(draws)
            return uniforms(state, draws)

        monkeypatch.setattr(kernels, "_uniforms", spy)
        for policy in mc.POLICIES:
            calls.clear()
            chain_times(make_params(), 3, TrialConfig(seed=1, n_trials=1000, policy=policy))
            assert len(calls) <= 88, policy

    def test_level_two_median_batch_steps(self, monkeypatch):
        # the mc_waiting_times median op, seed 1, 5000 trials: the lockstep
        # steps and the walk's lists call _uniforms 17 times under either
        # policy; with 5000 trials live the window already holds two
        # attempts, so no step is limited to one link
        calls = []
        uniforms = kernels._uniforms

        def spy(state, draws):
            calls.append(draws)
            return uniforms(state, draws)

        monkeypatch.setattr(kernels, "_uniforms", spy)
        for policy in mc.POLICIES:
            calls.clear()
            chain_times(make_params(), 2, TrialConfig(seed=1, n_trials=5000, policy=policy))
            assert len(calls) <= 17, policy


class TestStatisticsOverflow:
    @pytest.mark.parametrize("times", [[1e300, 1e306, 1e305], [1.7e308] * 4])
    def test_overflowed_statistics_are_refused_without_a_warning(self, times):
        # the squares of the first overflow, the sum of the second;
        # RuntimeWarning is an error under the test settings
        cfg = TrialConfig(seed=1, n_trials=len(times))
        with pytest.raises(OverflowError, match=f"statistics of {len(times)} trials "
                                                "overflow a float"):
            estimate(make_params(), 1, cfg, np.array(times))


class TestConfig:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(seed=1, n_trials=10, policy="bogus")

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(seed=1, n_trials=0)

    @pytest.mark.parametrize("field,value", [("seed", 1.5), ("seed", True), ("seed", 1.0),
                                             ("n_trials", 5.0), ("n_trials", np.float64(5)),
                                             ("threads", 1.5), ("threads", np.True_)])
    def test_non_integer_fields_refused_by_name(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            TrialConfig(**{"seed": 1, "n_trials": 10, field: value})

    def test_numpy_integers_accepted(self):
        params = make_params(levels=2)
        cfg = TrialConfig(seed=np.uint64(9), n_trials=np.int64(50), threads=np.int32(2))
        assert np.array_equal(chain_times(params, 2, cfg),
                              chain_times(params, 2, TrialConfig(seed=9, n_trials=50)))

    def test_analytic_reference(self):
        params = make_params()
        t2 = analytic_chain_time(params, 2)
        q = params.eta_p * params.excitation_prob
        assert t2 == pytest.approx(params.pulse_time / q / (4 / 9) / (3 / 8), rel=1e-9)
