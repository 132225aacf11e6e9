import math

import numpy as np
import pytest

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
        rng = SplitMix(1, 0)
        # force q to 1 through the scalar API
        assert rng.geometric(1.0) == 1
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
        params = make_params()
        cfg = TrialConfig(seed=77, n_trials=50)
        bulk = generation_times(params, cfg)
        scalar = np.array([
            sample_generation_time(params, SplitMix(cfg.seed, k))
            for k in range(cfg.n_trials)
        ])
        assert np.array_equal(bulk, scalar)


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


class TestConfig:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(seed=1, n_trials=10, policy="bogus")

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(seed=1, n_trials=0)

    def test_analytic_reference(self):
        params = make_params()
        t2 = analytic_chain_time(params, 2)
        q = params.eta_p * params.excitation_prob
        assert t2 == pytest.approx(params.pulse_time / q / (4 / 9) / (3 / 8), rel=1e-9)
