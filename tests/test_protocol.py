import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatersim import fock
from repeatersim.protocol import (
    ChainStallError,
    EMEState,
    RepeaterParams,
    chain,
    eme_density,
    generate_analytic,
    generate_oracle,
    generation_circuit,
    swap_analytic,
    swap_oracle,
    vacuum_coeff_closed_form,
)


def make_params(**overrides):
    base = dict(excitation_prob=0.01, pulse_time=1e-6, local_efficiency=0.1,
                swap_efficiency=2 / 3, app_efficiency=0.5, dark_prob=1e-5,
                attenuation_length=1.0, segment_length=1e-9, levels=0)
    base.update(overrides)
    return RepeaterParams(**base)


class TestRecordChecks:
    @pytest.mark.parametrize("field,reason", [
        ("vacuum_coeff", "vacuum_coeff = nan outside [0, inf]"),
        ("span_length", "span_length = nan outside [0, inf]"),
    ])
    def test_nan_link_field_refused(self, field, reason):
        with pytest.raises(ValueError) as refused:
            EMEState(**{"vacuum_coeff": 0.5, field: math.nan})
        assert str(refused.value) == reason

    def test_infinite_vacuum_coeff_stays_legal(self):
        # the scaling scan reaches ChainStallError through it when eta_p p_c
        # is subnormal
        assert EMEState(math.inf).vacuum_coeff == math.inf

    @pytest.mark.parametrize("field", ["pulse_time", "attenuation_length", "segment_length"])
    def test_infinite_length_or_time_refused(self, field):
        with pytest.raises(ValueError) as refused:
            make_params(**{field: math.inf})
        assert str(refused.value) == f"{field} = inf outside its valid range"


class TestGenerateAnalytic:
    def test_no_dark_counts_no_vacuum(self):
        res = generate_analytic(make_params(dark_prob=0.0))
        assert res.state.vacuum_coeff == 0.0

    def test_printed_vacuum_coefficient(self):
        # eta_p ~ 0.1 (segment length ~ 0), p_c = 0.01, p_dc = 1e-5 -> c0 = 0.01
        res = generate_analytic(make_params())
        assert res.state.vacuum_coeff == pytest.approx(0.01, rel=1e-6)

    def test_preparation_time(self):
        res = generate_analytic(make_params())
        assert res.t0 == pytest.approx(1e-3, rel=1e-6)

    def test_click_prob_includes_dark_term(self):
        p = make_params()
        res = generate_analytic(p)
        assert res.click_prob == pytest.approx(p.eta_p * 0.01 + 1e-5, rel=1e-12)

    def test_fidelity_deficit_is_excitation_prob(self):
        res = generate_analytic(make_params())
        assert res.state.fidelity_deficit == 0.01

    def test_vanished_signal_stalls_the_chain(self):
        # eta_p = exp(-2000) is 0: level 0 never heralds a link
        params = make_params(segment_length=2000.0)
        for run in (generate_analytic, chain):
            with pytest.raises(ChainStallError,
                               match="^degenerate all-dark generation: eta_p \\* p_c vanished$"):
                run(params)

    def test_phase_carried(self):
        res = generate_analytic(make_params(), channel_phase=0.7)
        assert res.state.phase == 0.7


class TestSwapAnalytic:
    @pytest.mark.parametrize("c,eta,p_expect,c_expect", [
        (0.0, 1.0, 0.5, 0.0),
        (0.0, 2 / 3, 4 / 9, 1 / 3),
        (1.0, 2 / 3, 5 / 18, 7 / 3),
    ])
    def test_printed_recursion_values(self, c, eta, p_expect, c_expect):
        p, out = swap_analytic(EMEState(c), EMEState(c), eta)
        assert p == pytest.approx(p_expect, abs=1e-15)
        assert out.vacuum_coeff == pytest.approx(c_expect, abs=1e-15)

    def test_phase_addition(self):
        _, out = swap_analytic(EMEState(0.0, phase=0.3), EMEState(0.0, phase=-1.1), 0.9)
        assert out.phase == pytest.approx(-0.8)

    def test_deficit_addition_and_span(self):
        _, out = swap_analytic(EMEState(0.0, fidelity_deficit=1e-4, span_length=2.0),
                               EMEState(0.0, fidelity_deficit=3e-4, span_length=2.0),
                               0.9)
        assert out.fidelity_deficit == pytest.approx(4e-4)
        assert out.span_length == pytest.approx(4.0)

    def test_unequal_coefficients_rejected(self):
        with pytest.raises(ValueError, match="equal vacuum coefficients"):
            swap_analytic(EMEState(0.1), EMEState(0.2), 0.9)

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            swap_analytic(EMEState(0.0), EMEState(0.0), 0.0)
        with pytest.raises(ValueError):
            swap_analytic(EMEState(0.0), EMEState(0.0), 1.2)

    @given(c=st.floats(0.0, 10.0), eta=st.floats(0.05, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_success_prob_bounds_and_monotonicity(self, c, eta):
        p, out = swap_analytic(EMEState(c), EMEState(c), eta)
        assert 0.0 < p <= 0.5
        assert out.vacuum_coeff >= c - 1e-9  # f2 grows the vacuum weight
        # f1 strictly decreasing in c
        p_hi, _ = swap_analytic(EMEState(c + 0.5), EMEState(c + 0.5), eta)
        assert p_hi < p


class TestClosedForm:
    def test_printed_value(self):
        assert vacuum_coeff_closed_form(4, 2 / 3, 0.0) == pytest.approx(5.0, abs=1e-12)

    def test_level_zero(self):
        for eta in (0.3, 0.8, 1.0):
            assert vacuum_coeff_closed_form(0, eta, 0.0) == 0.0

    def test_matches_iterated_recursion_with_offset(self):
        c = 0.01
        state = EMEState(c)
        for _ in range(3):
            _, state = swap_analytic(state, state, 2 / 3)
        expected = 8 * 0.01 + 7 / 3
        assert state.vacuum_coeff == pytest.approx(expected, abs=1e-12)
        assert vacuum_coeff_closed_form(3, 2 / 3, c) == pytest.approx(expected, abs=1e-12)

    @given(c0=st.floats(0.0, 2.0), eta=st.floats(0.05, 1.0), i=st.integers(0, 20))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_equals_iteration(self, c0, eta, i):
        state = EMEState(c0)
        for _ in range(i):
            _, state = swap_analytic(state, state, eta)
        closed = vacuum_coeff_closed_form(i, eta, c0)
        assert state.vacuum_coeff == pytest.approx(closed, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eta_s_refused_by_name(self, bad):
        with pytest.raises(ValueError) as refused:
            vacuum_coeff_closed_form(3, bad, 0.1)
        assert str(refused.value) == f"eta_s = {bad} outside (-inf, inf)"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_c0_refused_by_name(self, bad):
        with pytest.raises(ValueError) as refused:
            vacuum_coeff_closed_form(3, 0.5, bad)
        assert str(refused.value) == f"c0 = {bad} outside (-inf, inf)"

    @pytest.mark.parametrize("i, c0", [(1024, 0.0), (5000, 0.1), (1023, 2.0)])
    def test_overflow_refused_naming_its_arguments(self, i, c0):
        # 2.0 ** i raises OverflowError from i = 1024; below it the sum itself
        # can still leave the float range
        with pytest.raises(ValueError, match=re.escape(
                f"the vacuum coefficient overflows a float at i = {i}, eta_s = 0.5, "
                f"c0 = {c0}")):
            vacuum_coeff_closed_form(i, 0.5, c0)

    def test_largest_finite_level_passes(self):
        assert vacuum_coeff_closed_form(1023, 1.0, 0.0) == 0.0
        assert vacuum_coeff_closed_form(1023, 0.5, 0.0) == (2.0 ** 1023 - 1.0) * 0.5


class TestGenerateOracle:
    def test_ideal_first_order_source(self):
        params = make_params(local_efficiency=1.0, segment_length=1e-12, dark_prob=0.0)
        res = generate_oracle(params, include_second_order=False)
        assert res.c_measured == pytest.approx(0.0, abs=1e-9)
        assert res.infidelity == pytest.approx(0.0, abs=1e-9)

    def test_vacuum_coefficient_matches_analytic(self):
        params = make_params(excitation_prob=0.005, local_efficiency=0.2,
                             segment_length=1e-12, dark_prob=1e-5)
        res = generate_oracle(params)
        target = 1e-5 / (0.2 * 0.005)
        assert abs(res.c_measured - target) / target < 2 * 0.005

    def test_infidelity_scaling_at_unit_efficiency(self):
        params = make_params(excitation_prob=0.01, local_efficiency=1.0,
                             segment_length=1e-12, dark_prob=0.0)
        res = generate_oracle(params)
        assert 0.5 * 0.01 <= res.infidelity <= 2 * 0.01

    def test_click_prob_leading_order(self):
        params = make_params(excitation_prob=0.005, local_efficiency=0.2,
                             segment_length=1e-12, dark_prob=1e-5)
        res = generate_oracle(params)
        expected = 0.2 * 0.005 + 1e-5
        assert res.click_prob == pytest.approx(expected, rel=5e-3)

    def test_phase_carried_into_conditional_state(self):
        params = make_params(local_efficiency=1.0, segment_length=1e-12, dark_prob=0.0)
        res = generate_oracle(params, channel_phase=1.3, include_second_order=False)
        assert res.infidelity == pytest.approx(0.0, abs=1e-9)

    @staticmethod
    def complement(params, channel_phase, include_second_order):
        """The infidelity as ``1 - vac - F+``, unclamped: the old expression."""
        _, rho = generation_circuit(params.excitation_prob, params.eta_p, params.dark_prob,
                                    channel_phase, 4, include_second_order)
        e_phi = complex(math.cos(channel_phase), math.sin(channel_phase))
        psi_plus = fock.pure_state(rho.layout, {(1, 0): 1.0, (0, 1): e_phi})
        return 1.0 - rho.population((0, 0)) - fock.fidelity(rho, psi_plus)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("include_second_order", [True, False])
    def test_infidelity_is_a_sum_of_nonnegative_terms(self, seed, include_second_order):
        rng = np.random.default_rng(seed)
        params = make_params(excitation_prob=rng.uniform(1e-4, 0.05),
                             local_efficiency=rng.uniform(0.1, 1.0),
                             dark_prob=rng.choice([0.0, rng.uniform(0.0, 1e-4)]),
                             segment_length=1e-12)
        phase = rng.uniform(0.0, 2 * math.pi)
        res = generate_oracle(params, channel_phase=phase,
                              include_second_order=include_second_order)
        assert res.infidelity >= 0.0
        old = self.complement(params, phase, include_second_order)
        assert abs(res.infidelity - old) <= 1e-15

    @pytest.mark.parametrize("cutoff", range(2, 7))
    @pytest.mark.parametrize("p_dc", [0.0, 1e-5, 0.3])
    @pytest.mark.parametrize("include_second_order", [True, False])
    def test_direct_reads_match_the_normalized_state(self, cutoff, p_dc, include_second_order):
        # the oracle reads the heralded factor; generation_circuit's state
        # answers the same questions through population, marginal and fidelity
        params = make_params(excitation_prob=0.01, local_efficiency=0.3, dark_prob=p_dc)
        for phase in (0.7, 2.9, 5.1):
            try:
                prob, rho = generation_circuit(0.01, params.eta_p, p_dc, phase, cutoff,
                                               include_second_order)
            except fock.TruncationError:   # the pair above cutoffs 2 and 3
                return
            res = generate_oracle(params, cutoff, phase, include_second_order)
            assert res.click_prob == prob
            singles = rho.population((1, 0)) + rho.population((0, 1))
            assert res.c_measured == pytest.approx(rho.population((0, 0)) / singles,
                                                   rel=1e-12, abs=0)
            n = np.arange(cutoff + 1)
            multi = fock.marginal(rho, (0, 1))[np.add.outer(n, n) > 1].sum()
            # ⟨ψ₋| = (⟨1, 0| − e^{−iφ}⟨0, 1|)/√2: its ket carries −e^{iφ}
            psi_minus = fock.pure_state(rho.layout, {
                (1, 0): 1.0, (0, 1): -complex(math.cos(phase), math.sin(phase))})
            # without dark counts and the second-order term the infidelity is
            # exactly 0, and both reads are rounding of order eps² ≈ 5e-32
            assert res.infidelity == pytest.approx(multi + fock.fidelity(rho, psi_minus),
                                                   rel=1e-12, abs=1e-30)

    def test_all_but_certain_dark_herald_is_refused_as_by_the_circuit(self):
        # p_dc = 1 - 2^-53: the minus port clicks but for a weight of 1e-16
        params = make_params(excitation_prob=0.05, local_efficiency=0.3,
                             dark_prob=1.0 - 2.0 ** -53)
        with pytest.raises(fock.ImpossibleOutcomeError, match="impossible-outcome"):
            generation_circuit(0.05, params.eta_p, params.dark_prob)
        with pytest.raises(fock.ImpossibleOutcomeError, match="impossible-outcome"):
            generate_oracle(params)

    def test_runs_no_eigh_and_builds_no_conditional_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generate_oracle reads the heralded factor")

        compacted = []

        def spy(v, compact=fock._compact):
            compacted.append(v.shape)
            return compact(v)

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for name in ("normalize_outcome", "pure_state", "marginal", "fidelity"):
            monkeypatch.setattr(fock, name, refuse)
        monkeypatch.setattr(fock, "_compact", spy)
        res = generate_oracle(make_params(excitation_prob=0.005, local_efficiency=0.2),
                              channel_phase=1.1)
        assert res.click_prob > 0.0 and res.infidelity > 0.0
        # the rank rule runs once, on the 4-mode source factor (625 x 9),
        # whose rank is below its dimension
        assert compacted == [(625, 9)]


class TestGenerationCircuit:
    @pytest.mark.parametrize("p_c", [-0.1, 1.5, math.nan, math.inf])
    def test_refuses_excitation_probability(self, p_c):
        with pytest.raises(ValueError, match=re.escape(f"p_c = {p_c} outside [0, 1]")):
            generation_circuit(p_c, 0.3, 1e-5)

    @pytest.mark.parametrize("eta_p", [-0.1, 1.2, math.nan])
    def test_refuses_generation_efficiency(self, eta_p):
        with pytest.raises(ValueError, match=re.escape(f"eta_p = {eta_p} outside [0, 1]")):
            generation_circuit(0.01, eta_p, 1e-5)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_refuses_channel_phase(self, phase):
        with pytest.raises(ValueError,
                           match=re.escape(f"channel_phase = {phase} outside (-inf, inf)")):
            generation_circuit(0.01, 0.3, 1e-5, channel_phase=phase)

    def test_refuses_second_order_term_above_the_cutoff(self):
        with pytest.raises(ValueError, match=r"needs cutoff >= 2, got 1"):
            generation_circuit(0.01, 0.3, 1e-5, cutoff=1)
        # without it, cutoff 1 holds the whole ideal source
        prob, _ = generation_circuit(0.01, 0.3, 1e-5, cutoff=1, include_second_order=False)
        assert prob > 0.0

    def test_all_dark_herald_is_impossible(self):
        # p_dc = 1: the minus port always clicks
        with pytest.raises(fock.ImpossibleOutcomeError):
            generation_circuit(0.05, 0.3, 1.0)

    @pytest.mark.parametrize("cutoff", range(2, 7))
    @pytest.mark.parametrize("p_dc", [0.0, 1e-5, 0.3])
    @pytest.mark.parametrize("include_second_order", [True, False])
    def test_herald_is_the_former_transpose_bit_for_bit(self, monkeypatch, cutoff, p_dc,
                                                         include_second_order):
        params = make_params(excitation_prob=0.01, local_efficiency=0.3, dark_prob=p_dc)
        args = (0.01, params.eta_p, p_dc, 0.7, cutoff, include_second_order)

        def run():
            try:
                return generation_circuit(*args), generate_oracle(params, cutoff, 0.7,
                                                                  include_second_order)
            except fock.TruncationError as exc:   # the pair above cutoffs 2 and 3
                return str(exc)

        got = run()
        monkeypatch.setattr(fock, "herald", transpose_herald)
        want = run()
        if isinstance(want, str):
            assert got == want
            return
        ((prob, rho), res), ((want_prob, want_rho), want_res) = got, want
        assert prob == want_prob and np.array_equal(rho.factor, want_rho.factor)
        assert res == want_res

    @pytest.fixture
    def no_loss_gates(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracles build their lossy states in closed form "
                                 "and herald through fock.herald")
        for name in ("apply_loss", "apply_phase", "apply_beamsplitter", "condition"):
            monkeypatch.setattr(fock, name, refuse)

    @pytest.mark.parametrize("include_second_order", [True, False])
    def test_oracles_run_without_loss_or_phase_gates(self, no_loss_gates,
                                                     include_second_order):
        params = make_params(excitation_prob=0.05, local_efficiency=0.3)
        prob, rho = generation_circuit(0.05, 0.3, 1e-5, 0.7, 4, include_second_order)
        assert 0.0 < prob < 1.0 and rho.trace() == pytest.approx(1.0, abs=1e-14)
        res = generate_oracle(params, channel_phase=0.7,
                              include_second_order=include_second_order)
        assert res.c_measured > 0.0
        swap = swap_oracle(1 / 3, 0.9, cutoff=3, phase_left=0.7, phase_right=2.1)
        assert swap.success_prob > 0.0


def transpose_herald(rho, pair, rows):
    """``fock.herald`` on (phot_L, phot_R) of the generation circuit as the
    circuit once wrote it: one transpose moves the pair's axes first, one
    matmul applies the rows."""
    assert pair == (1, 3) and rho.layout.modes == 4
    fock._check_pair_support(rho, [pair], "beamsplitter")
    d, r = rho.layout.mode_dim, rho.factor.shape[1]
    t = rho.factor.reshape(d, d, d, d, r).transpose(1, 3, 0, 2, 4).reshape(d * d, -1)
    return (rows @ t).reshape(len(rows), d * d, r)


def chain_swap(c, eta_s, cutoff=2, phase_left=0.0, phase_right=0.0):
    """Reference swap by the destructive chain: per herald pattern, resolving
    ``measure_detector`` on I2 then I1, and the two conditional states mixed
    by probability as one factor with their columns side by side."""
    layout = fock.ModeLayout(2, cutoff)
    left = fock.apply_loss(eme_density(layout, (0, 1), c, phase_left), 1, eta_s)
    right = fock.apply_loss(eme_density(layout, (0, 1), c, phase_right), 0, eta_s)
    rho = fock.apply_beamsplitter(fock.tensor(left, right), 1, 2)
    det = fock.DetectorModel(efficiency=1.0, resolving=True)
    probs, post = [], []
    for counts in ((1, 0), (0, 1)):
        p2, cond = fock.measure_detector(rho, 2, det, counts[1])
        p1, cond = fock.measure_detector(cond, 1, det, counts[0])
        probs.append(p1 * p2)
        post.append(cond)
    total = sum(probs)
    mixed = fock.DensityOperator.from_factor(layout, np.concatenate(
        [math.sqrt(p / total) * cond.factor for p, cond in zip(probs, post)], axis=1))
    vac = mixed.population((0, 0))
    singles = mixed.population((1, 0)) + mixed.population((0, 1))
    return total, vac / singles, post


def gate_swap(c, eta_s, cutoff=2, phase_left=0.0, phase_right=0.0):
    """Reference swap by the gate chain: ``apply_beamsplitter`` on the whole
    (L, I1, I2, R) factor, then one ``condition`` per herald pattern."""
    layout = fock.ModeLayout(2, cutoff)
    rho = fock.tensor(eme_density(layout, (0, 1), c, phase_left, (1.0, eta_s)),
                      eme_density(layout, (0, 1), c, phase_right, (eta_s, 1.0)))
    rho = fock.apply_beamsplitter(rho, 1, 2)
    one, none = np.eye(cutoff + 1)[[1, 0]]
    probs, post = zip(*(fock.condition(rho, {1: a, 2: b}) for a, b in ((one, none), (none, one))))
    vac = sum(p * cond.population((0, 0)) for p, cond in zip(probs, post))
    singles = sum(p * (cond.population((1, 0)) + cond.population((0, 1)))
                  for p, cond in zip(probs, post))
    return sum(probs), vac / singles, post


class TestSwapOracle:
    def test_matches_destructive_chain(self):
        rng = np.random.default_rng(5150)
        for _ in range(16):
            c, eta = rng.choice([0.0, rng.uniform(0, 4)]), rng.choice([1.0, rng.uniform(0.05, 1)])
            phases = dict(phase_left=rng.uniform(0, 7), phase_right=rng.uniform(0, 7))
            got = swap_oracle(c, eta, **phases)
            total, c_measured, post = chain_swap(c, eta, **phases)
            assert got.success_prob == pytest.approx(total, rel=1e-14)
            assert got.c_measured == pytest.approx(c_measured, rel=1e-14, abs=1e-15)
            for cond, want in zip(got.post_states, post):
                assert np.max(np.abs(cond.matrix - want.matrix)) < 1e-14

    @staticmethod
    def against_gate_chain(c, eta, cutoff):
        rng = np.random.default_rng([cutoff, int(3 * c), int(30 * eta)])
        phases = dict(phase_left=rng.uniform(0, 7), phase_right=rng.uniform(0, 7))
        return swap_oracle(c, eta, cutoff, **phases), gate_swap(c, eta, cutoff, **phases)

    @pytest.mark.parametrize("c", [0.0, 1 / 3, 1.0, 3.0])
    @pytest.mark.parametrize("eta", [0.4, 2 / 3, 0.9])
    def test_gate_chain_bit_for_bit_at_cutoff_2(self, c, eta):
        got, (total, c_measured, post) = self.against_gate_chain(c, eta, 2)
        assert got.success_prob == total and got.c_measured == c_measured
        for cond, want in zip(got.post_states, post, strict=True):
            assert np.array_equal(cond.factor, want.factor)

    @pytest.mark.parametrize("c", [0.0, 1 / 3, 1.0, 3.0])
    @pytest.mark.parametrize("eta", [0.4, 2 / 3, 0.9])
    def test_gate_chain_to_the_last_bits_at_cutoff_3(self, c, eta):
        # the heralded factors are the same floats, but the gate chain reads
        # each probability from a padded factor whose zeros shift vdot's
        # summation lanes: some points differ in the last bit
        got, (total, c_measured, post) = self.against_gate_chain(c, eta, 3)
        assert got.success_prob == pytest.approx(total, rel=1e-15, abs=0)
        assert got.c_measured == pytest.approx(c_measured, rel=1e-15, abs=0)
        for cond, want in zip(got.post_states, post, strict=True):
            assert cond.factor.shape == want.factor.shape
            assert np.max(np.abs(cond.factor - want.factor)) <= 1e-15

    def test_pair_above_the_cutoff_is_refused(self):
        with pytest.raises(fock.TruncationError,
                           match=r"^beamsplitter on modes \(1, 2\): population 5\.444e-02 "
                                 r"has pair photon number above cutoff 1$"):
            swap_oracle(0.5, 0.7, cutoff=1)

    @pytest.mark.parametrize("args,kwargs,message", [
        ((0.5, 0.0), {}, "eta_s = 0.0 outside (0, 1]"),
        ((0.5, 1.5), {}, "eta_s = 1.5 outside (0, 1]"),
        ((0.5, math.nan), {}, "eta_s = nan outside (0, 1]"),
        ((-0.5, 0.7), {}, "c = -0.5 outside [0, inf)"),
        ((0.5, 0.7), {"phase_left": math.nan}, "phase_left = nan outside (-inf, inf)"),
        ((0.5, 0.7), {"phase_right": math.nan}, "phase_right = nan outside (-inf, inf)"),
        # the order: swap efficiency, then the link coefficient, the left
        # phase, the right phase, the cutoff
        ((-0.5, math.nan), {}, "eta_s = nan outside (0, 1]"),
        ((-0.5, 0.7), {"phase_left": math.nan}, "c = -0.5 outside [0, inf)"),
        ((0.5, 0.7), {"phase_left": math.inf, "phase_right": math.nan},
         "phase_left = inf outside (-inf, inf)"),
        ((-0.5, 0.7), {"cutoff": 1}, "c = -0.5 outside [0, inf)"),
        ((0.5, 0.7), {"cutoff": 1, "phase_right": math.nan},
         "phase_right = nan outside (-inf, inf)"),
        ((0.5, math.nan), {"cutoff": 0}, "eta_s = nan outside (0, 1]"),
        ((0.5, 0.7), {"cutoff": 0}, "cutoff must be positive, got 0"),
    ])
    def test_refusals_and_their_order(self, args, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            swap_oracle(*args, **kwargs)
        assert not isinstance(info.value, fock.TruncationError)

    def test_ideal_swap(self):
        res = swap_oracle(0.0, 1.0)
        assert res.success_prob == pytest.approx(0.5, abs=1e-9)
        assert res.c_measured == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("c", [0.0, 1 / 3, 1.0, 3.0])
    @pytest.mark.parametrize("eta", [0.4, 2 / 3, 0.9])
    def test_matches_analytic_recursion(self, c, eta):
        res = swap_oracle(c, eta)
        p, out = swap_analytic(EMEState(c), EMEState(c), eta)
        assert res.success_prob == pytest.approx(p, abs=1e-9)
        assert res.c_measured == pytest.approx(out.vacuum_coeff, abs=1e-9)

    def test_conditional_state_is_link_form(self):
        res = swap_oracle(0.5, 0.7)
        for cond in res.post_states:
            layout = cond.layout
            # support confined to {vac, one excitation left, one excitation right}
            allowed = {(0, 0), (1, 0), (0, 1)}
            for occ in layout.occupations():
                if occ not in allowed:
                    assert cond.population(occ) == pytest.approx(0.0, abs=1e-10)
            assert cond.population((1, 0)) == pytest.approx(cond.population((0, 1)), abs=1e-10)

    def test_no_two_excitation_coherence(self):
        res = swap_oracle(1.0, 2 / 3)
        mixed = res.post_states[0]
        layout = mixed.layout
        idx_single = [layout.index((1, 0)), layout.index((0, 1)), layout.index((0, 0))]
        for occ in layout.occupations():
            if sum(occ) >= 2:
                row = layout.index(occ)
                for col in idx_single:
                    assert abs(mixed.matrix[row, col]) < 1e-12

    def test_phase_addition_in_conditional_state(self):
        # herald patterns project onto (S_L ± e^{i(φ1+φ2)} S_R)/√2
        phi1, phi2 = 0.4, 0.9
        res = swap_oracle(0.0, 1.0, phase_left=phi1, phase_right=phi2)
        layout = res.post_states[0].layout
        total = phi1 + phi2
        plus = fock.pure_state(layout, {(1, 0): 1, (0, 1): np.exp(1j * total)})
        minus = fock.pure_state(layout, {(1, 0): 1, (0, 1): -np.exp(1j * total)})
        fids = sorted([
            max(fock.fidelity(cond, plus), fock.fidelity(cond, minus))
            for cond in res.post_states
        ])
        assert fids[0] == pytest.approx(1.0, abs=1e-9)
        assert fids[1] == pytest.approx(1.0, abs=1e-9)


class TestChain:
    def test_single_level(self):
        rows = chain(make_params(levels=0))
        assert len(rows) == 1
        assert rows[0].elapsed_time == pytest.approx(1e-3, rel=1e-6)

    def test_printed_sequences(self):
        params = make_params(dark_prob=0.0, swap_efficiency=2 / 3, levels=4)
        rows = chain(params)
        probs = [r.success_prob for r in rows[1:]]
        coeffs = [r.vacuum_coeff for r in rows[1:]]
        assert probs == pytest.approx([4 / 9, 3 / 8, 5 / 18, 0.18], abs=1e-12)
        assert coeffs == pytest.approx([1 / 3, 1.0, 7 / 3, 5.0], abs=1e-12)

    def test_deficit_doubling(self):
        params = make_params(excitation_prob=1e-4, dark_prob=0.0, levels=3)
        rows = chain(params)
        assert rows[-1].fidelity_deficit == pytest.approx(8e-4, rel=1e-12)

    def test_time_product_rule(self):
        params = make_params(dark_prob=0.0, levels=4)
        rows = chain(params)
        t = rows[0].elapsed_time
        for row in rows[1:]:
            t /= row.success_prob
            assert row.elapsed_time == pytest.approx(t, rel=1e-12)

    def test_lengths_double(self):
        rows = chain(make_params(levels=3, segment_length=0.5))
        assert [r.length for r in rows] == pytest.approx([0.5, 1.0, 2.0, 4.0])

    def test_chain_stall(self):
        # huge dark-count floor drives c up fast enough to stall the chain
        params = make_params(excitation_prob=0.9, local_efficiency=1e-6,
                             dark_prob=0.9, levels=25)
        with pytest.raises(ChainStallError):
            chain(params)

    @pytest.mark.parametrize("pulse_time,level", [(1e300, 7), (1e307, 0)])
    def test_overflowed_time_names_its_level(self, pulse_time, level):
        # T_6 = 2.0e307 at pulse_time 1e300; T_0 = 1e310 at 1e307
        params = make_params(pulse_time=pulse_time, dark_prob=0.0, levels=8)
        with pytest.raises(OverflowError, match=f"time T_{level} overflows a float at "):
            chain(params)
        if level:
            assert math.isfinite(chain(params.with_(levels=level - 1))[-1].elapsed_time)


class TestPhaseBookkeeping:
    def test_phases_accumulate_additively(self):
        phases = [0.1, 0.2, 0.3, 0.4]
        states = [EMEState(0.0, phase=p) for p in phases]
        _, ab = swap_analytic(states[0], states[1], 1.0)
        _, cd = swap_analytic(states[2], states[3], 1.0)
        _, final = swap_analytic(ab, cd, 1.0)
        assert final.phase == pytest.approx(sum(phases), abs=1e-15)


class TestEmeDensity:
    def test_trace_and_populations(self):
        layout = fock.ModeLayout(2, 2)
        rho = eme_density(layout, (0, 1), c=0.5, phase=0.3)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert rho.population((0, 0)) == pytest.approx(0.5 / 1.5, abs=1e-12)
        assert rho.population((1, 0)) == pytest.approx(1.0 / 1.5 * 0.5, abs=1e-12)

    @pytest.mark.parametrize("modes,pair", [(3, (2, 0)), (4, (1, 3)), (2, (1, 0))])
    def test_pair_in_a_larger_layout_matches_the_pure_state(self, modes, pair):
        # the excitation rows sit at d^(n-1-m) for mode m, whatever the pair
        layout = fock.ModeLayout(modes, 2)
        c, phase = 0.7, 1.3
        ones = [tuple(int(m == k) for m in range(modes)) for k in pair]
        excitation = fock.pure_state(layout, {
            ones[0]: math.sqrt(0.5),
            ones[1]: complex(math.cos(phase), math.sin(phase)) * math.sqrt(0.5)})
        want = (c * fock.vacuum(layout).matrix
                + excitation.to_density().matrix) / (c + 1.0)
        got = eme_density(layout, pair, c, phase)
        assert np.max(np.abs(got.matrix - want)) < 1e-15

    @pytest.mark.parametrize("pair,reason", [
        ((0, 5), "mode index 5 outside [0, 2)"),
        ((-1, 1), "mode index -1 outside [0, 2)"),
        ((1, 1), "link needs two distinct modes"),
    ])
    def test_bad_pair_refused(self, pair, reason):
        with pytest.raises(ValueError) as refused:
            eme_density(fock.ModeLayout(2, 2), pair, 0.5, 0.0)
        assert str(refused.value) == reason

    @pytest.mark.parametrize("etas,reason", [
        ((1.0, 1.5), "etas[1] = 1.5 outside [0, 1]"),
        ((-0.1, 1.0), "etas[0] = -0.1 outside [0, 1]"),
        ((math.nan, 1.0), "etas[0] = nan outside [0, 1]"),
        ((1.0, math.inf), "etas[1] = inf outside [0, 1]"),
        ((0.5,), "etas needs one efficiency per link mode, got (0.5,)"),
        ((1.0, 1.0, 1.0), "etas needs one efficiency per link mode, got (1.0, 1.0, 1.0)"),
    ])
    def test_bad_efficiency_refused(self, etas, reason):
        with pytest.raises(ValueError) as refused:
            eme_density(fock.ModeLayout(2, 2), (0, 1), 0.5, 0.0, etas)
        assert str(refused.value) == reason

    def test_total_loss_leaves_the_vacuum(self):
        rho = eme_density(fock.ModeLayout(2, 2), (0, 1), 0.5, 0.3, (0.0, 0.0))
        assert rho.factor.shape[1] == 1
        assert rho.population((0, 0)) == pytest.approx(1.0, abs=1e-15)
