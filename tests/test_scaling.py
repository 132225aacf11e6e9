import decimal
import math

import numpy as np
import pytest

from repeatersim.protocol import RepeaterParams, chain
from repeatersim.scaling import (
    InfeasibleError,
    closed_form_ratio,
    closed_form_time,
    fidelity_budget,
    optimal_segment_power_law,
    optimize_segment,
    total_time,
)


def make_params(**overrides):
    base = dict(excitation_prob=0.01, pulse_time=1e-6, local_efficiency=0.5,
                swap_efficiency=2 / 3, app_efficiency=0.5, dark_prob=0.0,
                attenuation_length=1.0, segment_length=6.25, levels=4)
    base.update(overrides)
    return RepeaterParams(**base)


class TestTotalTime:
    def test_product_of_success_probs(self):
        # eta_s = 2/3, c0 = 0, n = 4 -> 1/prod p_i = 120
        report = total_time(make_params(), df_target=0.05)
        prod = 1.0
        for row in report.chain[1:]:
            prod *= row.success_prob
        assert 1.0 / prod == pytest.approx(120.0, abs=1e-9)

    def test_unit_swap_efficiency_matches_case_one_exactly(self):
        for n in (3, 4, 5):
            params = make_params(swap_efficiency=1.0, levels=n,
                                 segment_length=100.0 / 2 ** n)
            report = total_time(params, df_target=0.05)
            closed = closed_form_time(params)
            assert report.ratio == pytest.approx(closed, rel=1e-9)
            # all p_i = 1/2, T_n = T0 2^n
            assert report.t_n == pytest.approx(report.t0 * 2 ** n, rel=1e-12)

    def test_ratio_constant_in_length_for_unit_swap(self):
        # compositional / closed-form case 1 must not drift with L
        ratios = []
        for k in (3, 4, 5):
            params = make_params(swap_efficiency=1.0, levels=k, segment_length=1.0)
            report = total_time(params, df_target=0.05)
            ratios.append(report.ratio / closed_form_time(params))
        assert max(ratios) - min(ratios) < 1e-9

    def test_direct_baseline(self):
        report = total_time(make_params(), df_target=0.05)
        assert report.baseline_direct_ratio == pytest.approx(math.exp(100.0), rel=1e-9)

    def test_direct_baseline_past_a_float_is_inf(self):
        # exp(1024) overflows; the repeater times of the row stay finite
        report = total_time(make_params(levels=9, segment_length=2.0), df_target=0.05)
        assert report.baseline_direct_ratio == math.inf
        assert math.isfinite(report.ratio)

    def test_overflowed_total_time_is_refused(self):
        # the chain total_time builds (p_c = 0.05 / 2) ends at a finite T_n;
        # T_tot = T_n / p_app overflows
        params = make_params(pulse_time=1e305, levels=1, segment_length=1.0)
        assert math.isfinite(chain(params.with_(excitation_prob=0.025))[-1].elapsed_time)
        with pytest.raises(OverflowError,
                           match="total time T_tot overflows a float at levels = 1, "):
            total_time(params, df_target=0.05)

    def test_budget_infeasible(self):
        # a budget outside (0, 1) is bad input, refused by name: not an
        # InfeasibleError, which the scan would skip row by row
        with pytest.raises(ValueError) as refused:
            total_time(make_params(), df_target=1.5)
        assert str(refused.value) == "df_target = 1.5 outside (0, 1)"
        assert not isinstance(refused.value, InfeasibleError)

    def test_budget_allocation(self):
        report = total_time(make_params(levels=3, segment_length=12.5), df_target=0.08)
        assert report.excitation_prob == pytest.approx(0.01, rel=1e-12)

    def test_monotone_in_efficiencies_and_length(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            eta_p = rng.uniform(0.2, 0.9)
            eta_s = rng.uniform(0.5, 0.95)
            eta_a = rng.uniform(0.2, 0.9)
            base = make_params(local_efficiency=eta_p, swap_efficiency=eta_s,
                               app_efficiency=eta_a)
            t = total_time(base, 0.05).t_tot
            assert total_time(base.with_(local_efficiency=min(1.0, eta_p * 1.1)), 0.05).t_tot < t
            assert total_time(base.with_(swap_efficiency=min(1.0, eta_s * 1.05)), 0.05).t_tot < t
            assert total_time(base.with_(app_efficiency=min(1.0, eta_a * 1.1)), 0.05).t_tot < t
            longer = base.with_(segment_length=base.segment_length * 1.3)
            assert total_time(longer, 0.05).t_tot > t

    def test_times_chain_consistency(self):
        report = total_time(make_params(), df_target=0.05)
        assert report.t_tot == pytest.approx(report.t_n / report.p_app, rel=1e-12)
        assert report.ratio == pytest.approx(report.t_tot / report.t_con, rel=1e-12)


class TestClosedForm:
    def test_high_eta_printed_value(self):
        # (L/L0)^2 e with L/L0 = 16, L0 = L_att
        val = closed_form_ratio(16.0, 1.0, 1.0)
        assert val == pytest.approx(256 * math.e, rel=1e-12)

    def test_general_exponent_reduction_at_two_thirds(self):
        # log2(1/eta - 1) = -1 cuts the exponent by one
        lr, l0 = 16.0, 1.0
        general = closed_form_ratio(lr, l0, 2 / 3)
        exponent = (math.log2(lr) + 1) / 2 + 2 - 1
        assert general == pytest.approx(lr ** exponent * math.e, rel=1e-12)

    def test_headline_order_of_magnitude(self):
        val = closed_form_ratio(100.0 / 5.7, 5.7, 2 / 3)
        assert 1e6 <= val <= 1e7

    def test_needs_meaningful_ratio(self):
        with pytest.raises(ValueError):
            closed_form_ratio(0.5, 1.0, 0.9)

    @pytest.mark.parametrize("eta_s,case", [(1.0, "high_eta"), (0.999, "general"),
                                            (2 / 3, "general"), (0.1, "general")])
    def test_time_picks_the_case_from_the_swap_efficiency(self, eta_s, case):
        params = make_params(swap_efficiency=eta_s, levels=4, segment_length=6.25)
        exponent = 2.0 if case == "high_eta" else \
            (math.log2(16.0) + 1.0) / 2.0 + math.log2(1.0 / eta_s - 1.0) + 2.0
        assert closed_form_ratio(16.0, 6.25, eta_s) == 16.0 ** exponent * math.exp(6.25)
        assert closed_form_time(params) == closed_form_ratio(16.0, 6.25, eta_s)


class TestOptimizeSegment:
    def test_power_law_quadratic(self):
        assert optimal_segment_power_law(2.0) == pytest.approx(2.0)
        opt = optimize_segment(make_params(), 100.0, objective="power_law", m=2.0)
        assert opt.l0_star == pytest.approx(2.0, rel=1e-12)

    def test_power_law_headline_exponent(self):
        opt = optimize_segment(make_params(), 100.0, objective="power_law", m=5.7)
        assert opt.l0_star == pytest.approx(5.7, rel=1e-6)

    @pytest.mark.parametrize("m", [1.0, 2.5, 5.7, 10.0])
    def test_power_law_stationarity(self, m):
        # numerical check that m * L_att is the argmin of the surrogate
        l0_star = optimal_segment_power_law(m)
        f = lambda l0: (100.0 / l0) ** m * math.exp(l0)
        for delta in (-1e-3, 1e-3):
            assert f(l0_star) <= f(l0_star + delta)

    def test_compositional_scan(self):
        opt = optimize_segment(make_params(), 100.0, objective="compositional")
        assert opt.n_star in (3, 4, 5)
        assert 4.0 <= opt.l0_star <= 8.0
        assert opt.value > 0
        assert len(opt.scanned) >= 5

    def test_rows_without_signal_or_finite_times_are_skipped(self):
        # at L = 4000 L_att the n = 1, 2 segments transmit nothing (eta_p
        # underflows to 0), and exp(L / L_att) overflows on every row
        opt = optimize_segment(make_params(), 4000.0, objective="compositional")
        assert [row[0] for row in opt.scanned] == list(range(3, 21))
        assert opt.n_star == 9

    @pytest.mark.parametrize("m", [1e-320, 0.1, 2.0, 50.0, 700.0])
    def test_power_law_value_matches_exact_arithmetic(self, m):
        # (L/L0)^m e^{L0/L_att} in 40 digits: in floats L/L0 overflows at
        # m = 1e-320, and at m = 700 (L/L0)^m underflows while e^{L0} is finite
        with decimal.localcontext(decimal.Context(prec=40)):
            l0 = decimal.Decimal(m)
            want = float((100 / l0) ** l0 * l0.exp())
        opt = optimize_segment(make_params(), 100.0, objective="power_law", m=m)
        assert opt.value == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("total,m,value", [(100.0, 800.0, 0.0), (1e300, 50.0, math.inf)])
    def test_power_law_value_beyond_a_float_is_refused_by_its_inputs(self, total, m, value):
        with pytest.raises(ValueError) as info:
            optimize_segment(make_params(), total, objective="power_law", m=m)
        assert str(info.value) == (f"the power-law value is {value} in floats at m = {m}, "
                                   f"total_length = {total}, attenuation_length = 1.0")

    @pytest.mark.parametrize("total", [0.0, -0.0, -5.0, math.inf, -math.inf, math.nan])
    def test_power_law_refuses_a_length_that_is_not_positive_and_finite(self, total):
        with pytest.raises(ValueError) as info:
            optimize_segment(make_params(), total, objective="power_law", m=2.0)
        assert str(info.value) == f"total_length = {total} outside (0, inf)"

    @pytest.mark.parametrize("df_target", [math.nan, 0.0, 1.0, math.inf])
    def test_budget_outside_its_range_refused_before_the_scan(self, df_target):
        # not "no feasible segmentation": total_time's refusal on every row
        # would be skipped
        with pytest.raises(ValueError) as refused:
            optimize_segment(make_params(), 100.0, df_target=df_target)
        assert str(refused.value) == f"df_target = {df_target} outside (0, 1)"

    def test_power_law_requires_m(self):
        with pytest.raises(ValueError):
            optimize_segment(make_params(), 100.0, objective="power_law")


class TestFidelityBudget:
    def test_dark_scaling(self):
        budget = fidelity_budget(1000, 1e-5, 0.0, target=0.05)
        assert budget.dark == pytest.approx(1e-2)
        assert not budget.dark_negligible

    def test_random_walk_scaling(self):
        budget = fidelity_budget(100, 0.0, 1e-4, target=0.05)
        assert budget.asym == pytest.approx(1e-3)
        assert budget.asym_negligible

    def test_zero_inputs(self):
        budget = fidelity_budget(64, 0.0, 0.0, target=0.01)
        assert budget.dark == 0.0 and budget.asym == 0.0
        assert budget.dark_negligible and budget.asym_negligible

    def test_negative_rejected(self):
        with pytest.raises(ValueError) as refused:
            fidelity_budget(-1, 0.0, 0.0)
        assert str(refused.value) == "segments = -1 outside [0, inf)"


class TestAdvantage:
    def test_polynomial_vs_exponential(self):
        # the chain beats direct transmission by over thirty orders of magnitude
        for eta_s in (2 / 3, 0.8, 0.95):
            opt = optimize_segment(make_params(swap_efficiency=eta_s), 100.0,
                                   objective="compositional")
            assert math.exp(100.0) / opt.value >= 1e30
