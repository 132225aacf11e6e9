import math
import re

import numpy as np
import pytest

from repeatersim import applications, fock
from repeatersim.applications import (
    CHSH_SETTINGS,
    CorrelationResult,
    KeyStats,
    MeasurementSetting,
    PolarizationQubit,
    chsh_correlations,
    chsh_value,
    correlation,
    ekert_simulation,
    teleport,
)
from repeatersim.protocol import eme_density, lossy_input, lossy_link

ROOT8 = 2 * math.sqrt(2)


def gate_chain(rho, setting):
    """The coincidence circuit's gates one by one: the two phases, then the
    L and R splitters, each checking its own pair support."""
    L1, R1, L2, R2 = 0, 1, 2, 3
    rho = fock.apply_phase(rho, L1, setting.psi_left)
    rho = fock.apply_phase(rho, R1, setting.psi_right)
    rho = fock.apply_beamsplitter(rho, L1, L2)
    return fock.apply_beamsplitter(rho, R1, R2)


def chain_correlation(c_n, phi, setting, eta_a, dark_prob):
    """Reference correlation by the destructive measurement chain: per
    pattern, ``measure_detector`` in descending mode order, then
    ``detector_probability`` on the last remaining mode."""
    pair = eme_density(fock.ModeLayout(2, 2), (0, 1), c_n, phi)
    for mode in (0, 1):
        pair = fock.apply_loss(pair, mode, eta_a)
    rho = gate_chain(fock.tensor(pair, pair), setting)
    L1, R1, L2, R2 = 0, 1, 2, 3
    det = fock.DetectorModel(dark_count_prob=dark_prob)
    left, right = {1: L1, 2: L2}, {1: R1, 2: R2}
    probs = {}
    for i in (1, 2):
        for j in (1, 2):
            outcomes = {left[i]: "click", left[3 - i]: "no_click",
                        right[j]: "click", right[3 - j]: "no_click"}
            prob, state = 1.0, rho
            for mode in sorted(outcomes, reverse=True):
                if state.layout.modes == 1:
                    p = fock.detector_probability(state, mode, det, outcomes[mode])
                    prob = prob * p if p >= 1e-15 else 0.0
                    break
                try:
                    p, state = fock.measure_detector(state, mode, det, outcomes[mode])
                except fock.ImpossibleOutcomeError:
                    prob = 0.0
                    break
                prob *= p
            probs[f"{i}{j}"] = prob
    total = sum(probs.values())
    value = (probs["11"] + probs["22"] - probs["12"] - probs["21"]) / total
    return CorrelationResult(value=value, coincidence_prob=total, pattern_probs=probs)


def chain_teleport(qubit, c_n, eta_a, phi=0.0):
    """Reference teleportation by the destructive measurement chain: per
    accepted pattern, ``measure_detector`` on its four detectors in
    descending mode order, the π on R2 for the crossed patterns, then the
    single-excitation population and fidelity of the conditional state."""
    layout = fock.ModeLayout(2, 2)
    target = fock.pure_state(layout, {(1, 0): qubit.d0, (0, 1): qubit.d1}, normalize=False)
    link = fock.apply_loss(eme_density(layout, (0, 1), c_n, phi), 0, eta_a)
    qubit_rho = target.to_density()
    for mode in (0, 1):
        qubit_rho = fock.apply_loss(qubit_rho, mode, eta_a)
    rho = fock.tensor(fock.tensor(qubit_rho, link), link)
    I1, I2, L1, R1, L2, R2 = 0, 1, 2, 3, 4, 5
    rho = fock.apply_beamsplitter(rho, I1, L1)
    rho = fock.apply_beamsplitter(rho, I2, L2)
    patterns = [
        ({I1: "click", L1: "no_click", I2: "click", L2: "no_click"}, False),
        ({I1: "no_click", L1: "click", I2: "no_click", L2: "click"}, False),
        ({I1: "click", L1: "no_click", I2: "no_click", L2: "click"}, True),
        ({I1: "no_click", L1: "click", I2: "click", L2: "no_click"}, True),
    ]
    pattern_total = confirmed_total = fidelity_acc = 0.0
    det = fock.DetectorModel()
    for outcomes, crossed in patterns:
        p, cond = 1.0, rho
        try:
            for mode in sorted(outcomes, reverse=True):
                q, cond = fock.measure_detector(cond, mode, det, outcomes[mode])
                p *= q
        except fock.ImpossibleOutcomeError:
            continue
        pattern_total += p
        if crossed:
            cond = fock.apply_phase(cond, 1, math.pi)
        w = cond.population((1, 0)) + cond.population((0, 1))
        if w <= 0.0:
            continue
        confirmed_total += p * w
        fidelity_acc += p * w * (fock.fidelity(cond, target) / w)
    return applications.TeleportResult(success_prob=confirmed_total,
                                       output_fidelity=fidelity_acc / confirmed_total,
                                       pattern_prob=pattern_total,
                                       confirm_prob=confirmed_total / pattern_total)


def reference_key_stats(table, rounds, seed):
    """Key statistics from a (2, 2, 5) outcome table by the (rounds, 5)
    cumulative comparison and ``np.isin`` bit formula."""
    rng = np.random.default_rng(seed)
    left = rng.integers(0, 2, size=rounds)
    right = rng.integers(0, 2, size=rounds)
    u = rng.random(rounds)
    cum = np.cumsum(table, axis=-1)[left, right]
    outcome = (u[:, None] >= cum).sum(axis=1)
    coincident = outcome < 4
    sifted = coincident & (left == right)
    bit_l = np.where(np.isin(outcome, (0, 1)), 0, 1)
    bit_r = np.where(np.isin(outcome, (0, 2)), 0, 1)
    n_sifted = int(sifted.sum())
    qber = float(np.mean(bit_l[sifted] != bit_r[sifted])) if n_sifted else 0.0
    return KeyStats(rounds=rounds, sifted_length=n_sifted, qber=qber,
                    coincidence_rate=float(coincident.mean()), seed=seed)


def outcome_table(pattern_probs):
    """(2, 2, 5) table from {(a, b): four pattern probabilities}, with the
    no-coincidence entry appended as the sampler builds it."""
    table = np.empty((2, 2, 5))
    for (a, b), probs in pattern_probs.items():
        table[a, b] = list(probs) + [1.0 - sum(probs)]
    return table


class TestCorrelation:
    def test_equal_settings_give_unit_correlation(self):
        res = correlation(0.0, 0.0, MeasurementSetting(0.7, 0.7), 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_settings_give_zero(self):
        res = correlation(0.0, 0.0, MeasurementSetting(math.pi / 2, 0.0), 1.0)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("c_n", [0.0, 1 / 3, 2.0])
    @pytest.mark.parametrize("eta_a", [0.3, 1.0])
    def test_cosine_surface(self, c_n, eta_a):
        for psi_l in np.linspace(0, 2 * math.pi, 5):
            for psi_r in np.linspace(-math.pi, math.pi, 5):
                res = correlation(c_n, 0.4, MeasurementSetting(psi_l, psi_r), eta_a)
                assert res.value == pytest.approx(math.cos(psi_l - psi_r), abs=1e-9)

    @pytest.mark.parametrize("c_n,eta_a", [(0.0, 1.0), (1 / 3, 0.5), (2.0, 0.3)])
    def test_coincidence_probability(self, c_n, eta_a):
        res = correlation(c_n, 0.0, MeasurementSetting(0.3, 1.1), eta_a)
        expected = eta_a ** 2 / (2 * (c_n + 1) ** 2)
        assert res.coincidence_prob == pytest.approx(expected, abs=1e-9)

    def test_efficiency_only_scales_probability(self):
        s = MeasurementSetting(0.9, 0.2)
        full = correlation(0.5, 0.3, s, 1.0)
        lossy = correlation(0.5, 0.3, s, 0.4)
        assert lossy.value == pytest.approx(full.value, abs=1e-12)
        assert lossy.coincidence_prob == pytest.approx(full.coincidence_prob * 0.16, abs=1e-12)


class TestCoincidenceMarginal:
    """The joint-marginal contraction against the destructive chain."""

    @pytest.mark.parametrize("dark_prob", [0.0, 1e-3, 0.2])
    def test_matches_destructive_chain(self, dark_prob):
        rng = np.random.default_rng(1207)
        for _ in range(12):
            c_n, phi, eta_a = rng.uniform(0, 3), rng.uniform(0, 2 * math.pi), rng.uniform(0.05, 1)
            setting = MeasurementSetting(*rng.uniform(-math.pi, 2 * math.pi, size=2))
            got = correlation(c_n, phi, setting, eta_a, dark_prob)
            want = chain_correlation(c_n, phi, setting, eta_a, dark_prob)
            assert got.pattern_probs.keys() == want.pattern_probs.keys()
            for k, p in want.pattern_probs.items():
                assert abs(got.pattern_probs[k] - p) <= 1e-14
            assert abs(got.value - want.value) <= 1e-14
            assert abs(got.coincidence_prob - want.coincidence_prob) <= 1e-14

    @pytest.mark.parametrize("c_n,phi,eta_a", [(0.0, 0.0, 1.0), (1 / 3, 0.4, 0.5),
                                               (5.0, math.pi, 0.3)])
    def test_chsh_correlations_equal_single_settings(self, c_n, phi, eta_a):
        results = chsh_correlations(c_n, phi, eta_a)
        for (a, b), res in zip(CHSH_SETTINGS, results):
            assert res == correlation(c_n, phi, MeasurementSetting(a, b), eta_a)

    EKERT_SETTINGS = [(a, b) for a in (0.0, math.pi / 2) for b in (0.0, math.pi / 2)]

    @pytest.mark.parametrize("dark_prob", [0.0, 1e-3])
    @pytest.mark.parametrize("angles", ["chsh", "ekert", "random"])
    def test_batched_settings_match_destructive_chain(self, angles, dark_prob):
        rng = np.random.default_rng(4401)
        for _ in range(6):
            c_n, phi, eta_a = rng.uniform(0, 3), rng.uniform(0, 2 * math.pi), rng.uniform(0.05, 1)
            pairs = {"chsh": CHSH_SETTINGS, "ekert": self.EKERT_SETTINGS,
                     "random": rng.uniform(-math.pi, 2 * math.pi, size=(5, 2))}[angles]
            settings = [MeasurementSetting(a, b) for a, b in pairs]
            got = applications._correlations(applications._link_pair(c_n, phi, eta_a),
                                             settings, dark_prob)
            assert len(got) == len(settings)
            for res, setting in zip(got, settings):
                want = chain_correlation(c_n, phi, setting, eta_a, dark_prob)
                assert res.pattern_probs.keys() == want.pattern_probs.keys()
                for k, p in want.pattern_probs.items():
                    assert abs(res.pattern_probs[k] - p) <= 1e-14
                assert abs(res.value - want.value) <= 1e-14
                assert abs(res.coincidence_prob - want.coincidence_prob) <= 1e-14

    @pytest.mark.parametrize("links,modes", [(((2, 0), (1, 0)), "(0, 2)"),
                                             (((0, 2), (0, 1)), "(1, 3)")])
    def test_pair_support_above_cutoff_raises_like_the_gate_chain(self, links, modes):
        # three photons in one site's pair (L1, L2) or (R1, R2), above cutoff 2
        first, second = (fock.number_state(fock.ModeLayout(2, 2), occ).to_density()
                         for occ in links)
        rho = fock.tensor(first, second)
        setting = MeasurementSetting(0.3, 1.1)
        with pytest.raises(fock.TruncationError,
                           match=re.escape(f"beamsplitter on modes {modes}:")) as batched:
            applications._site_view(rho)
        with pytest.raises(fock.TruncationError) as chain:
            gate_chain(rho, setting)
        assert str(batched.value) == str(chain.value)

    def test_alone_weights_are_memoised_and_read_only(self):
        alone = fock.alone_weights(2, 1e-3)
        assert fock.alone_weights(2, 1e-3) is alone
        with pytest.raises(ValueError, match="read-only"):
            alone[0, 0] = 1.0

    def test_link_pair_is_memoised_and_read_only(self):
        view = applications._link_pair(0.5, 0.3, 0.4)
        assert applications._link_pair(0.5, 0.3, 0.4) is view
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 1.0
        maxsize = applications._link_pair.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < math.inf

    @pytest.mark.parametrize("dark_prob", [-0.1, 1.5])
    def test_dark_probability_outside_unit_interval_rejected(self, dark_prob):
        with pytest.raises(ValueError, match="dark_count_prob"):
            correlation(0.0, 0.0, MeasurementSetting(0.0, 0.0), 1.0, dark_prob)

    def test_efficiency_outside_unit_interval_rejected(self):
        for eta_a in (0.0, 1.5):
            with pytest.raises(ValueError, match="application efficiency"):
                correlation(0.0, 0.0, MeasurementSetting(0.0, 0.0), eta_a)
            with pytest.raises(ValueError, match="application efficiency"):
                chsh_value(0.0, 0.0, eta_a)


class TestChsh:
    def test_quantum_bound_value(self):
        assert chsh_value(0.0, 0.0, 1.0) == pytest.approx(ROOT8, abs=1e-9)

    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
    def test_invariant_under_channel_phase(self, phi):
        assert chsh_value(0.0, phi, 1.0) == pytest.approx(ROOT8, abs=1e-10)

    @pytest.mark.parametrize("c_n", [0.0, 1.0, 5.0])
    def test_invariant_under_vacuum_coefficient(self, c_n):
        assert chsh_value(c_n, 0.0, 1.0) == pytest.approx(ROOT8, abs=1e-10)

    @pytest.mark.parametrize("eta_a", [0.3, 1.0])
    def test_invariant_under_efficiency(self, eta_a):
        assert chsh_value(0.5, 0.7, eta_a) == pytest.approx(ROOT8, abs=1e-10)

    def test_subnormal_coincidences_refused(self):
        # coincidence weight 1.25e-321: its digits are gone, and reading it
        # gave 2.83015, above the Tsirelson bound
        with pytest.raises(ValueError, match="^no coincidences: correlation undefined$"):
            chsh_value(1.0, 0.4, 1e-160)

    def test_tsirelson_value_down_to_the_normal_floor(self):
        for c_n in (0.0, 1.0, 5.0, 1e8):
            for phi in (0.0, 1.0, 4.0):
                for eta_a in np.logspace(-162, -140, 23):
                    try:
                        value = chsh_value(c_n, phi, eta_a)
                    except ValueError as exc:
                        assert str(exc) == "no coincidences: correlation undefined"
                        assert eta_a ** 2 / (2 * (c_n + 1) ** 2) < 1e-307
                        continue
                    assert abs(value - ROOT8) <= 1.3e-15

    def test_tsirelson_consistency(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            a, ap, b, bp = rng.uniform(0, 2 * math.pi, size=4)
            es = [correlation(0.3, 0.1, MeasurementSetting(x, y), 1.0).value
                  for x, y in ((a, b), (ap, b), (ap, bp), (a, bp))]
            val = abs(es[0] + es[1] + es[2] - es[3])
            assert val <= ROOT8 + 1e-9


class TestEkert:
    def test_zero_qber_and_sifting(self):
        stats = ekert_simulation(0.0, 0.0, 1.0, rounds=100_000, seed=7)
        assert stats.qber == 0.0
        assert stats.sifted_length > 0
        # half of the coincident rounds have matching settings
        sift_frac = stats.sifted_length / (stats.coincidence_rate * stats.rounds)
        sigma = 3 * math.sqrt(0.25 / (stats.coincidence_rate * stats.rounds))
        assert abs(sift_frac - 0.5) < sigma

    def test_coincidence_rate_matches_circuit(self):
        c_n, eta_a = 0.5, 0.6
        stats = ekert_simulation(c_n, 0.2, eta_a, rounds=100_000, seed=11)
        expected = eta_a ** 2 / (2 * (c_n + 1) ** 2)
        sigma = math.sqrt(expected * (1 - expected) / stats.rounds)
        assert abs(stats.coincidence_rate - expected) < 3 * sigma

    def test_deterministic_given_seed(self):
        a = ekert_simulation(0.2, 0.1, 0.8, rounds=20_000, seed=123)
        b = ekert_simulation(0.2, 0.1, 0.8, rounds=20_000, seed=123)
        assert a == b

    def test_qber_zero_even_with_vacuum_admixture(self):
        stats = ekert_simulation(1.0, 0.9, 0.7, rounds=50_000, seed=3)
        assert stats.qber == 0.0

    @pytest.mark.parametrize("c_n,phi,eta_a", [(0.0, 0.3, 1.0), (0.5, 0.2, 0.6),
                                               (2.0, 1.7, 0.25)])
    def test_circuit_tables_match_reference_sampler(self, c_n, phi, eta_a):
        settings = (0.0, math.pi / 2)
        table = outcome_table({
            (a, b): correlation(c_n, phi, MeasurementSetting(settings[a], settings[b]),
                                eta_a).pattern_probs.values()
            for a in (0, 1) for b in (0, 1)})
        for seed in (0, 5, 99):
            assert (ekert_simulation(c_n, phi, eta_a, rounds=20_000, seed=seed)
                    == reference_key_stats(table, 20_000, seed))

    @pytest.mark.parametrize("table_seed", [3, 4, 8])
    def test_random_tables_match_reference_sampler(self, monkeypatch, table_seed):
        # noisy tables give the mismatched patterns weight, so the bit
        # assignment of every pattern shows in the QBER
        rng = np.random.default_rng(table_seed)
        probs = {(a, b): list(rng.dirichlet(np.ones(5))[:4]) for a in (0, 1) for b in (0, 1)}
        # Σp rounds above 1, so the no-coincidence entry is a tiny negative number
        probs[1, 1] = [0.5017535083586557, 0.1583447529128556,
                       0.12389774916694181, 0.21600398956154693]
        table = outcome_table(probs)
        assert -1e-15 < table[1, 1, 4] < 0.0
        self.use_table(monkeypatch, probs)
        for seed in (1, 2, 77):
            got = ekert_simulation(0.0, 0.0, 1.0, rounds=30_000, seed=seed)
            assert got == reference_key_stats(table, 30_000, seed)
            assert got.qber > 0.0

    @pytest.mark.parametrize("scale", [1e-3, 0.05, 0.5])
    def test_small_unequal_tables_match_reference_sampler(self, monkeypatch, scale):
        # cells with unequal totals well below 1: most rounds are no
        # coincidence in every cell, and the others straddle the cell totals
        rng = np.random.default_rng(11)
        probs = {(a, b): list(rng.dirichlet(np.ones(4)) * scale * (1 + a + 2 * b) / 4)
                 for a in (0, 1) for b in (0, 1)}
        table = outcome_table(probs)
        self.use_table(monkeypatch, probs)
        for seed in (1, 2, 77):
            got = ekert_simulation(0.0, 0.0, 1.0, rounds=30_000, seed=seed)
            assert got == reference_key_stats(table, 30_000, seed)

    @staticmethod
    def use_table(monkeypatch, probs):
        """Make every setting of the sampler read its patterns from ``probs``."""
        index = {0.0: 0, math.pi / 2: 1}

        def fixed(rho, settings, dark_prob=0.0):
            cells = (probs[index[s.psi_left], index[s.psi_right]] for s in settings)
            return tuple(CorrelationResult(value=math.nan, coincidence_prob=sum(p),
                                           pattern_probs=dict(zip(("11", "12", "21", "22"), p)))
                         for p in cells)
        monkeypatch.setattr(applications, "_correlations", fixed)


class TestFockCallCounts:
    """The application circuits' fock work, as call counts."""

    NAMES = ("measure_detector", "detector_probability", "tensor",
             "apply_phase", "apply_beamsplitter", "marginal", "apply_loss")
    # one link pair built in closed form, no gate, and one support read
    # (row norms, no marginal) for both splitters
    LINK_PAIR = {"measure_detector": 0, "detector_probability": 0, "tensor": 1,
                 "apply_phase": 0, "apply_beamsplitter": 0, "marginal": 0, "apply_loss": 0}

    @pytest.fixture
    def calls(self, monkeypatch):
        # cold memos, so each test sees its link pair built
        applications._link_pair.cache_clear()
        applications._teleport_response.cache_clear()
        counts = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            def counted(*args, _f=getattr(fock, name), _name=name, **kwargs):
                counts[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(fock, name, counted)
        return counts

    def test_correlation_measures_nothing(self, calls):
        correlation(0.5, 0.3, MeasurementSetting(0.9, 0.2), 0.4, dark_prob=1e-3)
        assert calls == self.LINK_PAIR

    def test_chsh_builds_one_link_pair(self, calls):
        chsh_correlations(0.5, 0.3, 0.4)
        assert calls == self.LINK_PAIR

    def test_ekert_builds_one_link_pair(self, calls):
        ekert_simulation(0.5, 0.3, 0.4, rounds=1000, seed=1)
        assert calls == self.LINK_PAIR

    def test_repeated_link_builds_no_second_pair(self, calls):
        correlation(0.5, 0.3, MeasurementSetting(0.9, 0.2), 0.4)
        chsh_correlations(0.5, 0.3, 0.4)
        ekert_simulation(0.5, 0.3, 0.4, rounds=1000, seed=1)
        assert calls == self.LINK_PAIR

    def test_correlation_surface_builds_one_link_pair(self, calls):
        for psi_l in np.linspace(0.0, 2 * math.pi, 8):
            for psi_r in np.linspace(0.0, 2 * math.pi, 8):
                correlation(1 / 3, 0.4, MeasurementSetting(psi_l, psi_r), 0.5)
        assert calls == self.LINK_PAIR

    def test_teleport_reads_the_splitter_output_once(self, calls):
        # one tensor product for the link pair, one support read for both
        # sender splitters and the splitters fused into the read; no loss
        # channel, detector, phase gate or conditional state
        teleport(PolarizationQubit.from_bloch(1.1, 0.4), 0.5, 0.6)
        assert calls == self.LINK_PAIR


def circuit_outputs(c_n, phi, eta_a, cold=False):
    """``repr`` of every coincidence circuit's results on the link
    (c_n, phi, eta_a), each on a cleared memo if ``cold``: exact digits, and
    -0.0 tells from 0.0."""
    out = []
    for circuit in (lambda: correlation(c_n, phi, MeasurementSetting(0.3, 1.2), eta_a, 1e-3),
                    lambda: chsh_correlations(c_n, phi, eta_a),
                    lambda: ekert_simulation(c_n, phi, eta_a, rounds=20_000, seed=5)):
        if cold:
            applications._link_pair.cache_clear()
        out.append(circuit())
    return repr(out)


class TestLinkPairMemo:
    """The memoised site view changes no result and caches no refusal."""

    @pytest.mark.parametrize("link", [(0.0, 0.0, 1.0), (1 / 3, 0.4, 0.5), (2.0, 1.7, 0.25)])
    def test_warm_results_equal_cold_bit_for_bit(self, link):
        cold = circuit_outputs(*link, cold=True)
        applications._link_pair(*link)
        assert circuit_outputs(*link) == cold

    # lru_cache takes each pair for one key
    @pytest.mark.parametrize("first,second", [
        ((0.5, 0.0, 0.6), (0.5, -0.0, 0.6)),
        ((0.0, 0.4, 0.6), (-0.0, 0.4, 0.6)),
        ((1.0, 0.4, 0.6), (1, 0.4, 0.6)),
        ((0.5, 0.4, 1.0), (0.5, 0.4, 1)),
        ((0.5, 0.0, 0.6), (0.5, 0, 0.6)),
        ((0.3, 0.2, 0.7), (np.float64(0.3), np.float64(0.2), np.float64(0.7))),
    ])
    def test_equal_keys_give_cold_results(self, first, second):
        for a, b in ((first, second), (second, first)):
            want = circuit_outputs(*b, cold=True)
            applications._link_pair.cache_clear()
            applications._link_pair(*a)
            assert circuit_outputs(*b) == want

    @pytest.mark.parametrize("bad,neighbour,reason", [
        ((1.0, math.nan, 0.5), (1.0, 0.4, 0.5), "link phase nan must be finite"),
        ((-0.5, 0.4, 0.5), (0.0, 0.4, 0.5),
         "link vacuum coefficient c = -0.5 must be finite and non-negative"),
        ((0.5, 0.4, 0.0), (0.5, 0.4, 1e-3), "application efficiency 0.0 outside (0, 1]"),
        ((0.5, 0.4, 1.5), (0.5, 0.4, 1.0), "application efficiency 1.5 outside (0, 1]"),
        ((0.5, 0.4, math.nan), (0.5, 0.4, 0.5), "application efficiency nan outside (0, 1]"),
    ])
    def test_refusals_are_not_cached(self, bad, neighbour, reason):
        c_n, phi, eta_a = bad
        circuit_outputs(*neighbour)
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                applications._link_pair(*bad)
            assert str(exc.value) == reason
            for circuit in (lambda: correlation(c_n, phi, MeasurementSetting(0.0, 0.0), eta_a),
                            lambda: chsh_correlations(c_n, phi, eta_a),
                            lambda: ekert_simulation(c_n, phi, eta_a, rounds=100, seed=1)):
                with pytest.raises(ValueError, match=re.escape(reason)):
                    circuit()


# Bloch points (theta, phi) of the qubits the teleport memo tests send
BLOCH_POINTS = ((1.1, 0.4), (0.0, 0.0), (math.pi, 2.0), (2.3, 5.1))


def teleport_outputs(c_n, phi, eta_a, cold=False):
    """``repr`` of ``teleport`` at each of ``BLOCH_POINTS`` on the link
    (c_n, phi, eta_a), each on a cleared memo if ``cold``."""
    out = []
    for theta, phi_b in BLOCH_POINTS:
        if cold:
            applications._teleport_response.cache_clear()
        out.append(teleport(PolarizationQubit.from_bloch(theta, phi_b), c_n, eta_a, phi=phi))
    return repr(out)


class TestTeleportMemo:
    """The memoised teleport response builds each link once, changes no
    result and caches no refusal."""

    @pytest.fixture
    def fock_calls(self, monkeypatch):
        """Count every call into ``fock``: its functions, its memoised tables
        and the state constructor."""
        applications._teleport_response.cache_clear()
        counts = {}

        def counting(name, f):
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return f(*args, **kwargs)
            return counted
        for name, f in vars(fock).items():
            if (callable(f) and not isinstance(f, type)
                    and getattr(f, "__module__", None) == fock.__name__):
                monkeypatch.setattr(fock, name, counting(name, f))
        monkeypatch.setattr(fock.DensityOperator, "from_factor",
                            counting("from_factor", fock.DensityOperator.from_factor))
        return counts

    def test_cold_build_makes_one_tensor_per_link(self, fock_calls):
        for link in ((0.5, 0.3, 0.6), (1.0, 0.0, 1.0), (0.5, 0.3, 0.6)):
            teleport_outputs(*link)
        assert fock_calls["tensor"] == 2
        assert applications._teleport_response.cache_info().currsize == 2

    def test_warm_call_makes_no_fock_call(self, fock_calls):
        applications._teleport_response(0.5, 0.3, 0.6)
        fock_calls.clear()
        teleport_outputs(0.5, 0.3, 0.6)
        assert fock_calls == {}

    def test_tables_are_read_only(self):
        for table in applications._teleport_response(0.5, 0.3, 0.6):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0

    @pytest.mark.parametrize("link", [(0.0, 0.0, 1.0), (1 / 3, 0.4, 0.5), (2.0, 1.7, 0.25)])
    def test_warm_results_equal_cold_bit_for_bit(self, link):
        cold = teleport_outputs(*link, cold=True)
        applications._teleport_response(*link)
        assert teleport_outputs(*link) == cold

    # lru_cache takes each pair for one key
    @pytest.mark.parametrize("first,second", [
        ((0.5, 0.0, 0.6), (0.5, -0.0, 0.6)),
        ((0.0, 0.4, 0.6), (-0.0, 0.4, 0.6)),
        ((1.0, 0.4, 0.6), (1, 0.4, 0.6)),
        ((0.5, 0.4, 1.0), (0.5, 0.4, 1)),
        ((0.5, 0.0, 0.6), (0.5, 0, 0.6)),
        ((0.3, 0.2, 0.7), (np.float64(0.3), np.float64(0.2), np.float64(0.7))),
    ])
    def test_equal_keys_give_cold_results(self, first, second):
        for a, b in ((first, second), (second, first)):
            want = teleport_outputs(*b, cold=True)
            applications._teleport_response.cache_clear()
            applications._teleport_response(*a)
            assert teleport_outputs(*b) == want

    @pytest.mark.parametrize("bad,neighbour,reason", [
        ((0.5, 0.4, 0.0), (0.5, 0.4, 1e-3), "application efficiency 0.0 outside (0, 1]"),
        ((0.5, 0.4, 1.5), (0.5, 0.4, 1.0), "application efficiency 1.5 outside (0, 1]"),
        ((0.5, 0.4, math.nan), (0.5, 0.4, 0.5), "application efficiency nan outside (0, 1]"),
        ((1.0, math.nan, 0.5), (1.0, 0.4, 0.5), "link phase nan must be finite"),
        ((-0.5, 0.4, 0.5), (0.0, 0.4, 0.5),
         "link vacuum coefficient c = -0.5 must be finite and non-negative"),
        # the link builds; its success weight underflows on every call
        ((0.0, 0.4, 1e-160), (0.0, 0.4, 1e-150), "no accepted click pattern has support"),
    ])
    def test_refusals_are_not_cached(self, bad, neighbour, reason):
        c_n, phi, eta_a = bad
        for _ in range(2):
            teleport_outputs(*neighbour)
            with pytest.raises(ValueError) as exc:
                teleport(PolarizationQubit.from_bloch(1.1, 0.4), c_n, eta_a, phi=phi)
            assert type(exc.value) is ValueError
            assert str(exc.value) == reason


class TestLinkParameters:
    """Bad link parameters are refused by ``eme_density`` with their reason."""

    CIRCUITS = {
        "correlation": lambda c_n, phi: correlation(c_n, phi, MeasurementSetting(0.0, 0.0), 0.5),
        "chsh_value": lambda c_n, phi: chsh_value(c_n, phi, 0.5),
        "ekert_simulation": lambda c_n, phi: ekert_simulation(c_n, phi, 0.5, rounds=100, seed=1),
        "teleport": lambda c_n, phi: teleport(PolarizationQubit(1.0, 0.0), c_n, 0.5, phi=phi),
    }

    @pytest.mark.parametrize("circuit", CIRCUITS)
    @pytest.mark.parametrize("c_n,phi,reason", [
        (math.nan, 0.0, "link vacuum coefficient c = nan must be finite and non-negative"),
        (math.inf, 0.0, "link vacuum coefficient c = inf must be finite and non-negative"),
        (-0.5, 0.0, "link vacuum coefficient c = -0.5 must be finite and non-negative"),
        (1.0, math.nan, "link phase nan must be finite"),
        (1.0, math.inf, "link phase inf must be finite"),
        (1.0, -math.inf, "link phase -inf must be finite"),
    ])
    def test_bad_link_parameters_rejected(self, circuit, c_n, phi, reason):
        with pytest.raises(ValueError) as exc:
            self.CIRCUITS[circuit](c_n, phi)
        assert type(exc.value) is ValueError
        assert str(exc.value) == reason


class TestTeleport:
    @pytest.mark.parametrize("theta,phi", [(math.nan, 0.0), (1.0, math.inf),
                                           (-math.inf, 0.0)])
    def test_non_finite_bloch_angles_rejected(self, theta, phi):
        with pytest.raises(ValueError, match="Bloch angles must be finite"):
            PolarizationQubit.from_bloch(theta, phi)

    @pytest.mark.parametrize("d0,d1", [(math.nan, 0.0), (1.0, complex(0.0, math.nan)),
                                       (math.inf, 0.0)])
    def test_non_finite_amplitudes_rejected(self, d0, d1):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            PolarizationQubit(d0, d1)

    @pytest.mark.parametrize("c_n", [0.0, 1.0])
    def test_basis_state_fidelity(self, c_n):
        res = teleport(PolarizationQubit(1.0, 0.0), c_n, 1.0)
        assert res.output_fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("c_n", [0.0, 1.0])
    def test_superposition_fidelity(self, c_n):
        q = PolarizationQubit(1 / math.sqrt(2), 1j / math.sqrt(2))
        res = teleport(q, c_n, 1.0)
        assert res.output_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_random_qubits_teleport_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            theta, phi_b = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            q = PolarizationQubit.from_bloch(theta, phi_b)
            for c_n in (0.0, 1.0):
                res = teleport(q, c_n, 1.0)
                assert res.output_fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("c_n,eta_a", [(0.0, 1.0), (1.0, 1.0), (0.5, 0.6)])
    def test_success_probability_closed_form(self, c_n, eta_a):
        q = PolarizationQubit.from_bloch(1.1, 0.4)
        res = teleport(q, c_n, eta_a)
        # confirmed success: both detected photons survive, Bell acceptance 1/2
        assert res.success_prob == pytest.approx(
            eta_a ** 2 / (4 * (c_n + 1) ** 2), abs=1e-9)

    @pytest.mark.parametrize("c_n,eta_a", [(0.0, 1.0), (1.0, 1.0), (0.5, 0.6)])
    def test_pattern_probability_closed_form(self, c_n, eta_a):
        # independent enumeration: links contribute photons to the sender side
        # with weight 1/2 each; bunched same-side pairs pass a threshold
        # detector with probability 2 eta - eta^2
        q = PolarizationQubit.from_bloch(2.0, 1.0)
        res = teleport(q, c_n, eta_a)
        expected = (eta_a ** 2 / (c_n + 1) ** 2) * ((3 - eta_a) / 4 + c_n / 2)
        assert res.pattern_prob == pytest.approx(expected, abs=1e-9)

    def test_matches_destructive_chain(self):
        rng = np.random.default_rng(2311)
        points = [(1.0, rng.uniform(0, 3)), (rng.uniform(0.05, 1), 0.0), (1.0, 0.0)]
        points += [(rng.uniform(0.05, 1), rng.uniform(0, 3)) for _ in range(21)]
        for eta_a, c_n in points:
            q = PolarizationQubit.from_bloch(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            phi = rng.uniform(0, 2 * math.pi)
            got, want = teleport(q, c_n, eta_a, phi=phi), chain_teleport(q, c_n, eta_a, phi=phi)
            for field in ("success_prob", "output_fidelity", "pattern_prob", "confirm_prob"):
                assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-14)

    @pytest.mark.parametrize("c_n,eta_a", [(1e16, 0.5), (0.5, 1e-16)])
    def test_tiny_weights_follow_closed_forms(self, c_n, eta_a):
        # the destructive chain's 1e-15 per-detector floor refused these
        res = teleport(PolarizationQubit.from_bloch(1.1, 0.4), c_n, eta_a)
        scale = eta_a ** 2 / (c_n + 1) ** 2
        assert res.pattern_prob == pytest.approx(scale * ((3 - eta_a) / 4 + c_n / 2), rel=1e-12)
        assert res.success_prob == pytest.approx(scale / 4, rel=1e-12)
        assert res.output_fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("c_n,eta_a", [(1e300, 0.5), (0.5, 1e-300), (0.0, 1e-160)])
    def test_weight_lost_to_underflow_refused(self, c_n, eta_a):
        # success weight eta^2 / (4 (c + 1)^2) zero or below the normal floats
        with pytest.raises(ValueError, match="^no accepted click pattern has support$"):
            teleport(PolarizationQubit.from_bloch(1.1, 0.4), c_n, eta_a)

    def test_fidelity_independent_of_phase_and_efficiency(self):
        q = PolarizationQubit.from_bloch(0.8, 2.5)
        for phi in (0.0, 1.2):
            for eta_a in (0.4, 1.0):
                res = teleport(q, 0.5, eta_a, phi=phi)
                assert res.output_fidelity == pytest.approx(1.0, abs=1e-9)


class TestLossyInput:
    """The closed-form lossy inputs against the ``fock.apply_loss`` Kraus chain."""

    @pytest.mark.parametrize("c_n,phi,etas", [
        (0.7, 1.3, (1.0, 1.0)),      # no loss: the link itself
        (0.0, 0.4, (0.3, 0.3)),      # no vacuum term
        (1.3, 2.2, (0.45, 1.0)),     # one-sided, as teleport's links
        (0.0, 5.1, (1.0, 0.6)),      # one-sided on the other half
        (2.0, 0.9, (0.2, 0.85)),     # both sides, unequal
    ])
    def test_link_matches_kraus_chain(self, c_n, phi, etas):
        want = eme_density(fock.ModeLayout(2, 2), (0, 1), c_n, phi)
        for mode, eta in enumerate(etas):
            want = fock.apply_loss(want, mode, eta)
        got = applications._link(c_n, phi, etas)
        assert got.factor.shape[1] <= 2
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-15

    @pytest.mark.parametrize("eta", [1.0, 0.6, 1e-3])
    def test_qubit_matches_kraus_chain(self, eta):
        q = PolarizationQubit.from_bloch(1.1, 0.4)
        want = fock.pure_state(fock.ModeLayout(2, 2), {(1, 0): q.d0, (0, 1): q.d1},
                               normalize=False).to_density()
        for mode in (0, 1):
            want = fock.apply_loss(want, mode, eta)
        got = lossy_input(fock.ModeLayout(2, 2), 0.0, (q.d0, q.d1), (eta, eta))
        assert got.factor.shape[1] <= 2
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-15

    @pytest.mark.parametrize("cutoff", [1, 2, 4])
    def test_link_at_any_cutoff_matches_kraus_chain(self, cutoff):
        # the swap oracle's links, at the oracle's own cutoff
        layout = fock.ModeLayout(2, cutoff)
        for c, phi, etas in ((0.0, 0.3, (1.0, 0.4)), (1.7, 2.9, (0.8, 1.0))):
            want = eme_density(layout, (0, 1), c, phi)
            for mode, eta in enumerate(etas):
                want = fock.apply_loss(want, mode, eta)
            got = lossy_link(layout, c, phi, etas)
            assert got.factor.shape[1] <= 2
            assert np.max(np.abs(got.matrix - want.matrix)) < 1e-15


class TestRefusalGrid:
    """Each circuit over vacuum coefficients and efficiencies down to the
    smallest subnormal: it returns, or refuses with its own reason, never a
    bad parameter it did not get.  A weight (about eta_a^2 / (c_n + 1)^2)
    below the smallest normal float is refused."""

    REASONS = {"correlation": "no coincidences: correlation undefined",
               "chsh_value": "no coincidences: correlation undefined",
               "teleport": "no accepted click pattern has support"}
    CIRCUITS = {
        "correlation": lambda c_n, eta_a: correlation(c_n, 0.4, MeasurementSetting(0.3, 1.1),
                                                      eta_a),
        "chsh_value": lambda c_n, eta_a: chsh_value(c_n, 0.4, eta_a),
        "teleport": lambda c_n, eta_a: teleport(PolarizationQubit.from_bloch(1.1, 0.4), c_n,
                                                eta_a, phi=0.4),
    }

    @pytest.mark.parametrize("circuit", CIRCUITS)
    @pytest.mark.parametrize("c_n", [0.0, 1.0, 1e16, 1e300])
    @pytest.mark.parametrize("eta_a", [1.0, 0.5, 1e-16, 1e-160, 1e-300, 5e-324])
    def test_runs_or_refuses_with_its_reason(self, circuit, c_n, eta_a):
        if c_n == 1e300 or eta_a <= 1e-160:
            with pytest.raises(ValueError) as exc:
                self.CIRCUITS[circuit](c_n, eta_a)
            assert type(exc.value) is ValueError
            assert str(exc.value) == self.REASONS[circuit]
        else:
            self.CIRCUITS[circuit](c_n, eta_a)


class TestLossBeforeTensor:
    """Loss on one factor commutes with ``fock.tensor``: the circuits' lossy
    factors, tensored, equal the joint state with the same losses."""

    @staticmethod
    def lossy(rho, eta, modes):
        for mode in modes:
            rho = fock.apply_loss(rho, mode, eta)
        return rho

    @pytest.mark.parametrize("c_n,phi,eta", [(0.0, 0.0, 0.3), (0.7, 1.3, 0.85)])
    def test_correlation_layout(self, c_n, phi, eta):
        pair = eme_density(fock.ModeLayout(2, 2), (0, 1), c_n, phi)
        before = fock.tensor(self.lossy(pair, eta, (0, 1)), self.lossy(pair, eta, (0, 1)))
        after = self.lossy(fock.tensor(pair, pair), eta, (0, 1, 2, 3))
        assert np.max(np.abs(before.matrix - after.matrix)) < 1e-15

    @pytest.mark.parametrize("c_n,phi,eta", [(0.0, 0.0, 0.3), (0.7, 1.3, 0.85)])
    def test_teleport_layout(self, c_n, phi, eta):
        layout = fock.ModeLayout(2, 2)
        q = PolarizationQubit.from_bloch(1.1, 0.4)
        qubit = fock.pure_state(layout, {(1, 0): q.d0, (0, 1): q.d1},
                                normalize=False).to_density()
        link = eme_density(layout, (0, 1), c_n, phi)
        lossy_link = self.lossy(link, eta, (0,))
        before = fock.tensor(fock.tensor(self.lossy(qubit, eta, (0, 1)), lossy_link),
                             lossy_link)
        after = self.lossy(fock.tensor(fock.tensor(qubit, link), link), eta, (0, 1, 2, 4))
        assert np.max(np.abs(before.matrix - after.matrix)) < 1e-15
