import ast
import math
import re
import tracemalloc

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
from repeatersim._records import check_in
from repeatersim.protocol import eme_density

ROOT8 = 2 * math.sqrt(2)
BLOCK = applications._KEY_BLOCK


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


# The application circuits on the Fock engine: the oracles of the closed
# forms in ``applications``.  Every input holds two-mode factors at cutoff 2.
PAIR = fock.ModeLayout(2, 2)
# indices of the single-excitation states |1,0⟩ and |0,1⟩ of a pair
SINGLES = [PAIR.index((1, 0)), PAIR.index((0, 1))]
# the lossy qubit's (I1, I2) number states: its vacuum |00⟩ and its single
# excitations |10⟩, |01⟩
QUBIT_STATES = [PAIR.index((0, 0)), *SINGLES]


def link(c_n, phi, etas):
    """The link (c_n, phi) after loss ``etas`` on its two halves, its
    inputs refused by the names the closed forms give them."""
    for eta in etas:
        check_in("(0, 1]", "eta_a", eta)
    check_in("[0, inf)", "c_n", c_n)
    check_in("(-inf, inf)", "phi", phi)
    return eme_density(PAIR, (0, 1), c_n, phi, etas)


def site_view(rho):
    """The factor of the link pair ``rho`` (modes L1, R1, L2, R2 of ``PAIR``)
    with axes (L1 L2, R1 R2 rank), once neither site's splitter pair has
    support above the cutoff."""
    L1, R1, L2, R2 = 0, 1, 2, 3
    # a number-basis phase keeps every number marginal and the L splitter leaves
    # (R1, R2) alone: the gate chain's splitters see the input pair's support
    fock._check_pair_support(rho, [(L1, L2), (R1, R2)], "beamsplitter")
    d = PAIR.mode_dim
    return rho.factor.reshape(d, d, d, d, -1).transpose(L1, L2, R1, R2, 4).reshape(d * d, -1)


def link_pair(c_n, phi, eta_a):
    """``site_view`` of the two lossy links (L1, R1) and (L2, R2) a
    correlation circuit reads."""
    pair = link(c_n, phi, (eta_a, eta_a))
    return site_view(fock.tensor(pair, pair))


def circuit_correlations(v, settings, dark_prob=0.0):
    """``correlation`` at each of ``settings`` on the site view ``v`` of
    ``link_pair``, one ``CorrelationResult`` per setting in order."""
    cutoff, d = PAIR.cutoff, PAIR.mode_dim
    # per setting and site (L, R), the phase e^{iψn} on the first mode and the
    # balanced splitter fused into one unitary on the site's d² pair index
    psi = np.array([(s.psi_left, s.psi_right) for s in settings])
    phases = np.exp(1j * psi[..., None] * np.repeat(np.arange(d), d))
    u = fock.beamsplitter_matrix(cutoff, math.pi / 4, 0.0) * phases[..., None, :]
    # one batched matmul per site
    out = u[:, 1, None] @ (u[:, 0] @ v).reshape(len(settings), d * d, d * d, -1)
    pops = (out.real ** 2 + out.imag ** 2).sum(axis=-1)   # (L1 L2, R1 R2) marginals
    # threshold POVMs are diagonal, so a pattern's probability is the number
    # marginal weighted by "detector i alone clicks"
    check_in("[0, 1]", "dark_prob", dark_prob)
    alone = fock.alone_weights(cutoff, dark_prob)
    results = []
    for probs in alone @ pops @ alone.T:
        p = {f"{i + 1}{j + 1}": float(probs[i, j]) for i in (0, 1) for j in (0, 1)}
        total = sum(p.values())
        if total < np.finfo(float).tiny:
            raise ValueError("no coincidences: correlation undefined")
        results.append(CorrelationResult(value=(p["11"] + p["22"] - p["12"] - p["21"]) / total,
                                         coincidence_prob=total, pattern_probs=p))
    return tuple(results)


def circuit_correlation(c_n, phi, setting, eta_a, dark_prob=0.0):
    return circuit_correlations(link_pair(c_n, phi, eta_a), (setting,), dark_prob)[0]


def teleport_response(c_n, phi, eta_a):
    """The teleport circuit on the link (c_n, phi, eta_a) as two tables over
    pairs (b, c) of the qubit's ``QUBIT_STATES``.  With S_b the output of the
    sender splitters on |b⟩ ⊗ link ⊗ link, summed over the sender index and
    the rank:

    - R[right, b c] = Σ (w_straight + w_crossed) S_b S̄_c, the accepted
      weight of each (R1, R2) number state;
    - F[kind, t, u, b c] = Σ w_kind S_b[t] S̄_c[u] on the target's single
      excitations t, u (``SINGLES``), for the straight (i = j) and the
      crossed (i ≠ j) patterns.

    A qubit with factor Q on those states enters through its Gram M = Q Q†,
    contracted with R and F by ``circuit_teleport``."""
    pair = fock.tensor(*[link(c_n, phi, (eta_a, 1.0))] * 2)   # sender halves lossy
    d, r = PAIR.mode_dim, pair.factor.shape[1]
    # the inputs |b⟩ ⊗ pair fill disjoint rows, so their sum has the support
    # of each: one read checks both sender splitters for all three
    joint = np.zeros((d * d, d ** 4, r), dtype=complex)
    joint[QUBIT_STATES] = pair.factor
    # modes I1, I2, L1, R1, L2, R2; the splitters act on (I1, L1) and (I2, L2)
    fock._check_pair_support(fock.DensityOperator.from_factor(
        fock.ModeLayout(6, PAIR.cutoff), joint.reshape(d ** 6, r)), [(0, 2), (1, 4)],
        "beamsplitter")

    # Group 1 detectors sit on the (I1, L1) splitter outputs x, group 2 on the
    # (I2, L2) outputs y.  Pattern (i, j) weighs them by alone[i] ⊗ alone[j],
    # so only the outputs where some detector clicks alone are formed.
    alone = fock.alone_weights(PAIR.cutoff)
    read = np.flatnonzero(alone.any(axis=0))
    n = len(read)
    # the splitter rows x on the inputs with i = 0, 1 photons in I: (i x, L)
    u = fock.beamsplitter_matrix(PAIR.cutoff, math.pi / 4, 0.0).reshape(d * d, d, d)
    u = u[read, :2].transpose(1, 0, 2).reshape(2 * n, d)
    # S[i2 y, i1 x, R1 R2, rank] = Σ u[i1 x, L1] u[i2 y, L2] pair[L1 R1 L2 R2, rank]
    s = (u @ pair.factor.reshape(d, -1)).reshape(2 * n, d, d, d * r)
    s = (u @ s.transpose(2, 0, 1, 3).reshape(d, -1)).reshape(2, n, 2, n, d * d, r)
    # rows (R1 R2, b) for the inputs b, columns (x, y, rank)
    i1, i2 = zip(*(divmod(b, d) for b in QUBIT_STATES))
    s = s[i2, :, i1].transpose(3, 0, 2, 1, 4).reshape(d * d, 3, n * n * r)
    # sender weights of the straight and the crossed patterns on (x, y, rank)
    a = alone[:, read]
    kinds = np.repeat(np.stack([a.T @ a, a.T @ a[::-1]]).reshape(2, -1), r, axis=1)
    right = (s * kinds.sum(axis=0)) @ s.conj().transpose(0, 2, 1)
    single = s[SINGLES].reshape(2 * 3, -1)
    fid = ((single * kinds[:, None]) @ single.conj().T).reshape(2, 2, 3, 2, 3)
    return right.reshape(d * d, 9), fid.transpose(0, 1, 3, 2, 4).reshape(2, 2, 2, 9)


def lossy_qubit(qubit, eta_a):
    """The qubit's factor on ``QUBIT_STATES`` after loss eta_a on both modes:
    loss only moves weight into the vacuum, so a vacuum and an excitation
    column."""
    amps = (qubit.d0, qubit.d1)
    vac = math.sqrt(sum((1.0 - eta_a) * abs(a) ** 2 for a in amps))
    return np.array([[vac, 0.0], [0.0, math.sqrt(eta_a) * amps[0]],
                     [0.0, math.sqrt(eta_a) * amps[1]]])


def circuit_teleport(qubit, c_n, eta_a, phi=0.0):
    """``teleport`` on the Fock circuit: ``teleport_response`` contracted
    with the lossy qubit's Gram.  Each pattern's p·w·f (probability,
    confirmation weight, fidelity) is the unnormalised overlap ‖ψ† V_ij‖²,
    so no conditional state is formed."""
    right, fid = teleport_response(c_n, phi, eta_a)
    q = lossy_qubit(qubit, eta_a)
    gram = (q @ q.conj().T).ravel()
    right = (right @ gram).real
    pattern_prob = float(right.sum())
    success_prob = float(right[SINGLES[0]] + right[SINGLES[1]])
    if success_prob < np.finfo(float).tiny:
        raise ValueError("no accepted click pattern has support")
    # the crossed patterns' π on R2 negates the target's |0,1⟩ amplitude
    psi = np.array([[qubit.d0, qubit.d1], [qubit.d0, -qubit.d1]])[:, :, None]
    fidelity_acc = float((psi.conj().transpose(0, 2, 1) @ (fid @ gram) @ psi).real.sum())
    return applications.TeleportResult(success_prob=success_prob,
                                       output_fidelity=fidelity_acc / success_prob,
                                       pattern_prob=pattern_prob,
                                       confirm_prob=success_prob / pattern_prob)


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
            got = circuit_correlations(link_pair(c_n, phi, eta_a), settings, dark_prob)
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
            site_view(rho)
        with pytest.raises(fock.TruncationError) as chain:
            gate_chain(rho, setting)
        assert str(batched.value) == str(chain.value)

    def test_alone_weights_are_memoised_and_read_only(self):
        alone = fock.alone_weights(2, 1e-3)
        assert fock.alone_weights(2, 1e-3) is alone
        with pytest.raises(ValueError, match="read-only"):
            alone[0, 0] = 1.0

    @pytest.mark.parametrize("dark_prob", [-0.1, 1.5])
    def test_dark_probability_outside_unit_interval_rejected(self, dark_prob):
        with pytest.raises(ValueError, match=re.escape(f"dark_prob = {dark_prob} outside [0, 1]")):
            correlation(0.0, 0.0, MeasurementSetting(0.0, 0.0), 1.0, dark_prob)

    def test_efficiency_outside_unit_interval_rejected(self):
        for eta_a in (0.0, 1.5, math.nan):
            for circuit in (
                    lambda: correlation(0.0, 0.0, MeasurementSetting(0.0, 0.0), eta_a),
                    lambda: chsh_value(0.0, 0.0, eta_a),
                    lambda: ekert_simulation(0.0, 0.0, eta_a, rounds=100, seed=1),
                    lambda: teleport(PolarizationQubit(1.0, 0.0), 0.0, eta_a)):
                with pytest.raises(ValueError,
                                   match=re.escape(f"eta_a = {eta_a} outside (0, 1]")):
                    circuit()


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

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 99999999999999999999999999])
    def test_seed_outside_64_bits_refused_before_any_draw(self, seed, monkeypatch):
        def no_draw(*args):
            raise AssertionError("generator built for a refused seed")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=re.escape(f"seed must fit in 64 bits, got {seed}")):
            ekert_simulation(0.2, 0.1, 0.8, rounds=1000, seed=seed)

    def test_largest_64_bit_seed_accepted(self):
        stats = ekert_simulation(0.2, 0.1, 0.8, rounds=1000, seed=2 ** 64 - 1)
        assert stats.seed == 2 ** 64 - 1

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

    @pytest.mark.parametrize("rounds", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 12_345])
    def test_block_edges_match_reference_sampler(self, monkeypatch, rounds):
        # the sampler draws and counts a block of rounds at a time, the
        # reference in one call per draw: both read one stream
        rng = np.random.default_rng(5)
        probs = {(a, b): list(rng.dirichlet(np.ones(5))[:4]) for a in (0, 1) for b in (0, 1)}
        table = outcome_table(probs)
        self.use_table(monkeypatch, probs)
        for seed in (1, 2, 2 ** 64 - 1):
            got = ekert_simulation(0.0, 0.0, 1.0, rounds=rounds, seed=seed)
            assert got == reference_key_stats(table, rounds, seed)

    @pytest.mark.parametrize("rounds", [1, 2, 3, BLOCK // 2 - 1, BLOCK // 2 + 1, BLOCK - 1,
                                        BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK + 1, 12_345])
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
    def test_settings_are_the_draws_of_two_integers_calls(self, rounds, seed):
        # the sampler reads the settings off raw words; the reference draws
        # them as the key run is defined, through Generator.integers
        algorithm = ("NumPy's Generator.integers(0, 2) no longer returns bit 31 of each "
                     "PCG64 32-bit half, low half first (Lemire's bounded multiply, "
                     "buffered_bounded_lemire_uint32): _key_cells must follow it")
        rng = np.random.default_rng(seed)
        cell = applications._key_cells(rng.bit_generator, rounds)
        ref = np.random.default_rng(seed)
        left = ref.integers(0, 2, size=rounds)
        right = ref.integers(0, 2, size=rounds)
        assert np.array_equal(cell, 2 * left + right), algorithm
        got, want = rng.bit_generator.state, ref.bit_generator.state
        assert ((got["state"], got["has_uint32"])
                == (want["state"], want["has_uint32"])), algorithm

    def test_settings_read_big_endian_words_alike(self):
        # a big-endian host's raw words: the same values, stored high byte first
        class BigEndianWords:
            def __init__(self, seed):
                self.bit_generator = np.random.default_rng(seed).bit_generator

            def random_raw(self, size):
                return self.bit_generator.random_raw(size).astype(">u8")

        rounds = 2 * BLOCK + 1
        assert np.array_equal(applications._key_cells(BigEndianWords(5), rounds),
                              applications._key_cells(np.random.default_rng(5).bit_generator,
                                                      rounds))

    def test_outcome_counts_a_tie_as_at_or_above(self):
        # zero-weight patterns give cells equal neighbouring thresholds; each
        # uniform sits on a threshold or one float either side of it
        table = [[0.1, 0.0, 0.2, 0.3], [0.25, 0.25, 0.0, 0.0],
                 [0.0, 0.0, 0.0, 0.5], [0.125, 0.125, 0.125, 0.125]]
        cum_t = np.cumsum(np.transpose(table), axis=0)
        cell, u = [], []
        for c in range(4):
            for t in cum_t[:, c]:
                for x in (0.0, np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)):
                    cell.append(c)
                    u.append(x)
        cell, u = np.array(cell, np.uint8), np.array(u)
        got = applications._outcomes(u, cell, cum_t)
        assert np.array_equal(got, sum(u >= row.take(cell) for row in cum_t))
        # cell 1 (thresholds 0.25, 0.5, 0.5, 0.5): at 0.5 every threshold is
        # passed, one float below it only the first
        assert got[(cell == 1) & (u == 0.5)].tolist() == [4] * 3
        assert got[(cell == 1) & (u == np.nextafter(0.5, 0.0))].tolist() == [1] * 3
        # cell 2 (0, 0, 0, 0.5): a uniform of 0 passes the three zero thresholds
        assert set(got[(cell == 2) & (u == 0.0)].tolist()) == {3}

    @pytest.mark.parametrize("field,value", [("rounds", 2.5), ("rounds", 100.0),
                                             ("rounds", True), ("rounds", np.float64(100)),
                                             ("seed", 1.5), ("seed", True),
                                             ("seed", np.True_)])
    def test_non_integer_rounds_or_seed_refused_by_name(self, field, value):
        args = {"rounds": 100, "seed": 1, field: value}
        with pytest.raises(ValueError,
                           match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            ekert_simulation(0.2, 0.1, 0.8, **args)

    def test_numpy_integers_taken_as_ints(self):
        got = ekert_simulation(0.2, 0.1, 0.8, rounds=np.int64(100), seed=np.uint64(7))
        assert got == ekert_simulation(0.2, 0.1, 0.8, rounds=100, seed=7)
        assert [type(x) for x in got] == [int, int, float, float, int]

    @pytest.mark.parametrize("eta_a", [0.5, 1.0])
    def test_peak_memory_is_about_a_byte_a_round(self, eta_a):
        # the cell is one byte a round and a block's temporaries a fixed
        # allowance, the bound of the memory check; eta_a = 1 gives the
        # largest coincidence weight, so the most candidate rounds
        rounds = 10 ** 6
        ekert_simulation(0.0, 0.0, eta_a, rounds=1000, seed=3)   # imports and caches
        tracemalloc.start()
        try:
            ekert_simulation(0.0, 0.0, eta_a, rounds=rounds, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * rounds + 64 * BLOCK

    @staticmethod
    def use_table(monkeypatch, probs):
        """Make every setting of the sampler read its patterns from ``probs``."""
        monkeypatch.setattr(applications, "_key_table", lambda c_n, phi, eta_a: [
            list(probs[a, b]) for a in (0, 1) for b in (0, 1)])


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
        (math.nan, 0.0, "c_n = nan outside [0, inf)"),
        (math.inf, 0.0, "c_n = inf outside [0, inf)"),
        (-0.5, 0.0, "c_n = -0.5 outside [0, inf)"),
        (1.0, math.nan, "phi = nan outside (-inf, inf)"),
        (1.0, math.inf, "phi = inf outside (-inf, inf)"),
        (1.0, -math.inf, "phi = -inf outside (-inf, inf)"),
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

    @pytest.mark.parametrize("d0,d1,reason", [
        (math.nan, 0.0, "d0 = nan outside (-inf, inf)"),
        (1.0, complex(0.0, math.nan), "d1 = nan outside (-inf, inf)"),
        (math.inf, 0.0, "d0 = inf outside (-inf, inf)")])
    def test_non_finite_amplitudes_rejected(self, d0, d1, reason):
        with pytest.raises(ValueError, match=re.escape(reason)):
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
    """The closed-form lossy inputs (``eme_density`` with ``etas``, and the
    test circuits' ``lossy_qubit``) against the ``fock.apply_loss`` Kraus chain."""

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
        got = link(c_n, phi, etas)
        assert got.factor.shape[1] <= 2
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-15

    @pytest.mark.parametrize("eta", [1.0, 0.6, 1e-3])
    def test_qubit_matches_kraus_chain(self, eta):
        q = PolarizationQubit.from_bloch(1.1, 0.4)
        want = fock.pure_state(fock.ModeLayout(2, 2), {(1, 0): q.d0, (0, 1): q.d1},
                               normalize=False).to_density()
        for mode in (0, 1):
            want = fock.apply_loss(want, mode, eta)
        factor = np.zeros((PAIR.dim, 2), dtype=complex)
        factor[QUBIT_STATES] = lossy_qubit(q, eta)
        got = fock.DensityOperator.from_factor(PAIR, factor)
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-15

    @pytest.mark.parametrize("cutoff", [1, 2, 4])
    def test_link_at_any_cutoff_matches_kraus_chain(self, cutoff):
        # the swap oracle's links, at the oracle's own cutoff
        layout = fock.ModeLayout(2, cutoff)
        for c, phi, etas in ((0.0, 0.3, (1.0, 0.4)), (1.7, 2.9, (0.8, 1.0))):
            want = eme_density(layout, (0, 1), c, phi)
            for mode, eta in enumerate(etas):
                want = fock.apply_loss(want, mode, eta)
            got = eme_density(layout, (0, 1), c, phi, etas)
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


class TestClosedFormsMatchCircuits:
    """Each closed form against its Fock circuit, to 1e-12 relative: the
    coincidence patterns with dark counts, independent of the link phase,
    and the teleport figures, independent of the qubit."""

    DARK = (0.0, 1e-5, 1e-3, 0.2, 0.9)
    KEY_SETTINGS = [MeasurementSetting(a, b) for a in (0.0, math.pi / 2)
                    for b in (0.0, math.pi / 2)]
    # the links of ``TestRefusalGrid``, at its link phase 0.4
    GRID = [(c_n, eta_a) for c_n in (0.0, 1.0, 1e16, 1e300)
            for eta_a in (1.0, 0.5, 1e-16, 1e-160, 1e-300, 5e-324)]

    @staticmethod
    def random_link(rng):
        return rng.uniform(0, 20), rng.uniform(0, 2 * math.pi), rng.uniform(0.01, 1)

    @staticmethod
    def assert_same_patterns(got, want):
        total = want.coincidence_prob
        assert abs(got.coincidence_prob - total) <= 1e-12 * total
        assert got.pattern_probs.keys() == want.pattern_probs.keys()
        for k, p in want.pattern_probs.items():
            assert abs(got.pattern_probs[k] - p) <= 1e-12 * total
        assert abs(got.value - want.value) <= 1e-12

    @pytest.mark.parametrize("dark_prob", DARK)
    def test_correlation(self, dark_prob):
        rng = np.random.default_rng(5113)
        for _ in range(40):
            c_n, phi, eta_a = self.random_link(rng)
            setting = MeasurementSetting(*rng.uniform(-math.pi, 2 * math.pi, size=2))
            got = correlation(c_n, phi, setting, eta_a, dark_prob)
            # the link phase cancels between the two links
            for phase in (phi, rng.uniform(0, 2 * math.pi)):
                self.assert_same_patterns(
                    got, circuit_correlation(c_n, phase, setting, eta_a, dark_prob))

    def test_chsh_correlations_and_key_table(self):
        rng = np.random.default_rng(5114)
        chsh = [MeasurementSetting(a, b) for a, b in CHSH_SETTINGS]
        for c_n, phi, eta_a in [(0.0, 0.0, 1.0)] + [self.random_link(rng) for _ in range(20)]:
            view = link_pair(c_n, phi, eta_a)
            for got, want in zip(chsh_correlations(c_n, phi, eta_a),
                                 circuit_correlations(view, chsh), strict=True):
                self.assert_same_patterns(got, want)
            for row, want in zip(applications._key_table(c_n, phi, eta_a),
                                 circuit_correlations(view, self.KEY_SETTINGS), strict=True):
                total = want.coincidence_prob
                for p, q in zip(row, want.pattern_probs.values(), strict=True):
                    assert abs(p - q) <= 1e-12 * total

    def test_teleport(self):
        rng = np.random.default_rng(5115)
        links = [(0.0, 0.0, 1.0), (1.0, 0.3, 1.0)] + [self.random_link(rng) for _ in range(40)]
        for c_n, phi, eta_a in links:
            qubits = [PolarizationQubit.from_bloch(*rng.uniform(0, 2 * math.pi, size=2))
                      for _ in range(2)]
            got = teleport(qubits[0], c_n, eta_a, phi=phi)
            # neither the qubit nor the link phase changes a figure
            for qubit, phase in zip(qubits, (phi, rng.uniform(0, 2 * math.pi))):
                want = circuit_teleport(qubit, c_n, eta_a, phi=phase)
                for field in ("success_prob", "output_fidelity", "pattern_prob",
                              "confirm_prob"):
                    assert getattr(got, field) == pytest.approx(getattr(want, field),
                                                                rel=1e-12)

    @pytest.mark.parametrize("c_n,eta_a", GRID)
    def test_key_stats_equal_circuit_table(self, monkeypatch, c_n, eta_a):
        def runs():
            try:
                return [repr(ekert_simulation(c_n, 0.4, eta_a, rounds=20_000, seed=seed))
                        for seed in range(20)]
            except ValueError as exc:
                return str(exc)

        got = runs()
        monkeypatch.setattr(applications, "_key_table", lambda *link: [
            list(res.pattern_probs.values())
            for res in circuit_correlations(link_pair(*link), self.KEY_SETTINGS)])
        assert got == runs()


class TestRefusalOrder:
    """Given several bad inputs, the closed forms and the circuits refuse
    the first of: the efficiency, the link, the dark-count probability, a
    weight below the smallest normal float."""

    @pytest.mark.parametrize("c_n,phi,eta_a,dark_prob,reason", [
        (-1.0, math.nan, 0.0, math.nan, "eta_a = 0.0 outside (0, 1]"),
        (-1.0, 0.4, 1.5, 2.0, "eta_a = 1.5 outside (0, 1]"),
        (math.nan, 0.4, math.nan, 0.0, "eta_a = nan outside (0, 1]"),
        (-0.5, math.nan, 0.5, -1.0, "c_n = -0.5 outside [0, inf)"),
        (1.0, math.inf, 0.5, math.nan, "phi = inf outside (-inf, inf)"),
        (1.0, 0.4, 1e-160, math.nan, "dark_prob = nan outside [0, 1]"),
        (1.0, 0.4, 1e-160, 1.5, "dark_prob = 1.5 outside [0, 1]"),
        (1.0, 0.4, 1e-160, 0.0, "no coincidences: correlation undefined"),
        (1.0, 0.4, 0.5, 1.0, "no coincidences: correlation undefined"),
    ])
    def test_correlation(self, c_n, phi, eta_a, dark_prob, reason):
        setting = MeasurementSetting(0.3, 1.1)
        for circuit in (correlation, circuit_correlation):
            with pytest.raises(ValueError) as exc:
                circuit(c_n, phi, setting, eta_a, dark_prob)
            assert type(exc.value) is ValueError
            assert str(exc.value) == reason

    @pytest.mark.parametrize("c_n,phi,eta_a,reason", [
        (-1.0, math.nan, 0.0, "eta_a = 0.0 outside (0, 1]"),
        (-0.5, math.nan, 0.5, "c_n = -0.5 outside [0, inf)"),
        (0.5, math.nan, 1e-160, "phi = nan outside (-inf, inf)"),
        (0.0, 0.4, 1e-160, "no accepted click pattern has support"),
        (1e300, 0.4, 0.5, "no accepted click pattern has support"),
    ])
    def test_teleport(self, c_n, phi, eta_a, reason):
        qubit = PolarizationQubit.from_bloch(1.1, 0.4)
        for circuit in (teleport, circuit_teleport):
            with pytest.raises(ValueError) as exc:
                circuit(qubit, c_n, eta_a, phi=phi)
            assert type(exc.value) is ValueError
            assert str(exc.value) == reason


def test_module_imports_neither_fock_nor_numpy():
    # outside a function body an import runs with the module: the closed
    # forms need neither, and the key run imports NumPy when it samples
    with open(applications.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        todo.extend(ast.iter_child_nodes(node))
    assert imported and not {"fock", "numpy"} & {name.split(".")[0] for name in imported}
