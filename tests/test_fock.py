import math

import numpy as np
import pytest
from scipy.linalg import expm

from repeatersim import fock
from repeatersim.fock import (
    DensityOperator,
    DetectorModel,
    ModeLayout,
    TruncationError,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    apply_two_mode_squeeze,
    fidelity,
    measure_detector,
    number_state,
    partial_trace,
    pure_state,
    vacuum,
)


def annihilator(layout, mode):
    d = layout.mode_dim
    a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    mats = [np.eye(d, dtype=complex)] * layout.modes
    mats[mode] = a
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def random_density(layout, rng):
    d = layout.dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityOperator(layout, m / np.trace(m))


def bs_expm_oracle(layout, i, j, theta, phase):
    """Independent beamsplitter unitary from direct matrix exponentiation."""
    ai = annihilator(layout, i)
    aj = annihilator(layout, j)
    gen = theta * (np.exp(1j * phase) * aj.conj().T @ ai - np.exp(-1j * phase) * ai.conj().T @ aj)
    return expm(gen)


class TestLayout:
    def test_dimension(self):
        assert ModeLayout(2, 1).dim == 4
        assert ModeLayout(3, 2).dim == 27

    def test_dimension_bound(self):
        with pytest.raises(ValueError, match="exceeds bound"):
            ModeLayout(9, 4, max_dim=10**6)
        with pytest.raises(ValueError, match="exceeds bound"):
            ModeLayout(4, 3, max_dim=100)

    def test_index_roundtrip(self):
        layout = ModeLayout(3, 2)
        for k, occ in enumerate(layout.occupations()):
            assert layout.index(occ) == k


class TestVacuum:
    def test_single_mode(self):
        rho = vacuum(ModeLayout(1, 2))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0, 0.0]))

    def test_two_modes(self):
        rho = vacuum(ModeLayout(2, 1))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rho.matrix, expected)
        assert rho.trace() == pytest.approx(1.0)


class TestBeamsplitter:
    def test_single_photon_balanced(self):
        layout = ModeLayout(2, 2)
        rho = number_state(layout, (1, 0)).to_density()
        out = apply_beamsplitter(rho, 0, 1, math.pi / 4, 0.0)
        target = pure_state(layout, {(1, 0): 1, (0, 1): 1})
        assert fidelity(out, target) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_invariant(self):
        layout = ModeLayout(2, 2)
        rho = vacuum(layout)
        for theta, phase in [(0.3, 0.0), (math.pi / 4, 1.1), (1.2, -0.4)]:
            out = apply_beamsplitter(rho, 0, 1, theta, phase)
            assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_hong_ou_mandel(self):
        # expected state frozen from the two-mode matrix-exponential oracle
        layout = ModeLayout(2, 2)
        rho = number_state(layout, (1, 1)).to_density()
        out = apply_beamsplitter(rho, 0, 1, math.pi / 4, 0.0)
        hom = pure_state(layout, {(2, 0): 1, (0, 2): -1})
        assert fidelity(out, hom) == pytest.approx(1.0, abs=1e-10)
        assert out.population((1, 1)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta,phase", [(0.4, 0.0), (math.pi / 4, 0.7), (1.1, -2.0)])
    def test_matches_expm_oracle(self, theta, phase):
        layout = ModeLayout(2, 3)
        rng = np.random.default_rng(5)
        v = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        # restrict support to total photon number <= cutoff so truncation is exact
        for k, occ in enumerate(layout.occupations()):
            if sum(occ) > layout.cutoff:
                v[k] = 0.0
        v /= np.linalg.norm(v)
        rho = DensityOperator(layout, np.outer(v, v.conj()))
        out = apply_beamsplitter(rho, 0, 1, theta, phase)
        u = bs_expm_oracle(layout, 0, 1, theta, phase)
        expected = u @ rho.matrix @ u.conj().T
        assert np.max(np.abs(out.matrix - expected)) < 1e-10

    def test_inverse_composition(self):
        layout = ModeLayout(2, 3)
        rng = np.random.default_rng(7)
        rho = random_density(layout, rng)
        # project away support above the pair cutoff
        keep = np.array([1.0 if sum(occ) <= layout.cutoff else 0.0
                         for occ in layout.occupations()])
        m = rho.matrix * np.outer(keep, keep)
        rho = DensityOperator(layout, m / np.trace(m))
        out = apply_beamsplitter(rho, 0, 1, 0.6, 0.9)
        back = apply_beamsplitter(out, 0, 1, -0.6, 0.9)
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10

    def test_cutoff_overflow_rejected(self):
        layout = ModeLayout(2, 2)
        rho = number_state(layout, (2, 1)).to_density()
        with pytest.raises(TruncationError):
            apply_beamsplitter(rho, 0, 1)

    def test_trace_and_purity_preserved(self):
        layout = ModeLayout(3, 2)
        psi = pure_state(layout, {(1, 0, 0): 1, (0, 1, 0): 0.5j, (0, 0, 1): -0.3})
        rho = psi.to_density()
        out = apply_beamsplitter(rho, 0, 2, 0.8, 0.2)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)
        assert out.purity() == pytest.approx(1.0, abs=1e-10)


class TestPhase:
    def test_zero_is_identity(self):
        layout = ModeLayout(2, 2)
        psi = pure_state(layout, {(1, 0): 1, (0, 1): 1j})
        out = apply_phase(psi.to_density(), 0, 0.0)
        assert np.allclose(out.matrix, psi.to_density().matrix)

    def test_pi_flips_single_photon(self):
        layout = ModeLayout(2, 2)
        plus = pure_state(layout, {(1, 0): 1, (0, 1): 1})
        minus = pure_state(layout, {(1, 0): -1, (0, 1): 1})
        out = apply_phase(plus.to_density(), 0, math.pi)
        assert fidelity(out, minus) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_state_invariant(self):
        layout = ModeLayout(1, 3)
        rho = DensityOperator(layout, np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        for psi in [0.3, 1.0, math.pi]:
            out = apply_phase(rho, 0, psi)
            assert np.allclose(out.matrix, rho.matrix, atol=1e-14)


class TestTwoModeSqueeze:
    def test_zero_identity(self):
        layout = ModeLayout(2, 3)
        rho = vacuum(layout)
        out = apply_two_mode_squeeze(rho, 0, 1, 0.0)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_pair_probabilities(self):
        # P(n, n) = tanh^{2n} r / cosh^2 r, frozen from the printed series
        r = math.atanh(math.sqrt(0.01))
        layout = ModeLayout(2, 5)
        out = apply_two_mode_squeeze(vacuum(layout), 0, 1, r)
        assert out.population((0, 0)) == pytest.approx(0.99, abs=1e-8)
        assert out.population((1, 1)) == pytest.approx(0.0099, abs=1e-8)
        for n in range(layout.cutoff - 1):
            expected = math.tanh(r) ** (2 * n) / math.cosh(r) ** 2
            assert out.population((n, n)) == pytest.approx(expected, abs=1e-8)

    def test_mean_photon_number(self):
        # series oracle: <n> = sum n tanh^{2n} r / cosh^2 r = sinh^2 r
        r = 0.18
        layout = ModeLayout(2, 6)
        out = apply_two_mode_squeeze(vacuum(layout), 0, 1, r)
        series = sum(n * math.tanh(r) ** (2 * n) / math.cosh(r) ** 2
                     for n in range(200))
        assert series == pytest.approx(math.sinh(r) ** 2, abs=1e-12)
        assert out.mean_photon(0) == pytest.approx(series, abs=1e-8)
        assert out.mean_photon(1) == pytest.approx(series, abs=1e-8)

    def test_truncation_guard(self):
        layout = ModeLayout(2, 2)
        with pytest.raises(TruncationError):
            apply_two_mode_squeeze(vacuum(layout), 0, 1, 1.5, trunc_tol=1e-6)


class TestLoss:
    def test_identity_at_unit_transmission(self):
        layout = ModeLayout(1, 2)
        rho = number_state(layout, (2,)).to_density()
        out = apply_loss(rho, 0, 1.0)
        assert np.allclose(out.matrix, rho.matrix)

    def test_single_photon(self):
        layout = ModeLayout(1, 2)
        rho = number_state(layout, (1,)).to_density()
        out = apply_loss(rho, 0, 0.3)
        assert out.population((1,)) == pytest.approx(0.3, abs=1e-14)
        assert out.population((0,)) == pytest.approx(0.7, abs=1e-14)

    def test_two_photon_binomial_vs_dilation_oracle(self):
        # oracle: dilation with an explicit environment mode and a beamsplitter
        eta = 0.37
        layout = ModeLayout(2, 2)
        rho = number_state(layout, (2, 0)).to_density()
        theta = math.acos(math.sqrt(eta))
        dilated = apply_beamsplitter(rho, 0, 1, theta, 0.0)
        oracle = partial_trace(dilated, [1])
        direct = apply_loss(number_state(ModeLayout(1, 2), (2,)).to_density(), 0, eta)
        assert np.max(np.abs(oracle.matrix - direct.matrix)) < 1e-12
        assert direct.population((2,)) == pytest.approx(eta**2, abs=1e-12)
        assert direct.population((1,)) == pytest.approx(2 * eta * (1 - eta), abs=1e-12)
        assert direct.population((0,)) == pytest.approx((1 - eta) ** 2, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.8, 1.0])
    def test_mean_photon_scaling(self, eta):
        layout = ModeLayout(1, 3)
        rho = DensityOperator(layout, np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
        out = apply_loss(rho, 0, eta)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)
        assert out.mean_photon(0) == pytest.approx(eta * rho.mean_photon(0), abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            apply_loss(vacuum(ModeLayout(1, 1)), 0, 1.2)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_each_mode_matches_embedded_kraus_sum(self, mode):
        layout = ModeLayout(3, 2)
        rho = random_density(layout, np.random.default_rng(mode))
        eye = np.eye(layout.mode_dim)
        oracle = np.zeros_like(rho.matrix)
        for k in fock.loss_kraus(layout.cutoff, 0.37):
            mats = [eye] * layout.modes
            mats[mode] = k
            full = np.kron(np.kron(mats[0], mats[1]), mats[2])
            oracle += full @ rho.matrix @ full.conj().T
        out = apply_loss(rho, mode, 0.37)
        assert np.max(np.abs(out.matrix - oracle)) < 1e-14


class TestDetector:
    def test_vacuum_never_clicks_without_dark(self):
        layout = ModeLayout(2, 2)
        rho = vacuum(layout)
        det = DetectorModel(efficiency=0.9, dark_count_prob=0.0)
        prob, _ = measure_detector(rho, 0, det, "no_click")
        assert prob == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(ValueError, match="impossible-outcome"):
            measure_detector(rho, 0, det, "click")

    def test_single_photon_efficiency(self):
        layout = ModeLayout(2, 2)
        rho = number_state(layout, (1, 0)).to_density()
        det = DetectorModel(efficiency=0.4)
        prob, post = measure_detector(rho, 0, det, "click")
        assert prob == pytest.approx(0.4, abs=1e-14)
        assert post.layout.modes == 1

    def test_dark_count_on_vacuum(self):
        layout = ModeLayout(2, 2)
        det = DetectorModel(efficiency=0.5, dark_count_prob=1e-5)
        prob, _ = measure_detector(vacuum(layout), 0, det, "click")
        assert prob == pytest.approx(1e-5, rel=1e-12)

    def test_povm_completeness(self):
        det = DetectorModel(efficiency=0.37, dark_count_prob=0.02)
        w_no = det.no_click_weights(4)
        w_click = 1.0 - w_no
        assert np.allclose(w_no + w_click, 1.0, atol=1e-15)

    @pytest.mark.parametrize("eta,pdc", [(0.1, 0.0), (0.65, 1e-4), (1.0, 0.3)])
    def test_outcome_probabilities_sum_to_one(self, eta, pdc):
        rng = np.random.default_rng(11)
        layout = ModeLayout(2, 3)
        rho = random_density(layout, rng)
        det = DetectorModel(efficiency=eta, dark_count_prob=pdc)
        total = 0.0
        for outcome in ("click", "no_click"):
            try:
                p, _ = measure_detector(rho, 1, det, outcome)
            except ValueError:
                p = 0.0
            total += p
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_resolving_counts(self):
        layout = ModeLayout(2, 2)
        rho = number_state(layout, (2, 0)).to_density()
        det = DetectorModel(efficiency=0.6, resolving=True)
        p1, _ = measure_detector(rho, 0, det, 1)
        assert p1 == pytest.approx(2 * 0.6 * 0.4, abs=1e-14)
        p2, _ = measure_detector(rho, 0, det, 2)
        assert p2 == pytest.approx(0.36, abs=1e-14)

    def test_resolving_rejects_dark_counts(self):
        with pytest.raises(ValueError):
            DetectorModel(efficiency=1.0, dark_count_prob=0.1, resolving=True)


class TestPartialTrace:
    def test_traced_vacuum_mode_is_neutral(self):
        layout = ModeLayout(3, 1)
        psi = pure_state(layout, {(1, 0, 0): 1, (0, 1, 0): 1j})
        reduced = partial_trace(psi.to_density(), [2])
        expected = pure_state(ModeLayout(2, 1), {(1, 0): 1, (0, 1): 1j}).to_density()
        assert np.max(np.abs(reduced.matrix - expected.matrix)) < 1e-14

    def test_bell_marginal(self):
        layout = ModeLayout(2, 1)
        psi = pure_state(layout, {(1, 0): 1, (0, 1): 1})
        reduced = partial_trace(psi.to_density(), [1])
        assert np.allclose(reduced.matrix, np.diag([0.5, 0.5]), atol=1e-14)

    def test_full_trace_is_one(self):
        rng = np.random.default_rng(3)
        rho = random_density(ModeLayout(2, 2), rng)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            partial_trace(rho, [0, 1])

    def test_trace_preserved(self):
        rng = np.random.default_rng(13)
        rho = random_density(ModeLayout(3, 1), rng)
        assert partial_trace(rho, [1]).trace() == pytest.approx(rho.trace(), abs=1e-12)


class TestFidelity:
    def test_pure_state_self_fidelity(self):
        layout = ModeLayout(2, 2)
        psi = pure_state(layout, {(1, 0): 1, (0, 2): 0.4j})
        assert fidelity(psi.to_density(), psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        layout = ModeLayout(1, 2)
        assert fidelity(vacuum(layout), number_state(layout, (1,))) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_mixture(self):
        layout = ModeLayout(1, 1)
        rho = DensityOperator(layout, np.diag([0.7, 0.3]).astype(complex))
        assert fidelity(rho, number_state(layout, (0,))) == pytest.approx(0.7)

    def test_layout_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(vacuum(ModeLayout(1, 2)), number_state(ModeLayout(1, 3), (0,)))


class TestUnitaryInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_and_purity(self, seed):
        rng = np.random.default_rng(seed)
        layout = ModeLayout(2, 3)
        v = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        for k, occ in enumerate(layout.occupations()):
            if sum(occ) > layout.cutoff:
                v[k] = 0.0
        v /= np.linalg.norm(v)
        rho = DensityOperator(layout, np.outer(v, v.conj()))
        theta, phase, psi = rng.uniform(0, 1.2), rng.uniform(-2, 2), rng.uniform(0, 6)
        for out in (apply_beamsplitter(rho, 0, 1, theta, phase),
                    apply_phase(rho, 0, psi)):
            assert out.trace() == pytest.approx(1.0, abs=1e-12)
            assert out.purity() == pytest.approx(1.0, abs=1e-10)
            fock.assert_physical(out)
