import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def embedded_pair_unitary(layout, op2, i, j):
    """``op2`` (mode order (i, j)) on the full space: ``np.kron`` with the
    identity on the other modes, rows and columns permuted to mode order."""
    rest = [m for m in range(layout.modes) if m not in (i, j)]
    full = np.kron(op2, np.eye(layout.mode_dim ** len(rest)))
    idx = [layout.index((occ[i], occ[j], *(occ[m] for m in rest)))
           for occ in layout.occupations()]
    return full[np.ix_(idx, idx)]


def squeeze_pair_matrix(cutoff, r):
    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    a1, a2 = np.kron(a, np.eye(d)), np.kron(np.eye(d), a)
    return expm(r * (a1.conj().T @ a2.conj().T - a1 @ a2))


ORDERED_PAIRS = [(i, j) for i in range(4) for j in range(4) if i != j]


class TestTwoModeGatesOnEveryPair:
    """Both two-mode gates on every ordered pair of a random 4-mode state
    against the explicit full-space U rho U^dagger."""

    @pytest.mark.parametrize("i,j", ORDERED_PAIRS)
    def test_beamsplitter(self, i, j):
        layout = ModeLayout(4, 2)
        rng = np.random.default_rng(10 * i + j)
        v = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        # total photon number <= cutoff, so every pair passes the support check
        for k, occ in enumerate(layout.occupations()):
            if sum(occ) > layout.cutoff:
                v[k] = 0.0
        v /= np.linalg.norm(v)
        rho = DensityOperator(layout, np.outer(v, v.conj()))
        u = embedded_pair_unitary(layout, fock.beamsplitter_matrix(2, 0.7, 0.3), i, j)
        out = apply_beamsplitter(rho, i, j, 0.7, 0.3)
        assert np.max(np.abs(out.matrix - u @ rho.matrix @ u.conj().T)) < 1e-14

    @pytest.mark.parametrize("i,j", ORDERED_PAIRS)
    def test_two_mode_squeeze(self, i, j):
        layout = ModeLayout(4, 2)
        rho = random_density(layout, np.random.default_rng(10 * i + j))
        u = embedded_pair_unitary(layout, squeeze_pair_matrix(2, 0.05), i, j)
        out = apply_two_mode_squeeze(rho, i, j, 0.05)
        assert np.max(np.abs(out.matrix - u @ rho.matrix @ u.conj().T)) < 1e-14


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

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_is_refused(self, r):
        # a loose tolerance, so only the finiteness guard can refuse
        with pytest.raises(ValueError, match=f"squeeze parameter r = {r} must be finite"):
            apply_two_mode_squeeze(vacuum(ModeLayout(2, 2)), 0, 1, r, trunc_tol=2.0)


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

    def test_impossible_outcome_raises_its_own_value_error(self):
        rho = vacuum(ModeLayout(2, 2))
        with pytest.raises(fock.ImpossibleOutcomeError):
            measure_detector(rho, 0, DetectorModel(), "click")
        assert issubclass(fock.ImpossibleOutcomeError, ValueError)

    def test_condition_floor_applies_to_the_joint_probability(self):
        # two modes each click with probability about 1e-8: every step of the
        # chain passes the 1e-15 floor, the joint outcome does not
        layout = ModeLayout(3, 1)
        amps = {occ: 1e-4 ** (occ[0] + occ[1]) for occ in layout.occupations() if occ[2] == 0}
        rho = pure_state(layout, amps).to_density()
        click = 1.0 - DetectorModel().no_click_weights(1)
        p1, cond = measure_detector(rho, 1, DetectorModel(), "click")
        p0, _ = measure_detector(cond, 0, DetectorModel(), "click")
        assert p0 * p1 == pytest.approx(1e-16, rel=1e-7)
        with pytest.raises(fock.ImpossibleOutcomeError, match="impossible-outcome"):
            fock.condition(rho, {0: click, 1: click})

    def test_condition_on_every_mode_refused(self):
        rho = vacuum(ModeLayout(2, 2))
        no_click = DetectorModel().no_click_weights(2)
        with pytest.raises(ValueError, match="conditioning every remaining mode"):
            fock.condition(rho, {0: no_click, 1: no_click})
        with pytest.raises(ValueError, match="conditioning every remaining mode"):
            measure_detector(vacuum(ModeLayout(1, 2)), 0, DetectorModel(), "no_click")

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


class TestMarginal:
    def test_axes_follow_the_given_mode_order(self):
        rng = np.random.default_rng(29)
        layout = ModeLayout(3, 2)
        rho = random_density(layout, rng)
        diag = np.real(np.diag(rho.matrix)).reshape(3, 3, 3)
        expected = {(0, 1, 2): diag, (2, 0, 1): diag.transpose(2, 0, 1),
                    (1, 2): diag.sum(axis=0), (2, 0): diag.sum(axis=1).T,
                    (1,): diag.sum(axis=(0, 2))}
        for modes, want in expected.items():
            assert np.max(np.abs(fock.marginal(rho, modes) - want)) < 1e-14

    @pytest.mark.parametrize("modes", [(0, 0), (3,), (-1,), (0, 1, 2, 3)])
    def test_rejects_modes_outside_the_layout_or_repeated(self, modes):
        rho = vacuum(ModeLayout(3, 1))
        with pytest.raises(ValueError, match="not distinct modes"):
            fock.marginal(rho, modes)


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


# ---------------------------------------------------------------------------
# dense oracle for the factored engine: the dense density-matrix gate code
# the library used before it held rho as V V^dagger, kept here as reference


def dense_sandwich_two_mode(mat, op2, layout, i, j):
    """``op2`` (mode order (i, j)) applied to a dense matrix as two batched
    matmuls: ``op2`` on the ket axes, ``op2^dagger`` on the bra axes."""
    d, n, dim = layout.mode_dim, layout.modes, layout.dim
    if i > j:
        op2 = op2.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
        i, j = j, i
    perm = [m for m in range(n) if m not in (i, j)] + [i, j]
    inv = list(np.argsort(perm))
    ket = mat.reshape([d] * n + [dim]).transpose(perm + [n])
    ket = op2 @ ket.reshape(-1, d * d, dim)
    bra = ket.reshape([d] * n + [d] * n).transpose(inv + [n + m for m in perm])
    out = bra.reshape(dim, -1, d * d) @ op2.conj().T
    out = out.reshape([d] * n + [d] * n).transpose(list(range(n)) + [n + m for m in inv])
    return out.reshape(dim, dim)


def split_shape(layout, mode):
    d = layout.mode_dim
    return d ** mode, d, d ** (layout.modes - mode - 1)


def dense_loss(mat, layout, i, eta):
    """Pure loss as one strided multiply-add per Kraus term."""
    pre, d, post = split_shape(layout, i)
    t = mat.reshape(pre, d, post, pre, d, post)
    out = np.empty_like(t)
    for k, op in enumerate(fock.loss_kraus(layout.cutoff, eta)):
        a = np.diagonal(op, k)
        term = t[:, k:, :, :, k:, :] * a[:, None, None, None, None]
        term *= a.conj()[:, None]
        if k == 0:
            out[...] = term
        else:
            out[:, :d - k, :, :, :d - k, :] += term
    return out.reshape(layout.dim, layout.dim)


def dense_measure(mat, layout, i, weights):
    """``(probability, normalized post state)`` of a diagonal POVM element."""
    pre, d, post = split_shape(layout, i)
    t = mat.reshape(pre, d, post, pre, d, post)
    out = np.einsum("n,pnqrns->pqrs", weights.astype(complex), t, optimize=True)
    out = out.reshape(pre * post, pre * post)
    prob = float(np.real(np.trace(out)))
    return prob, out / prob


def dense_partial_trace(mat, layout, modes):
    d, n = layout.mode_dim, layout.modes
    letters = "abcdefghijklmnopqrstuvwx"
    ket, bra = list(letters[:n]), list(letters[n: 2 * n])
    for m in modes:
        bra[m] = ket[m]
    keep = [m for m in range(n) if m not in modes]
    expr = "".join(ket + bra) + "->" + "".join([ket[m] for m in keep] + [bra[m] for m in keep])
    k = len(keep)
    return np.einsum(expr, mat.reshape([d] * (2 * n))).reshape(d ** k, d ** k)


def embedded_one_mode(layout, op, mode):
    mats = [np.eye(layout.mode_dim, dtype=complex)] * layout.modes
    mats[mode] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


THRESHOLD = DetectorModel(efficiency=0.6, dark_count_prob=0.01)
RESOLVING = DetectorModel(efficiency=0.8, resolving=True)
ORACLE_LAYOUTS = [ModeLayout(3, 2), ModeLayout(4, 2), ModeLayout(5, 1), ModeLayout(6, 1)]
RANKS = ["pure", "rank2", "full"]


def random_state(layout, rank, seed, pair_safe=False):
    """Random pure, rank-2 or full-rank state; ``pair_safe`` confines it to
    total photon number <= cutoff, so every beamsplitter passes its check
    (full rank then means full rank on that subspace)."""
    rng = np.random.default_rng(seed)
    mask = np.array([sum(occ) <= layout.cutoff or not pair_safe
                     for occ in layout.occupations()])
    cols = {"pure": 1, "rank2": 2, "full": int(mask.sum())}[rank]
    g = rng.normal(size=(layout.dim, cols)) + 1j * rng.normal(size=(layout.dim, cols))
    g[~mask] = 0.0
    if rank == "full":
        m = g @ g.conj().T
        return DensityOperator(layout, m / np.trace(m))
    return DensityOperator.from_factor(layout, g / np.linalg.norm(g))


def ordered_pairs(layout):
    return [(i, j) for i in range(layout.modes) for j in range(layout.modes) if i != j]


def assert_rank_bounded(rho):
    assert rho.factor.shape[1] <= rho.layout.dim


@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("layout", ORACLE_LAYOUTS, ids=lambda l: f"{l.modes}x{l.cutoff}")
class TestFactoredEngineAgainstDenseOracle:
    """Every gate of the factored engine against the dense oracle to 1e-14,
    on every mode or ordered mode pair of random 3-6-mode states."""

    def test_beamsplitter(self, layout, rank):
        rho = random_state(layout, rank, layout.modes, pair_safe=True)
        u2 = fock.beamsplitter_matrix(layout.cutoff, 0.7, 0.3)
        for i, j in ordered_pairs(layout):
            out = apply_beamsplitter(rho, i, j, 0.7, 0.3)
            u = embedded_pair_unitary(layout, u2, i, j)
            assert np.max(np.abs(out.matrix - u @ rho.matrix @ u.conj().T)) < 1e-14
            dense = dense_sandwich_two_mode(rho.matrix, u2, layout, i, j)
            assert np.max(np.abs(out.matrix - dense)) < 1e-14
            assert_rank_bounded(out)

    def test_two_mode_squeeze(self, layout, rank):
        rho = random_state(layout, rank, 10 + layout.modes)
        u2 = squeeze_pair_matrix(layout.cutoff, 0.02)
        for i, j in ordered_pairs(layout):
            out = apply_two_mode_squeeze(rho, i, j, 0.02)
            u = embedded_pair_unitary(layout, u2, i, j)
            assert np.max(np.abs(out.matrix - u @ rho.matrix @ u.conj().T)) < 1e-14
            dense = dense_sandwich_two_mode(rho.matrix, u2, layout, i, j)
            assert np.max(np.abs(out.matrix - dense)) < 1e-14
            assert_rank_bounded(out)

    def test_phase(self, layout, rank):
        rho = random_state(layout, rank, 20 + layout.modes)
        phases = np.diag(np.exp(1.3j * np.arange(layout.mode_dim)))
        for i in range(layout.modes):
            out = apply_phase(rho, i, 1.3)
            u = embedded_one_mode(layout, phases, i)
            assert np.max(np.abs(out.matrix - u @ rho.matrix @ u.conj().T)) < 1e-14
            assert_rank_bounded(out)

    @pytest.mark.parametrize("eta", [0.0, 0.37])
    def test_loss(self, layout, rank, eta):
        rho = random_state(layout, rank, 30 + layout.modes)
        for i in range(layout.modes):
            out = apply_loss(rho, i, eta)
            oracle = sum(embedded_one_mode(layout, k, i) @ rho.matrix
                         @ embedded_one_mode(layout, k, i).conj().T
                         for k in fock.loss_kraus(layout.cutoff, eta))
            assert np.max(np.abs(out.matrix - oracle)) < 1e-14
            assert np.max(np.abs(out.matrix - dense_loss(rho.matrix, layout, i, eta))) < 1e-14
            assert_rank_bounded(out)

    @pytest.mark.parametrize("det,outcome", [
        (DetectorModel(efficiency=0.6, dark_count_prob=0.01), "click"),
        (DetectorModel(efficiency=0.6, dark_count_prob=0.01), "no_click"),
        (DetectorModel(efficiency=1.0), "click"),
        (DetectorModel(efficiency=0.8, resolving=True), 0),
        (DetectorModel(efficiency=0.8, resolving=True), 1),
    ])
    def test_measure_detector(self, layout, rank, det, outcome):
        rho = random_state(layout, rank, 40 + layout.modes)
        for i in range(layout.modes):
            weights = fock._outcome_weights(det, layout.cutoff, outcome)
            want_p, want = dense_measure(rho.matrix, layout, i, weights)
            p, out = measure_detector(rho, i, det, outcome)
            assert p == pytest.approx(want_p, abs=1e-14)
            assert np.max(np.abs(out.matrix - want)) < 1e-14
            assert fock.detector_probability(rho, i, det, outcome) == pytest.approx(
                want_p, abs=1e-14)
            assert_rank_bounded(out)

    @pytest.mark.parametrize("outcomes", [
        {1: (THRESHOLD, "click")},
        {2: (RESOLVING, 1)},
        {0: (THRESHOLD, "no_click"), 2: (THRESHOLD, "click")},
        {2: (RESOLVING, 0), 0: (THRESHOLD, "click")},
        {1: (RESOLVING, 1), 0: (RESOLVING, 1)},
    ])
    def test_condition(self, layout, rank, outcomes):
        rho = random_state(layout, rank, 45 + layout.modes)
        weights = {m: fock._outcome_weights(det, layout.cutoff, outcome)
                   for m, (det, outcome) in outcomes.items()}
        p, out = fock.condition(rho, weights)
        # chained single-mode measurements, in descending mode order so the
        # lower mode indices stay put
        chain_p, chain = 1.0, rho
        dense_p, dense, sub = 1.0, rho.matrix, layout
        for m in sorted(outcomes, reverse=True):
            q, chain = measure_detector(chain, m, *outcomes[m])
            dq, dense = dense_measure(dense, sub, m, weights[m])
            sub = ModeLayout(sub.modes - 1, sub.cutoff)
            chain_p, dense_p = chain_p * q, dense_p * dq
        assert out.layout == chain.layout == sub
        assert p == pytest.approx(chain_p, abs=1e-14)
        assert p == pytest.approx(dense_p, abs=1e-14)
        assert np.max(np.abs(out.matrix - chain.matrix)) < 1e-14
        assert np.max(np.abs(out.matrix - dense)) < 1e-14
        assert_rank_bounded(out)

    def test_partial_trace(self, layout, rank):
        rho = random_state(layout, rank, 50 + layout.modes)
        drops = [[m] for m in range(layout.modes)] + [sorted(p) for p in ordered_pairs(layout)]
        for drop in drops:
            out = partial_trace(rho, drop)
            want = dense_partial_trace(rho.matrix, layout, drop)
            assert np.max(np.abs(out.matrix - want)) < 1e-14
            assert_rank_bounded(out)

    def test_fidelity_purity_populations(self, layout, rank):
        rho = random_state(layout, rank, 60 + layout.modes)
        rng = np.random.default_rng(layout.dim)
        v = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        psi = fock.PureState(layout, v / np.linalg.norm(v))
        m = rho.matrix
        assert fidelity(rho, psi) == pytest.approx(
            np.real(psi.amplitudes.conj() @ m @ psi.amplitudes), abs=1e-14)
        assert rho.purity() == pytest.approx(np.real(np.trace(m @ m)), abs=1e-14)
        assert rho.trace() == pytest.approx(np.real(np.trace(m)), abs=1e-14)
        for k, occ in enumerate(layout.occupations()):
            assert rho.population(occ) == pytest.approx(np.real(m[k, k]), abs=1e-14)


class TestRankRule:
    def test_zero_columns_dropped(self):
        layout = ModeLayout(2, 2)
        v = np.zeros((layout.dim, 3), dtype=complex)
        v[1, 0] = v[3, 2] = 2 ** -0.5
        rho = DensityOperator.from_factor(layout, v)
        assert rho.factor.shape == (layout.dim, 2)
        assert np.max(np.abs(rho.matrix - v @ v.conj().T)) == 0.0

    def test_refactor_beyond_dimension(self):
        layout = ModeLayout(2, 1)
        rng = np.random.default_rng(1)
        v = rng.normal(size=(layout.dim, 9)) + 1j * rng.normal(size=(layout.dim, 9))
        v /= np.linalg.norm(v)
        rho = DensityOperator.from_factor(layout, v)
        assert rho.factor.shape == (layout.dim, layout.dim)
        assert np.max(np.abs(rho.matrix - v @ v.conj().T)) < 1e-15

    def test_matrix_input_factored_to_its_rank(self):
        layout = ModeLayout(2, 2)
        psi = pure_state(layout, {(1, 0): 1, (0, 1): 1j})
        dense = np.outer(psi.amplitudes, psi.amplitudes.conj())
        rho = DensityOperator(layout, 0.5 * dense + 0.5 * vacuum(layout).matrix)
        assert rho.factor.shape == (layout.dim, 2)
        assert np.max(np.abs(rho.matrix - (0.5 * dense + 0.5 * vacuum(layout).matrix))) < 1e-15

    def test_non_hermitian_or_negative_matrix_rejected(self):
        layout = ModeLayout(1, 1)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(layout, [[1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(layout, np.diag([1.1, -0.1]))

    def test_constructors_build_factors_directly(self):
        layout = ModeLayout(3, 2)
        assert vacuum(layout).factor.shape == (layout.dim, 1)
        assert number_state(layout, (1, 0, 2)).to_density().factor.shape == (layout.dim, 1)

    @pytest.mark.parametrize("modes_a,rank_a,modes_b,rank_b", [(1, 2, 2, 5), (2, 4, 1, 1),
                                                               (2, 3, 2, 7)])
    def test_tensor_equals_kron_bit_for_bit(self, modes_a, rank_a, modes_b, rank_b):
        rng = np.random.default_rng(modes_a * 100 + rank_a * 10 + rank_b)

        def factored(modes, rank):
            layout = ModeLayout(modes, 2)
            g = rng.normal(size=(layout.dim, rank)) + 1j * rng.normal(size=(layout.dim, rank))
            return DensityOperator.from_factor(layout, g / np.linalg.norm(g))

        a, b = factored(modes_a, rank_a), factored(modes_b, rank_b)
        assert a.factor.shape[1] == rank_a and b.factor.shape[1] == rank_b
        got = fock.tensor(a, b)
        assert got.layout == ModeLayout(modes_a + modes_b, 2)
        assert np.array_equal(got.factor, np.kron(a.factor, b.factor))


@pytest.mark.parametrize("include_second_order", [False, True])
@pytest.mark.parametrize("p_c,eta_p,p_dc,phase", [(0.05, 0.3, 1e-3, 0.7),
                                                  (0.002, 0.2, 0.0, 0.0),
                                                  (0.005, 1.0, 1e-5, 2.9)])
def test_generation_circuit_matches_dense_path(include_second_order, p_c, eta_p, p_dc, phase):
    """The generation circuit, whose ``include_second_order=False`` source is
    not a product state, against the same circuit run on dense matrices."""
    from repeatersim.protocol import generation_circuit

    cutoff = 4
    prob, rho = generation_circuit(p_c, eta_p, p_dc, phase, cutoff, include_second_order)

    layout4 = ModeLayout(4, cutoff)
    side = {(0, 0): 1.0, (1, 1): math.sqrt(p_c)}
    if include_second_order:
        side[(2, 2)] = p_c
    layout2 = ModeLayout(2, cutoff)
    src = np.zeros(layout2.dim, dtype=complex)
    for occ, amp in side.items():
        src[layout2.index(occ)] = amp
    joint = np.kron(src, src)
    if not include_second_order:
        for k, occ in enumerate(layout4.occupations()):
            if occ[0] + occ[2] > 1:
                joint[k] = 0.0
    joint /= np.linalg.norm(joint)
    m = np.outer(joint, joint.conj())
    m = dense_loss(m, layout4, 1, eta_p)
    m = dense_loss(m, layout4, 3, eta_p)
    u = embedded_one_mode(layout4, np.diag(np.exp(1j * phase * np.arange(cutoff + 1))), 3)
    m = u @ m @ u.conj().T
    m = dense_sandwich_two_mode(m, fock.beamsplitter_matrix(cutoff, math.pi / 4, 0.0),
                                layout4, 1, 3)
    det = DetectorModel(efficiency=1.0, dark_count_prob=p_dc)
    p_click, m = dense_measure(m, layout4, 3, 1.0 - det.no_click_weights(cutoff))
    p_silent, m = dense_measure(m, ModeLayout(3, cutoff), 1, det.no_click_weights(cutoff))
    assert prob == pytest.approx(p_click * p_silent, abs=1e-14)
    assert np.max(np.abs(rho.matrix - m)) < 1e-14
    assert_rank_bounded(rho)


def marginal_pair_support(rho, pairs, gate):
    """Oracle for ``fock._check_pair_support``: one joint marginal of every
    paired mode, summed down to each pair's photon-number table."""
    cutoff = rho.layout.cutoff
    n = np.arange(cutoff + 1)
    over = np.add.outer(n, n) > cutoff
    pops = fock.marginal(rho, [m for pair in pairs for m in pair])
    for k, (i, j) in enumerate(pairs):
        leak = pops.sum(axis=tuple(a for a in range(pops.ndim) if a // 2 != k))[over].sum()
        if leak > fock.SUPPORT_LEAK_TOL:
            raise TruncationError(
                f"{gate} on modes ({i}, {j}): population {leak:.3e} has pair photon "
                f"number above cutoff {cutoff}"
            )


def support_outcome(check, rho, pairs):
    try:
        check(rho, pairs, "beamsplitter")
    except TruncationError as err:
        return str(err)
    return None


class TestPairSupportCheck:
    @given(modes=st.integers(2, 5), cutoff=st.integers(1, 3), rank=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), damping=st.floats(0.0, 10.0),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_marginal_oracle(self, modes, cutoff, rank, seed, damping, data):
        # support above every pair cutoff scaled by 10^-damping, so leaks fall
        # on both sides of the tolerance
        layout = ModeLayout(modes, cutoff)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(layout.dim, rank)) + 1j * rng.normal(size=(layout.dim, rank))
        heavy = np.array([sum(occ) > cutoff for occ in layout.occupations()])
        v[heavy] *= 10.0 ** -damping
        rho = DensityOperator.from_factor(layout, v / np.linalg.norm(v))
        order = data.draw(st.permutations(range(modes)))
        count = data.draw(st.integers(1, modes // 2))
        pairs = [(order[2 * k], order[2 * k + 1]) for k in range(count)]
        assert (support_outcome(fock._check_pair_support, rho, pairs)
                == support_outcome(marginal_pair_support, rho, pairs))


class TestGateTables:
    @pytest.mark.parametrize("cutoff", range(2, 9))
    @pytest.mark.parametrize("r", [0.05, 0.3, 0.6, 0.9])
    def test_squeezer_matches_expm(self, cutoff, r):
        # on the factor V = identity the gate returns its own pair matrix
        layout = ModeLayout(2, cutoff)
        eye = DensityOperator.from_factor(layout, np.eye(layout.dim))
        u = apply_two_mode_squeeze(eye, 0, 1, r, trunc_tol=1.0).factor
        assert np.max(np.abs(u - squeeze_pair_matrix(cutoff, r))) < 1e-14

    def test_squeezer_eigenbasis_is_computed_once_per_cutoff(self):
        fock.squeeze_eigenbasis.cache_clear()
        layout = ModeLayout(2, 5)
        for r in (0.1, -0.2, 0.3):
            apply_two_mode_squeeze(vacuum(layout), 0, 1, r)
        apply_two_mode_squeeze(vacuum(ModeLayout(3, 4)), 2, 0, 0.1)
        info = fock.squeeze_eigenbasis.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        lam, w = fock.squeeze_eigenbasis(5)
        assert fock.squeeze_eigenbasis(5)[1] is w
        # i G = W diag(lam) W^dagger for the generator G = a_1† a_2† - a_1 a_2
        u = squeeze_pair_matrix(5, 1.0)
        assert np.max(np.abs((w * np.exp(-1j * lam)) @ w.conj().T - u)) < 1e-14
        for table in (lam, w):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0

    def test_tables_are_memoised_and_read_only(self):
        tables = [fock.beamsplitter_matrix(2, 0.4, 0.1), *fock.loss_kraus(2, 0.3),
                  fock._above_cutoff(4, 2, ((0, 2), (1, 3)))]
        assert fock.beamsplitter_matrix(2, 0.4, 0.1) is tables[0]
        assert fock._above_cutoff(4, 2, ((0, 2), (1, 3))) is tables[-1]
        assert fock.loss_kraus(2, 0.3) is fock.loss_kraus(2, 0.3)
        assert isinstance(fock.loss_kraus(2, 0.3), tuple)
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0
