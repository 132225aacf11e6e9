import math

import numpy as np
import pytest

from repeatersim import fock
from repeatersim.applications import (
    CHSH_SETTINGS,
    MeasurementSetting,
    PolarizationQubit,
    chsh_value,
    correlation,
    ekert_simulation,
    teleport,
)
from repeatersim.protocol import eme_density

ROOT8 = 2 * math.sqrt(2)


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

    def test_fidelity_independent_of_phase_and_efficiency(self):
        q = PolarizationQubit.from_bloch(0.8, 2.5)
        for phi in (0.0, 1.2):
            for eta_a in (0.4, 1.0):
                res = teleport(q, 0.5, eta_a, phi=phi)
                assert res.output_fidelity == pytest.approx(1.0, abs=1e-9)


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
