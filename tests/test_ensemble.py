import math

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp

from repeatersim import fock
from repeatersim.ensemble import (
    EnsembleParams,
    effective_rates,
    free_space_snr,
    integrate_master_equation,
    langevin_mean_ode,
    langevin_mean_solution,
    squeezed_joint_state,
)


def make_params(**overrides):
    base = dict(atom_count=100, rabi=1.0, detuning=10.0, coupling=1.0,
                cavity_decay=10.0, spont_rate=1.0, interaction_time=0.0)
    base.update(overrides)
    return EnsembleParams(**base)


class TestEffectiveRates:
    def test_kappa_prime(self):
        rates = effective_rates(make_params())
        assert rates.kappa_prime == pytest.approx(0.4, abs=1e-15)

    def test_gamma_prime_and_snr(self):
        rates = effective_rates(make_params())
        assert rates.gamma_s_prime == pytest.approx(0.01, abs=1e-15)
        assert rates.snr == pytest.approx(40.0, abs=1e-12)
        assert rates.snr == pytest.approx(rates.kappa_prime / rates.gamma_s_prime, rel=1e-12)

    def test_zero_interaction_time(self):
        rates = effective_rates(make_params(interaction_time=0.0))
        assert rates.squeeze == 0.0
        assert rates.excitation_prob == 0.0

    def test_excitation_prob_definition(self):
        rates = effective_rates(make_params(interaction_time=0.05))
        assert math.cosh(rates.squeeze) == pytest.approx(
            math.exp(rates.kappa_prime * 0.05 / 2), rel=1e-12)
        assert rates.excitation_prob == pytest.approx(math.tanh(rates.squeeze) ** 2, rel=1e-12)

    def test_detuning_guard(self):
        with pytest.raises(ValueError, match="detuning"):
            make_params(detuning=0.0)

    def test_adiabatic_flag(self):
        marginal = make_params(cavity_decay=1.0)
        assert effective_rates(marginal).adiabatic_marginal
        good = make_params(atom_count=1, rabi=0.01)
        assert not effective_rates(good).adiabatic_marginal


class TestLangevinGain:
    def test_zero_time(self):
        assert langevin_mean_solution(make_params(), 0.0) == 1.0

    def test_unit_exponent(self):
        # kappa' t = 2 -> gain e
        params = make_params()
        t = 2.0 / 0.4
        assert langevin_mean_solution(params, t) == pytest.approx(math.e, rel=1e-12)

    def test_monotone(self):
        params = make_params()
        ts = np.linspace(0, 5, 40)
        gains = [langevin_mean_solution(params, t) for t in ts]
        assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_ode_cross_check(self):
        params = make_params()
        t_grid = np.linspace(0.0, 3.0 / 0.4, 60)   # kappa' t in [0, 3]
        numeric = langevin_mean_ode(params, t_grid)
        closed = np.exp(0.4 * t_grid / 2)
        assert np.max(np.abs(numeric - closed) / closed) < 1e-8


class TestSqueezedJointState:
    def test_zero_squeeze_is_vacuum(self):
        rates = effective_rates(make_params(interaction_time=0.0))
        rho = squeezed_joint_state(rates, cutoff=3)
        assert rho.population((0, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_amplitude_ratio_is_excitation_prob(self):
        params = make_params(interaction_time=0.01005 / 0.4)  # p_c ~ 0.01
        rates = effective_rates(params)
        rho = squeezed_joint_state(rates, cutoff=5)
        ratio = rho.population((1, 1)) / rho.population((0, 0))
        assert ratio == pytest.approx(rates.excitation_prob, rel=1e-9)

    def test_effective_mode_mean(self):
        rates = effective_rates(make_params(interaction_time=0.08))
        rho = squeezed_joint_state(rates, cutoff=6)
        assert rho.mean_photon(1) == pytest.approx(math.sinh(rates.squeeze) ** 2, abs=1e-8)

    def test_normalization_tail_bound(self):
        rates = effective_rates(make_params(interaction_time=0.08))
        cutoff = 5
        rho = squeezed_joint_state(rates, cutoff=cutoff)
        diag_sum = sum(rho.population((n, n)) for n in range(cutoff + 1))
        assert diag_sum >= 1.0 - math.tanh(rates.squeeze) ** (2 * (cutoff + 1))


def dense_gain_populations(kappa_prime, gamma_s_prime, n_modes, cutoff, t_grid,
                           rtol=1e-12, atol=1e-14):
    """Oracle for the closed form: integrate the full (cutoff+1)^(2 m)
    complex density matrix under the gain Lindbladian with RK45.

    The Liouvillian acts on the row-major vec(rho), vec(A rho B) =
    (A kron B^T) vec(rho), and is built as a sparse matrix; the state keeps
    every coherence.  Returns (collective, per_noise_mode, traces) on
    ``t_grid``; meant for m <= 4 modes.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    layout = fock.ModeLayout(n_modes, cutoff)
    d = layout.dim
    dm = layout.mode_dim
    a = np.diag(np.sqrt(np.arange(1, dm)), 1).astype(complex)

    def embed(op, mode):
        mats = [np.eye(dm, dtype=complex)] * n_modes
        mats[mode] = op
        out = sparse.csr_array(mats[0])
        for m in mats[1:]:
            out = sparse.kron(out, m, format="csr")
        return out

    eye = sparse.identity(d, dtype=complex, format="csr")
    liouvillian = sparse.csr_array((d * d, d * d), dtype=complex)
    rates = [kappa_prime + gamma_s_prime] + [gamma_s_prime] * (n_modes - 1)
    for mode, rate in enumerate(rates):
        x = embed(a.conj().T, mode)     # gain jump X = a^dagger
        xx = x.conj().T @ x
        liouvillian = liouvillian + rate * (
            sparse.kron(x, x.conj(), format="csr")
            - 0.5 * (sparse.kron(xx, eye, format="csr")
                     + sparse.kron(eye, xx.T, format="csr")))

    y0 = fock.vacuum(layout).matrix.ravel()
    sol = solve_ivp(lambda _t, y: liouvillian @ y, (float(t_grid[0]), float(t_grid[-1])),
                    y0, t_eval=t_grid, method="RK45", rtol=rtol, atol=atol)
    assert sol.success, sol.message

    diags = sol.y[::d + 1].real   # (d, T): the populations of rho
    number_diag = [embed(a.conj().T @ a, m).diagonal().real for m in range(n_modes)]
    noise = np.mean([number_diag[m] @ diags for m in range(1, n_modes)], axis=0)
    return number_diag[0] @ diags, noise, diags.sum(axis=0)


class TestMasterEquation:
    def test_no_spontaneous_emission_keeps_noise_modes_dark(self):
        params = make_params(spont_rate=0.0)
        pops = integrate_master_equation(params, n_modes=3, cutoff=2,
                                         t_grid=np.linspace(0, 0.1, 11))
        assert np.max(np.abs(pops.per_noise_mode)) < 1e-10
        assert pops.collective[-1] > 0

    def test_short_time_rate_ratio(self):
        params = make_params()   # kappa'=0.4, gamma'=0.01
        rates = effective_rates(params)
        t_end = 0.05 / rates.kappa_prime
        pops = integrate_master_equation(params, n_modes=4, cutoff=2,
                                         t_grid=np.linspace(0, t_end, 21))
        expected = (rates.kappa_prime + rates.gamma_s_prime) / rates.gamma_s_prime
        assert pops.rate_ratio() == pytest.approx(expected, rel=0.05)

    def test_symmetric_when_collective_rate_vanishes(self):
        # kappa' = 0 (no coupling) with equal heating everywhere:
        # permutation symmetry
        params = make_params(coupling=0.0, spont_rate=5.0)
        assert effective_rates(params).kappa_prime == 0.0
        pops = integrate_master_equation(params, n_modes=3, cutoff=2,
                                         t_grid=np.linspace(0, 0.2, 9))
        assert np.max(np.abs(pops.collective - pops.per_noise_mode)) < 1e-9

    def test_trace_preservation_and_positivity(self):
        params = make_params()
        pops = integrate_master_equation(params, n_modes=3, cutoff=2,
                                         t_grid=np.linspace(0, 0.1, 15))
        assert np.max(np.abs(pops.traces - 1.0)) < 1e-9
        assert pops.collective.min() >= -1e-10
        assert pops.per_noise_mode.min() >= -1e-10

    def test_populations_non_decreasing(self):
        params = make_params()
        pops = integrate_master_equation(params, n_modes=3, cutoff=2,
                                         t_grid=np.linspace(0, 0.1, 15))
        assert np.all(np.diff(pops.collective) > -1e-12)
        assert np.all(np.diff(pops.per_noise_mode) > -1e-12)

    def test_mode_count_guard(self):
        with pytest.raises(ValueError):
            integrate_master_equation(make_params(), n_modes=1, cutoff=2,
                                      t_grid=np.linspace(0, 0.1, 5))

    def test_cutoff_guard(self):
        with pytest.raises(ValueError, match="cutoff"):
            integrate_master_equation(make_params(), n_modes=2, cutoff=0,
                                      t_grid=np.linspace(0, 0.1, 5))

    @pytest.mark.parametrize("points", [0, 1])
    def test_short_time_grid_refused(self, points):
        with pytest.raises(ValueError, match="at least two time points"):
            integrate_master_equation(make_params(), n_modes=2, cutoff=2,
                                      t_grid=np.linspace(0, 0.1, points))

    @pytest.mark.parametrize("n_modes", [2, 3, 4])
    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_closed_form_matches_dense_oracle(self, n_modes, cutoff):
        # kappa' t up to 1, so every truncated level is populated
        params = make_params()
        rates = effective_rates(params)
        grid = np.linspace(0.0, 1.0 / rates.kappa_prime, 11)
        pops = integrate_master_equation(params, n_modes, cutoff, grid)
        dense = dense_gain_populations(rates.kappa_prime, rates.gamma_s_prime,
                                       n_modes, cutoff, grid)
        for closed, oracle in zip((pops.collective, pops.per_noise_mode, pops.traces),
                                  dense):
            assert np.max(np.abs(closed - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    def test_noise_modes_do_not_change_the_columns(self):
        params = make_params()
        grid = np.linspace(0, 0.1, 15)
        small = integrate_master_equation(params, n_modes=2, cutoff=2, t_grid=grid)
        large = integrate_master_equation(params, n_modes=40, cutoff=2, t_grid=grid)
        assert np.array_equal(small.collective, large.collective)
        assert np.array_equal(small.per_noise_mode, large.per_noise_mode)
        assert np.max(np.abs(large.traces - 1.0)) < 1e-9


class TestFreeSpaceSnr:
    def test_formula_inversion(self):
        k = 2.0
        result = free_space_snr(density=k**2 / 3.0, length=1.0, wavenumber=k)
        assert result.snr == pytest.approx(1.0, rel=1e-12)
        assert result.optical_depth == result.snr

    def test_linearity_in_length(self):
        a = free_space_snr(1.0, 1.0, 2.0)
        b = free_space_snr(1.0, 2.0, 2.0)
        assert b.snr == pytest.approx(2 * a.snr, rel=1e-12)

    def test_diluteness_flag(self):
        dense = free_space_snr(density=8.0, length=1.0, wavenumber=1.0)
        assert dense.superradiance_risk
        dilute = free_space_snr(density=0.5, length=1.0, wavenumber=2.0)
        assert not dilute.superradiance_risk

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            free_space_snr(0.0, 1.0, 1.0)
