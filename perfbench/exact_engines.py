"""Workload ``exact_engines``: acceptance-grid circuits run in process.

Operation: one library call (an oracle, an application circuit or one
master-equation integration).  One cycle is 112 of them:

- ``protocol.swap_oracle`` on c in {0, 1/3, 1, 3} x eta_s in {0.4, 2/3, 0.9},
  with seeded link phases;
- ``protocol.generate_oracle`` at the criterion-3 parameters and at
  p_c = 0.002 and 0.01, with a seeded channel phase;
- ``applications.chsh_value`` on the criterion-4 (phi, c_n, eta_a) grid;
- ``applications.correlation`` on the 8 x 8 angle surface, shifted by a
  seeded offset;
- ``applications.teleport`` on two seeded Bloch points for each c_n in
  {0, 1} and eta_a in {1 (loss bypassed), 0.5 (loss applied)};
- one ``applications.ekert_simulation`` of 1e5 rounds;
- ``ensemble.integrate_master_equation`` at 4 modes for the criterion-7
  SNRs {10, 40, 200}, and once at 5 modes on the ``dynamics`` grid;
- ``ensemble.squeezed_joint_state`` and ``ensemble.langevin_mean_ode`` at
  the criterion-8 parameters.

Why: ``fock`` and ``ensemble`` do nearly all the work and ``montecarlo``
none, so a change to the exact engines shows here and a change to the
sampler should not.  The median falls on ``correlation`` while the tail is
set by ``teleport`` with loss and ``generate_oracle`` (the 5-mode master
equations lie beyond it), so the two statistics come from different
engines.
"""

from __future__ import annotations

import math

import numpy as np

import checks
from harness import Op, self_peak_rss_mb

SWAP_C = (0.0, 1 / 3, 1.0, 3.0)
SWAP_ETA = (0.4, 2 / 3, 0.9)
GENERATION_PC = (0.005, 0.002, 0.01)
CHSH_GRID = [(phi, c_n, eta_a) for phi in (0.0, 1.0, math.pi)
             for c_n in (0.0, 1.0, 5.0) for eta_a in (0.3, 1.0)]
SURFACE = np.linspace(0.0, 2 * math.pi, 8)
TELEPORT_CELLS = [(c_n, eta_a) for c_n in (0.0, 1.0) for eta_a in (1.0, 0.5)]
TELEPORT_POINTS = 2
EKERT_ROUNDS = 100_000
CRITERION7_SNR = (10.0, 40.0, 200.0)


class Workload:
    name = "exact_engines"
    cycle_s = 3.3  # baseline seconds inside the 112 operations of a cycle
    kernel_reps = 3  # host-speed kernel runs after each operation

    def __init__(self, seed, workdir=None):
        import repeatersim  # noqa: F401  (import is part of set-up)
        from repeatersim import ensemble
        from repeatersim.protocol import RepeaterParams

        self.seed = seed
        self.generation_params = [
            RepeaterParams(excitation_prob=pc, pulse_time=1e-6, local_efficiency=0.2,
                           swap_efficiency=2 / 3, app_efficiency=0.5, dark_prob=1e-5,
                           segment_length=1e-12)
            for pc in GENERATION_PC]
        # criterion 7: kappa' = 0.4 and gamma' = kappa' / snr
        self.snr_params = [
            ensemble.EnsembleParams(atom_count=100, rabi=1.0, detuning=10.0, coupling=1.0,
                                    cavity_decay=10.0, spont_rate=40.0 / snr,
                                    interaction_time=0.0)
            for snr in CRITERION7_SNR]
        # the command line's default ensemble, integrated as `dynamics --modes 5`
        self.dynamics_params = ensemble.EnsembleParams(100, 1.0, 10.0, 1.0, 10.0, 1.0, 0.0502)
        self.squeeze_params = ensemble.EnsembleParams(100, 1.0, 10.0, 1.0, 10.0, 1.0, 0.08)

    def cycle(self, k):
        from repeatersim import applications as apps
        from repeatersim import ensemble, protocol

        rng = np.random.default_rng([self.seed, k])
        ops = []
        for c in SWAP_C:
            for eta in SWAP_ETA:
                left, right = rng.uniform(0, 2 * math.pi, 2)
                ops.append(Op("swap_oracle",
                              lambda c=c, eta=eta, a=left, b=right:
                              protocol.swap_oracle(c, eta, phase_left=a, phase_right=b),
                              lambda r, c=c, eta=eta: checks.swap(r, c, eta)))
        for params in self.generation_params:
            phase = rng.uniform(0, 2 * math.pi)
            ops.append(Op("generate_oracle",
                          lambda p=params, ph=phase: protocol.generate_oracle(
                              p, channel_phase=ph),
                          lambda r, p=params: checks.generation(r, p)))
        for phi, c_n, eta_a in CHSH_GRID:
            ops.append(Op("chsh_value",
                          lambda phi=phi, c=c_n, e=eta_a: apps.chsh_value(c, phi, e),
                          checks.chsh))
        offset_l, offset_r = rng.uniform(0, 2 * math.pi, 2)
        for psi_l in SURFACE + offset_l:
            for psi_r in SURFACE + offset_r:
                setting = apps.MeasurementSetting(psi_l, psi_r)
                ops.append(Op("correlation",
                              lambda s=setting: apps.correlation(1 / 3, 0.4, s, 0.5),
                              lambda r, a=psi_l, b=psi_r: checks.correlation(r, a, b)))
        for c_n, eta_a in TELEPORT_CELLS:
            for _ in range(TELEPORT_POINTS):
                qubit = apps.PolarizationQubit.from_bloch(rng.uniform(0, math.pi),
                                                          rng.uniform(0, 2 * math.pi))
                ops.append(Op("teleport",
                              lambda q=qubit, c=c_n, e=eta_a: apps.teleport(q, c, e),
                              lambda r, c=c_n, e=eta_a: checks.teleport(r, c, e)))
        ekert_seed = int(rng.integers(0, 2 ** 63))
        ekert_phi = rng.uniform(0, 2 * math.pi)
        ops.append(Op("ekert_simulation",
                      lambda: apps.ekert_simulation(0.0, ekert_phi, 0.5, EKERT_ROUNDS,
                                                    ekert_seed),
                      lambda r: checks.ekert(r, 0.0, 0.5, EKERT_ROUNDS)))
        for params in self.snr_params:
            ops.append(self._master_equation_op(params, 4, 21))
        ops.append(self._master_equation_op(self.dynamics_params, 5, 120))
        rates = ensemble.effective_rates(self.squeeze_params)
        ops.append(Op("squeezed_joint_state",
                      lambda: ensemble.squeezed_joint_state(rates, cutoff=6),
                      lambda r: checks.squeezed(r, rates, 6)))
        grid = np.linspace(0.0, 3.0 / rates.kappa_prime, 80)
        ops.append(Op("langevin_mean_ode",
                      lambda: ensemble.langevin_mean_ode(self.squeeze_params, grid),
                      lambda r: checks.langevin(r, rates, grid)))
        return ops

    @staticmethod
    def _master_equation_op(params, modes, points):
        from repeatersim import ensemble

        rates = ensemble.effective_rates(params)
        grid = np.linspace(0.0, 0.05 / rates.kappa_prime, points)
        return Op(f"master_equation_m{modes}",
                  lambda: ensemble.integrate_master_equation(params, modes, 2, grid),
                  lambda r: checks.master_equation(r, rates))

    trace_cycle = cycle

    def peak_rss_mb(self):
        return self_peak_rss_mb()

    def per_layer(self, spans, ops):
        return {}
