"""Simulator and analysis toolkit for ensemble-based quantum repeaters.

Layers:

- :mod:`repeatersim.fock` — exact truncated Fock-space engine (the oracle).
- :mod:`repeatersim.ensemble` — light-atom rates, squeezing, heating dynamics.
- :mod:`repeatersim.protocol` — link generation/swapping recursions + oracles.
- :mod:`repeatersim.applications` — CHSH, key distribution, teleportation.
- :mod:`repeatersim.scaling` — communication-time scaling and optimization.
- :mod:`repeatersim.montecarlo` — seeded waiting-time trials (one lockstep
  NumPy sampler, bit-identical to the scalar reference).
"""

from .applications import (
    KeyStats,
    MeasurementSetting,
    PolarizationQubit,
    TeleportResult,
    chsh_value,
    correlation,
    ekert_simulation,
    teleport,
)
from .ensemble import (
    EffectiveRates,
    EnsembleParams,
    ModePopulations,
    effective_rates,
    free_space_snr,
    integrate_master_equation,
    langevin_mean_ode,
    langevin_mean_solution,
    squeezed_joint_state,
)
from .fock import (
    DensityOperator,
    DetectorModel,
    ModeLayout,
    PureState,
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
    tensor,
    vacuum,
)
from .montecarlo import (
    McEstimate,
    SplitMix,
    TrialConfig,
    chain_times,
    estimate,
    generation_times,
    sample_chain_time,
    sample_generation_time,
)
from .protocol import (
    ChainStallError,
    EMEState,
    RepeaterParams,
    chain,
    generate_analytic,
    generate_oracle,
    swap_analytic,
    swap_oracle,
    vacuum_coeff_closed_form,
)
from .scaling import (
    FidelityBudget,
    InfeasibleError,
    ScalingReport,
    closed_form_time,
    fidelity_budget,
    optimize_segment,
    total_time,
)

__version__ = "0.1.0"
