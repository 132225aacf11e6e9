"""Entanglement-consuming circuits: two-site correlation measurement, CHSH
evaluation, entanglement-based key distribution, and probabilistic
teleportation of a two-mode "polarization" qubit.

Every scheme post-selects on detector coincidences, which strips the vacuum
and loss components of the links; noise shows up as repetition cost, not as
infidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .protocol import eme_density


@dataclass(frozen=True)
class MeasurementSetting:
    psi_left: float
    psi_right: float

    def __post_init__(self):
        if not (math.isfinite(self.psi_left) and math.isfinite(self.psi_right)):
            raise ValueError("settings must be finite")


@dataclass(frozen=True)
class PolarizationQubit:
    """Single excitation shared between two storage modes, amplitudes
    (d0, d1) with |d0|^2 + |d1|^2 = 1."""

    d0: complex
    d1: complex

    def __post_init__(self):
        norm = abs(self.d0) ** 2 + abs(self.d1) ** 2
        if not math.isfinite(norm):
            raise ValueError("qubit amplitudes must be finite")
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"qubit norm {norm} deviates from 1 beyond 1e-12")

    @classmethod
    def from_bloch(cls, theta: float, phi: float) -> "PolarizationQubit":
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("Bloch angles must be finite")
        return cls(math.cos(theta / 2.0),
                   complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0))


def _pattern_probability(rho: fock.DensityOperator, outcomes: dict,
                         dark_prob: float = 0.0):
    """Joint probability of a click pattern, measuring the listed modes
    destructively (descending index order keeps lower indices valid).
    Returns ``(probability, conditional state on the remaining modes)``."""
    det = fock.DetectorModel(efficiency=1.0, dark_count_prob=dark_prob)
    prob, state = 1.0, rho
    for mode in sorted(outcomes, reverse=True):
        if state.layout.modes == 1:
            p = fock.detector_probability(state, mode, det, outcomes[mode])
            return (prob * p, None) if p >= 1e-15 else (0.0, None)
        try:
            p, state = fock.measure_detector(state, mode, det, outcomes[mode])
        except fock.ImpossibleOutcomeError:
            return 0.0, None
        prob *= p
    return prob, state


@dataclass(frozen=True)
class CorrelationResult:
    value: float              # E(psi_L, psi_R)
    coincidence_prob: float
    pattern_probs: dict       # {"11": .., "12": .., "21": .., "22": ..}


# every circuit here holds two-mode factors at cutoff 2
_PAIR = fock.ModeLayout(2, 2)


def _lossy(rho: fock.DensityOperator, eta_a: float, modes) -> fock.DensityOperator:
    """``rho`` after loss ``eta_a`` on ``modes``.  Loss on one factor commutes
    with ``fock.tensor``, so circuits apply it to the 9-dim factors."""
    for mode in modes:
        rho = fock.apply_loss(rho, mode, eta_a)
    return rho


def correlation(c_n: float, phi: float, setting: MeasurementSetting, eta_a: float,
                dark_prob: float = 0.0) -> CorrelationResult:
    """Coincidence correlation E between the two sites.

    Retrieval and detection inefficiencies enter as one lumped loss
    ``eta_a`` per retrieved mode, so the physical coincidence probability is
    ``eta_a^2 / (2 (c_n + 1)^2)``; the loss cancels from E itself.
    """
    if not 0.0 < eta_a <= 1.0:
        raise ValueError(f"application efficiency {eta_a} outside (0, 1]")
    pair = _lossy(eme_density(_PAIR, (0, 1), c_n, phi), eta_a, (0, 1))
    rho = fock.tensor(pair, pair)
    L1, R1, L2, R2 = 0, 1, 2, 3
    rho = fock.apply_phase(rho, L1, setting.psi_left)
    rho = fock.apply_phase(rho, R1, setting.psi_right)
    rho = fock.apply_beamsplitter(rho, L1, L2)
    rho = fock.apply_beamsplitter(rho, R1, R2)

    # detector 1 of a site sits on the first-mode output, detector 2 on the second
    left, right = {1: L1, 2: L2}, {1: R1, 2: R2}
    pattern_probs = {}
    for i in (1, 2):
        for j in (1, 2):
            outcomes = {left[i]: "click", left[3 - i]: "no_click",
                        right[j]: "click", right[3 - j]: "no_click"}
            pattern_probs[f"{i}{j}"] = _pattern_probability(rho, outcomes, dark_prob)[0]
    total = sum(pattern_probs.values())
    if total <= 0.0:
        raise ValueError("no coincidences: correlation undefined")
    value = (pattern_probs["11"] + pattern_probs["22"]
             - pattern_probs["12"] - pattern_probs["21"]) / total
    return CorrelationResult(value=value, coincidence_prob=total,
                             pattern_probs=pattern_probs)


CHSH_SETTINGS = (
    (0.0, math.pi / 4),
    (math.pi / 2, math.pi / 4),
    (math.pi / 2, 3 * math.pi / 4),
    (0.0, 3 * math.pi / 4),
)


def chsh_correlations(c_n: float, phi: float, eta_a: float) -> tuple:
    """``CorrelationResult`` at each of ``CHSH_SETTINGS``, in that order."""
    return tuple(correlation(c_n, phi, MeasurementSetting(a, b), eta_a)
                 for a, b in CHSH_SETTINGS)


def chsh_combination(results) -> float:
    """|E(0,π/4) + E(π/2,π/4) + E(π/2,3π/4) - E(0,3π/4)| of ``chsh_correlations``."""
    return abs(results[0].value + results[1].value + results[2].value - results[3].value)


def chsh_value(c_n: float, phi: float, eta_a: float) -> float:
    """The CHSH combination of the circuit at (c_n, phi, eta_a)."""
    return chsh_combination(chsh_correlations(c_n, phi, eta_a))


@dataclass(frozen=True)
class KeyStats:
    rounds: int
    sifted_length: int
    qber: float
    coincidence_rate: float
    seed: int


def ekert_simulation(c_n: float, phi: float, eta_a: float, rounds: int,
                     seed: int) -> KeyStats:
    """Sampled key-distribution run.

    Per round each site draws its phase setting uniformly from {0, π/2};
    outcomes are sampled from the exact circuit distribution; rounds with
    matching settings and a two-side coincidence are kept.  Bit value is 0
    when detector 1 fires.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    settings = (0.0, math.pi / 2)
    # outcome categories: the four coincidence patterns, then "no coincidence"
    cats = ("11", "12", "21", "22")
    table = np.empty((2, 2, 5))
    for a, psi_l in enumerate(settings):
        for b, psi_r in enumerate(settings):
            res = correlation(c_n, phi, MeasurementSetting(psi_l, psi_r), eta_a)
            probs = [res.pattern_probs[k] for k in cats]
            table[a, b] = probs + [1.0 - sum(probs)]
    rng = np.random.default_rng(seed)
    left = rng.integers(0, 2, size=rounds)
    right = rng.integers(0, 2, size=rounds)
    u = rng.random(rounds)
    cum = np.cumsum(table, axis=-1)[left, right]
    outcome = (u[:, None] >= cum).sum(axis=1)   # 0..3 patterns, 4 = none

    coincident = outcome < 4
    sifted = coincident & (left == right)
    bit_l = np.where(np.isin(outcome, (0, 1)), 0, 1)   # patterns 11,12 -> D1 left
    bit_r = np.where(np.isin(outcome, (0, 2)), 0, 1)   # patterns 11,21 -> D1 right
    n_sifted = int(sifted.sum())
    qber = float(np.mean(bit_l[sifted] != bit_r[sifted])) if n_sifted else 0.0
    return KeyStats(rounds=rounds, sifted_length=n_sifted, qber=qber,
                    coincidence_rate=float(coincident.mean()), seed=seed)


@dataclass(frozen=True)
class TeleportResult:
    success_prob: float       # accepted pattern and excitation present on the right
    output_fidelity: float    # post-selected right-side state vs the input qubit
    pattern_prob: float       # accepted two-click pattern, before confirmation
    confirm_prob: float       # excitation found on the right given the pattern


def teleport(qubit: PolarizationQubit, c_n: float, eta_a: float,
             phi: float = 0.0) -> TeleportResult:
    """Probabilistic teleportation through two shared links.

    The sender interferes the input storage modes with its halves of the
    links; the four cross two-click patterns are accepted, two of them with
    a conditional π rotation on the second output mode.  Confirmation of an
    excitation on the right purifies away the vacuum components, making the
    post-selected fidelity unity.
    """
    if not 0.0 < eta_a <= 1.0:
        raise ValueError(f"application efficiency {eta_a} outside (0, 1]")
    target = fock.pure_state(_PAIR, {(1, 0): qubit.d0, (0, 1): qubit.d1}, normalize=False)
    link = _lossy(eme_density(_PAIR, (0, 1), c_n, phi), eta_a, (0,))   # sender half lossy
    rho = fock.tensor(fock.tensor(_lossy(target.to_density(), eta_a, (0, 1)), link), link)
    I1, I2, L1, R1, L2, R2 = 0, 1, 2, 3, 4, 5

    rho = fock.apply_beamsplitter(rho, I1, L1)
    rho = fock.apply_beamsplitter(rho, I2, L2)

    # group 1 detectors on (I1, L1) outputs, group 2 on (I2, L2) outputs
    patterns = [
        ({I1: "click", L1: "no_click", I2: "click", L2: "no_click"}, False),  # D1I, D2I
        ({I1: "no_click", L1: "click", I2: "no_click", L2: "click"}, False),  # D1L, D2L
        ({I1: "click", L1: "no_click", I2: "no_click", L2: "click"}, True),   # D1I, D2L
        ({I1: "no_click", L1: "click", I2: "click", L2: "no_click"}, True),   # D1L, D2I
    ]
    pattern_total = 0.0
    confirmed_total = 0.0
    fidelity_acc = 0.0
    for outcomes, correct in patterns:
        p, cond = _pattern_probability(rho, outcomes)
        if p == 0.0 or cond is None:
            continue
        pattern_total += p
        if correct:
            cond = fock.apply_phase(cond, 1, math.pi)   # π on the R2 output mode
        w = cond.population((1, 0)) + cond.population((0, 1))
        if w <= 0.0:
            continue
        # restrict to the single-excitation sector and renormalize
        f = fock.fidelity(cond, target) / w
        confirmed_total += p * w
        fidelity_acc += p * w * f
    if pattern_total <= 0.0:
        raise ValueError("no accepted click pattern has support")
    confirm_prob = confirmed_total / pattern_total
    output_fidelity = fidelity_acc / confirmed_total if confirmed_total > 0 else 0.0
    return TeleportResult(success_prob=confirmed_total,
                          output_fidelity=output_fidelity,
                          pattern_prob=pattern_total,
                          confirm_prob=confirm_prob)
