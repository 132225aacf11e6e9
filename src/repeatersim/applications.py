"""Entanglement-consuming circuits: two-site correlation measurement, CHSH
evaluation, entanglement-based key distribution, and probabilistic
teleportation of a two-mode "polarization" qubit.

Every scheme post-selects on detector coincidences, which strips the vacuum
and loss components of the links; noise shows up as repetition cost, not as
infidelity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .montecarlo import DRAW_BUDGET, check_memory
from .protocol import lossy_input, lossy_link
from .scaling import InfeasibleError


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


@dataclass(frozen=True)
class CorrelationResult:
    value: float              # E(psi_L, psi_R)
    coincidence_prob: float
    pattern_probs: dict       # {"11": .., "12": .., "21": .., "22": ..}


# every circuit here holds two-mode factors at cutoff 2
_PAIR = fock.ModeLayout(2, 2)
# indices of the single-excitation states |1,0⟩ and |0,1⟩ of a pair
_SINGLES = [_PAIR.index((1, 0)), _PAIR.index((0, 1))]
# below the smallest normal float a coincidence weight has lost its digits
_TINY = np.finfo(float).tiny


def _link(c_n: float, phi: float, etas) -> fock.DensityOperator:
    """The link (c_n, phi) after loss ``etas`` on its two halves."""
    for eta in etas:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"application efficiency {eta} outside (0, 1]")
    return lossy_link(_PAIR, c_n, phi, etas)


def _link_pair(c_n: float, phi: float, eta_a: float) -> fock.DensityOperator:
    """The two lossy links (L1, R1) and (L2, R2) a correlation circuit reads."""
    pair = _link(c_n, phi, (eta_a, eta_a))
    return fock.tensor(pair, pair)


@functools.lru_cache(maxsize=16)
def _alone(cutoff: int, dark_prob: float = 0.0) -> np.ndarray:
    """(2, d²) threshold-POVM weights on a detector pair's number index: row i
    is "detector i alone clicks", detector 1 on the first mode, 2 on the
    second (read-only, memoised)."""
    w = fock.DetectorModel(dark_count_prob=dark_prob).no_click_weights(cutoff)
    click = np.array([1.0 - w, w])
    alone = (click[:, :, None] * click[::-1, None, :]).reshape(2, -1)
    alone.flags.writeable = False
    return alone


def _correlations(rho: fock.DensityOperator, settings, dark_prob: float = 0.0) -> tuple:
    """``correlation`` at each of ``settings`` on the link pair ``rho`` of
    ``_link_pair``, one ``CorrelationResult`` per setting in order."""
    L1, R1, L2, R2 = 0, 1, 2, 3
    # a number-basis phase keeps every number marginal and the L splitter leaves
    # (R1, R2) alone: the gate chain's splitters see the input pair's support
    fock._check_pair_support(rho, [(L1, L2), (R1, R2)], "beamsplitter")
    cutoff, d, (_, r) = rho.layout.cutoff, rho.layout.mode_dim, rho.factor.shape
    # per setting and site (L, R), the phase e^{iψn} on the first mode and the
    # balanced splitter fused into one unitary on the site's d² pair index
    psi = np.array([(s.psi_left, s.psi_right) for s in settings])
    phases = np.exp(1j * psi[..., None] * np.repeat(np.arange(d), d))
    u = fock.beamsplitter_matrix(cutoff, math.pi / 4, 0.0) * phases[..., None, :]
    # V with axes (L1 L2, R1 R2 rank); one batched matmul per site
    v = rho.factor.reshape(d, d, d, d, r).transpose(L1, L2, R1, R2, 4).reshape(d * d, -1)
    out = u[:, 1, None] @ (u[:, 0] @ v).reshape(len(settings), d * d, d * d, r)
    pops = (out.real ** 2 + out.imag ** 2).sum(axis=-1)   # (L1 L2, R1 R2) marginals
    # threshold POVMs are diagonal, so a pattern's probability is the number
    # marginal weighted by "detector i alone clicks"
    alone = _alone(cutoff, dark_prob)
    results = []
    for probs in alone @ pops @ alone.T:
        p = {f"{i + 1}{j + 1}": float(probs[i, j]) for i in (0, 1) for j in (0, 1)}
        total = sum(p.values())
        if total < _TINY:
            raise ValueError("no coincidences: correlation undefined")
        results.append(CorrelationResult(value=(p["11"] + p["22"] - p["12"] - p["21"]) / total,
                                         coincidence_prob=total, pattern_probs=p))
    return tuple(results)


def correlation(c_n: float, phi: float, setting: MeasurementSetting, eta_a: float,
                dark_prob: float = 0.0) -> CorrelationResult:
    """Coincidence correlation E between the two sites.

    Retrieval and detection inefficiencies enter as one lumped loss
    ``eta_a`` per retrieved mode, so the physical coincidence probability is
    ``eta_a^2 / (2 (c_n + 1)^2)``; the loss cancels from E itself.
    """
    return _correlations(_link_pair(c_n, phi, eta_a), (setting,), dark_prob)[0]


CHSH_SETTINGS = (
    (0.0, math.pi / 4),
    (math.pi / 2, math.pi / 4),
    (math.pi / 2, 3 * math.pi / 4),
    (0.0, 3 * math.pi / 4),
)


def chsh_correlations(c_n: float, phi: float, eta_a: float) -> tuple:
    """``CorrelationResult`` at each of ``CHSH_SETTINGS``, in that order."""
    return _correlations(_link_pair(c_n, phi, eta_a),
                         [MeasurementSetting(a, b) for a, b in CHSH_SETTINGS])


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
    if 3 * rounds > DRAW_BUDGET:
        raise InfeasibleError(f"{rounds} rounds need {3 * rounds:.3g} random draws, "
                              f"over the budget of {DRAW_BUDGET:.0e}")
    # per round: the settings, the uniform, the cell, its thresholds and the
    # outcome (tracemalloc peak: 49 bytes)
    check_memory(56 * rounds, f"{rounds} rounds")
    settings = [MeasurementSetting(a, b) for a in (0.0, math.pi / 2) for b in (0.0, math.pi / 2)]
    # row 2i + j for settings (i, j): the four coincidence patterns
    table = [list(res.pattern_probs.values())
             for res in _correlations(_link_pair(c_n, phi, eta_a), settings)]
    rng = np.random.default_rng(seed)
    left = rng.integers(0, 2, size=rounds)
    right = rng.integers(0, 2, size=rounds)
    u = rng.random(rounds)
    cell = 2 * left + right
    # 0..3: patterns 11, 12, 21, 22; 4: no coincidence
    outcome = sum(u >= cum[cell] for cum in np.cumsum(table, axis=1).T)
    counts = np.bincount(5 * cell + outcome, minlength=20).reshape(4, 5)
    kept = counts[[0, 3], :4]                  # matching settings, coincident
    sifted = int(kept.sum())
    # bit 0 when detector 1 fires (left in 11, 12; right in 11, 21), so the
    # two bits differ in patterns 12 and 21
    qber = int(kept[:, 1:3].sum()) / sifted if sifted else 0.0
    return KeyStats(rounds=rounds, sifted_length=sifted, qber=qber,
                    coincidence_rate=int(counts[:, :4].sum()) / rounds, seed=seed)


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
    links and accepts the four two-click patterns (i, j): detector i of group
    1 and detector j of group 2 each click alone.  The crossed patterns take a
    conditional π on the second output mode.  Confirmation of an excitation
    on the right purifies away the vacuum components, making the post-selected
    fidelity unity.
    """
    link = _link(c_n, phi, (eta_a, 1.0))   # sender half lossy
    qubit_in = lossy_input(_PAIR, 0.0, (qubit.d0, qubit.d1), (eta_a, eta_a))
    rho = fock.tensor(fock.tensor(qubit_in, link), link)
    I1, I2, L1, R1, L2, R2 = 0, 1, 2, 3, 4, 5
    fock._check_pair_support(rho, [(I1, L1), (I2, L2)], "beamsplitter")

    # V with axes (I1 L1, I2 L2, R1 R2, rank): the balanced splitters on the
    # sender pairs are one matmul each.  Group 1 detectors sit on the (I1, L1)
    # outputs, group 2 on (I2, L2).  Pattern (i, j) weighs the sender index
    # by alone[i] ⊗ alone[j], and its p·w·f (probability, confirmation
    # weight, fidelity) is the unnormalised overlap ‖ψ† V_ij‖², so no
    # conditional state is formed.
    d, r = _PAIR.mode_dim, rho.factor.shape[1]
    u = fock.beamsplitter_matrix(_PAIR.cutoff, math.pi / 4, 0.0)
    v = rho.factor.reshape([d] * 6 + [r]).transpose(I1, L1, I2, L2, R1, R2, 6)
    v = (u @ (u @ v.reshape(d * d, -1)).reshape(d * d, d * d, -1)).reshape(d * d, d * d, d * d, r)
    alone = _alone(_PAIR.cutoff)
    w = alone[:, None, :, None] * alone[None, :, None, :]      # (i, j, I1 L1, I2 L2)
    # sender weights of the straight (i = j) and the crossed (i ≠ j) patterns
    kinds = np.stack([w[0, 0] + w[1, 1], w[0, 1] + w[1, 0]], axis=-1)
    # the crossed patterns' π on R2 negates the target's |0,1⟩ amplitude
    psi = np.zeros((2, d * d), dtype=complex)
    psi[:, _SINGLES] = [[qubit.d0, qubit.d1], [qubit.d0, -qubit.d1]]
    overlap = psi.conj() @ v                                  # (I1 L1, I2 L2, kind, rank)
    overlap = (overlap.real ** 2 + overlap.imag ** 2).sum(axis=-1)
    pops = (v.real ** 2 + v.imag ** 2).sum(axis=-1)
    # accepted weight of each (R1, R2) number state
    right = (kinds.sum(axis=-1)[..., None] * pops).sum(axis=(0, 1))
    pattern_prob = float(right.sum())
    success_prob = float(right[_SINGLES[0]] + right[_SINGLES[1]])
    if success_prob < _TINY:
        raise ValueError("no accepted click pattern has support")
    fidelity_acc = float((kinds * overlap).sum())
    return TeleportResult(success_prob=success_prob,
                          output_fidelity=fidelity_acc / success_prob,
                          pattern_prob=pattern_prob,
                          confirm_prob=success_prob / pattern_prob)
