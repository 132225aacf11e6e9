"""Entanglement-consuming circuits: two-site correlation measurement, CHSH
evaluation, entanglement-based key distribution, and probabilistic
teleportation of a two-mode "polarization" qubit.

Every scheme post-selects on detector coincidences, which strips the vacuum
and loss components of the links; noise shows up as repetition cost, not as
infidelity.  So every figure here is a closed form in the chance
s = eta_a / (c_n + 1) that a link delivers its photon; the Fock circuits
they replace are the oracles of ``tests/test_applications.py``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from ._records import Checked
from .montecarlo import DRAW_BUDGET, check_memory
from .protocol import InfeasibleError, check_link


class MeasurementSetting(Checked, namedtuple("MeasurementSetting", ("psi_left", "psi_right"))):
    __slots__ = ()

    def _check(self):
        if not (math.isfinite(self.psi_left) and math.isfinite(self.psi_right)):
            raise ValueError("settings must be finite")


class PolarizationQubit(Checked, namedtuple("PolarizationQubit", ("d0", "d1"))):
    """Single excitation shared between two storage modes, amplitudes
    (d0, d1) with |d0|^2 + |d1|^2 = 1."""

    __slots__ = ()

    def _check(self):
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


# value: E(psi_L, psi_R); pattern_probs: {"11": .., "12": .., "21": .., "22": ..}
CorrelationResult = namedtuple("CorrelationResult", ("value", "coincidence_prob",
                                                     "pattern_probs"))


# below the smallest normal float a coincidence weight has lost its digits
_TINY = sys.float_info.min


def _delivery(c_n: float, phi: float, eta_a: float) -> float:
    """s = eta_a / (c_n + 1): the chance that the link (c_n, phi) holds its
    excitation and that it survives the loss eta_a."""
    if not 0.0 < eta_a <= 1.0:
        raise ValueError(f"application efficiency {eta_a} outside (0, 1]")
    check_link(c_n, phi)
    return eta_a / (c_n + 1.0)


def _coincidences(c_n: float, phi: float, eta_a: float, dark_prob: float = 0.0) -> tuple:
    """(T, V): the coincidence probability and the visibility of two links
    (c_n, phi) after loss eta_a on every half, read by threshold detectors
    with dark-count probability ``dark_prob``.

    Each link delivers its photon with probability s, else v = 1 − s.  A
    coincidence needs one detector of each site to click alone, so
    T = (1 − d)² D with D = s²/2 + s² d + 4 s v d + 4 v² d²: one photon at
    each site, both photons at one site and a dark click at the other, one
    photon and a dark click, two dark clicks.  Only the first term carries
    the link's coherence, so V = (s²/2) / D; the phase phi cancels between
    the two links."""
    s = _delivery(c_n, phi, eta_a)
    d = dark_prob
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"dark_count_prob {d} outside [0, 1]")
    v = 1.0 - s
    one_each = s * s / 2
    weight = one_each + s * s * d + 4 * s * v * d + 4 * v * v * d * d
    total = (1.0 - d) ** 2 * weight
    if total < _TINY:
        raise ValueError("no coincidences: correlation undefined")
    return total, one_each / weight


def _result(total: float, visibility: float, delta: float) -> CorrelationResult:
    """The coincidence patterns at the phase difference delta = psi_L − psi_R:
    p_11 = p_22 = (T/4)(1 + V cos delta), p_12 = p_21 = (T/4)(1 − V cos delta)."""
    value = visibility * math.cos(delta)
    same, differ = total / 4 * (1.0 + value), total / 4 * (1.0 - value)
    return CorrelationResult(value=value, coincidence_prob=total,
                             pattern_probs={"11": same, "12": differ, "21": differ, "22": same})


def correlation(c_n: float, phi: float, setting: MeasurementSetting, eta_a: float,
                dark_prob: float = 0.0) -> CorrelationResult:
    """Coincidence correlation E between the two sites.

    Retrieval and detection inefficiencies enter as one lumped loss
    ``eta_a`` per retrieved mode, so the physical coincidence probability is
    ``eta_a^2 / (2 (c_n + 1)^2)``; the loss cancels from E itself.
    """
    return _result(*_coincidences(c_n, phi, eta_a, dark_prob),
                   setting.psi_left - setting.psi_right)


CHSH_SETTINGS = (
    (0.0, math.pi / 4),
    (math.pi / 2, math.pi / 4),
    (math.pi / 2, 3 * math.pi / 4),
    (0.0, 3 * math.pi / 4),
)


def chsh_correlations(c_n: float, phi: float, eta_a: float) -> tuple:
    """``CorrelationResult`` at each of ``CHSH_SETTINGS``, in that order."""
    total, visibility = _coincidences(c_n, phi, eta_a)
    return tuple(_result(total, visibility, a - b) for a, b in CHSH_SETTINGS)


def chsh_combination(results) -> float:
    """|E(0,π/4) + E(π/2,π/4) + E(π/2,3π/4) - E(0,3π/4)| of ``chsh_correlations``."""
    return abs(results[0].value + results[1].value + results[2].value - results[3].value)


def chsh_value(c_n: float, phi: float, eta_a: float) -> float:
    """The CHSH combination of the circuit at (c_n, phi, eta_a)."""
    return chsh_combination(chsh_correlations(c_n, phi, eta_a))


def _key_table(c_n: float, phi: float, eta_a: float) -> list:
    """The four coincidence patterns of ``ekert_simulation``'s settings
    (i, j), each site's phase from {0, π/2}, as row 2 i + j."""
    total, visibility = _coincidences(c_n, phi, eta_a)
    phases = (0.0, math.pi / 2)
    return [list(_result(total, visibility, a - b).pattern_probs.values())
            for a in phases for b in phases]


# rounds per block of ``ekert_simulation``'s draws and counts
_KEY_BLOCK = 8192

KeyStats = namedtuple("KeyStats", ("rounds", "sifted_length", "qber", "coincidence_rate",
                                   "seed"))


def ekert_simulation(c_n: float, phi: float, eta_a: float, rounds: int,
                     seed: int) -> KeyStats:
    """Sampled key-distribution run.

    Per round each site draws its phase setting uniformly from {0, π/2};
    outcomes are sampled from the closed-form coincidence patterns; rounds with
    matching settings and a two-side coincidence are kept.  Bit value is 0
    when detector 1 fires.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if 3 * rounds > DRAW_BUDGET:
        raise InfeasibleError(f"{rounds} rounds need {3 * rounds:.3g} random draws, "
                              f"over the budget of {DRAW_BUDGET:.0e}")
    # the run holds one byte a round, the cell, and a block's temporaries
    # (tracemalloc peak at 1e6 rounds: 1.17 bytes a round at eta_a = 0.5,
    # 1.29 at 1), so the draw budget binds first at the default memory cap
    check_memory(2 * rounds + 64 * _KEY_BLOCK, f"{rounds} rounds")
    table = _key_table(c_n, phi, eta_a)
    import numpy as np

    rng = np.random.default_rng(seed)
    # cell 2 left + right of the two sites' settings, drawn left then right.
    # PCG64 keeps its spare 32-bit half between calls, so the blocked calls
    # draw the stream of one call per site.
    cell = np.empty(rounds, np.uint8)
    blocks = [cell[start:start + _KEY_BLOCK] for start in range(0, rounds, _KEY_BLOCK)]
    for block in blocks:
        block[:] = rng.integers(0, 2, size=block.size)
    cell <<= 1
    for block in blocks:
        block += rng.integers(0, 2, size=block.size).astype(np.uint8)
    # 0..3: patterns 11, 12, 21, 22; 4: no coincidence.  The weights are
    # non-negative, so a round with u at or above every cell's total is no
    # coincidence in any cell: only the other rounds are compared, and the
    # no-coincidence counts, which nothing reads, miss the rest.
    cum = np.cumsum(table, axis=1)
    top = cum[:, 3].max()
    counts = np.zeros(20, np.int64)
    for block in blocks:
        u = rng.random(block.size)
        cand = np.flatnonzero(u < top)
        cand_cell = block.take(cand)
        outcome = sum(u.take(cand) >= col.take(cand_cell) for col in cum.T)
        counts += np.bincount(5 * cand_cell + outcome, minlength=20)
    counts = counts.reshape(4, 5)
    kept = counts[[0, 3], :4]                  # matching settings, coincident
    sifted = int(kept.sum())
    # bit 0 when detector 1 fires (left in 11, 12; right in 11, 21), so the
    # two bits differ in patterns 12 and 21
    qber = int(kept[:, 1:3].sum()) / sifted if sifted else 0.0
    return KeyStats(rounds=rounds, sifted_length=sifted, qber=qber,
                    coincidence_rate=int(counts[:, :4].sum()) / rounds, seed=seed)


# success_prob: an accepted pattern and the excitation present on the right;
# output_fidelity: the post-selected right-side state against the input qubit;
# pattern_prob: an accepted two-click pattern, before confirmation;
# confirm_prob: the excitation found on the right given the pattern
TeleportResult = namedtuple("TeleportResult", ("success_prob", "output_fidelity",
                                               "pattern_prob", "confirm_prob"))


def teleport(qubit: PolarizationQubit, c_n: float, eta_a: float,
             phi: float = 0.0) -> TeleportResult:
    """Probabilistic teleportation through two shared links.

    The sender interferes the input storage modes with its halves of the
    links and accepts the four two-click patterns (i, j): detector i of group
    1 and detector j of group 2 each click alone.  The crossed patterns take a
    conditional π on the second output mode.  Confirmation of an excitation
    on the right purifies away the vacuum components, making the post-selected
    fidelity unity for every qubit, link phase and loss.

    With s = eta_a / (c_n + 1) and k = s², the confirmed weight is k / 4:
    the qubit's photon survives, one link sends its photon to the sender
    through the loss and the other keeps its photon on the right.  The
    pattern weight is k ((3 − eta_a) / 4 + c_n / 2).  k is s·s, not
    eta_a² / (c_n + 1)², which overflows for huge c_n.
    """
    s = _delivery(c_n, phi, eta_a)
    k = s * s
    success_prob = k / 4
    if success_prob < _TINY:
        raise ValueError("no accepted click pattern has support")
    pattern_prob = k * ((3.0 - eta_a) / 4 + c_n / 2)
    return TeleportResult(success_prob=success_prob, output_fidelity=1.0,
                          pattern_prob=pattern_prob,
                          confirm_prob=success_prob / pattern_prob)
