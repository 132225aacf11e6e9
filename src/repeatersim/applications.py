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
from itertools import accumulate

from ._records import Checked, check_in, check_int
from .montecarlo import check_draws, check_memory


class MeasurementSetting(Checked, namedtuple("MeasurementSetting", ("psi_left", "psi_right"))):
    __slots__ = ()

    def _check(self):
        for name, value in zip(self._fields, self):
            check_in("(-inf, inf)", name, value)


class PolarizationQubit(Checked, namedtuple("PolarizationQubit", ("d0", "d1"))):
    """Single excitation shared between two storage modes, amplitudes
    (d0, d1) with |d0|^2 + |d1|^2 = 1."""

    __slots__ = ()

    def _check(self):
        for name, value in zip(self._fields, self):
            check_in("(-inf, inf)", name, abs(value))
        norm = abs(self.d0) ** 2 + abs(self.d1) ** 2
        if not abs(norm - 1.0) <= 1e-12:   # an overflowed norm fails too
            raise ValueError(f"qubit norm {norm} deviates from 1 beyond 1e-12")

    @classmethod
    def from_bloch(cls, theta: float, phi: float) -> "PolarizationQubit":
        check_in("(-inf, inf)", "theta", theta)
        check_in("(-inf, inf)", "phi", phi)
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
    check_in("(0, 1]", "eta_a", eta_a)
    check_in("[0, inf)", "c_n", c_n)
    check_in("(-inf, inf)", "phi", phi)
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
    check_in("[0, 1]", "dark_prob", dark_prob)
    d, v = dark_prob, 1.0 - s
    one_each = s * s / 2
    weight = one_each + s * s * d + 4 * s * v * d + 4 * v * v * d * d
    total = (1.0 - d) ** 2 * weight
    if total < _TINY:
        raise ValueError("no coincidences: correlation undefined")
    return total, one_each / weight


def _patterns(total: float, visibility: float, delta: float) -> tuple:
    """(E, p_same, p_differ) = (V cos δ, T/4 (1 + E), T/4 (1 − E)) at δ = ψ_L − ψ_R."""
    value = visibility * math.cos(delta)
    return value, total / 4 * (1.0 + value), total / 4 * (1.0 - value)


def _result(total: float, visibility: float, delta: float) -> CorrelationResult:
    value, same, differ = _patterns(total, visibility, delta)
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
    """``chsh_combination`` of the circuit at (c_n, phi, eta_a), from E alone."""
    total, visibility = _coincidences(c_n, phi, eta_a)
    e = [_patterns(total, visibility, a - b)[0] for a, b in CHSH_SETTINGS]
    return abs(e[0] + e[1] + e[2] - e[3])


def _key_table(c_n: float, phi: float, eta_a: float) -> list:
    """The patterns 11, 12, 21, 22 of ``ekert_simulation``'s settings
    (i, j), each site's phase from {0, π/2}, as row 2 i + j."""
    total, visibility = _coincidences(c_n, phi, eta_a)
    phases = (0.0, math.pi / 2)
    return [[same, differ, differ, same] for _, same, differ in
            (_patterns(total, visibility, a - b) for a in phases for b in phases)]


# rounds per block of ``ekert_simulation``'s draws and counts
_KEY_BLOCK = 8192

KeyStats = namedtuple("KeyStats", ("rounds", "sifted_length", "qber", "coincidence_rate",
                                   "seed"))


def _key_cells(bit_generator, rounds: int):
    """Cell 2 left + right of each round's settings, read off ``rounds`` raw
    words as ``ekert_simulation`` says.  ``integers(0, 2)`` draws by
    Lemire's bounded multiply by 2, which never rejects, so each 32-bit
    half gives one setting."""
    import numpy as np

    cell = np.empty(rounds, np.uint8)
    for start in range(0, rounds, _KEY_BLOCK):
        words = bit_generator.random_raw(min(_KEY_BLOCK, rounds - start))
        # bit 31 of each half, low half first: the words stored
        # little-endian (the words themselves on a little-endian host) read
        # as 32-bit halves, on either host byte order
        bits = (words.astype("<u8", copy=False).view("<u4") >= 2 ** 31).view(np.uint8)
        half = 2 * start
        n_left = min(max(rounds - half, 0), bits.size)
        left = bits[:n_left]
        np.add(left, left, out=cell[half:half + n_left])
        if n_left < bits.size:
            cell[half + n_left - rounds:half + bits.size - rounds] += bits[n_left:]
    return cell


def _outcomes(u, cell, cum_t):
    """How many of the cumulative pattern weights ``cum_t[:, cell]`` (a
    column of four) each uniform ``u`` is at or above: its pattern 0..3, or
    4 for no coincidence."""
    import numpy as np

    return np.add.reduce(u >= cum_t.take(cell, axis=1), axis=0, dtype=np.uint8)


def ekert_simulation(c_n: float, phi: float, eta_a: float, rounds: int,
                     seed: int) -> KeyStats:
    """Sampled key-distribution run.

    Per round each site draws its phase setting uniformly from {0, π/2};
    outcomes are sampled from the closed-form coincidence patterns; rounds with
    matching settings and a two-side coincidence are kept.  Bit value is 0
    when detector 1 fires.

    The draws are those of ``rng.integers(0, 2, rounds)`` for the left
    settings, the same for the right, then ``rng.random(rounds)``, with
    ``rng = np.random.default_rng(seed)``.  ``integers(0, 2)`` returns bit
    31 of a 32-bit half of a PCG64 word, each word's low half first, so
    ``_key_cells`` reads both sites' settings off ``rounds`` raw words:
    half h is round h's left setting for h < rounds, and round
    h - rounds's right setting after.  The 2 rounds halves fill whole
    words, so PCG64's spare half stays clear and the uniforms read the
    words they would after the two ``integers`` calls.  A round whose
    uniform is at or above every cell's coincidence total is no
    coincidence in any cell, since the weights are non-negative; the other
    rounds, the candidates, are classified by ``_outcomes`` a block of
    ``_KEY_BLOCK`` rounds at a time and counted in one (cell, outcome)
    table.
    """
    check_int(rounds=rounds, seed=seed)
    rounds, seed = int(rounds), int(seed)
    check_in("[1, inf)", "rounds", rounds)
    check_in("[0, 18446744073709551616)", "seed", seed)
    check_draws(rounds, 3, f"{rounds} rounds")
    # the run holds one byte a round, the cell, and a block's temporaries
    # (tracemalloc peak at 1e6 rounds: 1.15 bytes a round at eta_a = 0.5,
    # 1.26 at 1), so the draw budget binds first at the default memory cap
    check_memory(2 * rounds + 64 * _KEY_BLOCK, f"{rounds} rounds")
    table = _key_table(c_n, phi, eta_a)
    import numpy as np

    rng = np.random.default_rng(seed)
    cell = _key_cells(rng.bit_generator, rounds)
    # cum[cell][k]: the cell's weight of patterns 0..k, summed in Python (on
    # a 4 x 4 table NumPy's fixed costs outweigh the work); cum_t[k][cell]
    cum = [list(accumulate(row)) for row in table]
    top = max(row[3] for row in cum)
    cum_t = np.array(cum).T
    # 5 cell + outcome: 0..3 patterns 11, 12, 21, 22, 4 no coincidence; the
    # no-coincidence counts, which nothing reads, miss the rounds that are
    # not candidates
    counts = np.zeros(20, np.int64)
    for start in range(0, rounds, _KEY_BLOCK):
        block = cell[start:start + _KEY_BLOCK]
        u = rng.random(block.size)
        cand = (u < top).nonzero()[0]
        # the candidates' uniforms and cells, rebound so that the block's
        # uniforms and indices are freed before the thresholds are gathered
        u, cand = u.take(cand), block.take(cand)
        counts += np.bincount(5 * cand + _outcomes(u, cand, cum_t), minlength=20)
    counts = counts.tolist()
    by_cell = [counts[c:c + 4] for c in range(0, 20, 5)]   # coincident rounds by pattern
    kept = by_cell[0] + by_cell[3]             # matching settings
    sifted = sum(kept)
    # bit 0 when detector 1 fires (left in 11, 12; right in 11, 21), so the
    # two bits differ in patterns 12 and 21
    qber = (kept[1] + kept[2] + kept[5] + kept[6]) / sifted if sifted else 0.0
    return KeyStats(rounds=rounds, sifted_length=sifted, qber=qber,
                    coincidence_rate=sum(map(sum, by_cell)) / rounds, seed=seed)


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
