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
from .protocol import lossy_link
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


def _site_view(rho: fock.DensityOperator) -> np.ndarray:
    """The factor of the link pair ``rho`` (modes L1, R1, L2, R2 of ``_PAIR``)
    with axes (L1 L2, R1 R2 rank), read-only, once neither site's splitter
    pair has support above the cutoff."""
    L1, R1, L2, R2 = 0, 1, 2, 3
    # a number-basis phase keeps every number marginal and the L splitter leaves
    # (R1, R2) alone: the gate chain's splitters see the input pair's support
    fock._check_pair_support(rho, [(L1, L2), (R1, R2)], "beamsplitter")
    d = _PAIR.mode_dim
    v = rho.factor.reshape(d, d, d, d, -1).transpose(L1, L2, R1, R2, 4).reshape(d * d, -1)
    v.flags.writeable = False
    return v


@functools.lru_cache(maxsize=64)
def _link_pair(c_n: float, phi: float, eta_a: float) -> np.ndarray:
    """``_site_view`` of the two lossy links (L1, R1) and (L2, R2) a
    correlation circuit reads, memoised per distinct link: a correlation
    surface, the CHSH settings and a key run on one link build it once."""
    pair = _link(c_n, phi, (eta_a, eta_a))
    return _site_view(fock.tensor(pair, pair))


def _correlations(v: np.ndarray, settings, dark_prob: float = 0.0) -> tuple:
    """``correlation`` at each of ``settings`` on the site view ``v`` of
    ``_link_pair``, one ``CorrelationResult`` per setting in order; nothing
    here is cached."""
    cutoff, d = _PAIR.cutoff, _PAIR.mode_dim
    # per setting and site (L, R), the phase e^{iψn} on the first mode and the
    # balanced splitter fused into one unitary on the site's d² pair index
    psi = np.array([(s.psi_left, s.psi_right) for s in settings])
    phases = np.exp(1j * psi[..., None] * np.repeat(np.arange(d), d))
    u = fock.beamsplitter_matrix(cutoff, math.pi / 4, 0.0) * phases[..., None, :]
    # one batched matmul per site
    out = u[:, 1, None] @ (u[:, 0] @ v).reshape(len(settings), d * d, d * d, -1)
    pops = (out.real ** 2 + out.imag ** 2).sum(axis=-1)   # (L1 L2, R1 R2) marginals
    # threshold POVMs are diagonal, so a pattern's probability is the number
    # marginal weighted by "detector i alone clicks"
    alone = fock.alone_weights(cutoff, dark_prob)
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
    # per round: the cell and the uniform, and for a candidate round its
    # index, cell, uniform and outcome (tracemalloc peak: 21 bytes at
    # eta_a = 0.5, 37 at the largest coincidence weight of a link, 1/2)
    check_memory(56 * rounds, f"{rounds} rounds")
    settings = [MeasurementSetting(a, b) for a in (0.0, math.pi / 2) for b in (0.0, math.pi / 2)]
    # row 2i + j for settings (i, j): the four coincidence patterns
    table = [list(res.pattern_probs.values())
             for res in _correlations(_link_pair(c_n, phi, eta_a), settings)]
    rng = np.random.default_rng(seed)
    # cell 2 left + right of the two sites' settings, drawn left then right
    cell = 2 * rng.integers(0, 2, size=rounds)
    cell += rng.integers(0, 2, size=rounds)
    u = rng.random(rounds)
    # 0..3: patterns 11, 12, 21, 22; 4: no coincidence.  The weights are
    # non-negative, so a round with u at or above every cell's total is no
    # coincidence in any cell: only the other rounds are compared, and the
    # no-coincidence counts, which nothing reads, miss the rest.
    cum = np.cumsum(table, axis=1)
    cand = np.flatnonzero(u < cum[:, 3].max())
    cand_cell = cell.take(cand)
    outcome = sum(u.take(cand) >= col.take(cand_cell) for col in cum.T)
    counts = np.bincount(5 * cand_cell + outcome, minlength=20).reshape(4, 5)
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


# the lossy qubit's (I1, I2) number states: its vacuum |00⟩ and its single
# excitations |10⟩, |01⟩
_QUBIT_STATES = [_PAIR.index((0, 0)), *_SINGLES]


@functools.lru_cache(maxsize=64)
def _teleport_response(c_n: float, phi: float, eta_a: float) -> tuple:
    """The teleport circuit on the link (c_n, phi, eta_a) as two read-only
    tables over pairs (b, c) of the qubit's ``_QUBIT_STATES``, memoised per
    distinct link.  With S_b the output of the sender splitters on
    |b⟩ ⊗ link ⊗ link, summed over the sender index and the rank:

    - R[right, b c] = Σ (w_straight + w_crossed) S_b S̄_c, the accepted
      weight of each (R1, R2) number state;
    - F[kind, t, u, b c] = Σ w_kind S_b[t] S̄_c[u] on the target's single
      excitations t, u (``_SINGLES``), for the straight (i = j) and the
      crossed (i ≠ j) patterns.

    A qubit with factor Q on those states enters through its Gram M = Q Q†,
    contracted with R and F by ``teleport``."""
    pair = fock.tensor(*[_link(c_n, phi, (eta_a, 1.0))] * 2)   # sender halves lossy
    d, r = _PAIR.mode_dim, pair.factor.shape[1]
    # the inputs |b⟩ ⊗ pair fill disjoint rows, so their sum has the support
    # of each: one read checks both sender splitters for all three
    joint = np.zeros((d * d, d ** 4, r), dtype=complex)
    joint[_QUBIT_STATES] = pair.factor
    # modes I1, I2, L1, R1, L2, R2; the splitters act on (I1, L1) and (I2, L2)
    fock._check_pair_support(fock.DensityOperator.from_factor(
        fock.ModeLayout(6, _PAIR.cutoff), joint.reshape(d ** 6, r)), [(0, 2), (1, 4)],
        "beamsplitter")

    # Group 1 detectors sit on the (I1, L1) splitter outputs x, group 2 on the
    # (I2, L2) outputs y.  Pattern (i, j) weighs them by alone[i] ⊗ alone[j],
    # so only the outputs where some detector clicks alone are formed.
    alone = fock.alone_weights(_PAIR.cutoff)
    read = np.flatnonzero(alone.any(axis=0))
    n = len(read)
    # the splitter rows x on the inputs with i = 0, 1 photons in I: (i x, L)
    u = fock.beamsplitter_matrix(_PAIR.cutoff, math.pi / 4, 0.0).reshape(d * d, d, d)
    u = u[read, :2].transpose(1, 0, 2).reshape(2 * n, d)
    # S[i2 y, i1 x, R1 R2, rank] = Σ u[i1 x, L1] u[i2 y, L2] pair[L1 R1 L2 R2, rank]
    s = (u @ pair.factor.reshape(d, -1)).reshape(2 * n, d, d, d * r)
    s = (u @ s.transpose(2, 0, 1, 3).reshape(d, -1)).reshape(2, n, 2, n, d * d, r)
    # rows (R1 R2, b) for the inputs b, columns (x, y, rank)
    i1, i2 = zip(*(divmod(b, d) for b in _QUBIT_STATES))
    s = s[i2, :, i1].transpose(3, 0, 2, 1, 4).reshape(d * d, 3, n * n * r)
    # sender weights of the straight and the crossed patterns on (x, y, rank)
    a = alone[:, read]
    kinds = np.repeat(np.stack([a.T @ a, a.T @ a[::-1]]).reshape(2, -1), r, axis=1)
    right = (s * kinds.sum(axis=0)) @ s.conj().transpose(0, 2, 1)
    single = s[_SINGLES].reshape(2 * 3, -1)
    fid = ((single * kinds[:, None]) @ single.conj().T).reshape(2, 2, 3, 2, 3)
    right, fid = right.reshape(d * d, 9), fid.transpose(0, 1, 3, 2, 4).reshape(2, 2, 2, 9)
    right.flags.writeable = fid.flags.writeable = False
    return right, fid


def teleport(qubit: PolarizationQubit, c_n: float, eta_a: float,
             phi: float = 0.0) -> TeleportResult:
    """Probabilistic teleportation through two shared links.

    The sender interferes the input storage modes with its halves of the
    links and accepts the four two-click patterns (i, j): detector i of group
    1 and detector j of group 2 each click alone.  The crossed patterns take a
    conditional π on the second output mode.  Confirmation of an excitation
    on the right purifies away the vacuum components, making the post-selected
    fidelity unity.

    The link's part is ``_teleport_response``, built once per link; a call on
    a built link forms the qubit's 3 × 3 Gram and two small contractions.  Each
    pattern's p·w·f (probability, confirmation weight, fidelity) is the
    unnormalised overlap ‖ψ† V_ij‖², so no conditional state is formed.
    """
    right, fid = _teleport_response(c_n, phi, eta_a)
    # the qubit's factor Q on ``_QUBIT_STATES`` after loss eta_a on both
    # modes, as ``protocol.lossy_input`` builds it: a vacuum and an excitation column
    amps = (qubit.d0, qubit.d1)
    vac = math.sqrt(sum((1.0 - eta_a) * abs(a) ** 2 for a in amps))
    q = np.array([[vac, 0.0], [0.0, math.sqrt(eta_a) * amps[0]],
                  [0.0, math.sqrt(eta_a) * amps[1]]])
    gram = (q @ q.conj().T).ravel()
    right = (right @ gram).real
    pattern_prob = float(right.sum())
    success_prob = float(right[_SINGLES[0]] + right[_SINGLES[1]])
    if success_prob < _TINY:
        raise ValueError("no accepted click pattern has support")
    # the crossed patterns' π on R2 negates the target's |0,1⟩ amplitude
    psi = np.array([[qubit.d0, qubit.d1], [qubit.d0, -qubit.d1]])[:, :, None]
    fidelity_acc = float((psi.conj().transpose(0, 2, 1) @ (fid @ gram) @ psi).real.sum())
    return TeleportResult(success_prob=success_prob,
                          output_fidelity=fidelity_acc / success_prob,
                          pattern_prob=pattern_prob,
                          confirm_prob=success_prob / pattern_prob)
