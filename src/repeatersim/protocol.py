"""Entanglement generation and swapping: analytic recursion layer plus
brute-force Fock-circuit oracles that re-derive every analytic quantity.

The entangled-link descriptor mixes a vacuum component of relative weight
``c`` with a shared single excitation; each swap doubles the span and maps
``c -> 2c + 1 - eta_s`` while succeeding with probability
``eta_s (1 - eta_s / (2(c+1))) / (c+1)``.

The analytic layer is plain Python; the oracles import NumPy and the Fock
engine on their first call, so the analytic commands never load them.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import fock

# analytic swap inputs must have equal vacuum coefficients
_C_MATCH_TOL = 1e-12


class ChainStallError(RuntimeError):
    """A per-level success probability collapsed to (numerically) zero."""


class InfeasibleError(ValueError):
    """A request that cannot be met: a fidelity budget no excitation level
    reaches, or a Monte Carlo run over its draw budget."""


class EMEState(namedtuple("EMEState", ("vacuum_coeff", "phase", "fidelity_deficit",
                                     "span_length"), defaults=(0.0, 0.0, 0.0))):
    """Effective maximally entangled link: vacuum weight c/(c+1), shared
    single excitation weight 1/(c+1), accumulated channel phase, linearized
    fidelity deficit, and span in attenuation lengths."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # written so a NaN fails: an infinite vacuum_coeff or phase stays legal
        if not self.vacuum_coeff >= 0:
            raise ValueError(f"vacuum_coeff must be >= 0, got {self.vacuum_coeff}")
        if not 0.0 <= self.fidelity_deficit <= 1.0:
            raise ValueError(f"fidelity_deficit {self.fidelity_deficit} outside [0, 1]")
        if not self.span_length >= 0:
            raise ValueError(f"span_length must be >= 0, got {self.span_length}")
        return self


class RepeaterParams(namedtuple("RepeaterParams", (
        "excitation_prob", "pulse_time", "local_efficiency", "swap_efficiency",
        "app_efficiency", "dark_prob", "attenuation_length", "segment_length", "levels"),
        defaults=(1.0, 1.0, 0))):
    """Full protocol parameter set: p_c, t_Delta, eta_p' (the
    distance-independent part), eta_s, eta_a, p_dc per detection window,
    L_att, L_0 and n doublings.

    Lengths are in units of the attenuation length unless
    ``attenuation_length`` is set to a physical value; times are seconds.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        checks = [
            ("excitation_prob", 0.0 < self.excitation_prob < 1.0),
            ("pulse_time", 0.0 < self.pulse_time < math.inf),
            ("local_efficiency", 0.0 < self.local_efficiency <= 1.0),
            ("swap_efficiency", 0.0 < self.swap_efficiency <= 1.0),
            ("app_efficiency", 0.0 < self.app_efficiency <= 1.0),
            ("dark_prob", 0.0 <= self.dark_prob < 1.0),
            ("attenuation_length", 0.0 < self.attenuation_length < math.inf),
            ("segment_length", 0.0 < self.segment_length < math.inf),
            ("levels", self.levels >= 0),
        ]
        for name, ok in checks:
            if not ok:
                raise ValueError(f"{name} = {getattr(self, name)} outside its valid range")
        return self

    @property
    def eta_p(self) -> float:
        """Overall generation efficiency including segment attenuation."""
        return self.local_efficiency * math.exp(-self.segment_length / self.attenuation_length)

    @property
    def total_length(self) -> float:
        return 2 ** self.levels * self.segment_length

    def with_(self, **overrides) -> "RepeaterParams":
        """A copy with ``overrides``, checked."""
        return self._replace(**overrides)


# ---------------------------------------------------------------------------
# analytic layer


GenerationResult = namedtuple("GenerationResult", ("state", "click_prob", "t0"))


def generate_analytic(params: RepeaterParams, channel_phase: float = 0.0) -> GenerationResult:
    """Leading-order entanglement generation across one segment.

    Click probability carries the additive dark-count term; the vacuum
    coefficient is the dark-to-signal click ratio.  ``fidelity_deficit = p_c``
    is the paper's per-link budget unit; the threshold-herald oracle
    (``generate_oracle``) measures (3 - 2 eta_p) p_c to leading order.
    """
    signal = params.eta_p * params.excitation_prob
    if signal <= 0.0:
        # level 0 never heralds a link: the chain stalls at its first level
        raise ChainStallError("degenerate all-dark generation: eta_p * p_c vanished")
    state = EMEState(
        vacuum_coeff=params.dark_prob / signal,
        phase=channel_phase,
        fidelity_deficit=params.excitation_prob,
        span_length=params.segment_length / params.attenuation_length,
    )
    return GenerationResult(state=state, click_prob=signal + params.dark_prob,
                            t0=params.pulse_time / signal)


def swap_analytic(left: EMEState, right: EMEState, eta_s: float):
    """One entanglement connection of two equal-coefficient links.

    Returns ``(success_prob, fused_state)``.  Defined only for matching
    vacuum coefficients; unequal inputs must go through the circuit oracle.
    """
    if not 0.0 < eta_s <= 1.0:
        raise ValueError(f"swap efficiency {eta_s} outside (0, 1]")
    if abs(left.vacuum_coeff - right.vacuum_coeff) > _C_MATCH_TOL:
        raise ValueError(
            "analytic swap requires equal vacuum coefficients "
            f"({left.vacuum_coeff} vs {right.vacuum_coeff}); use swap_oracle"
        )
    c = left.vacuum_coeff
    p = eta_s * (1.0 - eta_s / (2.0 * (c + 1.0))) / (c + 1.0)
    out = EMEState(
        # 2c + 1 - eta, associated to avoid cancellation at small c
        vacuum_coeff=2.0 * c + (1.0 - eta_s),
        phase=left.phase + right.phase,
        fidelity_deficit=min(1.0, left.fidelity_deficit + right.fidelity_deficit),
        span_length=left.span_length + right.span_length,
    )
    return p, out


def vacuum_coeff_closed_form(i: int, eta_s: float, c0: float = 0.0) -> float:
    """Exact solution 2^i c0 + (2^i - 1)(1 - eta_s) of the affine recursion."""
    if i < 0:
        raise ValueError("level must be >= 0")
    return (2.0 ** i) * c0 + (2.0 ** i - 1.0) * (1.0 - eta_s)


# length in attenuation lengths; success_prob the click probability at level
# 0, the swap probability above; elapsed_time in seconds
ChainLevel = namedtuple("ChainLevel", ("level", "length", "vacuum_coeff", "success_prob",
                                       "fidelity_deficit", "elapsed_time"))


def chain(params: RepeaterParams, channel_phase: float = 0.0) -> list[ChainLevel]:
    """Per-level state of the doubling chain, levels 0..n.

    Cumulative time follows the multiplicative rule T_i = T_{i-1} / p_i.
    Raises ``OverflowError`` naming the first level whose T_i is not finite.
    """
    gen = generate_analytic(params, channel_phase)
    state = gen.state
    rows = [ChainLevel(0, state.span_length, state.vacuum_coeff, gen.click_prob,
                       state.fidelity_deficit, gen.t0)]
    t = gen.t0
    for i in range(1, params.levels + 1):
        p, state = swap_analytic(state, state, params.swap_efficiency)
        if p < 1e-12:
            raise ChainStallError(f"success probability {p} at level {i}")
        t /= p
        rows.append(ChainLevel(i, state.span_length, state.vacuum_coeff, p,
                               state.fidelity_deficit, t))
    for row in rows:
        if not math.isfinite(row.elapsed_time):
            raise OverflowError(f"time T_{row.level} = {row.elapsed_time} s at level "
                                f"{row.level} overflows a float")
    return rows


# ---------------------------------------------------------------------------
# circuit oracles


@functools.cache
def _engines():
    """``(numpy, fock)``, imported by the first oracle call.  Memoised: an
    import statement costs about 1 us a call, a tenth of ``eme_density``."""
    import numpy as np

    from . import fock

    return np, fock


def check_link(c: float, phase: float):
    """Refuse a link vacuum coefficient that is not finite and non-negative,
    or a link phase that is not finite."""
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError(f"link vacuum coefficient c = {c} must be finite and non-negative")
    if not math.isfinite(phase):
        raise ValueError(f"link phase {phase} must be finite")


def eme_density(layout: fock.ModeLayout, pair, c: float, phase: float,
                etas=(1.0, 1.0)) -> fock.DensityOperator:
    """Link density operator embedded in ``layout`` with all other modes in
    vacuum: the vacuum with weight c and the shared excitation
    |a⟩ = (|1_a⟩ + e^{i phase} |1_b⟩)/√2, over c + 1, after loss η_m on the
    pair's mode m.  Loss only moves weight into the vacuum, so the factor
    keeps two columns: the vacuum with weight (c + Σ_m (1 − η_m) |a_m|²)/(c + 1)
    and the excitation √η_m a_m / √(c + 1)."""
    layout.check_pair(*pair, "link")
    check_link(c, phase)
    if len(etas) != 2:
        raise ValueError(f"etas needs one efficiency per link mode, got {etas!r}")
    for m, eta in enumerate(etas):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"link efficiency etas[{m}] = {eta} outside [0, 1]")
    np, fock = _engines()
    root = math.sqrt(c + 1.0)
    amps = (math.sqrt(0.5), complex(math.cos(phase), math.sin(phase)) * math.sqrt(0.5))
    lost = sum((1.0 - eta) * abs(a) ** 2 for a, eta in zip(amps, etas))
    factor = np.zeros((layout.dim, 2), dtype=complex)
    factor[0, 0] = math.sqrt(c + lost) / root
    # |1_m⟩ sits at index d^(n-1-m): mode 0 is the most significant digit
    excited = [layout.mode_dim ** (layout.modes - 1 - m) for m in pair]
    factor[excited, 1] = [math.sqrt(eta) * a / root for a, eta in zip(amps, etas)]
    return fock.DensityOperator.from_factor(layout, factor)


GenerationOracleResult = namedtuple("GenerationOracleResult",
                                    ("c_measured", "infidelity", "click_prob"))


@functools.lru_cache(maxsize=16)
def _atom_rows(cutoff: int, max_atoms: int):
    """0/1 mask of the generation circuit's basis states (atom_L, phot_L,
    atom_R, phot_R) with at most ``max_atoms`` atomic excitations in all
    (read-only, memoised)."""
    np, _ = _engines()
    occ = np.indices([cutoff + 1] * 4).reshape(4, -1)
    mask = (occ[0] + occ[2] <= max_atoms).astype(float)
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=16)
def _herald(cutoff: int, p_dc: float):
    """The balanced splitter on the (phot_L, phot_R) pair index, its output
    rows weighed by the herald's √POVM: a click on the plus port phot_R and
    none on the minus port phot_L, detector 2 alone.  Rows of zero weight
    are dropped (read-only, memoised)."""
    np, fock = _engines()
    root = np.sqrt(fock.alone_weights(cutoff, p_dc)[1])
    seen = np.flatnonzero(root)
    rows = root[seen, None] * fock.beamsplitter_matrix(cutoff, math.pi / 4, 0.0)[seen]
    rows.flags.writeable = False
    return rows


def generation_circuit(p_c: float, eta_p: float, p_dc: float,
                       channel_phase: float = 0.0, cutoff: int = 4,
                       include_second_order: bool = True):
    """Exact generation circuit: two squeezed-pair sources, channel loss, a
    balanced beamsplitter and one heralding click.

    Returns ``(joint click probability, conditional 2-mode atomic state)``
    with the click taken on the port that heralds the plus-superposition.
    """
    if not (math.isfinite(p_c) and 0.0 <= p_c <= 1.0):
        raise ValueError(f"excitation probability p_c = {p_c} outside [0, 1]")
    if not 0.0 <= eta_p <= 1.0:
        raise ValueError(f"generation efficiency eta_p = {eta_p} outside [0, 1]")
    if not math.isfinite(channel_phase):
        raise ValueError(f"channel phase {channel_phase} must be finite")
    if cutoff < 2 and include_second_order:
        raise ValueError(f"the second-order source term |2,2⟩ needs cutoff >= 2, got {cutoff}")
    np, fock = _engines()
    layout4 = fock.ModeLayout(4, cutoff)      # atom_L, phot_L, atom_R, phot_R
    d = layout4.mode_dim
    # each side's source has amplitudes (1, √p_c, p_c) on |n, n⟩, the last the
    # squeezed-expansion amplitude tanh^2 r.  Loss keeps the atom number, so
    # its Kraus image k of |n, n⟩ is |n, n - k⟩ with weight
    # √(C(n, k) η^{n-k} (1 - η)^k), and the right side's rows carry the
    # channel phase e^{iφ(n-k)}.  Side factors are held rank index first.
    sides = np.zeros((2, 3, d, d), dtype=complex)
    e_phi = complex(math.cos(channel_phase), math.sin(channel_phase))
    for n, amp in enumerate((1.0, math.sqrt(p_c), p_c)[:d]):
        for k in range(n + 1):
            w = amp * math.sqrt(math.comb(n, k) * eta_p ** (n - k) * (1.0 - eta_p) ** k)
            sides[:, k, n, n - k] = w, w * e_phi ** (n - k)
    left, right = sides.reshape(2, 3, d * d)
    # V^T: the products of fock.tensor's broadcast, rank index first, so each
    # pass below runs along the d^4 rows
    vt = (left[:, None, :, None] * right[None, :, None, :]).reshape(9, layout4.dim)
    # the ideal case drops every probability-p_c^2 term, including the
    # one-excitation-per-side cross product; the loss keeps the atom number,
    # so the cut commutes with it (each side holds at most two atoms)
    vt *= _atom_rows(cutoff, 4 if include_second_order else 1)
    vt *= 1.0 / math.sqrt(np.vdot(vt, vt).real)
    rho = fock.DensityOperator.from_factor(layout4, vt.T)
    # the herald's weighted splitter rows on (phot_L, phot_R) join the rank
    unnorm = fock.herald(rho, (1, 3), _herald(cutoff, p_dc)).swapaxes(0, 1).reshape(d * d, -1)
    return fock.normalize_outcome(fock.ModeLayout(2, cutoff), unnorm)


def generate_oracle(params: RepeaterParams, cutoff: int = 4,
                    channel_phase: float = 0.0,
                    include_second_order: bool = True) -> GenerationOracleResult:
    """Measure the analytic generation claims on the exact circuit.

    ``c_measured`` is the conditional vacuum-to-single-excitation population
    ratio; ``infidelity`` is the conditional weight outside the ideal link
    support (vacuum plus the plus-superposition), the multi-excitation noise
    that survives a single click.  It is summed from non-negative terms, the
    population above one excitation plus the minus-superposition weight, so
    no O(1) terms cancel.
    """
    np, fock = _engines()
    prob, rho = generation_circuit(params.excitation_prob, params.eta_p,
                                   params.dark_prob, channel_phase, cutoff,
                                   include_second_order)
    vac = rho.population((0, 0))
    singles = rho.population((1, 0)) + rho.population((0, 1))
    n = np.arange(rho.layout.mode_dim)
    multi = float(fock.marginal(rho, (0, 1))[np.add.outer(n, n) > 1].sum())
    psi_minus = fock.pure_state(rho.layout, {
        (1, 0): 1.0 / math.sqrt(2.0),
        (0, 1): -complex(math.cos(channel_phase), math.sin(channel_phase)) / math.sqrt(2.0),
    }, normalize=False)
    return GenerationOracleResult(
        c_measured=vac / singles,
        infidelity=multi + fock.fidelity(rho, psi_minus),
        click_prob=prob,
    )


# post_states: the conditional link states of the two herald patterns
SwapOracleResult = namedtuple("SwapOracleResult", ("success_prob", "c_measured",
                                                   "post_states"))


def swap_oracle(c: float, eta_s: float, cutoff: int = 2,
                phase_left: float = 0.0, phase_right: float = 0.0) -> SwapOracleResult:
    """Exact entanglement connection of two links with coefficient ``c``.

    Retrieval and detection losses are lumped into ``eta_s`` ahead of the
    balanced beamsplitter; the herald is exactly one detected photon, the
    event the analytic recursion counts (a two-photon event that loses one
    photon is indistinguishable from it and feeds the vacuum term).
    """
    _, fock = _engines()
    if not 0.0 < eta_s <= 1.0:
        raise ValueError(f"swap efficiency {eta_s} outside (0, 1]")
    # modes L, I1, I2, R; loss on the inner halves before the tensor product
    layout = fock.ModeLayout(2, cutoff)
    rho = fock.tensor(eme_density(layout, (0, 1), c, phase_left, (1.0, eta_s)),
                      eme_density(layout, (0, 1), c, phase_right, (eta_s, 1.0)))
    # herald patterns: exactly one photon on I1 or I2, splitter rows |1, 0⟩, |0, 1⟩
    rows = fock.beamsplitter_matrix(cutoff, math.pi / 4, 0.0)[
        [layout.index((1, 0)), layout.index((0, 1))]]
    probs, post = zip(*(fock.normalize_outcome(layout, unnorm)
                        for unnorm in fock.herald(rho, (1, 2), rows)))
    # populations of the two conditional states mixed by probability
    vac = sum(p * cond.population((0, 0)) for p, cond in zip(probs, post))
    singles = sum(p * (cond.population((1, 0)) + cond.population((0, 1)))
                  for p, cond in zip(probs, post))
    return SwapOracleResult(success_prob=sum(probs), c_measured=vac / singles,
                            post_states=post)
