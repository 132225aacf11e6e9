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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import fock

# analytic swap inputs must have equal vacuum coefficients
_C_MATCH_TOL = 1e-12


class ChainStallError(RuntimeError):
    """A per-level success probability collapsed to (numerically) zero."""


@dataclass(frozen=True)
class EMEState:
    """Effective maximally entangled link: vacuum weight c/(c+1), shared
    single excitation weight 1/(c+1), accumulated channel phase, linearized
    fidelity deficit, and span in attenuation lengths."""

    vacuum_coeff: float
    phase: float = 0.0
    fidelity_deficit: float = 0.0
    span_length: float = 0.0

    def __post_init__(self):
        if self.vacuum_coeff < 0:
            raise ValueError(f"vacuum_coeff must be >= 0, got {self.vacuum_coeff}")
        if not 0.0 <= self.fidelity_deficit <= 1.0:
            raise ValueError(f"fidelity_deficit {self.fidelity_deficit} outside [0, 1]")
        if self.span_length < 0:
            raise ValueError("span_length must be >= 0")

    @property
    def entangled_fraction(self) -> float:
        return 1.0 / (self.vacuum_coeff + 1.0)


@dataclass(frozen=True)
class RepeaterParams:
    """Full protocol parameter set.

    Lengths are in units of the attenuation length unless
    ``attenuation_length`` is set to a physical value; times are seconds.
    """

    excitation_prob: float        # p_c
    pulse_time: float             # t_Delta, seconds
    local_efficiency: float       # eta_p' (distance-independent part)
    swap_efficiency: float        # eta_s
    app_efficiency: float         # eta_a
    dark_prob: float              # p_dc per detection window
    attenuation_length: float = 1.0
    segment_length: float = 1.0   # L_0
    levels: int = 0               # n doublings

    def __post_init__(self):
        checks = [
            ("excitation_prob", 0.0 < self.excitation_prob < 1.0),
            ("pulse_time", self.pulse_time > 0.0),
            ("local_efficiency", 0.0 < self.local_efficiency <= 1.0),
            ("swap_efficiency", 0.0 < self.swap_efficiency <= 1.0),
            ("app_efficiency", 0.0 < self.app_efficiency <= 1.0),
            ("dark_prob", 0.0 <= self.dark_prob < 1.0),
            ("attenuation_length", self.attenuation_length > 0.0),
            ("segment_length", self.segment_length > 0.0),
            ("levels", self.levels >= 0),
        ]
        for name, ok in checks:
            if not ok:
                raise ValueError(f"{name} = {getattr(self, name)} outside its valid range")

    @property
    def eta_p(self) -> float:
        """Overall generation efficiency including segment attenuation."""
        return self.local_efficiency * math.exp(-self.segment_length / self.attenuation_length)

    @property
    def total_length(self) -> float:
        return 2 ** self.levels * self.segment_length

    def with_(self, **overrides) -> "RepeaterParams":
        return replace(self, **overrides)


# ---------------------------------------------------------------------------
# analytic layer


@dataclass(frozen=True)
class GenerationResult:
    state: EMEState
    click_prob: float
    t0: float


def generate_analytic(params: RepeaterParams, channel_phase: float = 0.0) -> GenerationResult:
    """Leading-order entanglement generation across one segment.

    Click probability carries the additive dark-count term; the vacuum
    coefficient is the dark-to-signal click ratio.  ``fidelity_deficit = p_c``
    is the paper's per-link budget unit; the threshold-herald oracle
    (``generate_oracle``) measures (3 - 2 eta_p) p_c to leading order.
    """
    signal = params.eta_p * params.excitation_prob
    if signal <= 0.0:
        raise ValueError("degenerate all-dark generation: eta_p * p_c vanished")
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


@dataclass(frozen=True)
class ChainLevel:
    level: int
    length: float            # units of attenuation length
    vacuum_coeff: float
    success_prob: float      # click probability at level 0, swap probability above
    fidelity_deficit: float
    elapsed_time: float      # seconds


def chain(params: RepeaterParams, channel_phase: float = 0.0) -> list[ChainLevel]:
    """Per-level state of the doubling chain, levels 0..n.

    Cumulative time follows the multiplicative rule T_i = T_{i-1} / p_i.
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


def eme_density(layout: fock.ModeLayout, pair, c: float, phase: float) -> fock.DensityOperator:
    """Link density operator embedded in ``layout`` with all other modes in
    vacuum: rank 2, the vacuum with weight c and the shared excitation
    (|1_a⟩ + e^{i phase} |1_b⟩)/√2, over c + 1."""
    check_link(c, phase)
    np, fock = _engines()
    factor = np.zeros((layout.dim, 2), dtype=complex)
    factor[0, 0] = math.sqrt(c)
    for mode, amp in zip(pair, (1.0, complex(math.cos(phase), math.sin(phase)))):
        one = tuple(1 if m == mode else 0 for m in range(layout.modes))
        factor[layout.index(one), 1] = amp / math.sqrt(2.0)
    return fock.DensityOperator.from_factor(layout, factor / math.sqrt(c + 1.0))


def lossy_input(layout: fock.ModeLayout, c: float, amps, etas) -> fock.DensityOperator:
    """The state (c |00⟩⟨00| + |a⟩⟨a|)/(c + 1) on the two-mode ``layout``,
    |a⟩ = a_0 |10⟩ + a_1 |01⟩ of unit norm, after loss η_m on mode m.  Loss
    only moves weight into the vacuum, so the factor keeps two columns: the
    vacuum with weight (c + Σ_m (1 − η_m) |a_m|²)/(c + 1) and the excitation
    √η_m a_m / √(c + 1)."""
    np, fock = _engines()
    root = math.sqrt(c + 1.0)
    lost = sum((1.0 - eta) * abs(a) ** 2 for a, eta in zip(amps, etas))
    factor = np.zeros((layout.dim, 2), dtype=complex)
    factor[0, 0] = math.sqrt(c + lost) / root
    factor[[layout.mode_dim, 1], 1] = [math.sqrt(eta) * a / root for a, eta in zip(amps, etas)]
    return fock.DensityOperator.from_factor(layout, factor)


def lossy_link(layout: fock.ModeLayout, c: float, phase: float, etas) -> fock.DensityOperator:
    """``eme_density(layout, (0, 1), c, phase)`` after loss η_m on mode m,
    built in closed form by ``lossy_input``."""
    check_link(c, phase)
    e_phi = complex(math.cos(phase), math.sin(phase))
    return lossy_input(layout, c, (math.sqrt(0.5), e_phi * math.sqrt(0.5)), etas)


@dataclass(frozen=True)
class GenerationOracleResult:
    c_measured: float
    infidelity: float
    click_prob: float


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
    none on the minus port phot_L.  Rows of zero weight are dropped
    (read-only, memoised)."""
    np, fock = _engines()
    silent = fock.DetectorModel(efficiency=1.0, dark_count_prob=p_dc).no_click_weights(cutoff)
    root = np.sqrt(np.multiply.outer(silent, 1.0 - silent)).reshape(-1)
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
    fock._check_pair_support(rho, [(1, 3)], "beamsplitter")

    # V with axes (phot_L phot_R, atom_L atom_R rank): the splitter and the
    # herald weights are one matmul on the pair index, which then joins the rank
    r = rho.factor.shape[1]
    t = rho.factor.reshape(d, d, d, d, r).transpose(1, 3, 0, 2, 4).reshape(d * d, -1)
    out = _herald(cutoff, p_dc) @ t
    unnorm = out.reshape(len(out), d * d, r).transpose(1, 0, 2).reshape(d * d, len(out) * r)
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


@dataclass(frozen=True)
class SwapOracleResult:
    success_prob: float
    c_measured: float
    post_states: tuple    # conditional link states for the two herald patterns


def swap_oracle(c: float, eta_s: float, cutoff: int = 2,
                phase_left: float = 0.0, phase_right: float = 0.0) -> SwapOracleResult:
    """Exact entanglement connection of two links with coefficient ``c``.

    Retrieval and detection losses are lumped into ``eta_s`` ahead of the
    balanced beamsplitter; the herald is exactly one detected photon, the
    event the analytic recursion counts (a two-photon event that loses one
    photon is indistinguishable from it and feeds the vacuum term).
    """
    np, fock = _engines()
    if not 0.0 < eta_s <= 1.0:
        raise ValueError(f"swap efficiency {eta_s} outside (0, 1]")
    # modes L, I1, I2, R; loss on the inner halves before the tensor product
    layout = fock.ModeLayout(2, cutoff)
    rho = fock.tensor(lossy_link(layout, c, phase_left, (1.0, eta_s)),
                      lossy_link(layout, c, phase_right, (eta_s, 1.0)))
    rho = fock.apply_beamsplitter(rho, 1, 2)

    # herald patterns: exactly one photon, on the I1 or the I2 output
    one, none = np.eye(cutoff + 1)[[1, 0]]
    probs, post = zip(*(fock.condition(rho, {1: a, 2: b}) for a, b in ((one, none), (none, one))))
    # populations of the two conditional states mixed by probability
    vac = sum(p * cond.population((0, 0)) for p, cond in zip(probs, post))
    singles = sum(p * (cond.population((1, 0)) + cond.population((0, 1)))
                  for p, cond in zip(probs, post))
    return SwapOracleResult(success_prob=sum(probs), c_measured=vac / singles,
                            post_states=post)
