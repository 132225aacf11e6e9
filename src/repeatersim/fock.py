"""Exact linear algebra over truncated multimode Fock spaces.

A state on the tensor-product number basis is held as a factor V (dim x r)
of its density operator, rho = V V^dagger.  Every gate, loss channel,
herald and trace acts on V from the left only, through one kernel, ``_act``.
Every operation is a pure function: inputs are never mutated, outputs are
freshly allocated.  This module is the brute-force ground truth against
which the analytic repeater formulas are checked.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

import numpy as np

from ._records import Checked, check_in, check_int

DEFAULT_DIM_BOUND = 1_000_000

# diagonal support above this weight counts as real (not numerical noise)
SUPPORT_LEAK_TOL = 1e-12


class TruncationError(ValueError):
    """State support would leave the truncated Fock space."""


class ImpossibleOutcomeError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


class ModeLayout(Checked, namedtuple("ModeLayout", ("modes", "cutoff"))):
    """Mode count and per-mode photon-number cutoff.

    Dimension per mode is ``cutoff + 1``; total dimension is
    ``(cutoff + 1) ** modes`` and must stay below ``DEFAULT_DIM_BOUND``.
    ``index`` is the flat basis index, not ``tuple.index``.
    """

    __slots__ = ()

    def _check(self):
        check_int(modes=self.modes, cutoff=self.cutoff)
        if self.modes < 1:
            raise ValueError(f"modes must be positive, got {self.modes}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        # integer power cannot overflow in Python; just enforce the bound
        if self.dim > DEFAULT_DIM_BOUND:
            raise ValueError(
                f"layout dimension {(self.cutoff + 1)}**{self.modes} = "
                f"{self.dim} exceeds bound {DEFAULT_DIM_BOUND}"
            )

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.modes

    @property
    def mode_dim(self) -> int:
        return self.cutoff + 1

    def index(self, occupations) -> int:
        """Flat basis index of ``|n_0, n_1, ...⟩`` (mode 0 most significant)."""
        if len(occupations) != self.modes:
            raise ValueError("occupation tuple length mismatch")
        idx = 0
        for n in occupations:
            if not 0 <= n <= self.cutoff:
                raise ValueError(f"occupation {n} outside [0, {self.cutoff}]")
            idx = idx * self.mode_dim + n
        return idx

    def occupations(self):
        """Iterate basis occupation tuples in index order."""
        return itertools.product(range(self.mode_dim), repeat=self.modes)

    def check_mode(self, i: int):
        if not 0 <= i < self.modes:
            raise ValueError(f"mode index {i} outside [0, {self.modes})")

    def check_pair(self, i: int, j: int, gate: str):
        self.check_mode(i)
        self.check_mode(j)
        if i == j:
            raise ValueError(f"{gate} needs two distinct modes")


class PureState(Checked, namedtuple("PureState", ("layout", "amplitudes"))):
    __slots__ = ()

    def __new__(cls, layout: ModeLayout, amplitudes):
        return super().__new__(cls, layout, np.asarray(amplitudes, dtype=complex))

    def _check(self):
        if self.amplitudes.shape != (self.layout.dim,):
            raise ValueError("amplitude vector does not match layout dimension")
        # a NaN or infinite amplitude makes the norm NaN or infinite
        norm = math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)
        check_in("[0, inf)", "state norm", norm)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-12")

    def to_density(self) -> "DensityOperator":
        return DensityOperator.from_factor(self.layout, self.amplitudes[:, None])


def _compact(v: np.ndarray) -> np.ndarray:
    """The rank rule: drop all-zero columns; with more columns than rows,
    re-factor V V^dagger by ``eigh``, dropping eigenvalues at or below
    1e-15 times the trace, so the rank never exceeds the dimension.  A factor
    without a zero column is returned as it is, not copied."""
    keep = v.any(axis=0)
    if not keep.all():
        v = v[:, keep]
    if v.shape[1] > v.shape[0]:
        lam, w = np.linalg.eigh(v @ v.conj().T)
        keep = lam > 1e-15 * lam.sum()
        v = w[:, keep] * np.sqrt(lam[keep])
    return v


class DensityOperator:
    """Density operator ``rho = V V^dagger`` held as its factor V (dim x r).

    ``from_factor`` is the only constructor.  ``matrix`` forms V V^dagger on
    demand for callers and tests; no gate reads it.
    """

    @classmethod
    def from_factor(cls, layout: ModeLayout, factor) -> "DensityOperator":
        """The state ``factor @ factor^dagger``, under the rank rule.  The
        state may share ``factor``'s memory, so a caller does not write into
        it afterwards; no gate writes into a state's factor."""
        v = np.asarray(factor, dtype=complex)
        if v.ndim != 2 or v.shape[0] != layout.dim:
            raise ValueError("factor does not match layout dimension")
        w = v if v.flags.c_contiguous else v.T   # vdot copies an F-ordered v
        check_in("[0, inf)", "factor's squared norm", np.vdot(w, w).real)
        rho = cls()
        rho.layout, rho.factor = layout, _compact(v)
        return rho

    @property
    def matrix(self) -> np.ndarray:
        return self.factor @ self.factor.conj().T

    def trace(self) -> float:
        return float(np.vdot(self.factor, self.factor).real)

    def purity(self) -> float:
        gram = self.factor.conj().T @ self.factor
        return float(np.vdot(gram, gram).real)

    def population(self, occupations) -> float:
        row = self.factor[self.layout.index(occupations)]
        return float(np.vdot(row, row).real)

    def mean_photon(self, mode: int) -> float:
        self.layout.check_mode(mode)
        return float(np.dot(marginal(self, (mode,)), np.arange(self.layout.mode_dim)))


# ---------------------------------------------------------------------------
# constructors


def vacuum(layout: ModeLayout) -> DensityOperator:
    """All modes in the number ground state."""
    return number_state(layout, (0,) * layout.modes).to_density()


def number_state(layout: ModeLayout, occupations) -> PureState:
    v = np.zeros(layout.dim, dtype=complex)
    v[layout.index(occupations)] = 1.0
    return PureState(layout, v)


def pure_state(layout: ModeLayout, components: dict, normalize: bool = True) -> PureState:
    """Superposition from ``{occupation tuple: amplitude}``."""
    v = np.zeros(layout.dim, dtype=complex)
    for occ, amp in components.items():
        v[layout.index(occ)] = amp
    if normalize:
        norm = math.sqrt(np.vdot(v, v).real)
        check_in("(0, inf)", "state norm", norm)
        v = v / norm
    return PureState(layout, v)


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Tensor product; mode indices of ``b`` follow those of ``a``."""
    if a.layout.cutoff != b.layout.cutoff:
        raise ValueError("tensor requires matching cutoffs")
    layout = ModeLayout(a.layout.modes + b.layout.modes, a.layout.cutoff)
    va, vb = a.factor, b.factor
    # np.kron of the factors as one broadcast product, bit for bit, without
    # np.kron's per-call bookkeeping
    v = (va[:, None, :, None] * vb[None, :, None, :]).reshape(layout.dim, -1)
    return DensityOperator.from_factor(layout, v)


# ---------------------------------------------------------------------------
# the gate kernel


def _act(rho: DensityOperator, modes, ops: np.ndarray) -> np.ndarray:
    """The stack ``ops`` (k, out, d^m) on ``modes`` of V (the first most
    significant), in one matmul with those modes' axes moved first by one
    transpose.  With out = d^m the modes go back in place and the k images
    return as (k, dim, r); with out = 1 the modes are traced out and the
    images return as (k, dim / d^m, r), the other modes in order."""
    layout = rho.layout
    n, d, r = layout.modes, layout.mode_dim, rho.factor.shape[1]
    k, out, size = ops.shape   # k may be 0: every reshape below has explicit sizes
    order = [*modes, *(m for m in range(n + 1) if m not in modes)]   # axis n: rank
    t = rho.factor.reshape([d] * n + [r]).transpose(order)
    images = ops.reshape(k * out, size) @ t.reshape(size, layout.dim // size * r)
    if out == 1:
        return images.reshape(k, layout.dim // size, r)
    back = [0, *(np.argsort(order) + 1)]
    return images.reshape([k] + [d] * n + [r]).transpose(back).reshape(k, layout.dim, r)


# ---------------------------------------------------------------------------
# gates


@functools.lru_cache(maxsize=256)
def beamsplitter_matrix(cutoff: int, theta: float, phase: float) -> np.ndarray:
    """Two-mode beamsplitter on the truncated pair space (read-only, memoised).

    Heisenberg action: ``a_i† -> cos θ a_i† + e^{iφ} sin θ a_j†`` and
    ``a_j† -> cos θ a_j† - e^{-iφ} sin θ a_i†``.  Photon number is
    conserved; pair blocks with total above the cutoff are left as the
    identity (callers must reject support there first).
    """
    check_in("(-inf, inf)", "theta", theta)
    check_in("(-inf, inf)", "phase", phase)
    d = cutoff + 1
    u = np.eye(d * d, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    eip = complex(math.cos(phase), math.sin(phase))
    fact = [math.factorial(n) for n in range(2 * cutoff + 1)]
    for n1 in range(d):
        for n2 in range(d - n1):
            col = np.zeros(d * d, dtype=complex)
            # expand (c a1† + e^{iφ} s a2†)^{n1} (-e^{-iφ} s a1† + c a2†)^{n2} |00⟩
            for k1 in range(n1 + 1):
                for k2 in range(n2 + 1):
                    m1 = k1 + k2                  # photons ending in mode i
                    m2 = n1 + n2 - m1             # photons ending in mode j
                    amp = (
                        math.comb(n1, k1) * math.comb(n2, k2)
                        * (c ** k1) * ((eip * s) ** (n1 - k1))
                        * ((-eip.conjugate() * s) ** k2) * (c ** (n2 - k2))
                    )
                    amp *= math.sqrt(fact[m1] * fact[m2] / (fact[n1] * fact[n2]))
                    col[m1 * d + m2] += amp
            u[:, n1 * d + n2] = col
    u.flags.writeable = False
    return u


@functools.lru_cache(maxsize=32)
def pair_rows_over(modes: int, cutoff: int, i: int, j: int, n: int) -> np.ndarray:
    """Basis indices, ascending, of the ``modes``-mode layout whose pair
    (i, j) holds more than ``n`` photons (read-only, memoised)."""
    occ = np.indices([cutoff + 1] * modes).reshape(modes, -1)
    rows = np.flatnonzero(occ[i] + occ[j] > n)
    rows.flags.writeable = False
    return rows


def _check_pair_support(rho: DensityOperator, pairs, gate: str):
    """Refuse ``gate`` on the first mode pair (i, j) of ``pairs`` whose
    support has pair photon number above the cutoff."""
    layout, v = rho.layout, rho.factor
    for i, j in pairs:
        over = v.take(pair_rows_over(layout.modes, layout.cutoff, i, j, layout.cutoff), axis=0)
        leak = np.vdot(over, over).real
        if leak > SUPPORT_LEAK_TOL:
            raise TruncationError(
                f"{gate} on modes ({i}, {j}): population {leak:.3e} has pair photon "
                f"number above cutoff {layout.cutoff}"
            )


def apply_beamsplitter(rho: DensityOperator, i: int, j: int,
                       theta: float = math.pi / 4, phase: float = 0.0) -> DensityOperator:
    """Two-mode beamsplitter at finite angles; ``theta = π/4`` is the balanced splitter."""
    layout = rho.layout
    layout.check_pair(i, j, "beamsplitter")
    _check_pair_support(rho, [(i, j)], "beamsplitter")
    u = beamsplitter_matrix(layout.cutoff, theta, phase)
    return DensityOperator.from_factor(layout, _act(rho, (i, j), u[None])[0])


def herald(rho: DensityOperator, pair, rows: np.ndarray) -> np.ndarray:
    """A splitter on mode ``pair`` (i, j) and its detectors as the gate
    kernel's trace: ``rows`` (k, d²) are its output rows on the pair index
    (i major), each times the detectors' √POVM.  Refuses support above the
    cutoff on the pair, then returns the k unnormalized factors on the other
    modes, in mode order, as one (k, dim / d², r) array."""
    i, j = pair
    rho.layout.check_pair(i, j, "beamsplitter")
    _check_pair_support(rho, [pair], "beamsplitter")
    return _act(rho, pair, rows[:, None])


def apply_phase(rho: DensityOperator, i: int, psi: float) -> DensityOperator:
    """Number-basis phase ``e^{i psi n}`` on mode ``i``."""
    layout = rho.layout
    layout.check_mode(i)
    check_in("(-inf, inf)", "psi", psi)
    phases = np.diag(np.exp(1j * psi * np.arange(layout.mode_dim)))
    return DensityOperator.from_factor(layout, _act(rho, (i,), phases[None])[0])


@functools.lru_cache(maxsize=16)
def squeeze_eigenbasis(cutoff: int) -> tuple:
    """``(lam, W)`` with ``i G = W diag(lam) W^dagger`` for the squeezer's
    anti-Hermitian generator ``G = a_1† a_2† - a_1 a_2`` on the truncated
    pair space (read-only, memoised)."""
    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    a1 = np.kron(a, np.eye(d))
    a2 = np.kron(np.eye(d), a)
    lam, w = np.linalg.eigh(1j * (a1.conj().T @ a2.conj().T - a1 @ a2))
    lam.flags.writeable = False
    w.flags.writeable = False
    return lam, w


def apply_two_mode_squeeze(rho: DensityOperator, i: int, j: int, r: float,
                           trunc_tol: float = 1e-6) -> DensityOperator:
    """Two-mode squeezer ``exp(r (a_i† a_j† - a_i a_j))``.

    On vacuum this produces ``Σ tanh^n r |n,n⟩ / cosh r``.  The cutoff must
    satisfy ``tanh^{2(cutoff+1)} r < trunc_tol``.
    """
    layout = rho.layout
    layout.check_pair(i, j, "squeezer")
    check_in("(-inf, inf)", "r", r)
    check_in("(0, inf)", "trunc_tol", trunc_tol)
    tail = math.tanh(abs(r)) ** (2 * (layout.cutoff + 1))
    if tail >= trunc_tol:
        raise TruncationError(
            f"tanh^(2(cutoff+1)) r = {tail:.3e} exceeds truncation tolerance {trunc_tol}"
        )
    # with i G = W diag(lam) W^dagger, exp(r G) = W diag(e^{-i r lam}) W^dagger
    lam, w = squeeze_eigenbasis(layout.cutoff)
    u = (w * np.exp(-1j * r * lam)) @ w.conj().T
    return DensityOperator.from_factor(layout, _act(rho, (i, j), u[None])[0])


# ---------------------------------------------------------------------------
# channels and measurement


@functools.lru_cache(maxsize=256)
def loss_kraus(cutoff: int, eta: float) -> tuple:
    """Kraus operators of the single-mode pure-loss channel (read-only,
    memoised)."""
    check_in("[0, 1]", "eta", eta)
    d = cutoff + 1
    ops = []
    for k in range(d):
        a = np.zeros((d, d), dtype=complex)
        for n in range(k, d):
            a[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1 - eta) ** k)
        a.flags.writeable = False
        ops.append(a)
    return tuple(ops)


def apply_loss(rho: DensityOperator, i: int, eta: float) -> DensityOperator:
    """Pure-loss channel with transmission ``eta`` in [0, 1] on mode ``i``."""
    layout = rho.layout
    layout.check_mode(i)
    if eta == 1.0:   # K_0 = 1 alone; the kernel's matmul would turn -0.0 into 0.0
        return DensityOperator.from_factor(layout, rho.factor)
    # the Kraus images K_k V join the factor as new columns, k-major; one without
    # support is exactly zero (K_k takes k photons), and the rank rule drops it
    images = _act(rho, (i,), np.stack(loss_kraus(layout.cutoff, eta)))
    return DensityOperator.from_factor(layout, np.concatenate(images, axis=1))


class DetectorModel(Checked, namedtuple("DetectorModel",
                                        ("efficiency", "dark_count_prob", "resolving"),
                                        defaults=(1.0, 0.0, False))):
    """Single-photon detector.

    Non-resolving (default): threshold click with
    ``P(click | n) = 1 - (1 - dark_count_prob) (1 - efficiency)^n``.
    Resolving: reports an exact detected-photon count; dark counts are not
    modelled in that mode.
    """

    __slots__ = ()

    def _check(self):
        check_in("[0, 1]", "efficiency", self.efficiency)
        check_in("[0, 1]", "dark_count_prob", self.dark_count_prob)
        if self.resolving and self.dark_count_prob != 0.0:
            raise ValueError("dark counts are not supported for resolving detectors")

    def no_click_weights(self, cutoff: int) -> np.ndarray:
        n = np.arange(cutoff + 1)
        return (1.0 - self.dark_count_prob) * (1.0 - self.efficiency) ** n

    def count_weights(self, cutoff: int, detected: int) -> np.ndarray:
        """POVM diagonal for detecting exactly ``detected`` photons."""
        w = np.zeros(cutoff + 1)
        for m in range(detected, cutoff + 1):
            w[m] = (math.comb(m, detected) * self.efficiency ** detected
                    * (1 - self.efficiency) ** (m - detected))
        return w


@functools.lru_cache(maxsize=16)
def alone_weights(cutoff: int, dark_count_prob: float = 0.0) -> np.ndarray:
    """(2, d²) unit-efficiency threshold-POVM weights on a detector pair's
    number index: row i is "detector i alone clicks", detector 1 on the
    first mode, 2 on the second (read-only, memoised)."""
    w = DetectorModel(dark_count_prob=dark_count_prob).no_click_weights(cutoff)
    click = np.array([1.0 - w, w])
    alone = (click[:, :, None] * click[::-1, None, :]).reshape(2, -1)
    alone.flags.writeable = False
    return alone


def _outcome_weights(det: DetectorModel, cutoff: int, outcome) -> np.ndarray:
    if det.resolving:
        if not isinstance(outcome, (int, np.integer)) or outcome < 0:
            raise ValueError("resolving detector outcome must be a photon count")
        return det.count_weights(cutoff, int(outcome))
    if outcome == "no_click":
        return det.no_click_weights(cutoff)
    if outcome == "click":
        return 1.0 - det.no_click_weights(cutoff)
    raise ValueError(f"unknown outcome {outcome!r}")


def marginal(rho: DensityOperator, modes) -> np.ndarray:
    """Joint photon-number populations of ``modes``, one axis per mode in
    the given order (the squared row norms of V, summed over the rest)."""
    layout, v = rho.layout, rho.factor
    if len(set(modes)) != len(modes) or not set(modes) <= set(range(layout.modes)):
        raise ValueError(f"marginal modes {tuple(modes)} are not distinct modes "
                         f"of a {layout.modes}-mode layout")
    diag = (v.real ** 2 + v.imag ** 2).sum(axis=1).reshape([layout.mode_dim] * layout.modes)
    out = diag.sum(axis=tuple(a for a in range(layout.modes) if a not in modes))
    # ``out`` holds the kept axes in ascending mode order
    order = sorted(modes)
    return out.transpose([order.index(m) for m in modes])


def detector_probability(rho: DensityOperator, i: int, det: DetectorModel, outcome) -> float:
    """Probability of a detector outcome on mode ``i`` without conditioning."""
    layout = rho.layout
    layout.check_mode(i)
    weights = _outcome_weights(det, layout.cutoff, outcome)
    return float(np.dot(marginal(rho, (i,)), weights))


def condition(rho: DensityOperator, weights: dict):
    """Condition on diagonal POVM elements: ``weights`` maps each measured
    mode to its element's weight on every photon number.  Returns
    ``(probability, normalized state with those modes traced out)``."""
    layout = rho.layout
    for mode, w in weights.items():
        layout.check_mode(mode)
        w = np.asarray(w)
        # NaN fails both comparisons; a loop over a few floats beats ufuncs
        if w.shape != (layout.mode_dim,) or not all(0 <= x < math.inf for x in w.tolist()):
            raise ValueError(f"weights for mode {mode} must be {layout.mode_dim} finite "
                             f"non-negative numbers, got {w.tolist()}")
    if len(weights) == layout.modes:
        raise ValueError("conditioning every remaining mode leaves no state; "
                         "use detector_probability() for the outcome weight")
    # the measured modes traced out under the rows diag √POVM: their images
    # join the rank index as the unnormalized conditional state
    root = functools.reduce(np.multiply.outer, [np.sqrt(w) for w in weights.values()])
    unnorm = np.concatenate(_act(rho, tuple(weights), np.diag(root.ravel())[:, None]), axis=1)
    sub_layout = ModeLayout(layout.modes - len(weights), layout.cutoff)
    return normalize_outcome(sub_layout, unnorm)


def outcome_probability(unnorm: np.ndarray) -> float:
    """The probability ‖unnorm‖² of the outcome whose unnormalized
    conditional factor is ``unnorm``; an outcome of (numerically) zero
    probability is refused."""
    prob = float(np.vdot(unnorm, unnorm).real)
    if prob < 1e-15:
        raise ImpossibleOutcomeError("impossible-outcome conditioning")
    return prob


def normalize_outcome(layout: ModeLayout, unnorm: np.ndarray):
    """``(probability, normalized state)`` of the unnormalized conditional
    factor ``unnorm``, refused as ``outcome_probability`` refuses it."""
    prob = outcome_probability(unnorm)
    return prob, DensityOperator.from_factor(layout, unnorm / math.sqrt(prob))


def measure_detector(rho: DensityOperator, i: int, det: DetectorModel, outcome):
    """Destructive detector measurement on mode ``i``.

    ``outcome`` is ``"click"``/``"no_click"`` for the threshold model, or a
    non-negative integer photon count for a resolving detector.  Returns
    ``(probability, normalized post state with mode i traced out)``.
    """
    return condition(rho, {i: _outcome_weights(det, rho.layout.cutoff, outcome)})


def partial_trace(rho: DensityOperator, modes) -> DensityOperator:
    """Trace out the given modes, keeping the rest in order."""
    layout = rho.layout
    drop = sorted(set(modes))
    for m in drop:
        layout.check_mode(m)
    if len(drop) == layout.modes:
        raise ValueError("tracing out every mode leaves no state; use trace()")
    sub_layout = ModeLayout(layout.modes - len(drop), layout.cutoff)
    images = _act(rho, drop, np.eye(layout.mode_dim ** len(drop))[:, None])
    return DensityOperator.from_factor(sub_layout, np.concatenate(images, axis=1))


def fidelity(rho: DensityOperator, psi: PureState) -> float:
    """``⟨ψ|ρ|ψ⟩ = ‖ψ† V‖²`` for a pure target state."""
    if rho.layout != psi.layout:
        raise ValueError("layout mismatch between state and target")
    overlap = psi.amplitudes.conj() @ rho.factor
    val = float(np.vdot(overlap, overlap).real)
    if val > 1 + 1e-12:
        raise ValueError(f"fidelity {val} outside [0, 1] beyond tolerance")
    return val
