"""Exact linear algebra over truncated multimode Fock spaces.

States are dense density operators on the tensor-product number basis.
Every operation is a pure function: inputs are never mutated, outputs are
freshly allocated.  This module is the brute-force ground truth against
which the analytic repeater formulas are checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DIM_BOUND = 1_000_000

# diagonal support above this weight counts as real (not numerical noise)
SUPPORT_LEAK_TOL = 1e-12


class TruncationError(ValueError):
    """State support would leave the truncated Fock space."""


class ImpossibleOutcomeError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


@dataclass(frozen=True)
class ModeLayout:
    """Mode count and per-mode photon-number cutoff.

    Dimension per mode is ``cutoff + 1``; total dimension is
    ``(cutoff + 1) ** modes`` and must stay below ``max_dim``.
    """

    modes: int
    cutoff: int
    max_dim: int = DEFAULT_DIM_BOUND

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError(f"modes must be positive, got {self.modes}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        # integer power cannot overflow in Python; just enforce the bound
        if self.dim > self.max_dim:
            raise ValueError(
                f"layout dimension {(self.cutoff + 1)}**{self.modes} = "
                f"{self.dim} exceeds bound {self.max_dim}"
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


@dataclass
class PureState:
    layout: ModeLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.layout.dim,):
            raise ValueError("amplitude vector does not match layout dimension")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-12")

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass
class DensityOperator:
    layout: ModeLayout
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.layout.dim
        if self.matrix.shape != (d, d):
            raise ValueError("matrix does not match layout dimension")

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def population(self, occupations) -> float:
        i = self.layout.index(occupations)
        return float(np.real(self.matrix[i, i]))

    def mean_photon(self, mode: int) -> float:
        self.layout.check_mode(mode)
        return float(np.dot(_marginal(self, (mode,)), np.arange(self.layout.mode_dim)))


def assert_physical(rho: DensityOperator, check_positivity: bool = False):
    """Debug/test helper: Hermiticity, real trace, optional positivity."""
    m = rho.matrix
    herm = np.max(np.abs(m - m.conj().T))
    if herm > 1e-12:
        raise AssertionError(f"Hermiticity violated: max |rho - rho^dag| = {herm}")
    if abs(np.imag(np.trace(m))) > 1e-12:
        raise AssertionError("trace has imaginary part")
    if check_positivity:
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -1e-10:
            raise AssertionError(f"negative eigenvalue {evals.min()}")


# ---------------------------------------------------------------------------
# constructors


def vacuum(layout: ModeLayout) -> DensityOperator:
    """All modes in the number ground state."""
    m = np.zeros((layout.dim, layout.dim), dtype=complex)
    m[0, 0] = 1.0
    return DensityOperator(layout, m)


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
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero state")
        v = v / norm
    return PureState(layout, v)


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Tensor product; mode indices of ``b`` follow those of ``a``."""
    if a.layout.cutoff != b.layout.cutoff:
        raise ValueError("tensor requires matching cutoffs")
    layout = ModeLayout(a.layout.modes + b.layout.modes, a.layout.cutoff,
                        max(a.layout.max_dim, b.layout.max_dim))
    return DensityOperator(layout, np.kron(a.matrix, b.matrix))


# ---------------------------------------------------------------------------
# internal tensor application helpers


def _split_shape(layout: ModeLayout, mode: int):
    d = layout.mode_dim
    pre = d ** mode
    post = d ** (layout.modes - mode - 1)
    return pre, d, post


def _sandwich_two_mode(mat: np.ndarray, op2: np.ndarray, layout: ModeLayout, i: int, j: int) -> np.ndarray:
    """Apply a two-mode operator ``op2`` (shape (d*d, d*d), mode order (i, j))
    as two batched matmuls, with the pair's axes moved last (lower mode
    first): ``op2`` from the left on the ket, ``op2^dagger`` from the right
    on the bra."""
    d, n, dim = layout.mode_dim, layout.modes, layout.dim
    if i > j:
        op2 = op2.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
        i, j = j, i
    perm = [m for m in range(n) if m not in (i, j)] + [i, j]
    inv = list(np.argsort(perm))
    ket = mat.reshape([d] * n + [dim]).transpose(perm + [n])
    ket = op2 @ ket.reshape(-1, d * d, dim)
    # ket axes back in mode order, bra axes (i, j) last
    bra = ket.reshape([d] * n + [d] * n).transpose(inv + [n + m for m in perm])
    out = bra.reshape(dim, -1, d * d) @ op2.conj().T
    out = out.reshape([d] * n + [d] * n).transpose(list(range(n)) + [n + m for m in inv])
    return out.reshape(dim, dim)


def _marginal(rho: DensityOperator, modes) -> np.ndarray:
    """Joint photon-number populations of ``modes``, one axis per mode in
    the given order."""
    layout = rho.layout
    diag = np.real(np.diag(rho.matrix)).reshape([layout.mode_dim] * layout.modes)
    out = diag.sum(axis=tuple(a for a in range(layout.modes) if a not in modes))
    return out.transpose(np.argsort(np.argsort(modes)))


# ---------------------------------------------------------------------------
# gates


def beamsplitter_matrix(cutoff: int, theta: float, phase: float) -> np.ndarray:
    """Two-mode beamsplitter on the truncated pair space.

    Heisenberg action: ``a_i† -> cos θ a_i† + e^{iφ} sin θ a_j†`` and
    ``a_j† -> cos θ a_j† - e^{-iφ} sin θ a_i†``.  Photon number is
    conserved; pair blocks with total above the cutoff are left as the
    identity (callers must reject support there first).
    """
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
    return u


def _check_pair_support(rho: DensityOperator, i: int, j: int, gate: str):
    cutoff = rho.layout.cutoff
    n = np.arange(cutoff + 1)
    leak = _marginal(rho, (i, j))[np.add.outer(n, n) > cutoff].sum()
    if leak > SUPPORT_LEAK_TOL:
        raise TruncationError(
            f"{gate} on modes ({i}, {j}): population {leak:.3e} has pair photon "
            f"number above cutoff {cutoff}"
        )


def apply_beamsplitter(rho: DensityOperator, i: int, j: int,
                       theta: float = math.pi / 4, phase: float = 0.0) -> DensityOperator:
    """Two-mode beamsplitter; ``theta = π/4`` is the balanced splitter."""
    layout = rho.layout
    layout.check_mode(i)
    layout.check_mode(j)
    if i == j:
        raise ValueError("beamsplitter needs two distinct modes")
    _check_pair_support(rho, i, j, "beamsplitter")
    u = beamsplitter_matrix(layout.cutoff, theta, phase)
    return DensityOperator(layout, _sandwich_two_mode(rho.matrix, u, layout, i, j))


def apply_phase(rho: DensityOperator, i: int, psi: float) -> DensityOperator:
    """Number-basis phase ``e^{i psi n}`` on mode ``i``."""
    layout = rho.layout
    layout.check_mode(i)
    phases = np.exp(1j * psi * np.arange(layout.mode_dim))
    pre, d, post = _split_shape(layout, i)
    t = rho.matrix.reshape(pre, d, post, pre, d, post).copy()
    t *= phases[None, :, None, None, None, None]
    t *= phases.conj()[None, None, None, None, :, None]
    return DensityOperator(layout, t.reshape(layout.dim, layout.dim))


def apply_two_mode_squeeze(rho: DensityOperator, i: int, j: int, r: float,
                           trunc_tol: float = 1e-6) -> DensityOperator:
    """Two-mode squeezer ``exp(r (a_i† a_j† - a_i a_j))``.

    On vacuum this produces ``Σ tanh^n r |n,n⟩ / cosh r``.  The cutoff must
    satisfy ``tanh^{2(cutoff+1)} r < trunc_tol``.
    """
    from scipy.linalg import expm

    layout = rho.layout
    layout.check_mode(i)
    layout.check_mode(j)
    if i == j:
        raise ValueError("squeezer needs two distinct modes")
    tail = math.tanh(abs(r)) ** (2 * (layout.cutoff + 1))
    if tail >= trunc_tol:
        raise TruncationError(
            f"tanh^(2(cutoff+1)) r = {tail:.3e} exceeds truncation tolerance {trunc_tol}"
        )
    d = layout.mode_dim
    a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    a1 = np.kron(a, np.eye(d))
    a2 = np.kron(np.eye(d), a)
    gen = r * (a1.conj().T @ a2.conj().T - a1 @ a2)
    u = expm(gen)
    return DensityOperator(layout, _sandwich_two_mode(rho.matrix, u, layout, i, j))


# ---------------------------------------------------------------------------
# channels and measurement


def loss_kraus(cutoff: int, eta: float) -> list:
    """Kraus operators of the single-mode pure-loss channel."""
    d = cutoff + 1
    ops = []
    for k in range(d):
        a = np.zeros((d, d), dtype=complex)
        for n in range(k, d):
            a[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1 - eta) ** k)
        ops.append(a)
    return ops


def apply_loss(rho: DensityOperator, i: int, eta: float) -> DensityOperator:
    """Pure-loss channel with transmission ``eta`` on mode ``i``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"loss transmission {eta} outside [0, 1]")
    layout = rho.layout
    layout.check_mode(i)
    if eta == 1.0:
        return DensityOperator(layout, rho.matrix.copy())
    # Kraus k maps |n> to |n-k> with one amplitude a_k(n) per row, so
    # out[m, m'] = sum_k a_k(m+k) rho[m+k, m'+k] conj(a_k(m'+k)): one strided
    # multiply-add per k, ket amplitude first, then the bra amplitude
    pre, d, post = _split_shape(layout, i)
    t = rho.matrix.reshape(pre, d, post, pre, d, post)
    out = np.empty_like(t)
    for k, op in enumerate(loss_kraus(layout.cutoff, eta)):
        a = np.diagonal(op, k)
        term = t[:, k:, :, :, k:, :] * a[:, None, None, None, None]
        term *= a.conj()[:, None]
        if k == 0:
            out[...] = term
        else:
            out[:, :d - k, :, :, :d - k, :] += term
    return DensityOperator(layout, out.reshape(layout.dim, layout.dim))


@dataclass(frozen=True)
class DetectorModel:
    """Single-photon detector.

    Non-resolving (default): threshold click with
    ``P(click | n) = 1 - (1 - dark_count_prob) (1 - efficiency)^n``.
    Resolving: reports an exact detected-photon count; dark counts are not
    modelled in that mode.
    """

    efficiency: float = 1.0
    dark_count_prob: float = 0.0
    resolving: bool = False

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency {self.efficiency} outside [0, 1]")
        if not 0.0 <= self.dark_count_prob <= 1.0:
            raise ValueError(f"dark_count_prob {self.dark_count_prob} outside [0, 1]")
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


def _measure_diagonal(rho: DensityOperator, i: int, weights: np.ndarray):
    """Condition on a diagonal POVM element and trace out the measured mode."""
    layout = rho.layout
    pre, d, post = _split_shape(layout, i)
    t = rho.matrix.reshape(pre, d, post, pre, d, post)
    out = np.einsum("n,pnqrns->pqrs", weights.astype(complex), t, optimize=True)
    prob = float(np.real(np.trace(out.reshape(pre * post, pre * post))))
    return prob, out.reshape(pre * post, pre * post)


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


def detector_probability(rho: DensityOperator, i: int, det: DetectorModel, outcome) -> float:
    """Probability of a detector outcome on mode ``i`` without conditioning."""
    layout = rho.layout
    layout.check_mode(i)
    weights = _outcome_weights(det, layout.cutoff, outcome)
    return float(np.dot(_marginal(rho, (i,)), weights))


def measure_detector(rho: DensityOperator, i: int, det: DetectorModel, outcome):
    """Destructive detector measurement on mode ``i``.

    ``outcome`` is ``"click"``/``"no_click"`` for the threshold model, or a
    non-negative integer photon count for a resolving detector.  Returns
    ``(probability, normalized post state with mode i traced out)``.
    """
    layout = rho.layout
    layout.check_mode(i)
    if layout.modes == 1:
        raise ValueError("measuring the last remaining mode; "
                         "use detector_probability() for the outcome weight")
    weights = _outcome_weights(det, layout.cutoff, outcome)
    prob, unnorm = _measure_diagonal(rho, i, weights)
    if prob < 1e-15:
        raise ImpossibleOutcomeError("impossible-outcome conditioning")
    sub_layout = ModeLayout(layout.modes - 1, layout.cutoff, layout.max_dim)
    return prob, DensityOperator(sub_layout, unnorm / prob)


def partial_trace(rho: DensityOperator, modes) -> DensityOperator:
    """Trace out the given modes, keeping the rest in order."""
    layout = rho.layout
    drop = sorted(set(modes))
    for m in drop:
        layout.check_mode(m)
    if len(drop) == layout.modes:
        raise ValueError("tracing out every mode leaves no state; use trace()")
    d = layout.mode_dim
    t = rho.matrix.reshape([d] * (2 * layout.modes))
    letters = "abcdefghijklmnopqrstuvwx"
    ket = list(letters[: layout.modes])
    bra = list(letters[layout.modes: 2 * layout.modes])
    for m in drop:
        bra[m] = ket[m]
    keep_ket = [ket[m] for m in range(layout.modes) if m not in drop]
    keep_bra = [bra[m] for m in range(layout.modes) if m not in drop]
    expr = "".join(ket + bra) + "->" + "".join(keep_ket + keep_bra)
    out = np.einsum(expr, t)
    k = layout.modes - len(drop)
    sub_layout = ModeLayout(k, layout.cutoff, layout.max_dim)
    return DensityOperator(sub_layout, out.reshape(d ** k, d ** k))


def fidelity(rho: DensityOperator, psi: PureState) -> float:
    """``⟨ψ|ρ|ψ⟩`` for a pure target state."""
    if rho.layout != psi.layout:
        raise ValueError("layout mismatch between state and target")
    val = float(np.real(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes))
    if val < -1e-12 or val > 1 + 1e-12:
        raise ValueError(f"fidelity {val} outside [0, 1] beyond tolerance")
    return val
