"""Trial-sampling kernels for the timing Monte Carlo.

Every trial draws from its own counter-based stream: splitmix64 keyed by
``(seed, trial index)``.  The scalar functions are the single-sample API
and the reference.  The bulk samplers advance every live trial of a batch
in the same NumPy calls, the last few of a chain batch in scalar code,
and reproduce the scalar samples bit for bit, so a sample depends only on
its seed and trial index.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / 9007199254740992.0


# ---------------------------------------------------------------------------
# scalar reference implementation (plain Python integers, exact wrapping)


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stream_state(seed: int, index: int) -> int:
    """Initial splitmix64 state of trial ``index`` under ``seed``."""
    return mix64((seed + _GOLDEN * (index + 1)) & _MASK)


def next_uniform(state: int):
    """Advance the stream; returns ``(state, u)`` with u in (0, 1)."""
    state = (state + _GOLDEN) & _MASK
    z = mix64(state)
    return state, ((z >> 11) + 0.5) * _INV_2_53


def geometric(state: int, q: float):
    """Attempts-to-first-success count; one uniform consumed either way."""
    state, u = next_uniform(state)
    if q >= 1.0:
        return state, 1
    return state, 1 + int(math.floor(math.log(u) / math.log1p(-q)))


def chain_sample(n: int, p_levels, q: float, t_delta: float, parallel: bool,
                 state: int):
    """One hierarchical generate-and-swap trial; returns (state, seconds).

    Iterative form of the recursion: a level-l attempt consumes two fresh
    level-(l-1) pairs, costs their max (parallel) or sum (serial), and
    succeeds with probability p_levels[l]; failure regenerates both pairs.
    """
    if n == 0:
        state, k = geometric(state, q)
        return state, k * t_delta
    tot = [0.0] * (n + 1)
    first = [0.0] * (n + 1)
    phase = [0] * (n + 1)
    lvl = n
    while True:
        if lvl - 1 == 0:
            state, k = geometric(state, q)
            child = k * t_delta
            have = True
        else:
            lvl -= 1
            tot[lvl] = 0.0
            phase[lvl] = 0
            continue
        while have:
            if phase[lvl] == 0:
                first[lvl] = child
                phase[lvl] = 1
                have = False
            else:
                attempt = max(first[lvl], child) if parallel else first[lvl] + child
                tot[lvl] += attempt
                phase[lvl] = 0
                state, u = next_uniform(state)
                if u < p_levels[lvl]:
                    if lvl == n:
                        return state, tot[n]
                    child = tot[lvl]
                    lvl += 1
                    have = True
                else:
                    have = False


# ---------------------------------------------------------------------------
# bulk samplers (NumPy, one row per trial)

_U = np.uint64
_BLOCK = 1 << 14      # uniforms drawn ahead per refill, summed over live trials
_MAX_AHEAD = 256      # draws ahead per trial once few trials are left
_SCALAR_TAIL = 8      # live trials finished in scalar code: a step costs ~10 draws
_GEN_BLOCK = 2 * _BLOCK   # level-0 trials per block; its temporaries stay in cache


def _mix(z: np.ndarray):
    """``mix64`` in place on a uint64 array."""
    z ^= z >> _U(30)
    z *= _U(_MIX1)
    z ^= z >> _U(27)
    z *= _U(_MIX2)
    z ^= z >> _U(31)


def _stream_states(seed: int, count: int, start: int = 0) -> np.ndarray:
    """``stream_state`` of trials start..start+count-1."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _U(_GOLDEN)
    z += _U(seed)
    _mix(z)
    return z


def _uniforms(state: np.ndarray, draws: int) -> np.ndarray:
    """The next ``draws`` uniforms of each stream, one row per stream."""
    z = state[:, None] + _U(_GOLDEN) * np.arange(1, draws + 1, dtype=np.uint64)
    _mix(z)
    z >>= _U(11)
    u = z.astype(np.float64)
    u += 0.5
    u *= _INV_2_53
    return u


def _attempts(u: np.ndarray, q: float) -> np.ndarray:
    """``geometric``'s attempt count for each uniform, as floats."""
    if q >= 1.0:
        return np.ones_like(u)
    c = math.log1p(-q)
    x = np.log(u)
    x /= c
    k = np.floor(x)
    # np.log may differ from math.log by an ulp or so, which can move the
    # floor only where the quotient sits on an integer: redo those as the
    # scalar does.  The margin, 2**-40 of the largest quotient, is far
    # wider than that difference.
    x -= k
    x -= 0.5
    np.abs(x, out=x)
    near = np.flatnonzero(x > 0.5 - 2.0 ** -40 * 37.5 / -c)   # -ln(u) < 37.5
    for i in near:
        k.flat[i] = math.floor(math.log(u.flat[i]) / c)
    k += 1.0
    return k


def generation_times(seed: int, count: int, q: float, t_delta: float) -> np.ndarray:
    """Level-0 times of trials 0..count-1, ``geometric`` times ``t_delta``.

    Sampled in blocks of ``_GEN_BLOCK`` trials into one output array; every
    operation is elementwise, so the blocking does not change a sample.
    """
    out = np.empty(count)
    for start in range(0, count, _GEN_BLOCK):
        size = min(_GEN_BLOCK, count - start)
        k = _attempts(_uniforms(_stream_states(seed, size, start), 1).ravel(), q)
        np.multiply(k, t_delta, out=out[start:start + size])
    return out


def _finish(n: int, p, q: float, t_delta: float, parallel: bool, state: int,
            lvl: int, tot: list, first: list) -> float:
    """One trial of ``chain_times`` run from its lockstep state to its link.

    ``state`` is the trial's stream state before its next draw, ``lvl``,
    ``tot`` and ``first`` its lockstep row; the same draws and the same
    float operations as a lockstep step, one trial at a time.  ``mix64``
    and ``geometric`` are inlined: about 30% less time per draw.
    """
    c = math.log1p(-q) if q < 1.0 else None
    while True:
        state = (state + _GOLDEN) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        u = (((z ^ (z >> 31)) >> 11) + 0.5) * _INV_2_53
        if lvl == 0:
            up = (1 if q >= 1.0 else 1 + math.floor(math.log(u) / c)) * t_delta
        elif u < p[lvl]:
            up = tot[lvl]
            tot[lvl] = 0.0
        else:
            lvl = 0
            continue
        lvl += 1
        if lvl > n:
            return up
        f = first[lvl]
        if f > 0.0:
            first[lvl] = 0.0
            tot[lvl] += max(f, up) if parallel else f + up
        else:
            first[lvl] = up
            lvl = 0


def chain_times(seed: int, count: int, n: int, p_levels, q: float,
                t_delta: float, parallel: bool) -> np.ndarray:
    """Level-``n`` times of trials 0..count-1, ``chain_sample`` bit for bit.

    Lockstep: in each step every live trial takes exactly one draw.  With
    ``lvl`` 0 it is a leaf geometric, whose pair is put in column 0 of
    ``tot``; with ``lvl`` l >= 1 it is the swap test of a level-l attempt,
    and ``tot[:, l]`` is that level's time so far.  A leaf, or a level whose
    test succeeds, hands its pair up: the pair waits in ``first`` at the
    next level (0 where none waits), or it joins the waiting pair into an
    attempt whose swap test is the trial's next draw.  Every other next draw
    is a leaf.  Column n + 1 receives the finished link.  A level's total is
    cleared when its pair is handed up, so every level below the one at
    work is empty and a descent is just ``lvl = 0``.  Uniforms are drawn in
    blocks ahead of the steps; finished trials are compacted out.

    A step costs the same NumPy calls however few trials are live, and the
    step count is set by the longest trial.  So once at most
    ``_SCALAR_TAIL`` trials are live, each is finished by ``_finish``: it
    starts from the trial's row and from its stream state rewound past the
    uniforms drawn ahead but not used, and takes the same draws with the
    same float operations, so its samples are those of the lockstep.
    """
    if n == 0:
        return generation_times(seed, count, q, t_delta)
    join = np.maximum if parallel else np.add
    p = np.array(p_levels, dtype=np.float64)
    p[0] = 2.0                   # a leaf draw always hands its pair up
    width = n + 2
    # the fewest draws from one finished link to the next: checking for
    # finished trials this often records each before it could finish again
    check = 2 ** (n + 1) - 1
    out = np.empty(count)
    trial = np.arange(count)
    state = _stream_states(seed, count)
    lvl = np.zeros(count, dtype=np.intp)
    tot = np.zeros((count, width))
    first = np.zeros((count, width))
    steps = rewind = 0
    while trial.size > _SCALAR_TAIL:
        draws = max(1, min(_MAX_AHEAD, _BLOCK // trial.size))
        u_ahead = _uniforms(state, draws)
        leaf_ahead = _attempts(u_ahead, q)
        leaf_ahead *= t_delta
        state += _U(_GOLDEN * draws & _MASK)
        rows = np.arange(trial.size) * width
        tot_, first_ = tot.ravel(), first.ravel()   # views, flat (row, level)
        for j in range(draws):
            tot[:, 0] = leaf_ahead[:, j]
            at = rows + lvl
            up = tot_[at]
            ok = u_ahead[:, j] < p[lvl]
            tot_[at] = np.where(ok, 0.0, up)
            at += 1
            f = first_[at]
            pair = ok & (f > 0.0)
            first_[at] = np.where(pair, 0.0, np.where(ok, up, f))
            tot_[at] += np.where(pair, join(f, up), 0.0)
            lvl = np.where(pair, lvl + 1, 0)
            steps += 1
            if steps % check:
                continue
            done = first[:, n + 1] > 0.0
            if done.any():
                out[trial[done]] = first[done, n + 1]
                keep = ~done
                trial, state, lvl = trial[keep], state[keep], lvl[keep]
                tot, first = tot[keep], first[keep]
                u_ahead, leaf_ahead = u_ahead[keep], leaf_ahead[keep]
                rows = np.arange(trial.size) * width
                tot_, first_ = tot.ravel(), first.ravel()
            if trial.size <= _SCALAR_TAIL:
                rewind = draws - j - 1      # draws taken ahead but not used
                break
    for i, s in enumerate(state.tolist()):
        out[trial[i]] = _finish(n, p_levels, q, t_delta, parallel,
                                (s - _GOLDEN * rewind) & _MASK, int(lvl[i]),
                                tot[i].tolist(), first[i].tolist())
    return out
