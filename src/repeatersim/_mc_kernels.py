"""Trial-sampling kernels for the timing Monte Carlo.

Every trial draws from its own counter-based stream: splitmix64 keyed by
``(seed, trial index)``.  The scalar functions are the single-sample API
and the reference.  The bulk samplers advance every live trial of a batch
in the same NumPy calls, a chain batch one level-2 attempt per trial and
step.  The last few trials of a chain batch are resumed from their step
start in ``_walk``, ``chain_sample``'s loop fed by lists of draws made in
bulk.  Both reproduce the scalar samples bit for bit, so a sample depends
only on its seed and trial index.
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
    """Advance the stream; returns ``(state, u)``, u = (k + 0.5) / 2**53
    for the top 53 bits k of the mixed state: in (0, 1), except that
    k = 2**53 - 1 rounds to 1.0, which fails every swap test (p <= 1/2) and
    counts one attempt, as the draw below it does unless q <= 2**-52."""
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
    ``tot[l]`` is the level-l time so far and ``first[l]`` the link waiting
    for its pair at level l: ``first[l] > 0`` exactly where a link waits,
    and a passed test hands the level's total up and clears it.
    """
    if n == 0:
        state, k = geometric(state, q)
        return state, k * t_delta
    tot, first = [0.0] * (n + 1), [0.0] * (n + 1)
    while True:
        state, k = geometric(state, q)
        link, lvl = k * t_delta, 1
        while first[lvl] > 0.0:
            tot[lvl] += max(first[lvl], link) if parallel else first[lvl] + link
            first[lvl] = 0.0
            state, u = next_uniform(state)
            if not u < p_levels[lvl]:
                break                      # failed: the next leaf starts at level 1
            if lvl == n:
                return state, tot[n]
            link, tot[lvl] = tot[lvl], 0.0
            lvl += 1
        else:
            first[lvl] = link


def expected_draws(p_levels) -> float:
    """Expected uniforms of a ``chain_sample`` trial: d_0 = 1, and
    d_l = (2 d_{l-1} + 1) / p_l for the level success probabilities
    ``p_levels[1:]``."""
    d = 1.0
    for p in p_levels[1:]:
        d = (2.0 * d + 1.0) / p
    return d


# ---------------------------------------------------------------------------
# bulk samplers (NumPy, one column per trial)

_U = np.uint64
_BLOCK = 1 << 15      # uniforms per lockstep step, summed over live trials
_WINDOW = 7           # level-1 attempts per step once few trials are live
_SCALAR_TAIL = 16     # live trials finished by _walk
_TAIL_DRAWS = 256     # at most draws in each of a tail trial's lists
_GEN_BLOCK = 1 << 15  # level-0 trials per block; its temporaries stay in cache
_STRIDES = _U(_GOLDEN) * np.arange(_TAIL_DRAWS + 1, dtype=np.uint64)   # k: k draws on


def _window_ends() -> np.ndarray:
    """Where the links of a step's window end, one column per 8-bit code:
    bit m (m < ``_WINDOW``) is set where attempt m's test passed, and bit
    ``_WINDOW`` where level 2 is empty and the window may park a link there.

    A window's rows are the running total (row 0) and its attempts (row
    m + 1).  Row 0 of the table is one past the last row of the link that
    parks at level 2, 0 where none does.  Row 1 is one past the last row of
    the link the step carries up or keeps as its running total, past the
    window where no test ends it.  Row 2 is the draws that a window
    carrying a link up has used, three for each attempt up to that link's
    last.  A link parks where a test passes with level 2 empty; the
    attempts after it, up to the second passed test, then make the carried
    link.
    """
    ends = np.zeros((3, 1 << (_WINDOW + 1)), dtype=np.uint8)
    for code in range(ends.shape[1]):
        passes = [m for m in range(_WINDOW) if code >> m & 1] + [_WINDOW, _WINDOW]
        park = code >> _WINDOW and passes[0] < _WINDOW
        if park:
            ends[0, code] = passes[0] + 2
        ends[1, code] = (passes[1] if park else passes[0]) + 2
    ends[2] = 3 * (ends[1] - 1)
    return ends


_WINDOW_ENDS = _window_ends()
_ROWS = np.arange(_WINDOW + 1, dtype=np.uint8)[:, None]
_PASS_BITS = [np.array([1 << m for m in range(w)] + [1 << _WINDOW], dtype=np.uint8)[:, None]
              for w in range(_WINDOW + 1)]


def _link_ends(flags: np.ndarray) -> np.ndarray:
    """The ``_WINDOW_ENDS`` columns of a window of w attempts: ``flags``
    rows 0..w-1 are the attempts' passed tests, row w whether level 2 is
    empty, one column per trial."""
    code = np.add.reduce(flags * _PASS_BITS[len(flags) - 1], axis=0, dtype=np.uint8)
    return _WINDOW_ENDS.take(code, axis=1)


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
    """The next ``draws`` (at most ``_TAIL_DRAWS``) uniforms of each
    stream, one column per stream."""
    z = _STRIDES[1:draws + 1, None] + state
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
    x *= 1.0 / c
    k = np.ceil(x)                 # floor(x) + 1 where x is not an integer
    # np.log may differ from math.log by an ulp or so, and the product from
    # the quotient by another, which can move the floor only where the
    # quotient sits on an integer: redo those (and the integers themselves)
    # as the scalar does.  The margin, 2**-40 of the largest quotient, is
    # far wider than that difference.
    x -= k
    x += 0.5
    np.abs(x, out=x)
    near = np.flatnonzero(x > 0.5 - 2.0 ** -40 * 37.5 / -c)   # -ln(u) < 37.5
    for i in near:
        k.flat[i] = 1 + math.floor(math.log(u.flat[i]) / c)
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


def chain_times(seed: int, count: int, n: int, p_levels, q: float,
                t_delta: float, parallel: bool) -> np.ndarray:
    """Level-``n`` times of trials 0..count-1, ``chain_sample`` bit for bit.

    Lockstep: in each step every live trial makes level-1 links up to one
    level-2 attempt and runs the cascade of swap tests it triggers.  A step
    starts with no level-0 pair waiting; ``tot[l]`` is the level-l time so
    far and ``first[l]`` the level-(l-1) link waiting for its pair at level
    l (0 where none waits).  The step reads the trial's next ``3w + n - 1``
    uniforms, for a window of ``w`` level-1 attempts: attempt m joins the
    leaves drawn at 3m and 3m + 1 and is tested at 3m + 2.  The level-1
    total adds the attempts in order up to the first passed test.  Where
    level 2 is empty and the window holds two or more attempts, that link
    parks there and the total restarts after it, up to the second passed
    test.  A trial that passes no further test keeps the running total and
    has used 3w draws.  The passed tests of a trial's window, read as the
    bits of one code, index ``_WINDOW_ENDS``, which says where each link
    ends; each link is then a masked in-order sum.  A level-1 link goes up
    level by level: it waits in ``first``, ending the step, or joins the
    link waiting there into an attempt whose test is the trial's next
    uniform.  A passed test hands the level's total up and clears it, and a
    failed one ends the step.  The cascade runs on every live trial at
    once, one row per level, and a link handed up from level n is the
    sample.  Finished trials are compacted out, and each stream advances by
    exactly the draws its trial used.  The window narrows as more trials
    are live, w = min(7, max(1, 32768 // (3 live))), so from 10922 live
    trials down to 1560 a step computes about ``_BLOCK + (n - 1) live``
    uniforms: a wider window takes fewer steps, but computes more draws
    that no trial uses.

    Cost model: a step makes about 55 + 3(n - 1) NumPy calls with a
    one-attempt window (more than 5461 live trials) and 63 + 3(n - 1) with
    a wider one, plus 8 where trials finish; its array operations touch
    ``(w + 1) live`` elements in the window and ``(n - 1) live`` in the
    cascade.  Below a few hundred live trials the calls dominate, so a step
    costs about the same however few trials are live, and the step count is
    set by the longest trial.  So once at most ``_SCALAR_TAIL`` trials are
    live, ``_walk`` finishes them from their stream states and columns:
    each is one of the reference trial's own step starts, so the sample is
    the reference's.
    """
    if n == 0:
        return generation_times(seed, count, q, t_delta)
    join = np.maximum if parallel else np.add
    out = np.empty(count)
    trial = np.arange(count)
    state = _stream_states(seed, count)
    levels = np.zeros((2, n, count))   # tot, then first; row l - 1: level l
    p_up = np.array(p_levels[2:])[:, None]
    offsets = np.arange(n - 1)[:, None]
    while trial.size > _SCALAR_TAIL:
        live = trial.size
        w = min(_WINDOW, max(1, _BLOCK // (3 * live)))
        two = n > 1 and w > 1              # the window may park a link at level 2
        u = _uniforms(state, 3 * w + n - 1)
        tot, first = levels
        window = u[:3 * w].reshape(w, 3, live)   # attempt m: leaves, then test
        leaf = _attempts(window[:, :2], q)
        leaf *= t_delta
        acc = np.empty((w + 1, live))      # the running total and each attempt
        acc[0] = tot[0]
        join(leaf[:, 0], leaf[:, 1], out=acc[1:])
        flags = np.empty((w + 1, live), dtype=bool)   # passed tests, level 2 empty
        np.less(window[:, 2], p_levels[1], out=flags[:w])
        if two:
            np.equal(first[1], 0.0, out=flags[w])
        else:
            flags[w] = False
        ends = _link_ends(flags)
        # rows outside a link add +0.0, and adding +0.0 to a positive sum is
        # exact, so each link is bit for bit the in-order sum of its rows
        rows = _ROWS[:w + 1]
        mask = rows < ends[1]
        used = np.minimum(ends[2], 3 * w)  # draws the window used
        if two:
            parked = rows < ends[0]
            first[1] += np.add.reduce(acc * parked, axis=0)   # +0.0 where none parks
            np.greater(mask, parked, out=mask)
            # a carried link's swap tests are the draws after its last attempt
            tests = u[used + offsets, np.arange(live)]
        else:
            tests = u[3 * w:]              # one attempt, or no swap tests
        chain = np.empty((n, live))        # row j: the link reaching level j + 2
        np.add.reduce(acc * mask, axis=0, out=chain[0])
        del acc, flags, mask          # free before the cascade
        # the cascade on all live trials, level j + 2 in row j: a carried link
        # reaches a level where every lower test passed, and pairs or parks
        t, f = tot[1:], first[1:]
        tests = tests < p_up
        wait = f > 0.0
        go = np.empty((n, live), dtype=bool)   # row j: reached level j + 2
        np.less_equal(ends[1], w + 1, out=go[0])
        np.logical_and(wait, tests, out=go[1:])
        for j in range(n - 1):
            join(f[j], chain[j], out=chain[j + 1])
            chain[j + 1] += t[j]
            go[j + 1] &= go[j]
        reach = go[:-1]
        paired = reach & wait
        np.putmask(t, paired, chain[1:])   # paired: the total with the attempt
        t *= ~go[1:]                       # passed: handed up
        np.putmask(f, reach > wait, chain[:-1])   # none waited: the link parks
        np.putmask(f, paired, 0.0)
        np.multiply(chain[0], ends[1] > w + 1, out=tot[0])   # the total kept
        used += np.add.reduce(paired.view(np.uint8), axis=0, dtype=np.uint8)   # tests
        state += _STRIDES.take(used)
        at = go[n - 1].nonzero()[0]      # finished trials
        if at.size:
            out[trial[at]] = chain[n - 1, at]
            keep = (~go[n - 1]).nonzero()[0]
            trial, state = trial.take(keep), state.take(keep)
            levels = levels.take(keep, axis=2)
    if trial.size:
        tot, first = ([[0.0, *row] for row in a.T.tolist()] for a in levels)
        out[trial] = _walk(n, p_levels, q, t_delta, parallel, state.tolist(), tot, first)
    return out


def _walk(n: int, p_levels, q: float, t_delta: float, parallel: bool,
          state, tot, first) -> list:
    """``chain_sample`` of each trial resumed from ``state[i]``, ``tot[i]``
    and ``first[i]``, its ``chain_times`` columns at the start of a step;
    returns the samples.

    The draws come from lists instead of ``next_uniform``: each trial's
    next uniforms, and as leaves their attempt counts times ``t_delta``,
    made for all trials in one ``_uniforms`` and one ``_attempts`` call
    and listed as each trial's turn comes.  A trial that uses its whole
    list refills it from its state advanced by the list's draws.  A list
    holds 32 plus twice a fresh trial's expected draws, at most
    ``_TAIL_DRAWS``: a tail trial has about as many left.
    """
    size = int(min(_TAIL_DRAWS, 32 + 2 * expected_draws(p_levels)))

    def block(states):                 # one row per trial
        u = _uniforms(np.array(states, dtype=np.uint64), size)
        leaf = _attempts(u, q)
        leaf *= t_delta
        return u.T, leaf.T

    out = []
    for s, us, leaves, t, f in zip(state, *block(state), tot, first):
        us, leaves = us.tolist(), leaves.tolist()
        j, lvl = 0, 0                  # the next draw; lvl 0: it is a leaf
        while True:
            if j == size:
                s = (s + _GOLDEN * size) & _MASK
                us, leaves = (a[0].tolist() for a in block([s]))
                j = 0
            if lvl == 0:
                link = leaves[j]
            elif us[j] < p_levels[lvl]:
                link, t[lvl] = t[lvl], 0.0
                if lvl == n:
                    break
            else:
                lvl = 0                # failed: the next leaf starts at level 1
                j += 1
                continue
            j += 1
            lvl += 1
            if f[lvl] > 0.0:
                t[lvl] += max(f[lvl], link) if parallel else f[lvl] + link
                f[lvl] = 0.0
            else:
                f[lvl] = link
                lvl = 0
        out.append(link)
    return out
