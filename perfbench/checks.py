"""Result checks.  Each returns a list of failure messages, empty when the
result is right.

Every oracle here is independent of the code path being timed: closed
forms, the analytic link algebra, or the scalar single-trial sampler.  The
two acceptance clauses that fail by design (3/infidelity and 6/ratio) are
never checked.
"""

from __future__ import annotations

import math

import numpy as np

ROOT8 = 2.0 * math.sqrt(2.0)
EXACT_TOL = 1e-9
SIGMAS = 5.0


def close(label, got, want, tol):
    if abs(got - want) <= tol:
        return []
    return [f"{label}: got {got!r}, want {want!r} (tol {tol})"]


def within_sigmas(label, samples, want):
    """Sample mean within ``SIGMAS`` standard errors of ``want``."""
    samples = np.asarray(samples)
    sigma = samples.std(ddof=1) / math.sqrt(samples.size)
    return close(f"{label} mean", float(samples.mean()), want, SIGMAS * sigma)


def identical(label, got, want):
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype == want.dtype and got.shape == want.shape \
            and got.tobytes() == want.tobytes():
        return []
    return [f"{label}: arrays differ"]


def exit_code(label, got, want):
    return [] if got == want else [f"{label}: exit code {got}, want {want}"]


def same_bytes(label, got: bytes, want: bytes):
    if got == want:
        return []
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    return [f"{label}: stdout differs from golden at byte {at}"]


# ---------------------------------------------------------------------------
# exact engines


def swap(res, c, eta_s):
    from repeatersim.protocol import EMEState, swap_analytic

    p, out = swap_analytic(EMEState(c), EMEState(c), eta_s)
    return (close("swap success_prob", res.success_prob, p, EXACT_TOL)
            + close("swap c_measured", res.c_measured, out.vacuum_coeff, EXACT_TOL))


def generation(res, params):
    """Criterion-3 vacuum clause: c within 2 p_c (relative) of p_dc/(eta_p p_c)."""
    target = params.dark_prob / (params.eta_p * params.excitation_prob)
    return close("generation c_measured / target", res.c_measured / target, 1.0,
                 2.0 * params.excitation_prob)


def chsh(value):
    return close("chsh", value, ROOT8, EXACT_TOL)


def correlation(res, psi_left, psi_right):
    return close("correlation", res.value, math.cos(psi_left - psi_right), EXACT_TOL)


def teleport(res, c_n, eta_a):
    """Criterion 5: unit fidelity, and the pattern sum and success
    probability of the circuit's enumerated closed form."""
    pattern = (eta_a ** 2 / (c_n + 1) ** 2) * ((3 - eta_a) / 4 + c_n / 2)
    success = eta_a ** 2 / (4 * (c_n + 1) ** 2)
    return (close("teleport fidelity", res.output_fidelity, 1.0, EXACT_TOL)
            + close("teleport pattern_prob", res.pattern_prob, pattern, EXACT_TOL)
            + close("teleport success_prob", res.success_prob, success, EXACT_TOL))


def ekert(stats, c_n, eta_a, rounds):
    """Matched settings on an ideal link never disagree; the coincidence
    rate is binomial around eta_a^2 / (2 (c_n + 1)^2)."""
    p = eta_a ** 2 / (2 * (c_n + 1) ** 2)
    sigma = math.sqrt(p * (1 - p) / rounds)
    return (close("ekert qber", stats.qber, 0.0, 0.0)
            + close("ekert rounds", stats.rounds, rounds, 0)
            + close("ekert coincidence_rate", stats.coincidence_rate, p, SIGMAS * sigma))


def master_equation(pops, rates):
    """Criterion 7: trace drift at most 1e-9, rate ratio within 5%."""
    want = (rates.kappa_prime + rates.gamma_s_prime) / rates.gamma_s_prime
    drift = float(np.max(np.abs(np.asarray(pops.traces) - 1.0)))
    return (close("master equation trace drift", drift, 0.0, EXACT_TOL)
            + close("master equation rate ratio / analytic", pops.rate_ratio() / want,
                    1.0, 0.05))


def squeezed(rho, rates, cutoff):
    """Criterion 8: pair populations tanh^2n r / cosh^2 r and mean sinh^2 r."""
    r = rates.squeeze
    out = []
    for n in range(cutoff - 1):
        want = math.tanh(r) ** (2 * n) / math.cosh(r) ** 2
        out += close(f"squeezed population {n}", rho.population((n, n)), want, 1e-8)
    return out + close("squeezed mean photon", rho.mean_photon(1), math.sinh(r) ** 2, 1e-8)


def langevin(values, rates, grid):
    closed = np.exp(rates.kappa_prime * np.asarray(grid) / 2.0)
    err = float(np.max(np.abs(np.asarray(values) - closed) / closed))
    return close("langevin gain relative error", err, 0.0, 1e-8)


# ---------------------------------------------------------------------------
# waiting-time Monte Carlo


def level_probs(params, n):
    """Swap success probabilities p_1..p_n from the closed-form recursion."""
    c = params.dark_prob / (params.eta_p * params.excitation_prob)
    eta = params.swap_efficiency
    probs = []
    for _ in range(n):
        probs.append(eta * (1.0 - eta / (2.0 * (c + 1.0))) / (c + 1.0))
        c = 2.0 * c + 1.0 - eta
    return probs


def click_prob(params):
    return params.eta_p * params.excitation_prob + params.dark_prob


def draws_per_trial(params, n):
    """Expected uniforms per level-n trial: d_0 = 1, d_l = (2 d_{l-1} + 1) / p_l."""
    d = 1.0
    for p in level_probs(params, n):
        d = (2.0 * d + 1.0) / p
    return d


def generation_samples(out, params, cfg, subset):
    from repeatersim import montecarlo as mc

    fails = close("generation_times length", len(out), cfg.n_trials, 0)
    for i in subset:
        want = mc.sample_generation_time(params, mc.SplitMix(cfg.seed, i))
        if out[i] != want:
            fails.append(f"generation_times[{i}] = {out[i]!r}, scalar {want!r}")
    return fails + within_sigmas("generation_times", out,
                                 params.pulse_time / click_prob(params))


def chain_samples(out, params, n, cfg, subset):
    """Seeded subset bit-identical to the scalar sampler, plus the closed-form
    means: serial 2^n t/(q prod p_l); parallel level 1 (3-2q)/(q(2-q)) t/p_1."""
    from repeatersim import montecarlo as mc

    fails = close("chain_times length", len(out), cfg.n_trials, 0)
    for i in subset:
        want = mc.sample_chain_time(params, n, mc.SplitMix(cfg.seed, i), cfg.policy)
        if out[i] != want:
            fails.append(f"chain_times n={n} {cfg.policy}[{i}] = {out[i]!r}, "
                         f"scalar {want!r}")
    q = click_prob(params)
    probs = level_probs(params, n)
    if cfg.policy == "serial_redo":
        want = 2 ** n * params.pulse_time / (q * math.prod(probs))
        fails += within_sigmas(f"chain_times n={n} serial_redo", out, want)
    elif n == 1:
        want = (3 - 2 * q) / (q * (2 - q)) * params.pulse_time / probs[0]
        fails += within_sigmas("chain_times n=1 parallel_max", out, want)
    return fails
