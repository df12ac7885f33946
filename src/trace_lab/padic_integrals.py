"""Radial integration over Z_p and Q_p by shell decomposition.

A radial function is integrated by summing its value on each norm shell
{|y|_p = p^n} against the shell's Haar mass p^n(1 - 1/p), with Haar measure
normalized so Z_p has mass one.  The module also provides the p-adic gamma
function Gamma_p(s) = (1 - p^{s-1})/(1 - p^{-s}) with an independent
shell-sum oracle, character integrals over balls and shells, and a Monte
Carlo Haar sampler used as a second oracle.

ball_char_integral is the exact Fraction definition of the character
integrals.  shell_char_kernel is its bit-identical float form on a shell,
in closed form on a precomputed valuation; the shell-sum loops call it
directly, and shell_char_integral wraps it for a bare point x.

RadialFunction evaluators receive the norm as a nonnegative float (p**n
for shell exponent n, or 0.0 for the zero-norm limit).  Shells are indexed
by exact integer exponents internally; norms become floats only at the
evaluation boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (
    CompensatedSum,
    EvalResult,
    ParameterError,
    ShellSumPlan,
    require_prime,
)
from .padic import Rational, valuation

RadialFunction = Callable[[float], float]

_DEFAULT_PLAN = ShellSumPlan()


def norm_float(p: int, n: int) -> float:
    """p**n as a float; overflow saturates to inf, underflow to 0.0."""
    try:
        return float(p) ** n
    except OverflowError:
        return math.inf


def shell_measure(p: int, n: int) -> float:
    """Haar mass of the shell {|y|_p = p^n}: p^n (1 - 1/p)."""
    require_prime(p)
    return norm_float(p, n) * (1.0 - 1.0 / p)


def exp_norm_function(tau: float, gamma: float) -> RadialFunction:
    """The radial integrand u -> exp(-tau * u**gamma)."""
    if tau < 0 or gamma <= 0:
        raise ParameterError("exp_norm_function needs tau >= 0, gamma > 0")

    def g(u: float) -> float:
        if u == 0.0:
            return 1.0
        try:
            w = tau * u**gamma
        except OverflowError:
            return 0.0
        return math.exp(-w) if w < 745.0 else 0.0

    return g


def integrate_radial(
    g: RadialFunction,
    p: int,
    domain: str = "full",
    plan: ShellSumPlan = _DEFAULT_PLAN,
) -> EvalResult:
    """Shell-sum integral of a radial function over Z_p or Q_p.

    domain 'unit_ball' sums shells n <= 0; 'full' sums the plan window.
    The inner tail (n < n_min) is bounded by the remaining ball mass
    p^{n_min - 1} times an endpoint bound on g; the outer tail (full
    domain only) by geometric comparison of the first two omitted terms.
    Both bounds dominate the true tail for integrands monotone in the
    norm with non-increasing term ratios past the window, which covers
    the exp(-tau u^gamma) family used throughout.
    """
    require_prime(p)
    if domain not in ("unit_ball", "full"):
        raise ParameterError(f"domain must be unit_ball or full, got {domain!r}")
    top = 0 if domain == "unit_ball" else plan.n_max
    if top - plan.n_min + 1 > plan.max_terms:
        return EvalResult(math.nan, math.inf, 0, False)

    w_unit = 1.0 - 1.0 / p
    acc = CompensatedSum()
    terms = 0
    for n in range(plan.n_min, top + 1):
        gu = g(norm_float(p, n))
        if gu != 0.0:
            acc.add(gu * norm_float(p, n) * w_unit)
        terms += 1

    # Inner tail: remaining ball {|y| <= p^{n_min-1}} has mass p^{n_min-1};
    # sup|g| there is bracketed by the endpoint and the zero-norm limit.
    g_inner = max(abs(g(norm_float(p, plan.n_min - 1))), abs(g(0.0)))
    bound = g_inner * norm_float(p, plan.n_min - 1)

    def _term(n: int) -> float:
        gu = abs(g(norm_float(p, n)))
        return gu * norm_float(p, n) * w_unit if gu != 0.0 else 0.0

    converged = True
    if domain == "full":
        t1 = _term(top + 1)
        t2 = _term(top + 2)
        if t1 == 0.0:
            pass
        elif t2 < t1:
            bound += t1 / (1.0 - t2 / t1)
        else:
            bound = math.inf
            converged = False
    converged = converged and bound <= plan.tail_tolerance
    return EvalResult(acc.value, bound, terms, converged)


def exp_radial_closed(
    p: int,
    gamma: float,
    tau: float,
    domain: str = "full",
    tol: float = 1e-15,
) -> EvalResult:
    """Closed-form shell series for the integral of exp(-tau |y|^gamma).

    Over Z_p:  (p-1)/p * sum_{n>=0} exp(-tau p^{-n gamma}) p^{-n}.
    Over Q_p:  the Z_p value plus (p-1) * sum_{n>=1} p^{n-1} exp(-tau p^{n gamma}),
    the outer-coset iteration summed without regrouping.  Every shell
    carries the weight p^{n-1}(p-1); factoring exp(-tau p^gamma) out of
    the outer series is not exact and is deliberately avoided (the generic
    shell integrator adjudicates, see the report emitted by the CLI).
    """
    require_prime(p)
    if gamma <= 0 or tau <= 0:
        raise ParameterError("gamma and tau must be positive")
    if domain not in ("unit_ball", "full"):
        raise ParameterError(f"domain must be unit_ball or full, got {domain!r}")

    g = exp_norm_function(tau, gamma)
    acc = CompensatedSum()
    terms = 0
    m = 0
    while True:
        acc.add(g(norm_float(p, -m)) * norm_float(p, -m))
        terms += 1
        m += 1
        if norm_float(p, -m) <= tol:  # e^{-...} <= 1, so the tail is <= p^{-m} ball mass
            break
    inner_bound = norm_float(p, -m) / (1.0 - 1.0 / p)  # sum of remaining p^{-k}
    value = (1.0 - 1.0 / p) * acc.value
    bound = (1.0 - 1.0 / p) * inner_bound

    if domain == "full":
        outer = CompensatedSum()
        n = 1
        prev = math.inf
        while True:
            t = norm_float(p, n - 1) * g(norm_float(p, n))
            outer.add(t)
            terms += 1
            n += 1
            nxt = norm_float(p, n - 1) * g(norm_float(p, n))
            if nxt == 0.0:
                break
            if nxt < t and nxt / t <= 0.5 and nxt <= tol:
                bound += (p - 1.0) * 2.0 * nxt
                break
            if t > prev and n > 10_000:
                return EvalResult(math.nan, math.inf, terms, False)
            prev = t
        value += (p - 1.0) * outer.value

    return EvalResult(value, bound, terms, bound <= 1e-12)


def ball_char_integral(p: int, n: int, x: Rational) -> Fraction:
    """Integral of chi_1(x y) over the ball {|y|_p <= p^n}, exactly.

    Equals the ball mass p^n when x scaled by the ball stays in Z_p
    (the character is trivial there), and 0 otherwise (the character then
    restricts to a nontrivial character of a compact group).
    """
    require_prime(p)
    v = valuation(x, p)
    if v == math.inf or n <= v:
        return Fraction(p) ** n
    return Fraction(0)


def shell_char_kernel(p: int, n: int, v: int | float) -> float:
    """Integral of chi_1(x y) over the shell {|y|_p = p^n}, given v = v_p(x).

    v is math.inf for x = 0.  The three branches are p^n(1-1/p) for
    n <= v, -p^{n-1} for n = v+1 and 0 otherwise.  Each is one correctly
    rounded int conversion or int true division, so the result is
    bit-identical to float(ball_char_integral(p, n, x)
    - ball_char_integral(p, n - 1, x)).  p is not checked.  A branch
    value beyond double range raises ParameterError.
    """
    if n <= v:
        num = p - 1
    elif n == v + 1:
        num = -1
    else:
        return 0.0
    try:
        if n >= 1:
            return float(num * p ** (n - 1))
        return num / p ** (1 - n)
    except OverflowError:
        raise ParameterError(f"shell integral at p={p}, n={n} exceeds double range") from None


def shell_char_integral(p: int, n: int, x: Rational) -> float:
    """Integral of chi_1(x y) over the shell {|y|_p = p^n}.

    The float form of ball_char_integral(p, n, x) - ball_char_integral(p,
    n - 1, x), computed by shell_char_kernel from one valuation of x.
    """
    require_prime(p)
    return shell_char_kernel(p, n, valuation(x, p))


def padic_gamma_closed(p: int, s: float) -> float:
    """Gamma_p(s) = (1 - p^{s-1})/(1 - p^{-s}); pole at s = 0."""
    require_prime(p)
    denom = 1.0 - float(p) ** (-s)
    if denom == 0.0:
        raise ParameterError("Gamma_p has a pole at s = 0")
    return (1.0 - float(p) ** (s - 1.0)) / denom


def padic_gamma(
    p: int,
    s: float,
    mode: str = "closed",
    plan: ShellSumPlan | None = None,
) -> EvalResult:
    """The p-adic gamma function, by closed form or by its defining integral.

    shell_oracle mode evaluates sum_n p^{n(s-1)} * shell_char_kernel(p, n, 0),
    the shell integrals of chi_1(y) (x = 1, so v = 0),
    shell by shell; the shells n >= 2 vanish and the sum over n <= 0
    converges (geometrically with ratio p^{-s}) exactly for 0 < s < 1,
    the region where the defining integral makes sense.
    """
    require_prime(p)
    if mode == "closed":
        return EvalResult(padic_gamma_closed(p, s), 0.0, 1, True)
    if mode != "shell_oracle":
        raise ParameterError(f"mode must be closed or shell_oracle, got {mode!r}")
    if not 0.0 < s < 1.0:
        raise ParameterError("shell_oracle mode requires 0 < s < 1")

    tol = plan.tail_tolerance if plan is not None else 1e-12
    if plan is None:
        depth = int(math.ceil((math.log(1.0 / tol) + 5.0) / (s * math.log(p))))
    else:
        depth = -plan.n_min
    # keep p^{depth(1-s)} and p^{-depth} inside double range
    lp = math.log(p)
    depth = min(depth, int(700.0 / (lp * max(1.0 - s, 1e-9))), int(740.0 / lp))
    acc = CompensatedSum()
    terms = 0
    for n in range(-depth, 2):
        acc.add(float(p) ** (n * (s - 1.0)) * shell_char_kernel(p, n, 0))
        terms += 1
    # omitted n < -depth: terms p^{ns}(1-1/p), geometric with ratio p^{-s}
    r = float(p) ** (-s)
    bound = (1.0 - 1.0 / p) * float(p) ** (-(depth + 1) * s) / (1.0 - r)
    return EvalResult(acc.value, bound, terms, bound <= tol)


def padic_gamma_reflection_defect(p: int, s: float) -> float:
    """|Gamma_p(s) Gamma_p(1-s) - 1|, an exact identity of the closed form."""
    return abs(padic_gamma_closed(p, s) * padic_gamma_closed(p, 1.0 - s) - 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo Haar oracle on Z_p
# ---------------------------------------------------------------------------

_MC_CHUNK = 65_536


@dataclass(frozen=True)
class HaarSample:
    """count Haar-uniform samples of Z_p, reduced to their norm exponents.

    valuations[i] = k means the i-th sample has |y|_p = p^{-k}; k = depth
    means every sampled digit was zero (norm at most p^{-depth}, evaluated
    as p^{-depth}; the truncation bias is far below statistical error at
    the default depth of 64).
    """

    p: int
    depth: int
    count: int
    seed: int
    valuations: np.ndarray

    def norms(self) -> np.ndarray:
        return np.power(float(self.p), -self.valuations.astype(np.float64))

    def shell_frequency(self, n: int) -> tuple[float, float]:
        """Empirical P(|y|_p = p^n) with a binomial standard error."""
        if n > 0:
            return 0.0, 0.0
        f = float(np.mean(self.valuations == -n))
        se = math.sqrt(max(f * (1.0 - f), 1.0 / self.count) / self.count)
        return f, se

    def ball_frequency(self, k: int) -> tuple[float, float]:
        """Empirical P(|y|_p <= p^{-k}) with a binomial standard error."""
        f = float(np.mean(self.valuations >= k))
        se = math.sqrt(max(f * (1.0 - f), 1.0 / self.count) / self.count)
        return f, se

    def mean_of(self, g: RadialFunction) -> tuple[float, float]:
        """Empirical mean of g(|y|_p) and its standard error."""
        u = self.norms()
        try:
            vals = np.asarray(g(u), dtype=np.float64)
            if vals.shape != u.shape:
                raise TypeError
        except (TypeError, ValueError):
            vals = np.fromiter((g(x) for x in u), dtype=np.float64, count=len(u))
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(self.count))
        return mean, se


def mc_haar_zp(p: int, depth: int = 64, count: int = 100_000, seed: int = 0) -> HaarSample:
    """Sample Z_p as uniform base-p digit strings; deterministic per seed."""
    require_prime(p)
    if depth < 1 or count < 1:
        raise ParameterError("mc_haar_zp needs depth >= 1 and count >= 1")
    rng = np.random.default_rng(seed)
    out = np.empty(count, dtype=np.int32)
    pos = 0
    while pos < count:
        rows = min(_MC_CHUNK, count - pos)
        digits = rng.integers(0, p, size=(rows, depth), dtype=np.int64)
        nonzero = digits != 0
        val = np.argmax(nonzero, axis=1)
        val[~nonzero.any(axis=1)] = depth
        out[pos : pos + rows] = val
        pos += rows
    return HaarSample(p, depth, count, seed, out)
