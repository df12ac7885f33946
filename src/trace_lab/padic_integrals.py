"""Radial integration over Z_p and Q_p by shell decomposition.

A radial function is integrated by summing its value on each norm shell
{|y|_p = p^n} against the shell's Haar mass p^n(1 - 1/p), with Haar measure
normalized so Z_p has mass one.  The module also provides the p-adic gamma
function Gamma_p(s) = (1 - p^{s-1})/(1 - p^{-s}) with an independent
shell-sum oracle, character integrals over balls and shells, and a Monte
Carlo Haar sampler used as a second oracle.

The Haar sampler draws the base-p digits of each sample in packed blocks:
one uniform int64 on Z/p^k holds k digits, k the largest with p^k < 2^63,
and the valuations read off each block go straight into a histogram.  It
never uses the shell masses p^n(1 - 1/p) it is compared against.

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

from .core import (
    N_MAX,
    N_MIN,
    CompensatedSum,
    EvalResult,
    ParameterError,
    ShellSumPlan,
    require_prime,
)
from .padic import Rational, valuation

RadialFunction = Callable[[float], float]

_DEFAULT_PLAN = ShellSumPlan()


def norm_float(p: int, n: float) -> float:
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
    if not tau >= 0 or not gamma > 0:
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

    domain 'unit_ball' sums shells N_MIN <= n <= 0; 'full' sums
    N_MIN <= n <= N_MAX.  The inner tail (n < N_MIN) is bounded by the
    remaining ball mass p^{N_MIN - 1} times an endpoint bound on g; the
    outer tail (full domain only) by geometric comparison of the first two
    omitted terms.  Both bounds dominate the true tail for integrands
    monotone in the norm with non-increasing term ratios past the window,
    which covers the exp(-tau u^gamma) family used throughout.
    """
    require_prime(p)
    if domain not in ("unit_ball", "full"):
        raise ParameterError(f"domain must be unit_ball or full, got {domain!r}")
    top = 0 if domain == "unit_ball" else N_MAX

    w_unit = 1.0 - 1.0 / p
    acc = CompensatedSum()
    terms = 0
    for n in range(N_MIN, top + 1):
        gu = g(norm_float(p, n))
        if gu != 0.0:
            acc.add(gu * norm_float(p, n) * w_unit)
        terms += 1

    # Inner tail: remaining ball {|y| <= p^{N_MIN-1}} has mass p^{N_MIN-1};
    # sup|g| there is bracketed by the endpoint and the zero-norm limit.
    g_inner = max(abs(g(norm_float(p, N_MIN - 1))), abs(g(0.0)))
    bound = g_inner * norm_float(p, N_MIN - 1)

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
    if not gamma > 0 or not tau > 0:
        raise ParameterError("gamma and tau must be positive")
    if domain not in ("unit_ball", "full"):
        raise ParameterError(f"domain must be unit_ball or full, got {domain!r}")

    tol = 1e-15
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
    return _padic_gamma_closed(p, s)


def _one_minus_pow(p: int, e: float) -> float:
    # 1 - p^e.  Near e = 0 the plain difference loses about
    # log2(1/|e ln p|) bits to cancellation, so for |e ln p| < 1/16 it is
    # taken as -expm1(e ln p), which keeps its relative precision; above,
    # the plain difference loses at most four bits and is kept as it was
    x = e * math.log(p)
    if abs(x) < 0.0625:
        return 0.0 - math.expm1(x)
    return 1.0 - float(p) ** e


def _padic_gamma_closed(p: int, s: float) -> float:
    # Gamma_p for a p that was checked prime where it entered
    denom = _one_minus_pow(p, -s)
    if denom == 0.0:
        raise ParameterError("Gamma_p has a pole at s = 0")
    return _one_minus_pow(p, s - 1.0) / denom


def padic_gamma(
    p: int,
    s: float,
    mode: str = "closed",
    plan: ShellSumPlan = _DEFAULT_PLAN,
) -> EvalResult:
    """The p-adic gamma function, by closed form or by its defining integral.

    shell_oracle mode evaluates sum_n p^{n(s-1)} * shell_char_kernel(p, n, 0),
    the shell integrals of chi_1(y) (x = 1, so v = 0),
    shell by shell; the shells n >= 2 vanish and the sum over n <= 0
    converges (geometrically with ratio p^{-s}) exactly for 0 < s < 1,
    the region where the defining integral makes sense.  Its window is
    sized by s and plan.tail_tolerance, not [N_MIN, N_MAX]: it starts deep
    enough for the omitted tail to fall below the tolerance.
    """
    require_prime(p)
    if mode == "closed":
        return EvalResult(padic_gamma_closed(p, s), 0.0, 1, True)
    if mode != "shell_oracle":
        raise ParameterError(f"mode must be closed or shell_oracle, got {mode!r}")
    if not 0.0 < s < 1.0:
        raise ParameterError("shell_oracle mode requires 0 < s < 1")

    tol = plan.tail_tolerance
    # geometric ratio p^{-s}: size the window for the tolerance, keeping
    # p^{depth(1-s)} and p^{-depth} inside double range
    lp = math.log(p)
    depth = int(math.ceil((math.log(1.0 / tol) + 5.0) / (s * lp)))
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

@dataclass(frozen=True)
class HaarSample:
    """count Haar-uniform samples of Z_p, reduced to their norm histogram.

    counts[k] is the number of samples with |y|_p = p^{-k}; k = depth
    counts those whose first depth base-p digits were all zero (norm at
    most p^{-depth}, evaluated as p^{-depth}; the truncation bias is far
    below statistical error at the default depth of 64).  The digits are
    drawn in packed blocks by mc_haar_zp.

    Frequencies are read from the counts, and mean_of evaluates g at the
    occupied norms p^{-k} weighted by their counts.
    """

    p: int
    depth: int
    count: int
    seed: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        if len(self.counts) != self.depth + 1 or int(self.counts.sum()) != self.count:
            raise ParameterError("HaarSample needs depth + 1 counts that sum to count")

    def _frequency(self, hits: int) -> tuple[float, float]:
        f = hits / self.count
        se = math.sqrt(max(f * (1.0 - f), 1.0 / self.count) / self.count)
        return f, se

    def shell_frequency(self, n: int) -> tuple[float, float]:
        """Empirical P(|y|_p = p^n) with a binomial standard error."""
        if n > 0:
            return 0.0, 0.0
        return self._frequency(int(self.counts[-n]) if -n <= self.depth else 0)

    def ball_frequency(self, k: int) -> tuple[float, float]:
        """Empirical P(|y|_p <= p^{-k}) with a binomial standard error."""
        return self._frequency(int(self.counts[max(k, 0):].sum()))

    def mean_of(self, g: RadialFunction) -> tuple[float, float]:
        """Empirical mean of g(|y|_p) and its standard error (count >= 2).

        g is evaluated once per occupied norm; the mean and the sample
        variance (ddof = 1) are count-weighted fsums over those norms.
        """
        import numpy as np

        if self.count < 2:
            raise ParameterError("a standard error needs count >= 2")
        k = np.flatnonzero(self.counts)
        u = np.power(float(self.p), -k.astype(np.float64))
        try:
            vals = np.asarray(g(u), dtype=np.float64)
            if vals.shape != u.shape:
                raise TypeError
        except (TypeError, ValueError):
            vals = np.fromiter((g(x) for x in u), dtype=np.float64, count=len(u))
        w = self.counts[k]
        mean = math.fsum(w * vals) / self.count
        d = vals - mean
        var = math.fsum(w * (d * d)) / (self.count - 1)
        return mean, math.sqrt(var) / math.sqrt(self.count)


def _block_histogram(x: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """(h, zeros): h[j] counts the nonzero int64 entries of x with v_p = j,
    up to the largest v_p that occurs, and zeros the entries equal to 0.

    A block x uniform on Z/p^kk holds kk base-p digits at once; v_p(x) is
    the number of its low digits that are zero.  At p = 2 that is the
    trailing-zero count, the number of bits set in (x & -x) - 1, and all
    64 are set for x = 0.  The bits are counted on the uint64 view: on
    int64, bitwise_count counts the bits of |x|, which gives 1 for -1.  At
    other p the rows divisible by p are kept and divided by p until only
    the zeros are left, and the rows dropped at step j have v_p = j.
    """
    import numpy as np

    if p == 2:
        h = np.bincount(np.bitwise_count(((x & -x) - 1).view(np.uint64)), minlength=65)
        return np.trim_zeros(h[:64], "b"), int(h[64])
    zeros = x.size - np.count_nonzero(x)
    y, h = x, []
    while y.size > zeros:  # the zeros stay: 0 is divisible by p
        rows = y.size
        y = y[y % p == 0] // p
        h.append(rows - y.size)
    return np.array(h, dtype=np.int64), zeros


# rows per draw of a Haar block: 256 KB of int64, and a peak of about
# 0.56 MB with the chunk's temporaries.  2^14 rows ran as fast, 2^13 and
# 2^16 slower (BENCH_26.json)
_HAAR_CHUNK = 1 << 15


def mc_haar_zp(p: int, depth: int = 64, count: int = 100_000, seed: int = 0) -> HaarSample:
    """Sample Z_p as uniform base-p digit strings; deterministic per seed.

    The digits are drawn in blocks of k, the largest k with p^k < 2^63.
    With done digits drawn so far, the next block is one uniform int64 on
    Z/p^kk, kk = min(k, depth - done), for each row whose earlier blocks
    were all zero.  A nonzero block gives the valuation done + v_p(block);
    a row that is zero in every block gets depth.  Only the histogram of
    the valuations is kept: each block adds to it, and the next block has
    one row per zero of this one.  The valuations come from the digits
    alone, never from the shell masses p^{-n}(1 - 1/p) they check.

    A block is drawn in chunks of at most _HAAR_CHUNK rows, so memory
    does not grow with count.  The chunks give exactly the values of one
    draw of the whole block and leave the generator in the same state:
    numpy draws bounded integers one at a time (Lemire's method, each
    rejection taking the next word of the stream), and below 2^32 the
    spare 32-bit half of a word is buffered in the bit generator, not in
    the call.  The tests compare counts and generator state with a
    one-call sampler.
    """
    import numpy as np

    require_prime(p)
    if p >= 2**63:
        raise ParameterError(f"mc_haar_zp needs p < 2^63, got p={p}")
    if depth < 1 or count < 1:
        raise ParameterError("mc_haar_zp needs depth >= 1 and count >= 1")
    k = 1
    while p ** (k + 1) < 2**63:
        k += 1
    rng = np.random.default_rng(seed)
    counts = np.zeros(depth + 1, dtype=np.int64)
    done, live = 0, count
    while done < depth and live:
        kk = min(k, depth - done)
        zeros = 0
        for start in range(0, live, _HAAR_CHUNK):
            size = min(_HAAR_CHUNK, live - start)
            h, z = _block_histogram(rng.integers(0, p**kk, size=size, dtype=np.int64), p)
            counts[done : done + h.size] += h
            zeros += z
        live = zeros
        done += kk
    counts[depth] += live
    return HaarSample(p, depth, count, seed, counts)
