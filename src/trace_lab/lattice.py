"""Periodisation onto the d-torus and the probabilistic trace formula.

Two independent evaluations of the wrapped density are kept side by side:

* lattice mode sums the real density over x + Z^d with explicit tail
  control (superexponential for gaussian-type laws, arctan midpoint
  comparison for Cauchy, asymptotic-expansion tails summed by Hurwitz
  zeta for other stable indices);
* spectral mode sums e^{-t eta(n)} cos(2 pi n.x) over sup-norm shells.

Their agreement at x = 0 is the trace identity; on a grid it is Poisson
summation.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

import numpy as np

from .core import (
    CapabilityError,
    CompensatedSum,
    EvalResult,
    ParameterError,
    QuadratureConfig,
    ShellSumPlan,
    product_results,
)
from .quadrature import hurwitz_zeta, stretched_exp_tail
from .real_stable import (
    StableEnvelope,
    StableSymbol,
    stable_asymptotic_coefficients,
    stable_asymptotic_density,
    stable_density_numeric,
)

_DEFAULT_PLAN = ShellSumPlan()
_TWO_PI = 2.0 * math.pi

# quadrature used for per-point density evaluations inside lattice sums
_LATTICE_QUAD = QuadratureConfig(abs_tol=1e-10, panel_limit=300)


def gaussian_law(d: int = 1) -> StableSymbol:
    return StableSymbol(2.0, math.pi, d)


def stable_law(alpha: float, sigma: float, d: int = 1) -> StableSymbol:
    return StableSymbol(alpha, sigma, d)


def _shells(
    d: int, shells: int, x: tuple[float, ...] | None
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """k = |n|^2 and, given x, the phase n.x of the points with sup-norm
    exactly m, for m = 1..shells-1 and d >= 2, one shell at a time.

    For each face coordinate f, from the last to the first, the points
    come with the coordinates before f in [-m, m] and those after f in
    [-m+1, m-1], nested in coordinate order, and n_f = -m, m varying
    fastest.  k is read off one outer sum of squares over the cube
    [-top, top]^(d-1), top = shells - 1.  The phase adds the products
    n_i x_i in coordinate order by broadcasting, so each element is the
    per-point sum bit for bit.  No per-point coordinate array is built.
    """
    top = shells - 1
    sq = np.arange(-top, top + 1, dtype=np.int64) ** 2
    part = sq
    for _ in range(d - 2):
        part = np.add.outer(part, sq)
    for m in range(1, shells):
        # every axis of part holds the same squares, so the face f reads
        # its d - 1 other coordinates off the first f axes in full and the
        # rest without their ends; n_f = -m, m adds m^2 to each twice
        cube = part[(slice(top - m, top + m + 1),) * (d - 1)]
        k = np.concatenate(
            [cube[(slice(None),) * f + (slice(1, -1),) * (d - 1 - f)].ravel() for f in reversed(range(d))]
        )
        yield np.repeat(k + m * m, 2), None if x is None else _shell_phase(d, m, x)


def _shell_phase(d: int, m: int, x: tuple[float, ...]) -> np.ndarray:
    # the face's axes hold the coordinates other than f in order, then f
    full = np.arange(-m, m + 1, dtype=np.int64)
    phases = []
    for f in reversed(range(d)):
        axes = np.ix_(*([full] * f + [full[1:-1]] * (d - 1 - f) + [full[[0, -1]]]))
        axes = axes[:f] + axes[-1:] + axes[f:-1]
        phase = axes[0] * x[0]
        for ai, xi in zip(axes[1:], x[1:]):
            phase = phase + ai * xi
        phases.append(phase.ravel())
    return np.concatenate(phases)


def _shell_tail_head(d: int, c: float, alpha: float, m_next: float) -> tuple[float, float]:
    # every point of sup-norm m has Euclidean norm >= m, and there are
    # at most 2 d 3^{d-1} m^{d-1} of them; the m-sum is bounded by its
    # first term plus the integral once u^{d-1} e^{-c u^alpha} decreases
    pref = 2.0 * d * 3.0 ** (d - 1)
    w = c * m_next**alpha
    return pref, m_next ** (d - 1) * (math.exp(-w) if w < 745.0 else 0.0)


def _shell_tail_bound(d: int, c: float, alpha: float, m_next: float) -> float:
    pref, first = _shell_tail_head(d, c, alpha, m_next)
    return pref * (first + stretched_exp_tail(d, c, alpha, m_next))


def _normalize_point(x, d: int) -> tuple[float, ...]:
    if isinstance(x, (int, float, Fraction)):
        x = (x,)
    xs = tuple(x)
    if len(xs) != d:
        raise ParameterError(f"point has {len(xs)} coordinates, law lives in d={d}")
    out = []
    for c in xs:
        if isinstance(c, Fraction):
            out.append(float(c % 1))
        else:
            out.append(float(c) % 1.0)
    return tuple(out)


def _weight(sym: StableSymbol, t: float, k: int) -> float:
    """e^{-t eta(n)} at the points n with |n|^2 = k.

    math.hypot(*n) == math.sqrt(k) for every n the default plan reaches
    (tests/test_lattice.py checks it), so this is the per-point
    math.exp(-t * eta(n)) bit for bit.
    """
    w = t * sym.eta(math.sqrt(k))
    return math.exp(-w) if w < 745.0 else 0.0


def _weights(sym: StableSymbol, t: float, ks: np.ndarray) -> np.ndarray:
    """_weight(sym, t, k) for each k of ks, bit for bit.

    np.sqrt is correctly rounded, as math.sqrt is; the power and the
    exponential stay scalar (Python ** and math.exp), because np.power and
    np.exp take CPU-dependent SIMD paths that differ in the last bit.
    """
    r = np.sqrt(ks).tolist()
    w = t * (sym.sigma * np.fromiter(map(pow, r, repeat(sym.alpha)), np.float64, len(r)))
    e = np.fromiter(map(math.exp, (-w).tolist()), np.float64, len(r))
    e[w >= 745.0] = 0.0
    return e


def _shell_sums(e: np.ndarray, phase: np.ndarray | None) -> np.ndarray:
    """Row sums of e[n] [cos(2 pi n.x)] over points n laid out by row.

    e holds the weights e^{-t eta(n)} and is overwritten; phase holds n.x,
    or None for x = 0.  Each row is summed left to right, as `shell += e`
    would; np.cos on float64 calls the same libm cos as math.cos.
    """
    if phase is not None:
        live = e != 0.0
        e[live] *= np.cos(_TWO_PI * phase[live])
    return np.add.accumulate(e, axis=-1)[..., -1]


# d = 1 shells hold two points, too few for one numpy call each
_D1_BLOCK = 4096


def _spectral_sum(
    sym: StableSymbol, t: float, x: tuple[float, ...] | None, plan: ShellSumPlan
) -> EvalResult:
    c = t * sym.sigma
    alpha = sym.alpha
    d = sym.d
    # the truncation depends on the shell sizes alone; sum shells 0..shells-1
    points = 0
    shells = 0
    while points <= plan.max_terms:
        points += (2 * shells + 1) ** d - (2 * shells - 1) ** d if shells else 1
        shells += 1
        # the first-term-plus-integral comparison needs the shell weight
        # to be decreasing from m = shells on: c alpha m^alpha >= d suffices
        if c * alpha * float(shells) ** alpha >= d:
            # the tail is pref (first + I) with I >= 0 and rounding is
            # monotone, so pref first >= tol means tail >= tol: skip I
            pref, first = _shell_tail_head(d, c, alpha, float(shells))
            if pref * first < plan.tail_tolerance:
                tail = pref * (first + stretched_exp_tail(d, c, alpha, float(shells)))
                if tail < plan.tail_tolerance:
                    break
    else:
        tail = math.inf
    if x is not None and not any(x):
        # cos(0) = 1 and e * 1.0 = e, so x = 0 needs no phase
        x = None
    acc = CompensatedSum()
    # the shell m = 0 is n = 0, where cos(2 pi n.x) = 1
    acc.add(_weight(sym, t, 0))
    if d == 1:
        # one row per shell, the point m before -m; each k = m^2 occurs in
        # one row only, so the weights are formed per block
        for m0 in range(1, shells, _D1_BLOCK):
            ms = np.arange(m0, min(m0 + _D1_BLOCK, shells), dtype=np.int64)
            w = _weights(sym, t, ms * ms)
            phase = None if x is None else np.stack([ms, -ms], axis=1) * x[0]
            acc.extend(_shell_sums(np.stack([w, w], axis=1), phase))
    else:
        # shells share most of their k = |n|^2: one weight per k that occurs
        # in shells 0..shells-1 (the octant n >= 0 holds them all), looked
        # up by k
        sq = np.arange(shells, dtype=np.int64) ** 2
        k_all = sq
        for _ in range(d - 1):
            k_all = np.add.outer(k_all, sq)
        occurs = np.zeros(d * (shells - 1) ** 2 + 1, dtype=bool)
        occurs[k_all] = True
        ks = np.flatnonzero(occurs)
        table = np.zeros(occurs.size)
        table[ks] = _weights(sym, t, ks)
        for k, phase in _shells(d, shells, x):
            acc.add(float(_shell_sums(table[k], phase)))
    return EvalResult(acc.value, tail, points, math.isfinite(tail))


def spectral_trace(
    sym: StableSymbol, t: float, plan: ShellSumPlan = _DEFAULT_PLAN
) -> EvalResult:
    """sum_{n in Z^d} e^{-t eta(n)} over sup-norm shells with tail bound."""
    if t <= 0:
        raise ParameterError("spectral_trace needs t > 0")
    return _spectral_sum(sym, t, None, plan)


def _wrapped_gauss_1d(a: float, x0: float, plan: ShellSumPlan) -> EvalResult:
    # f(u) = sqrt(pi/a) e^{-pi^2 u^2 / a}; superexponential direct sum
    pref = math.sqrt(math.pi / a)
    q = math.pi * math.pi / a

    def f(u: float) -> float:
        w = q * u * u
        return pref * math.exp(-w) if w < 745.0 else 0.0

    acc = CompensatedSum()
    acc.add(f(x0))
    prev = math.inf
    n = 1
    while n < plan.max_terms:
        term = f(x0 + n) + f(x0 - n)
        acc.add(term)
        if term < plan.tail_tolerance / 10.0 and term < prev:
            # log-concave tails: the term ratio only decreases from here
            r = term / prev if prev > 0 else 0.0
            if r < 0.9:
                return EvalResult(acc.value, term * r / (1.0 - r), n, True)
        prev = term if term > 0.0 else prev
        n += 1
    return EvalResult(acc.value, math.inf, n, False)


def _cauchy_g(c: float, u: float) -> float:
    w = _TWO_PI * u
    return 2.0 * c / (c * c + w * w)


def _cauchy_tail(c: float, m: float) -> tuple[float, float]:
    # (integral from m to inf, midpoint-rule error bound)
    val = 0.5 - math.atan(_TWO_PI * m / c) / math.pi
    w = _TWO_PI * m
    gp = 8.0 * math.pi * c * w / (c * c + w * w) ** 2
    gpp = 16.0 * math.pi**2 * c * abs(3.0 * w * w - c * c) / (c * c + w * w) ** 3
    return val, (gp + gpp) / 24.0


def _wrapped_cauchy_1d(c: float, x0: float, cutoff: int = 4000) -> EvalResult:
    acc = CompensatedSum()
    acc.add(_cauchy_g(c, x0))
    n = np.arange(1, cutoff + 1)
    acc.extend(_cauchy_g(c, x0 + n) + _cauchy_g(c, x0 - n))
    bound = 0.0
    for m in (cutoff + 0.5 + x0, cutoff + 0.5 - x0):
        val, err = _cauchy_tail(c, m)
        acc.add(val)
        bound += err
    return EvalResult(acc.value, bound, 2 * cutoff + 1, True)


def _wrapped_stable_numeric_1d(
    symbol: StableSymbol,
    t: float,
    x0: float,
    quad: QuadratureConfig,
    direct_radius: int = 32,
    k_max: int = 6,
) -> EvalResult:
    alpha = symbol.alpha
    acc = CompensatedSum()
    bound = 0.0
    neval = 0
    # every quadrature below inverts one law at one t
    envelope = StableEnvelope(symbol, t)
    # f_t is even, so at x0 = 0 or 1/2 the points n and -n (or -n-1) share
    # |x0 + n|: one quadrature per distinct float, summed in n order
    densities: dict[float, EvalResult] = {}
    for n in range(-direct_radius, direct_radius + 1):
        u = abs(x0 + n)
        r = densities.get(u)
        if r is None:
            r = densities[u] = stable_density_numeric(symbol, t, u, quad, envelope)
            neval += r.terms_used
        acc.add(r.value)
        bound += r.error_bound

    # both tails via the large-x expansion, lattice-summed by Hurwitz zeta
    coeffs = stable_asymptotic_coefficients(symbol, t, k_max + 1)
    q_right = direct_radius + 1 + x0
    q_left = direct_radius + 1 - x0
    for q in (q_right, q_left):
        tail = sum(
            ck * hurwitz_zeta(alpha * k + 1.0, q)
            for k, ck in enumerate(coeffs[:-1], start=1)
        )
        acc.add(tail / math.pi)

    # declared tail error: next expansion order plus a calibration of the
    # expansion against direct quadrature at the nearest omitted point,
    # propagated with the worst-case decay u^{-(alpha+1)}
    q_min = min(q_right, q_left)
    next_order = abs(coeffs[-1]) * hurwitz_zeta(alpha * (k_max + 1) + 1.0, q_min) / math.pi
    asym, _ = stable_asymptotic_density(symbol, t, q_min, k_max)
    probe = stable_density_numeric(symbol, t, q_min, quad, envelope)
    mismatch = abs(asym - probe.value) + probe.error_bound
    cal = mismatch * hurwitz_zeta(alpha + 1.0, q_min) * q_min ** (alpha + 1.0)
    bound += 2.0 * (next_order + cal)
    return EvalResult(acc.value, bound, neval, bound < math.inf)


def wrapped_density(
    sym: StableSymbol,
    t: float,
    x,
    mode: str = "spectral",
    plan: ShellSumPlan = _DEFAULT_PLAN,
) -> EvalResult:
    """Density of the wrapped law at x in [0,1)^d, by either summation."""
    if t <= 0:
        raise ParameterError("wrapped_density needs t > 0")
    xs = _normalize_point(x, sym.d)
    if mode == "spectral":
        return _spectral_sum(sym, t, xs, plan)
    if mode != "lattice":
        raise ParameterError(f"mode must be lattice or spectral, got {mode!r}")
    a = t * sym.sigma
    if sym.alpha == 2.0:
        parts = [_wrapped_gauss_1d(a, x0, plan) for x0 in xs]
        return product_results(parts)
    if sym.d != 1:
        raise CapabilityError("no density evaluator for d > 1 stable laws")
    if sym.alpha == 1.0:
        return _wrapped_cauchy_1d(a, xs[0])
    return _wrapped_stable_numeric_1d(sym, t, xs[0], _LATTICE_QUAD)


@dataclass(frozen=True)
class TraceReport:
    t: float
    lattice_value: EvalResult
    spectral_value: EvalResult

    @property
    def defect(self) -> float:
        return abs(self.lattice_value.value - self.spectral_value.value)

    @property
    def combined_bound(self) -> float:
        return self.lattice_value.error_bound + self.spectral_value.error_bound


def trace_defect(
    sym: StableSymbol, t: float, plan: ShellSumPlan = _DEFAULT_PLAN
) -> TraceReport:
    """Wrapped density at the identity against the spectral trace."""
    # closed forms exist at alpha = 2 in any d (the symbol separates over
    # coordinates) and for every alpha in d = 1
    if not (sym.alpha == 2.0 or sym.d == 1):
        raise CapabilityError("trace_defect needs a density evaluator")
    origin = (0.0,) * sym.d
    lat = wrapped_density(sym, t, origin, "lattice", plan)
    sp = spectral_trace(sym, t, plan)
    return TraceReport(t, lat, sp)


@dataclass(frozen=True)
class PotentialReport:
    alpha: float
    sigma: float
    diverged: bool
    value: EvalResult | None
    reference: float | None

    @property
    def defect(self) -> float | None:
        if self.value is None or self.reference is None:
            return None
        return abs(self.value.value - self.reference)


def potential_identity(alpha: float, sigma: float) -> PotentialReport:
    """Term-wise time integral of the centered trace, against 2 zeta(alpha)/sigma.

    Each spectral term integrates exactly: int_0^inf e^{-t sigma n^alpha} dt
    = 1/(sigma n^alpha).  The identity needs alpha > 1; for alpha <= 1 the
    n-sum diverges and only a flag is returned.  For the gaussian
    (alpha, sigma) = (2, pi) the reference 2 zeta(2)/pi is pi/3.
    """
    sym = StableSymbol(alpha, sigma)
    if alpha <= 1.0:
        return PotentialReport(alpha, sigma, True, None, None)

    cutoff = 20_000
    acc = CompensatedSum()
    ns = np.arange(1.0, cutoff + 1).tolist()
    acc.extend(np.fromiter(map(pow, ns, repeat(-alpha)), np.float64, cutoff))
    # Euler-Maclaurin continuation from the cutoff
    nf = float(cutoff)
    tail = nf ** (1.0 - alpha) / (alpha - 1.0) - 0.5 * nf ** (-alpha)
    tail += alpha / 12.0 * nf ** (-alpha - 1.0)
    err = alpha * (alpha + 1.0) * (alpha + 2.0) / 720.0 * nf ** (-alpha - 3.0)
    acc.add(tail)
    value = EvalResult(2.0 * acc.value / sigma, 2.0 * err / sigma, cutoff, True)
    reference = math.pi / 3.0 if sym.is_gaussian else 2.0 * hurwitz_zeta(alpha, 1.0) / sigma
    return PotentialReport(alpha, sigma, False, value, reference)
