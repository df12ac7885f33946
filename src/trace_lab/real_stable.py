"""Densities on R with symbol sigma|y|^alpha, Jacobi theta, and the
pi/3 potential integral.

One Fourier convention everywhere: fhat(y) = int f(x) e^{-2 pi i x y} dx.
Under it e^{-t pi y^2} inverts to t^{-1/2} e^{-pi x^2 / t} and
e^{-sigma t |y|} inverts to 2c / (c^2 + 4 pi^2 x^2) with c = sigma t.
The alternative reading behind the printed Cauchy mismatch is kept in
cauchy_psf_report under convention="paper".
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    MAX_TERMS,
    CompensatedSum,
    EvalResult,
    ParameterError,
    QuadratureConfig,
    ShellSumPlan,
)
from .quadrature import ENVELOPE_CUTOFF, cos_panel, gamma, panel, stretched_exp_tail

_DEFAULT_PLAN = ShellSumPlan()
_DEFAULT_QUAD = QuadratureConfig()

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class StableSymbol:
    """Rotationally invariant symbol eta(y) = sigma * |y|^alpha on R^d, d <= 3.

    The gaussian is (alpha, sigma) = (2, pi): eta(y) = pi |y|^2.
    """

    alpha: float
    sigma: float
    d: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ParameterError("alpha must lie in (0, 2]")
        if not self.sigma > 0.0:
            raise ParameterError("sigma must be positive")
        if self.d < 1:
            raise ParameterError("d must be a positive integer")
        if self.d > 3:
            raise ParameterError("d <= 3 enforced at the interface")

    @property
    def is_gaussian(self) -> bool:
        return (self.alpha, self.sigma) == (2.0, math.pi)

    def eta(self, y) -> float:
        if isinstance(y, (int, float)):
            r = abs(float(y))
        else:
            r = math.hypot(*(float(c) for c in y))
        return self.sigma * r**self.alpha


def _safe_exp(w: float) -> float:
    return math.exp(w) if w > -745.0 else 0.0


def gaussian_density(t: float, x: float) -> float:
    """t^{-1/2} e^{-pi x^2 / t}; transform pair of e^{-t pi y^2}."""
    if not t > 0:
        raise ParameterError("gaussian_density needs t > 0")
    return _safe_exp(-math.pi * x * x / t) / math.sqrt(t)


def theta(t: float, plan: ShellSumPlan = _DEFAULT_PLAN) -> EvalResult:
    """1 + 2 sum_{n>=1} e^{-t pi n^2} with a geometric tail bound."""
    if not t > 0:
        raise ParameterError("theta needs t > 0")
    acc = CompensatedSum()
    acc.add(1.0)
    # the n-th term, carried from the tail test of step n - 1
    nxt = 2.0 * _safe_exp(-t * math.pi)
    n = 0
    while n < MAX_TERMS:
        n += 1
        acc.add(nxt)
        # consecutive-term ratio is e^{-t pi (2n+1)} < 1, decreasing in n
        nxt = 2.0 * _safe_exp(-t * math.pi * (n + 1) * (n + 1))
        ratio = math.exp(-t * math.pi * (2 * n + 3))
        tail = nxt / (1.0 - ratio)
        if tail < plan.tail_tolerance:
            return EvalResult(acc.value, tail, n, True)
    return EvalResult(acc.value, math.inf, n, False)


_THETA_PLAN = ShellSumPlan(tail_tolerance=1e-16)


def _theta_value(t: float) -> float:
    return theta(t, _THETA_PLAN).value


def theta_functional_defect(t: float) -> float:
    """|theta(1/t) - sqrt(t) theta(t)|."""
    if not t > 0:
        raise ParameterError("theta_functional_defect needs t > 0")
    return abs(_theta_value(1.0 / t) - math.sqrt(t) * _theta_value(t))


def theta_potential_integral(
    quad: QuadratureConfig = _DEFAULT_QUAD, interval: str = "full"
) -> EvalResult:
    """int_0^inf (theta(t) - 1) dt, which should equal pi/3.

    The (0,1] piece is computed after t = u^2 and theta(t) =
    t^{-1/2} theta(1/t), which turns the integrand into the smooth
    2 theta(1/u^2) - 2u; the (1,inf) piece decays like e^{-pi t}.
    interval selects "lower" (0,1], "upper" (1,inf) or "full".
    """
    if interval not in ("full", "lower", "upper"):
        raise ParameterError(f"unknown interval {interval!r}")

    def lower_integrand(u: float) -> float:
        # theta(1/u^2) - 1 < e^{-pi/u^2}, already 0.0 in doubles below ~0.06
        if u < 1e-4:
            return 2.0 - 2.0 * u
        return 2.0 * _theta_value(1.0 / (u * u)) - 2.0 * u

    panels = []
    if interval in ("full", "lower"):
        panels.append(panel(lower_integrand, 0.0, 1.0, quad, 4.0, 1e-12))
    if interval in ("full", "upper"):
        panels.append(panel(lambda s: _theta_value(s) - 1.0, 1.0, math.inf, quad, 4.0, 1e-12))
    value = 0.0
    err = 0.0
    neval = 0
    for v, e, n, _ in panels:
        value += v
        err += e
        neval += n
    return EvalResult(value, err, neval, err <= quad.abs_tol)


class StableEnvelope(dict):
    """The panel envelope e^{-a y^alpha}, a = t sigma, keyed by the node y.

    One lattice sum runs many inversions of one law at one t, and QUADPACK
    visits the same nodes of [0, cut] for each of them; the dict computes
    each node once.  The panel end `cut` and the bound `tail` on the
    omitted integral depend only on the law and t, so they are formed
    here once too.  An envelope lives as long as its caller keeps it.
    """

    def __init__(self, symbol: StableSymbol, t: float):
        super().__init__()
        self.a = t * symbol.sigma
        self.alpha = symbol.alpha
        self.cut = (math.log(1.0 / ENVELOPE_CUTOFF) / self.a) ** (1.0 / self.alpha)
        # |omitted tail| <= int_Y^inf e^{-a y^alpha} dy, an upper incomplete gamma
        self.tail = stretched_exp_tail(1, self.a, self.alpha, self.cut)

    def __missing__(self, y: float) -> float:
        v = self[y] = _safe_exp(-self.a * y**self.alpha)
        return v


def stable_density_numeric(
    symbol: StableSymbol,
    t: float,
    x: float,
    quad: QuadratureConfig = _DEFAULT_QUAD,
    envelope: StableEnvelope | None = None,
) -> EvalResult:
    """Inversion 2 int_0^Y e^{-t sigma y^alpha} cos(2 pi x y) dy + tail bound.

    Always takes the numeric path, so it doubles as an oracle against the
    closed forms at alpha in {1, 2}.  Callers that invert one law at one t
    for many x pass one StableEnvelope(symbol, t) to every call;
    without one, the call builds its own.  The result is the same either way.
    """
    if not t > 0:
        raise ParameterError("stable_density_numeric needs t > 0")
    if symbol.d != 1:
        raise ParameterError("numeric inversion is one-dimensional")
    if envelope is None:
        envelope = StableEnvelope(symbol, t)
    # a bound dict method: QUADPACK's calls at known nodes enter no Python frame
    v, e, neval, _ = cos_panel(envelope.__getitem__, envelope.cut, abs(float(x)), quad)
    bound = 2.0 * (e + envelope.tail)
    return EvalResult(2.0 * v, bound, neval, bound <= quad.abs_tol)


def stable_density(
    symbol: StableSymbol, t: float, x: float, quad: QuadratureConfig = _DEFAULT_QUAD
) -> EvalResult:
    """Stable density at x: closed form for alpha in {1, 2}, else numeric."""
    if not t > 0:
        raise ParameterError("stable_density needs t > 0")
    if symbol.d != 1:
        raise ParameterError("stable_density evaluates one-dimensional laws")
    a = t * symbol.sigma
    if symbol.alpha == 2.0:
        v = math.sqrt(math.pi / a) * _safe_exp(-math.pi * math.pi * x * x / a)
        return EvalResult(v, abs(v) * 1e-14, 1, True)
    if symbol.alpha == 1.0:
        v = 2.0 * a / (a * a + 4.0 * math.pi * math.pi * x * x)
        return EvalResult(v, abs(v) * 1e-14, 1, True)
    return stable_density_numeric(symbol, t, x, quad)


def stable_asymptotic_coefficients(symbol: StableSymbol, t: float, k_max: int) -> list[float]:
    """Coefficients c_k of the large-x expansion
    f(x) ~ (1/pi) sum_{k>=1} c_k x^{-alpha k - 1}.

    c_k = (-1)^{k+1} Gamma(alpha k + 1)/k! * sin(pi alpha k / 2) * a'^k with
    a' = t sigma / (2 pi)^alpha.  At alpha = 1 this is exactly the geometric
    expansion of the Cauchy closed form.
    """
    alpha = symbol.alpha
    ap = t * symbol.sigma / _TWO_PI**alpha
    out = []
    for k in range(1, k_max + 1):
        c = (
            (-1.0) ** (k + 1)
            * gamma(alpha * k + 1.0)
            / math.factorial(k)
            * math.sin(math.pi * alpha * k / 2.0)
            * ap**k
        )
        out.append(c)
    return out


def stable_asymptotic_density(
    symbol: StableSymbol, t: float, x: float, k_max: int = 5
) -> tuple[float, float]:
    """Large-x expansion value at x and the magnitude of the next order."""
    xx = abs(float(x))
    if not xx > 0:
        raise ParameterError("asymptotic expansion needs x != 0")
    coeffs = stable_asymptotic_coefficients(symbol, t, k_max + 1)
    alpha = symbol.alpha
    val = sum(c * xx ** (-alpha * k - 1.0) for k, c in enumerate(coeffs[:-1], start=1)) / math.pi
    nxt = abs(coeffs[-1]) * xx ** (-alpha * (k_max + 1) - 1.0) / math.pi
    return val, nxt


@dataclass(frozen=True)
class PsfSumReport:
    """Both sides of sum_n f(n) = sum_n fhat(n) for the Cauchy law."""

    convention: str
    density_sum: EvalResult
    transform_sum: EvalResult
    defect: float


def _cauchy_lattice_sum(c: float) -> EvalResult:
    import numpy as np

    cutoff = 5000
    # sum over n in Z of 2c/(c^2 + 4 pi^2 n^2), tail by midpoint comparison:
    # sum_{n>N} g(n) = (1/pi)(pi/2 - arctan(2 pi (N+1/2)/c)) + O(|g'|/24)
    acc = CompensatedSum()
    g = lambda u: 2.0 * c / (c * c + 4.0 * math.pi * math.pi * u * u)
    acc.add(g(0.0))
    acc.extend(2.0 * g(np.arange(1.0, cutoff + 1)))
    m = cutoff + 0.5
    acc.add(2.0 * (0.5 - math.atan(_TWO_PI * m / c) / math.pi))
    w = _TWO_PI * m
    gp = 8.0 * math.pi * c * w / (c * c + w * w) ** 2
    return EvalResult(acc.value, gp / 12.0, cutoff + 1, True)


def cauchy_psf_report(convention: str = "consistent") -> PsfSumReport:
    """The two printed Cauchy sums, under either reading.

    convention="paper" reproduces the printed arithmetic literally:
    (1/pi)(1 + pi^2/3) against 1 + 2/(e - 1).  convention="consistent"
    keeps the e^{-2 pi i x y} kernel on both sides, where both sums equal
    coth(pi) and the defect vanishes.
    """
    if convention == "paper":
        lhs = (1.0 + math.pi * math.pi / 3.0) / math.pi
        rhs = 1.0 + 2.0 / (math.e - 1.0)
        return PsfSumReport(
            "paper",
            EvalResult(lhs, 0.0, 1, True),
            EvalResult(rhs, 0.0, 1, True),
            abs(lhs - rhs),
        )
    if convention != "consistent":
        raise ParameterError(f"convention must be paper or consistent, got {convention!r}")
    # the printed density 1/(pi(1+x^2)) is c = 2 pi here, transform e^{-2 pi |y|}
    dens = _cauchy_lattice_sum(_TWO_PI)
    r = math.exp(-_TWO_PI)
    spec_val = 1.0 + 2.0 * r / (1.0 - r)
    spec = EvalResult(spec_val, 1e-15, 1, True)
    return PsfSumReport("consistent", dens, spec, abs(dens.value - spec.value))

