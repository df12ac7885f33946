"""Finite-support adele and idele arithmetic over Q.

Points carry an explicit component map at finitely many primes plus a
rational `fill` used for every unlisted prime; the restricted-product
constraint (unlisted components integral for points, units for ideles)
is enforced on the fill, so diagonal embeddings of rationals are exact
and every product below is finite by construction.

On top of that sit Bruhat-Schwartz product densities (one real stable
factor, semistable factors at the primes of S, indicator factors
elsewhere), the idele scaling action with its mass and Fourier checks,
and the character sums over the S-smooth rationals D.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from .core import (
    CompensatedSum,
    EvalResult,
    ParameterError,
    QuadratureConfig,
    ShellSumPlan,
    format_rational,
    parse_number,
    product_results,
    require_prime,
)
from .padic import (
    Rational,
    _char_qp,
    _norm_ratio,
    _valuation,
    padic_norm,
    prime_support,
    rational_float,
    valuation,
)
from .padic_integrals import ball_char_integral, norm_float, shell_char_kernel
from .quadrature import ENVELOPE_CUTOFF, cos_panel, panel
from .semistable import SemistableLaw, _ShellTable, _shell_mass, char_fn
from .semistable import density as semistable_density
from .real_stable import (
    StableEnvelope,
    StableSymbol,
    gaussian_density,
    stable_asymptotic_coefficients,
    stable_density,
    stable_density_numeric,
)

_DEFAULT_PLAN = ShellSumPlan()
_DEFAULT_QUAD = QuadratureConfig()
_TWO_PI = 2.0 * math.pi


def _as_fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _as_real(v) -> float | Fraction:
    if isinstance(v, (Fraction, int)):
        return _as_fraction(v)
    return float(v)


def _check_fill(fill: Fraction, support: tuple[int, ...], deny_numerator: bool) -> None:
    # Only the primes of fill outside support can offend: divide the listed
    # ones out first, so a fill whose primes are all listed is not factored.
    num, den = abs(fill.numerator), fill.denominator
    if num == 0:
        return
    for p in support:
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
    if num == den == 1:
        return
    for p in prime_support(Fraction(num, den)):
        if deny_numerator or den % p == 0:
            raise ParameterError(
                f"fill {format_rational(fill)} is not allowed implicitly at p={p}"
            )


@dataclass(frozen=True)
class _PlaceMap:
    """A point of the restricted product over the places of Q: a real
    component, explicit components at finitely many primes, and a rational
    `fill` for every unlisted prime.

    Adeles and ideles differ only in the subring that the unlisted
    components must lie in: Z_p (`_UNIT` 0) or Z_p^x (`_UNIT` 1).  `real`
    and `fill` default to the unit.
    """

    _UNIT: ClassVar[int]

    real: float | Fraction | None = None
    finite: Mapping[int, Fraction] = None  # type: ignore[assignment]
    fill: Fraction | None = None

    def __post_init__(self):
        comps = {} if self.finite is None else dict(self.finite)
        # the one primality check of each listed prime
        for p, v in comps.items():
            require_prime(p)
            comps[p] = _as_fraction(v)
        unit = self._UNIT
        object.__setattr__(self, "finite", comps)
        object.__setattr__(self, "real", _as_real(float(unit) if self.real is None else self.real))
        object.__setattr__(self, "fill", _as_fraction(unit if self.fill is None else self.fill))
        self._check_nonzero()
        _check_fill(self.fill, self.support, deny_numerator=unit == 1)

    def _check_nonzero(self) -> None:
        """Adele components may vanish."""

    @classmethod
    def _diagonal(cls, q: Fraction):
        """q at every place, built without __post_init__'s checks:
        prime_support proves each prime it lists, and with every prime of
        q listed the fill q is integral, and a unit for q != 0, elsewhere."""
        point = object.__new__(cls)
        object.__setattr__(point, "real", q)
        object.__setattr__(point, "finite", dict.fromkeys(prime_support(q), q))
        object.__setattr__(point, "fill", q)
        return point

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.finite))

    def component(self, p: int) -> Fraction:
        return self.finite.get(p, self.fill)

    def _combine(self, other: "_PlaceMap", op: Callable, cls: type):
        """cls built componentwise from op(self, other); the real part is
        exact when both real parts are Fractions, a float otherwise."""
        ps = set(self.support) | set(other.support)
        if isinstance(self.real, Fraction) and isinstance(other.real, Fraction):
            real = op(self.real, other.real)
        else:
            real = op(float(self.real), float(other.real))
        return cls(
            real,
            {p: op(self.component(p), other.component(p)) for p in ps},
            fill=op(self.fill, other.fill),
        )

    def to_dict(self) -> dict:
        real = format_rational(self.real) if isinstance(self.real, Fraction) else repr(self.real)
        out = {"inf": real}
        for p in self.support:
            out[str(p)] = format_rational(self.finite[p])
        if self.fill != self._UNIT:
            out["fill"] = format_rational(self.fill)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, str]):
        real: float | Fraction | None = None
        fill: Fraction | None = None
        comps: dict[int, Fraction] = {}
        for key, raw in data.items():
            if key == "inf":
                real = parse_number(raw, "exact", "inf")
            elif key == "fill":
                fill = parse_number(raw, "rational", "fill")
            else:
                p = parse_number(key, "int", "a place")
                comps[p] = parse_number(raw, "rational", f"the component at {key}")
        return cls(real, comps, fill=fill)


@dataclass(frozen=True)
class AdelePoint(_PlaceMap):
    """An adele with finite explicit support; unlisted components = fill.

    The default fill 0 gives the plain restricted-product point; the
    diagonal embedding of q uses fill q with the primes of q explicit.
    """

    _UNIT = 0

    @staticmethod
    def diagonal(q: Rational) -> "AdelePoint":
        return AdelePoint._diagonal(_as_fraction(q))

    def __add__(self, other: "AdelePoint") -> "AdelePoint":
        if not isinstance(other, AdelePoint):
            return NotImplemented
        return self._combine(other, operator.add, AdelePoint)


@dataclass(frozen=True)
class Idele(_PlaceMap):
    """An idele: all components nonzero, unlisted components = fill (a unit)."""

    _UNIT = 1

    def _check_nonzero(self) -> None:
        for p, v in self.finite.items():
            if v == 0:
                raise ParameterError(f"idele component at p={p} must be nonzero")
        if self.real == 0 or self.fill == 0:
            raise ParameterError("idele components must be nonzero")

    @staticmethod
    def diagonal(q: Rational) -> "Idele":
        q = _as_fraction(q)
        if q == 0:
            raise ParameterError("diagonal idele needs q != 0")
        return Idele._diagonal(q)

    def inverse(self) -> "Idele":
        real = 1 / self.real if isinstance(self.real, Fraction) else 1.0 / self.real
        return Idele(real, {p: 1 / v for p, v in self.finite.items()}, fill=1 / self.fill)

    def __mul__(self, other: "Idele") -> "Idele":
        if not isinstance(other, Idele):
            return NotImplemented
        return self._combine(other, operator.mul, Idele)


def idele_norm(a: Idele) -> float | Fraction:
    """|a_inf| * prod over the support of |a_p|_p; exact for rational a_inf.

    The finite product is formed in integers from v_p of each component,
    whose prime was checked when the idele was built.  For a float a_inf
    it is rounded once, saturating to inf beyond double range.
    """
    num, den = _norm_ratio(a.finite.items())
    if isinstance(a.real, Fraction):
        return Fraction(abs(a.real.numerator) * num, a.real.denominator * den)
    return abs(float(a.real)) * rational_float(Fraction(num, den))


def scale_point(a: Idele, x: AdelePoint) -> AdelePoint:
    """Componentwise product ax."""
    return a._combine(x, operator.mul, AdelePoint)


def adele_char(y: AdelePoint, x: AdelePoint) -> complex:
    """e^{-2 pi i x_inf y_inf} * prod_p chi_{y_p}(x_p), a finite product.

    Outside both supports the component product lies in Z_p and each local
    character is 1; on the diagonal the real and finite phases cancel, so
    adele_char(diagonal(q), diagonal(r)) = 1 for all rationals q, r.
    """
    if isinstance(x.real, Fraction) and isinstance(y.real, Fraction):
        # reduce the phase mod 1 exactly so it cannot grow with |x y|
        arg = x.real * y.real
        arg -= arg.__floor__()
        theta = -_TWO_PI * float(arg)
    else:
        theta = -_TWO_PI * float(x.real) * float(y.real)
    z = complex(math.cos(theta), math.sin(theta))
    for p in sorted(set(x.support) | set(y.support)):
        z *= _char_qp(y.component(p), x.component(p), p)
    return z


@dataclass(frozen=True)
class RealFactor:
    """The archimedean factor: the law with symbol sigma|y|^alpha at time t.

    The gaussian is (alpha, sigma) = (2, pi).
    """

    t: float
    alpha: float
    sigma: float

    def __post_init__(self):
        if self.t <= 0:
            raise ParameterError("real factor needs t > 0")
        StableSymbol(self.alpha, self.sigma, 1)

    @cached_property
    def symbol(self) -> StableSymbol:
        return StableSymbol(self.alpha, self.sigma, 1)

    def density(self, x: float, quad: QuadratureConfig = _DEFAULT_QUAD) -> EvalResult:
        if self.symbol.is_gaussian:
            v = gaussian_density(self.t, x)
            return EvalResult(v, abs(v) * 1e-14, 1, True)
        return stable_density(self.symbol, self.t, x, quad)

    def transform(self, y: float) -> float:
        w = self.t * self.sigma * abs(y) ** self.alpha
        return math.exp(-w) if w < 745.0 else 0.0


def gaussian_factor(t: float) -> RealFactor:
    # eta(y) = pi y^2, so the transform is e^{-t pi y^2}
    return RealFactor(t, 2.0, math.pi)


def stable_factor(alpha: float, sigma: float, t: float) -> RealFactor:
    return RealFactor(t, alpha, sigma)


@dataclass(frozen=True)
class FiniteFactor:
    """A semistable factor at one prime."""

    law: SemistableLaw
    t: float

    def __post_init__(self):
        if self.t <= 0:
            raise ParameterError("finite factor needs t > 0")

    def density(self, x: Rational, plan: ShellSumPlan = _DEFAULT_PLAN) -> EvalResult:
        return semistable_density(self.law, self.t, x, "shell", plan)

    def transform(self, y: Rational) -> float:
        return char_fn(self.law, self.t, y)


@dataclass(frozen=True)
class BruhatSchwartzSpec:
    """Product test function: real factor x semistable factors on S x gamma_p."""

    real_factor: RealFactor
    finite_factors: Mapping[int, FiniteFactor] = None  # type: ignore[assignment]

    def __post_init__(self):
        factors = {} if self.finite_factors is None else dict(self.finite_factors)
        for p, f in factors.items():
            require_prime(p)
            if f.law.p != p:
                raise ParameterError(f"factor at p={p} built from a law over p={f.law.p}")
        object.__setattr__(self, "finite_factors", factors)

    @property
    def S(self) -> tuple[int, ...]:
        return tuple(sorted(self.finite_factors))


def make_mu_spec(
    alpha: float, sigma: float, gamma: float, C: float, t: float, S: Sequence[int]
) -> BruhatSchwartzSpec:
    """The shared-parameter family: one (alpha, sigma) real stable factor and
    identical (gamma, C) semistable factors at every prime of S."""
    factors = {int(p): FiniteFactor(SemistableLaw(int(p), gamma, C), t) for p in S}
    return BruhatSchwartzSpec(stable_factor(alpha, sigma, t), factors)


def bs_eval(
    spec: BruhatSchwartzSpec,
    x: AdelePoint,
    side: str = "density",
    plan: ShellSumPlan = _DEFAULT_PLAN,
    quad: QuadratureConfig = _DEFAULT_QUAD,
) -> EvalResult:
    """Finite product of component densities, or of component transforms.

    Off S each factor is the indicator of Z_p, so a point outside it is
    0 on either side before any factor is evaluated.
    """
    if side not in ("density", "transform"):
        raise ParameterError(f"side must be density or transform, got {side!r}")
    for p in x.support:
        if p not in spec.finite_factors and _valuation(x.component(p), p) < 0:
            return EvalResult(0.0, 0.0, 1, True)
    if side == "density":
        parts = [spec.real_factor.density(float(x.real), quad)]
        for p, f in sorted(spec.finite_factors.items()):
            parts.append(f.density(x.component(p), plan))
        return product_results(parts)
    value = spec.real_factor.transform(float(x.real))
    for p, f in sorted(spec.finite_factors.items()):
        value *= f.transform(x.component(p))
    return EvalResult(value, abs(value) * 1e-14, 1, True)


# Below this height the float a/b orders the members of D of one height as
# the fractions do: two of them differ by at least 1/H^2, which is more than
# one ulp of H whenever H^3 < 2^52, and correctly rounded division is monotone.
_D_HEIGHT_LIMIT = 1 << 17

# The gcd grid and the member arrays grow with the cells (denominators x
# (height + 1)).  The cap is the grid of S = {2} just below the height
# limit, 17 x 2^17 cells: char-sum --S 2 --heights 131071 takes about
# 1.4 s and a 300 MB peak RSS on a 2-core machine.  More primes admit lower
# heights.
_D_CELL_LIMIT = 17 * _D_HEIGHT_LIMIT


def _d_members(S: Sequence[int], height: int) -> tuple[np.ndarray, ...]:
    """D up to `height`, ordered by max(|a|, b) then numerically, as arrays.

    Returns (b, vb, a, row, h).  The denominators b are built as products of
    the primes of S, so their valuation vectors vb (v_p(b) for p in sorted
    S) are known from construction.  Member k is a[k] / b[row[k]], of height
    h[k].  Coprimality is read off one (denominators x 0..height) gcd grid,
    whose cells (b, |a|) give the members a/b and -a/b.  A grid of more
    than _D_CELL_LIMIT cells is refused before it is built.
    """
    if height < 1:
        raise ParameterError("height must be >= 1")
    if height >= _D_HEIGHT_LIMIT:
        raise ParameterError(f"height must be < {_D_HEIGHT_LIMIT}, got {height}")
    primes = sorted({require_prime(int(p)) for p in S})
    most = _D_CELL_LIMIT // (height + 1)
    denoms = [(1, (0,) * len(primes))]
    for i, p in enumerate(primes):
        extra = []
        for b, vb in denoms:
            q, e = b * p, 1
            while q <= height:
                extra.append((q, vb[:i] + (e,) + vb[i + 1 :]))
                if len(denoms) + len(extra) > most:
                    raise ParameterError(
                        f"D to height {height} needs more than {_D_CELL_LIMIT} cells "
                        "(S-smooth denominators x (height + 1)); lower the height or shrink S"
                    )
                q, e = q * p, e + 1
        denoms.extend(extra)
    b = np.array([d for d, _ in denoms], dtype=np.int64)
    vb = np.array([v for _, v in denoms], dtype=np.int64)
    row, col = np.nonzero(np.gcd(b[:, None], np.arange(height + 1, dtype=np.int64)) == 1)
    pos = col > 0
    a = np.concatenate((col, -col[pos]))
    row = np.concatenate((row, row[pos]))
    den = b[row]
    h = np.maximum(np.abs(a), den)
    order = np.lexsort((a / den, h))
    return b, vb, a[order], row[order], h[order]


def enumerate_D(S: Sequence[int], height: int) -> list[Fraction]:
    """All r = a/b with |a| <= height, b an S-smooth positive integer
    <= height, gcd(a, b) = 1, ordered by max(|a|, b) then numerically.

    These are the members of _d_members, which rational_char_sum sums
    over, as fractions.
    """
    b, _, a, row, _ = _d_members(S, height)
    return [Fraction(n, d) for n, d in zip(a.tolist(), b[row].tolist())]


def is_in_D(r: Rational, S: Sequence[int]) -> bool:
    """gamma_p(r) != 0 for every p outside S, i.e. the denominator is S-smooth:
    dividing out the primes of S leaves 1."""
    b = Fraction(r).denominator
    for p in {require_prime(int(p)) for p in S}:
        while b % p == 0:
            b //= p
    return b == 1


def d_height(r: Fraction) -> int:
    return max(abs(r.numerator), r.denominator)


@dataclass(frozen=True)
class DirectCharSumReport:
    heights: tuple[int, ...]
    partial_sums: tuple[float, ...]
    differences: tuple[float, ...]
    ratios: tuple[float, ...]
    terms_evaluated: int


@dataclass(frozen=True)
class PaperBoundReport:
    p0: int
    A: int
    M: int
    first_series: float
    first_last_term: float
    second_series: float
    second_tail_bound: float


def rational_char_sum(
    spec: BruhatSchwartzSpec,
    height_schedule: Sequence[int],
    mode: str = "direct",
    A: int = 1,
    M: int = 100,
):
    """Character sums over D: exhaustive partial sums, or the two bound series.

    Direct mode sums the transform side of bs_eval over diagonal points of D
    up to each height and reports successive differences and their ratios;
    all terms are positive, so the partial sums are monotone.  paper_bound
    mode evaluates the two comparison series of the printed bound literally:
    the n-series has terms tending to 1 (it diverges), the m-series converges.

    The direct terms are bs_eval(spec, AdelePoint.diagonal(a/b), "transform")
    computed from the integer pair (a, b): the real transform at a/b times,
    for p in sorted S, the factor at p, which depends on v_p(a/b) alone and
    is read from a table of FiniteFactor.transform(p**v), one call per v.
    The indicator factors at primes outside S are identically 1 on D,
    because every denominator is S-smooth, so they are skipped.  The values
    and their order of addition are those of the bs_eval loop, bit for bit.
    """
    if mode == "direct":
        if not spec.S:
            raise ParameterError("direct mode needs a nonempty S")
        schedule = sorted({int(h) for h in height_schedule})
        if not schedule or schedule[0] < 1:
            raise ParameterError("height schedule must contain positive integers")
        top = schedule[-1]
        b, vb, a, row, h = _d_members(spec.S, top)
        rf = spec.real_factor
        # one value per cell (b, |a|): the terms at a and -a are equal, since
        # the real factor reads |a/b| and v_p(-a) = v_p(a)
        cell = a >= 0
        cell_row, cell_col = row[cell], a[cell]
        value = np.array([rf.transform(y) for y in (cell_col / b[cell_row]).tolist()])
        # at r = 0 every finite factor is char_fn(y=0) = 1.0
        nz = cell_col > 0
        nz_row, nz_col = cell_row[nz], cell_col[nz]
        for i, (p, f) in enumerate(sorted(spec.finite_factors.items())):
            # a is prime to p whenever p divides b: v_p(a/b) = v_p(a) - v_p(b)
            v = -vb[nz_row, i]
            k = p
            while k <= top:
                v += nz_col % k == 0
                k *= p
            lo = int(v.min())
            table = np.array([f.transform(Fraction(p) ** u) for u in range(lo, int(v.max()) + 1)])
            value[nz] *= table[v - lo]
        grid = np.zeros((len(b), top + 1))
        grid[cell_row, cell_col] = value
        terms = grid[row, np.abs(a)]
        acc = CompensatedSum()
        partials = []
        idx = 0
        for cut in np.searchsorted(h, schedule, side="right").tolist():
            acc.extend(terms[idx:cut])
            partials.append(acc.value)
            idx = cut
        diffs = [partials[0]] + [b - a for a, b in zip(partials, partials[1:])]
        ratios = []
        for a, b in zip(diffs, diffs[1:]):
            ratios.append(b / a if a != 0.0 else math.inf)
        return DirectCharSumReport(
            tuple(schedule), tuple(partials), tuple(diffs), tuple(ratios), idx
        )
    if mode != "paper_bound":
        raise ParameterError(f"mode must be direct or paper_bound, got {mode!r}")
    if not spec.S:
        raise ParameterError("paper_bound mode needs a nonempty S")
    p0 = min(spec.S)
    A = int(A)
    if A == 0 or A % p0 == 0:
        raise ParameterError(f"A must be nonzero and coprime to p0={p0}")
    if M < 1:
        raise ParameterError("M must be >= 1")
    rf = spec.real_factor
    f0 = spec.finite_factors[p0]
    first = CompensatedSum()
    last = 0.0
    for n in range(1, M + 1):
        last = rf.transform(abs(A) / norm_float(p0, n))
        first.add(last)
    second = CompensatedSum()
    ct = f0.law.C * f0.t
    g = f0.law.gamma
    term = 0.0
    for m in range(1, M + 1):
        w = ct * norm_float(p0, m * g)
        term = math.exp(-w) if w < 745.0 else 0.0
        second.add(term)
    nxt = ct * norm_float(p0, (M + 1) * g)
    # ratio of consecutive omitted terms keeps shrinking, so once it is
    # below 1/2 the whole tail is under twice the first omitted term
    drop = nxt * (norm_float(p0, g) - 1.0)
    if drop >= math.log(2.0):
        tail = math.exp(-nxt) * 2.0 if nxt < 745.0 else 0.0
    else:
        tail = math.inf
    return PaperBoundReport(p0, A, M, first.value, last, second.value, tail)


@dataclass(frozen=True)
class ThetaReductionReport:
    lam: float
    height: int
    lhs: EvalResult
    rhs: EvalResult

    @property
    def defect(self) -> float:
        return abs(self.lhs.value - self.rhs.value)


def adelic_theta_reduction(
    spec: BruhatSchwartzSpec, lam: float, height: int = 64
) -> ThetaReductionReport:
    """Both sides of the scaled summation identity for a = (lambda, 1, 1, ...).

    With S empty and a gaussian real factor only integers survive the
    gamma_p factors, so the left side is sum f_inf(lambda n) and the right
    side (1/lambda) sum fhat_inf(n/lambda): the theta functional equation.
    """
    if spec.S:
        raise ParameterError("adelic_theta_reduction needs S = {}")
    if not spec.real_factor.symbol.is_gaussian:
        raise ParameterError("adelic_theta_reduction needs the gaussian real factor")
    if lam <= 0:
        raise ParameterError("lambda must be positive")
    if height < 4:
        raise ParameterError("height must be >= 4")
    t = spec.real_factor.t

    def summed(f: Callable[[float], float]) -> EvalResult:
        acc = CompensatedSum()
        acc.add(f(0.0))
        prev = math.inf
        bound = math.inf
        for n in range(1, height + 1):
            term = 2.0 * f(float(n))
            acc.add(term)
            if n == height:
                r = term / prev if prev > 0 and term < prev else 0.5
                bound = term * r / (1.0 - r) if term > 0.0 else 0.0
            prev = term if term > 0.0 else prev
        return EvalResult(acc.value, bound, height, bound < math.inf)

    lhs = summed(lambda u: gaussian_density(t, lam * u))
    rhs = summed(lambda u: spec.real_factor.transform(u / lam) / lam)
    return ThetaReductionReport(lam, height, lhs, rhs)


@dataclass(frozen=True)
class ScaledDensity:
    """Handle for f_a(x) = ||a|| f(ax)."""

    spec: BruhatSchwartzSpec
    a: Idele

    @property
    def norm(self) -> float | Fraction:
        return idele_norm(self.a)

    def eval(self, x: AdelePoint, plan: ShellSumPlan = _DEFAULT_PLAN) -> EvalResult:
        """||a|| f(ax).  A norm beyond double range saturates to inf; the
        value is then +-inf, unconverged, unless f(ax) is 0."""
        base = bs_eval(self.spec, scale_point(self.a, x), "density", plan)
        nrm = rational_float(self.norm)
        if math.isfinite(nrm):
            return EvalResult(base.value * nrm, base.error_bound * nrm, base.terms_used, base.converged)
        if base.value == 0.0:
            # the exact norm is finite, so times an exact 0 it is 0; a
            # nonzero bound on that 0 is left unbounded by the huge norm
            exact = base.error_bound == 0.0
            return EvalResult(0.0, 0.0 if exact else math.inf, base.terms_used, base.converged and exact)
        return EvalResult(base.value * nrm, math.inf, base.terms_used, False)


def _real_scaled_mass(rf: RealFactor, a_inf: float, quad: QuadratureConfig) -> EvalResult:
    """int |a| f(a u) du, numerically; converged is False when QUADPACK warns."""
    aa = abs(a_inf)

    def g(u: float) -> float:
        return aa * rf.density(a_inf * u).value

    if rf.alpha == 2.0:
        sig = rf.t * rf.sigma
        half = math.sqrt(sig * math.log(1.0 / ENVELOPE_CUTOFF)) / math.pi / aa
        v, e, neval, ok = panel(g, -half, half, quad, 8.0, 1e-13)
        tail = 2.0 * ENVELOPE_CUTOFF * half * aa
        return EvalResult(v, e + tail, neval, ok)
    if rf.alpha == 1.0:
        c = rf.t * rf.sigma
        half = 64.0 * c / aa
        v, e, neval, ok = panel(g, -half, half, quad, 8.0, 1e-13, points=[0.0])
        # closed tail of the Cauchy integral beyond the panel
        tail_val = 1.0 - 2.0 * math.atan(_TWO_PI * half * aa / c) / math.pi
        return EvalResult(v + tail_val, e + 1e-14, neval, ok)
    # numeric density: direct panel plus asymptotic-series tail integral
    half = 32.0 / aa
    sym = rf.symbol
    # one envelope for every inversion of the panel: one law at one t
    env = StableEnvelope(sym, rf.t)
    v, e, neval, ok = panel(
        lambda u: aa * stable_density_numeric(sym, rf.t, a_inf * u, envelope=env).value,
        -half,
        half,
        quad,
        4.0,
        1e-11,
    )
    coeffs = stable_asymptotic_coefficients(sym, rf.t, 7)
    edge = half * aa
    tail_val = 2.0 * sum(
        ck * edge ** (-sym.alpha * k) / (sym.alpha * k) for k, ck in enumerate(coeffs[:-1], 1)
    ) / math.pi
    tail_err = 2.0 * abs(coeffs[-1]) * edge ** (-sym.alpha * 7) / (sym.alpha * 7) / math.pi
    return EvalResult(v + tail_val, e + 10.0 * tail_err, neval, ok)


class _ScaledShells:
    """Shell densities of one finite factor f_p under x -> a_p x.

    The density at a_p p^{-m} is a window of the factor's shell table at
    v = va - m, so the mass check and the transform at every grid point
    read their densities off one table, and f_t(0) is formed once.
    """

    def __init__(self, f: FiniteFactor, a_p: Fraction, plan: ShellSumPlan):
        self.p = f.law.p
        self.plan = plan
        self.va = int(_valuation(a_p, self.p))
        self.scale = norm_float(self.p, -self.va)
        self.table = _ShellTable(f.law, f.t)
        self.f0 = semistable_density(f.law, f.t, Fraction(0), "shell", plan)

    def mass(self) -> EvalResult:
        """int |a_p| f_p(a_p x) dx over Q_p, shell by shell in x."""
        return _shell_mass(self.table, self.f0, self.plan, self.va, self.scale).result

    def transforms(self, ys: Sequence[Fraction]) -> list[EvalResult]:
        """Transform of |a_p| f_p(a_p .) at each y_p via shell character integrals."""
        p, plan, va, scale, f0 = self.p, self.plan, self.va, self.scale, self.f0
        vys = [_valuation(y, p) for y in ys]
        tops = [plan.n_max if vy == math.inf else int(vy) + 1 for vy in vys]
        if not tops:
            return []
        # shell n reads the density at a_p p^{-n}: the window from n_min
        # at v = va - n, so one walk serves every grid point
        v_lo = va - max(tops)
        dens = self.table.walk(plan.n_min, range(v_lo, 1 - plan.n_min), plan.tail_tolerance)
        bound = scale * (f0.value + f0.error_bound) * norm_float(p, plan.n_min + va - 1)
        out = []
        for vy, top in zip(vys, tops):
            acc = CompensatedSum()
            terms = 0
            converged = True
            for n in range(plan.n_min + va, top + 1):
                s = shell_char_kernel(p, n, vy) if vy != math.inf else norm_float(p, n) * (1 - 1 / p)
                if s != 0.0:
                    window = dens[va - n - v_lo]
                    acc.add(scale * window.value * s)
                    converged = converged and window.converged
                terms += 1
            converged = converged and math.isfinite(acc.value)
            out.append(EvalResult(acc.value, bound + 1e-13, terms, converged))
        return out


@dataclass(frozen=True)
class ComponentCheck:
    label: str
    value: float
    error_bound: float
    reference: float
    converged: bool

    @property
    def defect(self) -> float:
        return abs(self.value - self.reference)


@dataclass(frozen=True)
class IdeleScalingReport:
    scaled: ScaledDensity
    mass_checks: tuple[ComponentCheck, ...]
    fourier_checks: tuple[ComponentCheck, ...]

    @property
    def max_mass_defect(self) -> float:
        return max((c.defect for c in self.mass_checks), default=0.0)

    @property
    def max_fourier_defect(self) -> float:
        return max((c.defect for c in self.fourier_checks), default=0.0)


def _fourier_grid(spec: BruhatSchwartzSpec, a: Idele, n_points: int) -> list[AdelePoint]:
    primes = sorted(set(spec.S) | set(a.support))
    reals = [0.0, 0.4, -0.9, 1.3, 2.1, -0.2, 0.75, 1.8, -1.1, 0.1]
    pows = [0, 1, -1, 2]
    grid = []
    for i in range(n_points):
        comps: dict[int, Fraction] = {}
        for j, p in enumerate(primes):
            k = pows[(i + j) % len(pows)]
            comps[p] = Fraction(p) ** k
        grid.append(AdelePoint(reals[i % len(reals)], comps))
    return grid


def scale_by_idele(
    spec: BruhatSchwartzSpec,
    a: Idele,
    quad: QuadratureConfig = _DEFAULT_QUAD,
    plan: ShellSumPlan = _DEFAULT_PLAN,
    grid_points: int = 20,
) -> IdeleScalingReport:
    """Scaled density handle plus its mass and Fourier-scaling checks.

    Masses are recomputed numerically component by component (each factor
    rescales exactly, so every check must return 1); the transform of the
    scaled density is compared against fhat(a^{-1}y) on a grid of adele
    points, componentwise and as a product.
    """
    rf = spec.real_factor
    if grid_points > 0 and rf.alpha not in (1.0, 2.0):
        raise ParameterError(
            "fourier scaling grid needs a closed-form real density (alpha in {1, 2})"
        )
    scaled = ScaledDensity(spec, a)
    masses: list[ComponentCheck] = []
    m_inf = _real_scaled_mass(rf, float(a.real), quad)
    masses.append(ComponentCheck("inf", m_inf.value, m_inf.error_bound, 1.0, m_inf.converged))
    shells = {p: _ScaledShells(f, a.component(p), plan) for p, f in sorted(spec.finite_factors.items())}
    for p, sh in shells.items():
        r = sh.mass()
        masses.append(ComponentCheck(str(p), r.value, r.error_bound, 1.0, r.converged))
    for p in a.support:
        if p not in spec.finite_factors:
            # |a_p| * vol(a_p^{-1} Z_p) is exactly 1
            v = padic_norm(a.component(p), p).as_fraction() * Fraction(p) ** int(
                valuation(a.component(p), p)
            )
            masses.append(ComponentCheck(f"{p} (unit-ball factor)", float(v), 0.0, 1.0, True))

    fourier: list[ComponentCheck] = []
    a_inv = a.inverse()
    grid = _fourier_grid(spec, a, grid_points)
    transforms = {p: sh.transforms([y.component(p) for y in grid]) for p, sh in shells.items()}
    for i, y in enumerate(grid):
        lhs_parts: list[EvalResult] = []
        lhs_parts.append(_real_scaled_transform(rf, float(a.real), float(y.real), quad))
        for p in shells:
            lhs_parts.append(transforms[p][i])
        for p in y.support:
            if p not in spec.finite_factors:
                va = int(valuation(a.component(p), p))
                val = padic_norm(a.component(p), p).as_fraction() * ball_char_integral(
                    p, va, y.component(p)
                )
                lhs_parts.append(EvalResult(float(val), 0.0, 1, True))
        lhs = product_results(lhs_parts)
        rhs = bs_eval(spec, scale_point(a_inv, y), "transform").value
        fourier.append(
            ComponentCheck(repr(y.to_dict()), lhs.value, lhs.error_bound, rhs, lhs.converged)
        )
    return IdeleScalingReport(scaled, tuple(masses), tuple(fourier))


def _real_scaled_transform(
    rf: RealFactor, a_inf: float, y: float, quad: QuadratureConfig
) -> EvalResult:
    """Transform of |a| f(a .) at y by quadrature against cos(2 pi u y),
    for a real density in closed form (alpha 1 or 2)."""
    aa = abs(a_inf)
    if rf.alpha == 2.0:
        sig = rf.t * rf.sigma
        half = math.sqrt(sig * math.log(1.0 / ENVELOPE_CUTOFF)) / math.pi / aa
        tail_val = 0.0
        tail_err = 2.0 * ENVELOPE_CUTOFF * half * aa
    else:
        c = rf.t * rf.sigma
        # panel edge X in the unscaled variable w = a u; beyond it the
        # remainder comes from two integrations by parts of f(w) cos(bw)
        beta = _TWO_PI * abs(y) / aa
        big_x = 2048.0 * c if y == 0.0 else max(2048.0 * c, 8.0 * math.pi / beta)
        half = big_x / aa

        def fw(w: float) -> float:
            return 2.0 * c / (c * c + 4.0 * math.pi ** 2 * w * w)

        def fpw(w: float) -> float:
            return -16.0 * math.pi ** 2 * c * w / (c * c + 4.0 * math.pi ** 2 * w * w) ** 2

        if y == 0.0:
            tail_val = 1.0 - 2.0 * math.atan(_TWO_PI * big_x / c) / math.pi
            tail_err = 1e-15
        else:
            tail_val = (
                -2.0 * fw(big_x) * math.sin(beta * big_x) / beta
                - 2.0 * fpw(big_x) * math.cos(beta * big_x) / beta ** 2
            )
            tail_err = 2.0 * abs(fpw(big_x)) / beta ** 2

    v, e, neval, ok = cos_panel(lambda u: aa * rf.density(a_inf * u).value, half, y, quad)
    return EvalResult(2.0 * v + tail_val, 2.0 * e + tail_err, neval, ok)
