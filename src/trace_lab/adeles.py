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
from typing import Callable, ClassVar, Mapping, Sequence

from scipy import integrate

from .core import (
    CompensatedSum,
    EvalResult,
    ParameterError,
    QuadratureConfig,
    ShellSumPlan,
    format_rational,
    parse_rational,
    product_results,
    require_prime,
)
from .padic import Rational, _int_valuation, char_qp, padic_norm, prime_support, valuation
from .padic_integrals import ball_char_integral, norm_float, shell_char_kernel
from .semistable import SemistableLaw, char_fn
from .semistable import density as semistable_density
from .real_stable import (
    StableSymbol,
    gaussian_density,
    stable_asymptotic_coefficients,
    stable_density,
    stable_density_numeric,
)

_DEFAULT_PLAN = ShellSumPlan()
_DEFAULT_QUAD = QuadratureConfig()
_TWO_PI = 2.0 * math.pi


def _as_real(v) -> float | Fraction:
    if isinstance(v, (Fraction, int)):
        return Fraction(v)
    return float(v)


def _check_fill(fill: Fraction, support: tuple[int, ...], deny_numerator: bool) -> None:
    # Only the primes of fill outside support can offend: divide the listed
    # ones out first, so the diagonal of q does not factor q a second time.
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
        for p in comps:
            require_prime(p)
            comps[p] = Fraction(comps[p])
        unit = self._UNIT
        object.__setattr__(self, "finite", comps)
        object.__setattr__(self, "real", _as_real(float(unit) if self.real is None else self.real))
        object.__setattr__(self, "fill", Fraction(unit if self.fill is None else self.fill))
        self._check_nonzero()
        _check_fill(self.fill, self.support, deny_numerator=unit == 1)

    def _check_nonzero(self) -> None:
        """Adele components may vanish."""

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
                real = parse_rational(raw) if "/" in str(raw) else float(raw)
            elif key == "fill":
                fill = parse_rational(raw)
            else:
                comps[require_prime(int(key))] = parse_rational(raw)
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
        q = Fraction(q)
        return AdelePoint(q, {p: q for p in prime_support(q)}, fill=q)

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
        q = Fraction(q)
        if q == 0:
            raise ParameterError("diagonal idele needs q != 0")
        return Idele(q, {p: q for p in prime_support(q)}, fill=q)

    def inverse(self) -> "Idele":
        real = 1 / self.real if isinstance(self.real, Fraction) else 1.0 / self.real
        return Idele(real, {p: 1 / v for p, v in self.finite.items()}, fill=1 / self.fill)

    def __mul__(self, other: "Idele") -> "Idele":
        if not isinstance(other, Idele):
            return NotImplemented
        return self._combine(other, operator.mul, Idele)


def idele_norm(a: Idele) -> float | Fraction:
    """|a_inf| * prod over the support of |a_p|_p; exact for rational a_inf."""
    if isinstance(a.real, Fraction):
        norm: float | Fraction = abs(a.real)
    else:
        norm = abs(float(a.real))
    for p in a.support:
        norm = norm * padic_norm(a.finite[p], p).as_fraction()
    return norm


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
        z *= char_qp(y.component(p), x.component(p), p)
    return z


@dataclass(frozen=True)
class RealFactor:
    """The archimedean factor: gaussian(t) or stable(alpha, sigma, t)."""

    kind: str
    t: float
    alpha: float
    sigma: float

    def __post_init__(self):
        if self.kind not in ("gaussian", "stable"):
            raise ParameterError(f"real factor kind must be gaussian or stable, got {self.kind!r}")
        if self.t <= 0:
            raise ParameterError("real factor needs t > 0")
        StableSymbol(self.alpha, self.sigma, 1)

    @property
    def symbol(self) -> StableSymbol:
        return StableSymbol(self.alpha, self.sigma, 1)

    def density(self, x: float, quad: QuadratureConfig = _DEFAULT_QUAD) -> EvalResult:
        if self.kind == "gaussian":
            v = gaussian_density(self.t, x)
            return EvalResult(v, abs(v) * 1e-14, 1, True)
        return stable_density(self.symbol, self.t, x, quad)

    def transform(self, y: float) -> float:
        w = self.t * self.sigma * abs(y) ** self.alpha
        return math.exp(-w) if w < 745.0 else 0.0


def gaussian_factor(t: float) -> RealFactor:
    # eta(y) = pi y^2, so the transform is e^{-t pi y^2}
    return RealFactor("gaussian", t, 2.0, math.pi)


def stable_factor(alpha: float, sigma: float, t: float) -> RealFactor:
    return RealFactor("stable", t, alpha, sigma)


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
    """Finite product of component densities, or of component transforms."""
    if side == "density":
        parts = [spec.real_factor.density(float(x.real), quad)]
        for p, f in sorted(spec.finite_factors.items()):
            parts.append(f.density(x.component(p), plan))
        for p in x.support:
            if p not in spec.finite_factors:
                if padic_norm(x.component(p), p).as_float() > 1.0:
                    return EvalResult(0.0, 0.0, 1, True)
        return product_results(parts)
    if side != "transform":
        raise ParameterError(f"side must be density or transform, got {side!r}")
    value = spec.real_factor.transform(float(x.real))
    for p, f in sorted(spec.finite_factors.items()):
        value *= f.transform(x.component(p))
    for p in x.support:
        if p not in spec.finite_factors:
            if padic_norm(x.component(p), p).as_float() > 1.0:
                value = 0.0
    return EvalResult(value, abs(value) * 1e-14, 1, True)


def _d_terms(S: Sequence[int], height: int) -> list[tuple[int, int, int, int, tuple[int, ...]]]:
    """The members a/b of D up to `height`, ordered by max(|a|, b) then
    numerically.

    Each entry is (max(|a|, b), key, a, b, (v_p(b) for p in sorted S)).
    The denominators are built as products of the primes of S, so their
    valuations are known from construction.  The key a * (L // b), with L
    the lcm of the denominators, is a/b scaled by L: an exact integer that
    orders the entries of one height as the fractions do.
    """
    if height < 1:
        raise ParameterError("height must be >= 1")
    primes = sorted({require_prime(int(p)) for p in S})
    denoms = [(1, (0,) * len(primes))]
    for i, p in enumerate(primes):
        extra = []
        for b, vb in denoms:
            q, e = b * p, 1
            while q <= height:
                extra.append((q, vb[:i] + (e,) + vb[i + 1 :]))
                q, e = q * p, e + 1
        denoms.extend(extra)
    lcm = math.lcm(*(b for b, _ in denoms))
    out = []
    for b, vb in denoms:
        scale = lcm // b
        for a in range(-height, height + 1):
            if math.gcd(a, b) == 1:
                out.append((max(abs(a), b), a * scale, a, b, vb))
    # (height, key) pairs are distinct, so the valuations are never compared
    out.sort()
    return out


def enumerate_D(S: Sequence[int], height: int) -> list[Fraction]:
    """All r = a/b with |a| <= height, b an S-smooth positive integer
    <= height, gcd(a, b) = 1, ordered by max(|a|, b) then numerically.

    These are the pairs of _d_terms, which rational_char_sum sums over, as
    fractions.
    """
    return [Fraction(a, b) for _, _, a, b, _ in _d_terms(S, height)]


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
    is read from a table filled by FiniteFactor.transform(p**v) on first use.
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
        terms = _d_terms(spec.S, schedule[-1])
        rf = spec.real_factor
        factors = [(p, f, {}) for p, f in sorted(spec.finite_factors.items())]
        acc = CompensatedSum()
        partials = []
        idx = 0
        for h in schedule:
            while idx < len(terms) and terms[idx][0] <= h:
                _, _, a, b, vb = terms[idx]
                value = rf.transform(a / b)
                # at r = 0 every finite factor is char_fn(y=0) = 1.0
                if a != 0:
                    for (p, f, table), e in zip(factors, vb):
                        # a is prime to p whenever p divides b
                        v = -e if e else _int_valuation(a, p)
                        w = table.get(v)
                        if w is None:
                            w = table[v] = f.transform(Fraction(p) ** v)
                        value *= w
                acc.add(value)
                idx += 1
            partials.append(acc.value)
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
        last = rf.transform(abs(A) / float(p0) ** n)
        first.add(last)
    second = CompensatedSum()
    ct = f0.law.C * f0.t
    g = f0.law.gamma
    term = 0.0
    for m in range(1, M + 1):
        w = ct * float(p0) ** (m * g)
        term = math.exp(-w) if w < 745.0 else 0.0
        second.add(term)
    nxt = ct * float(p0) ** ((M + 1) * g)
    # ratio of consecutive omitted terms keeps shrinking, so once it is
    # below 1/2 the whole tail is under twice the first omitted term
    drop = nxt * (float(p0) ** g - 1.0)
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
    if spec.real_factor.kind != "gaussian":
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
        base = bs_eval(self.spec, scale_point(self.a, x), "density", plan)
        nrm = float(self.norm)
        return EvalResult(base.value * nrm, base.error_bound * nrm, base.terms_used, base.converged)


def _real_scaled_mass(rf: RealFactor, a_inf: float, quad: QuadratureConfig) -> EvalResult:
    """int |a| f(a u) du, numerically."""
    aa = abs(a_inf)
    if rf.kind == "gaussian" or rf.alpha == 2.0:
        sig = rf.t * (math.pi if rf.kind == "gaussian" else rf.sigma)
        half = math.sqrt(sig * math.log(1.0 / quad.envelope_cutoff)) / math.pi / aa
        v, e, info = integrate.quad(
            lambda u: aa * rf.density(a_inf * u).value,
            -half,
            half,
            epsabs=quad.abs_tol / 8.0,
            epsrel=1e-13,
            limit=quad.panel_limit,
            full_output=1,
        )[:3]
        tail = 2.0 * quad.envelope_cutoff * half * aa
        return EvalResult(v, e + tail, int(info["neval"]), True)
    if rf.alpha == 1.0:
        c = rf.t * rf.sigma
        half = 64.0 * c / aa
        v, e, info = integrate.quad(
            lambda u: aa * rf.density(a_inf * u).value,
            -half,
            half,
            points=[0.0],
            epsabs=quad.abs_tol / 8.0,
            epsrel=1e-13,
            limit=quad.panel_limit,
            full_output=1,
        )[:3]
        # closed tail of the Cauchy integral beyond the panel
        tail_val = 1.0 - 2.0 * math.atan(_TWO_PI * half * aa / c) / math.pi
        return EvalResult(v + tail_val, e + 1e-14, int(info["neval"]), True)
    # numeric density: direct panel plus asymptotic-series tail integral
    half = 32.0 / aa
    sym = rf.symbol
    v, e, info = integrate.quad(
        lambda u: aa * stable_density_numeric(sym, rf.t, a_inf * u).value,
        -half,
        half,
        epsabs=quad.abs_tol / 4.0,
        epsrel=1e-11,
        limit=quad.panel_limit,
        full_output=1,
    )[:3]
    coeffs = stable_asymptotic_coefficients(sym, rf.t, 7)
    edge = half * aa
    tail_val = 2.0 * sum(
        ck * edge ** (-sym.alpha * k) / (sym.alpha * k) for k, ck in enumerate(coeffs[:-1], 1)
    ) / math.pi
    tail_err = 2.0 * abs(coeffs[-1]) * edge ** (-sym.alpha * 7) / (sym.alpha * 7) / math.pi
    return EvalResult(v + tail_val, e + 10.0 * tail_err, int(info["neval"]), True)


def _padic_scaled_mass(
    f: FiniteFactor, a_p: Fraction, plan: ShellSumPlan
) -> EvalResult:
    """int |a_p| f_p(a_p x) dx over Q_p, shell by shell in x."""
    law = f.law
    p = law.p
    va = valuation(a_p, p)
    scale = norm_float(p, -int(va))
    w_unit = 1.0 - 1.0 / p
    f0 = semistable_density(law, f.t, Fraction(0), "shell", plan)

    def shell_density(m: int) -> EvalResult:
        deep = ShellSumPlan(
            n_min=plan.n_min - max(m - int(va), 0),
            n_max=plan.n_max,
            tail_tolerance=plan.tail_tolerance,
            max_terms=plan.max_terms,
        )
        point = a_p * Fraction(p) ** (-m)
        return semistable_density(law, f.t, point, "shell", deep)

    acc = CompensatedSum()
    bound = 0.0
    terms = 0
    n_lo = plan.n_min + int(va)
    for m in range(n_lo, int(va) + 1):
        r = shell_density(m)
        acc.add(scale * r.value * norm_float(p, m) * w_unit)
        bound += scale * r.error_bound * norm_float(p, m) * w_unit
        terms += 1
    bound += scale * (f0.value + f0.error_bound) * norm_float(p, n_lo - 1)

    prev = math.inf
    m = int(va) + 1
    converged = False
    while terms < plan.max_terms:
        r = shell_density(m)
        term = scale * r.value * norm_float(p, m) * w_unit
        acc.add(term)
        bound += scale * r.error_bound * norm_float(p, m) * w_unit
        terms += 1
        if abs(term) < plan.tail_tolerance / 10.0 and abs(term) < prev:
            ratio = max(abs(term) / prev if prev > 0 else 0.0, float(p) ** (-law.gamma))
            if ratio < 1.0:
                bound += abs(term) * ratio / (1.0 - ratio)
                converged = True
                break
        prev = abs(term) if term != 0.0 else prev
        m += 1
    return EvalResult(acc.value, bound if converged else math.inf, terms, converged)


def _padic_scaled_transform(
    f: FiniteFactor, a_p: Fraction, y_p: Fraction, plan: ShellSumPlan
) -> EvalResult:
    """Transform of |a_p| f_p(a_p .) at y_p via shell character integrals."""
    law = f.law
    p = law.p
    va = int(valuation(a_p, p))
    scale = norm_float(p, -va)
    vy = valuation(y_p, p)
    top = plan.n_max if vy == math.inf else int(vy) + 1
    acc = CompensatedSum()
    f0 = semistable_density(law, f.t, Fraction(0), "shell", plan)
    terms = 0
    for n in range(plan.n_min + va, top + 1):
        s = shell_char_kernel(p, n, vy) if vy != math.inf else norm_float(p, n) * (1 - 1 / p)
        if s != 0.0:
            r = semistable_density(law, f.t, a_p * Fraction(p) ** (-n), "shell", plan)
            acc.add(scale * r.value * s)
        terms += 1
    bound = scale * (f0.value + f0.error_bound) * norm_float(p, plan.n_min + va - 1)
    return EvalResult(acc.value, bound + 1e-13, terms, True)


@dataclass(frozen=True)
class ComponentCheck:
    label: str
    value: float
    error_bound: float
    reference: float

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
    scaled = ScaledDensity(spec, a)
    masses: list[ComponentCheck] = []
    rf = spec.real_factor
    m_inf = _real_scaled_mass(rf, float(a.real), quad)
    masses.append(ComponentCheck("inf", m_inf.value, m_inf.error_bound, 1.0))
    for p, f in sorted(spec.finite_factors.items()):
        r = _padic_scaled_mass(f, a.component(p), plan)
        masses.append(ComponentCheck(str(p), r.value, r.error_bound, 1.0))
    for p in a.support:
        if p not in spec.finite_factors:
            # |a_p| * vol(a_p^{-1} Z_p) is exactly 1
            v = padic_norm(a.component(p), p).as_fraction() * Fraction(p) ** int(
                valuation(a.component(p), p)
            )
            masses.append(ComponentCheck(f"{p} (unit-ball factor)", float(v), 0.0, 1.0))

    fourier: list[ComponentCheck] = []
    a_inv = a.inverse()
    for y in _fourier_grid(spec, a, grid_points):
        lhs_parts: list[EvalResult] = []
        lhs_parts.append(_real_scaled_transform(rf, float(a.real), float(y.real), quad))
        for p, f in sorted(spec.finite_factors.items()):
            lhs_parts.append(_padic_scaled_transform(f, a.component(p), y.component(p), plan))
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
            ComponentCheck(repr(y.to_dict()), lhs.value, lhs.error_bound, rhs)
        )
    return IdeleScalingReport(scaled, tuple(masses), tuple(fourier))


def _real_scaled_transform(
    rf: RealFactor, a_inf: float, y: float, quad: QuadratureConfig
) -> EvalResult:
    """Transform of |a| f(a .) at y by quadrature against cos(2 pi u y)."""
    aa = abs(a_inf)
    if rf.kind == "gaussian" or rf.alpha == 2.0:
        sig = rf.t * (math.pi if rf.kind == "gaussian" else rf.sigma)
        half = math.sqrt(sig * math.log(1.0 / quad.envelope_cutoff)) / math.pi / aa
        tail_val = 0.0
        tail_err = 2.0 * quad.envelope_cutoff * half * aa
    elif rf.alpha == 1.0:
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
    else:
        raise ParameterError(
            "fourier scaling grid needs a closed-form real density (alpha in {1, 2})"
        )

    def g(u: float) -> float:
        return aa * rf.density(a_inf * u).value

    if abs(y) * half < 0.5:
        v, e, info = integrate.quad(
            lambda u: g(u) * math.cos(_TWO_PI * u * y),
            0.0,
            half,
            epsabs=quad.abs_tol / 8.0,
            epsrel=1e-13,
            limit=quad.panel_limit,
            full_output=1,
        )[:3]
    else:
        v, e, info = integrate.quad(
            g,
            0.0,
            half,
            weight="cos",
            wvar=_TWO_PI * abs(y),
            epsabs=quad.abs_tol / 8.0,
            epsrel=1e-13,
            limit=quad.panel_limit,
            maxp1=100,
            full_output=1,
        )[:3]
    return EvalResult(2.0 * v + tail_val, 2.0 * e + tail_err, int(info["neval"]), True)
