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
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, ClassVar, Mapping, Sequence

from .core import (
    N_MAX,
    N_MIN,
    CompensatedSum,
    EvalResult,
    ParameterError,
    QuadratureConfig,
    ShellSumPlan,
    exp_neg,
    exp_neg_each,
    format_rational,
    parse_number,
    pow_each,
    product_results,
    require_prime,
)
from .padic import (
    Rational,
    _char_qp,
    _norm_ratio,
    _valuation,
    prime_support,
    rational_float,
)
from .padic_integrals import norm_float, shell_char_kernel
from .quadrature import ENVELOPE_CUTOFF, cos_panel, panel
from .semistable import SemistableLaw, _ShellTable, _shell_mass, _zero_density, char_fn
from .semistable import density as semistable_density
from .real_stable import StableSymbol, gaussian_density, stable_density

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

    def _times(self, other: "_PlaceMap", cls: type):
        """cls built as the componentwise product of self and other; the real
        part is exact when both real parts are Fractions, a float otherwise."""
        ps = set(self.support) | set(other.support)
        if isinstance(self.real, Fraction) and isinstance(other.real, Fraction):
            real = self.real * other.real
        else:
            real = float(self.real) * float(other.real)
        return cls(
            real,
            {p: self.component(p) * other.component(p) for p in ps},
            fill=self.fill * other.fill,
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
                if p in comps:
                    raise ParameterError(f"place {p} is given twice")
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
        return self._times(other, Idele)


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
    return a._times(x, AdelePoint)


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
        if not self.t > 0:
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
        u = abs(y) ** self.alpha
        if u == 0.0:
            # e^0 = 1 even where t * sigma overflows, and inf * 0.0 is nan
            return 1.0
        return exp_neg(self.t * self.sigma * u)


# Cells per chunk of _real_transforms, and terms per CompensatedSum.extend
# in rational_char_sum: their lists and temporaries stay this short whatever
# the size of the grid.
_CHUNK = 1 << 15


def _real_transforms(rf: RealFactor, y: np.ndarray) -> np.ndarray:
    """rf.transform at each y >= 0 of the float array y, bit for bit."""
    import numpy as np

    c = rf.t * rf.sigma
    out = np.empty(len(y))
    # Python float arithmetic warns about nothing (inf * 0.0 is nan)
    with np.errstate(all="ignore"):
        for lo in range(0, len(y), _CHUNK):
            u = pow_each(y[lo : lo + _CHUNK], rf.alpha)
            # w is nan where c is inf and u is 0, and those cells are e^0 = 1
            e = exp_neg_each(c * u)
            e[u == 0.0] = 1.0
            out[lo : lo + _CHUNK] = e
    return out


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
        if not self.t > 0:
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

# The coprimality grid and the member arrays grow with the cells
# (denominators x (height + 1)).  The cap is the grid of S = {2} just below
# the height limit, 17 x 2^17 cells: char-sum --S 2 --heights 131071 takes
# about 1 s and a 160 MB peak RSS on a 2-core machine.  More primes admit
# lower heights.
_D_CELL_LIMIT = 17 * _D_HEIGHT_LIMIT


def _d_members(S: Sequence[int], height: int) -> tuple[np.ndarray, ...]:
    """D up to `height` as arrays: all r = a/b with |a| <= height, b an
    S-smooth positive integer <= height, gcd(a, b) = 1, ordered by
    max(|a|, b) then numerically.

    Returns (b, vb, a, row, h).  The denominators b are built as products of
    the primes of S, so their valuation vectors vb (v_p(b) for p in sorted
    S) are known from construction.  Member k is a[k] / b[row[k]], of height
    h[k].  The cells (b, |a|) of a (denominators x 0..height) grid give the
    members a/b and -a/b; since b is S-smooth, a cell is coprime unless a
    prime of S divides both b and a, so the grid is cleared prime by prime
    from vb.  A grid of more than _D_CELL_LIMIT cells is refused before it
    is built.
    """
    import numpy as np

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
    coprime = np.ones((len(b), height + 1), dtype=bool)
    for i, p in enumerate(primes):
        # the columns 0, p, 2p, ... of the rows that p divides
        coprime[vb[:, i] > 0, ::p] = False
    row, col = np.nonzero(coprime)
    del coprime
    pos = col > 0
    a = np.concatenate((col, -col[pos]))
    row = np.concatenate((row, row[pos]))
    del col, pos
    den = b[row]
    h = np.maximum(np.abs(a), den)
    # Below the height limit distinct members have distinct floats a/b, so
    # ranking them by value and then sorting the integer key h * n + rank
    # gives the order of np.lexsort((a / den, h)) with one float sort.
    by_value = np.argsort(a / den)
    del den
    n = len(a)
    key = np.empty(n, dtype=np.int64)
    key[by_value] = np.arange(n)
    del by_value
    key += h * n
    order = np.argsort(key)
    del key
    # one gather at a time, so each old array goes before the next is made
    a = a[order]
    row = row[order]
    return b, vb, a, row, h[order]


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
        import numpy as np

        if not spec.S:
            raise ParameterError("direct mode needs a nonempty S")
        schedule = sorted({int(h) for h in height_schedule})
        if not schedule or schedule[0] < 1:
            raise ParameterError("height schedule must contain positive integers")
        top = schedule[-1]
        b, vb, a, row, h = _d_members(spec.S, top)
        cuts = np.searchsorted(h, schedule, side="right").tolist()
        del h
        # one value per cell (b, |a|): the terms at a and -a are equal, since
        # the real factor reads |a/b| and v_p(-a) = v_p(a)
        cell = a >= 0
        cell_row, cell_col = row[cell], a[cell]
        value = _real_transforms(spec.real_factor, cell_col / b[cell_row])
        # at r = 0 every finite factor is char_fn(y=0) = 1.0
        nz = cell_col > 0
        nz_row, nz_col = cell_row[nz], cell_col[nz]
        for i, (p, f) in enumerate(sorted(spec.finite_factors.items())):
            # v_p of 0..top, one slice per power of p
            vp = np.zeros(top + 1, dtype=np.int64)
            k = p
            while k <= top:
                vp[::k] += 1
                k *= p
            # a is prime to p whenever p divides b: v_p(a/b) = v_p(a) - v_p(b)
            v = vp[nz_col] - vb[nz_row, i]
            lo = int(v.min())
            table = np.array([f.transform(Fraction(p) ** u) for u in range(lo, int(v.max()) + 1)])
            value[nz] *= table[v - lo]
        grid = np.zeros((len(b), top + 1))
        grid[cell_row, cell_col] = value
        # at the cell cap these hold tens of MB: free them before the gather
        del cell, cell_row, cell_col, value, nz, nz_row, nz_col, v
        terms = grid[row, np.abs(a)]
        del grid, a, row
        acc = CompensatedSum()
        partials = []
        idx = 0
        for cut in cuts:
            # extend is add term by term, so chunks sum as one call would
            for lo in range(idx, cut, _CHUNK):
                acc.extend(terms[lo : min(lo + _CHUNK, cut)])
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
    if abs(A) > sys.float_info.max:
        raise ParameterError("|A| exceeds double range, in which the n-series reads it")
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
        term = exp_neg(ct * norm_float(p0, m * g))
        second.add(term)
    nxt = ct * norm_float(p0, (M + 1) * g)
    # ratio of consecutive omitted terms keeps shrinking, so once it is
    # below 1/2 the whole tail is under twice the first omitted term
    drop = nxt * (norm_float(p0, g) - 1.0)
    if drop >= math.log(2.0):
        tail = exp_neg(nxt) * 2.0
    else:
        tail = math.inf
    return PaperBoundReport(p0, A, M, first.value, last, second.value, tail)


@dataclass(frozen=True)
class ThetaReductionReport:
    lhs: EvalResult
    rhs: EvalResult

    @property
    def defect(self) -> float:
        return abs(self.lhs.value - self.rhs.value)


def adelic_theta_reduction(t: float, lam: float, height: int = 64) -> ThetaReductionReport:
    """Both sides of the scaled summation identity for a = (lambda, 1, 1, ...).

    The test function is the gaussian at time t with S empty: only integers
    survive the gamma_p factors, so the left side is sum f_inf(lambda n) and
    the right side (1/lambda) sum fhat_inf(n/lambda), the theta functional
    equation.
    """
    transform = gaussian_factor(t).transform
    if not lam > 0:
        raise ParameterError("lambda must be positive")
    if height < 4:
        raise ParameterError("height must be >= 4")

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
    rhs = summed(lambda u: transform(u / lam) / lam)
    return ThetaReductionReport(lhs, rhs)


def _real_scaled_mass(rf: RealFactor, a_inf: float, quad: QuadratureConfig) -> EvalResult:
    """int |a| f(a u) du for the alpha = 2 real density, numerically;
    converged is False when QUADPACK warns."""
    aa = abs(a_inf)

    def g(u: float) -> float:
        return aa * rf.density(a_inf * u).value

    sig = rf.t * rf.sigma
    half = math.sqrt(sig * math.log(1.0 / ENVELOPE_CUTOFF)) / math.pi / aa
    v, e, neval, ok = panel(g, -half, half, quad, 8.0, 1e-13)
    tail = 2.0 * ENVELOPE_CUTOFF * half * aa
    return EvalResult(v, e + tail, neval, ok)


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
        self.f0 = _zero_density(f.law, f.t, plan)

    def mass(self) -> EvalResult:
        """int |a_p| f_p(a_p x) dx over Q_p, shell by shell in x."""
        return _shell_mass(self.table, self.f0, self.plan, self.va, self.scale).result

    def transforms(self, ys: Sequence[Fraction]) -> list[EvalResult]:
        """Transform of |a_p| f_p(a_p .) at each y_p via shell character integrals."""
        p, plan, va, scale, f0 = self.p, self.plan, self.va, self.scale, self.f0
        vys = [_valuation(y, p) for y in ys]
        tops = [N_MAX if vy == math.inf else int(vy) + 1 for vy in vys]
        if not tops:
            return []
        # shell n reads the density at a_p p^{-n}: the window from N_MIN
        # at v = va - n, so one walk serves every grid point
        v_lo = va - max(tops)
        dens = self.table.walk(N_MIN, range(v_lo, 1 - N_MIN), plan.tail_tolerance)
        bound = scale * (f0.value + f0.error_bound) * norm_float(p, N_MIN + va - 1)
        out = []
        for vy, top in zip(vys, tops):
            acc = CompensatedSum()
            terms = 0
            converged = True
            for n in range(N_MIN + va, top + 1):
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
    mass_checks: tuple[ComponentCheck, ...]
    fourier_checks: tuple[ComponentCheck, ...]


def _fourier_grid(spec: BruhatSchwartzSpec, n_points: int) -> list[AdelePoint]:
    primes = spec.S
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
    """The mass and Fourier-scaling checks of f_a(x) = ||a|| f(ax).

    Masses are recomputed numerically component by component (each factor
    rescales exactly, so every check must return 1); the transform of f_a
    is compared against fhat(a^{-1}y) on a grid of adele points,
    componentwise and as a product.  The real factor must have alpha = 2,
    and spec must hold a factor at every prime of a.
    """
    rf = spec.real_factor
    if rf.alpha != 2.0:
        raise ParameterError(f"idele scaling needs a real factor with alpha = 2, got {rf.alpha!r}")
    for p in a.support:
        if p not in spec.finite_factors:
            raise ParameterError(f"idele scaling needs a factor at every prime of a, none at p={p}")
    masses: list[ComponentCheck] = []
    m_inf = _real_scaled_mass(rf, float(a.real), quad)
    masses.append(ComponentCheck("inf", m_inf.value, m_inf.error_bound, 1.0, m_inf.converged))
    shells = {p: _ScaledShells(f, a.component(p), plan) for p, f in sorted(spec.finite_factors.items())}
    for p, sh in shells.items():
        r = sh.mass()
        masses.append(ComponentCheck(str(p), r.value, r.error_bound, 1.0, r.converged))

    fourier: list[ComponentCheck] = []
    a_inv = a.inverse()
    grid = _fourier_grid(spec, grid_points)
    transforms = {p: sh.transforms([y.component(p) for y in grid]) for p, sh in shells.items()}
    for i, y in enumerate(grid):
        lhs_parts: list[EvalResult] = []
        lhs_parts.append(_real_scaled_transform(rf, float(a.real), float(y.real), quad))
        for p in shells:
            lhs_parts.append(transforms[p][i])
        lhs = product_results(lhs_parts)
        rhs = bs_eval(spec, scale_point(a_inv, y), "transform").value
        fourier.append(
            ComponentCheck(repr(y.to_dict()), lhs.value, lhs.error_bound, rhs, lhs.converged)
        )
    return IdeleScalingReport(tuple(masses), tuple(fourier))


def _real_scaled_transform(
    rf: RealFactor, a_inf: float, y: float, quad: QuadratureConfig
) -> EvalResult:
    """Transform of |a| f(a .) at y by quadrature against cos(2 pi u y),
    for the alpha = 2 real density."""
    aa = abs(a_inf)
    sig = rf.t * rf.sigma
    half = math.sqrt(sig * math.log(1.0 / ENVELOPE_CUTOFF)) / math.pi / aa
    tail_err = 2.0 * ENVELOPE_CUTOFF * half * aa
    v, e, neval, ok = cos_panel(lambda u: aa * rf.density(a_inf * u).value, half, y, quad)
    return EvalResult(2.0 * v, 2.0 * e + tail_err, neval, ok)
