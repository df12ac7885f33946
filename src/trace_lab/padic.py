"""Exact p-adic valuations, norms, fractional parts, and additive characters.

Rationals are plain fractions.Fraction values (exact, always in lowest
terms); valuations and norms are computed on their integer numerators and
denominators, and only turned into floats at evaluation boundaries.

The public functions that take a prime p check it.  Code that holds a p
checked where it entered (a law, a spec, a place map) reads v_p through
the unchecked _valuation, evaluates characters through the unchecked
_char_qp, and multiplies norms with _norm_ratio.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import PROVEN_PRIME_LIMIT, ParameterError, is_prime, require_prime

Rational = Fraction


@dataclass(frozen=True)
class PAdicNorm:
    """|x|_p = p^exponent, with a separate flag for the zero norm."""

    p: int
    exponent: int
    is_zero: bool = False

    def as_fraction(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if self.exponent >= 0:
            return Fraction(self.p**self.exponent)
        return Fraction(1, self.p ** (-self.exponent))


def rational_float(q: Rational) -> float:
    """float(q), saturating to +-inf where the quotient overflows a float."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _int_valuation(n: int, p: int) -> int:
    # n != 0; largest m with p^m | n
    m = 0
    while n % p == 0:
        n //= p
        m += 1
    return m


def _valuation(q: Rational, p: int) -> int | float:
    # valuation for a p that was checked prime where it entered: the law,
    # spec or place map that holds it
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q == 0:
        return math.inf
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


def valuation(q: Rational, p: int) -> int | float:
    """v_p(q): the exponent m with q = (a/b) p^m, a,b coprime to p.

    Returns math.inf for q = 0.
    """
    require_prime(p)
    return _valuation(q, p)


def _norm_ratio(components: Iterable[tuple[int, Fraction]]) -> tuple[int, int]:
    """prod |x_p|_p over (p, x_p) pairs as an integer numerator and
    denominator, for nonzero x_p and primes p checked where they entered."""
    num = den = 1
    for p, x in components:
        a, b = x.as_integer_ratio()
        # in lowest terms p divides at most one of a and b
        if a % p == 0:
            while a % p == 0:
                a //= p
                den *= p
        else:
            while b % p == 0:
                b //= p
                num *= p
    return num, den


def padic_norm(q: Rational, p: int) -> PAdicNorm:
    """|q|_p = p^{-v_p(q)} as an exact exponent."""
    v = valuation(q, p)
    if v == math.inf:
        return PAdicNorm(p, 0, is_zero=True)
    return PAdicNorm(p, -int(v))


def _frac_part(q: Fraction, p: int) -> Fraction:
    # [q]_p for a p that was checked prime where it entered
    if q == 0:
        return Fraction(0)
    a, b = q.numerator, q.denominator
    m = _int_valuation(b, p)
    if m == 0:
        return Fraction(0)
    pm = p**m
    b_prime = b // pm
    k = a * pow(b_prime, -1, pm) % pm
    return Fraction(k, pm)


def frac_part(q: Rational, p: int) -> Rational:
    """The fractional part [q]_p: the unique k/p^m with q - k/p^m in Z_p.

    Here m = max(0, -v_p(q)) and 0 <= k < p^m; k is found by a modular
    inverse of the prime-to-p denominator part.
    """
    require_prime(p)
    return _frac_part(Fraction(q), p)


def _char_qp(y: Rational, x: Rational, p: int) -> complex:
    # chi_y(x) for a p that was checked prime where it entered
    fp = _frac_part(Fraction(x) * Fraction(y), p)
    if fp == 0:
        return complex(1.0, 0.0)
    if 2 * fp == 1:
        return complex(-1.0, 0.0)
    return cmath.exp(2j * math.pi * float(fp))


def char_qp(y: Rational, x: Rational, p: int) -> complex:
    """Additive character chi_y(x) = e^{2 pi i [xy]_p} of Q_p.

    Exactly 1 when xy lies in Z_p.
    """
    require_prime(p)
    return _char_qp(y, x, p)


# the primes below 1000, which prime_support screens for first with one
# gcd against their product
_SMALL_PRIMES = tuple(d for d in range(2, 1000) if is_prime(d))
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
# a cofactor free of the primes below 1000 and below 1001^2 is 1 or prime;
# from 1001 = 6 * 167 - 1 the 6k +- 1 walk tries divisors up to this bound
_WALK_FROM = 1001
TRIAL_DIVISOR_LIMIT = 1 << 20


def _int_prime_support(n: int, out: set[int]) -> None:
    # adds the primes of n >= 0 to out; each is proven prime by the table
    # of primes below 1000, by is_prime below PROVEN_PRIME_LIMIT, or by
    # trial division up to TRIAL_DIVISOR_LIMIT
    if n == 0:
        # gcd(0, P) = P, and 0 would divide by each of its primes forever
        return
    g = math.gcd(n, _SMALL_PRIMORIAL)
    # g is squarefree: once d * d > g what is left of g is 1 or one prime
    for d in _SMALL_PRIMES:
        if d * d > g:
            break
        if g % d == 0:
            g //= d
            out.add(d)
            n //= d
            while n % d == 0:
                n //= d
    if g > 1:
        out.add(g)
        n //= g
        while n % g == 0:
            n //= g
    if n < _WALK_FROM * _WALK_FROM:
        if n > 1:
            out.add(n)
        return
    if n < PROVEN_PRIME_LIMIT and is_prime(n):
        out.add(n)
        return
    # d = 1001, 1003, 1007, ...: 6k +- 1, step alternating 2 and 4
    d, step = _WALK_FROM, 2
    while d * d <= n:
        if d > TRIAL_DIVISOR_LIMIT:
            raise ParameterError(
                f"cannot factor {n}: it has no divisor up to the trial-division bound "
                f"{TRIAL_DIVISOR_LIMIT} and is composite or past the proven range of "
                f"the primality test (< {PROVEN_PRIME_LIMIT})"
            )
        if n % d == 0:
            out.add(d)
            n //= d
            while n % d == 0:
                n //= d
            if n < PROVEN_PRIME_LIMIT and is_prime(n):
                break
        d += step
        step = 6 - step
    if n > 1:
        out.add(n)


def prime_support(q: Rational) -> tuple[int, ...]:
    """Sorted primes dividing the numerator or denominator of q.

    Raises ParameterError when a cofactor with no prime factor up to
    TRIAL_DIVISOR_LIMIT lies past the proven range of is_prime, or is a
    composite below it.
    """
    if type(q) is not Fraction:
        q = Fraction(q)
    out: set[int] = set()
    _int_prime_support(abs(q.numerator), out)
    _int_prime_support(q.denominator, out)
    return tuple(sorted(out))


def product_formula_value(q: Rational) -> Fraction:
    """|q|_inf * prod_p |q|_p over primes dividing numerator or denominator.

    Computed exactly in integers; equals 1 for every nonzero rational.
    """
    q = Fraction(q)
    if q == 0:
        raise ParameterError("product formula needs q != 0")
    num, den = _norm_ratio((p, q) for p in prime_support(q))
    return Fraction(abs(q.numerator) * num, q.denominator * den)
