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
        v = _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
        if v > 0:
            den *= p**v
        elif v < 0:
            num *= p ** (-v)
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


# the primes below 1000, which the trial division of prime_support tries
# first
_SMALL_PRIMES = tuple(d for d in range(2, 1000) if is_prime(d))
# where prime_support, past every prime below 1000, asks is_prime whether
# the cofactor left is itself prime; 1001 = 6 * 167 - 1 starts its 6k +- 1
# walk
_PRIME_COFACTOR_TEST_AT = 1001


def prime_support(q: Rational) -> tuple[int, ...]:
    """Sorted primes dividing the numerator or denominator of q."""
    q = Fraction(q)
    out: set[int] = set()
    for n in (q.numerator, q.denominator):
        n = abs(n)
        for d in _SMALL_PRIMES:
            if d * d > n:
                break
            if n % d == 0:
                out.add(d)
                n //= d
                while n % d == 0:
                    n //= d
        else:
            # then d = 1001, 1003, 1007, ...: 6k +- 1, step alternating 2 and 4
            d, step = _PRIME_COFACTOR_TEST_AT, 2
            while d * d <= n:
                if n % d == 0:
                    out.add(d)
                    n //= d
                    while n % d == 0:
                        n //= d
                elif d == _PRIME_COFACTOR_TEST_AT and n < PROVEN_PRIME_LIMIT and is_prime(n):
                    break
                d += step
                step = 6 - step
        if n > 1:
            out.add(n)
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
