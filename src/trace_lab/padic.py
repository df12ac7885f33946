"""Exact p-adic valuations, norms, fractional parts, and additive characters.

Rationals are plain fractions.Fraction values (exact, always in lowest
terms); norms are carried as exact exponents and only turned into floats
at evaluation boundaries.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import ParameterError, require_prime

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


def valuation(q: Rational, p: int) -> int | float:
    """v_p(q): the exponent m with q = (a/b) p^m, a,b coprime to p.

    Returns math.inf for q = 0.
    """
    require_prime(p)
    q = Fraction(q)
    if q == 0:
        return math.inf
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


def padic_norm(q: Rational, p: int) -> PAdicNorm:
    """|q|_p = p^{-v_p(q)} as an exact exponent."""
    v = valuation(q, p)
    if v == math.inf:
        return PAdicNorm(p, 0, is_zero=True)
    return PAdicNorm(p, -int(v))


def frac_part(q: Rational, p: int) -> Rational:
    """The fractional part [q]_p: the unique k/p^m with q - k/p^m in Z_p.

    Here m = max(0, -v_p(q)) and 0 <= k < p^m; k is found by a modular
    inverse of the prime-to-p denominator part.
    """
    require_prime(p)
    q = Fraction(q)
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


def char_qp(y: Rational, x: Rational, p: int) -> complex:
    """Additive character chi_y(x) = e^{2 pi i [xy]_p} of Q_p.

    Exactly 1 when xy lies in Z_p.
    """
    fp = frac_part(Fraction(x) * Fraction(y), p)
    if fp == 0:
        return complex(1.0, 0.0)
    if 2 * fp == 1:
        return complex(-1.0, 0.0)
    return cmath.exp(2j * math.pi * float(fp))


def prime_support(q: Rational) -> tuple[int, ...]:
    """Sorted primes dividing the numerator or denominator of q."""
    q = Fraction(q)
    out: set[int] = set()
    for n in (q.numerator, q.denominator):
        n = abs(n)
        if n > 1 and n % 2 == 0:
            out.add(2)
            while n % 2 == 0:
                n //= 2
        d = 3
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                while n % d == 0:
                    n //= d
            d += 2
        if n > 1:
            out.add(n)
    return tuple(sorted(out))


def product_formula_value(q: Rational) -> Fraction:
    """|q|_inf * prod_p |q|_p over primes dividing numerator or denominator.

    Computed exactly; equals 1 for every nonzero rational.
    """
    q = Fraction(q)
    if q == 0:
        raise ParameterError("product formula needs q != 0")
    value = abs(q)
    for p in prime_support(q):
        value *= padic_norm(q, p).as_fraction()
    return value
