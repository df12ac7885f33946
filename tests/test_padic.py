"""Valuations, norms, fractional parts, and additive characters on Q_p."""
from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_lab.cli import main
from trace_lab.core import PROVEN_PRIME_LIMIT, ParameterError
from trace_lab.padic import (
    TRIAL_DIVISOR_LIMIT,
    char_qp,
    frac_part,
    padic_norm,
    prime_support,
    product_formula_value,
    valuation,
)

primes = st.sampled_from([2, 3, 5, 7, 11])
rationals = st.fractions(
    min_value=Fraction(-500), max_value=Fraction(500), max_denominator=500
)
nonzero = rationals.filter(lambda q: q != 0)


def test_valuation_basics():
    assert valuation(Fraction(12), 2) == 2
    assert valuation(Fraction(12), 3) == 1
    assert valuation(Fraction(5, 8), 2) == -3
    assert valuation(Fraction(0), 7) == math.inf
    with pytest.raises(ParameterError):
        valuation(Fraction(1), 4)


@given(nonzero, nonzero, primes)
def test_norm_multiplicative(a, b, p):
    na = padic_norm(a, p).as_fraction()
    nb = padic_norm(b, p).as_fraction()
    assert padic_norm(a * b, p).as_fraction() == na * nb


@given(rationals, rationals, primes)
def test_ultrametric(a, b, p):
    na = padic_norm(a, p).as_fraction()
    nb = padic_norm(b, p).as_fraction()
    ns = padic_norm(a + b, p).as_fraction()
    assert ns <= max(na, nb)
    if na != nb:
        assert ns == max(na, nb)


@given(nonzero)
def test_product_formula_exact(q):
    assert product_formula_value(q) == 1


@given(rationals, primes)
def test_frac_part_characterizes(q, p):
    f = frac_part(q, p)
    # f is a p-power-denominator representative in [0, 1)
    assert 0 <= f < 1
    den = f.denominator
    while den % p == 0:
        den //= p
    assert den == 1
    # q - f lies in Z_p
    assert valuation(q - f, p) >= 0


@given(rationals, rationals, primes)
def test_frac_part_additive_mod_1(a, b, p):
    assert (frac_part(a + b, p) - frac_part(a, p) - frac_part(b, p)) % 1 == 0


@given(rationals, rationals, rationals, primes)
def test_char_multiplicative_in_x(y, x1, x2, p):
    lhs = char_qp(y, x1 + x2, p)
    rhs = char_qp(y, x1, p) * char_qp(y, x2, p)
    assert abs(lhs - rhs) < 1e-12


@given(rationals, rationals, primes)
def test_char_unit_modulus(y, x, p):
    assert abs(abs(char_qp(y, x, p)) - 1.0) < 1e-14


@given(rationals.filter(lambda q: valuation(q, 3) >= 0), rationals, st.just(3))
def test_char_trivial_on_zp_times_zp(y, x, p):
    # y in Z_p and x in Z_p: the pairing is 1
    if valuation(x, p) >= 0:
        assert abs(char_qp(y, x, p) - 1.0) < 1e-14


def test_char_value_example():
    # [1/2 * 1]_2 = 1/2, so the character is e^{pi i} = -1
    assert abs(char_qp(Fraction(1), Fraction(1, 2), 2) - (-1.0)) < 1e-15
    assert abs(char_qp(Fraction(1, 4), Fraction(1), 2) - cmath.exp(2j * math.pi / 4)) < 1e-15


def test_prime_support():
    assert prime_support(Fraction(12, 35)) == (2, 3, 5, 7)
    assert prime_support(Fraction(1)) == ()
    assert prime_support(Fraction(0)) == ()


def _factor_brute(n):
    """Primes dividing |n|, by trial division by every integer from 2."""
    n, d, out = abs(n), 2, set()
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_prime_support_matches_brute_force():
    for q in (0, 1, -1):
        assert prime_support(Fraction(q)) == ()
    for n in range(2, 5001):
        want = tuple(sorted(_factor_brute(n)))
        assert prime_support(Fraction(n)) == want, n
        assert prime_support(Fraction(-1, n)) == want, n
    for p in (2, 3, 5, 7, 97, 101, 997):
        assert prime_support(Fraction(p * p)) == (p,)
        for k in range(1, 12):
            assert prime_support(Fraction(2**k * p)) == tuple(sorted({2, p}))
    for a, b in ((12, 35), (-221, 1024), (3**5 * 11, 2 * 7**3), (1000003 * 4, 9 * 25)):
        want = tuple(sorted(_factor_brute(a) | _factor_brute(b)))
        assert prime_support(Fraction(a, b)) == want


def test_prime_support_past_the_trial_division_cutoff():
    # past d = 1000 a cofactor that is_prime proves prime ends the search;
    # a composite cofactor goes on to plain trial division
    big = 10**18 + 3
    assert prime_support(Fraction(big)) == (big,)
    assert prime_support(Fraction(-3, 2**5 * 7 * big)) == (2, 3, 7, big)
    assert prime_support(Fraction(1009 * 1013)) == (1009, 1013)
    assert prime_support(Fraction(1, 1009**2 * 1013**3)) == (1009, 1013)
    assert prime_support(Fraction(999983 * 1000003)) == (999983, 1000003)


# primes on both sides of 1000 and of the trial-division bound 2^20
_KNOWN_PRIMES = [2, 3, 5, 7, 31, 37, 991, 997, 1009, 1013, 30011, 1048573]
# the least primes past the bound, and primes that is_prime proves
_PAST_THE_BOUND = [1048583, 1048589]
_PROVABLE = [10**18 + 3, 2**61 - 1]


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_KNOWN_PRIMES), st.integers(-3, 3), max_size=6),
    st.sampled_from([1] + _PROVABLE),
    st.sampled_from((-1, 1)),
)
def test_prime_support_of_numbers_built_from_known_primes(exponents, big, sign):
    # q = sign * big^(+-1) * prod p^e, so its primes are known by
    # construction; the brute force confirms the small ones
    q = Fraction(sign * big) ** (-1 if sign < 0 else 1)
    for p, e in exponents.items():
        q *= Fraction(p) ** e
    want = {p for p, e in exponents.items() if e} | ({big} if big > 1 else set())
    assert prime_support(q) == tuple(sorted(want))
    for n in (q.numerator, q.denominator):
        if abs(n) < 10**8:
            assert set(prime_support(Fraction(n))) == _factor_brute(n)


def test_prime_support_walks_to_the_bound_and_no_further():
    assert TRIAL_DIVISOR_LIMIT == 1048576
    # 1048573 is the last prime the walk may try
    assert prime_support(Fraction(1048573 * 1048583)) == (1048573, 1048583)
    assert prime_support(Fraction(-1, 2 * 1048573**2 * 10**18 + 2 * 1048573**2 * 3)) == (
        2,
        1048573,
        10**18 + 3,
    )
    composite = _PAST_THE_BOUND[0] * _PAST_THE_BOUND[1]
    with pytest.raises(ParameterError, match="trial-division bound 1048576"):
        prime_support(Fraction(composite))
    # the first prime past the proven range of is_prime
    unproven = 318665857834031151167483
    assert unproven > PROVEN_PRIME_LIMIT
    with pytest.raises(ParameterError, match="trial-division bound 1048576"):
        prime_support(Fraction(7, 12 * unproven))


def test_diagonal_past_the_bound_exits_2_quickly(capsys):
    t0 = time.perf_counter()
    assert main(["idele-norm", "--diagonal", "1/318665857834031151167483"]) == 2
    assert main(["idele-norm", "--diagonal", str(_PAST_THE_BOUND[0] * _PAST_THE_BOUND[1])]) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.count("trial-division bound 1048576") == 2
