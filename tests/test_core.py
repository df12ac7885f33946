"""Shared numerics and parsing helpers."""
from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trace_lab.core import (
    CompensatedSum,
    EvalResult,
    ParameterError,
    comp_sum,
    format_rational,
    is_prime,
    parse_number,
    parse_rational,
    product_results,
    require_prime,
)


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12), max_size=200))
def test_compensated_sum_matches_fsum(xs):
    acc = CompensatedSum()
    for x in xs:
        acc.add(x)
    assert math.isclose(acc.value, math.fsum(xs), rel_tol=0, abs_tol=1e-3)
    assert comp_sum(xs) == acc.value


@given(st.lists(st.floats(allow_nan=False), max_size=200), st.integers(min_value=0, max_value=200))
def test_compensated_extend_is_repeated_add(xs, split):
    # extend picks up any running state: add the first terms one by one
    one = CompensatedSum()
    for x in xs:
        one.add(x)
    both = CompensatedSum()
    for x in xs[:split]:
        both.add(x)
    both.extend(iter(xs[split:]))
    # repr tells -0.0 from 0.0 and lets nan (from inf - inf) equal itself
    assert repr((both._s, both._c)) == repr((one._s, one._c))


# infinities, signed zeros and subnormals, which hypothesis draws only now and then
_EDGES = st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308])
_TERMS = st.one_of(st.floats(allow_nan=False), st.floats(min_value=-1e-300, max_value=1e-300), _EDGES)


@given(
    st.lists(_TERMS, max_size=60),
    _TERMS,
    _TERMS,
    st.sampled_from([np.array, list, iter]),
)
def test_compensated_extend_on_arrays_lists_and_iterators(xs, s0, c0, kind):
    # the array kernel from any running state, against one add per term
    one = CompensatedSum()
    one._s, one._c = s0, c0
    for x in xs:
        one.add(x)
    both = CompensatedSum()
    both._s, both._c = s0, c0
    both.extend(kind(xs))
    assert type(both._s) is float and type(both._c) is float
    assert repr((both._s, both._c)) == repr((one._s, one._c))


def test_compensated_extend_of_nothing_keeps_the_state():
    for empty in ([], np.array([]), iter(())):
        acc = CompensatedSum()
        acc._s, acc._c = -0.0, 5e-324
        acc.extend(empty)
        assert repr((acc._s, acc._c)) == repr((-0.0, 5e-324))


def test_compensated_extend_warns_about_nothing():
    # inf - inf is nan and 1e308 + 1e308 overflows: Python floats warn
    # about neither, so the array kernel may not either
    xs = [math.inf, -math.inf, 1e308, 1e308]
    acc = CompensatedSum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc.extend(xs)
    one = CompensatedSum()
    for x in xs:
        one.add(x)
    assert repr((acc._s, acc._c)) == repr((one._s, one._c))


def test_compensated_sum_beats_naive():
    # classic cancellation case: naive summation loses the small term
    terms = [1.0, 1e-16, -1.0] * 10_000
    assert comp_sum(terms) == pytest.approx(1e-12, rel=1e-12)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(-3, 40):
        assert is_prime(n) == (n in primes)
    require_prime(101)
    with pytest.raises(ParameterError):
        require_prime(91)  # 7 * 13


def test_require_prime_stops_at_proven_range():
    # the 12 Miller-Rabin bases are proven only below psi_12, which is
    # itself a composite that passes all of them
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert is_prime(psi_12)
    with pytest.raises(ParameterError, match="proven range"):
        require_prime(psi_12)
    below = next(n for n in range(psi_12 - 2, 0, -2) if is_prime(n))
    assert require_prime(below) == below


def _is_prime_12_bases(n: int) -> bool:
    """Miller-Rabin with all 12 bases 2..37 for every n: the oracle."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_matches_the_12_base_oracle():
    # below 37^2 no base runs; below psi_4 = 3215031751 only 2, 3, 5, 7 do
    assert [n for n in range(-2, 200_000) if is_prime(n) != _is_prime_12_bases(n)] == []


@pytest.mark.parametrize(
    "n",
    # the least strong pseudoprimes to the first 1, 2, ..., 7 prime bases:
    # psi_1..psi_7, with psi_4 itself the first n that gets all 12 bases
    [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)
    assert not _is_prime_12_bases(n)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_rational(format_rational(q)) == q


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)
    with pytest.raises(ParameterError):
        parse_rational("1/0")
    with pytest.raises(ParameterError):
        parse_rational("two")


def test_parse_number_kinds():
    assert parse_number("1/4") == 0.25 and type(parse_number("1/4")) is float
    assert parse_number("1/3", "exact") == Fraction(1, 3)
    assert parse_number(" 2.5 ", "exact") == 2.5
    assert parse_number("0.1", "rational") == Fraction(1, 10)
    assert parse_number("-7", "int") == -7
    assert repr(parse_number("3.141592653589793")) == "3.141592653589793"


@pytest.mark.parametrize("kind", ["int", "rational", "float", "exact"])
def test_parse_number_refuses_malformed_and_non_finite(kind):
    for text in ("abc", "", "nan", "inf", "-inf", "1/0", "1/2/3"):
        with pytest.raises(ParameterError, match="--t"):
            parse_number(text, kind, "--t")


def test_parse_number_past_double_range():
    # exact where the caller keeps the value exact, refused where it is a float
    big = "1" + "0" * 400 + "/1"
    assert parse_number("1e999", "rational") == 10**999
    assert parse_number(big, "exact") == 10**400
    for text in ("1e999", "-1e999", big):
        with pytest.raises(ParameterError):
            parse_number(text)
    with pytest.raises(ParameterError):
        parse_number("1e999", "exact")


def test_eval_result_dict():
    d = EvalResult(1.5, 1e-9, 12, True).to_dict()
    assert d == {"value": 1.5, "error_bound": 1e-9, "terms_used": 12, "converged": True}


def test_product_results_bound():
    a = EvalResult(2.0, 1e-9, 1, True)
    b = EvalResult(3.0, 1e-8, 1, True)
    prod = product_results([a, b])
    assert prod.value == 6.0
    # first-order propagation: |a| db + |b| da, plus the cross term
    assert prod.error_bound >= 2.0 * 1e-8 + 3.0 * 1e-9
    assert prod.error_bound <= 1.01 * (2.0 * 1e-8 + 3.0 * 1e-9) + 1e-16
    assert prod.converged


def test_product_results_flags_nonconverged():
    a = EvalResult(2.0, 1e-9, 1, True)
    b = EvalResult(3.0, 1e-8, 1, False)
    assert not product_results([a, b]).converged
