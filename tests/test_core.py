"""Shared numerics and parsing helpers."""
from __future__ import annotations

import math
from fractions import Fraction

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
