"""Radial integrals, the p-adic gamma function, and the Haar Monte Carlo oracle."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_lab.core import ParameterError, ShellSumPlan
from trace_lab.padic import valuation
from trace_lab.padic_integrals import (
    ball_char_integral,
    exp_norm_function,
    exp_radial_closed,
    integrate_radial,
    mc_haar_zp,
    norm_float,
    padic_gamma,
    padic_gamma_closed,
    padic_gamma_reflection_defect,
    shell_char_integral,
    shell_char_kernel,
    shell_measure,
)

primes = st.sampled_from([2, 3, 5, 7])


def test_shell_measure():
    # the shell of norm p^n has measure p^n (1 - 1/p)
    assert shell_measure(2, 0) == pytest.approx(0.5)
    assert shell_measure(3, 2) == pytest.approx(9.0 * 2.0 / 3.0)
    assert shell_measure(5, -1) == pytest.approx(0.2 * 0.8)


def test_exp_radial_frozen_values():
    # int_{Z_2} e^{-|y|} dy and int_{Q_2} e^{-|y|} dy, gamma = tau = 1
    ball = exp_radial_closed(2, 1.0, 1.0, "unit_ball")
    full = exp_radial_closed(2, 1.0, 1.0, "full")
    assert ball.value == pytest.approx(0.5480427915295705, abs=1e-15)
    assert full.value == pytest.approx(0.7213521033368620, abs=1e-15)
    assert ball.converged and full.converged


@given(primes, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=30, deadline=None)
def test_exp_radial_closed_vs_generic(p, gamma, tau):
    g = exp_norm_function(tau, gamma)
    for dom in ("unit_ball", "full"):
        closed = exp_radial_closed(p, gamma, tau, dom)
        generic = integrate_radial(g, p, dom)
        assert generic.converged
        assert abs(closed.value - generic.value) <= closed.error_bound + generic.error_bound + 1e-13


def test_integrate_radial_flags_nonconvergence():
    plan = ShellSumPlan(n_min=-3, n_max=3, tail_tolerance=1e-30)
    res = integrate_radial(exp_norm_function(1.0, 1.0), 2, "unit_ball", plan)
    assert not res.converged


def test_ball_char_integral_exact():
    # int_{|x| <= p^n} chi_y(x) dx = p^n when |y| <= p^{-n}, else 0
    assert ball_char_integral(2, 0, Fraction(1, 2)) == 0
    assert ball_char_integral(2, 0, Fraction(3)) == 1
    assert ball_char_integral(2, 2, Fraction(1)) == 0
    assert ball_char_integral(2, -1, Fraction(1)) == Fraction(1, 2)
    assert ball_char_integral(3, 1, Fraction(9)) == 3
    assert isinstance(ball_char_integral(3, 1, Fraction(9)), Fraction)


@given(
    primes,
    st.integers(-4, 4),
    st.fractions(min_value=-100, max_value=100, max_denominator=81).filter(lambda q: q != 0),
)
@settings(max_examples=60)
def test_shell_char_consistency(p, n, y):
    # shell integral = ball(n) - ball(n-1), and summing shells recovers the ball
    lhs = shell_char_integral(p, n, y)
    rhs = float(ball_char_integral(p, n, y) - ball_char_integral(p, n - 1, y))
    assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 7919])
def test_shell_char_kernel_matches_definition(p):
    # the kernel is the correctly rounded float of the exact Fraction
    # difference of ball integrals, wherever that difference is finite
    unit = Fraction(p + 1, p - 1)
    ks = (-300, -1, 0, 1, 17, 298)
    xs = [Fraction(0)] + [sgn * unit * Fraction(p) ** k for k in ks for sgn in (1, -1)]
    for x in xs:
        v = valuation(x, p)
        ball = {n: ball_char_integral(p, n, x) for n in range(-301, 301)}
        for n in range(-300, 301):
            try:
                ref = float(ball[n] - ball[n - 1])
            except OverflowError:
                with pytest.raises(ParameterError):
                    shell_char_kernel(p, n, v)
                continue
            assert shell_char_kernel(p, n, v) == ref, (p, n, x)
        if v != math.inf:
            # the edge shells n = v, v+1, v+2 take the three branches
            assert ball[v] - ball[v - 1] > 0
            assert ball[v + 1] - ball[v] < 0
            assert ball[v + 2] - ball[v + 1] == 0
            assert shell_char_kernel(p, v + 2, v) == 0.0


def test_shell_char_trichotomy():
    # |y| <= p^{-n}: full shell measure; |y| = p^{-n+1}: -p^{n-1}; else 0
    assert shell_char_integral(2, 0, Fraction(2)) == pytest.approx(0.5)
    assert shell_char_integral(2, 0, Fraction(1, 2)) == pytest.approx(-0.5)
    assert shell_char_integral(2, 0, Fraction(1, 4)) == 0.0
    assert shell_char_integral(5, 1, Fraction(1, 5)) == 0.0


def test_padic_gamma_frozen_values():
    assert padic_gamma_closed(3, 0.7) == pytest.approx(0.5233132782728148, abs=1e-15)
    assert padic_gamma_closed(5, 0.31) == pytest.approx(1.7071793089708632, abs=1e-15)


@given(primes, st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_padic_gamma_shell_oracle(p, s):
    closed = padic_gamma(p, s, "closed")
    shell = padic_gamma(p, s, "shell_oracle")
    assert shell.converged
    assert abs(closed.value - shell.value) <= shell.error_bound + 1e-13


@given(primes, st.floats(min_value=0.01, max_value=0.99))
def test_padic_gamma_reflection(p, s):
    assert padic_gamma_reflection_defect(p, s) <= 1e-14


def test_padic_gamma_shell_needs_standard_strip():
    with pytest.raises(ParameterError):
        padic_gamma(2, 1.5, "shell_oracle")


def test_mc_haar_shell_frequencies():
    sample = mc_haar_zp(3, count=200_000, seed=11)
    for n in (0, -1, -2):
        f, se = sample.shell_frequency(n)
        expected = (1.0 - 1.0 / 3.0) * norm_float(3, n)
        assert abs(f - expected) <= 4.0 * se, (n, f, expected)
    f, se = sample.ball_frequency(3)
    assert abs(f - 3.0**-3) <= 4.0 * se


def test_mc_haar_deterministic():
    a = mc_haar_zp(2, count=1000, seed=5)
    b = mc_haar_zp(2, count=1000, seed=5)
    assert np.array_equal(a.valuations, b.valuations)
    c = mc_haar_zp(2, count=1000, seed=6)
    assert not np.array_equal(a.valuations, c.valuations)


def test_mc_haar_mean_scalar_fallback():
    sample = mc_haar_zp(2, count=50_000, seed=3)
    vec, _ = sample.mean_of(lambda u: np.exp(-u))
    scal, _ = sample.mean_of(lambda u: math.exp(-u))  # rejects arrays, falls back
    assert vec == pytest.approx(scal, abs=1e-15)
    ref = exp_radial_closed(2, 1.0, 1.0, "unit_ball").value
    _, se = sample.mean_of(lambda u: np.exp(-u))
    assert abs(vec - ref) <= 4.0 * se


def test_mc_haar_rejects_bad_params():
    with pytest.raises(ParameterError):
        mc_haar_zp(4)
    with pytest.raises(ParameterError):
        mc_haar_zp(2, count=0)
