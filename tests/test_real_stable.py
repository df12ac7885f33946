"""Theta, stable densities on R, and the two Cauchy summation conventions."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_lab.core import CompensatedSum, EvalResult, ParameterError
from trace_lab.real_stable import (
    _TWO_PI,
    StableSymbol,
    _cauchy_lattice_sum,
    cauchy_psf_report,
    gaussian_density,
    stable_asymptotic_coefficients,
    stable_density,
    stable_density_numeric,
    theta,
    theta_functional_defect,
    theta_potential_integral,
)

COTH_PI = 1.00374187319732129


def test_theta_frozen_values():
    assert theta(1.0).value == pytest.approx(1.08643481121330801, abs=1e-15)
    assert theta(4.0).value == pytest.approx(1.000006974684712418, abs=1e-15)
    assert theta(0.25).value == pytest.approx(2.000013949369424836, abs=1e-14)
    assert theta(2.0).value == pytest.approx(1.0037348854877391, abs=1e-15)


@given(st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=60)
def test_theta_functional_equation(t):
    assert theta_functional_defect(t) <= 1e-12


def test_theta_rejects_nonpositive_t():
    with pytest.raises(ParameterError):
        theta(0.0)
    with pytest.raises(ParameterError):
        theta(-1.0)


def test_theta_potential_integral_pieces():
    full = theta_potential_integral()
    lower = theta_potential_integral(interval="lower")
    upper = theta_potential_integral(interval="upper")
    assert full.value == pytest.approx(math.pi / 3.0, abs=1e-8)
    assert lower.value + upper.value == pytest.approx(full.value, abs=1e-8)
    assert full.converged


@given(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=-4.0, max_value=4.0))
def test_gaussian_density_self_dual(t, x):
    # t^{-1/2} e^{-pi x^2 / t} pairs with e^{-t pi y^2}
    assert gaussian_density(t, x) == pytest.approx(
        math.exp(-math.pi * x * x / t) / math.sqrt(t), rel=1e-15
    )


def test_stable_density_alpha2_closed_form():
    sym = StableSymbol(2.0, math.pi)
    # the alpha = 2, sigma = pi symbol is the self-dual gaussian
    for t in (0.5, 1.0, 2.0):
        for x in (0.0, 0.3, 1.5):
            assert stable_density(sym, t, x).value == pytest.approx(
                gaussian_density(t, x), rel=1e-14
            )


def test_stable_density_cauchy_closed_form():
    sym = StableSymbol(1.0, 1.0)
    c = 1.0  # sigma t
    for x in (0.0, 0.25, 1.0, 3.0):
        ref = 2.0 * c / (c * c + 4.0 * math.pi * math.pi * x * x)
        assert stable_density(sym, 1.0, x).value == pytest.approx(ref, rel=1e-14)


def test_stable_density_numeric_matches_closed_forms():
    for sym, t in ((StableSymbol(1.0, 1.0), 1.0), (StableSymbol(2.0, math.pi), 0.7)):
        for x in (0.0, 0.4, 1.1):
            res = stable_density_numeric(sym, t, x)
            ref = stable_density(sym, t, x).value
            assert abs(res.value - ref) <= res.error_bound + 1e-9


def test_stable_density_alpha_15_frozen_values():
    sym = StableSymbol(1.5, 1.0)
    gamma_53 = math.gamma(5.0 / 3.0)
    assert stable_density(sym, 1.0, 0.0).value == pytest.approx(2.0 * gamma_53, rel=1e-12)
    frozen = {
        0.5: 0.173835831113713565,
        1.0: 0.0233105747383449240,
        2.0: 0.00360998363277259645,
        5.0: 0.000346073066140956122,
    }
    for x, ref in frozen.items():
        res = stable_density_numeric(sym, 1.0, x)
        assert res.value == pytest.approx(ref, abs=3e-11), x
        # symmetric law
        assert stable_density_numeric(sym, 1.0, -x).value == pytest.approx(ref, abs=3e-11)


def test_stable_asymptotic_leading_term():
    # f(x) ~ (1/pi) c_1 x^{-alpha-1}, c_1 = Gamma(1+alpha) sin(pi alpha/2) a'
    sym = StableSymbol(1.5, 1.0)
    lead = stable_asymptotic_coefficients(sym, 1.0, 1)[0]
    expected = math.gamma(2.5) * math.sin(0.75 * math.pi) * (2.0 * math.pi) ** -1.5
    assert lead == pytest.approx(expected, rel=1e-12)
    for x in (20.0, 40.0):
        approx = lead * x**-2.5 / math.pi
        got = stable_density_numeric(sym, 1.0, x).value
        assert got == pytest.approx(approx, rel=0.05), x


def test_moderate_decrease_constant():
    sym = StableSymbol(1.5, 1.0)
    # fit K with |f(x)| <= K / (1 + |x|)^{1 + alpha} on 41 points of [0, 10]
    k = 0.0
    for i in range(41):
        x = 10.0 * i / 40
        f = stable_density(sym, 1.0, x).value
        k = max(k, abs(f) * (1.0 + x) ** (1.0 + sym.alpha))
    assert k > 0
    # fitted on [0, 10]; the envelope must keep dominating out to 100
    for x in (12.0, 25.0, 60.0, 100.0):
        fx = stable_density_numeric(sym, 1.0, x).value
        assert fx <= k / (1.0 + x) ** 2.5, x


def test_cauchy_report_paper_mode():
    rep = cauchy_psf_report("paper")
    assert rep.density_sum.value == pytest.approx(1.36550743738038842, abs=1e-12)
    assert rep.transform_sum.value == pytest.approx(2.16395341373865285, abs=1e-12)
    assert rep.defect == pytest.approx(0.798446, abs=1e-5)


def test_cauchy_report_consistent_mode():
    rep = cauchy_psf_report("consistent")
    assert rep.density_sum.value == pytest.approx(COTH_PI, abs=1e-11)
    assert rep.transform_sum.value == pytest.approx(COTH_PI, abs=1e-11)
    assert rep.defect <= rep.density_sum.error_bound + rep.transform_sum.error_bound + 1e-12


def _cauchy_lattice_sum_loop(c, cutoff=5000):
    # the scalar form, one add per n
    acc = CompensatedSum()
    g = lambda u: 2.0 * c / (c * c + 4.0 * math.pi * math.pi * u * u)
    acc.add(g(0.0))
    for n in range(1, cutoff + 1):
        acc.add(2.0 * g(float(n)))
    m = cutoff + 0.5
    acc.add(2.0 * (0.5 - math.atan(_TWO_PI * m / c) / math.pi))
    w = _TWO_PI * m
    gp = 8.0 * math.pi * c * w / (c * c + w * w) ** 2
    return EvalResult(acc.value, gp / 12.0, cutoff + 1, True)


@pytest.mark.parametrize("c", [0.05, 1.0, _TWO_PI, 30.0])
def test_cauchy_lattice_sum_matches_the_scalar_loop(c):
    got = _cauchy_lattice_sum(c)
    ref = _cauchy_lattice_sum_loop(c)
    assert got == ref and repr(got) == repr(ref)


def test_cauchy_report_rejects_unknown_convention():
    with pytest.raises(ParameterError):
        cauchy_psf_report("mixed")


def test_stable_symbol_validation():
    with pytest.raises(ParameterError):
        StableSymbol(2.5, 1.0)
    with pytest.raises(ParameterError):
        StableSymbol(0.0, 1.0)
    with pytest.raises(ParameterError):
        StableSymbol(1.0, -1.0)
