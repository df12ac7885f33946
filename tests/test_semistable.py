"""Semistable densities on Q_p: series vs shell inversion, mass, invariances."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_lab.core import ParameterError
from trace_lab.semistable import SemistableLaw, char_fn, density, mass_check

laws = st.builds(
    SemistableLaw,
    st.sampled_from([2, 3, 5]),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([0.5, 1.0, 2.0]),
)


def test_char_fn_values():
    law = SemistableLaw(2, 1.0, 1.0)
    assert char_fn(law, 1.0, Fraction(1)) == pytest.approx(math.exp(-1.0))
    assert char_fn(law, 2.0, Fraction(1, 4)) == pytest.approx(math.exp(-8.0))
    assert char_fn(law, 1.0, Fraction(0)) == 1.0


def test_mass_check_pinned_bits():
    # digits recorded when the shell integrals were exact Fraction
    # differences, so any drift of the float shell kernel shows here
    res = mass_check(SemistableLaw(2, 1.0, 1.0), 1.0).result
    assert repr(res.value) == "0.9999999999999242"
    assert repr(res.error_bound) == "7.580108799848702e-14"


def test_density_frozen_values():
    # |x|_2 = 1, gamma = 1, Ct = 1
    law = SemistableLaw(2, 1.0, 1.0)
    assert density(law, 1.0, Fraction(1), "shell").value == pytest.approx(
        0.4127075082929578, abs=1e-15
    )
    assert density(law, 1.0, Fraction(1), "series").value == pytest.approx(
        0.4127075082929578, abs=1e-12
    )
    # two heavier corners, gamma = 2, Ct = 2, |x| = p^{-2}
    assert density(SemistableLaw(3, 2.0, 2.0), 1.0, Fraction(9), "shell").value == pytest.approx(
        0.3773994622241190, abs=1e-12
    )
    assert density(SemistableLaw(5, 2.0, 2.0), 1.0, Fraction(25), "shell").value == pytest.approx(
        0.29586377992252067, abs=1e-12
    )


@given(laws, st.integers(-2, 2), st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=40, deadline=None)
def test_series_matches_shell(law, k, t):
    x = Fraction(law.p) ** k
    ser = density(law, t, x, "series")
    shl = density(law, t, x, "shell")
    assert ser.converged and shl.converged
    assert abs(ser.value - shl.value) <= max(abs(shl.value), 1.0) * 1e-9


def test_series_regrouped_worst_corner():
    # deep inside Z_p the alternating series needs the regrouped form;
    # at p = 5, |x| = 5^{-6} the naive peak term a^n/n! ~ e^a is hopeless
    law = SemistableLaw(5, 2.0, 2.0)
    x = Fraction(5) ** 6
    ser = density(law, 1.0, x, "series")
    shl = density(law, 1.0, x, "shell")
    assert ser.converged
    assert abs(ser.value - shl.value) <= 1e-9 * abs(shl.value)
    assert ser.value > 0


def test_series_variants_differ_off_ct_1():
    law = SemistableLaw(2, 2.0, 2.0)
    plain = density(law, 1.0, Fraction(1, 2), "series", series_variant="plain")
    alt = density(law, 1.0, Fraction(1, 2), "series", series_variant="gamma-power")
    shell = density(law, 1.0, Fraction(1, 2), "shell")
    assert abs(plain.value - shell.value) <= 1e-8
    assert abs(alt.value - shell.value) > 1e-2  # the alternative reading fails
    # at Ct = 1 the two coincide identically, so that point decides nothing
    law1 = SemistableLaw(2, 2.0, 1.0)
    p1 = density(law1, 1.0, Fraction(1, 2), "series", series_variant="plain")
    a1 = density(law1, 1.0, Fraction(1, 2), "series", series_variant="gamma-power")
    assert p1.value == a1.value


@given(laws, st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=20, deadline=None)
def test_mass_is_one(law, t):
    mc = mass_check(law, t)
    assert mc.result.converged
    assert abs(mc.result.value - 1.0) <= 1e-10
    assert mc.min_density >= -1e-12


@given(laws, st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_scaling_identity(law, k):
    # f_t(x) = (1/p) f_{t p^{-gamma}}(p x)
    p = law.p
    x = Fraction(p) ** k
    lhs = density(law, 1.0, x, "shell").value
    rhs = density(law, float(p) ** -law.gamma, p * x, "shell").value / p
    assert abs(lhs - rhs) <= 1e-12


@given(laws, st.integers(-4, 4))
@settings(max_examples=40, deadline=None)
def test_max_at_identity_and_radial(law, k):
    f0 = density(law, 1.0, Fraction(0), "shell").value
    fx = density(law, 1.0, Fraction(law.p) ** k, "shell").value
    assert fx <= f0 + 1e-12
    # radial: value depends only on |x|_p
    u = 1 + law.p  # a p-adic unit
    fu = density(law, 1.0, u * Fraction(law.p) ** k, "shell").value
    assert fx == pytest.approx(fu, abs=1e-13)


def test_density_rejects_bad_input():
    law = SemistableLaw(2, 1.0, 1.0)
    with pytest.raises(ParameterError):
        density(law, 0.0, Fraction(1))
    with pytest.raises(ParameterError):
        density(law, 1.0, Fraction(0), "series")  # series needs x != 0
    with pytest.raises(ParameterError):
        density(law, 1.0, Fraction(1), "quadrature")
    with pytest.raises(ParameterError):
        SemistableLaw(6, 1.0, 1.0)
