"""Semistable densities on Q_p: series vs shell inversion, mass, invariances."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_lab import adeles, padic_integrals, semistable
from trace_lab.adeles import BruhatSchwartzSpec, FiniteFactor, Idele, gaussian_factor, scale_by_idele
from trace_lab.core import (
    MAX_TERMS,
    N_MAX,
    N_MIN,
    CompensatedSum,
    EvalResult,
    ParameterError,
    QuadratureConfig,
    ShellSumPlan,
    product_results,
)
from trace_lab.padic import valuation
from trace_lab.padic_integrals import (
    exp_norm_function,
    integrate_radial,
    norm_float,
    padic_gamma_closed,
    shell_char_kernel,
)
from trace_lab.cli import CommandRequest, run_request
from trace_lab.semistable import (
    MassCheck,
    SemistableLaw,
    _ShellTable,
    char_fn,
    density,
    mass_check,
    shell_densities,
)

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
    # |y|_2^gamma = 2^1200 overflows a double: the weight is 0.0, not a raise
    assert char_fn(SemistableLaw(2, 2.0, 1.0), 1.0, Fraction(1, 2**600)) == 0.0


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


def test_series_density_checks_p_once(monkeypatch):
    # the law checked p when it was built; the series reads Gamma_p for
    # each of its terms without checking p again
    law = SemistableLaw(3, 0.5, 1.0)
    want = density(law, 1.0, Fraction(1, 3), "series")
    calls = []
    monkeypatch.setattr(padic_integrals, "require_prime", lambda p: calls.append(p) or p)
    assert density(law, 1.0, Fraction(1, 3), "series") == want
    assert want.terms_used > 3 and calls == []
    monkeypatch.undo()
    with pytest.raises(ParameterError):
        padic_gamma_closed(4, 0.5)


@given(laws, st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=20, deadline=None)
def test_mass_is_one(law, t):
    mc = mass_check(law, t)
    assert mc.result.converged
    assert abs(mc.result.value - 1.0) <= 1e-10
    assert mc.min_density >= -1e-12


def test_mass_check_stops_below_the_rounding_floor():
    # the outer terms stall near the rounding floor above tol/10; the loop
    # must end when p^n overflows (n = 1024), not run on to MAX_TERMS
    mc = mass_check(SemistableLaw(2, 1.0, 1.0), 1.0, ShellSumPlan(tail_tolerance=1e-20))
    assert not mc.result.converged and mc.result.error_bound == math.inf
    assert abs(mc.result.value - 1.0) <= 1e-12
    assert mc.result.terms_used < 1100


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


# ---------------------------------------------------------------------------
# per-window reference for the shell-mode density
# ---------------------------------------------------------------------------
#
# Each shell-mode density used to sum its own window [lo, v + 1] of shells,
# and every caller formed every density on its own.  The shell table shares
# one accumulation among the windows that start together; these copies of
# the per-window code are the oracle it must match bit for bit.

_TOL = ShellSumPlan.tail_tolerance


def _density_shell_per_window(law, t, x, lo=N_MIN, tol=_TOL):
    p, g, ct = law.p, law.gamma, law.C * t
    v = valuation(x, p)
    if v == math.inf:
        return integrate_radial(exp_norm_function(ct, g), p, "full", ShellSumPlan(tol))
    v = int(v)
    weight = exp_norm_function(ct, g)
    terms = max(v + 2 - lo, 0)
    log_p = math.log(p)
    log_cut = math.log(745.0 / ct) if ct > 0.0 else math.inf
    acc = CompensatedSum()
    for n in range(lo, v + 2):
        w = weight(norm_float(p, n))
        if w == 0.0 and n * g * log_p > log_cut:
            break
        acc.add(w * shell_char_kernel(p, n, v))
    bound = norm_float(p, lo - 1)
    return EvalResult(acc.value, bound, terms, bound <= tol)


def _shell_mass_per_window(law, t, a_p, tol=_TOL):
    # the mass of |a_p| f_t(a_p x), shell by shell in x; a_p = 1 is mass_check
    p = law.p
    va = int(valuation(a_p, p))
    scale = norm_float(p, -va)
    w_unit = 1.0 - 1.0 / p

    def eval_at_shell(m):
        point = a_p * Fraction(p) ** (-m)
        return _density_shell_per_window(law, t, point, N_MIN - max(m - va, 0), tol)

    f0 = _density_shell_per_window(law, t, Fraction(0), N_MIN, tol)
    acc = CompensatedSum()
    terms = 0
    min_density = f0.value
    min_shell = 0
    eval_bound = 0.0
    n_lo = N_MIN + va
    for m in range(n_lo, va + 1):
        fr = eval_at_shell(m)
        if fr.value < min_density:
            min_density, min_shell = fr.value, m
        acc.add(scale * fr.value * norm_float(p, m) * w_unit)
        eval_bound += scale * fr.error_bound * norm_float(p, m) * w_unit
        terms += 1
    inner_tail = scale * (f0.value + f0.error_bound) * norm_float(p, n_lo - 1)
    prev_term = math.inf
    outer_tail = math.inf
    converged_out = False
    m = va + 1
    while terms < MAX_TERMS:
        fr = eval_at_shell(m)
        if fr.value < min_density:
            min_density, min_shell = fr.value, m
        term = scale * fr.value * norm_float(p, m) * w_unit
        acc.add(term)
        eval_bound += scale * fr.error_bound * norm_float(p, m) * w_unit
        terms += 1
        if abs(term) < tol / 10.0 and abs(term) < prev_term:
            ratio = abs(term) / prev_term if prev_term > 0 else 0.0
            ratio = max(ratio, float(p) ** (-law.gamma))
            if ratio < 1.0:
                outer_tail = abs(term) * ratio / (1.0 - ratio)
                converged_out = True
                break
        prev_term = abs(term) if term != 0.0 else prev_term
        m += 1
    bound = inner_tail + outer_tail + eval_bound if converged_out else math.inf
    converged = converged_out and bound <= 10.0 * tol
    return MassCheck(EvalResult(acc.value, bound, terms, converged), min_density, min_shell)


def _padic_scaled_transform_per_window(f, a_p, y_p, tol):
    law = f.law
    p = law.p
    va = int(valuation(a_p, p))
    scale = norm_float(p, -va)
    vy = valuation(y_p, p)
    top = N_MAX if vy == math.inf else int(vy) + 1
    acc = CompensatedSum()
    f0 = _density_shell_per_window(law, f.t, Fraction(0), N_MIN, tol)
    terms = 0
    for n in range(N_MIN + va, top + 1):
        s = shell_char_kernel(p, n, vy) if vy != math.inf else norm_float(p, n) * (1 - 1 / p)
        if s != 0.0:
            r = _density_shell_per_window(law, f.t, a_p * Fraction(p) ** (-n), N_MIN, tol)
            acc.add(scale * r.value * s)
        terms += 1
    bound = scale * (f0.value + f0.error_bound) * norm_float(p, N_MIN + va - 1)
    return EvalResult(acc.value, bound + 1e-13, terms, True)


def _scale_by_idele_per_window(spec, a, quad, plan, grid_points):
    masses = []
    rf = spec.real_factor
    m_inf = adeles._real_scaled_mass(rf, float(a.real), quad)
    masses.append(adeles.ComponentCheck("inf", m_inf.value, m_inf.error_bound, 1.0, m_inf.converged))
    tol = plan.tail_tolerance
    for p, f in sorted(spec.finite_factors.items()):
        r = _shell_mass_per_window(f.law, f.t, a.component(p), tol).result
        masses.append(adeles.ComponentCheck(str(p), r.value, r.error_bound, 1.0, r.converged))
    fourier = []
    a_inv = a.inverse()
    for y in adeles._fourier_grid(spec, grid_points):
        lhs_parts = [adeles._real_scaled_transform(rf, float(a.real), float(y.real), quad)]
        for p, f in sorted(spec.finite_factors.items()):
            lhs_parts.append(
                _padic_scaled_transform_per_window(f, a.component(p), y.component(p), tol)
            )
        lhs = product_results(lhs_parts)
        rhs = adeles.bs_eval(spec, adeles.scale_point(a_inv, y), "transform").value
        fourier.append(
            adeles.ComponentCheck(repr(y.to_dict()), lhs.value, lhs.error_bound, rhs, lhs.converged)
        )
    return tuple(masses), tuple(fourier)


@st.composite
def _shell_windows(draw):
    lo = draw(st.integers(-80, 5))
    return lo, draw(st.integers(lo - 3, 70))


@given(
    st.sampled_from([2, 3, 5, 7, 101]),
    st.floats(0.05, 4.0),
    # Ct >= 745 makes the weights 0.0 below n = 0, so the early exit fires
    st.one_of(st.floats(1e-3, 50.0), st.floats(745.0, 1e6)),
    _shell_windows(),
)
@settings(max_examples=300, deadline=None)
def test_shell_density_matches_per_window_loop(p, gamma, ct, window):
    # x = p^{-v} on the window [lo, 1 - v]; density() reads the window
    # [N_MIN, 1 - v] and the valuation off x, here of a unit times p^{-v}
    lo, v = window
    law = SemistableLaw(p, gamma, ct)
    got = _ShellTable(law, 1.0).walk(lo, [-v], _TOL)[0]
    ref = _density_shell_per_window(law, 1.0, Fraction(p) ** (-v), lo)
    assert got == ref and repr(got) == repr(ref)
    x = (1 + p) * Fraction(p) ** (-v)
    got, ref = density(law, 1.0, x, "shell"), _density_shell_per_window(law, 1.0, x)
    assert got == ref and repr(got) == repr(ref)


@given(
    st.sampled_from([2, 3, 5, 7, 101]),
    st.floats(0.05, 4.0),
    st.one_of(st.floats(1e-3, 50.0), st.floats(745.0, 1e6)),
    st.lists(
        st.tuples(st.integers(-80, 5), st.lists(st.integers(-83, 75), min_size=1, max_size=4)),
        min_size=2,
        max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_one_shell_table_serves_windows_in_any_order(p, gamma, ct, walks):
    # windows starting below, inside and above what the table holds, so
    # that its lists grow down, grow up and start over
    law = SemistableLaw(p, gamma, ct)
    table = _ShellTable(law, 1.0)
    for lo, vs in walks:
        vs = sorted(vs)
        got = table.walk(lo, vs, _TOL)
        ref = [_density_shell_per_window(law, 1.0, Fraction(p) ** v, lo) for v in vs]
        assert got == ref and repr(got) == repr(ref)


def test_a_window_above_the_table_forms_no_shell_below_it():
    # at gamma = 0.001 the shell integrals of p = 2 pass double range from
    # n = 1025 on, and the weights, 0.0 from n = 1024 on only because p^n
    # saturated, end a window only above n = 9541.  A window starting at
    # 9600 is empty, and the table must not form the shells between its
    # first window and this one
    law = SemistableLaw(2, 0.001, 1.0)
    table = _ShellTable(law, 1.0)
    assert table.walk(N_MIN, [0], _TOL) == [_density_shell_per_window(law, 1.0, Fraction(1))]
    got = table.walk(9600, [9700], _TOL)
    assert got == [_density_shell_per_window(law, 1.0, Fraction(2) ** 9700, 9600)]
    assert got[0].value == 0.0


@given(
    laws,
    st.floats(0.05, 4.0),
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.one_of(st.integers(-3, 3), st.integers(-70, 70)),  # repeats are likely
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_shell_densities_match_density_per_x(law, t, draws):
    p = law.p
    units = (0, 1, -1, p + 1, Fraction(1, p + 1))  # 0 gives x = 0
    xs = [units[i] * Fraction(p) ** v for i, v in draws]  # unsorted, as drawn
    got = shell_densities(law, t, xs)
    want = [density(law, t, x, "shell") for x in xs]
    assert got == want and repr(got) == repr(want)
    assert want == [_density_shell_per_window(law, t, x) for x in xs]


def test_a_padic_density_request_builds_one_shell_table(monkeypatch):
    built = []

    class CountingTable(_ShellTable):
        def __init__(self, law, t):
            built.append((law, t))
            super().__init__(law, t)

    monkeypatch.setattr(semistable, "_ShellTable", CountingTable)
    xs = "1,1/3,9,2/3,1/9,5,1/27,0"
    for method in ("shell", "both"):
        built.clear()
        params = {"p": "3", "gamma": "0.5", "x": xs if method == "shell" else xs[:-2], "method": method}
        code, rep = run_request(CommandRequest("padic-density", params))
        assert code == 0 and len(rep["results"]) > 7
        assert built == [(SemistableLaw(3, 0.5, 1.0), 1.0)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ParameterError as exc:
        return repr(exc)


@pytest.mark.parametrize("gamma", [1.0, 0.01, 0.001])
@pytest.mark.parametrize("v", [80, 89, 90, 91])
def test_shell_density_matches_per_window_loop_past_double_range(gamma, v):
    # near n = v the shell integrals of p = 7919 exceed double range: with
    # gamma = 1 the zero weights end the sum first, with gamma = 0.001 the
    # kernel raises, and both forms must do the same
    law, x = SemistableLaw(7919, gamma, 1.0), Fraction(7919) ** v
    got = _outcome(density, law, 1.0, x, "shell")
    assert got == _outcome(_density_shell_per_window, law, 1.0, x)


_PAPER_MASS_CASES = [
    (p, g, c) for p in (2, 3, 5) for g in (0.5, 1.0, 2.0) for c in (0.5, 1.0, 2.0)
]


@pytest.mark.parametrize("p, gamma, ct", _PAPER_MASS_CASES)
def test_mass_check_matches_per_window_loop(p, gamma, ct):
    law = SemistableLaw(p, gamma, ct)
    got = mass_check(law, 1.0)
    ref = _shell_mass_per_window(law, 1.0, Fraction(1))
    assert got == ref and repr(got) == repr(ref)


def test_mass_check_matches_per_window_loop_off_the_default_plan():
    # a coarser tolerance ends the outer shells sooner
    law = SemistableLaw(3, 0.7, 2.0)
    got = mass_check(law, 1.0, ShellSumPlan(tail_tolerance=1e-9))
    assert got == _shell_mass_per_window(law, 1.0, Fraction(1), 1e-9)


@pytest.mark.parametrize(
    "a_map",
    [{2: Fraction(1, 2)}, {2: Fraction(4), 3: Fraction(1, 9)}],
    ids=["2=1/2", "2=4,3=1/9"],
)
def test_scale_by_idele_matches_per_window_loop(a_map):
    a = Idele(2.0, a_map)
    spec = BruhatSchwartzSpec(
        gaussian_factor(1.0),
        {q: FiniteFactor(SemistableLaw(q, 1.0, 1.0), 1.0) for q in sorted(set(a.support) | {2})},
    )
    quad, plan = QuadratureConfig(), ShellSumPlan()
    rep = scale_by_idele(spec, a, quad, plan, 12)
    masses, fourier = _scale_by_idele_per_window(spec, a, quad, plan, 12)
    assert rep.mass_checks == masses and repr(rep.mass_checks) == repr(masses)
    assert rep.fourier_checks == fourier and repr(rep.fourier_checks) == repr(fourier)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the declared bound covers the omitted inner shells, not the rounding "
    "of the window sum (ROADMAP item 10)",
)
@pytest.mark.parametrize(
    "p, gamma, ct, n", [(5, 2.0, 0.5, 11), (3, 0.5, 1.0, 53), (2, 1.0, 1.0, 17)]
)
def test_outer_shell_density_bound_covers_rounding(p, gamma, ct, n):
    # outer shells of the paper mass checks: x = p^{-n} on the window
    # [N_MIN - n, 1 - n].  For |x|_p large the density is far below the
    # terms p^m it is summed from, so rounding dominates its error.
    mpmath = pytest.importorskip("mpmath")
    got = _ShellTable(SemistableLaw(p, gamma, ct), 1.0).walk(N_MIN - n, [-n], _TOL)[0]
    with mpmath.workdps(60):
        P, g = mpmath.mpf(p), mpmath.mpf(gamma)

        def w(m):
            return mpmath.exp(-ct * P ** (m * g))

        ref = mpmath.fsum(w(m) * P**m * (1 - 1 / P) for m in range(-n - 400, -n + 1))
        ref -= w(1 - n) * P ** (-n)
        assert abs(got.value - ref) <= got.error_bound
