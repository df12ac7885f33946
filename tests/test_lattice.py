"""Wrapped densities on the torus, spectral traces, and the potential identity."""
from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from trace_lab import lattice, real_stable
from trace_lab.core import (
    MAX_TERMS,
    CapabilityError,
    CompensatedSum,
    EvalResult,
    ParameterError,
    ShellSumPlan,
    exp_neg,
)
from trace_lab.lattice import (
    _LATTICE_QUAD,
    _TWO_PI,
    _normalize_point,
    _shells,
    _weight,
    _wrapped_stable_numeric_1d,
    gaussian_law,
    potential_identity,
    spectral_trace,
    stable_law,
    trace_defect,
    wrapped_density,
)
from trace_lab.quadrature import ENVELOPE_CUTOFF, cos_panel, hurwitz_zeta, stretched_exp_tail
from trace_lab.real_stable import (
    StableEnvelope,
    StableSymbol,
    stable_asymptotic_coefficients,
    stable_asymptotic_density,
    stable_density_numeric,
)

COTH_HALF = 2.16395341373865285
A15_TRACE = 1.86574570032432878  # wrapped alpha=1.5 trace at t=1, frozen oracle


def test_wrapped_gaussian_frozen_value():
    for mode in ("spectral", "lattice"):
        r = wrapped_density(gaussian_law(), 1.0, 0.5, mode)
        assert r.value == pytest.approx(0.913579138156116821, abs=1e-14), mode
        assert r.converged


def test_wrapped_cauchy_closed_point():
    # sum_n e^{-|n|} e^{2 pi i n/4} telescopes to (1 - e^{-2})/(1 + e^{-2})
    r = wrapped_density(stable_law(1.0, 1.0), 1.0, 0.25, "spectral")
    assert r.value == pytest.approx(math.tanh(1.0), abs=5e-13)


@given(
    st.sampled_from(["gaussian", "cauchy", "a15"]),
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=30, deadline=None)
def test_wrapped_modes_agree(kind, t, x):
    spec = {"gaussian": gaussian_law(), "cauchy": stable_law(1.0, 1.0), "a15": stable_law(1.5, 1.0)}[
        kind
    ]
    a = wrapped_density(spec, t, x, "spectral")
    b = wrapped_density(spec, t, x, "lattice")
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-10


def test_wrapped_density_product_structure():
    # d = 2 factorizes over coordinates
    two = wrapped_density(gaussian_law(2), 1.0, (0.5, 0.25), "spectral")
    one_a = wrapped_density(gaussian_law(), 1.0, 0.5, "spectral")
    one_b = wrapped_density(gaussian_law(), 1.0, 0.25, "spectral")
    assert two.value == pytest.approx(one_a.value * one_b.value, rel=1e-14)
    lat = wrapped_density(gaussian_law(2), 1.0, (0.5, 0.25), "lattice")
    assert lat.value == pytest.approx(two.value, rel=1e-13)


def test_wrapped_rejects_bad_input():
    with pytest.raises(ParameterError):
        wrapped_density(gaussian_law(), 0.0, 0.5)
    with pytest.raises(CapabilityError):
        wrapped_density(stable_law(1.5, 1.0, d=2), 1.0, (0.1, 0.2), "lattice")


def test_spectral_trace_gaussian_is_theta():
    from trace_lab.real_stable import theta

    for t in (0.25, 1.0, 4.0):
        tr = spectral_trace(gaussian_law(), t)
        assert tr.value == pytest.approx(theta(t).value, abs=1e-14)


def test_trace_identity_gaussian():
    for t in (0.1, 0.5, 1.0, 4.0):
        rep = trace_defect(gaussian_law(), t)
        assert rep.defect <= 1e-10
        assert rep.defect <= rep.combined_bound + 1e-13


def test_trace_identity_cauchy_closed_value():
    rep = trace_defect(stable_law(1.0, 1.0), 1.0)
    # both sides are coth(1/2)
    assert rep.lattice_value.value == pytest.approx(COTH_HALF, abs=1e-10)
    assert rep.spectral_value.value == pytest.approx(COTH_HALF, abs=1e-10)
    assert rep.defect <= 1e-8


def test_trace_identity_alpha_15():
    rep = trace_defect(stable_law(1.5, 1.0), 1.0)
    assert rep.spectral_value.value == pytest.approx(A15_TRACE, abs=1e-12)
    assert rep.lattice_value.value == pytest.approx(A15_TRACE, abs=1e-6)
    assert rep.defect <= 1e-6


def test_potential_identity_values():
    rep = potential_identity(1.5, 1.0)
    assert not rep.diverged
    assert rep.reference == pytest.approx(5.22475069737097669, abs=1e-12)
    assert rep.defect <= 1e-3
    gauss = potential_identity(2.0, math.pi)
    assert gauss.reference == pytest.approx(math.pi / 3.0, abs=1e-15)
    assert gauss.defect <= 1e-6


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_law_is_the_stable_symbol_2_pi(d):
    assert gaussian_law(d) == stable_law(2.0, math.pi, d) == StableSymbol(2.0, math.pi, d)
    assert gaussian_law(d).is_gaussian
    assert not stable_law(2.0, 1.0, d).is_gaussian
    assert not stable_law(1.5, math.pi, d).is_gaussian


def test_laws_above_d_3_are_refused():
    for build in (lambda: gaussian_law(4), lambda: stable_law(1.5, 1.0, 4)):
        with pytest.raises(ParameterError, match="d <= 3"):
            build()


def test_potential_identity_reference_at_the_gaussian_is_pi_over_3():
    assert potential_identity(2.0, math.pi).reference == math.pi / 3.0
    # any other sigma keeps 2 zeta(2) / sigma
    assert potential_identity(2.0, 3.0).reference == 2.0 * hurwitz_zeta(2.0, 1.0) / 3.0


def test_potential_identity_divergence_boundary():
    assert potential_identity(0.8, 1.0).diverged
    assert potential_identity(1.0, 1.0).diverged
    assert not potential_identity(1.01, 1.0).diverged
    with pytest.raises(ParameterError):
        potential_identity(2.5, 1.0)


def test_heat_equation_finite_difference_order():
    # d_t f = (1/4pi) d_x^2 f for the self-dual gaussian and its wrapping
    def residual(f, t, x, h):
        dt = (f(t + h, x) - f(t - h, x)) / (2.0 * h)
        dxx = (f(t, x + h) - 2.0 * f(t, x) + f(t, x - h)) / (h * h)
        return abs(dt - dxx / (4.0 * math.pi))

    from trace_lab.real_stable import gaussian_density

    wrap = lambda t, x: wrapped_density(gaussian_law(), t, x, "spectral").value
    for f in (gaussian_density, wrap):
        r1 = residual(f, 0.8, 0.35, 1e-2)
        r2 = residual(f, 0.8, 0.35, 5e-3)
        assert math.log2(r1 / r2) >= 1.8


# ---------------------------------------------------------------------------
# per-point reference for the spectral sum
# ---------------------------------------------------------------------------


def _supnorm_shell(d, m):
    """Integer points with sup-norm exactly m."""
    if m == 0:
        yield (0,) * d
        return
    if d == 1:
        yield (m,)
        yield (-m,)
    elif d == 2:
        for i in range(-m, m + 1):
            yield (i, -m)
            yield (i, m)
        for j in range(-m + 1, m):
            yield (-m, j)
            yield (m, j)
    else:
        for i in range(-m, m + 1):
            for j in range(-m, m + 1):
                yield (i, j, -m)
                yield (i, j, m)
        for i in range(-m, m + 1):
            for k in range(-m + 1, m):
                yield (i, -m, k)
                yield (i, m, k)
        for j in range(-m + 1, m):
            for k in range(-m + 1, m):
                yield (-m, j, k)
                yield (m, j, k)


def _shell_tail_bound(d, c, alpha, m_next):
    """The shell-sum tail bound with its integral always formed.

    Every point of sup-norm m has Euclidean norm >= m, and there are at
    most 2 d 3^{d-1} m^{d-1} of them; the m-sum is bounded by its first
    term plus the integral once u^{d-1} e^{-c u^alpha} decreases.
    """
    w = c * m_next**alpha
    first = m_next ** (d - 1) * (math.exp(-w) if w < 745.0 else 0.0)
    return 2.0 * d * 3.0 ** (d - 1) * (first + stretched_exp_tail(d, c, alpha, m_next))


def _spectral_sum_per_point(spec, t, x, plan=ShellSumPlan()):
    """sum_n e^{-t eta(n)} [cos(2 pi n.x)], one math.exp per lattice point."""
    c = t * spec.sigma
    alpha = spec.alpha
    d = spec.d
    acc = CompensatedSum()
    points = 0
    m = 0
    while points <= MAX_TERMS:
        shell = 0.0
        for n in _supnorm_shell(d, m):
            w = t * spec.eta(n)
            e = math.exp(-w) if w < 745.0 else 0.0
            if x is not None and e != 0.0:
                e *= math.cos(_TWO_PI * sum(ni * xi for ni, xi in zip(n, x)))
            shell += e
            points += 1
        acc.add(shell)
        m += 1
        if c * alpha * float(m) ** alpha >= d:
            tail = _shell_tail_bound(d, c, alpha, float(m))
            if tail < plan.tail_tolerance:
                return EvalResult(acc.value, tail, points, True)
    return EvalResult(acc.value, math.inf, points, False)


_X_GRID = (None, 0, 0.5, (0.1, 0.2, 0.3), (0.3, 0, 0))
_SPECTRAL_GRID = (
    [(gaussian_law(d), t, _X_GRID) for d in (1, 2, 3) for t in (0.005, 0.03, 0.7)]
    + [(stable_law(a, 1.0), 0.7, _X_GRID) for a in (0.5, 1.0, 1.5, 1.9)]
    # about 5,500 shells, all summed by one CompensatedSum.extend call
    + [(stable_law(1.0, 1.0), 0.005, (None, 0.3))]
)


@pytest.mark.parametrize(
    "spec, t, xs",
    _SPECTRAL_GRID,
    ids=[f"{'gaussian' if s.is_gaussian else 'stable'}-a{s.alpha}-d{s.d}-t{t}" for s, t, _ in _SPECTRAL_GRID],
)
def test_spectral_sum_matches_per_point_loop(spec, t, xs):
    # d = 3, t = 0.005 stops at MAX_TERMS unconverged; the rest converge
    for x in xs:
        if x is None:
            got = spectral_trace(spec, t)
        else:
            x = (x,) * spec.d if isinstance(x, (int, float)) else x[: spec.d]
            got = wrapped_density(spec, t, x, "spectral")
        ref = _spectral_sum_per_point(spec, t, None if x is None else _normalize_point(x, spec.d))
        # repr also tells np.float64 and np.bool_ from float and bool
        assert got == ref and repr(got) == repr(ref), x


@pytest.mark.parametrize("d", [1, 2, 3])
def test_spectral_error_bound_is_a_python_float(d):
    for got in (
        spectral_trace(gaussian_law(d), 0.7),
        wrapped_density(gaussian_law(d), 0.03, (0.1, 0.2, 0.3)[:d], "spectral"),
    ):
        assert got.converged
        assert type(got.error_bound) is float


@pytest.mark.parametrize("d, bound", [(2, 224), (3, 31)])
def test_hypot_is_sqrt_of_square_sum(d, bound):
    # the spectral sum evaluates eta at math.sqrt(|n|^2) where the
    # per-point loop used math.hypot(*n); the two must agree bit for bit
    # on every point a sum reaches.  A shell m is started while the
    # (2m-1)^d points inside it number at most MAX_TERMS.
    reach = max(m for m in range(1, bound + 2) if (2 * m - 1) ** d <= MAX_TERMS)
    assert reach <= bound
    # hypot takes absolute values, so nonnegative ordered tuples cover all signs
    bad = [
        n
        for n in itertools.product(range(bound + 1), repeat=d)
        if math.hypot(*n) != math.sqrt(sum(v * v for v in n))
    ]
    assert bad == []


# ---------------------------------------------------------------------------
# per-shell reference for the d >= 2 weights
# ---------------------------------------------------------------------------


def _shell_coords(d: int, m: int) -> list[np.ndarray]:
    """Coordinates of the points with sup-norm exactly m >= 1, for d >= 2.

    For each face coordinate f, from the last to the first, the points
    come with the coordinates before f in [-m, m] and those after f in
    [-m+1, m-1], nested in coordinate order, and n_f = -m, m varying
    fastest.
    """
    full = np.arange(-m, m + 1, dtype=np.int64)
    inner = full[1:-1]
    faces = []
    for f in reversed(range(d)):
        grid = list(np.meshgrid(*([full] * f + [inner] * (d - 1 - f)), full[[0, -1]], indexing="ij"))
        faces.append(grid[:f] + grid[-1:] + grid[f:-1])
    return [np.concatenate([face[i].ravel() for face in faces]) for i in range(d)]


def _spectral_sum_per_shell(spec, t, x, plan=ShellSumPlan()):
    """The d >= 2 spectral sum with one np.unique of |n|^2 and its weights
    per shell, rather than one weight table per call."""
    c = t * spec.sigma
    alpha = spec.alpha
    d = spec.d
    points = 0
    shells = 0
    while points <= MAX_TERMS:
        points += (2 * shells + 1) ** d - (2 * shells - 1) ** d if shells else 1
        shells += 1
        if c * alpha * float(shells) ** alpha >= d:
            tail = _shell_tail_bound(d, c, alpha, float(shells))
            if tail < plan.tail_tolerance:
                break
    else:
        tail = math.inf
    acc = CompensatedSum()
    acc.add(_weight(spec, t, 0))
    for m in range(1, shells):
        coords = _shell_coords(d, m)
        k = sum(ci * ci for ci in coords)
        ks, inverse = np.unique(k, return_inverse=True)
        e = np.array([_weight(spec, t, kk) for kk in ks.tolist()])[inverse].reshape(k.shape)
        if x is not None:
            phase = sum(ci * xi for ci, xi in zip(coords, x))
            live = e != 0.0
            e[live] *= np.cos(_TWO_PI * phase[live])
        acc.add(float(np.add.accumulate(e)[-1]))
    return EvalResult(acc.value, tail, points, math.isfinite(tail))


@pytest.mark.parametrize("d", [2, 3])
def test_weight_table_matches_per_shell_weights(d):
    # t = 1e-4 stops at MAX_TERMS: about 224 shells at d = 2, 29 at d = 3
    t = 1e-4
    for x in (None, (0.1, 0.2, 0.3)[:d]):
        got = spectral_trace(gaussian_law(d), t) if x is None else wrapped_density(gaussian_law(d), t, x)
        ref = _spectral_sum_per_shell(gaussian_law(d), t, x)
        assert not got.converged
        assert got == ref and repr(got) == repr(ref), x


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("x", [None, (0.0, 0.0, 0.0), (0.1, 0.2, 0.3), (0.3, 0.0, 0.7)])
def test_shells_match_meshgrid_coordinates(d, x):
    # k from outer sums of squares, and the phase by broadcasting, against
    # the meshgrid coordinates: same point order, phase bit for bit
    x = None if x is None else x[:d]
    shells = list(_shells(d, 35, x))
    assert len(shells) == 34
    for m, (k, phase) in enumerate(shells, start=1):
        coords = _shell_coords(d, m)
        ref_k = sum(ci * ci for ci in coords)
        assert k.dtype == ref_k.dtype and np.array_equal(k, ref_k), m
        if x is None:
            assert phase is None
            continue
        ref_phase = coords[0] * x[0]
        for ci, xi in zip(coords[1:], x[1:]):
            ref_phase = ref_phase + ci * xi
        assert phase.dtype == ref_phase.dtype, m
        assert np.array_equal(phase.view(np.int64), ref_phase.view(np.int64)), m


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zero_point_sums_as_the_trace(d):
    # cos(0) = 1 and e * 1.0 = e, so x = 0 is summed without a phase
    for t in (0.005, 0.03, 0.7):
        got = wrapped_density(gaussian_law(d), t, (0.0,) * d, "spectral")
        ref = spectral_trace(gaussian_law(d), t)
        assert got == ref and repr(got) == repr(ref), t


# ---------------------------------------------------------------------------
# per-point reference for the stable lattice sum
# ---------------------------------------------------------------------------


def _wrapped_stable_per_point(symbol, t, x0, quad, direct_radius=32, k_max=6):
    """The stable lattice sum with one quadrature per lattice point n."""
    alpha = symbol.alpha
    acc = CompensatedSum()
    bound = 0.0
    neval = 0
    for n in range(-direct_radius, direct_radius + 1):
        r = stable_density_numeric(symbol, t, abs(x0 + n), quad)
        acc.add(r.value)
        bound += r.error_bound
        neval += r.terms_used
    coeffs = stable_asymptotic_coefficients(symbol, t, k_max + 1)
    q_right = direct_radius + 1 + x0
    q_left = direct_radius + 1 - x0
    for q in (q_right, q_left):
        tail = sum(
            ck * hurwitz_zeta(alpha * k + 1.0, q)
            for k, ck in enumerate(coeffs[:-1], start=1)
        )
        acc.add(tail / math.pi)
    q_min = min(q_right, q_left)
    next_order = abs(coeffs[-1]) * hurwitz_zeta(alpha * (k_max + 1) + 1.0, q_min) / math.pi
    asym, _ = stable_asymptotic_density(symbol, t, q_min, k_max)
    probe = stable_density_numeric(symbol, t, q_min, quad)
    mismatch = abs(asym - probe.value) + probe.error_bound
    cal = mismatch * hurwitz_zeta(alpha + 1.0, q_min) * q_min ** (alpha + 1.0)
    bound += 2.0 * (next_order + cal)
    return EvalResult(acc.value, bound, neval, bound < math.inf)


@pytest.mark.parametrize("alpha", [0.5, 1.2, 1.5, 1.9])
@pytest.mark.parametrize("t", [0.1, 1.0])
def test_stable_lattice_sum_matches_per_point_loop(alpha, t):
    symbol = stable_law(alpha, 1.0)
    for x0 in (0.0, 0.25, 0.5, 1.0 / 3.0, 0.7):
        got = _wrapped_stable_numeric_1d(symbol, t, x0)
        ref = _wrapped_stable_per_point(symbol, t, x0, _LATTICE_QUAD)
        # terms_used counts only the quadratures run, so it may differ
        for field in ("value", "error_bound", "converged"):
            a, b = getattr(got, field), getattr(ref, field)
            assert a == b and repr(a) == repr(b), (x0, field)


@pytest.mark.parametrize("x0, calls", [(0.0, 33 + 1), (0.3, 65 + 1)])
def test_stable_lattice_sum_runs_one_quadrature_per_distinct_point(monkeypatch, x0, calls):
    # at x0 = 0 the points n and -n share |x0 + n|; the +1 is the tail probe
    seen = []

    def counting(symbol, t, x, quad, envelope=None):
        seen.append(x)
        return stable_density_numeric(symbol, t, x, quad, envelope)

    monkeypatch.setattr(lattice, "stable_density_numeric", counting)
    got = wrapped_density(stable_law(1.5, 1.0), 1.0, x0, "lattice")
    assert len(seen) == calls
    assert len(set(seen)) == calls
    assert got.converged


def _stable_density_plain(symbol, t, x, quad):
    """stable_density_numeric with its envelope as a plain function, one
    evaluation per QUADPACK node."""
    a = t * symbol.sigma
    alpha = symbol.alpha
    cut = (math.log(1.0 / ENVELOPE_CUTOFF) / a) ** (1.0 / alpha)
    v, e, neval, _ = cos_panel(lambda y: exp_neg(a * y**alpha), cut, abs(float(x)), quad)
    bound = 2.0 * (e + stretched_exp_tail(1, a, alpha, cut))
    return EvalResult(2.0 * v, bound, neval, bound <= quad.abs_tol)


@given(
    st.floats(min_value=0.3, max_value=1.99),
    st.floats(min_value=0.05, max_value=4.0),
    st.lists(st.floats(min_value=0.0, max_value=40.0), min_size=1, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_shared_envelope_gives_the_fresh_result(alpha, t, xs):
    # an envelope only remembers e^{-a y^alpha} at the nodes it has seen
    symbol = stable_law(alpha, 1.0)
    envelope = StableEnvelope(symbol, t)
    for x in xs:
        shared = stable_density_numeric(symbol, t, x, _LATTICE_QUAD, envelope)
        fresh = stable_density_numeric(symbol, t, x, _LATTICE_QUAD)
        plain = _stable_density_plain(symbol, t, x, _LATTICE_QUAD)
        assert repr(shared) == repr(fresh) == repr(plain), x


def test_stable_lattice_sum_evaluates_each_node_once(monkeypatch):
    # QUADPACK visits the same nodes for each of the sum's 34 quadratures;
    # about 1,550 of them are distinct, against about 30,900 visits
    calls = []
    def counting(w):
        calls.append(w)
        return exp_neg(w)

    monkeypatch.setattr(real_stable, "exp_neg", counting)
    got = wrapped_density(stable_law(0.5, 1.0), 1.0, 0.0, "lattice")
    assert got.converged
    assert len(calls) <= 2000


# ---------------------------------------------------------------------------
# array forms against the scalar forms they replace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.2, 1.5, 1.9, 2.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_weights_match_the_scalar_weight(alpha, d):
    sym = StableSymbol(alpha, math.pi if alpha == 2.0 else 1.0, d)
    ks = np.arange(d * 40**2 + 1)
    # the last t puts w = t eta(sqrt(k)) at about 745.1 mid-range, so some
    # weights lie just above the cut at 745 and some just below
    edge = 745.1 / sym.eta(math.sqrt(ks[ks.size // 2]))
    for t in (1e-4, 0.7, edge):
        w = [t * sym.eta(math.sqrt(k)) for k in ks.tolist()]
        if t == edge:
            assert any(745.0 <= v < 745.2 for v in w) and any(v < 745.0 for v in w)
        ref = np.array([_weight(sym, t, k) for k in ks.tolist()])
        got = lattice._weights(sym, t, ks)
        assert got.dtype == ref.dtype and np.array_equal(got.view(np.int64), ref.view(np.int64)), t


def _tail_search_unscreened(sym, t, plan=ShellSumPlan()):
    """(points, tail) of the shell search with one scipy tail bound per shell."""
    c = t * sym.sigma
    alpha = sym.alpha
    d = sym.d
    points = 0
    shells = 0
    while points <= MAX_TERMS:
        points += (2 * shells + 1) ** d - (2 * shells - 1) ** d if shells else 1
        shells += 1
        if c * alpha * float(shells) ** alpha >= d:
            tail = _shell_tail_bound(d, c, alpha, float(shells))
            if tail < plan.tail_tolerance:
                return points, tail
    return points, math.inf


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha, sigma", [(0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (2.0, math.pi)])
def test_screened_tail_search_matches_the_unscreened_loop(d, alpha, sigma):
    # the d = 3 gaussian stops at MAX_TERMS for t <= 0.01; at d = 1 and
    # alpha = 0.5 small t costs the unscreened loop some 10^5 scipy calls
    sym = StableSymbol(alpha, sigma, d)
    ts = (0.3, 2.0) if (d, alpha) == (1, 0.5) else (0.002, 0.005, 0.01, 0.05, 0.3, 2.0)
    for t in ts:
        got = spectral_trace(sym, t)
        points, tail = _tail_search_unscreened(sym, t)
        assert (got.terms_used, repr(got.error_bound), got.converged) == (points, repr(tail), math.isfinite(tail)), t
    if (d, alpha) == (3, 2.0):
        assert not spectral_trace(sym, 0.01).converged


def _wrapped_cauchy_1d_list(c, x0, cutoff=4000):
    # the list form, one scalar _cauchy_g per term
    acc = CompensatedSum()
    acc.add(lattice._cauchy_g(c, x0))
    acc.extend([lattice._cauchy_g(c, x0 + n) + lattice._cauchy_g(c, x0 - n) for n in range(1, cutoff + 1)])
    bound = 0.0
    for m in (cutoff + 0.5 + x0, cutoff + 0.5 - x0):
        val, err = lattice._cauchy_tail(c, m)
        acc.add(val)
        bound += err
    return EvalResult(acc.value, bound, 2 * cutoff + 1, True)


@pytest.mark.parametrize("c", [0.05, 1.0, _TWO_PI, 30.0])
def test_wrapped_cauchy_matches_the_list_form(c):
    for x0 in (0.0, 0.25, 0.5, 0.9):
        got = lattice._wrapped_cauchy_1d(c, x0)
        ref = _wrapped_cauchy_1d_list(c, x0)
        assert got == ref and repr(got) == repr(ref), x0


def _potential_sum_list(alpha, sigma):
    # the list form of the truncated zeta sum, one ** per n
    cutoff = 20_000
    acc = CompensatedSum()
    acc.extend([float(n) ** (-alpha) for n in range(1, cutoff + 1)])
    nf = float(cutoff)
    tail = nf ** (1.0 - alpha) / (alpha - 1.0) - 0.5 * nf ** (-alpha)
    tail += alpha / 12.0 * nf ** (-alpha - 1.0)
    err = alpha * (alpha + 1.0) * (alpha + 2.0) / 720.0 * nf ** (-alpha - 3.0)
    acc.add(tail)
    return EvalResult(2.0 * acc.value / sigma, 2.0 * err / sigma, cutoff, True)


@pytest.mark.parametrize("alpha", [1.01, 1.2, 1.5, 1.9, 2.0])
def test_potential_identity_matches_the_list_form(alpha):
    for sigma in (1.0, math.pi):
        got = potential_identity(alpha, sigma).value
        ref = _potential_sum_list(alpha, sigma)
        assert got == ref and repr(got) == repr(ref), sigma
