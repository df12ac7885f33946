"""Restricted products: adele points, ideles, characters, and global checks."""
from __future__ import annotations

import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trace_lab import adeles, core, padic, quadrature, real_stable
from trace_lab.adeles import (
    AdelePoint,
    BruhatSchwartzSpec,
    FiniteFactor,
    Idele,
    adele_char,
    adelic_theta_reduction,
    bs_eval,
    gaussian_factor,
    idele_norm,
    make_mu_spec,
    rational_char_sum,
    scale_by_idele,
    scale_point,
    stable_factor,
)
from trace_lab.cli import CommandRequest, ResultRow, main, run_request
from trace_lab.core import (
    CompensatedSum,
    ParameterError,
    QuadratureConfig,
    ShellSumPlan,
    format_rational,
)
from trace_lab.core import is_prime
from trace_lab.padic import padic_norm, prime_support, rational_float
from trace_lab.semistable import SemistableLaw

rationals = st.fractions(
    min_value=Fraction(-200), max_value=Fraction(200), max_denominator=200
)
nonzero = rationals.filter(lambda q: q != 0)


# ---------------------------------------------------------------------------
# points and ideles
# ---------------------------------------------------------------------------


def test_adele_point_fill_semantics():
    # fill 1/3 is a unit away from 3, so it may stand in everywhere else,
    # but p = 3 itself must be listed explicitly
    x = AdelePoint(0.5, {2: Fraction(3), 3: Fraction(1, 3)}, fill=Fraction(1, 3))
    assert x.component(2) == 3
    assert x.component(5) == Fraction(1, 3)
    assert x.component(99991) == Fraction(1, 3)
    with pytest.raises(ParameterError):
        AdelePoint(0.5, {2: Fraction(3)}, fill=Fraction(1, 3))


def test_adele_point_default_is_zero():
    x = AdelePoint(1.25)
    assert x.component(2) == 0
    assert x.support == ()


def test_idele_rejects_zero_components():
    with pytest.raises(ParameterError):
        Idele(0.0)
    with pytest.raises(ParameterError):
        Idele(1.0, {2: Fraction(0)})
    with pytest.raises(ParameterError):
        # implicit components must be p-adic units: fill 2 needs 2 explicit
        Idele(1.0, {3: Fraction(1)}, fill=Fraction(2))
    Idele(1.0, {2: Fraction(2)}, fill=Fraction(2))  # fine once explicit


def _check_fill_by_full_factorization(fill, support, deny_numerator):
    """The fill check as a loop over every prime of fill: the oracle."""
    for p in prime_support(fill):
        if p not in support:
            if deny_numerator or fill.denominator % p == 0:
                raise ParameterError(
                    f"fill {format_rational(fill)} is not allowed implicitly at p={p}"
                )


def _fill_error(check, fill, support, deny_numerator):
    try:
        check(fill, support, deny_numerator)
    except ParameterError as exc:
        return str(exc)
    return None


@settings(max_examples=300)
@given(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    st.sets(st.sampled_from([2, 3, 5, 7, 11, 13, 997])),
    st.booleans(),
)
def test_check_fill_matches_full_factorization(fill, support, deny_numerator):
    support = tuple(sorted(support))
    assert _fill_error(adeles._check_fill, fill, support, deny_numerator) == _fill_error(
        _check_fill_by_full_factorization, fill, support, deny_numerator
    )


def test_diagonal_factors_q_once(monkeypatch):
    calls = []

    def counting_prime_support(q):
        calls.append(q)
        return prime_support(q)

    monkeypatch.setattr(adeles, "prime_support", counting_prime_support)
    for q in (Fraction(1), Fraction(-1), Fraction(-50, 3), Fraction(2**20 * 999983, 7**5)):
        for diagonal in (Idele.diagonal, AdelePoint.diagonal):
            calls.clear()
            x = diagonal(q)
            assert calls == [q]
            assert all(x.component(p) == q for p in (2, 3, 5, 7, 101))
    calls.clear()
    AdelePoint.diagonal(0)
    assert calls == [0]


# primes below and above 1000; at most one of the large ones enters a q,
# so prime_support proves it with is_prime after a short walk
_DIAGONAL_PRIMES = [2, 3, 5, 7, 97, 991, 997, 1009, 1013, 7919, 19997]
_LARGE_PRIMES = [104729, 999983, 10**18 + 3, 2**61 - 1]


@st.composite
def diagonal_rationals(draw):
    def part():
        primes = draw(st.dictionaries(st.sampled_from(_DIAGONAL_PRIMES), st.integers(1, 4), max_size=4))
        return math.prod(p**e for p, e in primes.items())
    num, den = part(), part()
    big = draw(st.sampled_from([1] + _LARGE_PRIMES))
    if draw(st.booleans()):
        num *= big
    else:
        den *= big
    return Fraction(draw(st.sampled_from((-1, 1))) * num, den)


@settings(max_examples=200, deadline=None)
@given(diagonal_rationals())
@example(Fraction(1))
@example(Fraction(-1))
def test_diagonal_equals_the_checked_constructor(q):
    for cls in (Idele, AdelePoint):
        got = cls.diagonal(q)
        want = cls(q, {p: q for p in prime_support(q)}, fill=q)
        assert got == want
        assert repr(got) == repr(want)
        assert type(got) is cls
        assert type(got.real) is type(want.real) is Fraction
        assert type(got.finite) is type(want.finite) is dict
        assert all(type(v) is Fraction for v in got.finite.values())
        assert type(got.fill) is Fraction


def test_diagonal_of_zero():
    got = AdelePoint.diagonal(0)
    want = AdelePoint(Fraction(0), {}, fill=Fraction(0))
    assert got == want and repr(got) == repr(want)
    assert type(got.real) is type(got.fill) is Fraction
    with pytest.raises(ParameterError):
        Idele.diagonal(0)


def test_diagonal_proves_no_prime_below_1000_again(monkeypatch):
    checked = []

    def counting_is_prime(n):
        checked.append(n)
        return is_prime(n)

    monkeypatch.setattr(core, "is_prime", counting_is_prime)
    monkeypatch.setattr(padic, "is_prime", counting_is_prime)
    for q in (Fraction(-50, 3), Fraction(2**20 * 997**3, 3 * 991), Fraction(1, 997 * 991 * 983)):
        for diagonal in (Idele.diagonal, AdelePoint.diagonal):
            assert diagonal(q).support == prime_support(q)
    assert checked == []


def _rr_product_row_oracle(count: int, seed: int) -> ResultRow:
    """The rr-check product loop as it was, with the checked constructor:
    the oracle."""
    rng = random.Random(seed)
    worst = Fraction(0)
    all_exact = True
    for _ in range(count):
        num = rng.randint(1, 10**6) * rng.choice((-1, 1))
        den = rng.randint(1, 10**6)
        q = Fraction(num, den)
        norm = idele_norm(Idele(q, {p: q for p in prime_support(q)}, fill=q))
        all_exact = all_exact and norm == 1
        worst = max(worst, abs(norm - 1))
    return ResultRow(
        "product_formula_max_defect",
        float(worst),
        reference=0.0,
        defect=float(worst),
        passed=bool(all_exact),
        tolerance=0.0,
    )


@pytest.mark.parametrize("count, seed", [(1, 0), (37, 7), (200, 1), (500, 12345)])
def test_rr_product_row_matches_the_checked_loop(count, seed):
    code, report = run_request(
        CommandRequest("rr-check", {"parts": "product", "count": str(count), "seed": str(seed)})
    )
    assert code == 0
    assert report["results"] == [_rr_product_row_oracle(count, seed).to_dict()]


@given(nonzero)
def test_diagonal_idele_norm_is_one(q):
    assert idele_norm(Idele.diagonal(q)) == 1


def _idele_norm_by_fractions(a: Idele) -> float | Fraction:
    """idele_norm as a product of checked Fraction norms, prime by prime:
    the oracle."""
    finite = Fraction(1)
    for p in a.support:
        finite *= padic_norm(a.finite[p], p).as_fraction()
    if isinstance(a.real, Fraction):
        return abs(a.real) * finite
    return abs(float(a.real)) * rational_float(finite)


_NORM_PRIMES = [p for p in range(1000) if is_prime(p)]


@st.composite
def _ideles(draw):
    comps = {}
    for p in draw(st.lists(st.sampled_from(_NORM_PRIMES), max_size=6, unique=True)):
        num = draw(st.integers(-10**4, 10**4).filter(lambda n: n != 0))
        unit = Fraction(num, draw(st.integers(1, 10**4)))
        comps[p] = unit * Fraction(p) ** draw(st.integers(-40, 40))
    real = draw(
        st.one_of(
            nonzero,
            st.floats(min_value=-1e300, max_value=1e300, allow_nan=False).filter(lambda x: x != 0),
        )
    )
    return Idele(real, comps)


@settings(max_examples=300)
@given(_ideles())
@example(Idele(Fraction(1), {2: Fraction(1, 2**1100)}))
@example(Idele(Fraction(3, 2**1100), {2: Fraction(2**1100), 3: Fraction(9, 2)}))
@example(Idele(1.5, {2: Fraction(1, 2**1100)}))
@example(Idele(-0.25, {2: Fraction(2**1100), 5: Fraction(1, 5)}))
@example(Idele(2.0**-1000, {2: Fraction(2**1100)}))
def test_idele_norm_matches_the_fraction_oracle(a):
    got, want = idele_norm(a), _idele_norm_by_fractions(a)
    assert got == want
    assert type(got) is type(want)


@given(nonzero, nonzero)
def test_idele_norm_multiplicative(a, b):
    x, y = Idele.diagonal(a), Idele(float(b))
    # |xy| = |x| |y| with the finite part of y trivial
    assert idele_norm(x * y) == pytest.approx(abs(float(b)), rel=1e-12)
    assert idele_norm(x) * idele_norm(y) == pytest.approx(abs(float(b)), rel=1e-12)


def test_idele_inverse():
    a = Idele(2.0, {2: Fraction(1, 2), 5: Fraction(10)})
    inv = a.inverse()
    prod = a * inv
    assert prod.real == 1.0
    assert prod.component(2) == 1 and prod.component(5) == 1
    assert idele_norm(prod) == 1


def test_point_serialization_round_trip():
    x = AdelePoint(0.5, {2: Fraction(3, 4), 7: Fraction(2)}, fill=Fraction(1, 2))
    assert AdelePoint.from_dict(x.to_dict()) == x
    a = Idele(2.5, {3: Fraction(1, 3)})
    assert Idele.from_dict(a.to_dict()) == a


@pytest.mark.parametrize("cls", [AdelePoint, Idele])
@pytest.mark.parametrize("keys", [("2", "02"), ("3", "+3"), ("7", " 7")])
def test_from_dict_refuses_two_keys_for_one_place(cls, keys):
    # the later component would silently replace the earlier one
    data = {"inf": "2", keys[0]: "1/2", keys[1]: "4"}
    with pytest.raises(ParameterError, match="given twice"):
        cls.from_dict(data)


def test_scale_point_componentwise():
    a = Idele(2.0, {2: Fraction(4)})
    x = AdelePoint(0.5, {2: Fraction(1, 2), 3: Fraction(3)})
    y = scale_point(a, x)
    assert y.real == 1.0
    assert y.component(2) == 2
    assert y.component(3) == 3


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


@given(nonzero, nonzero)
@settings(max_examples=60)
def test_char_trivial_on_diagonal(q, r):
    # the global character is 1 on Q x Q: the product formula for frac parts
    val = adele_char(AdelePoint.diagonal(q), AdelePoint.diagonal(r))
    assert abs(val - 1.0) < 1e-12


def test_char_mixed_point_example():
    # y diagonal 1, x = (0; 1/2 at 2): only the 2-adic factor fires, giving -1
    y = AdelePoint.diagonal(Fraction(1))
    x = AdelePoint(0.0, {2: Fraction(1, 2)})
    assert abs(adele_char(y, x) - (-1.0)) < 1e-14


@given(nonzero)
def test_char_modulus_one(q):
    x = AdelePoint(0.7, {2: Fraction(1, 8), 3: Fraction(5, 9)})
    assert abs(abs(adele_char(AdelePoint.diagonal(q), x)) - 1.0) < 1e-13


# ---------------------------------------------------------------------------
# Bruhat-Schwartz evaluation
# ---------------------------------------------------------------------------


def test_bs_eval_indicator_outside_unit_ball():
    spec = BruhatSchwartzSpec(gaussian_factor(1.0), {})
    inside = bs_eval(spec, AdelePoint.diagonal(Fraction(2)), "density")
    outside = bs_eval(spec, AdelePoint.diagonal(Fraction(1, 2)), "density")
    assert inside.value > 0
    assert outside.value == 0.0  # |1/2|_2 = 2 breaks the gamma_2 indicator


def test_bs_eval_product_structure():
    spec = make_mu_spec(2.0, math.pi, 1.0, 1.0, 1.0, [2])
    x = AdelePoint(0.5, {2: Fraction(4)})
    got = bs_eval(spec, x, "density")
    from trace_lab.real_stable import gaussian_density
    from trace_lab.semistable import density as ss_density

    want = gaussian_density(1.0, 0.5) * ss_density(SemistableLaw(2, 1.0, 1.0), 1.0, Fraction(4)).value
    assert got.value == pytest.approx(want, rel=1e-12)


def test_bs_eval_transform_side():
    spec = make_mu_spec(2.0, math.pi, 1.0, 1.0, 1.0, [2])
    y = AdelePoint(0.5, {2: Fraction(1, 2)})
    got = bs_eval(spec, y, "transform")
    want = math.exp(-math.pi * 0.25) * math.exp(-2.0)  # e^{-t pi y^2} * e^{-Ct |y|_2}
    assert got.value == pytest.approx(want, rel=1e-12)


def test_bs_eval_checks_the_indicators_before_any_factor(monkeypatch):
    # off S every factor is the indicator of Z_p: a point with v_3 < 0 is 0
    # on both sides, and no factor (here a numeric real density) is evaluated
    spec = make_mu_spec(1.5, 1.0, 1.0, 1.0, 1.0, [2])
    x = AdelePoint(0.5, {2: Fraction(4), 3: Fraction(1, 3)})

    def evaluated(*args, **kwargs):
        raise AssertionError("a factor was evaluated")

    for cls in (adeles.RealFactor, adeles.FiniteFactor):
        monkeypatch.setattr(cls, "density", evaluated)
        monkeypatch.setattr(cls, "transform", evaluated)
    for side in ("density", "transform"):
        got = bs_eval(spec, x, side)
        assert (got.value, got.error_bound, got.terms_used, got.converged) == (0.0, 0.0, 1, True)
    with pytest.raises(ParameterError):
        bs_eval(spec, x, "char")


# ---------------------------------------------------------------------------
# the S-arithmetic set D
# ---------------------------------------------------------------------------


def _d_fractions(S, height):
    """The members of D up to `height`, from _d_members, as fractions."""
    b, _, a, row, _ = adeles._d_members(S, height)
    return [Fraction(n, d) for n, d in zip(a.tolist(), b[row].tolist())]


def _s_smooth(r, S):
    """The denominator of r is S-smooth: dividing out the primes of S leaves 1."""
    b = Fraction(r).denominator
    for p in S:
        while b % p == 0:
            b //= p
    return b == 1


def _height(r):
    return max(abs(r.numerator), r.denominator)


def test_enumerate_d_small():
    rs = _d_fractions([2], 2)
    assert [str(r) for r in rs] == ["-1", "0", "1", "-2", "-1/2", "1/2", "2"]
    for r in rs:
        assert _s_smooth(r, [2])
        assert _height(r) <= 2
    assert not _s_smooth(Fraction(1, 3), [2])
    assert _s_smooth(Fraction(1, 3), [2, 3])


@given(st.integers(-60, 60), st.integers(0, 5), st.integers(0, 3))
def test_d_membership(a, i, j):
    q = Fraction(a, 2**i * 3**j)
    assert _s_smooth(q, [2, 3])
    # q is a member of D at its own height, and _d_members reports that height
    b, _, num, row, h = adeles._d_members([2, 3], _height(q))
    assert (q.numerator, q.denominator, _height(q)) in zip(num.tolist(), b[row].tolist(), h.tolist())


def test_enumerate_d_is_complete():
    rs = set(_d_fractions([2, 3], 12))
    for num in range(-12, 13):
        for den in (1, 2, 3, 4, 6, 8, 9, 12):
            q = Fraction(num, den)
            if max(abs(q.numerator), q.denominator) <= 12:
                assert q in rs, q


def test_is_in_d_large_prime_denominator():
    q = Fraction(1, 2 * 1000003)
    assert not _s_smooth(q, [2])
    assert _s_smooth(q, [2, 1000003])
    assert _s_smooth(Fraction(1000003, 2**40), [2])
    assert _s_smooth(Fraction(-7), [3])
    # a prime of S above the height adds no denominator
    assert _d_fractions([2, 1000003], 30) == _d_fractions([2], 30)
    with pytest.raises(ParameterError):
        adeles._d_members([4], 8)


def _enumerate_D_oracle(S, height):
    """D up to `height` built from Fractions and sorted by a Fraction key."""
    primes = sorted({int(p) for p in S})
    denoms = [1]
    for p in primes:
        extra = []
        for b in denoms:
            q = b * p
            while q <= height:
                extra.append(q)
                q *= p
        denoms.extend(extra)
    out = []
    for b in sorted(denoms):
        for a in range(-height, height + 1):
            if math.gcd(a, b) == 1 or (a == 0 and b == 1):
                out.append(Fraction(a, b))
    out.sort(key=lambda r: (max(abs(r.numerator), r.denominator), r))
    return out


def _char_sum_oracle(spec, height_schedule):
    """The direct character sum as one bs_eval per diagonal point of D."""
    schedule = sorted({int(h) for h in height_schedule})
    rs = _enumerate_D_oracle(spec.S, schedule[-1])
    acc = CompensatedSum()
    partials = []
    idx = 0
    for h in schedule:
        while idx < len(rs) and _height(rs[idx]) <= h:
            acc.add(bs_eval(spec, AdelePoint.diagonal(rs[idx]), "transform").value)
            idx += 1
        partials.append(acc.value)
    diffs = [partials[0]] + [b - a for a, b in zip(partials, partials[1:])]
    ratios = [b / a if a != 0.0 else math.inf for a, b in zip(diffs, diffs[1:])]
    return tuple(schedule), tuple(partials), tuple(diffs), tuple(ratios), idx


_D_PRIMES = ([2], [3], [2, 3], [2, 3, 5], [7, 11])


@pytest.mark.parametrize("S", _D_PRIMES, ids=str)
def test_enumerate_d_matches_fraction_oracle(S):
    for height in (1, 2, 3, 12, 100, 512):
        assert _d_fractions(S, height) == _enumerate_D_oracle(S, height)
    assert _d_fractions(list(reversed(S)) + S, 30) == _enumerate_D_oracle(S, 30)


_PRIMES_BELOW_30 = [p for p in range(2, 30) if is_prime(p)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(_PRIMES_BELOW_30), min_size=1, max_size=12),
    st.integers(1, 300),
)
def test_enumerate_d_matches_fraction_oracle_for_any_s(S, height):
    # S in any order and with repeats: D depends only on the set of primes
    assert _d_fractions(S, height) == _enumerate_D_oracle(S, height)


def test_height_at_the_cap_is_refused_before_the_grid_is_built(capsys):
    # at 2^17 the float a/b no longer provably orders one height's members;
    # the coprimality grid for S = {2} would hold 18 x (2^17 + 1) cells
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="height must be < 131072"):
            adeles._d_members([2], 1 << 17)
        assert main(["char-sum", "--heights", "8,131072"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "131072" in capsys.readouterr().err
    assert peak < 1 << 20
    assert _d_fractions([2], 1) == [Fraction(-1), Fraction(0), Fraction(1)]


def test_d_past_the_cell_cap_is_refused_before_the_grid_is_built(capsys, monkeypatch):
    # S = {2, ..., 13} has 2,040 denominators below 2^17: a 267-million-cell
    # coprimality grid, refused after at most 18 denominators
    cap = adeles._D_CELL_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=f"more than {cap} cells"):
            adeles._d_members([2, 3, 5, 7, 11, 13], (1 << 17) - 1)
        assert main(["char-sum", "--S", "2,3,5,7,11,13", "--heights", "8,131071"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(cap) in capsys.readouterr().err
    assert peak < 1 << 20
    # S = {2} has 17 denominators below 2^17, so its grid fits at every height
    assert cap >= 17 * (1 << 17)
    # at H = 512, S = {2} has 10 denominators: 5,130 cells
    monkeypatch.setattr(adeles, "_D_CELL_LIMIT", 10 * 513)
    assert len(_d_fractions([2], 512)) == len(_enumerate_D_oracle([2], 512))
    with pytest.raises(ParameterError, match="more than 5130 cells"):
        adeles._d_members([2], 513)


@pytest.mark.parametrize("S", _D_PRIMES, ids=str)
def test_d_members_match_the_gcd_grid_and_lexsort(S):
    # the coprimality grid read off S-smoothness against np.gcd, and the
    # one-float-sort order against np.lexsort((a / den, h))
    for height in (1, 2, 12, 97, 512):
        b, vb, a, row, h = adeles._d_members(S, height)
        gcd_grid = np.gcd(b[:, None], np.arange(height + 1, dtype=np.int64)) == 1
        cells = np.zeros_like(gcd_grid)
        cells[row[a >= 0], a[a >= 0]] = True
        assert np.array_equal(cells, gcd_grid), (S, height)
        # every nonzero cell gives the members a/b and -a/b once each
        assert len(a) == 2 * int(gcd_grid.sum()) - 1
        assert sorted(zip(row[a < 0].tolist(), (-a[a < 0]).tolist())) == sorted(
            zip(row[a > 0].tolist(), a[a > 0].tolist())
        )
        den = b[row]
        assert np.array_equal(h, np.maximum(np.abs(a), den))
        assert np.array_equal(np.lexsort((a / den, h)), np.arange(len(a))), (S, height)
        # vb holds v_p(b) for p in sorted S
        for i, p in enumerate(sorted(set(S))):
            assert [padic.valuation(Fraction(d), p) for d in b.tolist()] == vb[:, i].tolist()


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 2.0])
def test_real_transforms_equal_the_scalar_transform_bit_for_bit(alpha):
    # y = 0, the smallest subnormal, the cells of D to height 512, values
    # where w = t sigma y^alpha passes 745, and more than one chunk of them
    rng = np.random.default_rng(27)
    ys = np.concatenate(
        (
            [0.0, 5e-324, 1e-300, 1.0],
            np.arange(513) / 7.0,
            rng.uniform(0.0, 200.0, adeles._CHUNK + 5),
            745.0 ** (1.0 / alpha) * np.array([0.999, 1.0, 1.001]),
            [131071.0],
        )
    )
    for t, sigma in ((1.0, 1.0), (0.01, math.pi), (3.5, 2.0), (1e300, 1.0), (1e308, 10.0)):
        rf = stable_factor(alpha, sigma, t)
        got = adeles._real_transforms(rf, ys)
        assert _bits(got) == _bits(rf.transform(y) for y in ys.tolist()), (alpha, t, sigma)
        with np.errstate(all="ignore"):
            w = t * sigma * ys**alpha
        assert (got[w >= 745.0] == 0.0).all()
        assert got[0] == 1.0


def test_real_transform_at_zero_is_one_where_t_sigma_overflows(capsys):
    # t sigma = inf and |y|^alpha = 0 once made w = inf * 0.0 = nan and the
    # transform 0.0; e^0 = 1 at every t
    for alpha in (0.5, 1.0, 2.0):
        rf = stable_factor(alpha, 10.0, 1e308)
        assert rf.transform(0.0) == 1.0
        # (1e-300)^2 underflows to 0.0
        assert rf.transform(1e-300) == (1.0 if alpha == 2.0 else 0.0)
        assert rf.transform(0.5) == 0.0
    code, rep = run_request(CommandRequest("char-sum", {"t": "1e308", "sigma": "10", "heights": "8,16"}))
    assert code == 0
    rows = {r["name"]: r["value"] for r in rep["results"]}
    assert rows["H=8"] == rows["H=16"] == 1.0
    code, rep = run_request(
        CommandRequest("adele-eval", {"side": "transform", "x": "inf=0", "t": "1e308", "sigma": "10"})
    )
    assert code == 0
    assert rep["results"][0]["value"] == 1.0
    # one step below the overflow the values were already these
    code, rep = run_request(CommandRequest("char-sum", {"t": "1e300", "sigma": "10", "heights": "8,16"}))
    assert code == 0
    assert {r["name"]: r["value"] for r in rep["results"]}["H=8"] == 1.0


_SNAPSHOT = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


# the four char-sum requests of the adelic_diagonal workload, and the one
# of reproduce-paper
_CHAR_SUM_REQUESTS = [
    ("adelic_diagonal", f"char-sum[S={s}]", {"mode": "direct", "S": s}) for s in ("2", "3", "2,3", "2,3,5")
] + [("paper_battery", "char-sum[direct]", {"mode": "direct"})]


@pytest.mark.parametrize(
    "workload, label, params", _CHAR_SUM_REQUESTS, ids=[label for _, label, _ in _CHAR_SUM_REQUESTS]
)
def test_char_sum_rows_match_the_benchmark_snapshot(workload, label, params):
    with open(_SNAPSHOT / f"{workload}.json") as fh:
        ref = json.load(fh)[label]
    code, rep = run_request(CommandRequest("char-sum", params))
    assert code == ref["exit"]
    assert rep["results"] == ref["rows"]


def _real_factors(t):
    return [gaussian_factor(t)] + [stable_factor(a, 1.0, t) for a in (0.5, 1.0, 1.5)]


@pytest.mark.parametrize("S", _D_PRIMES, ids=str)
def test_char_sum_direct_matches_bs_eval_oracle(S):
    # unsorted and duplicated schedules; height 1 holds only -1, 0 and 1
    schedules = ((1,), (12, 1, 5, 12, 3), (40, 2, 40, 17))
    for t in (0.1, 1.0, 4.0):
        for rf in _real_factors(t):
            # a different (gamma, C) and t at every prime of S
            factors = {
                p: FiniteFactor(SemistableLaw(p, 0.5 + 0.25 * i, 1.0 + 0.5 * i), t * (1 + i))
                for i, p in enumerate(S)
            }
            spec = BruhatSchwartzSpec(rf, factors)
            for schedule in schedules:
                rep = rational_char_sum(spec, schedule, "direct")
                got = (rep.heights, rep.partial_sums, rep.differences, rep.ratios, rep.terms_evaluated)
                assert got == _char_sum_oracle(spec, schedule), (t, rf, schedule)


@pytest.mark.parametrize("S", _D_PRIMES, ids=str)
def test_char_sum_direct_matches_bs_eval_oracle_at_cli_heights(S):
    spec = make_mu_spec(1.0, 1.0, 1.0, 1.0, 1.0, S)
    schedule = (8, 16, 32, 64, 128, 256)
    rep = rational_char_sum(spec, schedule, "direct")
    got = (rep.heights, rep.partial_sums, rep.differences, rep.ratios, rep.terms_evaluated)
    assert got == _char_sum_oracle(spec, schedule)


@pytest.mark.parametrize("S", _D_PRIMES, ids=str)
def test_char_sum_direct_does_not_depend_on_the_chunk_size(S, monkeypatch):
    # the real factor and the compensated sum run _CHUNK cells or terms at a
    # time; any chunk size gives the report of one pass, which the bs_eval
    # oracle pins above
    spec = make_mu_spec(1.3, 1.0, 0.5, 2.0, 0.7, S)
    schedule = (1, 7, 64, 200)
    whole = rational_char_sum(spec, schedule, "direct")
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(adeles, "_CHUNK", chunk)
        assert rational_char_sum(spec, schedule, "direct") == whole, chunk


# ---------------------------------------------------------------------------
# global identities
# ---------------------------------------------------------------------------


def test_theta_reduction_equalizes():
    for lam in (0.5, 1.0, 2.0, 4.0):
        rep = adelic_theta_reduction(1.0, lam)
        assert rep.defect <= 1e-12
    # lambda = 2 side is theta(4)
    rep = adelic_theta_reduction(1.0, 2.0)
    assert rep.lhs.value == pytest.approx(1.000006974684712418, abs=1e-14)


def test_theta_reduction_guards():
    with pytest.raises(ParameterError):
        adelic_theta_reduction(1.0, -1.0)
    with pytest.raises(ParameterError):
        adelic_theta_reduction(0.0, 1.0)
    with pytest.raises(ParameterError):
        adelic_theta_reduction(1.0, 1.0, height=3)


@given(st.floats(min_value=0.05, max_value=4.0), st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_the_gaussian_factor_has_one_density(t, x):
    # (alpha, sigma) = (2, pi) is the gaussian however it is built, and its
    # density is gaussian_density's closed form
    g, s = gaussian_factor(t), stable_factor(2.0, math.pi, t)
    assert g == s
    assert g.density(x) == s.density(x)
    assert s.density(x).value == real_stable.gaussian_density(t, x)


@pytest.mark.parametrize("sigma", [1.0, 3.0, 3.1415926535897936])
def test_an_alpha_2_factor_off_the_gaussian_keeps_the_stable_closed_form(sigma):
    rf = stable_factor(2.0, sigma, 0.7)
    symbol = real_stable.StableSymbol(2.0, sigma)
    assert not symbol.is_gaussian
    for x in (0.0, 0.3, -1.7, 4.0):
        assert rf.density(x) == real_stable.stable_density(symbol, 0.7, x)


def test_scale_by_idele_checks():
    spec = make_mu_spec(2.0, math.pi, 1.0, 1.0, 1.0, [2])
    a = Idele(2.0, {2: Fraction(1, 2)})
    rep = scale_by_idele(spec, a, grid_points=6)
    assert max(c.defect for c in rep.mass_checks) <= 1e-9
    for chk in rep.fourier_checks:
        assert chk.defect <= chk.error_bound + 1e-8, chk.label


@pytest.mark.parametrize(
    "alpha, a",
    [
        (1.0, Idele(2.0, {2: Fraction(1, 2)})),
        (1.5, Idele(2.0, {2: Fraction(1, 2)})),
        (2.0, Idele(2.0, {3: Fraction(1, 3)})),
    ],
    ids=["alpha=1", "alpha=1.5", "3 outside S"],
)
def test_scale_by_idele_refuses_what_it_cannot_check_at_entry(monkeypatch, alpha, a):
    # against S = {2}, a real factor off alpha = 2, or a prime of a without
    # a factor, is refused before any quadrature or shell table is built
    spec = make_mu_spec(alpha, math.pi, 1.0, 1.0, 1.0, [2])
    monkeypatch.setattr(adeles, "_real_scaled_mass", lambda *args: pytest.fail("ran the mass quadrature"))
    monkeypatch.setattr(adeles, "_ScaledShells", lambda *args: pytest.fail("built a shell table"))
    with pytest.raises(ParameterError, match="idele scaling needs"):
        scale_by_idele(spec, a, grid_points=4)


def test_real_scaled_quadrature_reports_quadpack_warnings(monkeypatch):
    # ten subintervals cannot reach abs_tol 1e-30 on the oscillating
    # transform: QUADPACK then appends a warning to its output, and
    # converged must say so (the mass panel meets its relative tolerance
    # within ten)
    rf = gaussian_factor(1.0)
    with monkeypatch.context() as m:
        m.setattr(quadrature, "PANEL_LIMIT", 10)
        starved = QuadratureConfig(abs_tol=1e-30)
        assert not adeles._real_scaled_transform(rf, 2.0, 3.1, starved).converged
        assert adeles._real_scaled_mass(rf, 2.0, QuadratureConfig()).converged
    assert adeles._real_scaled_transform(rf, 2.0, 3.1, QuadratureConfig()).converged


def test_scaled_shell_mass_stops_below_the_rounding_floor():
    # the outer terms never fall below tol/10; the loop must end when p^m
    # overflows, not run on to MAX_TERMS
    f = FiniteFactor(SemistableLaw(2, 1.0, 1.0), 1.0)
    res = adeles._ScaledShells(f, Fraction(1), ShellSumPlan(tail_tolerance=1e-20)).mass()
    assert not res.converged and res.error_bound == math.inf
    assert abs(res.value - 1.0) <= 1e-12
    assert res.terms_used < 1100


# ---------------------------------------------------------------------------
# character sums over D
# ---------------------------------------------------------------------------


def test_char_sum_direct_monotone():
    spec = make_mu_spec(1.0, 1.0, 1.0, 1.0, 1.0, [2])
    rep = rational_char_sum(spec, (4, 8, 16, 32), "direct")
    assert rep.heights == (4, 8, 16, 32)
    assert all(b >= a for a, b in zip(rep.partial_sums, rep.partial_sums[1:]))
    assert rep.terms_evaluated > 0
    assert len(rep.ratios) == len(rep.differences) - 1


def test_char_sum_paper_bound_frozen():
    spec = make_mu_spec(1.0, 1.0, 1.0, 1.0, 1.0, [2])
    rep = rational_char_sum(spec, (), "paper_bound", A=1, M=100)
    assert rep.p0 == 2
    assert rep.first_series == pytest.approx(99.1453866791072, abs=1e-10)
    assert rep.first_last_term == pytest.approx(math.exp(-1.0 / 2.0**100), abs=1e-15)
    assert rep.second_series == pytest.approx(0.153986497288436767, abs=1e-13)
    assert rep.second_tail_bound < 1e-300  # e^{-2^101} underflows to zero


def test_char_sum_paper_bound_guards():
    spec = make_mu_spec(1.0, 1.0, 1.0, 1.0, 1.0, [2])
    with pytest.raises(ParameterError):
        rational_char_sum(spec, (), "paper_bound", A=2)  # not coprime to p0
    spec_empty = BruhatSchwartzSpec(gaussian_factor(1.0), {})
    with pytest.raises(ParameterError):
        rational_char_sum(spec_empty, (8,), "direct")
