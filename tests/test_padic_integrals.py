"""Radial integrals, the p-adic gamma function, and the Haar Monte Carlo oracle."""
from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_lab.core import ParameterError, ShellSumPlan
from trace_lab.padic import valuation
from trace_lab.padic_integrals import (
    HaarSample,
    ball_char_integral,
    exp_norm_function,
    exp_radial_closed,
    integrate_radial,
    _HAAR_CHUNK,
    _block_histogram,
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
    # the inner tail alone, about 2^{N_MIN - 1}, is far above 1e-30
    plan = ShellSumPlan(tail_tolerance=1e-30)
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


def test_mc_haar_deterministic(monkeypatch):
    a, va = _recorded_sample(monkeypatch, 2, 64, 1000, 5)
    b, vb = _recorded_sample(monkeypatch, 2, 64, 1000, 5)
    assert va == vb and np.array_equal(a.counts, b.counts)
    c, vc = _recorded_sample(monkeypatch, 2, 64, 1000, 6)
    assert va != vc and not np.array_equal(a.counts, c.counts)


def test_mc_haar_mean_scalar_fallback():
    # mean_of calls g on floats only, so a numpy and a math integrand agree
    sample = mc_haar_zp(2, count=50_000, seed=3)
    vec, _ = sample.mean_of(lambda u: np.exp(-u))
    scal, _ = sample.mean_of(lambda u: math.exp(-u))
    assert vec == pytest.approx(scal, abs=1e-15)
    ref = exp_radial_closed(2, 1.0, 1.0, "unit_ball").value
    _, se = sample.mean_of(lambda u: np.exp(-u))
    assert abs(vec - ref) <= 4.0 * se


def test_mc_haar_rejects_bad_params():
    with pytest.raises(ParameterError):
        mc_haar_zp(4)
    with pytest.raises(ParameterError):
        mc_haar_zp(2, count=0)
    with pytest.raises(ParameterError):
        mc_haar_zp(9223372036854775837)  # the least prime above 2^63


# k = the largest integer with p^k < 2^63: one int64 block holds k digits
_BLOCK_DIGITS = {2: 62, 3: 39, 5: 27, 7919: 4}


@pytest.mark.parametrize("p", sorted(_BLOCK_DIGITS))
def test_block_valuation_matches_padic_valuation(p):
    k = _BLOCK_DIGITS[p]
    assert p**k < 2**63 <= p ** (k + 1)
    m = 2 if p != 2 else 3  # coprime to p
    values = [0, 1, p**k, 2**62 - 1, m, p - 1, p + 1]
    values += [p**j * m for j in range(k) if p**j * m < 2**63]
    values += [p**j for j in range(k)]
    # negative entries: on int64, bitwise_count would count the bits of |x|
    values += [-1, -p, -(2**63), -(p ** (k - 1)) * m, 0, 0]
    rng = np.random.default_rng(p)
    values += rng.integers(0, 2**63 - 1, size=200, dtype=np.int64).tolist()
    values += rng.integers(0, p**k, size=200, dtype=np.int64).tolist()
    values += (p * rng.integers(1, 2**40, size=50, dtype=np.int64)).tolist()
    h, zeros = _block_histogram(np.array(values, dtype=np.int64), p)
    assert h.tolist() == np.bincount([valuation(v, p) for v in values if v != 0]).tolist()
    assert zeros == values.count(0) == 3


_REAL_DEFAULT_RNG = np.random.default_rng


class _RecordingRng:
    """A seeded Generator that records every block it draws.

    With zero_every set, it zeroes every zero_every-th entry of each block,
    so that rows reach later blocks and some rows are zero in all of them.
    """

    def __init__(self, seed, zero_every=None):
        self.rng = _REAL_DEFAULT_RNG(seed)
        self.zero_every = zero_every
        self.blocks = []

    def integers(self, low, high, size, dtype):
        x = self.rng.integers(low, high, size=size, dtype=dtype)
        if self.zero_every:
            x[:: self.zero_every] = 0
        self.blocks.append((high, x.copy()))
        return x


def _digit_valuations(p, depth, count, blocks):
    """Valuations read digit by digit from the recorded blocks."""
    out = [depth] * count
    live, done = list(range(count)), 0
    for high, x in blocks:
        kk = 0
        while p**kk < high:
            kk += 1
        assert p**kk == high and len(x) == len(live)
        for row, block in zip(live, x.tolist()):
            for i in range(kk):
                block, digit = divmod(block, p)
                if digit:
                    out[row] = done + i
                    break
        live = [row for row, block in zip(live, x.tolist()) if block == 0]
        done += kk
    assert done == depth or not live
    return out


def _record_draws(monkeypatch, p, depth, count, seed, zero_every=None):
    """mc_haar_zp's sample and the blocks it drew, through a _RecordingRng."""
    recorders = []

    def fake_default_rng(seed):
        recorders.append(_RecordingRng(seed, zero_every))
        return recorders[-1]

    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", fake_default_rng)
        sample = mc_haar_zp(p, depth=depth, count=count, seed=seed)
    return sample, recorders[0].blocks


def _recorded_sample(monkeypatch, p, depth, count, seed):
    """mc_haar_zp's sample, and the valuations read digit by digit from its draws."""
    sample, blocks = _record_draws(monkeypatch, p, depth, count, seed)
    valuations = _digit_valuations(p, depth, count, blocks)
    assert sample.counts.tolist() == np.bincount(valuations, minlength=depth + 1).tolist()
    return sample, valuations


@pytest.mark.parametrize("zero_every", [None, 2])
@pytest.mark.parametrize(
    "p, depth",
    [
        (2, 1), (2, 62), (2, 63), (2, 200),
        (3, 1), (3, 39), (3, 40), (3, 200),
        (7919, 1), (7919, 4), (7919, 5), (7919, 200),
    ],
)
def test_mc_haar_block_layout(monkeypatch, p, depth, zero_every):
    count = 3000
    sample, blocks = _record_draws(monkeypatch, p, depth, count, 17, zero_every)
    k = _BLOCK_DIGITS[p]
    sizes = [round(math.log(high, p)) for high, _ in blocks]
    assert sizes == [min(k, depth - done) for done in range(0, k * len(sizes), k)]
    v = _digit_valuations(p, depth, count, blocks)
    assert sample.counts.dtype == np.int64
    assert sample.counts.tolist() == np.bincount(v, minlength=depth + 1).tolist()
    if zero_every:
        assert v[0] == depth  # row 0 is zero in every block
    elif depth == 1:
        assert 0 < sample.counts[depth] < count


# The full-array statistics HaarSample computed before it kept a histogram,
# copied as they were but for reading the valuations from an argument: the
# oracle for the histogram reads.


def _oracle_norms(self, valuations):
    return np.power(float(self.p), -valuations.astype(np.float64))


def _oracle_shell_frequency(self, valuations, n):
    if n > 0:
        return 0.0, 0.0
    f = float(np.mean(valuations == -n))
    se = math.sqrt(max(f * (1.0 - f), 1.0 / self.count) / self.count)
    return f, se


def _oracle_ball_frequency(self, valuations, k):
    f = float(np.mean(valuations >= k))
    se = math.sqrt(max(f * (1.0 - f), 1.0 / self.count) / self.count)
    return f, se


def _oracle_mean_of(self, valuations, g):
    u = _oracle_norms(self, valuations)
    try:
        vals = np.asarray(g(u), dtype=np.float64)
        if vals.shape != u.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.fromiter((g(x) for x in u), dtype=np.float64, count=len(u))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(self.count))
    return mean, se


_MEAN_INTEGRANDS = [
    lambda u: np.exp(-np.power(u, 1.0)),
    lambda u: np.exp(-2.0 * np.power(u, 0.5)),
    lambda u: np.exp(-0.5 * np.power(u, 2.0)),
    lambda u: math.exp(-u),
    lambda u: u,
]


def _assert_statistics_match_oracle(sample, valuations):
    valuations = np.asarray(valuations)
    assert sample.counts.tolist() == np.bincount(valuations, minlength=sample.depth + 1).tolist()
    depth = sample.depth
    for n in range(1, -depth - 3, -1):  # past both ends of the histogram
        assert sample.shell_frequency(n) == _oracle_shell_frequency(sample, valuations, n), n
    for k in range(-2, depth + 4):
        assert sample.ball_frequency(k) == _oracle_ball_frequency(sample, valuations, k), k
    for g in _MEAN_INTEGRANDS:
        mean, se = sample.mean_of(g)
        ref_mean, ref_se = _oracle_mean_of(sample, valuations, g)
        assert abs(mean - ref_mean) <= 4 * math.ulp(ref_mean), (mean, ref_mean)
        assert abs(se - ref_se) <= 4 * math.ulp(ref_se), (se, ref_se)


@pytest.mark.parametrize("depth", [1, 3, 64, 200])
@pytest.mark.parametrize("p", [2, 3, 5, 7919])
def test_haar_statistics_match_full_array_oracle(monkeypatch, p, depth):
    _assert_statistics_match_oracle(*_recorded_sample(monkeypatch, p, depth, 20_000, p + depth))
    # every norm occupied, the truncation bucket included
    valuations = np.random.default_rng(depth).integers(0, depth + 1, size=20_000).astype(np.int32)
    counts = np.bincount(valuations, minlength=depth + 1)
    _assert_statistics_match_oracle(HaarSample(p, depth, 20_000, 0, counts), valuations)


def test_haar_histogram_counts_the_valuations(monkeypatch):
    # depth 5 < 39 digits: one block on Z/3^5, and each row's valuation is
    # v_3 of its block, or 5 where the block is 0
    sample, blocks = _record_draws(monkeypatch, 3, 5, 1000, 2)
    [(high, x)] = blocks
    assert high == 3**5
    vals = [5 if b == 0 else valuation(b, 3) for b in x.tolist()]
    assert sample.counts.tolist() == [vals.count(k) for k in range(6)]


def test_haar_sample_checks_its_histogram():
    HaarSample(3, 2, 5, 0, np.array([3, 1, 1]))
    with pytest.raises(ParameterError):
        HaarSample(3, 2, 5, 0, np.array([3, 2]))  # depth + 1 bins
    with pytest.raises(ParameterError):
        HaarSample(3, 2, 5, 0, np.array([3, 1, 0]))  # counts sum to count


def test_mc_haar_keeps_no_per_row_array():
    # a million rows: while the first block was one 8 MB int64 draw,
    # per-row valuation arrays beside it (an int32 result, a float64 copy,
    # frexp's outputs) took the peak to 28 MB.  The chunked sampler's own
    # bound is in test_mc_haar_memory_at_the_count_cap
    tracemalloc.start()
    try:
        sample = mc_haar_zp(2, 64, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.counts.sum() == 10**6
    assert peak < 20 * 10**6


# the tracemalloc peak a Haar sample may reach at any count: eight int64
# arrays of one chunk, 2 MiB.  A chunk's draw, its divisibility mask, the
# rows kept and their quotients come to about 2.2 of them
_HAAR_PEAK_BOUND = 8 * 8 * _HAAR_CHUNK


@pytest.mark.parametrize("p", [2, 3, 7919])
def test_mc_haar_memory_at_the_count_cap(p):
    # one int64 array of all count rows took the peak to 71 MB here
    from trace_lab.cli import _CAPS

    cap = _CAPS["mc-haar", "count"]
    tracemalloc.start()
    try:
        sample = mc_haar_zp(p, 64, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.counts.sum() == cap
    assert peak < _HAAR_PEAK_BOUND


def _one_call_counts(rng, p, depth, count):
    """mc_haar_zp's block loop as it was before chunks: one rng.integers
    call per block, all its live rows at once.  The oracle for the chunks."""
    k = 1
    while p ** (k + 1) < 2**63:
        k += 1
    counts = np.zeros(depth + 1, dtype=np.int64)
    done, live = 0, count
    while done < depth and live:
        kk = min(k, depth - done)
        h, live = _block_histogram(rng.integers(0, p**kk, size=live, dtype=np.int64), p)
        counts[done : done + h.size] += h
        done += kk
    counts[depth] += live
    return counts


class _HalfZeroRng:
    """A seeded Generator that zeroes every drawn value below high // 2, so
    about half the rows of each block go on to the next.  The zeroing reads
    values, not positions, so it gives the same blocks in chunks or at once.
    """

    def __init__(self, seed):
        self.rng = _REAL_DEFAULT_RNG(seed)
        self.bit_generator = self.rng.bit_generator
        self.sizes = []

    def integers(self, low, high, size, dtype):
        self.sizes.append(size)
        x = self.rng.integers(low, high, size=size, dtype=dtype)
        x[x < high // 2] = 0
        return x


@pytest.mark.parametrize("half_zero", [False, True])
@pytest.mark.parametrize(
    "count", [1, _HAAR_CHUNK - 1, _HAAR_CHUNK, _HAAR_CHUNK + 1, 3 * _HAAR_CHUNK + 7]
)
@pytest.mark.parametrize(
    "p, depth",
    [
        # the last or only block's range lies below 2^32, where numpy
        # buffers the spare 32-bit half in the bit generator, for the first
        # six and above it for the last two; every earlier block is above.
        # On 3^20 Lemire's method rejects about 19 % of the draws
        (2, 20), (2, 64), (3, 20), (3, 59), (5, 37), (7919, 6), (3, 64), (7919, 64),
    ],
)
def test_mc_haar_chunks_draw_as_one_call(monkeypatch, p, depth, count, half_zero):
    make = _HalfZeroRng if half_zero else _REAL_DEFAULT_RNG
    seed = 1000 * p + depth
    rngs = []

    def fake_default_rng(seed):
        rngs.append(make(seed))
        return rngs[-1]

    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", fake_default_rng)
        sample = mc_haar_zp(p, depth=depth, count=count, seed=seed)
    oracle = make(seed)
    assert sample.counts.tolist() == _one_call_counts(oracle, p, depth, count).tolist()
    assert rngs[0].bit_generator.state == oracle.bit_generator.state
    if half_zero:
        # the same rows drawn, none more than a chunk at a time
        assert sum(rngs[0].sizes) == sum(oracle.sizes)
        assert max(rngs[0].sizes) <= _HAAR_CHUNK


def test_haar_mean_over_one_occupied_norm_is_exact():
    # every sample has norm 1, so the sample variance is exactly 0; the
    # full-array oracle reports the rounding of its pairwise mean instead
    sample = HaarSample(7919, 3, 20_000, 0, np.array([20_000, 0, 0, 0]))
    g = _MEAN_INTEGRANDS[1]
    assert sample.mean_of(g) == (float(g(np.ones(1))[0]), 0.0)
    assert _oracle_mean_of(sample, np.zeros(20_000, dtype=np.int32), g)[1] > 0.0


def test_haar_mean_needs_two_samples():
    sample = mc_haar_zp(2, count=1, seed=0)
    assert sample.shell_frequency(0)[0] in (0.0, 1.0)
    with pytest.raises(ParameterError):
        sample.mean_of(lambda u: np.exp(-u))
