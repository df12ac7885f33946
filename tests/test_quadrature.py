"""The scipy seam: closed-form tails against 40-digit references."""
from __future__ import annotations

import itertools
import sys

import pytest

from trace_lab.quadrature import stretched_exp_tail

mpmath = pytest.importorskip("mpmath")


@pytest.mark.parametrize("d, alpha", itertools.product((1, 2, 3), (0.5, 1.0, 1.5, 2.0)))
def test_stretched_exp_tail_matches_mpmath_gammainc(d, alpha):
    # mpmath.quad is no reference here: on these slowly decaying tails it
    # was off by up to 1e-2, while gammainc is the closed form itself
    with mpmath.workdps(40):
        for c, m in itertools.product((0.01, 0.1, 1.0, 10.0), (1.0, 3.0, 10.0)):
            s = mpmath.mpf(d) / alpha
            w = mpmath.mpf(c) * mpmath.mpf(m) ** alpha
            ref = mpmath.gammainc(s, w) * mpmath.mpf(c) ** (-s) / alpha
            got = stretched_exp_tail(d, c, alpha, m)
            if ref < sys.float_info.min:
                # e^{-1000} and below: the double answer is 0.0
                assert got == float(ref), (c, m)
            else:
                assert abs(got - ref) <= 1e-12 * ref, (c, m, got)
