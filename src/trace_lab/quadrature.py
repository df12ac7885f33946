"""The package's one seam to scipy: QUADPACK panels and special functions.

No other module imports scipy, and this one imports it only inside the
function bodies, so a run that never integrates on R or sums a torus tail
never loads it.  Every helper returns Python floats.
"""
from __future__ import annotations

import math
from typing import Callable

from .core import QuadratureConfig

_TWO_PI = 2.0 * math.pi

# oscillatory inversion integrals are cut where the integrand envelope
# drops below this; the remainder is covered by an explicit tail bound
ENVELOPE_CUTOFF = 1e-16

# QUADPACK's cap on the subintervals of one panel
PANEL_LIMIT = 200


def panel(
    f: Callable[[float], float],
    a: float,
    b: float,
    quad: QuadratureConfig,
    share: float,
    epsrel: float,
    **kwargs,
) -> tuple[float, float, int, bool]:
    """QUADPACK on [a, b] with absolute tolerance quad.abs_tol / share and
    at most PANEL_LIMIT subintervals.

    Extra keywords (weight, wvar, maxp1) pass through to QUADPACK.
    Returns (value, abserr, neval, no_warning); no_warning is False when
    QUADPACK warns, which it does by returning more than three items.
    """
    from scipy import integrate

    out = integrate.quad(
        f,
        a,
        b,
        epsabs=quad.abs_tol / share,
        epsrel=epsrel,
        limit=PANEL_LIMIT,
        full_output=1,
        **kwargs,
    )
    v, e, info = out[:3]
    return v, e, int(info["neval"]), len(out) == 3


def cos_panel(
    g: Callable[[float], float], half: float, y: float, quad: QuadratureConfig
) -> tuple[float, float, int, bool]:
    """int_0^half g(u) cos(2 pi u y) du, as panel() returns it.

    Below half a period on the panel the cosine goes into the integrand;
    otherwise QUADPACK's cosine-weighted rule (QAWO) takes it.
    """
    if abs(y) * half < 0.5:
        return panel(lambda u: g(u) * math.cos(_TWO_PI * u * y), 0.0, half, quad, 8.0, 1e-13)
    return panel(g, 0.0, half, quad, 8.0, 1e-13, weight="cos", wvar=_TWO_PI * abs(y), maxp1=100)


def stretched_exp_tail(d: float, c: float, alpha: float, m: float) -> float:
    """int_m^inf u^{d-1} e^{-c u^alpha} du = Gamma(d/alpha, c m^alpha) c^{-d/alpha} / alpha."""
    from scipy import special

    s = d / alpha
    return float(special.gammaincc(s, c * m**alpha) * special.gamma(s) * c ** (-s) / alpha)


def gamma(x: float) -> float:
    """Euler's Gamma function."""
    from scipy import special

    return float(special.gamma(x))


def hurwitz_zeta(s: float, q: float) -> float:
    """zeta(s, q) = sum_{n>=0} (n + q)^{-s}, for s > 1 and q > 0."""
    from scipy import special

    return float(special.zeta(s, q))
