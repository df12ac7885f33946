"""The rotationally invariant gamma-semistable semigroup on Q_p.

The law mu_t has characteristic function exp(-Ct|y|_p^gamma) and scales as
delta(mu_t) = mu_{beta t} for delta(x) = px, beta = p^{-gamma}.  Its density
is evaluated two independent ways:

* series mode - the Taylor-type expansion
      f_t(x) = sum_{n>=0} ((-1)^n / n!) (Ct)^n |x|_p^{-(n gamma + 1)}
               Gamma_p(n gamma + 1)
  using the p-adic gamma closed form.  The alternating sum is summed
  directly while the cancellation is harmless, and through an exact
  regrouping (geometric expansion of the Gamma_p denominator, then a swap
  of the two absolutely convergent sums) once the largest term would
  overwhelm double precision.  Both orderings carry rigorous tail bounds.

* shell mode - Fourier inversion shell by shell,
      f_t(x) = sum_n exp(-Ct p^{n gamma}) * int_{|y|_p = p^n} chi_1(xy) dy,
  which never references Gamma_p.  The shell integrals come from
  shell_char_kernel on the one valuation v_p(x): the closed-form, bit-
  identical float form of the exact definition ball_char_integral.

Agreement of the two modes is the package's core p-adic cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CompensatedSum, EvalResult, ParameterError, ShellSumPlan
from .padic import Rational, valuation
from .padic_integrals import (
    exp_norm_function,
    integrate_radial,
    norm_float,
    padic_gamma_closed,
    require_prime,
    shell_char_integral,  # not called here; perfbench's tracer test reads this binding
    shell_char_kernel,
)

_DEFAULT_PLAN = ShellSumPlan()

# largest exp-series argument summed term-by-term in doubles; beyond this
# the cancellation against the peak term a^n/n! ~ e^a eats the 1e-8
# agreement budget and the regrouped (all-positive) ordering takes over
_DIRECT_SERIES_CAP = 12.0


@dataclass(frozen=True)
class SemistableLaw:
    p: int
    gamma: float
    C: float

    def __post_init__(self):
        require_prime(self.p)
        if self.gamma <= 0 or self.C <= 0:
            raise ParameterError("SemistableLaw needs gamma > 0 and C > 0")


def char_fn(law: SemistableLaw, t: float, y: Rational) -> float:
    """Characteristic function exp(-Ct |y|_p^gamma); 1 at t = 0 or y = 0."""
    if t < 0:
        raise ParameterError("char_fn needs t >= 0")
    v = valuation(y, law.p)
    if t == 0 or v == math.inf:
        return 1.0
    w = law.C * t * norm_float(law.p, -int(v)) ** law.gamma
    return math.exp(-w) if w < 745.0 else 0.0


def _density_shell(law: SemistableLaw, t: float, x: Rational, plan: ShellSumPlan) -> EvalResult:
    p, g, ct = law.p, law.gamma, law.C * t
    v = valuation(x, p)
    if v == math.inf:
        # f_t(0) is the full radial integral of the characteristic function
        return integrate_radial(exp_norm_function(ct, g), p, "full", plan)
    v = int(v)
    weight = exp_norm_function(ct, g)
    # shells above n = v+1 vanish identically (third branch of the
    # shell character integral), so the sum is finite upward
    terms = max(v + 2 - plan.n_min, 0)
    # The weights decrease in n.  Once one is 0.0 in double every later
    # shell adds nothing, and its shell integral, which may exceed double
    # range, is never formed.  The log-space test keeps a weight that is
    # 0.0 only because p^n saturated to inf from ending the sum.
    log_p = math.log(p)
    log_cut = math.log(745.0 / ct) if ct > 0.0 else math.inf
    acc = CompensatedSum()
    for n in range(plan.n_min, v + 2):
        w = weight(norm_float(p, n))
        if w == 0.0 and n * g * log_p > log_cut:
            break
        acc.add(w * shell_char_kernel(p, n, v))
    # omitted inner shells: |integrand| <= 1 times remaining ball mass
    bound = norm_float(p, plan.n_min - 1)
    return EvalResult(acc.value, bound, terms, bound <= plan.tail_tolerance)


def _density_series_direct(
    p: int, gamma: float, ct_eff: float, big_x: float, a: float, plan: ShellSumPlan
) -> EvalResult:
    # term_n = ((-1)^n / n!) ct_eff^n X^{n gamma + 1} Gamma_p(n gamma + 1);
    # |Gamma_p(n gamma + 1)| <= p^{n gamma} gives |term_n| <= X a^n / n!
    if a > 600.0:
        return EvalResult(math.nan, math.inf, 0, False)
    # cancellation floor: the peak term a^k/k! ~ e^a / sqrt(2 pi a) sets
    # how much the alternating sum can lose to rounding
    float_floor = big_x * math.exp(a) / math.sqrt(2.0 * math.pi * max(a, 1.0)) * 1e-15
    acc = CompensatedSum()
    coef = 1.0  # (-ct_eff X^gamma)^n / n!
    coef_abs = 1.0  # a^n / n!
    xg = big_x**gamma
    n = 0
    while n < plan.max_terms:
        acc.add(coef * big_x * padic_gamma_closed(p, n * gamma + 1.0))
        n += 1
        coef *= -ct_eff * xg / n
        coef_abs *= a / n
        if n > a and n >= 3:
            tail = big_x * coef_abs / (1.0 - a / (n + 1.0))
            if tail < plan.tail_tolerance:
                return EvalResult(acc.value, tail + float_floor, n, True)
    tail = big_x * coef_abs * 2.0 + float_floor
    return EvalResult(acc.value, tail, n, False)


def _density_series_regrouped(
    p: int, gamma: float, ct: float, big_x: float, plan: ShellSumPlan
) -> EvalResult:
    # exact regrouping: f = sum_{j>=0} X p^{-j} (e^{-ct A_j} - e^{-ct p^gamma A_j})
    # with A_j = (X p^{-j})^gamma; all terms positive, no cancellation
    pg = float(p) ** gamma
    acc = CompensatedSum()
    j = 0
    r = float(p) ** (-(gamma + 1.0))
    while j < plan.max_terms:
        scale = big_x * float(p) ** (-j)
        aj = ct * scale**gamma
        lo = math.exp(-aj) if aj < 745.0 else 0.0
        hi = math.exp(-pg * aj) if pg * aj < 745.0 else 0.0
        acc.add(scale * (lo - hi))
        j += 1
        # w_j <= ct (p^gamma - 1) A_j X p^{-j}: geometric with ratio r
        nxt = ct * (pg - 1.0) * big_x ** (gamma + 1.0) * float(p) ** (-j * (gamma + 1.0))
        tail = nxt / (1.0 - r)
        if tail < plan.tail_tolerance and j >= 3:
            return EvalResult(acc.value, tail, j, True)
    return EvalResult(acc.value, math.inf, j, False)


def density(
    law: SemistableLaw,
    t: float,
    x: Rational,
    method: str = "shell",
    plan: ShellSumPlan = _DEFAULT_PLAN,
    series_variant: str = "plain",
) -> EvalResult:
    """Density of mu_t at x, by the series expansion or the shell oracle.

    series_variant "plain" carries the coefficient (Ct)^n, which is what
    expanding exp(-Ct|y|^gamma) term by term produces and what the shell
    oracle confirms; "gamma-power" substitutes (Ct)^{n gamma} so the effect
    of that alternative reading can be measured rather than argued about.
    """
    if t <= 0:
        raise ParameterError("density needs t > 0")
    if method == "shell":
        return _density_shell(law, t, x, plan)
    if method != "series":
        raise ParameterError(f"method must be series or shell, got {method!r}")
    v = valuation(x, law.p)
    if v == math.inf:
        raise ParameterError("series mode needs x != 0")
    big_x = norm_float(law.p, int(v))  # 1/|x|_p
    ct = law.C * t
    if series_variant == "plain":
        ct_eff = ct
    elif series_variant == "gamma-power":
        ct_eff = ct**law.gamma
    else:
        raise ParameterError(f"series_variant must be plain or gamma-power, got {series_variant!r}")
    a = ct_eff * (float(law.p) * big_x) ** law.gamma
    if a <= _DIRECT_SERIES_CAP or series_variant != "plain":
        return _density_series_direct(law.p, law.gamma, ct_eff, big_x, a, plan)
    return _density_series_regrouped(law.p, law.gamma, ct, big_x, plan)


@dataclass(frozen=True)
class MassCheck:
    result: EvalResult
    min_density: float
    min_density_shell: int


def mass_check(law: SemistableLaw, t: float, plan: ShellSumPlan = _DEFAULT_PLAN) -> MassCheck:
    """Radial integral of the shell-mode density over Q_p; must be 1.

    Also tracks the minimum density value seen across shells as a
    nonnegativity diagnostic.
    """
    if t <= 0:
        raise ParameterError("mass_check needs t > 0")
    p = law.p
    w_unit = 1.0 - 1.0 / p

    def eval_at_shell(n: int) -> EvalResult:
        # deepen the density cutoff with the shell so the evaluation
        # error stays below p^{n_min - 1} after the measure weight p^n
        deep = ShellSumPlan(
            n_min=plan.n_min - max(n, 0),
            n_max=plan.n_max,
            tail_tolerance=plan.tail_tolerance,
            max_terms=plan.max_terms,
        )
        return _density_shell(law, t, Rational(p) ** (-n), deep)

    f0 = _density_shell(law, t, Rational(0), plan)

    acc = CompensatedSum()
    terms = 0
    min_density = f0.value
    min_shell = 0
    eval_bound = 0.0

    # inner shells: density is bounded by f_t(0), so the omitted ball
    # below n_lo carries mass at most f_t(0) p^{n_lo - 1}
    n_lo = plan.n_min
    for n in range(n_lo, 1):
        fr = eval_at_shell(n)
        if fr.value < min_density:
            min_density, min_shell = fr.value, n
        acc.add(fr.value * norm_float(p, n) * w_unit)
        eval_bound += fr.error_bound * norm_float(p, n) * w_unit
        terms += 1
    inner_tail = (f0.value + f0.error_bound) * norm_float(p, n_lo - 1)

    # outer shells: extend until the terms decay geometrically below tolerance
    prev_term = math.inf
    outer_tail = math.inf
    converged_out = False
    n = 1
    while terms < plan.max_terms:
        fr = eval_at_shell(n)
        if fr.value < min_density:
            min_density, min_shell = fr.value, n
        term = fr.value * norm_float(p, n) * w_unit
        acc.add(term)
        eval_bound += fr.error_bound * norm_float(p, n) * w_unit
        terms += 1
        if abs(term) < plan.tail_tolerance / 10.0 and abs(term) < prev_term:
            ratio = abs(term) / prev_term if prev_term > 0 else 0.0
            ratio = max(ratio, float(p) ** (-law.gamma))
            if ratio < 1.0:
                outer_tail = abs(term) * ratio / (1.0 - ratio)
                converged_out = True
                break
        prev_term = abs(term) if term != 0.0 else prev_term
        n += 1

    bound = inner_tail + outer_tail + eval_bound if converged_out else math.inf
    converged = converged_out and bound <= 10.0 * plan.tail_tolerance
    res = EvalResult(acc.value, bound, terms, converged)
    return MassCheck(res, min_density, min_shell)
