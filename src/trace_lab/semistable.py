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
  shell_char_kernel, the closed-form, bit-identical float form of the
  exact definition ball_char_integral: on v = v_p(x) they are
  p^n (1 - 1/p) for n <= v, -p^v at n = v+1 and 0 above, so each density
  is a compensated sum over a window [N_MIN, v+1].  A shell table forms
  each weight and each n <= v term once per law and t, and keeps them in
  two lists indexed from its lowest shell.  Windows that start at the
  same shell share one accumulation, and each takes its n = v+1 term on
  a copy of the state; the additions and their order are those of
  summing the window alone, so the values are bit-identical to it.
  Each request builds one table: shell_densities walks all the x of a
  padic-density request at once, and mass_check and the idele scaling
  checks read all their densities off one table.  Those two run one
  shell-mass loop: with n = m - v_p(a), the mass of |a|_p f_t(a x) over
  the shells |x|_p = p^m is the mass check's own sum, scaled by |a|_p.

Agreement of the two modes is the package's core p-adic cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import MAX_TERMS, N_MIN, CompensatedSum, EvalResult, ParameterError, ShellSumPlan
from .padic import Rational, _valuation
from .padic_integrals import (
    _padic_gamma_closed,
    exp_norm_function,
    integrate_radial,
    norm_float,
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
        if not self.gamma > 0 or not self.C > 0:
            raise ParameterError("SemistableLaw needs gamma > 0 and C > 0")


def char_fn(law: SemistableLaw, t: float, y: Rational) -> float:
    """Characteristic function exp(-Ct |y|_p^gamma); 1 at t = 0 or y = 0."""
    if not t >= 0:
        raise ParameterError("char_fn needs t >= 0")
    v = _valuation(y, law.p)
    if t == 0 or v == math.inf:
        return 1.0
    return exp_norm_function(law.C * t, law.gamma)(norm_float(law.p, -int(v)))


class _ShellTable:
    """Shell weights and shell terms of one law at one t, each formed once.

    Shell m has the weight w_m = exp(-Ct p^{m gamma}).  For every v >= m
    its kernel value is K_m = p^m (1 - 1/p), so its term w_m K_m does not
    depend on x.  The density at v_p(x) = v on the window [lo, v + 1] is
    the compensated sum of the terms lo..v followed by w_{v+1} (-p^v).

    The weights and terms of the shells base, base + 1, ... are kept in two
    lists, grown downward when a window starts below base and upward to
    the highest v asked for.  The weights may run one shell past the
    terms, since the n = v+1 term reads w_{v+1} alone.
    """

    def __init__(self, law: SemistableLaw, t: float):
        self.p = law.p
        ct = law.C * t
        self._weight_fn = exp_norm_function(ct, law.gamma)
        self.gamma = law.gamma
        self._log_p = math.log(law.p)
        self._log_cut = math.log(745.0 / ct) if ct > 0.0 else math.inf
        self._base: int | None = None
        self._w: list[float] = []
        self._terms: list[float] = []
        self._end = math.inf  # the first shell whose weight ends the sum, once met

    def _weight(self, m: int) -> float | None:
        """w_m, or None where a window reaching shell m ends before it.

        The weights decrease in n.  Once one is 0.0 in double every later
        shell adds nothing, and its kernel value, which may exceed double
        range, is never formed.  The log-space test keeps a weight that is
        0.0 only because p^n saturated to inf from ending the sum.  Both of
        its conditions, once true at m, stay true above m, so the shells
        that end a window are exactly those from one shell upward.
        """
        w = self._weight_fn(norm_float(self.p, m))
        ends = w == 0.0 and m * self.gamma * self._log_p > self._log_cut
        return None if ends else w

    def _start(self, lo: int) -> None:
        """Make the lists start at or below shell lo and run on unbroken to it.

        A window that starts above the last term starts a new table, so
        that no shell below it is ever formed.
        """
        base, terms = self._base, self._terms
        if base is None or not terms or lo > base + len(terms):
            self._base, self._w, self._terms = lo, [], []
        elif lo < base:
            # shells below one that has a term never end the sum
            shells = range(lo, base)
            ws = [self._weight(m) for m in shells]
            terms[:0] = [w * shell_char_kernel(self.p, m, math.inf) for m, w in zip(shells, ws)]
            self._w[:0] = ws
            self._base = lo

    def _weights_to(self, top: int) -> int:
        """Form the weights of the shells up to top, stopping at the end;
        return min(top + 1, the first shell without a weight)."""
        ws = self._w
        m = self._base + len(ws)
        while m <= top and m < self._end:
            w = self._weight(m)
            if w is None:
                self._end = m
                break
            ws.append(w)
            m += 1
        return min(m, top + 1)

    def _terms_to(self, v: int) -> int:
        """Form the terms of the shells up to v, stopping at the end; return
        the shell after the last."""
        top = self._weights_to(v)
        p, ws, terms, base = self.p, self._w, self._terms, self._base
        for m in range(base + len(terms), top):
            terms.append(ws[m - base] * shell_char_kernel(p, m, math.inf))
        return top

    def walk(self, lo: int, vs, tail_tolerance: float) -> list[EvalResult]:
        """Shell-mode densities at v_p(x) = v for each v of the ascending vs.

        Every window starts at lo, so one compensated accumulation runs
        upward from lo, and at each v a copy of its state takes the n = v+1
        term.  The additions and their order are those of summing each
        window on its own.  The error bound p^{lo - 1} covers the omitted
        inner shells: |integrand| <= 1 times the remaining ball mass.
        """
        self._start(lo)
        # the terms of every window, up to the last v or the end
        last = self._terms_to(vs[-1]) if vs else lo
        p, ws, terms, base = self.p, self._w, self._terms, self._base
        bound = norm_float(p, lo - 1)
        converged = bound <= tail_tolerance
        s = c = 0.0
        m = lo
        out = []
        for v in vs:
            if m <= v:
                top = min(v + 1, last)
                # Each term is w_m p^m (1 - 1/p) with w_m in [0, 1], so it
                # is >= 0, and s starts at +0.0 and only adds such terms:
                # on these operands s >= x is Neumaier's |s| >= |x|
                for x in terms[m - base : top - base]:
                    u = s + x
                    if s >= x:
                        c += (s - u) + x
                    else:
                        c += (x - u) + s
                    s = u
                m = top
            # the n = v+1 term, unless the window ended below it or ends there
            if m == v + 1 and (m - base < len(ws) or self._weights_to(m) > m):
                x = ws[m - base] * shell_char_kernel(p, m, v)
                u = s + x
                if abs(s) >= abs(x):
                    value = u + (c + ((s - u) + x))
                else:
                    value = u + (c + ((x - u) + s))
            else:
                value = s + c
            # shells above n = v+1 vanish identically (third branch of the
            # shell character integral), so the sum is finite upward
            out.append(EvalResult(value, bound, max(v + 2 - lo, 0), converged))
        return out


def _zero_density(law: SemistableLaw, t: float, plan: ShellSumPlan) -> EvalResult:
    # f_t(0) is the full radial integral of the characteristic function
    return integrate_radial(exp_norm_function(law.C * t, law.gamma), law.p, "full", plan)


def shell_densities(
    law: SemistableLaw, t: float, xs, plan: ShellSumPlan = _DEFAULT_PLAN
) -> list[EvalResult]:
    """Shell-mode densities of mu_t at each x of xs, in the order of xs.

    The distinct finite valuations are walked once, in ascending order, on
    one shell table: each density is bit-identical to summing its own
    window [N_MIN, v + 1].  x = 0 takes the full radial integral.
    """
    if not t > 0:
        raise ParameterError("density needs t > 0")
    vs = [_valuation(x, law.p) for x in xs]
    finite = sorted({int(v) for v in vs if v != math.inf})
    at = dict(zip(finite, _ShellTable(law, t).walk(N_MIN, finite, plan.tail_tolerance)))
    f0 = _zero_density(law, t, plan) if math.inf in vs else None
    return [f0 if v == math.inf else at[int(v)] for v in vs]


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
    while n < MAX_TERMS:
        acc.add(coef * big_x * _padic_gamma_closed(p, n * gamma + 1.0))
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
    while j < MAX_TERMS:
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
    if not t > 0:
        raise ParameterError("density needs t > 0")
    if method == "shell":
        return shell_densities(law, t, [x], plan)[0]
    if method != "series":
        raise ParameterError(f"method must be series or shell, got {method!r}")
    v = _valuation(x, law.p)
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
    if not t > 0:
        raise ParameterError("mass_check needs t > 0")
    return _shell_mass(_ShellTable(law, t), _zero_density(law, t, plan), plan)


def _shell_mass(
    table: _ShellTable, f0: EvalResult, plan: ShellSumPlan, va: int = 0, scale: float = 1.0
) -> MassCheck:
    """Radial integral of scale * f(a x) over Q_p, shell by shell in x, with
    v_p(a) = va; the idele scaling check passes scale = |a|_p = p^{-va}.

    Shell m of x reads the density at v_p(a x) = va - m; with n = m - va
    this is the sum of the mass check itself, and multiplying by
    scale = 1.0 is exact, so mass_check keeps its bits.
    """
    p = table.p
    w_unit = 1.0 - 1.0 / p
    acc = CompensatedSum()
    terms = 0
    min_density = f0.value
    min_shell = 0
    eval_bound = 0.0

    # inner shells m <= va: a x has v = va - m >= 0, and every window
    # starts at N_MIN, so one walk gives them all; the density is bounded
    # by f_t(0), so the omitted ball below n_lo carries mass at most
    # scale f_t(0) p^{n_lo - 1}
    n_lo = N_MIN + va
    inner = table.walk(N_MIN, range(0, 1 - N_MIN), plan.tail_tolerance)
    for m in range(n_lo, va + 1):
        fr = inner[va - m]
        if fr.value < min_density:
            min_density, min_shell = fr.value, m
        acc.add(scale * fr.value * norm_float(p, m) * w_unit)
        eval_bound += scale * fr.error_bound * norm_float(p, m) * w_unit
        terms += 1
    inner_tail = scale * (f0.value + f0.error_bound) * norm_float(p, n_lo - 1)

    # outer shells: extend until the terms decay geometrically below tolerance
    prev_term = math.inf
    outer_tail = math.inf
    converged_out = False
    m = va + 1
    while terms < MAX_TERMS:
        # deepen the window with n = m - va so the evaluation error stays
        # below p^{N_MIN - 1} after the measure weight scale p^m = p^n
        fr = table.walk(N_MIN - (m - va), [va - m], plan.tail_tolerance)[0]
        if fr.value < min_density:
            min_density, min_shell = fr.value, m
        term = scale * fr.value * norm_float(p, m) * w_unit
        if not math.isfinite(term):  # p^m overflowed: the terms never fell below tol
            break
        acc.add(term)
        eval_bound += scale * fr.error_bound * norm_float(p, m) * w_unit
        terms += 1
        if abs(term) < plan.tail_tolerance / 10.0 and abs(term) < prev_term:
            ratio = abs(term) / prev_term if prev_term > 0 else 0.0
            ratio = max(ratio, float(p) ** (-table.gamma))
            if ratio < 1.0:
                outer_tail = abs(term) * ratio / (1.0 - ratio)
                converged_out = True
                break
        prev_term = abs(term) if term != 0.0 else prev_term
        m += 1

    bound = inner_tail + outer_tail + eval_bound if converged_out else math.inf
    converged = converged_out and bound <= 10.0 * plan.tail_tolerance
    res = EvalResult(acc.value, bound, terms, converged)
    return MassCheck(res, min_density, min_shell)
