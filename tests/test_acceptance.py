"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines directly;
under plain `pytest -v` the per-test PASSED/FAILED verdicts carry the
same information.  Every tolerance below is asserted as stated, against
values computed here, never against values computed by the test itself
twice.  Time budgets are enforced per criterion.
"""
from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np
from scipy import special

import trace_lab as tl
from trace_lab.cli import CommandRequest, run_request

COTH_HALF = 2.16395341373865285  # coth(1/2)
COTH_PI = 1.00374187319732129  # coth(pi)
TWO_ZETA_1_5 = 5.22475069737097669  # 2 zeta(3/2)


class _Criterion:
    def __init__(self, number: int, label: str, budget: float):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None
        verdict = "PASS" if ok else "FAIL"
        print(f"[{verdict}] criterion {self.number}: {self.label} ({elapsed:.2f}s)")
        if ok:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_theta_functional_equation():
    with _Criterion(1, "theta functional equation", 1.0):
        for t in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0):
            assert tl.theta_functional_defect(t) <= 1e-12, t


def test_criterion_02_theta_potential_integral():
    with _Criterion(2, "theta potential integral = pi/3", 5.0):
        res = tl.theta_potential_integral()
        assert res.converged
        assert abs(res.value - 1.047198) <= 1e-6
        assert abs(res.value - math.pi / 3.0) <= 1e-6


def test_criterion_03_padic_gamma():
    with _Criterion(3, "p-adic gamma closed form vs shell oracle", 1.0):
        for p in (2, 3, 5):
            for k in range(1, 10):
                s = k / 10.0
                closed = tl.padic_gamma(p, s, "closed").value
                shell = tl.padic_gamma(p, s, "shell_oracle")
                assert shell.converged
                assert abs(closed - shell.value) <= 1e-10, (p, s)
                assert tl.padic_gamma_reflection_defect(p, s) <= 1e-14, (p, s)


def test_criterion_04_radial_integrals():
    with _Criterion(4, "radial integral closed forms vs generic and MC", 30.0):
        for p in (2, 3, 5):
            for gamma in (0.5, 1.0, 2.0):
                for tau in (0.5, 1.0, 2.0):
                    g = tl.exp_norm_function(tau, gamma)
                    for dom in ("unit_ball", "full"):
                        closed = tl.exp_radial_closed(p, gamma, tau, dom)
                        generic = tl.integrate_radial(g, p, dom)
                        assert generic.converged and closed.converged
                        assert abs(closed.value - generic.value) <= 1e-12, (p, gamma, tau, dom)
        for p in (2, 3, 5):
            sample = tl.mc_haar_zp(p, count=10**6, seed=20260814)
            for gamma in (0.5, 1.0, 2.0):
                for tau in (0.5, 1.0, 2.0):
                    mean, se = sample.mean_of(lambda u: np.exp(-tau * np.power(u, gamma)))
                    ref = tl.exp_radial_closed(p, gamma, tau, "unit_ball").value
                    assert abs(mean - ref) <= 3.0 * se, (p, gamma, tau, mean, ref, se)


def test_criterion_05_semistable_series_vs_shell():
    with _Criterion(5, "semistable density series vs shell inversion", 10.0):
        for p in (2, 3, 5):
            for gamma in (0.5, 1.0, 2.0):
                for ct in (0.5, 1.0, 2.0):
                    law = tl.SemistableLaw(p, gamma, ct)
                    for k in (-2, -1, 0, 1, 2):
                        x = Fraction(p) ** (-k)  # |x|_p = p^k
                        ser = tl.density(law, 1.0, x, "series")
                        shl = tl.density(law, 1.0, x, "shell")
                        assert ser.converged and shl.converged, (p, gamma, ct, k)
                        rel = abs(ser.value - shl.value) / max(abs(shl.value), 1e-300)
                        assert rel <= 1e-8, (p, gamma, ct, k, rel)
        law = tl.SemistableLaw(2, 1.0, 1.0)
        for method in ("series", "shell"):
            v = tl.density(law, 1.0, Fraction(1), method).value
            assert abs(v - 0.41271) < 5e-6, (method, v)


def test_criterion_06_semistable_mass():
    with _Criterion(6, "semistable density has mass 1 and is nonnegative", 5.0):
        for p in (2, 3, 5):
            for gamma in (0.5, 1.0, 2.0):
                for ct in (0.5, 1.0, 2.0):
                    mc = tl.mass_check(tl.SemistableLaw(p, gamma, ct), 1.0)
                    assert mc.result.converged, (p, gamma, ct)
                    assert abs(mc.result.value - 1.0) <= 1e-10, (p, gamma, ct, mc.result.value)
                    assert mc.min_density >= -1e-12, (p, gamma, ct, mc.min_density)


def test_criterion_07_probabilistic_trace_formula():
    with _Criterion(7, "probabilistic trace formula", 30.0):
        gauss = tl.gaussian_law()
        for t in (0.1, 0.5, 1.0, 4.0):
            rep = tl.trace_defect(gauss, t)
            assert rep.defect <= 1e-10, (t, rep.defect)
        cauchy = tl.trace_defect(tl.stable_law(1.0, 1.0), 1.0)
        assert abs(cauchy.lattice_value.value - COTH_HALF) <= 1e-8
        assert abs(cauchy.spectral_value.value - COTH_HALF) <= 1e-8
        assert cauchy.defect <= 1e-8
        stab = tl.trace_defect(tl.stable_law(1.5, 1.0), 1.0)
        assert stab.defect <= 1e-6, stab.defect


def test_criterion_08_potential_time_integral():
    with _Criterion(8, "time integral of the centered trace", 5.0):
        rep = tl.potential_identity(1.5, 1.0)
        assert not rep.diverged
        assert abs(rep.value.value - TWO_ZETA_1_5) <= 1e-3
        assert abs(rep.reference - 2.0 * float(special.zeta(1.5, 1))) <= 1e-12
        gauss = tl.potential_identity(2.0, math.pi)
        assert not gauss.diverged
        assert abs(gauss.value.value - math.pi / 3.0) <= 1e-6
        assert tl.potential_identity(0.8, 1.0).diverged


def test_criterion_09_cauchy_report():
    with _Criterion(9, "printed Cauchy sums under both conventions", 1.0):
        paper = tl.cauchy_psf_report("paper")
        assert round(paper.density_sum.value, 4) == round(1.365477, 4)
        assert round(paper.transform_sum.value, 4) == round(2.163953, 4)
        assert paper.defect > 0.7  # the printed failure, reproduced as printed
        cons = tl.cauchy_psf_report("consistent")
        assert abs(cons.density_sum.value - COTH_PI) <= 1e-9
        assert abs(cons.transform_sum.value - COTH_PI) <= 1e-9
        assert cons.defect <= 1e-9


def test_criterion_10_adelic_theta_and_scaling():
    with _Criterion(10, "adelic theta reduction, scaled mass, product formula", 5.0):
        for lam in (0.5, 1.0, 2.0, 4.0):
            rep = tl.adelic_theta_reduction(1.0, lam)
            assert rep.defect <= 1e-12, (lam, rep.defect)
        spec = tl.BruhatSchwartzSpec(
            tl.gaussian_factor(1.0),
            {2: tl.FiniteFactor(tl.SemistableLaw(2, 1.0, 1.0), 1.0)},
        )
        scaled = tl.scale_by_idele(spec, tl.Idele(2.0, {2: Fraction(1, 2)}), grid_points=4)
        for chk in scaled.mass_checks:
            assert abs(chk.value - chk.reference) <= 1e-9, chk
        import random

        rng = random.Random(99)
        for _ in range(100):
            q = Fraction(rng.randint(1, 10**9) * rng.choice((-1, 1)), rng.randint(1, 10**9))
            assert tl.idele_norm(tl.Idele.diagonal(q)) == 1, q


def test_criterion_11_rational_char_sums():
    with _Criterion(11, "closing character-sum computation", 10.0):
        spec = tl.make_mu_spec(1.0, 1.0, 1.0, 1.0, 1.0, [2])
        bound = tl.rational_char_sum(spec, (), "paper_bound", A=1, M=100)
        assert bound.first_series >= 90.0
        assert bound.first_last_term > 0.99  # terms tend to 1
        assert abs(bound.second_series - 0.153987) <= 1e-6
        direct = tl.rational_char_sum(spec, (8, 16, 32, 64, 128, 256, 512), "direct")
        assert direct.heights == (8, 16, 32, 64, 128, 256, 512)
        sums = direct.partial_sums
        assert all(b >= a for a, b in zip(sums, sums[1:])), "partial sums not monotone"
        # convergence diagnostic: the increments shrink instead of settling
        # near a positive constant, so the printed divergence is not visible
        # at desk scale
        assert direct.differences[-1] < 1e-6
        assert direct.ratios[-1] < 0.5
        repeat = tl.rational_char_sum(spec, (8, 16, 32, 64, 128, 256, 512), "direct")
        assert repeat.partial_sums == sums  # reproducible


def test_criterion_12_invariant_suites():
    with _Criterion(12, "invariant suites", 30.0):
        import random

        rng = random.Random(4711)

        def rand_q(allow_zero=True):
            num = rng.randint(-400, 400)
            if not allow_zero and num == 0:
                num = 1
            return Fraction(num, rng.randint(1, 400))

        # ultrametric inequality, with equality off the diagonal
        for _ in range(300):
            p = rng.choice((2, 3, 5, 7))
            x, y = rand_q(), rand_q()
            nx, ny = tl.padic_norm(x, p).as_fraction(), tl.padic_norm(y, p).as_fraction()
            ns = tl.padic_norm(x + y, p).as_fraction()
            assert ns <= max(nx, ny)
            if nx != ny:
                assert ns == max(nx, ny)

        # product formula, exactly
        for _ in range(200):
            q = rand_q(allow_zero=False)
            assert tl.product_formula_value(q) == 1

        # character additivity, exactly at the fractional-part level
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            a, b = rand_q(), rand_q()
            lhs = tl.frac_part(a + b, p)
            rhs = tl.frac_part(a, p) + tl.frac_part(b, p)
            assert (lhs - rhs) % 1 == 0

        # semistable scaling identity: f_t(x) = f_{t/p^gamma}(p x) / p
        for p in (2, 3):
            for gamma in (0.5, 1.0, 2.0):
                law = tl.SemistableLaw(p, gamma, 1.0)
                for k in (-1, 0, 1):
                    x = Fraction(p) ** k
                    lhs = tl.density(law, 1.0, x, "shell").value
                    rhs = tl.density(law, float(p) ** -gamma, p * x, "shell").value / p
                    assert abs(lhs - rhs) <= 1e-12, (p, gamma, k)

        # max at the identity
        law = tl.SemistableLaw(2, 1.0, 1.0)
        f0 = tl.density(law, 1.0, Fraction(0), "shell").value
        for k in range(-3, 4):
            assert tl.density(law, 1.0, Fraction(2) ** k, "shell").value <= f0 + 1e-12
        for spec in (tl.gaussian_law(), tl.stable_law(1.0, 1.0), tl.stable_law(1.5, 1.0)):
            w0 = tl.wrapped_density(spec, 1.0, (0.0,), "spectral").value
            for u in (0.1, 0.25, 0.5):
                assert tl.wrapped_density(spec, 1.0, (u,), "spectral").value <= w0 + 1e-12

        # wrapped-density normalization over one period (Simpson)
        for spec in (tl.gaussian_law(), tl.stable_law(1.0, 1.0)):
            xs = np.linspace(0.0, 1.0, 201)
            ys = [tl.wrapped_density(spec, 0.7, (float(u),), "spectral").value for u in xs]
            total = float(np.trapezoid(ys, xs)) if hasattr(np, "trapezoid") else float(np.trapz(ys, xs))
            assert abs(total - 1.0) <= 1e-6, (spec, total)

        # heat equation d_t f = (1/4pi) d_x^2 f: finite-difference order >= 1.8
        def residual(f, t, x, h):
            dt = (f(t + h, x) - f(t - h, x)) / (2.0 * h)
            dxx = (f(t, x + h) - 2.0 * f(t, x) + f(t, x - h)) / (h * h)
            return abs(dt - dxx / (4.0 * math.pi))

        def order(f, t, x):
            r1 = residual(f, t, x, 1e-2)
            r2 = residual(f, t, x, 5e-3)
            return math.log2(r1 / r2)

        assert order(tl.gaussian_density, 0.7, 0.3) >= 1.8
        wrap = lambda t, x: tl.wrapped_density(tl.gaussian_law(), t, (x,), "spectral").value
        assert order(wrap, 0.7, 0.3) >= 1.8


def test_acceptance_reproduce_paper_cli():
    """The consolidated CLI run is green end to end."""
    start = time.perf_counter()
    code, rep = run_request(CommandRequest("reproduce-paper", {}))
    elapsed = time.perf_counter() - start
    assert code == 0, json.dumps(
        [r for r in rep["results"] if r.get("pass") is False or r.get("converged") is False][:5],
        indent=2,
    )
    assert all(r.get("pass") is not False for r in rep["results"])
    print(f"[PASS] reproduce-paper: {len(rep['results'])} rows green ({elapsed:.2f}s)")
