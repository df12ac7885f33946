"""Adeles and ideles: the product formula, theta as a special case, scaling.

Working objects are finite-support maps with a fill value, so diagonal
embeddings of rationals are exact.  Scaling a factorizable function by
an idele multiplies the mass by nothing (after the norm factor) and
composes with the Fourier transform the way the norm predicts.
"""
import random
from fractions import Fraction

from trace_lab import (
    AdelePoint,
    Idele,
    adele_char,
    adelic_theta_reduction,
    idele_norm,
    make_mu_spec,
    scale_by_idele,
)

rng = random.Random(2026)
print("product formula |q|_inf * prod_p |q|_p = 1, exactly:")
for _ in range(5):
    q = Fraction(rng.randint(1, 10**6) * rng.choice((-1, 1)), rng.randint(1, 10**6))
    print(f"  q = {q}: norm = {idele_norm(Idele.diagonal(q))}")

# the global character is trivial on the diagonal
q, r = Fraction(987, 31), Fraction(-44, 7)
print(f"\nadele_char(diag({q}), diag({r})) = {adele_char(AdelePoint.diagonal(q), AdelePoint.diagonal(r)):.3f}")
x = AdelePoint(0.0, {2: Fraction(1, 2)})
print(f"adele_char(diag(1), (0; 1/2 at 2)) = {adele_char(AdelePoint.diagonal(Fraction(1)), x):.3f}")

# S = {}: summing the gaussian at t = 1 over the diagonal of Q collapses to
# theta, and scaling by the idele (lambda, 1, 1, ...) is the functional
# equation
print("\nscaled summation over the diagonal:")
for lam in (0.5, 1.0, 2.0, 4.0):
    rep = adelic_theta_reduction(1.0, lam)
    print(f"  lambda={lam:<4g} lhs {rep.lhs.value:.15f}  rhs {rep.rhs.value:.15f}")

# a spec with a finite factor at p=2, scaled by a = (2, 1/2)
mu = make_mu_spec(2.0, 3.141592653589793, 1.0, 1.0, 1.0, [2])
a = Idele(2.0, {2: Fraction(1, 2)})
rep = scale_by_idele(mu, a, grid_points=8)
print(f"\nidele a = (2; 1/2 at 2), ||a|| = {idele_norm(a)}")
for chk in rep.mass_checks:
    print(f"  mass[{chk.label}] = {chk.value:.12f} (bound {chk.error_bound:.1e})")
print(f"  worst Fourier-scaling defect over {len(rep.fourier_checks)} grid points: "
      f"{max(chk.defect for chk in rep.fourier_checks):.2e}")
