"""Shared plumbing: evaluation results, truncation plans, compensated sums.

Every series evaluator in the package reports its value together with a
truncation-error bound, the number of terms consumed, and a convergence
flag, so that identity checks can compare defects against declared bounds
instead of bare tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np


class TraceLabError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(TraceLabError):
    """A precondition on the inputs is violated (CLI exit code 2)."""


class CapabilityError(TraceLabError):
    """The requested evaluation mode does not exist for these inputs."""


@dataclass(frozen=True)
class EvalResult:
    """A numerical value with a truncation-error bound and diagnostics."""

    value: float
    error_bound: float
    terms_used: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "error_bound": self.error_bound,
            "terms_used": self.terms_used,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class ShellSumPlan:
    """Truncation window and tail policy for shell and lattice series.

    n_min/n_max bound the norm exponents (or lattice radii) visited; the
    accumulation stops early once a rigorous tail bound falls below
    tail_tolerance.  For monotone integrands the reported error bound
    dominates the true omitted tail.
    """

    n_min: int = -60
    n_max: int = 60
    tail_tolerance: float = 1e-12
    max_terms: int = 200_000

    def __post_init__(self):
        if self.n_min > self.n_max:
            raise ParameterError("ShellSumPlan requires n_min <= n_max")
        if self.tail_tolerance <= 0:
            raise ParameterError("tail_tolerance must be positive")
        if self.max_terms < 1:
            raise ParameterError("max_terms must be >= 1")


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute tolerance and panel policy for the quadrature routines."""

    abs_tol: float = 1e-8
    panel_limit: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ParameterError("quadrature tolerances must be positive")
        if self.panel_limit < 10:
            raise ParameterError("panel_limit must be >= 10")


class CompensatedSum:
    """Neumaier compensated accumulator with a fixed reduction order.

    Series are accumulated term by term in a fixed index order so results
    are bit-reproducible run to run.  extend(xs) is repeated add(x) bit
    for bit: np.add.accumulate adds in sequence with one rounding a step,
    as add does, and each correction depends only on the partial sums
    before and after its term, chosen by the same test |prev| >= |x|.
    """

    __slots__ = ("_s", "_c")

    def __init__(self):
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    def extend(self, xs: Iterable[float]) -> None:
        """add(x) for each x of xs in order, on arrays."""
        if not isinstance(xs, (np.ndarray, list, tuple)):
            xs = list(xs)
        x = np.asarray(xs, dtype=np.float64)
        # Python float arithmetic warns about nothing (inf - inf is nan)
        with np.errstate(all="ignore"):
            s = np.empty(x.size + 1)
            s[0] = self._s
            s[1:] = x
            np.add.accumulate(s, out=s)
            prev, t = s[:-1], s[1:]
            big = np.abs(prev) >= np.abs(x)
            c = np.where(big, prev, x)
            c -= t
            c += np.where(big, x, prev)
            self._s = float(s[-1])
            s[0] = self._c
            s[1:] = c
            np.add.accumulate(s, out=s)
        self._c = float(s[-1])

    @property
    def value(self) -> float:
        return self._s + self._c


def comp_sum(terms: Iterable[float]) -> float:
    acc = CompensatedSum()
    acc.extend(terms)
    return acc.value


def product_results(parts: Iterable[EvalResult]) -> EvalResult:
    """Product of component results with first-order bound propagation."""
    parts = list(parts)
    value = 1.0
    for r in parts:
        value *= r.value
    bound = 0.0
    for i, r in enumerate(parts):
        other = 1.0
        for j, s in enumerate(parts):
            if j != i:
                other *= abs(s.value) + s.error_bound
        bound += r.error_bound * other
    terms = sum(r.terms_used for r in parts)
    return EvalResult(value, bound, terms, all(r.converged for r in parts))


# The 12 Miller-Rabin bases 2..37 below decide primality for every n under
# psi_12 (Jiang & Deng, Math. Comp. 83, 2014); psi_12 itself is the
# composite 399165290221 * 798330580441, which all 12 bases pass.
PROVEN_PRIME_LIMIT = 318665857834031151167461
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2..37: exact for n < PROVEN_PRIME_LIMIT."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n < 37 * 37:
        # no prime factor up to 37, so none up to sqrt(n)
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ParameterError(f"p must be a prime integer, got {p!r}")
    if p >= PROVEN_PRIME_LIMIT:
        raise ParameterError(
            f"p={p} is outside the proven range of the primality test (p < {PROVEN_PRIME_LIMIT})"
        )
    return p


_EXPECTS = {"int": "an integer", "rational": "a rational 'a/b'", "float": "a number", "exact": "a number"}


def parse_number(text: str, kind: str = "float", name: str = "value") -> int | float | Fraction:
    """Read a number given as text from outside the package.

    kind "int" reads an integer and "rational" an exact 'a/b' (or a
    decimal).  "float" reads a decimal, or an 'a/b' rounded once; "exact"
    reads the same but keeps an 'a/b' as a Fraction.  A malformed or
    non-finite value raises ParameterError naming `name`.
    """
    try:
        if kind == "int":
            return int(text)
        if kind == "rational" or (kind == "exact" and "/" in text):
            return Fraction(text)
        val = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParameterError(f"{name} expects {_EXPECTS[kind]}, got {text!r}") from exc
    if not math.isfinite(val):
        raise ParameterError(f"{name} must be finite, got {text!r}")
    return val


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse the 'a/b' (or 'a') wire format used by the CLI and reports."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    return parse_number(text, "rational")


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
