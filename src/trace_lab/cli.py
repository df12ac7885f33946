"""Command line front end.

Every operation in the library is reachable as a subcommand that emits a
JSON (or CSV) report of the shape

    {command, params, results: [{name, value, error_bound, reference,
                                 defect, pass, converged, tolerance}]}

with inputs echoed back as canonical strings, so a report can be replayed
through `replay_report` and must reproduce identical values bit for bit.
Exit codes: 0 success, 2 parameter or capability error, 3 non-convergence,
4 an identity defect exceeded the declared error bounds plus tolerance.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

from .adeles import (
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
)
from .core import (
    CapabilityError,
    EvalResult,
    ParameterError,
    QuadratureConfig,
    ShellSumPlan,
    format_rational,
    parse_number,
)
from .lattice import gaussian_law, potential_identity, stable_law, trace_defect, wrapped_density
from .padic import rational_float
from .padic_integrals import (
    exp_norm_function,
    exp_radial_closed,
    integrate_radial,
    mc_haar_zp,
    norm_float,
    padic_gamma,
    padic_gamma_closed,
)
from .real_stable import cauchy_psf_report, theta, theta_potential_integral
from .semistable import SemistableLaw, density as semistable_density, mass_check, shell_densities

# printed figures reproduced literally in the paper-mode Cauchy report
_PRINTED_DENSITY_SUM = 1.365477
_PRINTED_TRANSFORM_SUM = 2.163953
_PRINTED_TOL = 5e-5


# ---------------------------------------------------------------------------
# report rows
# ---------------------------------------------------------------------------


def _plain(v):
    """Coerce numpy scalars to built-in types for JSON/CSV emission."""
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, (int, float)):
        return float(v)
    # a numpy scalar exists only once numpy is loaded
    import numpy as np

    if isinstance(v, (np.integer, np.floating)):
        return float(v)
    if isinstance(v, np.bool_):
        return bool(v)
    raise ParameterError(f"cannot serialize report value {v!r}")


@dataclass
class ResultRow:
    name: str
    value: float | bool | str
    error_bound: float | None = None
    reference: float | None = None
    defect: float | None = None
    passed: bool | None = None
    converged: bool | None = None
    tolerance: float | None = None

    def __post_init__(self):
        self.value = _plain(self.value)
        self.error_bound = _plain(self.error_bound)
        self.reference = _plain(self.reference)
        self.defect = _plain(self.defect)
        if self.converged is not None:
            self.converged = bool(self.converged)
        if self.passed is not None:
            self.passed = bool(self.passed)
        self.tolerance = _plain(self.tolerance)

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "value": self.value}
        for key, val in (
            ("error_bound", self.error_bound),
            ("reference", self.reference),
            ("defect", self.defect),
            ("pass", self.passed),
            ("converged", self.converged),
            ("tolerance", self.tolerance),
        ):
            if val is not None:
                out[key] = val
        return out


def _info_row(name: str, res: EvalResult) -> ResultRow:
    return ResultRow(name, res.value, error_bound=res.error_bound, converged=res.converged)


def _identity_row(
    name: str,
    value: float,
    bound: float,
    reference: float,
    tol: float,
    converged: bool = True,
) -> ResultRow:
    defect = abs(value - reference)
    return ResultRow(
        name,
        value,
        error_bound=bound,
        reference=reference,
        defect=defect,
        passed=bool(defect <= bound + tol),
        converged=converged,
        tolerance=tol,
    )


def _compare_row(name: str, a: EvalResult, b: EvalResult, tol: float) -> ResultRow:
    """The identity a = b, judged against the sum of both declared bounds."""
    return _identity_row(
        name,
        a.value,
        a.error_bound + b.error_bound,
        b.value,
        tol,
        converged=a.converged and b.converged,
    )


def _bool_row(name: str, flag: bool, passed: bool | None = None) -> ResultRow:
    return ResultRow(name, bool(flag), passed=passed)


def _g(x: float) -> str:
    return format(x, ".12g")


# ---------------------------------------------------------------------------
# parameter maps
# ---------------------------------------------------------------------------


def _number(key: str, kind: str) -> Callable[[str], int | float | Fraction]:
    return partial(parse_number, kind=kind, name=f"--{key}")


class _Params:
    """String parameter map with validation and a canonical echo.

    A key outside the command's flags is refused here, before any work.
    """

    def __init__(self, raw: Mapping[str, str], flags: Sequence[str]):
        self.raw = {str(k): str(v) for k, v in raw.items()}
        self.used: set[str] = set()
        self.echo: dict[str, str] = {}
        _refuse_unknown(set(self.raw) - set(flags))

    def _get(
        self,
        key: str,
        default,
        required: bool,
        parse: Callable[[str], object],
        show: Callable[[object], str] = str,
    ):
        """Parse the flag's string, or str(default) when the flag is absent,
        and echo the value as show(value).  None when the flag is absent,
        optional and has no default."""
        self.used.add(key)
        raw = self.raw.get(key)
        if raw is None:
            if default is None:
                if required:
                    raise ParameterError(f"missing required parameter --{key}")
                return None
            raw = str(default)
        val = parse(raw)
        self.echo[key] = show(val)
        return val

    def str_(
        self,
        key: str,
        default: str | None = None,
        choices: Sequence[str] | None = None,
        required: bool = False,
    ) -> str | None:
        val = self._get(key, default, required, str)
        if choices is not None and val not in choices:
            raise ParameterError(f"--{key} must be one of {', '.join(choices)}; got {val!r}")
        return val

    def float_(
        self,
        key: str,
        default: float | None = None,
        required: bool = False,
        positive: bool = False,
    ) -> float | None:
        val = self._get(key, default, required, _number(key, "float"), repr)
        if positive and val is not None and val <= 0:
            raise ParameterError(f"--{key} must be positive, got {val}")
        return val

    def int_(
        self,
        key: str,
        default: int | None = None,
        required: bool = False,
        minimum: int | None = None,
        maximum: int | None = None,
    ) -> int | None:
        val = self._get(key, default, required, _number(key, "int"))
        if minimum is not None and val is not None and val < minimum:
            raise ParameterError(f"--{key} must be >= {minimum}, got {val}")
        if maximum is not None and val is not None and val > maximum:
            raise ParameterError(f"--{key} must be <= {maximum}, got {val}")
        return val

    def rational_(self, key: str) -> Fraction | None:
        return self._get(key, None, False, _number(key, "rational"), format_rational)

    def _list(
        self,
        key: str,
        default: str,
        parse_one: Callable[[str], object],
        show: Callable[[object], str],
    ) -> list:
        def parse(raw: str) -> list:
            vals = [parse_one(part.strip()) for part in raw.split(",") if part.strip()]
            if not vals:
                raise ParameterError(f"--{key} expects a comma-separated list")
            return vals

        return self._get(key, default, True, parse, lambda vals: ",".join(map(show, vals)))

    def floats_(self, key: str, default: str) -> list[float]:
        return self._list(key, default, _number(key, "float"), repr)

    def ints_(self, key: str, default: str, minimum: int | None = None) -> list[int]:
        vals = self._list(key, default, _number(key, "int"), str)
        if minimum is not None and min(vals) < minimum:
            raise ParameterError(f"--{key} entries must be >= {minimum}")
        return vals

    def rationals_(self, key: str, default: str) -> list[Fraction]:
        return self._list(key, default, _number(key, "rational"), format_rational)

    def strs_(self, key: str, default: str, choices: Sequence[str]) -> list[str]:
        def parse_one(raw: str) -> str:
            if raw not in choices:
                raise ParameterError(f"--{key} entries must be among {', '.join(choices)}; got {raw!r}")
            return raw

        return self._list(key, default, parse_one, str)

    def point_(self, key: str, default: str | None = None, required: bool = False):
        """An adele point spec 'inf=0.4,2=1/2,fill=1'."""
        raw = self.str_(key, default, required=required)
        return None if raw is None else _parse_place_map(key, raw)

    def finish(self) -> None:
        """Refuse a flag of the command that the chosen mode did not read."""
        _refuse_unknown(set(self.raw) - self.used)


def _refuse_unknown(keys: set[str]) -> None:
    if keys:
        raise ParameterError(f"unknown parameter(s): {', '.join(sorted(keys))}")


def _parse_place_map(key: str, raw: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParameterError(f"--{key} entries must look like place=value, got {part!r}")
        place, val = part.split("=", 1)
        place = place.strip()
        if place in out:
            raise ParameterError(f"--{key} gives {place!r} twice")
        out[place] = val.strip()
    if not out:
        raise ParameterError(f"--{key} is empty")
    return out


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_theta(P: _Params) -> list[ResultRow]:
    t = P.float_("t", required=True, positive=True)
    plan = ShellSumPlan(P.float_("tol-shell", ShellSumPlan.tail_tolerance, positive=True))
    tol = P.float_("tol", ShellSumPlan.tail_tolerance, positive=True)
    r = theta(t, plan)
    rinv = theta(1.0 / t, plan)
    rows = [_info_row("theta", r), _info_row("theta_inv", rinv)]
    rows.append(
        _identity_row(
            "functional_equation",
            rinv.value,
            rinv.error_bound + math.sqrt(t) * r.error_bound,
            math.sqrt(t) * r.value,
            tol,
            converged=r.converged and rinv.converged,
        )
    )
    return rows


def _cmd_theta_integral(P: _Params) -> list[ResultRow]:
    quad = QuadratureConfig(P.float_("tol-quad", QuadratureConfig.abs_tol, positive=True))
    tol = P.float_("tol", QuadratureConfig.abs_tol, positive=True)
    lower = theta_potential_integral(quad, "lower")
    upper = theta_potential_integral(quad, "upper")
    rows = [_info_row("lower_piece", lower), _info_row("upper_piece", upper)]
    rows.append(
        _identity_row(
            "pi_over_3",
            lower.value + upper.value,
            lower.error_bound + upper.error_bound,
            math.pi / 3.0,
            tol,
            converged=lower.converged and upper.converged,
        )
    )
    return rows


def _gaussian_pin(P: _Params) -> tuple[float, float]:
    """--kind gaussian fixes (alpha, sigma) = (2, pi): echo both, refuse others."""
    alpha, sigma = P.float_("alpha", 2.0), P.float_("sigma", math.pi)
    if (alpha, sigma) != (2.0, math.pi):
        raise ParameterError("--kind gaussian fixes --alpha 2 and --sigma pi")
    return alpha, sigma


def _lattice_spec(P: _Params):
    kind = P.str_("kind", "gaussian", choices=("gaussian", "stable"))
    d = P.int_("d", 1, minimum=1)
    if kind == "gaussian":
        _gaussian_pin(P)
        return gaussian_law(d), True
    alpha = P.float_("alpha", required=True, positive=True)
    sigma = P.float_("sigma", 1.0, positive=True)
    return stable_law(alpha, sigma, d), alpha in (1.0, 2.0)


def _cmd_psf_check(P: _Params) -> list[ResultRow]:
    spec, closed = _lattice_spec(P)
    t = P.float_("t", 1.0, positive=True)
    xs = tuple(parse_number(part, "exact", "--x") for part in P.str_("x", "0").split(","))
    if len(xs) != spec.d:
        raise ParameterError(f"--x needs {spec.d} coordinates, got {len(xs)}")
    plan = ShellSumPlan(P.float_("tol-shell", ShellSumPlan.tail_tolerance, positive=True))
    tol = P.float_("tol", ShellSumPlan.tail_tolerance if closed else QuadratureConfig.abs_tol, positive=True)
    lat = wrapped_density(spec, t, xs, "lattice", plan)
    sp = wrapped_density(spec, t, xs, "spectral", plan)
    return [
        _info_row("lattice_value", lat),
        _info_row("spectral_value", sp),
        _compare_row("poisson_summation", lat, sp, tol),
    ]


def _cmd_trace_check(P: _Params) -> list[ResultRow]:
    spec, closed = _lattice_spec(P)
    ts = P.floats_("t", "0.1,0.5,1,4")
    plan = ShellSumPlan(P.float_("tol-shell", ShellSumPlan.tail_tolerance, positive=True))
    closed_tol = ShellSumPlan.tail_tolerance if spec.alpha == 2.0 else QuadratureConfig.abs_tol
    tol = P.float_("tol", closed_tol if closed else 1e-6, positive=True)
    rows = []
    for t in ts:
        rep = trace_defect(spec, t, plan)
        rows.append(_compare_row(f"t={_g(t)}", rep.lattice_value, rep.spectral_value, tol))
    return rows


def _cmd_potential_identity(P: _Params) -> list[ResultRow]:
    kind = P.str_("kind", "stable", choices=("stable", "gaussian"))
    if kind == "gaussian":
        alpha, sigma = _gaussian_pin(P)
    else:
        alpha = P.float_("alpha", required=True, positive=True)
        sigma = P.float_("sigma", 1.0, positive=True)
    tol = P.float_("tol", QuadratureConfig.abs_tol, positive=True)
    rep = potential_identity(alpha, sigma)
    rows = [_bool_row("diverged", rep.diverged)]
    if rep.diverged:
        return rows
    rows.append(_info_row("integral", rep.value))
    rows.append(
        _identity_row(
            "zeta_identity",
            rep.value.value,
            rep.value.error_bound,
            rep.reference,
            tol,
            converged=rep.value.converged,
        )
    )
    return rows


def _cmd_padic_gamma(P: _Params) -> list[ResultRow]:
    p = P.int_("p", required=True, minimum=2)
    ss = P.floats_("s", "0.5")
    mode = P.str_("mode", "both", choices=("closed", "shell", "both"))
    if mode != "closed":
        plan = ShellSumPlan(P.float_("tol-shell", ShellSumPlan.tail_tolerance, positive=True))
    tol = P.float_("tol", ShellSumPlan.tail_tolerance, positive=True)
    rows = []
    for s in ss:
        label = f"s={_g(s)}"
        if mode in ("closed", "both"):
            closed = padic_gamma(p, s, "closed")
            rows.append(_info_row(f"{label}:closed", closed))
        if mode in ("shell", "both"):
            if not 0.0 < s < 1.0:
                raise ParameterError("shell oracle needs 0 < s < 1")
            shell = padic_gamma(p, s, "shell_oracle", plan)
            rows.append(_info_row(f"{label}:shell", shell))
        if mode == "both":
            rows.append(
                _identity_row(
                    label,
                    closed.value,
                    shell.error_bound,
                    shell.value,
                    tol,
                    converged=shell.converged,
                )
            )
        refl = padic_gamma_closed(p, s) * padic_gamma_closed(p, 1.0 - s)
        rows.append(_identity_row(f"{label}:reflection", refl, 0.0, 1.0, tol))
    return rows


def _cmd_padic_integral(P: _Params) -> list[ResultRow]:
    p = P.int_("p", required=True, minimum=2)
    gamma = P.float_("gamma", required=True, positive=True)
    tau = P.float_("tau", required=True, positive=True)
    domain = P.str_("domain", "both", choices=("unit_ball", "full", "both"))
    mode = P.str_("mode", "both", choices=("closed", "generic", "both"))
    if mode != "closed":
        plan = ShellSumPlan(P.float_("tol-shell", ShellSumPlan.tail_tolerance, positive=True))
    if mode == "both":
        tol = P.float_("tol", ShellSumPlan.tail_tolerance, positive=True)
    domains = ("unit_ball", "full") if domain == "both" else (domain,)
    rows = []
    for dom in domains:
        if mode in ("closed", "both"):
            closed = exp_radial_closed(p, gamma, tau, dom)
            rows.append(_info_row(f"{dom}:closed", closed))
        if mode in ("generic", "both"):
            generic = integrate_radial(exp_norm_function(tau, gamma), p, dom, plan)
            rows.append(_info_row(f"{dom}:generic", generic))
        if mode == "both":
            rows.append(_compare_row(dom, closed, generic, tol))
    return rows


def _cmd_padic_density(P: _Params) -> list[ResultRow]:
    p = P.int_("p", required=True, minimum=2)
    gamma = P.float_("gamma", required=True, positive=True)
    c_coef = P.float_("C", 1.0, positive=True)
    t = P.float_("t", 1.0, positive=True)
    xs = P.rationals_("x", "1")
    method = P.str_("method", "both", choices=("series", "shell", "both"))
    if method != "shell":
        exponent = P.str_("series-exponent", "n", choices=("n", "n-gamma"))
        variant = "plain" if exponent == "n" else "gamma-power"
    plan = ShellSumPlan(P.float_("tol-shell", ShellSumPlan.tail_tolerance, positive=True))
    if method == "both":
        tol = P.float_("tol", QuadratureConfig.abs_tol, positive=True)
    law = SemistableLaw(p, gamma, c_coef)
    # with both methods the series at x = 0 raises before any later shell
    # is formed, so the shells stop there and the same error is raised
    upto = xs.index(0) if method == "both" and 0 in xs else len(xs)
    shells = shell_densities(law, t, xs[:upto], plan) if method != "series" else []
    shells += [None] * (len(xs) - len(shells))
    rows = []
    for x, shl in zip(xs, shells):
        label = f"x={format_rational(x)}"
        if method in ("series", "both"):
            ser = semistable_density(law, t, x, "series", plan, series_variant=variant)
            rows.append(_info_row(f"{label}:series", ser))
        if method in ("shell", "both"):
            rows.append(_info_row(f"{label}:shell", shl))
        if method == "both":
            rows.append(_compare_row(label, ser, shl, tol))
    return rows


def _cmd_padic_mass(P: _Params) -> list[ResultRow]:
    p = P.int_("p", required=True, minimum=2)
    gamma = P.float_("gamma", required=True, positive=True)
    c_coef = P.float_("C", 1.0, positive=True)
    t = P.float_("t", 1.0, positive=True)
    plan = ShellSumPlan(P.float_("tol-shell", ShellSumPlan.tail_tolerance, positive=True))
    tol = P.float_("tol", ShellSumPlan.tail_tolerance, positive=True)
    mc = mass_check(SemistableLaw(p, gamma, c_coef), t, plan)
    res = mc.result
    rows = [
        _identity_row("mass", res.value, res.error_bound, 1.0, tol, converged=res.converged)
    ]
    neg = max(0.0, -mc.min_density)
    rows.append(
        ResultRow(
            "min_density",
            mc.min_density,
            reference=0.0,
            defect=neg,
            passed=bool(neg <= tol),
            tolerance=tol,
        )
    )
    rows.append(ResultRow("min_density_shell", float(mc.min_density_shell)))
    return rows


# Declared maxima of integer flags, by (subcommand, flag), named in --help;
# a larger value exits 2 before any work.  At each cap on a 2-core machine:
# mc-haar draws in 0.06-0.15 s at any p and either depth cap, and its
# memory does not grow with --count (the sampler draws in fixed chunks;
# the depth only sizes the histogram), rr-check --parts product answers
# in about 3 s without growing its memory, and char-sum --mode paper_bound
# sums its two series in 0.2-0.4 s.
_CAPS = {
    ("mc-haar", "count"): 1 << 22,
    ("mc-haar", "depth"): 1 << 16,
    ("rr-check", "count"): 100_000,
    ("char-sum", "M"): 100_000,
}


def _cmd_mc_haar(P: _Params) -> list[ResultRow]:
    p = P.int_("p", required=True, minimum=2)
    depth = P.int_("depth", 64, minimum=1, maximum=_CAPS["mc-haar", "depth"])
    count = P.int_("count", 100_000, minimum=1, maximum=_CAPS["mc-haar", "count"])
    seed = P.int_("seed", 0, minimum=0)
    gamma = P.float_("gamma", None, positive=True)
    tau = P.float_("tau", None, positive=True)
    if (gamma is None) != (tau is None):
        raise ParameterError("--gamma and --tau must be given together")
    sample = mc_haar_zp(p, depth, count, seed)
    rows = []
    for n in range(0, 4):
        freq, se = sample.shell_frequency(-n)
        ref = (1.0 - 1.0 / p) * norm_float(p, -n)
        rows.append(_identity_row(f"shell_norm=p^-{n}", freq, 3.0 * se, ref, 0.0))
    k = 4
    freq, se = sample.ball_frequency(k)
    rows.append(_identity_row(f"ball_norm<=p^-{k}", freq, 3.0 * se, norm_float(p, -k), 0.0))
    if gamma is not None:
        mean, se = sample.mean_of(exp_norm_function(tau, gamma))
        closed = exp_radial_closed(p, gamma, tau, "unit_ball")
        rows.append(
            _identity_row(
                "mc_integral",
                mean,
                3.0 * se + closed.error_bound,
                closed.value,
                0.0,
                converged=closed.converged,
            )
        )
    return rows


def _cmd_cauchy_report(P: _Params) -> list[ResultRow]:
    convention = P.str_("convention", "consistent", choices=("paper", "consistent"))
    if convention == "consistent":
        tol = P.float_("tol", ShellSumPlan.tail_tolerance, positive=True)
    rep = cauchy_psf_report(convention)
    if convention == "paper":
        return [
            _identity_row(
                "density_sum",
                rep.density_sum.value,
                rep.density_sum.error_bound,
                _PRINTED_DENSITY_SUM,
                _PRINTED_TOL,
            ),
            _identity_row(
                "transform_sum",
                rep.transform_sum.value,
                rep.transform_sum.error_bound,
                _PRINTED_TRANSFORM_SUM,
                _PRINTED_TOL,
            ),
            ResultRow("defect_between_sums", rep.defect),
        ]
    return [
        _info_row("density_sum", rep.density_sum),
        _info_row("transform_sum", rep.transform_sum),
        _compare_row("poisson_summation", rep.density_sum, rep.transform_sum, tol),
    ]


def _cmd_idele_norm(P: _Params) -> list[ResultRow]:
    a_map = P.point_("a")
    diag = P.rational_("diagonal")
    if (a_map is None) == (diag is None):
        raise ParameterError("give exactly one of --a or --diagonal")
    if diag is not None:
        if diag == 0:
            raise ParameterError("--diagonal must be nonzero")
        a = Idele.diagonal(diag)
        norm = idele_norm(a)
        return [
            _identity_row("norm", float(norm), 0.0, 1.0, 0.0),
            _bool_row("product_formula_exact", norm == 1, passed=bool(norm == 1)),
        ]
    a = Idele.from_dict(a_map)
    norm = idele_norm(a)
    rows = [ResultRow("norm", rational_float(norm))]
    if isinstance(norm, Fraction):
        rows.append(ResultRow("norm_exact", format_rational(norm)))
    return rows


def _cmd_adele_eval(P: _Params) -> list[ResultRow]:
    side = P.str_("side", "density", choices=("density", "transform", "char"))
    x = AdelePoint.from_dict(P.point_("x", required=True))
    if side == "char":
        y = AdelePoint.from_dict(P.point_("y", required=True))
        z = adele_char(y, x)
        return [
            ResultRow("char_real", z.real),
            ResultRow("char_imag", z.imag),
            _identity_row("char_modulus", abs(z), 1e-15, 1.0, ShellSumPlan.tail_tolerance),
        ]
    kind = P.str_("kind", "stable", choices=("gaussian", "stable"))
    t = P.float_("t", 1.0, positive=True)
    gamma = P.float_("gamma", 1.0, positive=True)
    c_coef = P.float_("C", 1.0, positive=True)
    s_primes = P.ints_("S", "2", minimum=2)
    if kind == "gaussian":
        alpha, sigma = _gaussian_pin(P)
    else:
        alpha = P.float_("alpha", 1.0, positive=True)
        sigma = P.float_("sigma", 1.0, positive=True)
    spec = make_mu_spec(alpha, sigma, gamma, c_coef, t, s_primes)
    if side == "transform":
        return [_info_row(side, bs_eval(spec, x, side))]
    plan = ShellSumPlan(P.float_("tol-shell", ShellSumPlan.tail_tolerance, positive=True))
    if alpha in (1.0, 2.0):
        # the real density is a closed form: no quadrature
        return [_info_row(side, bs_eval(spec, x, side, plan))]
    quad = QuadratureConfig(P.float_("tol-quad", QuadratureConfig.abs_tol, positive=True))
    return [_info_row(side, bs_eval(spec, x, side, plan, quad))]


def _cmd_rr_check(P: _Params) -> list[ResultRow]:
    parts = P.strs_("parts", "reduction,product,scaling", ("reduction", "product", "scaling"))
    # every flag of the chosen parts is read, and one that no chosen part
    # reads refused, before any part runs
    if "reduction" in parts or "scaling" in parts:
        t = P.float_("t", 1.0, positive=True)
    if "reduction" in parts:
        lams = P.floats_("lams", "0.5,1,2,4")
        height = P.int_("height", 64, minimum=4)
        if min(lams) <= 0:
            raise ParameterError("--lams entries must be positive")
        tol = P.float_("tol", ShellSumPlan.tail_tolerance, positive=True)
    if "product" in parts:
        count = P.int_("count", 100, minimum=1, maximum=_CAPS["rr-check", "count"])
        seed = P.int_("seed", 7, minimum=0)
    if "scaling" in parts:
        gamma = P.float_("gamma", 1.0, positive=True)
        c_coef = P.float_("C", 1.0, positive=True)
        a = Idele.from_dict(P.point_("a", "inf=2,2=1/2"))
        grid_points = P.int_("grid-points", 12, minimum=1)
        tol_shell = P.float_("tol-shell", ShellSumPlan.tail_tolerance, positive=True)
        tol_quad = P.float_("tol-quad", QuadratureConfig.abs_tol, positive=True)
    P.finish()
    rows: list[ResultRow] = []

    if "reduction" in parts:
        for lam in lams:
            rep = adelic_theta_reduction(t, lam, height)
            rows.append(_compare_row(f"reduction_lambda={_g(lam)}", rep.lhs, rep.rhs, tol))

    if "product" in parts:
        rng = random.Random(seed)
        worst = Fraction(0)
        all_exact = True
        for _ in range(count):
            num = rng.randint(1, 10**6) * rng.choice((-1, 1))
            den = rng.randint(1, 10**6)
            q = Fraction(num, den)
            norm = idele_norm(Idele.diagonal(q))
            if norm != 1:
                all_exact = False
                worst = max(worst, abs(norm - 1))
        rows.append(
            ResultRow(
                "product_formula_max_defect",
                float(worst),
                reference=0.0,
                defect=float(worst),
                passed=bool(all_exact),
                tolerance=0.0,
            )
        )

    if "scaling" in parts:
        s_primes = sorted(set(a.support) | {2})
        spec = BruhatSchwartzSpec(
            gaussian_factor(t),
            {q: FiniteFactor(SemistableLaw(q, gamma, c_coef), t) for q in s_primes},
        )
        rep = scale_by_idele(spec, a, QuadratureConfig(tol_quad), ShellSumPlan(tol_shell), grid_points)
        for chk in rep.mass_checks:
            rows.append(
                _identity_row(
                    f"scaled_mass[{chk.label}]",
                    chk.value,
                    chk.error_bound,
                    chk.reference,
                    tol_quad,
                    converged=chk.converged,
                )
            )
        for i, chk in enumerate(rep.fourier_checks):
            rows.append(
                _identity_row(
                    f"fourier[{i}]",
                    chk.value,
                    chk.error_bound,
                    chk.reference,
                    tol_quad,
                    converged=chk.converged,
                )
            )
    return rows


def _cmd_adelic_theta(P: _Params) -> list[ResultRow]:
    t = P.float_("t", 1.0, positive=True)
    lam = P.float_("lam", required=True, positive=True)
    height = P.int_("height", 64, minimum=4)
    tol = P.float_("tol", ShellSumPlan.tail_tolerance, positive=True)
    rep = adelic_theta_reduction(t, lam, height)
    return [
        _info_row("lhs", rep.lhs),
        _info_row("rhs", rep.rhs),
        _compare_row("scaled_summation", rep.lhs, rep.rhs, tol),
    ]


def _cmd_char_sum(P: _Params) -> list[ResultRow]:
    mode = P.str_("mode", "direct", choices=("direct", "paper_bound"))
    alpha = P.float_("alpha", 1.0, positive=True)
    sigma = P.float_("sigma", 1.0, positive=True)
    gamma = P.float_("gamma", 1.0, positive=True)
    c_coef = P.float_("C", 1.0, positive=True)
    t = P.float_("t", 1.0, positive=True)
    s_primes = P.ints_("S", "2", minimum=2)
    spec = make_mu_spec(alpha, sigma, gamma, c_coef, t, s_primes)
    # every flag of the mode is read, and one of the other mode refused,
    # before the sum runs
    if mode == "direct":
        heights = P.ints_("heights", "8,16,32,64,128,256,512", minimum=1)
    else:
        a_coef = P.int_("A", 1)
        m_terms = P.int_("M", 100, minimum=1, maximum=_CAPS["char-sum", "M"])
    P.finish()
    rows: list[ResultRow] = []
    if mode == "direct":
        rep = rational_char_sum(spec, heights, "direct")
        monotone = all(b >= a for a, b in zip(rep.partial_sums, rep.partial_sums[1:]))
        for h, s, dlt in zip(rep.heights, rep.partial_sums, rep.differences):
            rows.append(ResultRow(f"H={h}", s))
            rows.append(ResultRow(f"H={h}:delta", dlt))
        for h, ratio in zip(rep.heights[1:], rep.ratios):
            rows.append(ResultRow(f"H={h}:ratio", ratio))
        rows.append(_bool_row("monotone", monotone, passed=monotone))
        rows.append(ResultRow("terms", float(rep.terms_evaluated)))
    else:
        rep = rational_char_sum(spec, (), "paper_bound", A=a_coef, M=m_terms)
        rows.append(ResultRow("first_series", rep.first_series))
        rows.append(ResultRow("first_last_term", rep.first_last_term))
        rows.append(
            ResultRow("second_series", rep.second_series, error_bound=rep.second_tail_bound)
        )
        exceeds = rep.first_series >= 90.0
        rows.append(_bool_row("first_series_exceeds_90", exceeds, passed=exceeds))
    return rows


# ---------------------------------------------------------------------------
# reproduce-paper
# ---------------------------------------------------------------------------


def _reproduce_requests() -> list[tuple[str, str, dict[str, str]]]:
    reqs: list[tuple[str, str, dict[str, str]]] = []
    for tv in ("0.1", "0.25", "0.5", "1", "2", "4", "10"):
        reqs.append((f"theta[t={tv}]", "theta", {"t": tv}))
    reqs.append(("theta-integral", "theta-integral", {}))
    s_grid = ",".join(f"0.{k}" for k in range(1, 10))
    for pv in ("2", "3", "5"):
        reqs.append((f"gamma[p={pv}]", "padic-gamma", {"p": pv, "s": s_grid, "mode": "both"}))
    for pv in ("2", "3", "5"):
        for gv in ("1/2", "1", "2"):
            for tauv in ("1/2", "1", "2"):
                reqs.append(
                    (
                        f"radial[p={pv},gamma={gv},tau={tauv}]",
                        "padic-integral",
                        {"p": pv, "gamma": gv, "tau": tauv, "domain": "both"},
                    )
                )
    reqs.append(
        (
            "haar-mc",
            "mc-haar",
            {"p": "2", "count": "1000000", "seed": "20260814", "gamma": "1", "tau": "1"},
        )
    )
    for pv in ("2", "3", "5"):
        p = int(pv)
        x_grid = f"1/{p * p},1/{p},1,{p},{p * p}"
        for gv in ("1/2", "1", "2"):
            for ctv in ("1/2", "1", "2"):
                label = f"p={pv},gamma={gv},Ct={ctv}"
                reqs.append(
                    (
                        f"density[{label}]",
                        "padic-density",
                        {"p": pv, "gamma": gv, "C": ctv, "t": "1", "x": x_grid, "method": "both"},
                    )
                )
                reqs.append(
                    (
                        f"mass[{label}]",
                        "padic-mass",
                        {"p": pv, "gamma": gv, "C": ctv, "t": "1"},
                    )
                )
    reqs.append(("trace-gauss", "trace-check", {"kind": "gaussian", "t": "0.1,0.5,1,4"}))
    reqs.append(
        ("trace-cauchy", "trace-check", {"kind": "stable", "alpha": "1", "sigma": "1", "t": "1"})
    )
    reqs.append(
        (
            "trace-stable",
            "trace-check",
            {"kind": "stable", "alpha": "1.5", "sigma": "1", "t": "1", "tol": "1e-6"},
        )
    )
    reqs.append(("potential[alpha=1.5]", "potential-identity", {"alpha": "1.5", "sigma": "1"}))
    reqs.append(("potential[gaussian]", "potential-identity", {"kind": "gaussian"}))
    reqs.append(("potential[alpha=0.8]", "potential-identity", {"alpha": "0.8", "sigma": "1"}))
    reqs.append(("cauchy[paper]", "cauchy-report", {"convention": "paper"}))
    reqs.append(("cauchy[consistent]", "cauchy-report", {"convention": "consistent"}))
    reqs.append(("rr", "rr-check", {}))
    reqs.append(("char-sum[direct]", "char-sum", {"mode": "direct"}))
    reqs.append(("char-sum[bound]", "char-sum", {"mode": "paper_bound"}))
    return reqs


def _cmd_reproduce_paper(P: _Params) -> list[ResultRow]:
    rows: list[ResultRow] = []
    for label, sub, params in _reproduce_requests():
        sub_rows, _ = _run_handler(sub, params)
        for row in sub_rows:
            row.name = f"{label}:{row.name}"
        rows += sub_rows
    return rows


class _Command(NamedTuple):
    handler: Callable[[_Params], list[ResultRow]]
    flags: tuple[str, ...]


# each subcommand's handler and the flags it accepts: _Params and --help
_COMMANDS: dict[str, _Command] = {
    "theta": _Command(_cmd_theta, ("t", "tol-shell", "tol")),
    "theta-integral": _Command(_cmd_theta_integral, ("tol-quad", "tol")),
    "psf-check": _Command(
        _cmd_psf_check, ("kind", "alpha", "sigma", "d", "t", "x", "tol-shell", "tol")
    ),
    "trace-check": _Command(
        _cmd_trace_check, ("kind", "alpha", "sigma", "d", "t", "tol-shell", "tol")
    ),
    "potential-identity": _Command(_cmd_potential_identity, ("kind", "alpha", "sigma", "tol")),
    "padic-gamma": _Command(_cmd_padic_gamma, ("p", "s", "mode", "tol-shell", "tol")),
    "padic-integral": _Command(
        _cmd_padic_integral, ("p", "gamma", "tau", "domain", "mode", "tol-shell", "tol")
    ),
    "padic-density": _Command(
        _cmd_padic_density,
        ("p", "gamma", "C", "t", "x", "method", "series-exponent", "tol-shell", "tol"),
    ),
    "padic-mass": _Command(_cmd_padic_mass, ("p", "gamma", "C", "t", "tol-shell", "tol")),
    "mc-haar": _Command(_cmd_mc_haar, ("p", "depth", "count", "seed", "gamma", "tau")),
    "cauchy-report": _Command(_cmd_cauchy_report, ("convention", "tol")),
    "idele-norm": _Command(_cmd_idele_norm, ("a", "diagonal")),
    "adele-eval": _Command(
        _cmd_adele_eval,
        ("side", "x", "y", "kind", "alpha", "sigma", "gamma", "C", "t", "S", "tol-shell", "tol-quad"),
    ),
    "rr-check": _Command(
        _cmd_rr_check,
        ("parts", "t", "lams", "height", "count", "seed", "a", "gamma", "C", "grid-points",
         "tol-shell", "tol-quad", "tol"),
    ),
    "adelic-theta": _Command(_cmd_adelic_theta, ("t", "lam", "height", "tol")),
    "char-sum": _Command(
        _cmd_char_sum, ("mode", "alpha", "sigma", "gamma", "C", "t", "S", "heights", "A", "M")
    ),
    "reproduce-paper": _Command(_cmd_reproduce_paper, ()),
}


# ---------------------------------------------------------------------------
# request plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommandRequest:
    subcommand: str
    params: Mapping[str, str] = field(default_factory=dict)
    fmt: str = "json"
    output: str | None = None

    def __post_init__(self):
        if self.fmt not in _RENDERERS:
            raise ParameterError(f"format must be json or csv, got {self.fmt!r}")


def _run_handler(sub: str, params: Mapping[str, str]) -> tuple[list[ResultRow], dict[str, str]]:
    """One subcommand's rows and the canonical echo of its params."""
    command = _COMMANDS.get(sub)
    if command is None:
        raise ParameterError(f"unknown subcommand {sub!r}")
    P = _Params(params, command.flags)
    rows = command.handler(P)
    P.finish()
    return rows, P.echo


def run_request(request: CommandRequest) -> tuple[int, dict]:
    """Dispatch a request; returns (exit code, report dict)."""
    rows, echo = _run_handler(request.subcommand, request.params)
    report = {
        "command": request.subcommand,
        "params": echo,
        "results": [row.to_dict() for row in rows],
    }
    if any(row.passed is False for row in rows):
        return 4, report
    if any(row.converged is False for row in rows):
        return 3, report
    return 0, report


def replay_report(report: Mapping) -> tuple[int, dict]:
    """Re-run a report's command from its echoed params."""
    try:
        sub = report["command"]
        params = dict(report["params"])
    except (KeyError, TypeError) as exc:
        raise ParameterError("report must carry 'command' and 'params'") from exc
    return run_request(CommandRequest(sub, params))


def _render_json(report: Mapping) -> str:
    return json.dumps(report, indent=2) + "\n"


_CSV_COLUMNS = ("name", "value", "error_bound", "reference", "defect", "pass", "converged", "tolerance")


def _csv_cell(val) -> str:
    if val is None:
        return ""
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return repr(val)
    return str(val)


def _render_csv(report: Mapping) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in report["results"]:
        writer.writerow([_csv_cell(row.get(col)) for col in _CSV_COLUMNS])
    return buf.getvalue()


_RENDERERS: dict[str, Callable[[Mapping], str]] = {"json": _render_json, "csv": _render_csv}


def render_report(report: Mapping, fmt: str = "json") -> str:
    """The report as text; fmt is one of _RENDERERS, checked with the request."""
    return _RENDERERS[fmt](report)


def _emit_error(code: int, message: str) -> None:
    print(json.dumps({"code": code, "message": message}), file=sys.stderr)


_USAGE = "usage: trace-lab SUBCOMMAND [--flag value ...] [--format json|csv] [--output PATH]"


def _parse_argv(argv: Sequence[str]) -> CommandRequest:
    if not argv or argv[0] in ("-h", "--help"):
        raise _HelpRequested(_usage_text())
    sub = argv[0]
    if sub not in _COMMANDS:
        raise ParameterError(f"unknown subcommand {sub!r}; see --help")
    params: dict[str, str] = {}
    fmt = "json"
    output: str | None = None
    i = 1
    while i < len(argv):
        tok = argv[i]
        if tok in ("-h", "--help"):
            raise _HelpRequested(_usage_text(sub))
        if not tok.startswith("--"):
            raise ParameterError(f"expected a --flag, got {tok!r}")
        if "=" in tok:
            key, val = tok[2:].split("=", 1)
        else:
            key = tok[2:]
            i += 1
            if i >= len(argv):
                raise ParameterError(f"flag --{key} needs a value")
            val = argv[i]
        if key == "format":
            fmt = val
        elif key == "output":
            output = val
        elif key in params:
            raise ParameterError(f"duplicate flag --{key}")
        else:
            params[key] = val
        i += 1
    return CommandRequest(sub, params, fmt, output)


class _HelpRequested(Exception):
    pass


def _usage_text(sub: str | None = None) -> str:
    if sub is None:
        lines = [_USAGE, "", "subcommands:"]
        for name, command in _COMMANDS.items():
            flags = "--" + ", --".join(command.flags) if command.flags else "(no flags)"
            lines.append(f"  {name:20s} {flags}")
        lines += ["", "limits:"] + [f"  {name:20s} --{flag} <= {cap}" for (name, flag), cap in _CAPS.items()]
        return "\n".join(lines)
    text = f"usage: trace-lab {sub} " + " ".join(f"[--{f} VALUE]" for f in _COMMANDS[sub].flags)
    caps = [f"--{flag} is at most {cap}" for (name, flag), cap in _CAPS.items() if name == sub]
    return "\n".join([text, *caps])


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        request = _parse_argv(args)
        code, report = run_request(request)
    except _HelpRequested as help_msg:
        print(help_msg)
        return 0
    except (ParameterError, CapabilityError) as exc:
        _emit_error(2, str(exc))
        return 2
    text = render_report(report, request.fmt)
    if request.output:
        with open(request.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if code == 3:
        _emit_error(3, "one or more results did not converge")
    elif code == 4:
        _emit_error(4, "one or more defects exceeded declared bounds plus tolerance")
    return code


if __name__ == "__main__":
    sys.exit(main())
