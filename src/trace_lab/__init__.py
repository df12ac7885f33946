"""trace-lab: numerical checks for Poisson summation and trace identities
over the reals, the p-adics, and the adeles, with declared error bounds."""

from .core import (
    CapabilityError,
    EvalResult,
    ParameterError,
    QuadratureConfig,
    ShellSumPlan,
    TraceLabError,
    format_rational,
    parse_rational,
)
from .padic import (
    PAdicNorm,
    char_qp,
    frac_part,
    padic_norm,
    prime_support,
    product_formula_value,
    valuation,
)
from .padic_integrals import (
    HaarSample,
    ball_char_integral,
    exp_norm_function,
    exp_radial_closed,
    integrate_radial,
    mc_haar_zp,
    padic_gamma,
    padic_gamma_closed,
    padic_gamma_reflection_defect,
    shell_char_integral,
    shell_measure,
)
from .semistable import MassCheck, SemistableLaw, char_fn, density, mass_check, shell_densities
from .real_stable import (
    PsfSumReport,
    StableSymbol,
    cauchy_psf_report,
    gaussian_density,
    stable_density,
    theta,
    theta_functional_defect,
    theta_potential_integral,
)
from .lattice import (
    PotentialReport,
    TraceReport,
    gaussian_law,
    potential_identity,
    spectral_trace,
    stable_law,
    trace_defect,
    wrapped_density,
)
from .adeles import (
    AdelePoint,
    BruhatSchwartzSpec,
    FiniteFactor,
    Idele,
    RealFactor,
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

__version__ = "0.1.0"

# the CLI names are loaded on first use: importing trace_lab.cli here would
# make `python -m trace_lab.cli` find the module already imported
_CLI_NAMES = ("CommandRequest", "replay_report", "run_request")


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdelePoint",
    "BruhatSchwartzSpec",
    "CapabilityError",
    "CommandRequest",
    "EvalResult",
    "FiniteFactor",
    "HaarSample",
    "Idele",
    "MassCheck",
    "PAdicNorm",
    "ParameterError",
    "PotentialReport",
    "PsfSumReport",
    "QuadratureConfig",
    "RealFactor",
    "SemistableLaw",
    "ShellSumPlan",
    "StableSymbol",
    "TraceLabError",
    "TraceReport",
    "adele_char",
    "adelic_theta_reduction",
    "ball_char_integral",
    "bs_eval",
    "cauchy_psf_report",
    "char_fn",
    "char_qp",
    "density",
    "exp_norm_function",
    "exp_radial_closed",
    "format_rational",
    "frac_part",
    "gaussian_density",
    "gaussian_factor",
    "gaussian_law",
    "idele_norm",
    "integrate_radial",
    "make_mu_spec",
    "mass_check",
    "mc_haar_zp",
    "padic_gamma",
    "padic_gamma_closed",
    "padic_gamma_reflection_defect",
    "padic_norm",
    "parse_rational",
    "potential_identity",
    "prime_support",
    "product_formula_value",
    "rational_char_sum",
    "replay_report",
    "run_request",
    "scale_by_idele",
    "scale_point",
    "shell_char_integral",
    "shell_densities",
    "shell_measure",
    "spectral_trace",
    "stable_density",
    "stable_factor",
    "stable_law",
    "theta",
    "theta_functional_defect",
    "theta_potential_integral",
    "trace_defect",
    "valuation",
    "wrapped_density",
]
