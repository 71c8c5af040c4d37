"""Certified complex-polynomial root finding by norm descent.

The pipeline has three certified stages: a growth certificate confines every
global minimizer of |p| to an explicit square, Lipschitz branch-and-bound
produces a seed with a proven optimality gap, and a strictly norm-decreasing
descent step (which can only terminate at a root) finishes the job.
"""

from . import errors
from .complexmath import Polar, cpow, format_complex, norm, nth_root, parse_complex, polar
from .descent import (
    DescentStep,
    RootResult,
    TraceRow,
    descend,
    descent_step,
    lowest_nonzero_exponent,
    step_parameter,
)
from .gridmin import (
    CertifiedMinimum,
    SquareRegion,
    certified_min,
    lipschitz_bound,
)
from .growth import GrowthCertificate, check_bounds, growth_certificate, minimum_enclosing_square
from .polynomial import (
    Poly,
    as_poly,
    deflate,
    degree,
    evaluate,
    from_roots,
    is_constant,
    max_coeff_norm,
    multiply,
    scale_to_unit_constant,
    shift,
    truncate,
)
from .solver import SolveReport, find_all_roots, find_root

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Polar",
    "norm",
    "polar",
    "nth_root",
    "cpow",
    "parse_complex",
    "format_complex",
    "Poly",
    "as_poly",
    "evaluate",
    "degree",
    "truncate",
    "is_constant",
    "scale_to_unit_constant",
    "shift",
    "max_coeff_norm",
    "deflate",
    "multiply",
    "from_roots",
    "GrowthCertificate",
    "growth_certificate",
    "check_bounds",
    "minimum_enclosing_square",
    "SquareRegion",
    "CertifiedMinimum",
    "lipschitz_bound",
    "certified_min",
    "DescentStep",
    "TraceRow",
    "RootResult",
    "lowest_nonzero_exponent",
    "step_parameter",
    "descent_step",
    "descend",
    "SolveReport",
    "find_root",
    "find_all_roots",
]
