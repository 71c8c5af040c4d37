"""Certified complex-polynomial root finding by norm descent.

The pipeline has three certified stages: a growth certificate confines every
global minimizer of |p| to an explicit square, Lipschitz branch-and-bound
produces a seed with a proven optimality gap, and a strictly norm-decreasing
descent step (which can only terminate at a root) finishes the job.  The
modules follow the proof: complexmath (norm and principal roots), polynomial
(coefficient lists), growth (the enclosure square), gridmin (the minimum on
a square), descent (d'Alembert's step) and solver (the whole pipeline).
"""

from . import errors
from .complexmath import format_complex, norm, nth_root, parse_complex
from .descent import (
    DescentStep,
    RootResult,
    TraceRow,
    descend,
    descent_step,
    step_parameter,
)
from .gridmin import (
    CertifiedMinimum,
    SquareRegion,
    certified_min,
    lipschitz_bound,
)
from .growth import GrowthCertificate, check_bounds, growth_certificate
from .polynomial import (
    Poly,
    as_poly,
    deflate,
    degree,
    evaluate,
    from_roots,
    max_coeff_norm,
    shift,
    truncate,
)
from .solver import SolveReport, find_all_roots, find_root

__version__ = "0.1.0"

__all__ = [
    "errors",
    "norm",
    "nth_root",
    "parse_complex",
    "format_complex",
    "Poly",
    "as_poly",
    "evaluate",
    "degree",
    "truncate",
    "shift",
    "max_coeff_norm",
    "deflate",
    "from_roots",
    "GrowthCertificate",
    "growth_certificate",
    "check_bounds",
    "SquareRegion",
    "CertifiedMinimum",
    "lipschitz_bound",
    "certified_min",
    "DescentStep",
    "TraceRow",
    "RootResult",
    "step_parameter",
    "descent_step",
    "descend",
    "SolveReport",
    "find_root",
    "find_all_roots",
]
