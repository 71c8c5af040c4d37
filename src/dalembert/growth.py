"""Norm growth certificates: radii beyond which the leading term dominates.

For a non-constant polynomial with leading coefficient a_n, every z with
norm(z) >= threshold_radius satisfies the sandwich

    (1/2) |a_n| |z|^n  <=  |p(z)|  <=  (3/2) |a_n| |z|^n,

and every z with norm(z) >= enclosure_radius additionally satisfies
|p(z)| >= |p(0)|.  The square [-R, R]^2 with R = enclosure_radius therefore
traps every global minimizer of |p|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexmath import norm
from .errors import BelowThreshold, NotApplicableToConstant
from .gridmin import SquareRegion
from .polynomial import evaluate, max_coeff_norm, truncate

__all__ = [
    "GrowthCertificate",
    "growth_certificate",
    "check_bounds",
    "BOUND_SLACK",
]

# The sandwich is strict over exact reals; floats can graze equality.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class GrowthCertificate:
    """Radii activating the growth bounds for one polynomial.

    threshold_radius activates both halves of the sandwich;
    enclosure_radius additionally forces |p(z)| >= |p(0)| outside it.
    lead_norm is |a_n|, sub_max the largest |a_i| with i < n.
    """

    threshold_radius: float
    enclosure_radius: float
    lead_norm: float
    sub_max: float
    degree: int

    @property
    def square(self) -> SquareRegion:
        """The square [-R, R]^2, R = enclosure_radius: it traps every global minimizer."""
        r = self.enclosure_radius
        return SquareRegion(complex(-r, -r), 2.0 * r)


def growth_certificate(p) -> GrowthCertificate:
    """Certificate for a non-constant polynomial (computed on its normalized form).

    threshold_radius = max(1, 2 A n / |a_n|) makes A n <= (|a_n|/2) |z| hold
    together with |z| >= 1, which is all the sandwich needs;
    enclosure_radius additionally dominates 2 |a_0| / |a_n|.
    """
    q = truncate(p)
    if len(q) < 2:
        raise NotApplicableToConstant("growth bounds require a non-constant polynomial")
    n = len(q) - 1
    lead = norm(q[-1])
    sub = max_coeff_norm(q, exclude_leading=True)
    threshold = max(1.0, 2.0 * sub * n / lead)
    enclosure = max(threshold, 2.0 * norm(q[0]) / lead)
    return GrowthCertificate(threshold, enclosure, lead, sub, n)


def check_bounds(p, z: complex, cert: GrowthCertificate) -> tuple[float, float, float]:
    """Evaluate the sandwich at z: returns (lower, |p(z)|, upper).

    Raises BelowThreshold when norm(z) < cert.threshold_radius (the
    hypothesis fails, which says nothing about the bounds), and
    ArithmeticError if the sandwich itself were violated beyond slack.
    """
    nz = norm(z)
    if nz < cert.threshold_radius:
        raise BelowThreshold(
            f"norm(z) = {nz} is below the certificate threshold {cert.threshold_radius}"
        )
    scale = cert.lead_norm * nz**cert.degree
    lower, upper = 0.5 * scale, 1.5 * scale
    value = norm(evaluate(truncate(p), z))
    if lower > value + BOUND_SLACK * (1.0 + value) or value > upper + BOUND_SLACK * (1.0 + upper):
        raise ArithmeticError(
            f"growth sandwich violated at z = {z}: {lower} <= {value} <= {upper} failed"
        )
    return lower, value, upper

