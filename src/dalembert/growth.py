"""Norm growth certificates: radii beyond which the leading term dominates.

For a non-constant polynomial with leading coefficient a_n, every z with
norm(z) >= threshold_radius satisfies the sandwich

    (1/2) |a_n| |z|^n  <=  |p(z)|  <=  (3/2) |a_n| |z|^n,

and with it |p(z)| >= |p(0)|.  The square [-R, R]^2 with R =
enclosure_radius, the same radius, therefore traps every global minimizer
of |p|.

The threshold is the smaller of two sufficient radii, the paper's
max(1, 2 A n / |a_n|), A = max_{i<n} |a_i|, and max(1, 3 F), F Fujiwara's
term (polynomial._fujiwara): never larger than the paper's, and many times
smaller on wide coefficient ranges such as Wilkinson's.  _radii builds the
certificate from the finite norms polynomial._prepare took, and alone
decides whether they give a square of finite side 2R, so every entry
refuses the same inputs with one error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .complexmath import norm
from .errors import BelowThreshold, NotApplicableToConstant
from .gridmin import SquareRegion
from .polynomial import _fujiwara, _prepare, evaluate

__all__ = [
    "GrowthCertificate",
    "growth_certificate",
    "check_bounds",
    "BOUND_SLACK",
]

# The sandwich is strict over exact reals; floats can graze equality.
BOUND_SLACK = 1e-9


class GrowthCertificate(NamedTuple):
    """Radii activating the growth bounds for one polynomial.

    threshold_radius activates both halves of the sandwich and is at most
    the paper's max(1, 2 A n / |a_n|); enclosure_radius equals it, since
    |p(z)| >= |p(0)| holds beyond it too.  lead_norm is |a_n|, sub_max the
    largest |a_i| with i < n (the paper's A).
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

    The sandwich holds at |z| = r as soon as the tail is small against the
    leading term, sum_{i<n} |a_i| r^i <= (1/2) |a_n| r^n (both halves follow
    from it).  Two radii give that:

    - the paper's max(1, 2 A n / |a_n|): with r >= 1 the tail is at most
      A n r^(n-1), and A n <= (|a_n|/2) r;
    - max(1, 3 F), F = max_{i<n} (|a_i| / |a_n|)^(1/(n-i)): every
      |a_i| / |a_n| <= F^(n-i), so the tail over |a_n| r^n is at most
      sum_{k>=1} (F/r)^k <= sum_{k>=1} 3^-k = 1/2.

    threshold_radius is the smaller of the two, so it never exceeds the
    paper's radius and never falls below 1, the lemma's |z| >= 1.  Beyond
    it |p(z)| >= (1/2) |a_n| r^n, which is >= |a_0| = |p(0)| once
    r >= (2 |a_0| / |a_n|)^(1/n).  Both radii above already reach that
    (3 F >= 3 (|a_0| / |a_n|)^(1/n), and the paper's >= 2 |a_0| / |a_n| >=
    its n-th root when that is >= 1), so enclosure_radius is the threshold
    itself.  Rounding the n-th roots moves the 1/2 by a few ulps, far
    inside BOUND_SLACK.

    Raises ValueError naming the first coefficient whose norm is not finite,
    and OverflowError where the side 2R of the square [-R, R]^2 is not.
    """
    pt, norms = _prepare(p)
    if len(pt) < 2:
        raise NotApplicableToConstant("growth bounds require a non-constant polynomial")
    return _radii(norms)


def _radii(norms: list) -> GrowthCertificate:
    """The certificate from _prepare's finite norms |a_0| .. |a_n|, n >= 1
    (max skips a NaN and a_i / inf is 0, so a NaN or infinite coefficient
    would give a false R of 1.0); raises OverflowError where the square's
    side 2R is not finite."""
    *tail, lead = norms
    n, sub = len(tail), max(tail)
    threshold = min(max(1.0, 2.0 * sub * n / lead), max(1.0, 3.0 * _fujiwara(norms)))
    if not math.isfinite(2.0 * threshold):
        raise OverflowError(f"the enclosure radius {threshold} is too large: the square "
                            "[-R, R]^2 is not representable in floating point")
    return GrowthCertificate(threshold, threshold, lead, sub, n)


def check_bounds(p, z: complex, cert: GrowthCertificate) -> tuple[float, float, float]:
    """Evaluate the sandwich at z: returns (lower, |p(z)|, upper).

    Raises ValueError naming a coefficient of p or a z whose norm is not
    finite, BelowThreshold when norm(z) < cert.threshold_radius (the
    hypothesis fails, which says nothing about the bounds), and
    ArithmeticError if the sandwich itself were violated beyond slack.
    """
    pt, nz = _prepare(p)[0], norm(z)
    if not math.isfinite(nz):
        raise ValueError(f"norm(z) = {nz} is not finite: z = {z}")
    if nz < cert.threshold_radius:
        raise BelowThreshold(
            f"norm(z) = {nz} is below the certificate threshold {cert.threshold_radius}"
        )
    # |a_n| nz^n as a running product: nz >= 1, so no partial product
    # overflows where the whole does not (nz^n alone can, when |a_n| is tiny)
    scale = cert.lead_norm
    for _ in range(cert.degree):
        scale *= nz
    lower, upper = 0.5 * scale, 1.5 * scale
    value = norm(evaluate(pt, z))
    if lower > value + BOUND_SLACK * (1.0 + value) or value > upper + BOUND_SLACK * (1.0 + upper):
        raise ArithmeticError(
            f"growth sandwich violated at z = {z}: {lower} <= {value} <= {upper} failed"
        )
    return lower, value, upper

