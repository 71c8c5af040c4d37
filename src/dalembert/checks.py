"""Randomized replays of the lemmas that depend on the polynomial.

Each check draws a fixed-seed random sample and counts violations of one
inequality on the given polynomial: the growth sandwich and |p(z)| >= |p(0)|
beyond the radius, which hold from the same radius and share one sample,
and the strict decrease of a descent step inside the enclosure square.
They mirror the property suites in tests/ but run from the CLI on any
polynomial of interest, _SAMPLES points per lemma.  The radius and its
square come from growth_certificate, which decides whether they are usable,
so check refuses what bounds and solve do; it also refuses a finite R whose
10 R, the far end of the radius lemmas' sample, overflows.  Each
LemmaReport is a named tuple, so it compares equal to a plain tuple,
unpacks, and gives changed copies with ._replace.
"""

from __future__ import annotations

import math
import random
from cmath import rect
from typing import NamedTuple

from .complexmath import norm
from .descent import descent_step
from .errors import StepStalled
from .growth import check_bounds, growth_certificate
from .polynomial import evaluate, max_coeff_norm, truncate

__all__ = ["LemmaReport", "run_lemma_checks"]

_SAMPLES = 1000  # points drawn per lemma


class LemmaReport(NamedTuple):
    name: str
    samples: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def run_lemma_checks(p, seed: int = 0) -> list[LemmaReport]:
    """Replay every lemma on p; raises NotApplicableToConstant when p is
    constant, since none of them applies, and raises growth_certificate's
    error, or OverflowError where 10 R is not finite."""
    pt = truncate(p)
    cert = growth_certificate(pt)
    r = cert.threshold_radius
    if not math.isfinite(10.0 * r):
        raise OverflowError(f"the enclosure radius {r} is too large to check: the far end "
                            "10 R of the lemmas' sample is not representable in floating point")
    rng = random.Random(seed)
    return [*_beyond_radius(pt, cert, rng), _descent_decrease(pt, cert, rng)]


def _beyond_radius(pt, cert, rng) -> tuple[LemmaReport, LemmaReport]:
    """The growth sandwich and |p(z)| >= |p(0)|, both at each sampled z with
    R <= |z| <= 10 R: threshold_radius and enclosure_radius are the same R."""
    r = cert.threshold_radius
    at_origin = norm(evaluate(pt, 0j))
    sandwich = domination = 0
    for _ in range(_SAMPLES):
        z = rect(rng.uniform(r, 10.0 * r), rng.uniform(-math.pi, math.pi))
        try:
            _, value, _ = check_bounds(pt, z, cert)
        except ArithmeticError:
            sandwich += 1
            value = norm(evaluate(pt, z))  # a violation carries no |p(z)|
        if value < at_origin - 1e-9 * (1.0 + at_origin):
            domination += 1
    return (LemmaReport("growth-sandwich", _SAMPLES, sandwich),
            LemmaReport("enclosure-domination", _SAMPLES, domination))


def _descent_decrease(pt, cert, rng) -> LemmaReport:
    corner, side = cert.square
    # relative to the largest coefficient, which |p| reaches somewhere on
    # |z| = 1 (Cauchy's estimate), so some of the square is always drawn
    near_root = 1e-6 * max_coeff_norm(pt)
    failures = 0
    done = 0
    while done < _SAMPLES:
        z0 = corner + complex(rng.uniform(0.0, side), rng.uniform(0.0, side))
        if norm(evaluate(pt, z0)) <= near_root:
            continue  # too close to a root for a meaningful decrease test
        done += 1
        try:
            step = descent_step(pt, z0)
            failures += not step.after < step.before
        except (StepStalled, OverflowError):
            failures += 1
    return LemmaReport("descent-decrease", _SAMPLES, failures)
