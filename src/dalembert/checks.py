"""Randomized replays of the lemmas that depend on the polynomial.

Each check draws a fixed-seed random sample and counts violations of one
inequality on the given polynomial: the growth sandwich and |p(z)| >= |p(0)|
beyond the radius, which hold from the same radius and share one sample,
and the strict decrease of a descent step inside the enclosure square.
They mirror the property suites in tests/ but run from the CLI on any
polynomial of interest.  The radius comes from growth_certificate, which
decides whether it is usable, so check refuses what bounds and solve do;
it also refuses a finite R whose 10 R, the far end of the radius lemmas'
sample, overflows, with the OverflowError that solve raises where 2 R
does.  Each LemmaReport is a named tuple, so it compares equal to a plain
tuple, unpacks, and gives changed copies with ._replace.
"""

from __future__ import annotations

import math
import random
from cmath import rect
from typing import NamedTuple

from .complexmath import norm
from .descent import descent_step
from .errors import StepStalled
from .growth import _radius_error, check_bounds, growth_certificate
from .polynomial import evaluate, max_coeff_norm, truncate

__all__ = ["LemmaReport", "run_lemma_checks"]


class LemmaReport(NamedTuple):
    name: str
    samples: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def run_lemma_checks(p, samples: int = 1000, seed: int = 0) -> list[LemmaReport]:
    """Replay every lemma on p; raises NotApplicableToConstant when p is
    constant, since none of them applies, and raises growth_certificate's
    error, or OverflowError where 10 R is not finite."""
    pt = truncate(p)
    cert = growth_certificate(pt)
    if not math.isfinite(10.0 * cert.threshold_radius):
        raise _radius_error(pt, cert.threshold_radius)
    rng = random.Random(seed)
    return [*_beyond_radius(pt, cert, rng, samples), _descent_decrease(pt, cert, rng, samples)]


def _beyond_radius(pt, cert, rng, samples) -> tuple[LemmaReport, LemmaReport]:
    """The growth sandwich and |p(z)| >= |p(0)|, both at each sampled z with
    R <= |z| <= 10 R: threshold_radius and enclosure_radius are the same R."""
    r = cert.threshold_radius
    at_origin = norm(evaluate(pt, 0j))
    sandwich = domination = 0
    for _ in range(samples):
        z = rect(rng.uniform(r, 10.0 * r), rng.uniform(-math.pi, math.pi))
        try:
            _, value, _ = check_bounds(pt, z, cert)
        except ArithmeticError:
            sandwich += 1
            value = norm(evaluate(pt, z))  # a violation carries no |p(z)|
        if value < at_origin - 1e-9 * (1.0 + at_origin):
            domination += 1
    return (LemmaReport("growth-sandwich", samples, sandwich),
            LemmaReport("enclosure-domination", samples, domination))


def _descent_decrease(pt, cert, rng, samples) -> LemmaReport:
    r = cert.enclosure_radius
    # relative to the largest coefficient, which |p| reaches somewhere on
    # |z| = 1 (Cauchy's estimate), so some of the square is always drawn
    near_root = 1e-6 * max_coeff_norm(pt)
    failures = 0
    done = 0
    while done < samples:
        z0 = complex(rng.uniform(-r, r), rng.uniform(-r, r))
        if norm(evaluate(pt, z0)) <= near_root:
            continue  # too close to a root for a meaningful decrease test
        done += 1
        try:
            step = descent_step(pt, z0)
        except (StepStalled, OverflowError):
            failures += 1
            continue
        if not step.after < step.before:
            failures += 1
    return LemmaReport("descent-decrease", samples, failures)
