"""Randomized replays of the lemmas that depend on the polynomial.

Each check draws a fixed-seed random sample and counts violations of one
inequality on the given polynomial: the growth sandwich beyond the threshold
radius, |p(z)| >= |p(0)| beyond the enclosure radius, and the strict
decrease of a descent step inside the enclosure square.  They mirror the
property suites in tests/ but run from the CLI on any polynomial of
interest.
"""

from __future__ import annotations

import math
import random
from cmath import rect
from dataclasses import dataclass

from .complexmath import norm
from .descent import descent_step
from .errors import StepStalled
from .growth import check_bounds, growth_certificate
from .polynomial import evaluate, max_coeff_norm, truncate

__all__ = ["LemmaReport", "run_lemma_checks"]


@dataclass(frozen=True)
class LemmaReport:
    name: str
    samples: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def run_lemma_checks(p, samples: int = 1000, seed: int = 0) -> list[LemmaReport]:
    """Replay every lemma on p; raises NotApplicableToConstant when p is
    constant, since none of them applies."""
    pt = truncate(p)
    cert = growth_certificate(pt)
    rng = random.Random(seed)
    return [
        _growth_sandwich(pt, cert, rng, samples),
        _enclosure_domination(pt, cert, rng, samples),
        _descent_decrease(pt, cert, rng, samples),
    ]


def _growth_sandwich(pt, cert, rng, samples) -> LemmaReport:
    failures = 0
    for _ in range(samples):
        z = rect(rng.uniform(cert.threshold_radius, 10.0 * cert.threshold_radius),
                 rng.uniform(-math.pi, math.pi))
        try:
            check_bounds(pt, z, cert)
        except ArithmeticError:
            failures += 1
    return LemmaReport("growth-sandwich", samples, failures)


def _enclosure_domination(pt, cert, rng, samples) -> LemmaReport:
    at_origin = norm(evaluate(pt, 0j))
    failures = 0
    for _ in range(samples):
        z = rect(rng.uniform(cert.enclosure_radius, 10.0 * cert.enclosure_radius),
                 rng.uniform(-math.pi, math.pi))
        if norm(evaluate(pt, z)) < at_origin - 1e-9 * (1.0 + at_origin):
            failures += 1
    return LemmaReport("enclosure-domination", samples, failures)


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
