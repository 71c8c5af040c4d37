"""Randomized replays of the library's core inequalities.

Each lemma check draws a fixed-seed random sample and counts violations of
the corresponding inequality, mirroring the property suites in tests/ but
runnable from the CLI against any polynomial of interest.
"""

from __future__ import annotations

import math
import random
from cmath import rect
from dataclasses import dataclass

from .complexmath import cpow, norm, nth_root
from .descent import descent_step
from .errors import StepStalled
from .growth import check_bounds, growth_certificate
from .polynomial import evaluate, truncate

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
    """Replay every applicable lemma on p; the polynomial-specific suites
    need a non-constant polynomial and are skipped otherwise."""
    rng = random.Random(seed)
    reports = [
        _norm_product(rng, samples),
        _norm_triangle(rng, samples),
        _norm_reverse_triangle(rng, samples),
        _de_moivre_round_trip(rng, samples),
    ]
    pt = truncate(p)
    if len(pt) >= 2:
        cert = growth_certificate(pt)
        reports.append(_growth_sandwich(pt, cert, rng, samples))
        reports.append(_enclosure_domination(pt, cert, rng, samples))
        reports.append(_descent_decrease(pt, cert, rng, samples))
    return reports


def _random_complex(rng: random.Random) -> complex:
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    return complex(rng.uniform(-1.0, 1.0) * scale, rng.uniform(-1.0, 1.0) * scale)


def _norm_product(rng, samples) -> LemmaReport:
    failures = 0
    for _ in range(samples):
        x, y = _random_complex(rng), _random_complex(rng)
        lhs, rhs = norm(x * y), norm(x) * norm(y)
        if abs(lhs - rhs) > 1e-12 * (1.0 + rhs):
            failures += 1
    return LemmaReport("norm-product", samples, failures)


def _norm_triangle(rng, samples) -> LemmaReport:
    failures = 0
    for _ in range(samples):
        x, y = _random_complex(rng), _random_complex(rng)
        slack = 1e-12 * (1.0 + norm(x) + norm(y))
        if norm(x + y) > norm(x) + norm(y) + slack:
            failures += 1
    return LemmaReport("norm-triangle", samples, failures)


def _norm_reverse_triangle(rng, samples) -> LemmaReport:
    failures = 0
    for _ in range(samples):
        x, y = _random_complex(rng), _random_complex(rng)
        slack = 1e-12 * (1.0 + norm(x) + norm(y))
        if norm(x - y) < norm(x) - norm(y) - slack:
            failures += 1
    return LemmaReport("norm-reverse-triangle", samples, failures)


def _de_moivre_round_trip(rng, samples) -> LemmaReport:
    failures = 0
    for _ in range(samples):
        z = rect(10.0 ** rng.uniform(-6.0, 6.0), rng.uniform(-math.pi, math.pi))
        n = rng.randint(1, 16)
        if norm(cpow(nth_root(z, n), n) - z) > 1e-10 * norm(z):
            failures += 1
    return LemmaReport("de-moivre-round-trip", samples, failures)


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
    failures = 0
    done = 0
    while done < samples:
        z0 = complex(rng.uniform(-r, r), rng.uniform(-r, r))
        if norm(evaluate(pt, z0)) <= 1e-6:
            continue  # too close to a root for a meaningful decrease test
        done += 1
        try:
            step = descent_step(pt, z0)
        except StepStalled:
            failures += 1
            continue
        if not step.after < step.before:
            failures += 1
    return LemmaReport("descent-decrease", samples, failures)
