#!/usr/bin/env python3
"""Replay the lemma checks over a battery of polynomials and print a table.

Usage: python3 scripts/replay_lemmas.py [--samples N] [--seed S]
"""

import argparse
import sys

from dalembert.checks import run_lemma_checks
from dalembert.cli import parse_polynomial

BATTERY = [
    ("sample quadratic", "1 1i 3"),
    ("classic quadratic", "1 0 1"),
    ("cube roots of unity", "-1 0 0 1"),
    ("shifted linear", "10 1"),
    ("double root", "1 -2 1"),
    ("degree six", "0.3-0.4i 1 0 -2i 0 0.5 1.25i"),
    # |p| <= 1e-6 on the whole enclosure square
    ("tiny scale", "1e-300 0 0 0 0 0 0 0 1e-300"),
    # |z|^8 leaves the float range on the sampled radii, |a_8| |z|^8 does not
    ("tiny leading term", "1 0 0 0 0 0 0 0 1e-300"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    any_failure = False
    for label, text in BATTERY:
        poly = parse_polynomial(text)
        reports = run_lemma_checks(poly, samples=args.samples, seed=args.seed)
        print(f"{label}  ({text})")
        for report in reports:
            verdict = "pass" if report.passed else f"FAIL ({report.failures} failures)"
            print(f"  {report.name:<24} {report.samples:>6} samples  {verdict}")
            any_failure |= not report.passed
        print()
    return 1 if any_failure else 0


if __name__ == "__main__":
    sys.exit(main())
