"""End-to-end root finding: enclosure, certified seed, descent, deflation.

find_root chains the three guarantees: the growth certificate confines every
global minimizer of |p| to an explicit square, branch-and-bound produces a
seed point whose value is provably near the global minimum, and the descent
walks strictly downhill from the seed until the residual meets the
tolerance or the rounding floor of evaluating p.  find_all_roots runs that chain once, deflates by synthetic
division and re-polishes every root against the original polynomial.  Every
root is a global minimizer of |p|, so the cells that one branch-and-bound
leaves live surround every root: each deflated factor starts its descent at
the live cell center where it is smallest, with no search of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexmath import norm
from .descent import RootResult, descend
from .errors import DegenerateZeroPolynomial, NoRootExists
from .gridmin import CertifiedMinimum, _horner, certified_min
from .growth import GrowthCertificate, growth_certificate
from .polynomial import Poly, deflate, from_roots, truncate

__all__ = ["SolveReport", "find_root", "find_all_roots"]

# Cell-evaluation cap for seed refinement; descent finishes whatever the
# branch-and-bound left over, so the cap only trades seed quality for time.
_SEED_BUDGET = 50_000


@dataclass(frozen=True)
class SolveReport:
    """All-roots outcome: the roots, how well they rebuild p, and the certificates."""

    roots: tuple[RootResult, ...]
    reconstruction_error: float
    enclosure: GrowthCertificate
    seed: CertifiedMinimum


def _solve_once(pt: Poly, tol: float, max_iter: int):
    """Root of a normalized non-constant polynomial, with its certificates."""
    cert = growth_certificate(pt)
    seed = certified_min(pt, cert.square, tol, _SEED_BUDGET)
    result = descend(pt, seed.argmin, tol, max_iter)
    return result, cert, seed


def _normalized_or_raise(p) -> Poly:
    pt = truncate(p)
    if not pt:
        raise DegenerateZeroPolynomial("every point is a root of the zero polynomial")
    if len(pt) == 1:
        raise NoRootExists("no root exists for a nonzero constant polynomial")
    return pt


def find_root(p, tol: float = 1e-10, max_iter: int = 10000) -> RootResult:
    """One root of a non-constant polynomial, to residual |p(root)| <= tol
    or, where tol is below what evaluating p can resolve, to the rounding
    floor gamma_2n * sum |a_i| |root|^i (see descend).

    A failure to converge within max_iter is reported on the result
    (converged=False, best point kept), not raised.
    """
    pt = _normalized_or_raise(p)
    result, _, _ = _solve_once(pt, tol, max_iter)
    return result


def _start(work: Poly, seed: CertifiedMinimum) -> complex:
    """The live seed cell center with the smallest finite |work| (ties: the
    first); seed.argmin if no center gives a finite value."""
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are skipped
        vals = np.abs(_horner(np.asarray(work, dtype=complex), seed.cells))
    finite = np.flatnonzero(np.isfinite(vals))
    return complex(seed.cells[finite[np.argmin(vals[finite])]]) if finite.size else seed.argmin


def find_all_roots(p, tol: float = 1e-10, max_iter: int = 10000) -> SolveReport:
    """All degree(p) roots: find_root's chain once, then synthetic division.

    Each deflated factor descends from the seed's live cell center where it
    is smallest, and each estimate is polished by descending on the original
    polynomial, which undoes deflation drift.  reconstruction_error is the
    largest coefficient-wise distance between a_n * prod (z - r_i) and the
    normalized input; it is reported, never raised.
    """
    pt = _normalized_or_raise(p)
    result, enclosure, seed = _solve_once(pt, tol, max_iter)
    roots: list[RootResult] = []
    work: Poly = pt
    while True:
        polished = descend(pt, result.root, tol, max_iter)
        roots.append(polished)
        work, _rem = deflate(work, polished.root)
        if len(work) <= 1:
            break
        result = descend(work, _start(work, seed), tol, max_iter)
    rebuilt = from_roots(pt[-1], [r.root for r in roots])
    error = max(norm(a - b) for a, b in zip(rebuilt, pt))
    return SolveReport(tuple(roots), error, enclosure, seed)
