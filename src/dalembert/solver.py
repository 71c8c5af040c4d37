"""End-to-end root finding: enclosure, certified seed, descent, deflation.

find_root chains the three guarantees: the growth certificate confines every
global minimizer of |p| to an explicit square, branch-and-bound produces a
seed point whose value is provably near the global minimum, and the descent
walks strictly downhill from the seed until the residual meets the
tolerance.  find_all_roots repeats that through synthetic division and
re-polishes every root against the original polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexmath import norm
from .descent import RootResult, descend
from .errors import DegenerateZeroPolynomial, NoRootExists
from .gridmin import CertifiedMinimum, certified_min
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
    # refine until the gap is small against the incumbent (or tol wins)
    seed = certified_min(pt, cert.square, tol, _SEED_BUDGET, rel_gap=0.1)
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
    """One root of a non-constant polynomial, to residual |p(root)| <= tol.

    A failure to converge within max_iter is reported on the result
    (converged=False, best point kept), not raised.
    """
    pt = _normalized_or_raise(p)
    result, _, _ = _solve_once(pt, tol, max_iter)
    return result


def find_all_roots(p, tol: float = 1e-10, max_iter: int = 10000) -> SolveReport:
    """All degree(p) roots via repeated find_root plus synthetic division.

    Each deflated estimate is polished by descending on the original
    polynomial, which undoes deflation drift.  reconstruction_error is the
    largest coefficient-wise distance between a_n * prod (z - r_i) and the
    normalized input; it is reported, never raised.
    """
    pt = _normalized_or_raise(p)
    roots: list[RootResult] = []
    enclosure: GrowthCertificate | None = None
    seed: CertifiedMinimum | None = None
    work: Poly = pt
    while len(work) > 1:
        result, cert, smin = _solve_once(work, tol, max_iter)
        if enclosure is None:
            enclosure, seed = cert, smin
        polished = descend(pt, result.root, tol, max_iter)
        roots.append(polished)
        work, _rem = deflate(work, polished.root)
    rebuilt = from_roots(pt[-1], [r.root for r in roots])
    error = max(norm(a - b) for a, b in zip(rebuilt, pt))
    assert enclosure is not None and seed is not None
    return SolveReport(tuple(roots), error, enclosure, seed)
