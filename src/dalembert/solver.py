"""End-to-end root finding: enclosure, certified seed, descent, deflation.

find_root chains the three guarantees: the growth certificate confines every
global minimizer of |p| to an explicit square, branch-and-bound produces a
seed point whose value is provably near the global minimum, and the descent
walks strictly downhill from the seed until the residual meets the
tolerance or the rounding floor of evaluating p.  find_all_roots runs that chain once, deflates by synthetic
division and re-polishes every root against the original polynomial.  Every
root is a global minimizer of |p|, so the cells that one branch-and-bound
leaves live surround every root: each deflated factor starts its descent at
the live cell center where it is smallest, with no search of its own, and
tries the other centers in order only if that descent does not converge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def _starts(work: Poly, seed: CertifiedMinimum):
    """The live seed cell centers by increasing finite |work| (ties: the
    first), or seed.argmin alone if no center gives a finite value.  The
    order past the first is sorted only if it is asked for."""
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are skipped
        vals = np.abs(_horner(np.asarray(work, dtype=complex), seed.cells))
    finite = np.flatnonzero(np.isfinite(vals))
    if not finite.size:
        yield seed.argmin
        return
    yield complex(seed.cells[finite[np.argmin(vals[finite])]])
    # a stable sort puts argmin's pick first
    for i in finite[np.argsort(vals[finite], kind="stable")][1:]:
        yield complex(seed.cells[i])


def _factor_root(work: Poly, seed: CertifiedMinimum, tol: float, max_iter: int) -> RootResult:
    """The first converged descent on work from _starts, else the first one.

    A descent can stall at a critical point of work; its estimate, polished
    on p, would be a root found already.  Only the root and the converged
    flag are read, so no trace is kept."""
    results = (descend(work, z, tol, max_iter, keep_trace=False) for z in _starts(work, seed))
    first = next(results)
    return first if first.converged else next((r for r in results if r.converged), first)


def find_all_roots(p, tol: float = 1e-10, max_iter: int = 10000) -> SolveReport:
    """All degree(p) roots: find_root's chain once, then synthetic division.

    Each deflated factor descends from the seed's live cell center where it
    is smallest, or from the next ones in order of its value until a descent
    converges, and each estimate is polished by descending on the original
    polynomial, which undoes deflation drift.  A root whose factor
    converges from no live center is reported with converged=False, and so
    is every later one: the quotients after it come from deflating by a
    point that is not a root of its factor.
    reconstruction_error is the largest coefficient-wise distance between
    a_n * prod (z - r_i) and the normalized input; it is reported, never
    raised.
    """
    pt = _normalized_or_raise(p)
    result, enclosure, seed = _solve_once(pt, tol, max_iter)
    roots = [descend(pt, result.root, tol, max_iter)]
    work: Poly = pt
    failed = False
    while True:
        work, _rem = deflate(work, roots[-1].root)
        if len(work) <= 1:
            break
        result = _factor_root(work, seed, tol, max_iter)
        failed = failed or not result.converged
        polished = descend(pt, result.root, tol, max_iter)
        roots.append(replace(polished, converged=False) if failed else polished)
    rebuilt = from_roots(pt[-1], [r.root for r in roots])
    error = max(norm(a - b) for a, b in zip(rebuilt, pt))
    return SolveReport(tuple(roots), error, enclosure, seed)
