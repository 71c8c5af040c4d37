"""End-to-end root finding: enclosure, certified seed, descent, deflation.

find_root chains the three guarantees: the growth certificate confines every
global minimizer of |p| to an explicit square, branch-and-bound produces a
seed point whose value is provably near the global minimum, and the descent
walks strictly downhill from the seed until the residual meets the
tolerance or the rounding floor of evaluating p.  find_all_roots takes
that chain's root as the first, deflates by synthetic division and polishes
every later root against the original polynomial.  Every root is a global
minimizer of |p|, so the cells that one branch-and-bound leaves live
surround every root: each deflated factor descends once, from the live cell
center where it is smallest, with no search of its own.  No other start is tried: where the
descent's k = 1 step stalls above the noise floor, the descent itself tries
every later Taylor term (see descent).  When the search's Newton steps close
its gap in the first wave, its one live cell is the whole square, and every
factor starts at its center, which is then used as it is, with no ranking;
the |p| computed there is the factor's first residual.
The descent stops at the noise floor gamma_2n * sum |a_i| |z|^i of its
polynomial, whose norms find_all_roots builds once per polynomial: one
floor for p serves the first descent and all n - 1 polishes, and each
deflated factor builds its own.  tol and max_iter are checked once, at the
public call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .complexmath import norm
from .descent import RootResult, _check_tol_max_iter, _descend, _noise_floor
from .errors import DegenerateZeroPolynomial, NoRootExists
from .gridmin import CertifiedMinimum, _horner, certified_min
from .growth import GrowthCertificate, growth_certificate
from .polynomial import Poly, deflate, evaluate, from_roots, truncate

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


def _solve_once(pt: Poly, tol: float, max_iter: int, floor=None):
    """Root of a normalized non-constant polynomial, with its certificates;
    floor is pt's noise floor, built here if not given."""
    cert = growth_certificate(pt)
    seed = certified_min(pt, cert.square, tol, _SEED_BUDGET)
    if floor is None:
        floor = _noise_floor(pt)
    z = seed.argmin
    return _descend(pt, floor, z, norm(evaluate(pt, z)), tol, max_iter, True), cert, seed


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
    _check_tol_max_iter(tol, max_iter)
    pt = _normalized_or_raise(p)
    result, _, _ = _solve_once(pt, tol, max_iter)
    return result


def _start(work: Poly, seed: CertifiedMinimum):
    """The live seed cell center where |work| is smallest and finite (ties:
    the first), or seed.argmin if no center gives a finite value, with
    |work| there.  A single live cell needs no ranking: its center is used
    as it is, evaluated once without numpy."""
    if seed.cells.size == 1:
        z = complex(seed.cells[0])
        value = norm(evaluate(work, z))
        if math.isfinite(value):
            return z, value
        return seed.argmin, norm(evaluate(work, seed.argmin))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are skipped
        vals = np.abs(_horner(np.asarray(work, dtype=complex), seed.cells))
    finite = np.flatnonzero(np.isfinite(vals))
    z = complex(seed.cells[finite[np.argmin(vals[finite])]]) if finite.size else seed.argmin
    return z, norm(evaluate(work, z))


def find_all_roots(p, tol: float = 1e-10, max_iter: int = 10000) -> SolveReport:
    """All degree(p) roots: find_root's chain once, then synthetic division.

    The first root is find_root's result, from its one descent on p.  Each
    deflated factor descends once, from the seed's live cell center where
    it is smallest; a k = 1 stall above the noise floor is left by the
    descent's later Taylor terms, not by a retry from another center.  Each
    later estimate is polished by descending on the original polynomial,
    which undoes deflation drift.  A root whose descent on its factor (p
    for the first) does not converge is reported with converged=False, and
    so is every later one: the quotients after it come from deflating by a
    point that is not a root of its factor.
    reconstruction_error is the largest coefficient-wise distance between
    a_n * prod (z - r_i) and the normalized input; it is reported, never
    raised.
    """
    _check_tol_max_iter(tol, max_iter)
    pt = _normalized_or_raise(p)
    floor = _noise_floor(pt)
    result, enclosure, seed = _solve_once(pt, tol, max_iter, floor)
    roots = [result]
    work: Poly = pt
    failed = not result.converged
    while True:
        work, _rem = deflate(work, roots[-1].root)
        if len(work) <= 1:
            break
        # only the root and the converged flag are read, so no trace is kept
        z, value = _start(work, seed)
        result = _descend(work, _noise_floor(work), z, value, tol, max_iter, False)
        failed = failed or not result.converged
        z = result.root
        polished = _descend(pt, floor, z, norm(evaluate(pt, z)), tol, max_iter, True)
        roots.append(replace(polished, converged=False) if failed else polished)
    rebuilt = from_roots(pt[-1], [r.root for r in roots])
    error = max(norm(a - b) for a, b in zip(rebuilt, pt))
    return SolveReport(tuple(roots), error, enclosure, seed)
