"""End-to-end root finding: enclosure, certified seed, descent, deflation.

find_root chains the three guarantees: the growth certificate confines every
global minimizer of |p| to an explicit square, branch-and-bound produces a
seed whose value is provably near the global minimum, and the descent walks
strictly downhill from the seed's point and its (p, p') pair, which the
search hands on, until the residual meets the tolerance or the rounding
floor of evaluating p.  find_all_roots takes that chain's root as the
first, deflates by synthetic division and polishes every later root
against the original polynomial.  Each deflated factor descends once, with
no search of its own, from the one cell the branch-and-bound left live, or
else from its root-free circle (see gridmin._start).  Every |p| comes from
polynomial.evaluate_with_derivative.

Each public call checks tol and max_iter, and takes p's norms |a_i| once
(polynomial._prepare, in _solve_once).  They give the growth radii
(growth._radii, which alone decides whether the square is usable), the
noise floor, whose value gamma_2n |a_0| at the origin is the seed's gap
target, and the seed search's Lipschitz bounds (gridmin._search).  One
floor serves the first descent and all n - 1 polishes; each deflated
factor takes its own norms once, for its floor and its start.  The
GrowthCertificate and the CertifiedMinimum are built once and handed on
to find_all_roots' report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .complexmath import norm
from .descent import RootResult, _check_tol_max_iter, _descend
from .errors import DegenerateZeroPolynomial, NoRootExists
from .gridmin import CertifiedMinimum, _search, _start
from .growth import GrowthCertificate, _radii
from .polynomial import (Poly, _deflate, _noise_floor, _prepare, evaluate_with_derivative,
                         from_roots)

__all__ = ["SolveReport", "find_root", "find_all_roots"]

# Cell-evaluation cap for seed refinement; descent finishes whatever the
# branch-and-bound left over, so the cap only trades seed quality for time.
_SEED_BUDGET = 50_000


@dataclass(frozen=True, slots=True)
class SolveReport:
    """All-roots outcome: the roots, how well they rebuild p, and the certificates."""

    roots: tuple[RootResult, ...]
    reconstruction_error: float
    enclosure: GrowthCertificate
    seed: CertifiedMinimum


def _solve_once(p, tol: float, max_iter: int):
    """find_root's chain on p, with p normalized and its norms taken once:
    the root's result, the normalized pt, its noise floor, the growth
    certificate, the seed and the seed search's live cells.  The seed's gap
    target is max(tol, floor(0)), the lowest floor in the square centred on
    0: no computed |p| in it resolves a smaller gap."""
    _check_tol_max_iter(tol, max_iter)
    pt, norms = _prepare(p)
    if not pt:
        raise DegenerateZeroPolynomial("every point is a root of the zero polynomial")
    if len(pt) == 1:
        raise NoRootExists("no root exists for a nonzero constant polynomial")
    floor, growth = _noise_floor(norms), _radii(norms)
    r = growth.enclosure_radius
    seed, cells, pair = _search(pt, norms, complex(-r, -r), 2.0 * r, max(tol, floor(0j)),
                                _SEED_BUDGET)
    return (_descend(pt, floor, seed.argmin, pair, tol, max_iter, True), pt, floor, growth,
            seed, cells)


def find_root(p, tol: float = 1e-10, max_iter: int = 10000) -> RootResult:
    """One root of a non-constant polynomial, to residual |p(root)| <= tol
    or, where tol is below what evaluating p can resolve, to the rounding
    floor gamma_2n * sum |a_i| |root|^i (see descend).  Its seed search
    stops at gap max(tol, gamma_2n * |a_0|), the floor at the square's center.

    A failure to converge within max_iter is reported on the result
    (converged=False, best point kept), not raised.  Where the enclosure
    square [-R, R]^2 overflows, OverflowError is raised; a coefficient that
    is not finite is a ValueError.
    """
    return _solve_once(p, tol, max_iter)[0]


def find_all_roots(p, tol: float = 1e-10, max_iter: int = 10000) -> SolveReport:
    """All degree(p) roots: find_root's chain once, then synthetic division.

    The first root is find_root's result, from its seed search to gap
    max(tol, gamma_2n * |a_0|) and one descent on p.  Each deflated factor
    descends once, from the search's one live cell center or else its
    root-free circle (see gridmin._start), and is not retried from another
    start.  Each later estimate is polished by descending on the original
    polynomial, which undoes deflation drift.  A root whose descent on its
    factor (p for the first) does not converge is reported with
    converged=False, and so is every later one, whose quotients come from
    deflating by a non-root.  reconstruction_error is the largest
    coefficient-wise distance between a_n * prod (z - r_i) and the
    normalized input; it is reported, never raised.
    """
    result, pt, floor, growth, seed, cells = _solve_once(p, tol, max_iter)
    roots = [result]
    work: Poly = pt
    failed = not result.converged
    while True:
        work, _rem = _deflate(work, roots[-1].root)
        if len(work) <= 1:
            break
        # only the root and the converged flag are read, so no trace is kept
        norms = list(map(norm, work))
        z, pair = _start(work, norms, cells)
        result = _descend(work, _noise_floor(norms), z, pair, tol, max_iter, False)
        failed = failed or not result.converged
        z = result.root
        polished = _descend(pt, floor, z, evaluate_with_derivative(pt, z), tol, max_iter, True)
        roots.append(replace(polished, converged=False) if failed else polished)
    rebuilt = from_roots(pt[-1], [r.root for r in roots])
    error = max(norm(a - b) for a, b in zip(rebuilt, pt))
    return SolveReport(tuple(roots), error, growth, seed)
