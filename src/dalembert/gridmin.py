"""Certified minimization of |p(z)| over axis-aligned squares.

A CertifiedMinimum pairs the best evaluated point with a proven optimality
gap: the true minimum over the region lies in [value - gap, value].  The
guarantee comes from an explicit Lipschitz constant for |p| on the region,
so it needs nothing beyond the coefficients.

certified_min runs a breadth-first branch-and-bound over subsquares: a
cell's lower bound is |p| at its center minus the Lipschitz constant on its
enclosing disk times its half diagonal, and cells whose lower bound cannot
beat the incumbent are pruned.  |p| is never below 0, so the gap is
value - max(0, lowest lower bound).  Each wave splits every live cell, so a
wave after the first is one complex array of centers of one side, evaluated
at once.  The first wave, the region's center alone, runs in scalar Python
arithmetic with no numpy call; most searches stop there.  numpy only ranks
and prunes later waves' cells, since over two or more cells it can round
|p| otherwise in the last bits: a wave's best cell replaces the incumbent
only if evaluate_with_derivative's |p| there is strictly lower, so every
value reported is that loop's, taken once per point.  Both report an
overflow with a RuntimeWarning.  A NaN value never becomes the incumbent,
and a cell whose lower bound is not finite is never pruned.
Each wave also tries the descent's damped Newton steps from the incumbent,
scaled by the multiplicity of the root they approach (see _damped_newton),
which drive the value below epsilon far faster than bisection alone.  Their
halving stops where descent._halve's does, at the noise floor; epsilon is
only the gap the search stops at, so a search whose gap already meets a
tighter target returns what the search at that target returns.

certified_min takes p's norms |a_i| once, from polynomial._prepare, and
hands them to _search, the search itself, which returns the
CertifiedMinimum, the centers of the cells still live at the stop and
(p, p') at the argmin.  _search turns the norms into i |a_i| once, and
every wave sums those, and p in the numpy waves, with polynomial._horner.
The solver calls _search on its own prepared p, descends from the argmin
with that pair, and starts each deflated factor from those cells.

SquareRegion and CertifiedMinimum are named tuples: they compare equal to
plain tuples, unpack, and give changed copies with ._replace, while
dataclasses.replace, fields and asdict do not apply to them.  SquareRegion
checks its square in __new__, and its _make, which ._replace calls, goes
through __new__ too, so no way of building one skips the checks.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from typing import NamedTuple

import numpy as np

from .complexmath import norm
from .polynomial import Poly, _horner, _noise_floor, _prepare, evaluate_with_derivative

__all__ = [
    "SquareRegion",
    "CertifiedMinimum",
    "lipschitz_bound",
    "certified_min",
]

HALF_DIAGONAL = math.sqrt(2.0) / 2.0


class _Square(NamedTuple):
    corner: complex
    side: float


class SquareRegion(_Square):
    """The square [x0, x0+side] x [y0, y0+side]; corner = x0 + i y0 (lower left).

    The corner, the side and the far corner (x0+side) + i (y0+side) must all
    be finite floats, so every cell center and bound in it is representable.
    Every way of building one checks that, ._replace and ._make included.
    """

    __slots__ = ()

    def __new__(cls, corner: complex, side: float):
        corner, side = complex(corner), float(side)
        if not (math.isfinite(side) and side > 0):
            raise ValueError(f"side must be positive and finite, got {side}")
        if not (math.isfinite(corner.real) and math.isfinite(corner.imag)):
            raise ValueError(f"corner must be finite, got {corner}")
        far = corner + complex(side, side)
        if not (math.isfinite(far.real) and math.isfinite(far.imag)):
            raise ValueError(f"the far corner {far} of the square at {corner} "
                             f"with side {side} is not representable")
        return super().__new__(cls, corner, side)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, skips __new__'s checks
        return cls(*iterable)

    def contains(self, z: complex) -> bool:
        x0, y0 = self.corner.real, self.corner.imag
        return (x0 <= z.real <= x0 + self.side) and (y0 <= z.imag <= y0 + self.side)

    @property
    def center(self) -> complex:
        return complex(self.corner.real + self.side / 2.0, self.corner.imag + self.side / 2.0)


class CertifiedMinimum(NamedTuple):
    """A near-minimizer of |p| with a proven optimality gap.

    The true minimum over the searched region lies in [value - gap, value].
    budget_exhausted marks a branch-and-bound run that stopped on its cell
    budget before reaching the requested gap; the reported gap is still valid.
    """

    argmin: complex
    value: float
    gap: float
    evaluations: int
    budget_exhausted: bool = False


def _derivative_norms(norms: list) -> list:
    """i |a_i| for i >= 1, from norms = [|a_0|, ..., |a_n|].

    _horner of these at r is sum i |a_i| r^(i-1), which dominates |p'| on
    the disk of radius r: a Lipschitz constant for |p| on that disk.
    """
    return [i * norms[i] for i in range(1, len(norms))]


def _cell_lipschitz(dnorm: list, center: complex, side: float) -> float:
    """_horner(dnorm, r) for dnorm = _derivative_norms(norms) and r the
    cell's largest |z|, taken by norm as np.hypot in _cell_radius takes it:
    the numpy wave's bound on this one cell bit for bit; inf where r overflows."""
    half = side / 2.0
    r = norm(complex(abs(center.real) + half, abs(center.imag) + half))
    return _horner(dnorm, r) if r < math.inf else math.inf


def lipschitz_bound(p, region: SquareRegion) -> float:
    """L such that | |p(u)| - |p(v)| | <= L |u - v| for all u, v in the region.

    The branch-and-bound's per-cell bound applied to the whole region: the
    sum over i >= 1 of i |a_i| R^(i-1), with R the largest |z| over the
    square; inf where that overflows, a ValueError for a coefficient that is not finite.
    """
    return _cell_lipschitz(_derivative_norms(_prepare(p)[1]), region.center, region.side)


def certified_min(
    p,
    region: SquareRegion,
    epsilon: float,
    budget: int = 1_000_000,
) -> CertifiedMinimum:
    """Branch-and-bound minimum of |p| over the region.

    Cells whose lower bound f(center) - L_cell * (sqrt(2)/2) * side_cell
    reaches the incumbent are pruned, the rest split 2x2.  After each wave
    the damped Newton step from the incumbent replaces it with the first
    try, s = m, m/2, m/4, ... times p/p', that stays in the region and
    strictly lowers |p|, and is repeated from there until a step finds no
    drop; m is the multiplicity read off the last two Newton corrections,
    1 at first.  As the descent's, the halving stops once the gain s |p|
    of the next try is below the rounding noise floor of |p|, or the try
    rounds back to the incumbent.  Each try in the region costs one
    evaluation, within budget.  The gap is value - max(0, lowest live
    lower bound).  Stops after the wave where gap <= epsilon, or when the
    next wave would take the evaluations past budget; a budget stop is
    flagged on the result, not raised, and its gap is still valid.
    epsilon is only that gap target, and must be positive and finite;
    budget must be an integer >= 1 (budget=1 evaluates the center alone).
    A coefficient that is not finite is a ValueError.
    """
    if not (0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if isinstance(budget, bool) or not (isinstance(budget, numbers.Integral) and budget >= 1):
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    pt, norms = _prepare(p)
    return _search(pt, norms, region.corner, region.side, epsilon, budget)[0]


def _search(coeffs: Poly, norms: list, corner: complex, side: float, epsilon: float,
            budget: int) -> tuple[CertifiedMinimum, tuple | np.ndarray, tuple]:
    """certified_min over a valid square of this corner and side, given p's
    norms [|a_0|, ..., |a_n|], with the live cells' centers at the stop (a
    tuple after a first-wave stop, else an array) and (p, p') at the argmin."""
    x0, y0 = corner.real, corner.imag
    box = (x0, y0, x0 + side, y0 + side)
    center = complex(x0 + side / 2.0, y0 + side / 2.0)
    dnorm, floor = _derivative_norms(norms), _noise_floor(norms)
    pair, value, lower = _first_wave(coeffs, dnorm, center, side)
    best_pt, best_val, pair, evaluations = _damped_newton(
        coeffs, floor, box, center, value, pair, 1, budget)
    live = lower < best_val
    gap = best_val - max(0.0, lower) if live else 0.0
    if not live or gap <= epsilon or evaluations + 4 > budget:
        return (CertifiedMinimum(best_pt, best_val, gap, evaluations, live and gap > epsilon),
                (center,) if live else (), pair)
    cells, side = center + _CHILD * (side / 4.0), side / 2.0
    budget_exhausted = False
    # one wave: the centers of its cells, which all have the same side
    while True:
        h = _horner(coeffs, cells)
        vals = np.hypot(h.real, h.imag)  # norm of each cell's value
        lower = vals - _horner(dnorm, _cell_radius(cells, side)) * (HALF_DIAGONAL * side)
        # a NaN value never wins, and a non-finite lower bound bounds nothing
        vals[np.isnan(vals)] = np.inf
        lower[~np.isfinite(lower)] = -np.inf
        i = int(np.argmin(vals))
        # numpy's best cell wins only if the scalar |p| there is strictly
        # lower (ties keep the earlier incumbent, which is never evaluated
        # again)
        z = complex(cells[i])
        if vals[i] < best_val and z != best_pt:
            cell_pair = evaluate_with_derivative(coeffs, z)
            if norm(cell_pair[0]) < best_val:
                best_pt, best_val, pair = z, norm(cell_pair[0]), cell_pair
        evaluations += vals.size
        best_pt, best_val, pair, evaluations = _damped_newton(
            coeffs, floor, box, best_pt, best_val, pair, evaluations, budget)
        keep = lower < best_val
        cells, lower = cells[keep], lower[keep]
        # |p| >= 0, so no lower bound below 0 is needed
        gap = best_val - max(0.0, float(lower.min())) if lower.size else 0.0
        if lower.size == 0 or gap <= epsilon:
            break
        if evaluations + 4 * cells.size > budget:
            budget_exhausted = True
            break
        cells = (cells[:, None] + _CHILD * (side / 4.0)).ravel()
        side /= 2.0
    return CertifiedMinimum(best_pt, best_val, gap, evaluations, budget_exhausted), cells, pair


def _first_wave(coeffs: Poly, dnorm: list, center: complex, side: float):
    """The first wave, the one cell of this center and side, in scalar
    arithmetic, given dnorm = _derivative_norms(norms): (p, p') at the
    center, |p| = norm(p) there and the cell's lower bound, the last two
    bit for bit as the numpy wave in _search computes them.  As in that
    wave, a NaN value is inf and a lower bound that is not finite is -inf.
    Where p or the bound overflows a RuntimeWarning reports it, until stop
    reasons on the result can.
    """
    pair = evaluate_with_derivative(coeffs, center)
    reach = _cell_lipschitz(dnorm, center, side) * (HALF_DIAGONAL * side)
    if not (cmath.isfinite(pair[0]) and math.isfinite(reach)):
        warnings.warn(f"overflow in |p| or its Lipschitz bound at {center}", RuntimeWarning,
                      stacklevel=4)
    value = math.inf if cmath.isnan(pair[0]) else norm(pair[0])
    lower = value - reach
    return pair, value, lower if math.isfinite(lower) else -math.inf


def _damped_newton(coeffs: Poly, floor, box: tuple, z: complex, value: float, pair: tuple,
                   evaluations: int, budget: int):
    """The descent's damped Newton steps from the incumbent z, scaled by
    the multiplicity m of the root ahead: with u = p(z)/p'(z), the tries
    z - s u for s = m, m/2, m/4, ... until |p| strictly drops below value,
    repeated from each accepted point until a step finds no drop.  The
    halving stops as descent._halve's does: once the gain s |p| of the next
    try is below floor(z), the noise floor at z (polynomial._noise_floor of
    p's norms), which no computed |p| shows, or once the try rounds back to
    z.  floor(z) is read at most once per step, at its first failed try.

    m starts at 1 and is read off each accepted try z1 = z0 - t as
    round(Re(t / (u0 - u1))), clamped to [1, deg p].  It is exact on
    (z - r)^m, where u = (z - r)/m, and there Schroeder's step z - m u
    lands on r, where Newton's (m = 1) gains only a constant factor.

    box is the region's (x0, y0, x1, y1) and pair is (p(z), p'(z)).  A try
    inside the region costs one evaluation, which gives p and p' there; one
    outside it is halved for free.  Returns the (point, value, pair,
    evaluations) the search goes on with, the given ones if no try wins.
    """
    x0, y0, x1, y1 = box
    # looked up once, not once per try
    ewd, isfinite = evaluate_with_derivative, cmath.isfinite
    top, m, reached = len(coeffs) - 1, 1, None
    while True:
        val, der = pair
        if not der:
            return z, value, pair, evaluations
        u = val / der
        if reached is not None:
            # z was reached by the try z0 - t, and u0 = p(z0)/p'(z0)
            t, u0 = reached
            ratio = (t / (u0 - u)).real if u0 != u else 0.0
            m = round(ratio) if 1.0 <= ratio <= top else (top if ratio > top else 1)
        # u itself for m = 1: 1 * u can flip the sign of a zero part
        s, step = (m, m * u) if m > 1 else (1, u)
        bound = None
        while evaluations < budget and isfinite(step):
            w = z - step
            if w == z:
                # every smaller step rounds back to z too
                return z, value, pair, evaluations
            if x0 <= w.real <= x1 and y0 <= w.imag <= y1:
                evaluations += 1
                w_pair = ewd(coeffs, w)
                w_norm = norm(w_pair[0])
                if w_norm < value:
                    break
            step *= 0.5
            s *= 0.5
            bound = floor(z) if bound is None else bound
            if s * value < bound:
                # the gain left is below what a computed |p| can show
                return z, value, pair, evaluations
        else:
            # no try lowered |p|, or the budget is spent
            return z, value, pair, evaluations
        # the accepted try's (p, p') pair gives the next step
        reached = (step, u)
        z, value, pair = w, w_norm, w_pair


# offsets of the four children's centers, in quarters of the parent's side
_CHILD = np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j])


def _cell_radius(centers, side: float):
    # max |z| over a cell is the hypot of the componentwise extremes
    half = side / 2.0
    return np.hypot(np.abs(centers.real) + half, np.abs(centers.imag) + half)
