"""Certified minimization of |p(z)| over axis-aligned squares.

A CertifiedMinimum pairs the best evaluated point with a proven optimality
gap: the true minimum over the region is guaranteed to lie in
[value - gap, value].  The guarantee comes from an explicit Lipschitz
constant for |p| on the region, so it needs nothing beyond the coefficients.

certified_min runs a breadth-first branch-and-bound over subsquares: a
cell's lower bound is |p| at its center minus the Lipschitz constant on its
enclosing disk times its half diagonal, and cells whose lower bound cannot
beat the incumbent are pruned.  Each wave splits every live cell, so all
live cells share one side; a wave after the first is one complex array
of their centers, evaluated at once.  The first wave, the region's center
alone, runs in scalar Python arithmetic: the lower bound, the Newton run
and the prune, gap and budget decisions, with one numpy call on a scalar
for |p|.  Most searches stop there, where numpy's per-call cost on
one-element arrays would be about a quarter of a find_root call.  It
rounds as numpy's loop over one cell does, bit for bit (measured with
numpy 2.4 on x86-64; see _first_wave and _cell_lipschitz), treats a NaN
value and a non-finite lower bound as that loop does, and reports an
overflow with a RuntimeWarning, as numpy's loops do.  The incumbent update
uses a fixed first-minimum tie-break, so results are identical to
evaluating cell by cell.
|p| is never below 0, so the gap is value - max(0, lowest lower bound):
near a root the lower bounds go negative and the gap is simply the value.
Each wave also tries the descent's damped Newton step from the incumbent,
z - s p(z)/p'(z) for s = 1, 1/2, 1/4, ... until |p| strictly drops, and
repeats it from each point it keeps until a step finds no drop; each try is
one Horner loop for p and p', so a kept try starts the next step.  That
drives the value below epsilon far faster than bisection alone, also at a
multiple root, where each Newton step gains only a constant factor.  Unlike
the descent's, this halving does not stop at the noise floor: the search's
value and gap need the decreases it finds below it.  Once the value is at
most epsilon, so is the gap, and the run tries only full steps (s = 1),
ending at the first that does not lower |p|: a halved try could only push
the value further below epsilon, and near the rounding floor most such tries
find nothing.
A NaN value never becomes the incumbent, and a cell whose lower bound is
not finite (Horner overflow) is never pruned.
The result keeps the centers of the cells still live at the stop; a sound
search never prunes a cell that holds a global minimizer, such as a root.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .polynomial import Poly, as_poly, evaluate_with_derivative

__all__ = [
    "SquareRegion",
    "CertifiedMinimum",
    "lipschitz_bound",
    "certified_min",
]

HALF_DIAGONAL = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class SquareRegion:
    """The square [x0, x0+side] x [y0, y0+side]; corner = x0 + i y0 (lower left).

    The corner, the side and the far corner (x0+side) + i (y0+side) must all
    be finite floats, so every cell center and bound in it is representable.
    """

    corner: complex
    side: float

    def __post_init__(self):
        object.__setattr__(self, "corner", complex(self.corner))
        object.__setattr__(self, "side", float(self.side))
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError(f"side must be positive and finite, got {self.side}")
        if not (math.isfinite(self.corner.real) and math.isfinite(self.corner.imag)):
            raise ValueError(f"corner must be finite, got {self.corner}")
        far = self.corner + complex(self.side, self.side)
        if not (math.isfinite(far.real) and math.isfinite(far.imag)):
            raise ValueError(f"the far corner {far} of the square at {self.corner} "
                             f"with side {self.side} is not representable")

    def contains(self, z: complex) -> bool:
        x0, y0 = self.corner.real, self.corner.imag
        return (x0 <= z.real <= x0 + self.side) and (y0 <= z.imag <= y0 + self.side)

    @property
    def center(self) -> complex:
        return complex(self.corner.real + self.side / 2.0, self.corner.imag + self.side / 2.0)


@dataclass(frozen=True)
class CertifiedMinimum:
    """A near-minimizer of |p| with a proven optimality gap.

    The true minimum over the searched region lies in [value - gap, value].
    budget_exhausted marks a branch-and-bound run that stopped on its cell
    budget before reaching the requested gap; the reported gap is still valid.
    cells (read-only, not in ==, hash or repr) holds the centers of the
    cells still live when the search stopped.
    """

    argmin: complex
    value: float
    gap: float
    evaluations: int
    budget_exhausted: bool = False
    cells: np.ndarray = field(default_factory=lambda: _frozen(np.empty(0, complex)),
                              compare=False, repr=False)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _horner(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum of coeffs[i] x^i at every x of an array (coefficients a0 first)."""
    # in place: one array per call, not two per coefficient
    acc = np.zeros(xs.shape, dtype=np.result_type(coeffs, xs))
    for c in coeffs[::-1]:
        acc *= xs
        acc += c
    return acc


def _derivative_norms(coeffs: np.ndarray) -> np.ndarray:
    """i |a_i| for i >= 1.

    _horner of these at r is sum i |a_i| r^(i-1), which dominates |p'| on
    the disk of radius r: a Lipschitz constant for |p| on that disk.
    """
    return np.array([i * abs(coeffs[i]) for i in range(1, len(coeffs))], dtype=float)


def _cell_lipschitz(coeffs: Poly, center: complex, side: float) -> float:
    """_horner(_derivative_norms(coeffs), _cell_radius(center, side)) for
    one cell, as a Python scalar loop, or inf where a step overflows.

    Every operation is one numpy's loops take too, in the same order: abs
    of a complex and of a pair of floats is C's hypot, as the numpy scalar
    abs in _derivative_norms and np.hypot in _cell_radius; float products
    and sums round alike.  So the bound is theirs bit for bit.
    """
    half = side / 2.0
    try:
        r = abs(complex(abs(center.real) + half, abs(center.imag) + half))
        acc = 0.0
        for i in range(len(coeffs) - 1, 0, -1):
            acc = acc * r + i * abs(coeffs[i])
    except OverflowError:
        return math.inf
    return acc


def lipschitz_bound(p, region: SquareRegion) -> float:
    """L such that | |p(u)| - |p(v)| | <= L |u - v| for all u, v in the region.

    The branch-and-bound's per-cell bound applied to the whole region: the
    sum over i >= 1 of i |a_i| R^(i-1), with R the largest |z| over the
    square; inf where that overflows.
    """
    return _cell_lipschitz(as_poly(p), region.center, region.side)


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
    try, s = 1, 1/2, 1/4, ..., that stays in the region and strictly lowers
    |p|, and is repeated from there until a step finds no drop; once |p| <=
    epsilon only the full step s = 1 is tried.  Each try in the region
    costs one evaluation, within budget.  The gap is
    value - max(0, lowest live lower bound).  Stops after the wave where
    gap <= epsilon, or when the next wave would take the evaluations past
    budget; a budget stop is flagged on the result, not raised, and its gap
    is still valid.  budget must be an integer >= 1 (budget=1 evaluates the
    center alone).
    """
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if isinstance(budget, bool) or not (isinstance(budget, numbers.Integral) and budget >= 1):
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    scalar = as_poly(p)
    center, side = region.center, region.side
    pair, value, lower = _first_wave(scalar, center, side)
    best_pt, best_val, evaluations = _damped_newton(
        scalar, region, center, value, pair, 1, budget, epsilon)
    live = lower < best_val
    gap = best_val - max(0.0, lower) if live else 0.0
    if not live or gap <= epsilon or evaluations + 4 > budget:
        return CertifiedMinimum(best_pt, best_val, gap, evaluations, live and gap > epsilon,
                                _frozen(np.array([center] if live else [], complex)))
    cells, side = center + _CHILD * (side / 4.0), side / 2.0
    coeffs = np.asarray(scalar, dtype=complex)
    dnorm = _derivative_norms(coeffs)
    budget_exhausted = False
    # one wave: the centers of its cells, which all have the same side
    while True:
        vals = np.abs(_horner(coeffs, cells))
        lower = vals - _horner(dnorm, _cell_radius(cells, side)) * (HALF_DIAGONAL * side)
        # a NaN value never wins, and a non-finite lower bound bounds nothing
        vals[np.isnan(vals)] = np.inf
        lower[~np.isfinite(lower)] = -np.inf
        i = int(np.argmin(vals))
        # a strict < keeps the earlier incumbent on ties
        if vals[i] < best_val:
            best_val, best_pt = float(vals[i]), complex(cells[i])
        evaluations += vals.size
        best_pt, best_val, evaluations = _damped_newton(
            scalar, region, best_pt, best_val, evaluate_with_derivative(scalar, best_pt),
            evaluations, budget, epsilon)
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
    return CertifiedMinimum(best_pt, best_val, gap, evaluations, budget_exhausted, _frozen(cells))


def _first_wave(coeffs: Poly, center: complex, side: float):
    """The first wave, the one cell of this center and side, in scalar
    arithmetic: (p, p') at the center, |p| there and the cell's lower
    bound, the last two bit for bit as the numpy loop in certified_min
    computes them.  As in that loop, a NaN value is inf and a lower bound
    that is not finite is -inf, and where p or the bound overflows a
    RuntimeWarning reports it.

    The pair's value has the norm of the loop's Horner value.  |p| is
    numpy's absolute of it, one call on a scalar: numpy's complex absolute
    is its own code (with numpy 2.4 on x86-64, a sqrt(1 + (b/a)^2) with a
    fused multiply-add), which rounds unlike C's hypot, the abs of a Python
    complex, on about a third of all values.
    """
    pair = evaluate_with_derivative(coeffs, center)
    reach = _cell_lipschitz(coeffs, center, side) * (HALF_DIAGONAL * side)
    if not (cmath.isfinite(pair[0]) and math.isfinite(reach)):
        warnings.warn(f"overflow in |p| or its Lipschitz bound at {center}", RuntimeWarning,
                      stacklevel=3)
    value = math.inf if cmath.isnan(pair[0]) else float(np.abs(pair[0]))
    lower = value - reach
    return pair, value, lower if math.isfinite(lower) else -math.inf


def _damped_newton(coeffs: Poly, region: SquareRegion, z: complex, value: float, pair: tuple,
                   evaluations: int, budget: int, epsilon: float):
    """The descent's damped steps from the incumbent z: z - s p(z)/p'(z) for
    s = 1, 1/2, 1/4, ... until |p| strictly drops below value or the try
    rounds back to z, repeated from each accepted point until a step finds
    no drop.  Once value <= epsilon only the full step s = 1 is tried: the
    gap is already closed, so a halved try could only push the value
    further below epsilon, and a full step that does not strictly lower |p|
    ends the run.

    pair is (p(z), p'(z)).  A try inside the region costs one evaluation,
    which gives p and p' there; one outside it is halved for free.  Returns
    the (point, value, evaluations) the search goes on with, z and value
    themselves when no try beats them.
    """
    # looked up once, not once per try
    x0, y0 = region.corner.real, region.corner.imag
    x1, y1 = x0 + region.side, y0 + region.side
    ewd, hypot, isfinite = evaluate_with_derivative, math.hypot, cmath.isfinite
    val, der = pair
    while True:
        if not der:
            return z, value, evaluations
        step = val / der
        while evaluations < budget and isfinite(step):
            w = z - step
            if w == z:
                # every smaller step rounds back to z too
                return z, value, evaluations
            if x0 <= w.real <= x1 and y0 <= w.imag <= y1:
                evaluations += 1
                w_val, w_der = ewd(coeffs, w)
                w_norm = hypot(w_val.real, w_val.imag)
                if w_norm < value:
                    break
            if value <= epsilon:
                # the gap is closed: no halving, only full steps
                return z, value, evaluations
            step *= 0.5
        else:
            # no try lowered |p|, or the budget is spent
            return z, value, evaluations
        # the accepted try's (p, p') pair gives the next step
        z, value, val, der = w, w_norm, w_val, w_der


# offsets of the four children's centers, in quarters of the parent's side
_CHILD = np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j])


def _cell_radius(centers, side: float):
    # max |z| over a cell is the hypot of the componentwise extremes
    half = side / 2.0
    return np.hypot(np.abs(centers.real) + half, np.abs(centers.imag) + half)
