"""Certified minimization of |p(z)| over axis-aligned squares.

A CertifiedMinimum pairs the best evaluated point with a proven optimality
gap: the true minimum over the region is guaranteed to lie in
[value - gap, value].  The guarantee comes from an explicit Lipschitz
constant for |p| on the region, so it needs nothing beyond the coefficients.

certified_min runs a breadth-first branch-and-bound over subsquares: a
cell's lower bound is |p| at its center minus the Lipschitz constant on its
enclosing disk times its half diagonal, and cells whose lower bound cannot
beat the incumbent are pruned.  Each wave splits every live cell, so all
live cells share one side; a wave is one complex array of their centers,
evaluated at once.  The incumbent update uses a fixed first-minimum
tie-break, so results are identical to evaluating cell by cell.
|p| is never below 0, so the gap is value - max(0, lowest lower bound):
near a root the lower bounds go negative and the gap is simply the value.
Each wave also tries one Newton step from the incumbent, which drives the
value toward 0 far faster than bisection alone.  A NaN value never becomes
the incumbent, and a cell whose lower bound is not finite (Horner overflow)
is never pruned.
The result keeps the centers of the cells still live at the stop; a sound
search never prunes a cell that holds a global minimizer, such as a root.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .complexmath import norm
from .polynomial import as_poly, evaluate

__all__ = [
    "SquareRegion",
    "CertifiedMinimum",
    "lipschitz_bound",
    "certified_min",
]

HALF_DIAGONAL = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class SquareRegion:
    """The square [x0, x0+side] x [y0, y0+side]; corner = x0 + i y0 (lower left)."""

    corner: complex
    side: float

    def __post_init__(self):
        object.__setattr__(self, "corner", complex(self.corner))
        object.__setattr__(self, "side", float(self.side))
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError(f"side must be positive and finite, got {self.side}")
        if not (math.isfinite(self.corner.real) and math.isfinite(self.corner.imag)):
            raise ValueError(f"corner must be finite, got {self.corner}")

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


def lipschitz_bound(p, region: SquareRegion) -> float:
    """L such that | |p(u)| - |p(v)| | <= L |u - v| for all u, v in the region.

    The branch-and-bound's per-cell bound applied to the whole region: the
    sum over i >= 1 of i |a_i| R^(i-1), with R the largest |z| over the square.
    """
    dnorm = _derivative_norms(np.asarray(as_poly(p), dtype=complex))
    return float(_horner(dnorm, _cell_radius(region.center, region.side)))


def certified_min(
    p,
    region: SquareRegion,
    epsilon: float,
    budget: int = 1_000_000,
) -> CertifiedMinimum:
    """Branch-and-bound minimum of |p| over the region.

    Cells whose lower bound f(center) - L_cell * (sqrt(2)/2) * side_cell
    reaches the incumbent are pruned, the rest split 2x2.  After each wave
    the Newton step from the incumbent replaces it if the step stays in the
    region and strictly lowers |p|; the try costs one evaluation.  The gap
    is value - max(0, lowest live lower bound).  Stops after the wave where
    gap <= epsilon, or when the next wave would take the evaluations past
    budget; a budget stop is flagged on the result, not raised, and its gap
    is still valid.  budget must be an integer >= 1 (budget=1 evaluates the
    center alone).
    """
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if isinstance(budget, bool) or not (isinstance(budget, numbers.Integral) and budget >= 1):
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    coeffs = np.asarray(as_poly(p), dtype=complex)
    dnorm = _derivative_norms(coeffs)
    scalar = coeffs.tolist()
    # one wave: the centers of its cells, which all have the same side
    cells, side = np.array([region.center]), region.side
    evaluations = 0
    budget_exhausted = False
    while True:
        vals = np.abs(_horner(coeffs, cells))
        lower = vals - _horner(dnorm, _cell_radius(cells, side)) * (HALF_DIAGONAL * side)
        # a NaN value never wins, and a non-finite lower bound bounds nothing
        vals[np.isnan(vals)] = np.inf
        lower[~np.isfinite(lower)] = -np.inf
        i = int(np.argmin(vals))
        # the first cell is always taken; after it a strict < keeps the
        # earlier incumbent on ties
        if evaluations == 0 or vals[i] < best_val:
            best_val, best_pt = float(vals[i]), complex(cells[i])
        evaluations += vals.size
        if evaluations < budget:
            z = _newton(scalar, best_pt)
            if z is not None and region.contains(z):
                evaluations += 1
                val = norm(evaluate(scalar, z))
                if val < best_val:
                    best_val, best_pt = val, z
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


def _newton(coeffs: list, z: complex):
    """z - p(z)/p'(z), with p and p' from one Horner loop; None where p'(z) = 0."""
    val = der = 0j
    for c in reversed(coeffs):
        der = der * z + val
        val = val * z + c
    return z - val / der if der else None


# offsets of the four children's centers, in quarters of the parent's side
_CHILD = np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j])


def _cell_radius(centers, side: float):
    # max |z| over a cell is the hypot of the componentwise extremes
    half = side / 2.0
    return np.hypot(np.abs(centers.real) + half, np.abs(centers.imag) + half)
