"""Certified minimization of |p(z)| over axis-aligned squares.

A CertifiedMinimum pairs the best evaluated point with a proven optimality
gap: the true minimum over the region is guaranteed to lie in
[value - gap, value].  The guarantee comes from an explicit Lipschitz
constant for |p| on the region, so it needs nothing beyond the coefficients.

certified_min runs a breadth-first branch-and-bound over subsquares: a
cell's lower bound is |p| at its center minus the Lipschitz constant on its
enclosing disk times its half diagonal, and cells whose lower bound cannot
beat the incumbent are pruned.  Cell evaluations within one expansion wave
are vectorized (and could run in parallel); the reductions use a fixed
first-minimum tie-break, so results are identical to sequential execution.
The result keeps the centers of the cells still live at the stop; a sound
search never prunes a cell that holds a global minimizer, such as a root.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .polynomial import as_poly

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

    def corners(self) -> tuple[complex, complex, complex, complex]:
        x0, y0, s = self.corner.real, self.corner.imag, self.side
        return (
            complex(x0, y0),
            complex(x0 + s, y0),
            complex(x0, y0 + s),
            complex(x0 + s, y0 + s),
        )

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
    c = region.center
    radius = _cell_radius(np.array([c.real]), np.array([c.imag]), np.array([region.side]))
    return float(_horner(dnorm, radius)[0])


def certified_min(
    p,
    region: SquareRegion,
    epsilon: float,
    budget: int = 1_000_000,
) -> CertifiedMinimum:
    """Branch-and-bound minimum of |p| over the region.

    Cells whose lower bound f(center) - L_cell * (sqrt(2)/2) * side_cell
    reaches the incumbent are pruned, the rest split 2x2.  Stops after the
    wave where gap <= epsilon, or when the next wave would take the cell
    evaluations past budget; a budget stop is flagged on the result, not
    raised, and its gap is still valid.  budget must be an integer >= 1.
    """
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (isinstance(budget, numbers.Integral) and budget >= 1):
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    coeffs = np.asarray(as_poly(p), dtype=complex)
    dnorm = _derivative_norms(coeffs)

    def bound(x: np.ndarray, y: np.ndarray, side: np.ndarray):
        """|p| at the cell centers and lower bounds of |p| over the cells."""
        vals = np.abs(_horner(coeffs, x + 1j * y))
        return vals, vals - _horner(dnorm, _cell_radius(x, y, side)) * (HALF_DIAGONAL * side)

    cx = np.array([region.center.real])
    cy = np.array([region.center.imag])
    side = np.array([region.side])
    vals, lower = bound(cx, cy, side)
    evaluations = 1
    best_val = float(vals[0])
    best_pt = complex(cx[0], cy[0])
    keep = lower < best_val
    cx, cy, side, lower = cx[keep], cy[keep], side[keep], lower[keep]
    budget_exhausted = False

    while True:
        gap = max(0.0, best_val - float(lower.min())) if lower.size else 0.0
        if lower.size == 0 or gap <= epsilon:
            break
        if evaluations + 4 * cx.size > budget:
            budget_exhausted = True
            break
        quarter = side / 4.0
        child_x = (cx[:, None] + _CHILD_DX * quarter[:, None]).ravel()
        child_y = (cy[:, None] + _CHILD_DY * quarter[:, None]).ravel()
        child_side = np.repeat(side, 4) / 2.0
        vals, lower = bound(child_x, child_y, child_side)
        evaluations += vals.size
        i = int(np.argmin(vals))
        if float(vals[i]) < best_val:  # strict: ties keep the earlier incumbent
            best_val = float(vals[i])
            best_pt = complex(child_x[i], child_y[i])
        keep = lower < best_val
        cx, cy, side, lower = child_x[keep], child_y[keep], child_side[keep], lower[keep]

    cells = np.empty(cx.size, dtype=complex)
    cells.real, cells.imag = cx, cy  # cx + 1j * cy costs ~15x as much
    return CertifiedMinimum(best_pt, best_val, gap, evaluations, budget_exhausted, _frozen(cells))


_CHILD_DX = np.array([-1.0, 1.0, -1.0, 1.0])
_CHILD_DY = np.array([-1.0, -1.0, 1.0, 1.0])


def _cell_radius(cx: np.ndarray, cy: np.ndarray, side: np.ndarray) -> np.ndarray:
    # max |z| over a cell is the hypot of the componentwise extremes
    half = side / 2.0
    return np.hypot(np.abs(cx) + half, np.abs(cy) + half)
