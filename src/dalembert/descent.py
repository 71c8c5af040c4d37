"""Norm-decreasing descent steps toward polynomial roots.

At any point z0 where a non-constant polynomial is nonzero there is a nearby
z0 + zs with strictly smaller |p|.  The step comes from the shifted,
constant-normalized polynomial q(h) = p(z0 + h) / p(z0): take the lowest
exponent k >= 1 with a nonzero coefficient a_k and move along the kth root
of -s/a_k.  s starts at the full step 1, which for k = 1 is the Newton step
-p(z0)/p'(z0), and halves until |p| strictly drops.  d'Alembert's lemma ends
the halving: over exact reals every s <= step_parameter(q) decreases |p|.
Because only roots stop the iteration, walking downhill is a root finder.
descend stops once the residual meets the tolerance or the rounding floor of
Horner's rule, gamma_2n * sum |a_i| |z|^i (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 5.1), below which a computed |p| says nothing.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

from .complexmath import norm, nth_root
from .errors import AlreadyAtRoot, NotApplicableToConstant, StepStalled
from .polynomial import Poly, evaluate, max_coeff_norm, shift, truncate

__all__ = [
    "DescentStep",
    "TraceRow",
    "RootResult",
    "lowest_nonzero_exponent",
    "step_parameter",
    "descent_step",
    "descend",
]

# Below this the halving loop has hit float exhaustion.
_MIN_STEP = 1e-300
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class DescentStep:
    """Witness for a strict decrease of |p| from z0 to z0 + zs.

    k is the lowest exponent >= 1 with nonzero coefficient ak in the shifted,
    constant-normalized polynomial, s the accepted step parameter, and zs
    the kth root of -s/ak.  before and after are |p| at z0 and z0 + zs;
    after < before always holds.
    """

    k: int
    ak: complex
    s: float
    zs: complex
    before: float
    after: float


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    point: complex
    residual: float
    s: float
    k: int


@dataclass(frozen=True)
class RootResult:
    """Outcome of a descent: final point, |p| there, and the residual trace."""

    root: complex
    residual: float
    iterations: int
    converged: bool
    trace: Optional[tuple[TraceRow, ...]] = None


def lowest_nonzero_exponent(p) -> int:
    """Smallest i >= 1 with a_i != 0 (exact comparison); at most the degree."""
    q = truncate(p)
    if len(q) <= 1:
        raise NotApplicableToConstant("a constant polynomial has no nonzero exponent")
    for i in range(1, len(q)):
        if q[i] != 0:
            return i
    raise AssertionError("truncate left a zero leading coefficient")


def step_parameter(p) -> float:
    """Step parameter s in (0, 1) for a polynomial with constant term 1.

    Half of |a_k|^(k+1) / (M^k (n+1)^k), capped at 1/2; within that range the
    tail of the polynomial cannot cancel the 1 - s gain of the a_k term.
    """
    q = truncate(p)
    if not q or q[0] != 1:
        raise ValueError("step_parameter expects a constant term of exactly 1")
    k = lowest_nonzero_exponent(q)
    ak, m, n = norm(q[k]), max_coeff_norm(q), len(q) - 1
    # algebraically |a_k|^(k+1) / (M^k (n+1)^k); grouped to avoid overflow
    bound = ak * (ak / m) ** k / float((n + 1) ** k)
    return min(0.5, 0.5 * bound)


def _nonconstant(p) -> Poly:
    pt = truncate(p)
    if len(pt) <= 1:
        raise NotApplicableToConstant("descent requires a non-constant polynomial")
    return pt


def _step(pt: Poly, z0: complex, before: float) -> DescentStep:
    """descent_step for a normalized non-constant pt, given before = |p(z0)|."""
    shifted = shift(pt, z0)
    a0 = shifted[0]
    if a0 == 0:
        # cancellation made the shifted constant term exactly zero
        raise AlreadyAtRoot(f"p({z0}) vanishes to working precision")
    # q(h) = p(z0 + h) / p(z0) = 1 + q[0] h + q[1] h^2 + ...
    q = [c / a0 for c in shifted[1:]]
    nonzero = [i for i, c in enumerate(q, start=1) if c != 0]
    if not nonzero:
        raise NotApplicableToConstant("the shifted polynomial is constant to working precision")
    k = nonzero[0]
    ak = q[k - 1]
    s = 1.0
    while True:
        zs = nth_root(-s / ak, k)
        if z0 + zs == z0:
            # every smaller s rounds back to z0 too, so nothing can decrease
            raise StepStalled(f"the step rounds to nothing at s = {s}, z0 = {z0}")
        after = norm(evaluate(pt, z0 + zs))
        if after < before:
            return DescentStep(k, ak, s, zs, before, after)
        s *= 0.5
        if s < _MIN_STEP:
            raise StepStalled(
                f"no strict decrease found above s = {_MIN_STEP} at z0 = {z0}"
            )


def descent_step(p, z0: complex) -> DescentStep:
    """One strict-decrease move away from z0.

    Tries the full step s = 1 (Newton when k = 1) and halves s until |p|
    strictly drops, which over exact reals happens by s = step_parameter(q);
    rounding can delay it.  Raises AlreadyAtRoot when p(z0) = 0 and
    StepStalled once z0 + zs rounds to z0 or halving underflows.
    """
    pt = _nonconstant(p)
    z0 = complex(z0)
    before = norm(evaluate(pt, z0))
    if before == 0.0:
        raise AlreadyAtRoot(f"p({z0}) = 0 already")
    return _step(pt, z0, before)


def _noise_floor(pt: Poly):
    """z -> gamma_2n * sum |a_i| |z|^i, the rounding bound of Horner's rule at z."""
    k = 2 * (len(pt) - 1) * _UNIT_ROUNDOFF
    gamma = k / (1.0 - k)
    absc = [norm(c) for c in reversed(pt)]

    def at(z: complex) -> float:
        # a bound in real arithmetic, not an evaluation of p
        r, acc = norm(z), 0.0
        for c in absc:
            acc = acc * r + c
        return gamma * acc

    return at


def descend(p, z0: complex, tol: float = 1e-10, max_iter: int = 10000,
            keep_trace: bool = True) -> RootResult:
    """Iterate the descent step until converged, max_iter steps, or float exhaustion.

    Converged means |p(z)| <= max(tol, gamma_2n * sum |a_i| |z|^i): the
    residual meets tol or has reached the rounding floor of evaluating p, so
    it means the same for p and for any multiple of p.  The residual trace
    is strictly decreasing.  Running out of iterations or stalling is
    reported through converged=False, not raised.  max_iter must be an
    integer >= 0.
    """
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    if isinstance(max_iter, bool) or not (isinstance(max_iter, numbers.Integral) and max_iter >= 0):
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    pt = _nonconstant(p)
    floor = _noise_floor(pt)
    z = complex(z0)
    residual = norm(evaluate(pt, z))
    rows = [TraceRow(0, z, residual, 0.0, 0)]
    steps = 0
    while residual > max(tol, floor(z)) and steps < max_iter:
        try:
            step = _step(pt, z, residual)
        except (StepStalled, AlreadyAtRoot):
            break
        z = z + step.zs
        residual = step.after
        steps += 1
        rows.append(TraceRow(steps, z, residual, step.s, step.k))
    return RootResult(
        root=z,
        residual=residual,
        iterations=steps,
        converged=residual <= max(tol, floor(z)),
        trace=tuple(rows) if keep_trace else None,
    )
