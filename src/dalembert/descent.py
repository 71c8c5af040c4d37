"""Norm-decreasing descent steps toward polynomial roots.

At any point z0 where a non-constant polynomial is nonzero there is a nearby
z0 + zs with strictly smaller |p|.  The step comes from the shifted,
constant-normalized polynomial q(h) = p(z0 + h) / p(z0): take the lowest
exponent k >= 1 with a nonzero coefficient a_k, pick a step parameter s from
the coefficient norms so that the tail of q cannot cancel the gain, and move
along the kth root of -s/a_k.  Because only roots stop the iteration, walking
downhill is a root finder.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class DescentStep:
    """Witness for a strict decrease of |p| from z0 to z0 + zs.

    k is the lowest exponent >= 1 with nonzero coefficient ak in the shifted,
    constant-normalized polynomial, m the maximum coefficient norm, s the
    accepted step parameter, and zs the kth root of -s/ak.  before and after
    are |p| at z0 and z0 + zs; after < before always holds.
    """

    k: int
    ak: complex
    m: float
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


def _step_size(k: int, ak: float, m: float, n: int) -> float:
    """step_parameter from k, |a_k|, M and the degree n."""
    # algebraically |a_k|^(k+1) / (M^k (n+1)^k); grouped to avoid overflow
    bound = ak * (ak / m) ** k / float((n + 1) ** k)
    return min(0.5, 0.5 * bound)


def step_parameter(p) -> float:
    """Step parameter s in (0, 1) for a polynomial with constant term 1.

    Half of |a_k|^(k+1) / (M^k (n+1)^k), capped at 1/2; within that range the
    tail of the polynomial cannot cancel the 1 - s gain of the a_k term.
    """
    q = truncate(p)
    if not q or q[0] != 1:
        raise ValueError("step_parameter expects a constant term of exactly 1")
    k = lowest_nonzero_exponent(q)
    return _step_size(k, norm(q[k]), max_coeff_norm(q), len(q) - 1)


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
    norms = [norm(c) for c in q]
    nonzero = [i for i, v in enumerate(norms, start=1) if v != 0]
    if not nonzero:
        raise NotApplicableToConstant("the shifted polynomial is constant to working precision")
    k, n = nonzero[0], nonzero[-1]  # n: the degree once trailing zeros drop
    ak = q[k - 1]
    m = max([1.0] + norms)
    s = _step_size(k, norms[k - 1], m, n)
    while True:
        zs = nth_root(-s / ak, k)
        after = norm(evaluate(pt, z0 + zs))
        if after < before:
            return DescentStep(k, ak, m, s, zs, before, after)
        s *= 0.5
        if s < _MIN_STEP:
            raise StepStalled(
                f"no strict decrease found above s = {_MIN_STEP} at z0 = {z0}"
            )


def descent_step(p, z0: complex) -> DescentStep:
    """One strict-decrease move away from z0.

    The theoretical s guarantees a decrease over exact reals; rounding can
    spoil it, so s is halved geometrically until |p| strictly drops.  Raises
    AlreadyAtRoot when p(z0) = 0 and StepStalled when halving underflows.
    """
    pt = _nonconstant(p)
    z0 = complex(z0)
    before = norm(evaluate(pt, z0))
    if before == 0.0:
        raise AlreadyAtRoot(f"p({z0}) = 0 already")
    return _step(pt, z0, before)


def descend(p, z0: complex, tol: float = 1e-10, max_iter: int = 10000,
            keep_trace: bool = True) -> RootResult:
    """Iterate the descent step until |p| <= tol, max_iter steps, or float exhaustion.

    The residual trace is strictly decreasing.  Running out of iterations or
    stalling is reported through converged=False, not raised.
    """
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    pt = _nonconstant(p)
    z = complex(z0)
    residual = norm(evaluate(pt, z))
    rows = [TraceRow(0, z, residual, 0.0, 0)]
    steps = 0
    while residual > tol and steps < max_iter:
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
        converged=residual <= tol,
        trace=tuple(rows) if keep_trace else None,
    )
