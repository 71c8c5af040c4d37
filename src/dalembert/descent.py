"""Norm-decreasing descent steps toward polynomial roots.

At any point z0 where a non-constant polynomial is nonzero there is a nearby
z0 + zs with strictly smaller |p|.  The step comes from the shifted,
constant-normalized polynomial q(h) = p(z0 + h) / p(z0): take the lowest
exponent k >= 1 with a nonzero coefficient a_k and move along the kth root
of -s/a_k.  s starts at the full step 1, which for k = 1 is the Newton step
-p(z0)/p'(z0), and halves until |p| strictly drops.  d'Alembert's lemma ends
the halving: over exact reals every s <= step_parameter(q) decreases |p|.
In floating point the try with parameter s lowers |p| by about s |p(z0)|,
so the halving stops once that is below the noise floor at z0 (below): no
computed |p| can show a smaller gain.
q's first coefficient is p'(z0)/p(z0), so one O(n) Horner loop for p and p'
gives the step whenever p'(z0) != 0.  Each try of the halving runs that loop
at its point, so the try that is kept already holds the next step's p and
p', and a step costs one loop per try.  The O(n^2) Taylor shift of p is built
only when it is 0 (k >= 2), or when the k = 1 halving stalls while |p(z0)|
is above the noise floor below.  Such a stall is rounding's doing: from a
real start with real coefficients every k = 1 try stays on the real axis
and can stall near a critical point on it with |p| far from 0, and a
"lowest nonzero" coefficient can be rounding dust.  The later nonzero
coefficients of q are then tried in order (k = 2, 3, ...), and the first
whose halving strictly lowers |p| gives the step; it stalls only if every
term does.  So a stalled descent has this one way out, and no caller
retries it from another start.
Because only roots stop the iteration, walking downhill is a root finder.
descend stops once the residual meets the tolerance or the rounding floor of
Horner's rule, gamma_2n * sum |a_i| |z|^i (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 5.1), below which a computed |p| says nothing.

DescentStep and TraceRow are named tuples: they compare equal to plain
tuples, unpack, and give changed copies with ._replace, while
dataclasses.replace, fields and asdict do not apply to them.  RootResult
stays a frozen dataclass: the benchmark's digest reads any tuple as a CLI
(exit code, stdout) pair, so the solvers' results must not be tuples.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .complexmath import norm, nth_root
from .errors import AlreadyAtRoot, NotApplicableToConstant, StepStalled
from .polynomial import Poly, _noise_floor, _prepare, evaluate_with_derivative, shift

__all__ = [
    "DescentStep",
    "TraceRow",
    "RootResult",
    "step_parameter",
    "descent_step",
    "descend",
]

class DescentStep(NamedTuple):
    """Witness for a strict decrease of |p| from z0 to z0 + zs.

    k is the exponent of the coefficient ak of the shifted,
    constant-normalized polynomial that gave the step: the lowest nonzero
    one, or, when the k = 1 step stalls above the noise floor, the first
    later nonzero one whose step strictly lowers |p|.
    s is the accepted step parameter, and zs the kth root of -s/ak.  before
    and after are |p| at z0 and z0 + zs; after < before always holds.
    """

    k: int
    ak: complex
    s: float
    zs: complex
    before: float
    after: float


class TraceRow(NamedTuple):
    """One point of a descent: the step count, the point, |p| there, and
    the step parameter s and exponent k that reached it (0 and 0 at the
    start)."""

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


def step_parameter(p) -> float:
    """Step parameter s in (0, 1) for a polynomial with constant term 1.

    Half of |a_k|^(k+1) / (M^k (n+1)^k), capped at 1/2; within that range the
    tail of the polynomial cannot cancel the 1 - s gain of the a_k term.
    """
    q, norms = _prepare(p)
    if not q or q[0] != 1:
        raise ValueError("step_parameter expects a constant term of exactly 1")
    if len(q) == 1:
        raise NotApplicableToConstant("a constant polynomial has no nonzero exponent")
    # the lowest exponent k >= 1 with a_k != 0; a_n != 0 after _prepare
    k = next(i for i in range(1, len(q)) if q[i] != 0)
    ak, m, n = norms[k], max(norms), len(q) - 1
    # algebraically |a_k|^(k+1) / (M^k (n+1)^k); grouped to avoid overflow
    bound = ak * (ak / m) ** k / float((n + 1) ** k)
    return min(0.5, 0.5 * bound)


def _nonconstant(p) -> tuple:
    """p normalized and its noise floor; raises where a norm is not finite or p is constant."""
    pt, norms = _prepare(p)
    if len(pt) <= 1:
        raise NotApplicableToConstant("descent requires a non-constant polynomial")
    return pt, _noise_floor(norms)


def _step(pt: Poly, floor: float, z0: complex, before: float, pair: tuple) -> tuple:
    """descent_step's fields (k, ak, s, zs, before, after) and the pair
    (p, p') at z0 + zs as a plain tuple, for a normalized non-constant pt
    whose noise floor at z0 is floor, given the pair (p(z0), p'(z0)) and
    before = |p(z0)|."""
    a0, d = pair
    if a0 == 0:
        # cancellation made p(z0) exactly zero
        raise AlreadyAtRoot(f"p({z0}) vanishes to working precision")
    # q(h) = p(z0 + h) / p(z0) = 1 + (p'(z0) / p(z0)) h + ...; the Taylor
    # shift is needed only when that first coefficient is zero or its step
    # stalls
    ak, stall = d / a0, None
    if ak != 0:
        try:
            return _halve(pt, z0, before, floor, 1, ak)
        except StepStalled as error:
            # at the noise floor a computed |p| says nothing, so the stall
            # is final; above it a later term can leave the line or the
            # rounding dust that k = 1 is stuck on
            if before <= floor:
                raise
            stall = error
    # shift(pt, z0)[1] is d bit for bit: either the term just tried or zero
    for k, c in enumerate(shift(pt, z0)[2:], 2):
        ak = c / a0
        if ak != 0:
            try:
                return _halve(pt, z0, before, floor, k, ak)
            except StepStalled as error:
                stall = error
    if stall is None:
        raise NotApplicableToConstant("the shifted polynomial is constant to working precision")
    raise stall


def _halve(pt: Poly, z0: complex, before: float, floor: float, k: int, ak: complex) -> tuple:
    """The step z0 + (-s/ak)^(1/k) for the first s = 1, 1/2, ... that
    strictly lowers |p| below before, as the tuple (k, ak, s, zs, before,
    after, pair), pair being (p, p') at z0 + zs.  Each try is one Horner
    loop for p and p', so the accepted one starts the next step.  The try
    with parameter s gains about s * before, so the halving stalls once
    that is below floor, the noise floor at z0."""
    s = 1.0
    while True:
        # nth_root(x, 1) is complex(x), the same bits, after a check and a call
        zs = -s / ak if k == 1 else nth_root(-s / ak, k)
        if z0 + zs == z0:
            # every smaller s rounds back to z0 too, so nothing can decrease
            raise StepStalled(f"the step rounds to nothing at s = {s}, z0 = {z0}")
        pair = evaluate_with_derivative(pt, z0 + zs)
        after = norm(pair[0])
        if after < before:
            return k, ak, s, zs, before, after, pair
        s *= 0.5
        if s * before < floor:
            # the gain left is below what a computed |p| can show
            raise StepStalled(f"the gain at s = {s} is below the noise floor at z0 = {z0}")


def descent_step(p, z0: complex) -> DescentStep:
    """One strict-decrease move away from z0.

    Tries the full step s = 1 (Newton when k = 1) and halves s until |p|
    strictly drops, which over exact reals happens by s = step_parameter(q);
    rounding can delay it.  A k = 1 halving that stalls while |p(z0)| is
    above the noise floor is followed by the halving of each later nonzero
    Taylor coefficient in turn, until one strictly lowers |p|.  Raises
    ValueError naming a coefficient that is not finite, AlreadyAtRoot when
    p(z0) = 0, OverflowError when |p(z0)| is not finite, and StepStalled
    when, for every term tried, z0 + zs rounds to z0 or the gain s |p(z0)|
    of the next try is below the noise floor at z0.
    """
    (pt, floor), z0 = _nonconstant(p), complex(z0)
    pair = evaluate_with_derivative(pt, z0)
    before = norm(pair[0])
    if not math.isfinite(before):
        raise OverflowError(f"|p| overflows at z0 = {z0}")
    return DescentStep(*_step(pt, floor(z0), z0, before, pair)[:6])


def _check_tol_max_iter(tol: float, max_iter: int) -> None:
    if not (0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if isinstance(max_iter, bool) or not (isinstance(max_iter, numbers.Integral) and max_iter >= 0):
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")


def descend(p, z0: complex, tol: float = 1e-10, max_iter: int = 10000) -> RootResult:
    """Iterate the descent step until converged, max_iter steps, or float exhaustion.

    Converged means a finite |p(z)| <= max(tol, gamma_2n * sum |a_i| |z|^i):
    the residual meets tol or has reached the rounding floor of evaluating
    p.  The floor scales with p but tol is absolute, so for a tiny multiple
    of p, such as 1e-20 * p, tol can hold far from any root.  The residual
    trace is strictly decreasing, so only the start can be non-finite; a
    start where |p| overflows is returned at once, not converged, since no
    step can be computed there.  Running out of iterations or stalling is
    reported through converged=False, not raised.  tol must be positive and
    finite and max_iter an integer >= 0; a coefficient that is not finite is
    a ValueError.
    """
    _check_tol_max_iter(tol, max_iter)
    (pt, floor), z = _nonconstant(p), complex(z0)
    return _descend(pt, floor, z, evaluate_with_derivative(pt, z), tol, max_iter, True)


def _descend(pt: Poly, floor, z: complex, pair: tuple, tol: float, max_iter: int,
             keep_trace: bool) -> RootResult:
    """descend's loop from z, where (p, p') = pair and the residual is
    norm(p), for a normalized non-constant pt whose noise floor is floor
    (see polynomial._noise_floor), and checked tol and max_iter; with
    keep_trace unset the trace is None.  floor(z) is computed once per
    point while the residual > tol; below, the loop test and the converged
    flag read max(tol, floor(z)) = tol whatever it is."""
    residual = norm(pair[0])
    rows = [TraceRow(0, z, residual, 0.0, 0)] if keep_trace else None
    steps, bound = 0, floor(z) if residual > tol else 0.0
    while math.isfinite(residual) and residual > max(tol, bound) and steps < max_iter:
        try:
            k, _ak, s, zs, _before, residual, pair = _step(pt, bound, z, residual, pair)
        except (StepStalled, AlreadyAtRoot):
            break
        z = z + zs
        bound = floor(z) if residual > tol else 0.0
        steps += 1
        if keep_trace:
            rows.append(TraceRow(steps, z, residual, s, k))
    return RootResult(
        root=z,
        residual=residual,
        iterations=steps,
        converged=math.isfinite(residual) and residual <= max(tol, bound),
        trace=tuple(rows) if keep_trace else None,
    )
