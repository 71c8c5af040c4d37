"""Coefficient-list polynomials over the complex numbers.

A polynomial is a sequence of coefficients with a0 first, so (1, 1j, 3)
stands for 1 + i z + 3 z^2.  Operations return plain tuples, the values are
immutable, and the zero polynomial is the empty tuple.  A polynomial is
normalized when its last coefficient is nonzero (or it is empty).
Every public entry that reads coefficient norms takes p through _prepare,
which normalizes it, takes its norms and refuses one that is not finite.
From those norms _noise_floor gives the rounding bound of the Horner loop
in evaluate_with_derivative (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 5.1), below which a computed |p| says nothing.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .complexmath import norm
from .errors import CannotDeflateConstant, DegenerateZeroPolynomial

Poly = tuple[complex, ...]

__all__ = [
    "Poly",
    "as_poly",
    "evaluate",
    "evaluate_with_derivative",
    "degree",
    "truncate",
    "shift",
    "max_coeff_norm",
    "deflate",
    "from_roots",
]


def as_poly(coeffs: Iterable[complex]) -> Poly:
    """Coerce an iterable of numbers to a coefficient tuple (a0 first)."""
    return tuple(map(complex, coeffs))


def _prepare(p: Sequence[complex]) -> tuple[Poly, list]:
    """p truncated and its norms; raises ValueError naming the first one that is not finite."""
    pt = truncate(p)
    norms = list(map(norm, pt))
    if not all(map(math.isfinite, norms)):
        i = next(i for i, a in enumerate(norms) if not math.isfinite(a))
        raise ValueError(f"the norm of a coefficient is {norms[i]}: coefficient a_{i} = {pt[i]}")
    return pt, norms


def evaluate(p: Sequence[complex], z: complex) -> complex:
    """sum a_i z^i, the value half of evaluate_with_derivative; 0 if p is empty."""
    return evaluate_with_derivative(as_poly(p), complex(z))[0]


def evaluate_with_derivative(p: Poly, z: complex) -> tuple[complex, complex]:
    """p(z) and p'(z) from the library's one complex Horner loop, for complex a_i.

    The loop runs the first two passes of shift's synthetic division side
    by side and keeps only the value each pass ends on, so the pair equals
    shift(p, z)[:2] bit for bit at O(n) cost instead of O(n^2).
    """
    if len(p) < 2:
        return (p[0] if p else 0j), 0j
    val = der = p[-1]
    for c in p[-2:0:-1]:
        val = c + z * val
        der = val + z * der
    return p[0] + z * val, der


_UNIT_ROUNDOFF = 2.0**-53


def _noise_floor(norms: list):
    """z -> gamma_2n * sum |a_i| |z|^i, the rounding bound of Horner's rule
    at z, from norms = [|a_0|, ..., |a_n|]."""
    k = 2 * (len(norms) - 1) * _UNIT_ROUNDOFF
    gamma = k / (1.0 - k)
    absc = norms[::-1]

    def at(z: complex) -> float:
        # a bound in real arithmetic, not an evaluation of p
        r, acc = norm(z), 0.0
        for c in absc:
            acc = acc * r + c
        return gamma * acc

    return at


def _fujiwara(norms: list) -> float:
    """Fujiwara's F = max_{i<n} (|a_i| / |a_n|)^(1/(n-i)) from norms [|a_0|,
    ..., |a_n|] (Tohoku Math. J. 10, 1916): every root has modulus < 2 F."""
    n, lead = len(norms) - 1, norms[-1]
    return max((a / lead) ** (1.0 / (n - i)) for i, a in enumerate(norms[:n]))


def truncate(p: Sequence[complex]) -> Poly:
    """Drop the trailing run of exactly zero coefficients."""
    q = as_poly(p)
    end = len(q)
    while end > 0 and q[end - 1] == 0:
        end -= 1
    return q[:end]


def degree(p: Sequence[complex]) -> int:
    """Degree of the normalized form; the zero polynomial has none."""
    q = truncate(p)
    if not q:
        raise DegenerateZeroPolynomial("the zero polynomial has no degree")
    return len(q) - 1


def shift(p: Sequence[complex], z0: complex) -> Poly:
    """Coefficients of q(z) = p(z + z0).

    Computed by repeated synthetic division at z0 (a Taylor shift), which is
    numerically gentler than expanding binomials.  The leading coefficient is
    preserved exactly, so the degree never changes.
    """
    z0 = complex(z0)
    a = [complex(c) for c in p]
    n = len(a)
    for j in range(n - 1):
        for i in range(n - 2, j - 1, -1):
            a[i] += z0 * a[i + 1]
    return tuple(a)


def max_coeff_norm(p: Sequence[complex]) -> float:
    """Largest coefficient norm."""
    norms = _prepare(p)[1]
    if not norms:
        raise DegenerateZeroPolynomial("no coefficients to take a maximum over")
    return max(norms)


def deflate(p: Sequence[complex], r: complex) -> tuple[Poly, complex]:
    """Synthetic division by (z - r): returns (quotient, remainder).

    p(z) = (z - r) * q(z) + remainder, and the remainder equals p(r) up to
    rounding.
    """
    q = truncate(p)
    if not q:
        raise DegenerateZeroPolynomial("cannot deflate the zero polynomial")
    if len(q) == 1:
        raise CannotDeflateConstant("cannot deflate a constant polynomial")
    return _deflate(q, complex(r))


def _deflate(q: Poly, r: complex) -> tuple[Poly, complex]:
    """deflate's synthetic division alone, for a normalized q of degree >= 1
    and a complex r."""
    n = len(q) - 1
    b = [0j] * n
    b[n - 1] = q[n]
    for i in range(n - 2, -1, -1):
        b[i] = q[i + 1] + r * b[i + 1]
    rem = q[0] + r * b[0]
    return tuple(b), rem


def from_roots(lead: complex, roots: Iterable[complex]) -> Poly:
    """Expand lead * prod (z - r_i), convolving in one linear factor at a time."""
    out: Poly = (complex(lead),)
    for r in roots:
        r = complex(r)
        acc = [0j] * (len(out) + 1)
        for i, a in enumerate(out):
            acc[i] -= a * r
            acc[i + 1] += a
        out = tuple(acc)
    return out
