"""Shared test utilities: random polynomials and independent oracles."""

import numpy as np


def random_poly(rng, degree):
    """Random coefficients uniform in the unit box, a0 first, as a tuple."""
    c = rng.uniform(-1.0, 1.0, degree + 1) + 1j * rng.uniform(-1.0, 1.0, degree + 1)
    return tuple(c)


def random_point(rng, scale=1.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def dense_min_oracle(p, region, n=512):
    """Minimum of |p| over an n x n sample grid, via numpy's own evaluator.

    Independent of the library path: np.polyval on a meshgrid, highest
    coefficient first.
    """
    c = np.asarray(p, dtype=complex)[::-1]
    xs = np.linspace(region.corner.real, region.corner.real + region.side, n)
    ys = np.linspace(region.corner.imag, region.corner.imag + region.side, n)
    grid = xs[np.newaxis, :] + 1j * ys[:, np.newaxis]
    return float(np.abs(np.polyval(c, grid)).min())


def eval_sum_oracle(p, z):
    """Plain power-sum evaluation (not Horner), as an independent check."""
    return sum(c * z**i for i, c in enumerate(p))


def unit_constant(p):
    """p / a0 with the constant term set to exactly 1 (a0 must be nonzero)."""
    return (1 + 0j,) + tuple(complex(c) / complex(p[0]) for c in p[1:])


def lowest_exponent(q):
    """Smallest k >= 1 with q[k] != 0 (q non-constant and truncated)."""
    return next(k for k in range(1, len(q)) if q[k] != 0)
