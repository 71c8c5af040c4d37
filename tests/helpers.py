"""Shared test utilities: random polynomials, independent oracles and a
shared hard input."""

import numpy as np

# z^4 - 1 with the rounding dust that deflating z^8 - 1 by its four diagonal
# roots exp(2 pi i (j + 1/2) / 4), j = 0..3 in order, leaves on it
UNITY8_DUST_FACTOR = (
    complex(-1.0000000000000002, 5.265388888363904e-16),
    complex(-1.300707181133075e-16, -9.197388681172373e-17),
    complex(-9.197388681172368e-17, 2.220446049250314e-16),
    complex(-2.220446049250313e-16, -2.220446049250313e-16),
    1 + 0j,
)


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
