"""Independent oracle: reference roots and verdicts on the library's answers.

Nothing here calls dalembert.  Reference roots are the construction roots
of the built families; random inputs are solved with mpmath.polyroots at
raised precision and cross-checked against numpy.roots.  The verdicts are
scale-invariant: multiplying every coefficient by a constant changes none.

Match radius of a reference root z of multiplicity (or cluster size) m:
    m == 1:  max(1e-6 * max(1, |z|), min(1e-8 * S(z) / |p'(z)|, max(1, |z|)))
    m >= 2:  1e-6 ** (1/m) * max(1, |z|)
where S(z) = sum |a_i| |z|^i.  The second simple-root term is how far a
point with relative backward error 1e-8 can sit from an ill-conditioned
root.  A certificate [value - gap, value] is false when some point of the
square has a |p| below value - gap by more than the Horner error bound
gamma_2n * S(z) (Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53
RECON_REL_MAX = 1e-6  # largest |a_n prod(z - r_i) - p| / max|a_i| accepted
DENSE_SAMPLES = 65  # grid per side when no reference root lies in a square


class OracleError(RuntimeError):
    """The reference itself could not be established."""


@dataclass(frozen=True)
class Reference:
    coeffs: np.ndarray  # complex, a0 first
    roots: np.ndarray  # complex, with multiplicity
    radius: np.ndarray  # match radius per root


def _gamma(k: int) -> float:
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def horner_noise(coeffs: np.ndarray, z) -> np.ndarray:
    """gamma_2n * sum |a_i| |z|^i, the rounding bound of Horner's rule at z."""
    n = len(coeffs) - 1
    return _gamma(2 * n) * np.polyval(np.abs(coeffs)[::-1], np.abs(z))


def _matching(a: np.ndarray, b: np.ndarray, radius: np.ndarray) -> bool:
    """A perfect matching of a onto b with |a_i - b_j| <= radius_j."""
    if len(a) != len(b):
        return False
    near = np.abs(a[:, None] - b[None, :]) <= radius[None, :]
    owner = [-1] * len(b)

    def augment(i, seen):
        for j in np.flatnonzero(near[i]):
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, [False] * len(b)) for i in range(len(a)))


def _solve(coeffs: np.ndarray) -> np.ndarray:
    """Roots by mpmath.polyroots at raised precision, checked against numpy.roots."""
    with mpmath.workdps(30):
        try:
            found = mpmath.polyroots(
                [mpmath.mpc(c.real, c.imag) for c in coeffs[::-1]], maxsteps=500, extraprec=120
            )
        except mpmath.libmp.NoConvergence as exc:
            raise OracleError(f"mpmath.polyroots did not converge: {exc}") from exc
        roots = np.array([complex(r) for r in found])
    check = np.roots(coeffs[::-1])
    if not _matching(check, roots, 1e-6 * np.maximum(1.0, np.abs(roots))):
        raise OracleError("mpmath.polyroots and numpy.roots disagree")
    return roots


def reference(inp) -> Reference:
    coeffs = np.asarray(inp.coeffs, dtype=complex)
    if inp.roots is None:
        roots = _solve(coeffs)
        mult = np.ones(len(roots))
    else:
        roots = np.asarray(inp.roots, dtype=complex)
        mult = np.asarray(inp.mult, dtype=float)
    scale = np.maximum(1.0, np.abs(roots))
    deriv = np.abs(np.polyval(np.polyder(coeffs[::-1]), roots))
    with np.errstate(divide="ignore"):
        conditioned = 1e-8 * np.polyval(np.abs(coeffs)[::-1], np.abs(roots)) / deriv
    simple = np.maximum(1e-6 * scale, np.minimum(conditioned, scale))
    radius = np.where(mult > 1, 1e-6 ** (1.0 / mult) * scale, simple)
    return Reference(coeffs, roots, radius)


def root_ok(ref: Reference, z: complex) -> bool:
    """z lies within the match radius of some reference root."""
    return bool(np.any(np.abs(ref.roots - z) <= ref.radius))


def roots_ok(ref: Reference, zs) -> bool:
    """The roots match the reference as a multiset and rebuild p closely."""
    zs = np.asarray(zs, dtype=complex)
    if not _matching(zs, ref.roots, ref.radius):
        return False
    rebuilt = ref.coeffs[-1] * np.poly(zs)[::-1]
    err = np.max(np.abs(rebuilt - ref.coeffs)) / np.max(np.abs(ref.coeffs))
    return bool(err <= RECON_REL_MAX)


def _abs_exact(coeffs: np.ndarray, z: complex) -> float:
    with mpmath.workdps(40):
        return float(abs(mpmath.polyval([mpmath.mpc(c.real, c.imag) for c in coeffs[::-1]],
                                        mpmath.mpc(z.real, z.imag))))


def _inside(corner: complex, side: float, z: complex, slack: float = 0.0) -> bool:
    pad = slack * side
    return (corner.real - pad <= z.real <= corner.real + side + pad
            and corner.imag - pad <= z.imag <= corner.imag + side + pad)


def certificate_ok(ref: Reference, corner: complex, side: float,
                   value: float, gap: float, argmin: complex) -> bool:
    """min |p| over the square lies in [value - gap, value], up to Horner noise."""
    if not _inside(corner, side, argmin, 1e-12):
        return False
    if not value >= _abs_exact(ref.coeffs, argmin) - float(horner_noise(ref.coeffs, argmin)):
        return False
    points = [z for z in ref.roots if _inside(corner, side, z)]
    if points:
        attained = min(_abs_exact(ref.coeffs, z) + float(horner_noise(ref.coeffs, z)) for z in points)
    else:
        t = np.linspace(0.0, side, DENSE_SAMPLES)
        grid = (corner.real + t[None, :]) + 1j * (corner.imag + t[:, None])
        values = np.abs(np.polyval(ref.coeffs[::-1], grid)) + horner_noise(ref.coeffs, grid)
        attained = float(values.min())
    return bool(value - gap <= attained)  # False on NaN as well


def enclosure_ok(ref: Reference, radius: float) -> bool:
    """Every reference root lies in the square [-radius, radius]^2."""
    r = radius * (1.0 + 1e-12)
    return bool(np.all(np.maximum(np.abs(ref.roots.real), np.abs(ref.roots.imag)) <= r))
