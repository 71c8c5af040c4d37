"""Euclidean norm, principal nth roots, and complex literals.

Everything works on Python's built-in complex type.  All functions are pure
and total on finite inputs; NaN never enters or leaves when the inputs are
finite, and infinity leaves only as a norm that overflows.
"""

from __future__ import annotations

import cmath
import math
import re

from .errors import ParseError

__all__ = ["norm", "nth_root", "parse_complex", "format_complex"]


def norm(z: complex) -> float:
    """|z|, inf where it overflows: the library's one complex |.|, C's hypot
    of the parts, as abs of a Python complex and np.hypot per element are
    (math.hypot and numpy's complex absolute round otherwise)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def nth_root(z: complex, n: int) -> complex:
    """Principal nth root: radius^(1/n) at one nth of the angle in (-pi, pi].

    The root of 0 is 0, and a z on the negative real axis has angle pi
    whatever the sign of its zero imaginary part.  n must be an int or a
    numpy integer, not a bool.
    """
    # an int passes on its first test: every descent try calls this, and
    # isinstance(n, numbers.Integral) would cost several times as much
    if n.__class__ is not int and (n.__class__ is bool or not hasattr(n, "__index__")) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    z = complex(z)
    if n == 1:
        return z
    if z == 0:
        return 0j
    radius, angle = cmath.polar(z)
    if angle <= -math.pi:
        angle = math.pi  # atan2 can return -pi; keep the angle in (-pi, pi]
    return cmath.rect(radius ** (1.0 / n), angle / n)


_FLOAT = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REAL_ONLY = re.compile(rf"^({_FLOAT})$")
_IMAG_ONLY = re.compile(rf"^({_FLOAT})i$")
_REAL_IMAG = re.compile(rf"^({_FLOAT})([+-]{_UNSIGNED})i$")


def parse_complex(text: str, position: int = 1) -> complex:
    """Parse a literal of the form ``a``, ``bi``, ``a+bi``, or ``a-bi``.

    The reals are plain decimals with an optional exponent (``1``, ``1i``,
    ``-0.5+2i``).  ``position`` is reported in errors when the literal is one
    token of a larger input.
    """
    token = text.strip()
    m = _REAL_ONLY.match(token)
    if m:
        return _require_finite(complex(float(m.group(1)), 0.0), token, position)
    m = _IMAG_ONLY.match(token)
    if m:
        return _require_finite(complex(0.0, float(m.group(1))), token, position)
    m = _REAL_IMAG.match(token)
    if m:
        return _require_finite(
            complex(float(m.group(1)), float(m.group(2))), token, position
        )
    raise ParseError(f"malformed complex literal {token!r} (token {position})", position)


def _require_finite(z: complex, token: str, position: int) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError(
            f"complex literal {token!r} overflows a double (token {position})", position
        )
    return z


def format_complex(z: complex) -> str:
    """Inverse of parse_complex; floats use their shortest round-trip form."""
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    imag = repr(abs(z.imag)) + "i"
    if z.real == 0.0:
        return imag if sign == "+" else "-" + imag
    return repr(z.real) + sign + imag
