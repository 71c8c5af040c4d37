import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dalembert.complexmath import format_complex, norm, nth_root, parse_complex
from dalembert.errors import ParseError

finite_reals = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite_reals, finite_reals)


class TestNorm:
    def test_pythagorean_triple(self):
        assert norm(3 + 4j) == 5.0

    def test_zero(self):
        assert norm(0j) == 0.0

    def test_multiplicative_hand_case(self):
        # (1+i)(1-i) = 2, and norm(1+i) * norm(1-i) = sqrt(2)^2
        assert norm((1 + 1j) * (1 - 1j)) == 2.0
        assert norm(1 + 1j) * norm(1 - 1j) == pytest.approx(2.0, abs=1e-12)

    def test_zero_only_at_zero(self):
        assert norm(complex(1e-300, 0)) > 0.0
        assert norm(complex(0.0, -0.0)) == 0.0

    @given(complexes, complexes)
    def test_multiplicativity(self, x, y):
        lhs, rhs = norm(x * y), norm(x) * norm(y)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)

    @given(complexes, complexes)
    def test_triangle_inequality(self, x, y):
        assert norm(x + y) <= norm(x) + norm(y) + 1e-12 * (1.0 + norm(x) + norm(y))

    @given(complexes, complexes)
    def test_reverse_triangle(self, x, y):
        assert norm(x - y) >= norm(x) - norm(y) - 1e-12 * (1.0 + norm(x) + norm(y))

    @given(complexes, st.integers(0, 32))
    def test_power_law(self, z, n):
        lhs, rhs = norm(z**n), norm(z) ** n
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)

    def test_one_absolute_value(self):
        # norm is the abs of a Python complex, and np.hypot of the parts
        # per element, bit for bit: all three are C's hypot (math.hypot and
        # numpy's complex absolute round otherwise on some values)
        rng = np.random.default_rng(17)
        n = 20_000
        parts = rng.uniform(-1.0, 1.0, (2, n)) * 2.0 ** rng.integers(-1074, 1024, (2, n))
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1.0, -3.0,
                   1e308, -1.2e308, 8.9e307, math.inf, -math.inf, math.nan]
        zs = [complex(a, b) for a, b in zip(*parts)]
        zs += [complex(a, b) for a in special for b in special]
        zs += [complex(a, b) for a, b in rng.standard_normal((n, 2))]
        for z in zs:
            want = float(np.hypot(z.real, z.imag))
            if math.isnan(want):
                assert math.isnan(norm(z)) and math.isnan(abs(z)), z
            else:
                assert norm(z).hex() == abs(z).hex() == want.hex(), z

    def test_overflowing_modulus_is_inf(self):
        # the abs of a Python complex raises here; norm returns inf, as
        # np.hypot does
        for z in [complex(1.7e308, 1.7e308), complex(-1.3e308, 1.3e308)]:
            with pytest.raises(OverflowError):
                abs(z)
            with np.errstate(over="ignore"):
                assert norm(z) == float(np.hypot(z.real, z.imag)) == math.inf


def _bits(z):
    return (z.real.hex(), z.imag.hex())


class TestPolar:
    """The polar form nth_root takes: the principal angle in (-pi, pi]."""

    def test_minus_one(self):
        # angle pi, not -pi: the principal square root is i, the cube root
        # e^(i pi/3)
        assert nth_root(-1 + 0j, 2) == cmath.rect(1.0, math.pi / 2)
        assert nth_root(-1 + 0j, 3) == cmath.rect(1.0, math.pi / 3)

    def test_i(self):
        w = nth_root(1j, 2)
        assert abs(w) == pytest.approx(1.0, rel=1e-15)
        assert cmath.phase(w) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_one_plus_i(self):
        w = nth_root(1 + 1j, 2)
        assert abs(w) == pytest.approx(2.0**0.25, rel=1e-15)
        assert cmath.phase(w) == pytest.approx(math.pi / 8, abs=1e-15)

    def test_zero_is_total(self):
        for z in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            for n in (2, 3, 7):
                assert _bits(nth_root(z, n)) == _bits(0j)

    def test_negative_real_axis_from_below(self):
        # atan2 yields -pi for -1 - 0i; the angle is mapped to pi, so the
        # root is the same as for -1 + 0i, bit for bit
        for n in (2, 3, 5):
            assert _bits(nth_root(complex(-1.0, -0.0), n)) == _bits(nth_root(-1 + 0j, n))
        assert _bits(nth_root(complex(-4.0, -0.0), 2)) == _bits(nth_root(-4 + 0j, 2))

    @given(complexes, st.integers(2, 16))
    def test_angle_range_and_reconstruction(self, z, n):
        w = nth_root(z, n)
        if z == 0:
            assert w == 0j
            return
        # one nth of an angle in (-pi, pi], up to the rounding of rect/phase
        assert abs(cmath.phase(w)) <= math.pi / n + 1e-15
        assert abs(w**n - z) <= 1e-9 * (1.0 + abs(z))


class TestNthRoot:
    def test_principal_root_of_unity(self):
        assert nth_root(1 + 0j, 4) == 1 + 0j

    def test_sqrt_of_minus_one_is_i(self):
        # -1 has the principal angle pi, half of it pi/2
        assert abs(nth_root(-1 + 0j, 2) - 1j) <= 1e-12

    def test_round_trip_negative_rational(self):
        w = nth_root(complex(-4.0 / 3.0, 0.0), 2)
        assert abs(w**2 - complex(-4.0 / 3.0, 0.0)) <= 1e-12

    def test_rejects_n_zero(self):
        # and every n that is not a positive integer: a bool or a float,
        # even an integral one, is refused, while numpy integers are taken
        for n in (0, -2, 2.5, 2.0, True, False, "2", None):
            with pytest.raises(ValueError):
                nth_root(1 + 0j, n)
        assert nth_root(4 + 0j, np.int64(2)) == nth_root(4 + 0j, 2) == 2

    def test_zero_root(self):
        assert nth_root(0j, 5) == 0j

    # |z| overflows, while each part is finite
    OVERFLOWING = [complex(1.5e308, 1.5e308), complex(-1.7e308, -1.3e308),
                   complex(-1.5e308, 1.797e308), complex(1.7976931348623157e308, -1e308)]

    @pytest.mark.parametrize("z", OVERFLOWING)
    def test_square_root_of_an_overflowing_modulus(self, z):
        assert cmath.isclose(nth_root(z, 2), cmath.sqrt(z), rel_tol=4e-16)

    @pytest.mark.parametrize("z", OVERFLOWING)
    def test_cube_root_of_an_overflowing_modulus(self, z):
        # w^3 overflows where z does; scaled by powers of two it does not.
        # The rounded exponent 1/3 costs any root of a modulus near 1e308
        # about 3e-14 in its cube, as nth_root(z * 2**-309, 3) shows
        w = nth_root(z, 3) * 2.0**-103
        assert cmath.isclose(w * w * w, z * 2.0**-309, rel_tol=1e-13)

    @pytest.mark.parametrize("n", [600, 2000])
    def test_high_root_of_an_overflowing_modulus(self, n):
        # the overflow path halves z once: a scaling by 4^-n would underflow
        # to 0 from n = 538 on
        z = complex(1.5e308, -1.5e308)
        w = nth_root(z, n)
        assert math.isclose(n * math.log(norm(w)), math.log(2.0) + math.log(norm(z / 2.0)),
                            rel_tol=1e-13)
        assert math.isclose(n * cmath.phase(w), cmath.phase(z), rel_tol=1e-13)

    @given(
        st.floats(1e-6, 1e6), st.floats(-math.pi, math.pi), st.integers(1, 16)
    )
    @settings(max_examples=300)
    def test_de_moivre_round_trip(self, radius, angle, n):
        z = complex(radius * math.cos(angle), radius * math.sin(angle))
        w = nth_root(z, n) ** n
        assert norm(w - z) <= 1e-10 * norm(z)


class TestLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1 + 0j),
            ("1i", 1j),
            ("-0.5+2i", complex(-0.5, 2.0)),
            ("3-4i", complex(3, -4)),
            ("-2.5i", complex(0, -2.5)),
            ("1e3", complex(1000.0, 0.0)),
            ("2e-3i", complex(0.0, 2e-3)),
            ("1.5+2e+1i", complex(1.5, 20.0)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "bogus", "1+i", "i", "1 2", "1+2j", "1e999"])
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            parse_complex(text)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_complex("nope", position=7)
        assert info.value.position == 7

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_format_parse_round_trip(self, re, im):
        z = complex(re, im)
        assert parse_complex(format_complex(z)) == z
