import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dalembert.complexmath import norm
from dalembert.descent import descend, descent_step
from dalembert.errors import (
    AlreadyAtRoot,
    CannotDeflateConstant,
    DegenerateZeroPolynomial,
    NotApplicableToConstant,
)
from dalembert.growth import growth_certificate
from dalembert.polynomial import (
    as_poly,
    deflate,
    degree,
    evaluate,
    evaluate_with_derivative,
    from_roots,
    max_coeff_norm,
    shift,
    truncate,
)
from helpers import eval_sum_oracle, random_poly, random_point

QUAD = (1 + 0j, 1j, 3 + 0j)

coeff_floats = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
coefficients = st.builds(complex, coeff_floats, coeff_floats)
polys = st.lists(coefficients, min_size=0, max_size=8).map(tuple)


class TestEvaluate:
    def test_constant_term(self):
        assert evaluate(QUAD, 0j) == 1 + 0j

    def test_direct_sum_at_one(self):
        assert evaluate(QUAD, 1 + 0j) == 4 + 1j

    def test_empty_is_zero(self):
        assert evaluate((), 3 + 2j) == 0j

    @given(polys, st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))
    @settings(max_examples=200)
    def test_matches_power_sum(self, p, z):
        direct = eval_sum_oracle(p, z)
        assert abs(evaluate(p, z) - direct) <= 1e-9 * (1.0 + abs(direct))


class TestDegreeAndTruncate:
    def test_sample_quadratic(self):
        assert degree(QUAD) == 2

    def test_constant(self):
        assert degree((5 + 0j,)) == 0

    def test_trailing_zero_removed(self):
        assert degree((0j, 1 + 0j, 0j)) == 1

    def test_zero_poly_has_no_degree(self):
        with pytest.raises(DegenerateZeroPolynomial):
            degree(())
        with pytest.raises(DegenerateZeroPolynomial):
            degree((0j, 0j))

    def test_truncate_examples(self):
        assert truncate((1, 2, 0, 0)) == (1 + 0j, 2 + 0j)
        assert truncate(QUAD) == QUAD
        assert truncate((0, 0)) == ()

    def test_truncate_epsilon_strips_dust(self):
        assert truncate((1, 1e-20)) == (1 + 0j, 1e-20 + 0j)

    @given(polys)
    def test_truncate_idempotent(self, p):
        once = truncate(p)
        assert truncate(once) == once

    @given(polys, st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)))
    @settings(max_examples=200)
    def test_truncate_preserves_evaluation_exactly(self, p, z):
        assert evaluate(truncate(p), z) == evaluate(p, z)

    def test_truncate_evaluation_preserving_at_scale(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            base = random_poly(rng, int(rng.integers(0, 7)))
            p = base + (0j,) * int(rng.integers(1, 4))
            q = truncate(p)
            for _ in range(1000):
                z = random_point(rng, 3.0)
                assert evaluate(q, z) == evaluate(p, z)

    def test_is_constant(self):
        # constant means at most one coefficient after truncate; what needs a
        # non-constant polynomial refuses exactly those
        for p in ((7,), (7, 0, 0), ()):
            with pytest.raises(NotApplicableToConstant):
                growth_certificate(p)
            with pytest.raises(NotApplicableToConstant):
                descend(p, 0j)
        assert growth_certificate(QUAD).degree == 2
        assert descend(QUAD, 0j).converged


class TestScale:
    """Division by a0, which the descent step applies to p(z0 + h): the
    step's ak is the coefficient a_k / a_0 of the shifted polynomial."""

    def test_real_case(self):
        assert descent_step((2, 4), 0j).ak == 2 + 0j

    def test_inverse_of_i(self):
        step = descent_step((1j, 1), 0j)
        assert abs(step.ak - (-1j)) <= 1e-15

    def test_already_unit(self):
        assert descent_step(QUAD, 0j).ak == 1j

    def test_rejects_zero_constant(self):
        # a0 = 0: the origin is already a root
        for p in ((0, 1), (0, 0, 1)):
            with pytest.raises(AlreadyAtRoot):
                descent_step(p, 0j)

    def test_constant_term_exactly_one(self):
        # at z0 = 0 the shifted polynomial is p itself
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = truncate(random_poly(rng, int(rng.integers(1, 7))))
            if len(p) < 2 or p[0] == 0:
                continue
            step = descent_step(p, 0j)
            assert step.ak == complex(p[step.k]) / complex(p[0])

    def test_norm_relation_at_evaluation_level(self):
        # before and after are |p| at z0 and z0 + zs, not |q|: after / before
        # is |q(zs)| for q(h) = p(z0 + h) / p(z0)
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = truncate(random_poly(rng, int(rng.integers(1, 7))))
            z0 = random_point(rng, 2.0)
            if len(p) < 2 or norm(evaluate(p, z0)) <= 1e-6:
                continue
            step = descent_step(p, z0)
            q = shift(p, z0)
            ratio = norm(evaluate(q, step.zs)) / norm(q[0])
            assert abs(step.after / step.before - ratio) <= 1e-10 * (1.0 + ratio)


class TestShift:
    def test_binomial_expansion(self):
        assert shift((0, 0, 1), 1 + 0j) == (1 + 0j, 2 + 0j, 1 + 0j)

    def test_identity_shift(self):
        p = QUAD
        assert shift(p, 0j) == p

    def test_evaluation_round_trip(self):
        rng = np.random.default_rng(5)
        q = shift(QUAD, 1j)
        for _ in range(100):
            z = random_point(rng, 2.0)
            want = evaluate(QUAD, z + 1j)
            assert abs(evaluate(q, z) - want) <= 1e-12 * (1.0 + abs(want))

    def test_preserves_leading_coefficient_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            p = random_poly(rng, int(rng.integers(1, 8)))
            assert shift(p, random_point(rng, 3.0))[-1] == p[-1]

    def test_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = random_poly(rng, int(rng.integers(1, 7)))
            u, v = random_point(rng), random_point(rng)
            a, b = shift(shift(p, u), v), shift(p, u + v)
            z = random_point(rng, 2.0)
            va, vb = evaluate(a, z), evaluate(b, z)
            assert abs(va - vb) <= 1e-9 * (1.0 + abs(vb))


def _bits(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


class TestEvaluateWithDerivative:
    def test_is_the_first_two_shifted_coefficients(self):
        # bit for bit, at any scale: the descent's O(n) step relies on it
        rng = np.random.default_rng(8)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-5.0, 5.0)
            p = as_poly(scale * c for c in random_poly(rng, int(rng.integers(1, 61))))
            z = random_point(rng, 3.0)
            assert _bits(evaluate_with_derivative(p, z)) == _bits(shift(p, z)[:2])

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_value_matches_evaluate_in_norm(self, scale):
        # the damped steps judge each try by this value's norm: it must be
        # norm(evaluate) bit for bit, also where Horner overflows; evaluate's
        # 0j * z start changes only the signs of zeros
        rng = np.random.default_rng(9)
        polys = [random_poly(rng, d) for d in range(1, 61)] + [
            from_roots(1.0, [1.0] * 5),
            from_roots(1.0, range(1, 21)),
            (-1,) + (0,) * 19 + (1,),
        ]
        far = [1e20, -1e20j, 1e100 + 1e100j, 1e200, -1e300 - 1e-300j]
        for p in polys:
            p = as_poly(scale * c for c in p)
            points = [random_point(rng, 3.0) for _ in range(20)]
            points += [1 + 1e-9j, 20.5 + 0j, 0j, complex(-0.0, -0.0)] + far
            for z in points:
                assert (norm(evaluate(p, z)).hex()
                        == norm(evaluate_with_derivative(p, z)[0]).hex()), (len(p), scale, z)

    def test_examples(self):
        assert evaluate_with_derivative(QUAD, 1 + 0j) == (4 + 1j, 6 + 1j)
        assert evaluate_with_derivative((2 + 0j, 5 + 0j), 3j) == (2 + 15j, 5 + 0j)

    def test_constant_and_empty(self):
        assert evaluate_with_derivative((7 + 0j,), 2 + 1j) == (7 + 0j, 0j)
        assert evaluate_with_derivative((), 2 + 1j) == (0j, 0j)


class TestMaxCoeffNorm:
    def test_all(self):
        assert max_coeff_norm(QUAD) == 3.0

    def test_single(self):
        assert max_coeff_norm((5 + 0j,)) == 5.0

    def test_empty_selection(self):
        with pytest.raises(DegenerateZeroPolynomial):
            max_coeff_norm(())


class TestDeflate:
    def test_factorization(self):
        q, rem = deflate((-1, 0, 1), 1 + 0j)
        assert q == (1 + 0j, 1 + 0j)
        assert rem == 0j

    def test_division_by_z(self):
        q, rem = deflate(QUAD, 0j)
        assert q == (1j, 3 + 0j)
        assert rem == 1 + 0j

    def test_rejects_constant(self):
        with pytest.raises(CannotDeflateConstant):
            deflate((5,), 1j)
        with pytest.raises(DegenerateZeroPolynomial):
            deflate((), 1j)

    def test_round_trip_against_multiplication(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = truncate(random_poly(rng, int(rng.integers(1, 9))))
            r = random_point(rng, 2.0)
            q, rem = deflate(p, r)
            rebuilt = list(np.convolve((-r, 1 + 0j), q))
            rebuilt[0] += rem
            assert len(rebuilt) == len(p)
            for a, b in zip(rebuilt, p):
                assert abs(a - b) <= 1e-10 * (1.0 + abs(b))

    def test_remainder_is_value_at_r(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = truncate(random_poly(rng, int(rng.integers(1, 9))))
            r = random_point(rng, 2.0)
            _, rem = deflate(p, r)
            want = evaluate(p, r)
            assert abs(rem - want) <= 1e-10 * (1.0 + abs(want))


class TestFromRoots:
    def test_quadratic(self):
        p = from_roots(1 + 0j, [1 + 0j, -1 + 0j])
        assert p == (-1 + 0j, 0j, 1 + 0j)

    def test_lead_scaling(self):
        assert from_roots(2j, []) == (2j,)
