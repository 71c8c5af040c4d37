import math

import numpy as np
import pytest

from dalembert.complexmath import cpow, norm, nth_root
from dalembert.descent import (
    descend,
    descent_step,
    lowest_nonzero_exponent,
    step_parameter,
)
from dalembert.errors import NotApplicableToConstant, StepStalled
from dalembert.polynomial import evaluate, from_roots, scale_to_unit_constant, shift, truncate
from helpers import random_poly, random_point

QUAD = (1 + 0j, 1j, 3 + 0j)


def _walk_to_stall(p, z):
    """Repeat descent_step from z until it raises StepStalled (at most 1000
    steps); the stalled point and the residuals along the way."""
    residuals = [norm(evaluate(p, z))]
    for _ in range(1000):
        try:
            step = descent_step(p, z)
        except StepStalled:
            return z, residuals
        z = z + step.zs
        residuals.append(step.after)
    raise AssertionError("no stall within 1000 steps")


class TestLowestNonzeroExponent:
    def test_examples(self):
        assert lowest_nonzero_exponent((1, 0, 0, 5)) == 3
        assert lowest_nonzero_exponent(QUAD) == 1
        assert lowest_nonzero_exponent((1, 0, 2, 7)) == 2

    def test_rejects_constants(self):
        for p in ((7,), (7, 0, 0), (), (0, 0)):
            with pytest.raises(NotApplicableToConstant):
                lowest_nonzero_exponent(p)


class TestStepParameter:
    def test_one_plus_z_squared(self):
        # k = 2, a_k = 1, M = 1, n = 2: bound 1/9, s = 1/18
        assert step_parameter((1, 0, 1)) == pytest.approx(1.0 / 18.0, rel=1e-15)

    def test_one_plus_z(self):
        # k = 1, M = 1, n = 1: bound 1/2, s = min(1/2, 1/4)
        assert step_parameter((1, 1)) == pytest.approx(0.25, rel=1e-15)

    def test_sample_quadratic(self):
        # k = 1, |a_k| = 1, M = 3, n = 2: bound 1/9, s = 1/18
        assert step_parameter(QUAD) == pytest.approx(1.0 / 18.0, rel=1e-15)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            step_parameter((2, 4))

    def test_range_and_paper_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = truncate(random_poly(rng, int(rng.integers(1, 9))))
            if len(p) < 2 or p[0] == 0:
                continue
            q = scale_to_unit_constant(p)
            s = step_parameter(q)
            k = lowest_nonzero_exponent(q)
            m = max(norm(c) for c in q)
            n = len(q) - 1
            assert 0.0 < s < 1.0
            assert s < norm(q[k]) ** (k + 1) / (m**k * (n + 1) ** k) or s == 0.5


class TestDescentStep:
    def test_one_plus_z_squared_at_origin(self):
        # the full step lands on the root i (cos(pi/2) rounds to 6e-17)
        step = descent_step((1, 0, 1), 0j)
        assert step.k == 2
        assert step.s == 1.0
        assert abs(step.zs - 1j) <= 1e-15
        assert step.before == 1.0
        assert step.after <= 1e-15

    def test_linear_moves_toward_root(self):
        # p = z at z0 = 1 shifts and scales to 1 + z; k = 1, so the full
        # step is the Newton step and lands on the root exactly
        step = descent_step((0, 1), 1 + 0j)
        assert step.k == 1
        assert step.s == 1.0
        assert step.zs == -1 + 0j
        assert step.after == 0.0

    def test_sample_quadratic_at_origin(self):
        # s = 1 gives |1 - 1 - 3| = 3; one halving gives |1 - 1/2 - 3/4|
        step = descent_step(QUAD, 0j)
        assert step.before == 1.0
        assert step.s == 0.5
        assert step.zs == 0.5j
        assert step.after == 0.25

    def test_scaling_relation(self):
        # ak * zs^k = -s up to rounding
        rng = np.random.default_rng(32)
        for _ in range(200):
            p = truncate(random_poly(rng, int(rng.integers(1, 9))))
            if len(p) < 2:
                continue
            z0 = random_point(rng, 2.0)
            if norm(evaluate(p, z0)) <= 1e-9:
                continue
            step = descent_step(p, z0)
            lhs = step.ak * cpow(step.zs, step.k)
            assert abs(lhs - complex(-step.s, 0.0)) <= 1e-10 * (1.0 + step.s)

    def test_strict_decrease(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            p = truncate(random_poly(rng, int(rng.integers(1, 9))))
            if len(p) < 2:
                continue
            z0 = random_point(rng, 2.0)
            if norm(evaluate(p, z0)) <= 1e-6:
                continue
            step = descent_step(p, z0)
            assert step.after < step.before

    def test_tail_ratio_bound_when_unhalved(self):
        # with the nominal s = step_parameter(q), r = (|zs|/|ak|) |tail(zs)|
        # stays below 1: the lemma behind the step's termination
        rng = np.random.default_rng(34)
        checked = 0
        for _ in range(300):
            p = truncate(random_poly(rng, int(rng.integers(2, 9))))
            if len(p) < 3:
                continue
            z0 = random_point(rng, 2.0)
            if norm(evaluate(p, z0)) <= 1e-6:
                continue
            q = scale_to_unit_constant(truncate(shift(p, z0)))
            k = lowest_nonzero_exponent(q)
            zs = nth_root(-step_parameter(q) / q[k], k)
            tail = q[k + 1 :]
            r = (norm(zs) / norm(q[k])) * norm(evaluate(tail, zs))
            assert r < 1.0 + 1e-9
            checked += 1
        assert checked > 250

    def test_step_never_shorter_than_the_papers(self):
        # halving from 1 stops no later than the first s below the floor
        rng = np.random.default_rng(36)
        checked = 0
        for _ in range(300):
            p = truncate(random_poly(rng, int(rng.integers(1, 13))))
            if len(p) < 2:
                continue
            z0 = random_point(rng, 2.0)
            if norm(evaluate(p, z0)) <= 1e-6:
                continue
            step = descent_step(p, z0)
            q = scale_to_unit_constant(truncate(shift(p, z0)))
            assert step.s > step_parameter(q) / 2.0
            checked += 1
        assert checked > 250

    def test_rejects_constant_and_root(self):
        from dalembert.errors import AlreadyAtRoot

        with pytest.raises(NotApplicableToConstant):
            descent_step((5,), 0j)
        with pytest.raises(AlreadyAtRoot):
            descent_step((0, 1), 0j)


class TestDescend:
    def test_z_squared_plus_one(self):
        result = descend((1, 0, 1), 2 + 2j, 1e-10, 10000)
        assert result.converged
        assert result.residual <= 1e-10
        assert min(abs(result.root - 1j), abs(result.root + 1j)) <= 1e-9

    def test_linear(self):
        result = descend((-5, 1), 0j, 1e-10, 10000)
        assert result.converged
        assert abs(result.root - 5) <= 1e-9

    def test_sample_quadratic_from_origin(self):
        result = descend(QUAD, 0j, 1e-10, 10000)
        assert result.converged
        roots = [1j * (-1 + math.sqrt(13.0)) / 6.0, 1j * (-1 - math.sqrt(13.0)) / 6.0]
        assert min(abs(result.root - r) for r in roots) <= 1e-10

    def test_monotone_trace(self):
        result = descend(QUAD, 1 + 1j, 1e-10, 10000)
        residuals = [row.residual for row in result.trace]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))
        assert [row.iteration for row in result.trace] == list(range(len(residuals)))

    def test_not_converged_is_flagged(self):
        result = descend(QUAD, 1 + 1j, 1e-10, max_iter=1)
        assert not result.converged
        assert result.iterations == 1
        assert result.residual > 1e-10

    def test_stall_at_float_exhaustion(self):
        # irrational roots: |p| stalls above 0.  descend stops at the noise
        # floor before that, so the stall is reached step by step
        cubic = (1 / 3, 1, 1, 1)
        stalled, residuals = _walk_to_stall(cubic, 1 + 1j)
        assert len(residuals) < 100  # stalled out rather than looping
        assert all(a > b for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] > 0.0
        with pytest.raises(StepStalled):
            descent_step(cubic, stalled)

    def test_stall_ends_at_once(self, monkeypatch):
        # once z0 + zs rounds to z0, halving s further cannot help
        import dalembert.descent

        cubic = (1 / 3, 1, 1, 1)
        stalled, _ = _walk_to_stall(cubic, 1 + 1j)
        calls = []
        original = dalembert.descent.evaluate

        def counting(p, z):
            calls.append(z)
            return original(p, z)

        monkeypatch.setattr(dalembert.descent, "evaluate", counting)
        with pytest.raises(StepStalled):
            descent_step(cubic, stalled)
        assert len(calls) <= 5

    def test_converges_at_the_noise_floor(self):
        # tol = 1e-320 is below what evaluating p can resolve; descend stops
        # once |p| <= gamma_2n * sum |a_i| |z|^i, before the stall
        cubic = (1 / 3, 1, 1, 1)
        _, residuals = _walk_to_stall(cubic, 1 + 1j)
        result = descend(cubic, 1 + 1j, tol=1e-320, max_iter=100000)
        assert result.converged
        assert result.iterations < len(residuals) - 1
        gamma = 6 * 2.0**-53 / (1 - 6 * 2.0**-53)
        r = abs(result.root)
        assert 1e-320 < result.residual <= gamma * (1 / 3 + r + r**2 + r**3)

    def test_converged_means_the_same_for_a_multiple(self):
        # the decade polynomial prod (z - k), k = 1..10, has coefficients up
        # to 1.3e7: tol = 1e-10 is below its noise floor near most roots, so
        # with tol scaled along with p the floor decides, at every scale
        decade = from_roots(1.0, range(1, 11))
        for scale in (1.0, 1e-20, 1e20):
            p = tuple(scale * c for c in decade)
            for z0 in (0.5 + 0.1j, 4.7 - 0.2j, 9.6 + 0.3j):
                result = descend(p, z0, 1e-10 * scale, 2000)
                assert result.converged, (scale, z0)
                assert result.iterations < 100
                assert min(abs(result.root - k) for k in range(1, 11)) <= 1e-6

    def test_starting_at_root_converges_immediately(self):
        result = descend((0, 1), 0j, 1e-10, 100)
        assert result.converged
        assert result.iterations == 0

    def test_no_trace_when_disabled(self):
        result = descend(QUAD, 1 + 1j, 1e-8, 100, keep_trace=False)
        assert result.trace is None

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            descend(QUAD, 0j, tol=0.0)

    def test_rejects_nan_tol(self):
        with pytest.raises(ValueError):
            descend(QUAD, 0j, tol=math.nan)

    def test_rejects_bad_max_iter(self):
        for max_iter in (-3, -1, 2.5, 10.0, math.nan, math.inf, "10"):
            with pytest.raises(ValueError):
                descend(QUAD, 0j, max_iter=max_iter)

    def test_rejects_bool_max_iter(self):
        # bool is an Integral, but True is not a step count
        for max_iter in (True, False):
            with pytest.raises(ValueError):
                descend(QUAD, 0j, max_iter=max_iter)

    def test_max_iter_zero_makes_no_step(self):
        result = descend(QUAD, 1 + 1j, max_iter=np.int64(0))
        assert result.iterations == 0
        assert not result.converged

    def test_trace_matches_repeated_descent_steps(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            p = random_poly(rng, int(rng.integers(1, 13)))
            z0 = random_point(rng, 2.0)
            result = descend(p, z0, 1e-10, 200)
            z, rows = z0, [(z0, norm(evaluate(p, z0)))]
            for _ in range(result.iterations):
                step = descent_step(p, z)
                z = z + step.zs
                assert step.after == norm(evaluate(p, z))
                rows.append((z, step.after))
            assert [(row.point, row.residual) for row in result.trace] == rows
            assert [row.s for row in result.trace[1:]] == [
                descent_step(p, row.point).s for row in result.trace[:-1]
            ]
