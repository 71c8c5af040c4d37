import math

import numpy as np
import pytest

from dalembert.complexmath import norm, nth_root
from dalembert.descent import (
    DescentStep,
    _descend,
    _noise_floor,
    descend,
    descent_step,
    step_parameter,
)
from dalembert.errors import AlreadyAtRoot, NotApplicableToConstant, StepStalled
from dalembert.polynomial import (
    as_poly,
    evaluate,
    evaluate_with_derivative,
    from_roots,
    shift,
    truncate,
)
from helpers import (UNITY8_DUST_FACTOR, lowest_exponent, random_point, random_poly,
                     unit_constant)

QUAD = (1 + 0j, 1j, 3 + 0j)


def _untraced(p, z0, tol, max_iter):
    """descend's loop from z0 with no trace kept, as the solver runs it on
    each deflated factor."""
    pt = truncate(p)
    floor = _noise_floor([norm(c) for c in pt])
    return _descend(pt, floor, complex(z0), evaluate_with_derivative(pt, z0), tol, max_iter,
                    False)


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


def _taylor_step(p, z0):
    """(k, ak, s, zs, after) from the full Taylor shift q(h) = p(z0 + h) / p(z0):
    the lowest k >= 1 with q_k != 0, and s halved from 1 until |p| drops."""
    shifted = shift(p, z0)
    q = [c / shifted[0] for c in shifted[1:]]
    k = next(i for i, c in enumerate(q, start=1) if c != 0)
    ak, s, before = q[k - 1], 1.0, norm(shifted[0])
    while True:
        zs = nth_root(-s / ak, k)
        after = norm(evaluate(p, z0 + zs))
        if after < before:
            return k, ak, s, zs, after
        s *= 0.5


def _bits(*values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


class TestLowestNonzeroExponent:
    """The exponent k that step_parameter takes: the lowest k >= 1 with a_k != 0."""

    def test_examples(self):
        # s is half of |a_k|^(k+1) / (M^k (n+1)^k), which pins k
        # k = 3: 5^4 / (5^3 4^3) = 5/64
        assert step_parameter((1, 0, 0, 5)) == pytest.approx(5.0 / 128.0, rel=1e-15)
        # k = 1: 1^2 / (3 * 3) = 1/9
        assert step_parameter(QUAD) == pytest.approx(1.0 / 18.0, rel=1e-15)
        # k = 2: 2^3 / (7^2 4^2) = 1/98
        assert step_parameter((1, 0, 2, 7)) == pytest.approx(1.0 / 196.0, rel=1e-15)

    def test_rejects_constants(self):
        for p in ((1,), (1, 0, 0)):
            with pytest.raises(NotApplicableToConstant):
                step_parameter(p)


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
            q = unit_constant(p)
            s = step_parameter(q)
            k = lowest_exponent(q)
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

    def test_sample_quadratic_at_origin(self, monkeypatch):
        # s = 1 gives |1 - 1 - 3| = 3; one halving gives |1 - 1/2 - 3/4|
        import dalembert.descent

        # every evaluation of p is of the (p, p') pair
        assert not hasattr(dalembert.descent, "evaluate")
        calls = []
        original = dalembert.descent.evaluate_with_derivative
        monkeypatch.setattr(dalembert.descent, "evaluate_with_derivative",
                            lambda p, z: calls.append(z) or original(p, z))
        step = descent_step(QUAD, 0j)
        assert step.before == 1.0
        assert step.s == 0.5
        assert step.zs == 0.5j
        assert step.after == 0.25
        # one (p, p') pair at z0 gives |p(z0)| and the step, then one per try
        assert calls == [0j, 1j, 0.5j]

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
            lhs = step.ak * step.zs**step.k
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
            q = unit_constant(truncate(shift(p, z0)))
            k = lowest_exponent(q)
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
            q = unit_constant(truncate(shift(p, z0)))
            assert step.s > step_parameter(q) / 2.0
            checked += 1
        assert checked > 250

    def test_matches_the_taylor_shift_step(self):
        # p(z0) and p'(z0) from one Horner loop give the same step, bit for
        # bit, as the full O(n^2) Taylor shift
        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-5.0, 5.0)
            p = as_poly(scale * c for c in random_poly(rng, int(rng.integers(1, 61))))
            z0 = random_point(rng, 2.0)
            if norm(evaluate(p, z0)) <= 1e-6 * scale:
                continue
            step = descent_step(p, z0)
            assert _bits(step.k, step.ak, step.s, step.zs, step.after) == \
                _bits(*_taylor_step(p, z0))
            checked += 1
        assert checked > 150

    def test_shift_only_where_the_derivative_vanishes(self, monkeypatch):
        import dalembert.descent

        calls = []
        original = dalembert.descent.shift

        def counting(p, z0):
            calls.append(z0)
            return original(p, z0)

        monkeypatch.setattr(dalembert.descent, "shift", counting)
        # p'(0) = i for QUAD: k = 1 from p and p' alone
        assert descent_step(QUAD, 0j).k == 1
        assert calls == []
        # p'(0) = 0 for 1 + z^2: the shifted polynomial gives k = 2
        step = descent_step((1, 0, 1), 0j)
        assert (step.k, step.ak) == (2, 1 + 0j)
        assert calls == [0j]

    def test_stalled_newton_step_takes_the_next_term(self):
        # 1 + z^2 at a real z0 near its critical point 0: every real step
        # leaves |p| at 1 or above, so halving the Newton step stalls; the
        # z^2 term of the shifted polynomial points along the imaginary axis
        z0 = 2.0**-27
        step = descent_step((1, 0, 1), z0)
        assert (step.k, step.s) == (2, 1.0)
        assert step.after < step.before == 1.0
        assert step.after == norm(evaluate((1, 0, 1), z0 + step.zs))

    def test_overflow_is_reported(self):
        # |p(1e200)| overflows: no step can be computed there, and p is not
        # constant
        with pytest.raises(OverflowError, match="1e\\+200"):
            descent_step((1, 0, 1), 1e200)
        with pytest.raises(OverflowError):
            descent_step((1, 0, 1), 1e160 + 1e160j)

    def test_returns_a_descent_step(self):
        step = descent_step(QUAD, 0j)
        assert isinstance(step, DescentStep)
        assert step.after < step.before

    def test_rejects_constant_and_root(self):
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
        # once z0 + zs rounds to z0, halving s further cannot help, and at
        # the noise floor no later Taylor term is tried; every try runs
        # evaluate_with_derivative once, so its calls count the tries
        import dalembert.descent

        cubic = (1 / 3, 1, 1, 1)
        stalled, _ = _walk_to_stall(cubic, 1 + 1j)
        calls = []
        original = dalembert.descent.evaluate_with_derivative

        def counting(p, z):
            calls.append(z)
            return original(p, z)

        monkeypatch.setattr(dalembert.descent, "evaluate_with_derivative", counting)
        with pytest.raises(StepStalled):
            descent_step(cubic, stalled)
        assert len(calls) <= 5

    @pytest.mark.parametrize(
        "p, z0, max_calls",
        [((1, 0, 1), 0.5, None), ((1 + 1e-8, -2, 1), 0j, None),
         ((-1j, 0, -1, 0, 1j, 0, 1), 0.5 + 0.5j, None),
         (UNITY8_DUST_FACTOR, 0.5 + 0.5j, 250), (UNITY8_DUST_FACTOR, 0j, 250),
         (UNITY8_DUST_FACTOR, -0.5 + 0.5j, 250)],
        ids=["1+z^2", "double-root-split-1e-4i", "diagonal-critical-point",
             "z^8-1-dust-factor-diagonal", "z^8-1-dust-factor-origin",
             "z^8-1-dust-factor-antidiagonal"],
    )
    def test_steps_off_a_critical_line(self, monkeypatch, p, z0, max_calls):
        # every Newton step from these starts stays on a line (the real axis
        # or the diagonal) on which |p| has a positive minimum at a critical
        # point, or, for the dust factor, is lost in rounding dust; the
        # k = 1 halving stalls there, and a later Taylor term leaves it.  On
        # the dust factor the halving stops at the noise floor, so a stalled
        # k = 1 step costs tens of Horner loops, not thousands
        import dalembert.descent

        calls = []
        original = dalembert.descent.evaluate_with_derivative
        monkeypatch.setattr(dalembert.descent, "evaluate_with_derivative",
                            lambda p, z: calls.append(z) or original(p, z))
        result = descend(p, z0, 1e-10, 10000)
        if max_calls is not None:
            assert len(calls) <= max_calls
        assert result.converged
        assert result.residual <= 1e-10
        assert any(row.k >= 2 for row in result.trace)
        residuals = [row.residual for row in result.trace]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

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

    def test_overflowing_start_is_not_converged(self):
        # |p(1e200)| overflows to inf, and so does the noise floor there:
        # an infinite residual must not pass the floor test
        result = descend((1, 0, 1), 1e200)
        assert not math.isfinite(result.residual)
        assert result.converged is False
        assert result.iterations == 0
        # from a start where p is finite (1e200 * 2i) it walks to the root i
        result = descend((1, 0, 1), 1e100 + 1e100j)
        assert result.converged
        assert result.residual <= 1e-10
        assert abs(result.root - 1j) <= 1e-9

    def test_starting_at_root_converges_immediately(self):
        result = descend((0, 1), 0j, 1e-10, 100)
        assert result.converged
        assert result.iterations == 0

    def test_no_trace_when_disabled(self):
        result = _untraced(QUAD, 1 + 1j, 1e-8, 100)
        assert result.trace is None

    def test_untraced_descent_matches_traced(self):
        rng = np.random.default_rng(47)
        polys = [QUAD, from_roots(1, [1.0] * 4), from_roots(1, range(1, 7))]
        polys += [random_poly(rng, int(rng.integers(2, 13))) for _ in range(6)]
        starts = [0j, 0.5 + 0.5j, -2 + 1j, 3.5, 7 - 2j]

        def fields(r):
            # repr tells -0.0 from 0.0, so equal reprs are equal bits
            return repr((r.root, r.residual, r.iterations, r.converged))

        for p in polys:
            for z0 in starts + [random_point(rng, 3.0)]:
                traced = descend(p, z0, 1e-10, 500)
                untraced = _untraced(p, z0, 1e-10, 500)
                assert fields(untraced) == fields(traced)
                assert len(traced.trace) == traced.iterations + 1

    def test_private_loop_with_a_shared_floor_matches_descend(self):
        # the solver builds each polynomial's noise floor once and runs
        # _descend from every start with it: each result and trace row must
        # be a fresh descend's, bit for bit
        rng = np.random.default_rng(48)
        polys = [random_poly(rng, d) for d in range(2, 21)]
        polys += [(-1,) + (0,) * 5 + (1,), (-1,) + (0,) * 19 + (1,),
                  from_roots(1, range(1, 7)), from_roots(1, range(1, 9))]

        def bits(r):
            rows = [(row.iteration, _bits(row.point, row.residual), row.s.hex(), row.k)
                    for row in r.trace]
            return _bits(r.root, r.residual), r.iterations, r.converged, rows

        steps = 0
        for p in polys:
            pt = truncate(p)
            floor = _noise_floor([norm(c) for c in pt])
            for z0 in (0j, 0.5 + 0.5j, random_point(rng, 3.0), random_point(rng, 9.0)):
                for tol in (1e-10, 1e-4):
                    want = descend(p, z0, tol, 200)
                    got = _descend(pt, floor, z0, evaluate_with_derivative(pt, z0), tol, 200,
                                   True)
                    assert bits(got) == bits(want)
                    steps += want.iterations
        assert steps > 1000

    def test_start_is_evaluated_once(self, monkeypatch):
        # one (p, p') pair at the start gives |p| there and the first step,
        # then one pair per try: s = 1 at 1j, s = 1/2 at 0.5j, where the
        # step ends
        import dalembert.descent

        # every evaluation of p is of the (p, p') pair
        assert not hasattr(dalembert.descent, "evaluate")
        calls = []
        original = dalembert.descent.evaluate_with_derivative
        monkeypatch.setattr(dalembert.descent, "evaluate_with_derivative",
                            lambda p, z: calls.append(z) or original(p, z))
        result = descend(QUAD, 0, max_iter=1)
        assert result.root == 0.5j
        assert calls == [0j, 1j, 0.5j]

    def test_floor_is_computed_only_above_tol(self):
        # the loop test and the converged flag read max(tol, floor(z)), so
        # at or below tol the floor decides nothing and is not computed;
        # above it floor(z) is computed only where the residual is at or
        # below floor(rc), its bound for |z| <= rc, and a step computes
        # floor(z0) only for a failed try: so a descent of three or more
        # steps computes fewer floors than it has points above tol
        rng = np.random.default_rng(49)
        long_runs = 0
        for p in [random_poly(rng, d) for d in (3, 8, 20)] + [from_roots(1, range(1, 7))]:
            pt = truncate(p)
            floor = _noise_floor([norm(c) for c in pt])
            for z0, tol in ((2 + 1j, 1e-10), (0.5j, 1e-3), (1.5, 1e-12)):
                seen = []
                got = _descend(pt, lambda z: seen.append(z) or floor(z), z0,
                               evaluate_with_derivative(pt, z0), tol, 200, True)
                assert got == descend(p, z0, tol, 200)
                above = [row.point for row in got.trace if row.residual > tol]
                assert not {row.point for row in got.trace if row.residual <= tol} & set(seen)
                if got.iterations >= 3:
                    long_runs += 1
                    assert len(seen) < len(above)
            # a start at or below tol computes no floor at all
            seen = []
            got = _descend(pt, lambda z: seen.append(z) or floor(z), got.root,
                           evaluate_with_derivative(pt, got.root), max(1.0, got.residual), 200,
                           True)
            assert got.converged and got.iterations == 0 and seen == []
        assert long_runs >= 6

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            descend(QUAD, 0j, tol=0.0)

    def test_rejects_nan_tol(self):
        with pytest.raises(ValueError):
            descend(QUAD, 0j, tol=math.nan)

    def test_rejects_infinite_tol(self):
        # every finite residual meets tol=inf, so any start would be a "root"
        with pytest.raises(ValueError, match="positive and finite"):
            descend(QUAD, 0j, tol=math.inf)

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
        def check(p, z0, max_iter):
            result = descend(p, z0, 1e-10, max_iter)
            z, rows = z0, [(z0, norm(evaluate(p, z0)))]
            for _ in range(result.iterations):
                step = descent_step(p, z)
                z = z + step.zs
                assert step.after == norm(evaluate(p, z))
                rows.append((z, step.after))
            assert [(row.point, row.residual) for row in result.trace] == rows
            fresh = [descent_step(p, row.point) for row in result.trace[:-1]]
            assert [(row.s, row.k) for row in result.trace[1:]] == [
                (step.s, step.k) for step in fresh
            ]
            return result.iterations

        rng = np.random.default_rng(35)
        for _ in range(30):
            p = random_poly(rng, int(rng.integers(1, 13)))
            check(p, random_point(rng, 2.0), 200)
        # higher degrees from far starts, so that some steps halve; a
        # multiple root; Wilkinson-20; and p'(1) = 0, whose first step is k = 2
        rng = np.random.default_rng(36)
        cases = [(random_poly(rng, d), random_point(rng, 4.0)) for d in (20, 40, 60)]
        cases += [(from_roots(1.0, [1.0] * 5), 1.5 + 0.5j),
                  (from_roots(1.0, range(1, 21)), 21.5 + 0.5j),
                  ((5, -3, 0, 1), 1 + 0j)]
        for p, z0 in cases:
            assert check(p, z0, 60) > 0
