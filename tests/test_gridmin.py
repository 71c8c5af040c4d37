import math

import numpy as np
import pytest

from dalembert.gridmin import CertifiedMinimum, SquareRegion, certified_min, lipschitz_bound
from dalembert.growth import minimum_enclosing_square
from helpers import dense_min_oracle, random_poly

QUAD = (1 + 0j, 1j, 3 + 0j)
SQRT2 = math.sqrt(2.0)


def random_region(rng, max_half=2.0):
    corner = complex(rng.uniform(-max_half, 0.5), rng.uniform(-max_half, 0.5))
    return SquareRegion(corner, float(rng.uniform(0.5, 2.5)))


class TestSquareRegion:
    def test_rejects_bad_side(self):
        for side in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SquareRegion(0j, side)

    def test_contains_boundary(self):
        region = SquareRegion(0j, 1.0)
        assert region.contains(0j)
        assert region.contains(1 + 1j)
        assert region.contains(0.5 + 0j)
        assert not region.contains(1.0001 + 0j)
        assert not region.contains(0.5 - 0.0001j)

    def test_center_and_corners(self):
        region = SquareRegion(complex(-1, -1), 2.0)
        assert region.center == 0j
        assert set(region.corners()) == {
            complex(-1, -1), complex(1, -1), complex(-1, 1), complex(1, 1)
        }


class TestLipschitzBound:
    def test_pure_square(self):
        region = SquareRegion(complex(-1, -1), 2.0)
        assert lipschitz_bound((0, 0, 1), region) == pytest.approx(2 * SQRT2, rel=1e-15)

    def test_constant_is_flat(self):
        assert lipschitz_bound((7,), SquareRegion(0j, 3.0)) == 0.0

    def test_sample_quadratic(self):
        region = SquareRegion(complex(-2, -2), 4.0)
        want = 1.0 + 6.0 * 2.0 * SQRT2
        assert lipschitz_bound(QUAD, region) == pytest.approx(want, rel=1e-15)

    def test_bounds_value_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p = random_poly(rng, int(rng.integers(1, 7)))
            region = random_region(rng)
            lip = lipschitz_bound(p, region)
            u = region.corner + complex(
                rng.uniform(0, region.side), rng.uniform(0, region.side)
            )
            v = region.corner + complex(
                rng.uniform(0, region.side), rng.uniform(0, region.side)
            )
            fu = abs(np.polyval(np.asarray(p, dtype=complex)[::-1], u))
            fv = abs(np.polyval(np.asarray(p, dtype=complex)[::-1], v))
            assert abs(fu - fv) <= lip * abs(u - v) + 1e-9


class TestCertifiedMin:
    def test_pure_square_finds_origin(self):
        cm = certified_min((0, 0, 1), SquareRegion(complex(-1, -1), 2.0), 1e-6)
        assert cm.value <= 1e-6
        assert abs(cm.argmin) <= 1e-3
        assert not cm.budget_exhausted

    def test_sample_quadratic_over_enclosure(self):
        square = minimum_enclosing_square(QUAD)
        cm = certified_min(QUAD, square, 1e-4)
        # a root lies inside the enclosure square, so the minimum is 0
        assert cm.value <= 1e-4
        assert cm.gap <= 1e-4

    def test_budget_exhaustion_flagged_and_still_sound(self):
        square = minimum_enclosing_square(QUAD)
        cm = certified_min(QUAD, square, 1e-12, budget=20)
        assert cm.budget_exhausted
        assert cm.evaluations <= 20
        oracle = dense_min_oracle(QUAD, square, n=512)
        assert oracle >= cm.value - cm.gap - 1e-9

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            certified_min(QUAD, SquareRegion(0j, 1.0), 0.0)

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError):
            certified_min(QUAD, SquareRegion(0j, 1.0), math.nan)

    def test_rejects_bad_rel_gap(self):
        for rel_gap in (-0.1, math.nan):
            with pytest.raises(ValueError):
                certified_min(QUAD, SquareRegion(0j, 1.0), 1e-6, rel_gap=rel_gap)

    def test_rejects_bad_budget(self):
        for budget in (0, -5, 2.5, 3.0, math.nan):
            with pytest.raises(ValueError):
                certified_min(QUAD, SquareRegion(0j, 1.0), 1e-6, budget=budget)

    def test_budget_of_one_is_the_center_alone(self):
        cm = certified_min(QUAD, SquareRegion(0j, 1.0), 1e-12, budget=np.int64(1))
        assert cm.evaluations == 1
        assert cm.budget_exhausted

    def test_root_at_center(self):
        p = (complex(-0.5, -0.5), 1 + 0j)  # z - (0.5 + 0.5i)
        cm = certified_min(p, SquareRegion(0j, 1.0), 1e-6)
        assert cm.argmin == 0.5 + 0.5j
        assert cm.value == 0.0
        assert cm.gap <= 1e-6

    def test_constant(self):
        cm = certified_min((7,), SquareRegion(complex(-3, 2), 5.0), 1e-6)
        assert cm.value == 7.0
        assert cm.gap == 0.0

    def test_tie_break_keeps_center(self):
        # every cell ties with the center, whose Lipschitz bound is 0
        for corner, side in ((complex(-3, 2), 5.0), (0j, 1.0), (complex(1, -4), 0.25)):
            region = SquareRegion(corner, side)
            cm = certified_min((7,), region, 1e-6)
            assert cm == CertifiedMinimum(region.center, 7.0, 0.0, 1)

    def test_argmin_inside_region(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = random_poly(rng, int(rng.integers(1, 7)))
            region = random_region(rng)
            cm = certified_min(p, region, 1e-3, budget=int(rng.integers(1, 2000)))
            assert region.contains(cm.argmin)

    def test_tighter_epsilon_never_worse(self):
        # a smaller epsilon only runs more waves of the same search
        rng = np.random.default_rng(22)
        for _ in range(20):
            p = random_poly(rng, int(rng.integers(1, 7)))
            region = random_region(rng)
            previous = None
            for epsilon in (1e-1, 1e-2, 1e-3, 1e-4):
                cm = certified_min(p, region, epsilon, budget=100_000)
                if previous is not None:
                    assert cm.value <= previous.value
                    assert cm.evaluations >= previous.evaluations
                previous = cm

    def test_rel_gap_accepts_a_gap_small_against_the_value(self):
        square = minimum_enclosing_square(QUAD)
        absolute = certified_min(QUAD, square, 1e-10, budget=50_000)
        relative = certified_min(QUAD, square, 1e-10, budget=50_000, rel_gap=0.1)
        assert relative.gap <= max(1e-10, 0.1 * relative.value)
        assert relative.evaluations <= absolute.evaluations

    def test_against_dense_oracle(self):
        # the true minimum m lies in [value - gap, value], and a dense grid
        # sample is never below m
        square = minimum_enclosing_square(QUAD)
        cm = certified_min(QUAD, square, 1e-6)
        oracle = dense_min_oracle(QUAD, square, n=1024)
        assert oracle >= cm.value - cm.gap - 1e-9
        assert cm.value <= oracle + cm.gap + 1e-9

    def test_soundness_against_dense_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            p = random_poly(rng, int(rng.integers(1, 7)))
            region = random_region(rng)
            cm = certified_min(p, region, 1e-3, budget=200_000)
            oracle = dense_min_oracle(p, region, n=256)
            assert oracle >= cm.value - cm.gap - 1e-9
            assert region.contains(cm.argmin)

    def test_minimum_point_analogue(self):
        # value is below |p(z)| + gap everywhere in the region
        rng = np.random.default_rng(25)
        p = random_poly(rng, 5)
        region = random_region(rng)
        cm = certified_min(p, region, 1e-6, budget=500_000)
        xs = rng.uniform(region.corner.real, region.corner.real + region.side, 10_000)
        ys = rng.uniform(region.corner.imag, region.corner.imag + region.side, 10_000)
        values = np.abs(np.polyval(np.asarray(p, dtype=complex)[::-1], xs + 1j * ys))
        assert (cm.value <= values + cm.gap + 1e-12).all()

    def test_deterministic(self):
        square = minimum_enclosing_square(QUAD)
        a = certified_min(QUAD, square, 1e-8)
        b = certified_min(QUAD, square, 1e-8)
        assert a == b
