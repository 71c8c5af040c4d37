import math
from cmath import rect

import numpy as np
import pytest

from dalembert.complexmath import norm
from dalembert.errors import BelowThreshold, NotApplicableToConstant
from dalembert.growth import check_bounds, growth_certificate
from dalembert.polynomial import evaluate
from helpers import random_poly

QUAD = (1 + 0j, 1j, 3 + 0j)


class TestCertificate:
    def test_sample_quadratic(self):
        cert = growth_certificate(QUAD)
        # A = 1, n = 2, |a_n| = 3: threshold max(1, 4/3), enclosure max(4/3, 2/3)
        assert cert.threshold_radius == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert cert.enclosure_radius == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert cert.lead_norm == 3.0
        assert cert.sub_max == 1.0
        assert cert.degree == 2

    def test_pure_square(self):
        cert = growth_certificate((0, 0, 1))
        assert cert.threshold_radius == 1.0
        assert cert.enclosure_radius == 1.0

    def test_linear_with_large_constant(self):
        cert = growth_certificate((10, 1))
        assert cert.threshold_radius == 20.0
        assert cert.enclosure_radius == 20.0

    def test_rejects_constants(self):
        for p in ((7,), (), (0, 0)):
            with pytest.raises(NotApplicableToConstant):
                growth_certificate(p)

    def test_invariants_on_random_polys(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_poly(rng, int(rng.integers(1, 11)))
            cert = growth_certificate(p)
            assert cert.threshold_radius >= 1.0
            assert cert.threshold_radius >= 2.0 * cert.sub_max * cert.degree / cert.lead_norm
            assert cert.enclosure_radius >= cert.threshold_radius
            assert cert.enclosure_radius >= 2.0 * norm(p[0]) / cert.lead_norm


class TestCheckBounds:
    def test_pure_square_sandwich_is_tight_in_middle(self):
        p = (0, 0, 1)
        cert = growth_certificate(p)
        for z in (1 + 0j, 2 - 1j, -3 + 0.5j):
            lower, value, upper = check_bounds(p, z, cert)
            assert lower == pytest.approx(0.5 * norm(z) ** 2, rel=1e-12)
            assert value == pytest.approx(norm(z) ** 2, rel=1e-12)
            assert upper == pytest.approx(1.5 * norm(z) ** 2, rel=1e-12)

    def test_sample_quadratic_at_two(self):
        cert = growth_certificate(QUAD)
        lower, value, upper = check_bounds(QUAD, 2 + 0j, cert)
        assert lower == 6.0
        assert value == pytest.approx(math.sqrt(173.0), rel=1e-15)
        assert upper == 18.0

    def test_just_above_threshold(self):
        cert = growth_certificate(QUAD)
        lower, value, upper = check_bounds(QUAD, 1.34 + 0j, cert)
        assert lower <= value <= upper

    def test_below_threshold_rejected(self):
        cert = growth_certificate(QUAD)
        with pytest.raises(BelowThreshold):
            check_bounds(QUAD, 1 + 0j, cert)

    def test_random_sandwich(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            p = random_poly(rng, int(rng.integers(1, 11)))
            cert = growth_certificate(p)
            radius = rng.uniform(cert.threshold_radius, 10.0 * cert.threshold_radius)
            z = rect(radius, rng.uniform(-math.pi, math.pi))
            lower, value, upper = check_bounds(p, z, cert)
            assert lower <= value + 1e-9 * (1.0 + value)
            assert value <= upper + 1e-9 * (1.0 + upper)


class TestEnclosure:
    def test_sample_quadratic_square(self):
        sq = growth_certificate(QUAD).square
        assert sq.corner.real == pytest.approx(-4.0 / 3.0, abs=1e-15)
        assert sq.corner.imag == pytest.approx(-4.0 / 3.0, abs=1e-15)
        assert sq.side == pytest.approx(8.0 / 3.0, abs=1e-15)

    def test_pure_square(self):
        sq = growth_certificate((0, 0, 1)).square
        assert sq.corner == complex(-1, -1)
        assert sq.side == 2.0

    def test_linear_contains_its_root(self):
        sq = growth_certificate((10, 1)).square
        assert sq.corner == complex(-20, -20)
        assert sq.side == 40.0
        assert sq.contains(-10 + 0j)

    def test_outside_enclosure_domination(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            p = random_poly(rng, int(rng.integers(1, 11)))
            cert = growth_certificate(p)
            at_origin = norm(evaluate(p, 0j))
            radius = rng.uniform(cert.enclosure_radius, 10.0 * cert.enclosure_radius)
            z = rect(radius, rng.uniform(-math.pi, math.pi))
            assert norm(evaluate(p, z)) >= at_origin - 1e-9 * (1.0 + at_origin)
