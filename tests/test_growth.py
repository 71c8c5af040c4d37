import math
from cmath import rect

import numpy as np
import pytest

from dalembert.complexmath import norm
from dalembert.errors import BelowThreshold, NotApplicableToConstant
from dalembert.growth import GrowthCertificate, check_bounds, growth_certificate
from dalembert.polynomial import evaluate, from_roots
from helpers import random_poly

QUAD = (1 + 0j, 1j, 3 + 0j)


def _lemma_battery():
    """Random polynomials of degree 1-60 whose coefficients are scaled one
    by one by 1e-5 to 1e5, then (z-1)^5, z^n and z^n + 1e-12."""
    rng = np.random.default_rng(11)
    polys = []
    for _ in range(240):
        degree = int(rng.integers(1, 61))
        scales = 10.0 ** rng.uniform(-5.0, 5.0, degree + 1)
        polys.append(tuple(c * s for c, s in zip(random_poly(rng, degree), scales)))
    polys.append(from_roots(1, [1.0] * 5))
    for n in (1, 2, 7, 30):
        polys.append((0,) * n + (1,))
        polys.append((1e-12,) + (0,) * (n - 1) + (1,))
    return polys


def _beyond(rng, cert, radius):
    """A random z with radius <= |z| <= 4 radius, or None where |z|^n or
    |a_n| |z|^n would overflow a float (nothing to compare)."""
    r = rng.uniform(radius, 4.0 * radius)
    if max(0.0, math.log(cert.lead_norm)) + cert.degree * math.log(r) > 700.0:
        return None
    return rect(r, rng.uniform(-math.pi, math.pi))


class TestCertificate:
    def test_sample_quadratic(self):
        cert = growth_certificate(QUAD)
        # A = 1, n = 2, |a_n| = 3: threshold max(1, 4/3), which is also the
        # enclosure radius, since (2 |a_0| / |a_n|)^(1/2) = 0.82 is below it
        assert cert.threshold_radius == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert cert.enclosure_radius == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert cert.lead_norm == 3.0
        assert cert.sub_max == 1.0
        assert cert.degree == 2

    def test_fields_are_read_only(self):
        cert = growth_certificate(QUAD)
        for name in GrowthCertificate._fields:
            with pytest.raises(AttributeError):
                setattr(cert, name, getattr(cert, name))
        assert repr(cert) == ("GrowthCertificate(threshold_radius=1.3333333333333333, "
                              "enclosure_radius=1.3333333333333333, lead_norm=3.0, "
                              "sub_max=1.0, degree=2)")

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
        # the radius never exceeds the paper's max(1, 2 A n / |a_n|) and
        # never falls below the lemma's |z| >= 1
        for p in _lemma_battery():
            cert = growth_certificate(p)
            paper = max(1.0, 2.0 * cert.sub_max * cert.degree / cert.lead_norm)
            assert 1.0 <= cert.threshold_radius <= paper
            # beyond (2 |a_0| / |a_n|)^(1/n) the sandwich gives |p(z)| >= |p(0)|;
            # the threshold already reaches it, so it is the enclosure radius too
            assert (2.0 * norm(p[0]) / cert.lead_norm) ** (1.0 / cert.degree) <= (
                cert.threshold_radius)
            assert cert.enclosure_radius == cert.threshold_radius

    def test_lemmas_hold_beyond_the_radii(self):
        rng = np.random.default_rng(14)
        checked = 0
        for p in _lemma_battery():
            cert = growth_certificate(p)
            at_origin = norm(evaluate(p, 0j))
            for _ in range(10):
                z = _beyond(rng, cert, cert.threshold_radius)
                if z is not None:
                    check_bounds(p, z, cert)
                    checked += 1
                z = _beyond(rng, cert, cert.enclosure_radius)
                if z is not None:
                    assert norm(evaluate(p, z)) >= at_origin - 1e-9 * (1.0 + at_origin)
                    checked += 1
        assert checked >= 4000

    def test_square_holds_every_root(self):
        for p in _lemma_battery():
            sq = growth_certificate(p).square
            for root in np.roots(np.asarray(p, dtype=complex)[::-1]):
                assert sq.contains(complex(root)), (p, root)


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

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_radius_three_is_tight_for_equal_tails(self, n):
        # z^n - (z^(n-1) + ... + 1) has F = 1 and threshold 3: at z = 3 the
        # tail takes (1 - 3^-n) / 2 of the leading term, and a tenth
        # further in the lower bound already fails
        p = (-1,) * n + (1,)
        cert = growth_certificate(p)
        assert cert.threshold_radius == 3.0
        check_bounds(p, 3 + 0j, cert)
        assert norm(evaluate(p, 2.7 + 0j)) < 0.5 * 2.7**n

    def test_tiny_leading_coefficient(self):
        # 1 + 1e-300 z^8: |z|^8 overflows beyond |z| ~ 1.3e38, while the
        # bound 1e-300 |z|^8 is still ~1e4 at ten times the threshold
        p = (1,) + (0,) * 7 + (1e-300,)
        cert = growth_certificate(p)
        for radius in (cert.threshold_radius, 5.0 * cert.threshold_radius,
                       10.0 * cert.threshold_radius):
            lower, value, upper = check_bounds(p, complex(0, radius), cert)
            assert math.isfinite(upper)
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
