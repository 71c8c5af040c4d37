import cmath
import math

import numpy as np
import pytest

from dalembert.complexmath import norm
from dalembert.errors import DegenerateZeroPolynomial, NoRootExists
from dalembert.gridmin import certified_min
from dalembert.growth import minimum_enclosing_square
from dalembert.polynomial import evaluate, from_roots, max_coeff_norm
from dalembert.solver import find_all_roots, find_root
from helpers import random_poly

QUAD = (1 + 0j, 1j, 3 + 0j)
QUAD_ROOTS = (
    1j * (-1 + math.sqrt(13.0)) / 6.0,
    1j * (-1 - math.sqrt(13.0)) / 6.0,
)


class TestFindRoot:
    def test_classic_quadratic(self):
        result = find_root((1, 0, 1))
        assert result.converged
        assert result.residual <= 1e-10
        assert min(abs(result.root - 1j), abs(result.root + 1j)) <= 1e-9

    def test_sample_quadratic(self):
        result = find_root(QUAD)
        assert result.converged
        assert min(abs(result.root - r) for r in QUAD_ROOTS) <= 1e-8

    def test_nonzero_constant(self):
        with pytest.raises(NoRootExists):
            find_root((7,))

    def test_zero_polynomial(self):
        with pytest.raises(DegenerateZeroPolynomial):
            find_root(())
        with pytest.raises(DegenerateZeroPolynomial):
            find_root((0, 0, 0))

    def test_root_at_origin(self):
        result = find_root((0, 5))
        assert result.converged
        assert abs(result.root) <= 1e-11

    def test_residual_matches_reported_root(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            p = random_poly(rng, int(rng.integers(1, 9)))
            result = find_root(p)
            assert norm(evaluate(p, result.root)) == pytest.approx(
                result.residual, abs=1e-12 * (1.0 + result.residual)
            )

    def test_seed_validity(self):
        # the evt seed lies inside the enclosure square and cannot beat p(0)
        # by more than its gap
        from dalembert.solver import _solve_once
        from dalembert.polynomial import truncate

        rng = np.random.default_rng(42)
        for _ in range(25):
            p = truncate(random_poly(rng, int(rng.integers(1, 9))))
            square = minimum_enclosing_square(p)
            _, _, seed = _solve_once(p, 1e-10, 10000)
            assert square.contains(seed.argmin)
            assert seed.value <= norm(evaluate(p, 0j)) + seed.gap + 1e-12


class TestSeed:
    @pytest.mark.parametrize(
        "p", [QUAD, (1, 0, 1), (-1, 0, 0, 1), (1, -2, 1), (2 - 1j, 0.5, 0, -3j, 1)]
    )
    def test_seed_is_the_public_branch_and_bound(self, p):
        want = certified_min(p, minimum_enclosing_square(p), 1e-10, 50_000, rel_gap=0.1)
        assert find_all_roots(p).seed == want

    def test_one_growth_certificate_per_factor(self, monkeypatch):
        import dalembert.growth
        import dalembert.solver

        calls = []
        original = dalembert.growth.growth_certificate

        def counting(p):
            calls.append(len(p) - 1)
            return original(p)

        monkeypatch.setattr(dalembert.growth, "growth_certificate", counting)
        monkeypatch.setattr(dalembert.solver, "growth_certificate", counting)
        find_all_roots((2 - 1j, 0.5, 0, -3j, 1))
        assert calls == [4, 3, 2, 1]


class TestFindAllRoots:
    def test_cube_roots_of_unity(self):
        report = find_all_roots((-1, 0, 0, 1))
        assert len(report.roots) == 3
        expected = [1.0 + 0j, complex(-0.5, math.sqrt(3) / 2), complex(-0.5, -math.sqrt(3) / 2)]
        for want in expected:
            assert min(abs(r.root - want) for r in report.roots) <= 1e-8
        assert report.reconstruction_error <= 1e-8

    def test_double_root(self):
        report = find_all_roots((1, -2, 1))
        assert len(report.roots) == 2
        for r in report.roots:
            assert abs(r.root - 1.0) <= 1e-4

    def test_sample_quadratic(self):
        report = find_all_roots(QUAD)
        assert len(report.roots) == 2
        for want in QUAD_ROOTS:
            assert min(abs(r.root - want) for r in report.roots) <= 1e-8
        assert report.reconstruction_error <= 1e-8

    def test_report_carries_certificates(self):
        report = find_all_roots(QUAD)
        assert report.enclosure.enclosure_radius == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert report.seed.gap >= 0.0
        square = minimum_enclosing_square(QUAD)
        assert square.contains(report.seed.argmin)

    def test_root_count_matches_degree(self):
        rng = np.random.default_rng(43)
        for degree in (1, 3, 5):
            p = random_poly(rng, degree)
            report = find_all_roots(p)
            assert len(report.roots) == degree

    def test_reconstruction_on_random_simple_roots(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            p = random_poly(rng, int(rng.integers(2, 7)))
            report = find_all_roots(p)
            scale = 1.0 + max_coeff_norm(p)
            assert report.reconstruction_error <= 1e-7 * scale

    def test_errors_propagate(self):
        with pytest.raises(NoRootExists):
            find_all_roots((3,))
        with pytest.raises(DegenerateZeroPolynomial):
            find_all_roots((0,))


class TestNoCrawl:
    """Descent reaches tol within 100 steps per root on the hard families."""

    CAP = 100

    @pytest.mark.parametrize(
        "p",
        [
            random_poly(np.random.default_rng(0), 40),
            from_roots(1, [1.0] * 5),
            from_roots(1, [1 + 1e-3 * cmath.exp(2j * math.pi * j / 5) for j in range(5)]),
        ],
        ids=["random-40", "(z-1)^5", "cluster-1e-3"],
    )
    def test_find_root(self, p):
        result = find_root(p, tol=1e-10, max_iter=self.CAP)
        assert result.converged
        assert result.iterations < self.CAP

    def test_find_all_roots_of_unity(self):
        report = find_all_roots((-1,) + (0,) * 29 + (1,), tol=1e-10, max_iter=self.CAP)
        assert len(report.roots) == 30
        assert all(r.converged for r in report.roots)
        for r in report.roots:
            assert abs(abs(r.root) - 1.0) <= 1e-9
