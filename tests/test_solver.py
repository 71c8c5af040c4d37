import cmath
import math

import numpy as np
import pytest

from dalembert.complexmath import norm
from dalembert.errors import DegenerateZeroPolynomial, NoRootExists
from dalembert.gridmin import certified_min
from dalembert.growth import growth_certificate
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

    def test_rejects_bad_max_iter(self):
        for max_iter in (-3, math.nan):
            with pytest.raises(ValueError):
                find_root((1, 0, 1), max_iter=max_iter)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wilkinson20_searches_without_overflow(self):
        # over the paper's square (side 1.1e21) |p| overflows in numpy
        p = from_roots(1, range(1, 21))
        assert growth_certificate(p).square.side <= 2.0 * 630.0
        result = find_root(p)
        assert result.converged
        assert min(abs(result.root - k) for k in range(1, 21)) <= 1e-6

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
            square = growth_certificate(p).square
            _, _, seed = _solve_once(p, 1e-10, 10000)
            assert square.contains(seed.argmin)
            assert seed.value <= norm(evaluate(p, 0j)) + seed.gap + 1e-12


class TestSeed:
    @pytest.mark.parametrize(
        "p", [QUAD, (1, 0, 1), (-1, 0, 0, 1), (1, -2, 1), (2 - 1j, 0.5, 0, -3j, 1)]
    )
    def test_seed_is_the_public_branch_and_bound(self, p):
        want = certified_min(p, growth_certificate(p).square, 1e-10, 50_000)
        report = find_all_roots(p)
        assert report.seed == want
        # the first root is find_root's result, from the same one descent
        assert report.roots[0] == find_root(p)

    def test_one_certificate_and_one_seed_per_call(self, monkeypatch):
        import dalembert.growth
        import dalembert.solver

        calls = []
        original = dalembert.growth.growth_certificate

        def counting(p):
            calls.append(len(p) - 1)
            return original(p)

        seeds = []
        original_seed = dalembert.solver.certified_min

        def counting_seed(*args):
            seeds.append(len(args[0]) - 1)
            return original_seed(*args)

        monkeypatch.setattr(dalembert.growth, "growth_certificate", counting)
        monkeypatch.setattr(dalembert.solver, "growth_certificate", counting)
        monkeypatch.setattr(dalembert.solver, "certified_min", counting_seed)
        report = find_all_roots((2 - 1j, 0.5, 0, -3j, 1))
        assert calls == [4]
        assert seeds == [4]
        assert len(report.roots) == 4


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
        square = growth_certificate(QUAD).square
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

    def test_find_all_roots_wilkinson8(self, monkeypatch):
        # residuals at the noise floor (~1e-6 near 5) count as converged:
        # no polish crawls to max_iter chasing an absolute tol = 1e-10
        import dalembert.solver

        steps = []
        original = dalembert.solver._descend

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            steps.append(result.iterations)
            return result

        monkeypatch.setattr(dalembert.solver, "_descend", counting)
        p = from_roots(1, range(1, 9))
        report = find_all_roots(p, tol=1e-10, max_iter=10000)
        assert all(r.converged for r in report.roots)
        want = np.roots(np.asarray(p, dtype=complex)[::-1])
        assert _matched([r.root for r in report.roots], list(want), 1e-8)
        assert sum(steps) <= 5 * self.CAP

    def test_find_all_roots_of_unity(self):
        report = find_all_roots((-1,) + (0,) * 29 + (1,), tol=1e-10, max_iter=self.CAP)
        assert len(report.roots) == 30
        assert all(r.converged for r in report.roots)
        for r in report.roots:
            assert abs(abs(r.root) - 1.0) <= 1e-9


def _matched(found, want, radius):
    """found and want agree as multisets, each pair within radius."""
    unused = list(want)
    for z in found:
        i = int(np.argmin([abs(z - w) for w in unused]))
        if abs(z - unused[i]) > radius:
            return False
        unused.pop(i)
    return not unused


def _cluster(size, others):
    """size roots within 1e-3 of 1, the others on |z| = 1/2."""
    return ([1 + 1e-3 * cmath.exp(2j * math.pi * j / size) for j in range(size)]
            + [0.5 * cmath.exp(2j * math.pi * (j + 0.5) / others) for j in range(others)])


class TestAccuracy:
    """The descent's start comes from the branch-and-bound's Newton run,
    which stops halving once |p| <= tol; the roots must land no farther from
    the construction roots than when the run halved on to the float limit.

    The bounds are the distances the halving run gave, rounded up in the
    fourth digit, plus 1%: (z-1)^4's find_root landed at 1.2873e-4 then and
    lands at 1.2893e-4 now.  At the noise floor a root of multiplicity m is
    fixed only to about floor^(1/m), and both points have |p| <= 1.2e-16."""

    # coefficients from numpy.poly, as the benchmark builds them; the
    # earlier distances of find_root and of find_all_roots (largest
    # distance of a matched pair)
    @pytest.mark.parametrize(
        "roots, one, every",
        [
            ([1.0] * 3, 4.498e-6, 9.204e-6),
            ([1.0] * 4, 1.288e-4, 4.776e-4),
            ([1.0] * 5, 7.778e-4, 2.553e-3),
            (_cluster(4, 8), 9.243e-7, 2.855e-5),
            (_cluster(3, 3), 1.402e-10, 3.226e-9),
        ],
        ids=["(z-1)^3", "(z-1)^4", "(z-1)^5", "cluster4+8", "cluster3+3"],
    )
    def test_no_farther_than_the_halving_run(self, roots, one, every):
        p = tuple(complex(c) for c in np.poly(np.asarray(roots, dtype=complex))[::-1])
        result = find_root(p)
        assert result.converged
        assert min(abs(result.root - r) for r in roots) <= 1.01 * one
        report = find_all_roots(p)
        assert all(r.converged for r in report.roots)
        assert _matched([r.root for r in report.roots], roots, 1.01 * every)


class TestDeflatedFactors:
    """Each later factor descends once, from the first search's live cell
    center where it is smallest; no other start is tried."""

    # at residual tol = 1e-10 a root of multiplicity m may sit ~tol^(1/m)
    # away, and a root inside the 1e-3 cluster ~tol / |p'| ~ 3e-5 away
    @pytest.mark.parametrize(
        "p, radius",
        [
            ((-1,) + (0,) * 19 + (1,), 1e-9),
            (from_roots(1, [1.0] * 4), 5e-3),
            (
                from_roots(
                    1,
                    [1 + 1e-3 * cmath.exp(2j * math.pi * j / 3) for j in range(3)]
                    + [0.5 * cmath.exp(2j * math.pi * (j + 0.5) / 3) for j in range(3)],
                ),
                1e-4,
            ),
            (from_roots(1, range(1, 7)), 1e-8),
            # the degree-4 factor carries rounding dust on which its k = 1
            # step stalls from a diagonal center; the descent's later Taylor
            # terms step off it, with no other start
            ((-1,) + (0,) * 7 + (1,), 1e-9),
        ],
        ids=["z^20-1", "(z-1)^4", "cluster-3+3", "wilkinson-6", "z^8-1"],
    )
    def test_hard_families_match_numpy(self, p, radius):
        report = find_all_roots(p)
        want = np.roots(np.asarray(p, dtype=complex)[::-1])
        assert _matched([r.root for r in report.roots], list(want), radius)
        assert report.reconstruction_error <= 1e-8 * max_coeff_norm(p)

    def test_each_factor_starts_at_its_smallest_live_cell(self, monkeypatch):
        import dalembert.solver

        p = random_poly(np.random.default_rng(46), 7)
        starts = []
        original = dalembert.solver._descend

        def recording(q, floor, z0, *args):
            if len(q) < len(p):  # a deflated factor, not p itself
                starts.append((q, z0))
            return original(q, floor, z0, *args)

        monkeypatch.setattr(dalembert.solver, "_descend", recording)
        cells = find_all_roots(p).seed.cells
        assert len(starts) == 6
        for q, z0 in starts:
            values = np.abs(np.polyval(np.asarray(q, dtype=complex)[::-1], cells))
            assert z0 in cells
            assert abs(np.polyval(np.asarray(q, dtype=complex)[::-1], z0)) <= values.min() * (1 + 1e-9)

    @pytest.mark.parametrize("cells", [np.empty(0, complex), np.array([1e308 + 1e308j]),
                                       np.array([complex("nan")])],
                             ids=["no-live-cell", "overflowing-cell", "nan-cell"])
    def test_falls_back_to_the_seed(self, monkeypatch, cells):
        import dataclasses

        import dalembert.solver

        original = dalembert.solver.certified_min

        def with_cells(*args):
            return dataclasses.replace(original(*args), cells=cells)

        monkeypatch.setattr(dalembert.solver, "certified_min", with_cells)
        report = find_all_roots(QUAD)
        for want in QUAD_ROOTS:
            assert min(abs(r.root - want) for r in report.roots) <= 1e-8

    @staticmethod
    def _unity8_from(monkeypatch, cells):
        """find_all_roots of z^8 - 1 with the seed's live cells replaced by
        cells and its argmin by the root -(1 + i)/sqrt(2)."""
        import dataclasses

        import dalembert.solver

        original = dalembert.solver.certified_min

        def with_cells(*args):
            return dataclasses.replace(original(*args), argmin=-(1 + 1j) / math.sqrt(2.0),
                                       cells=np.array(cells))

        monkeypatch.setattr(dalembert.solver, "certified_min", with_cells)
        return find_all_roots((-1,) + (0,) * 7 + (1,))

    def test_a_stalled_factor_steps_off_by_a_later_term(self, monkeypatch):
        # from a diagonal center, the k = 1 steps on z^4 - 1 (the factor left
        # once the four diagonal roots are out) head for its critical point
        # 0 and stall; polished on p, that estimate would be a diagonal root
        # again, so the factor's descent must leave it by a later term
        report = self._unity8_from(monkeypatch, [0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j])
        want = [cmath.exp(2j * math.pi * j / 8) for j in range(8)]
        assert all(r.converged for r in report.roots)
        assert _matched([r.root for r in report.roots], want, 1e-8)

    def test_a_factor_that_does_not_converge_is_flagged(self, monkeypatch):
        import dalembert.solver

        original = dalembert.solver._descend

        def failing(q, floor, z0, residual, tol, max_iter, keep_trace):
            # z^6 + i z^4 - z^2 - i, left once the first two roots are out,
            # takes no step from the one center and so does not converge
            return original(q, floor, z0, residual, tol, 0 if len(q) == 7 else max_iter,
                            keep_trace)

        monkeypatch.setattr(dalembert.solver, "_descend", failing)
        report = self._unity8_from(monkeypatch, [0.5 + 0.5j])
        # its estimate is deflated out all the same, and every quotient
        # after that deflation is corrupted
        assert [r.converged for r in report.roots] == [True, True] + [False] * 6
        converged = [r.root for r in report.roots if r.converged]
        assert all(abs(a - b) > 1e-8 for i, a in enumerate(converged) for b in converged[:i])

    def test_many_live_cells_on_a_critical_line(self, monkeypatch):
        # z^4 - 1, left once the four diagonal roots are out, has p' = 0 only
        # at 0; descent from a diagonal center steps off that critical point,
        # so each factor descends once
        import dalembert.solver

        calls = []
        original = dalembert.solver._descend

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(dalembert.solver, "_descend", counting)
        diagonal = np.linspace(-0.9, 0.9, 1000) * (1 + 1j)
        report = self._unity8_from(monkeypatch, diagonal)
        want = [cmath.exp(2j * math.pi * j / 8) for j in range(8)]
        assert all(r.converged for r in report.roots)
        assert _matched([r.root for r in report.roots], want, 1e-8)
        assert len(calls) <= 50

    def test_factor_descents_keep_no_trace(self, monkeypatch):
        import dalembert.solver

        p = random_poly(np.random.default_rng(47), 6)
        kept = []
        original = dalembert.solver._descend

        def recording(q, *args):
            result = original(q, *args)
            kept.append((len(q) < len(p), result.trace is not None))
            return result

        monkeypatch.setattr(dalembert.solver, "_descend", recording)
        report = find_all_roots(p)
        # the polished roots keep their traces; the factors' descents, whose
        # root and flag alone are read, do not
        assert all(r.trace is not None for r in report.roots)
        assert kept.count((True, False)) == 5
        assert (True, True) not in kept

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_input_completes(self):
        # |p| overflows on most of the enclosure square; those cells bound
        # nothing, so the search keeps them and stops on its budget with the
        # trivial certificate [0, value]
        p = tuple(1e300 * c for c in random_poly(np.random.default_rng(45), 8))
        report = find_all_roots(p)
        assert report.seed.cells.size > 0
        assert report.seed.budget_exhausted
        assert report.seed.gap == report.seed.value
        assert len(report.roots) == 8
