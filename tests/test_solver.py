import cmath
import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

import dalembert
from dalembert.complexmath import norm
from dalembert.errors import DegenerateZeroPolynomial, NoRootExists
from dalembert.descent import descend, descent_step, step_parameter
from dalembert.gridmin import SquareRegion, _search, certified_min, lipschitz_bound
from dalembert.growth import check_bounds, growth_certificate
from dalembert.polynomial import (
    as_poly,
    evaluate,
    evaluate_with_derivative,
    from_roots,
    max_coeff_norm,
)
from dalembert.solver import _start, find_all_roots, find_root
from helpers import random_poly

QUAD = (1 + 0j, 1j, 3 + 0j)
# polynomials with a coefficient that is not finite, and the first such;
# the constant (nan,) is refused for its coefficient before its degree
NON_FINITE = [((math.inf, 1), "a_0 = (inf+0j)"),
              ((1, complex(1, math.inf), 1e-300), "a_1 = (1+infj)"),
              ((math.nan, 1), "a_0 = (nan+0j)"),
              ((1, math.inf), "a_1 = (inf+0j)"),
              ((1, 1, math.nan), "a_2 = (nan+0j)"),
              ((math.nan, 0), "a_0 = (nan+0j)")]
# the public functions of p that read its coefficient norms, and so refuse
# one that is not finite, and the arithmetic ones, which pass NaN through
REFUSE_NON_FINITE = {"growth_certificate", "check_bounds", "certified_min", "lipschitz_bound",
                     "descend", "descent_step", "step_parameter", "max_coeff_norm", "find_root",
                     "find_all_roots"}
ARITHMETIC = {"evaluate", "truncate", "degree", "shift", "deflate"}
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

    @pytest.mark.parametrize("solve", [find_root, find_all_roots])
    def test_rejects_infinite_tol(self, solve):
        # with tol=inf the center 0 of z^2 + 1, where |p| = 1, passed as a root
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve((1, 0, 1), tol=math.inf)

    @pytest.mark.parametrize("p, radius", [((1e200, 1e-200), "inf"), ((5e307, 1), "1e+308")])
    def test_an_overflowing_enclosure_is_reported(self, p, radius):
        # the root -1e400 of the first is not a double, and its radius is
        # inf; the second's radius is finite, but not the side 2e308 of its
        # square [-R, R]^2
        for solve in (find_root, find_all_roots):
            with pytest.raises(OverflowError, match=re.escape(f"enclosure radius {radius} ")):
                solve(p)

    def test_a_finite_radius_solves_where_the_origin_term_overflows(self):
        # 1e300 + 1e-8 z^2 has the roots +-1e154 i and the radius 3e154,
        # Fujiwara's; (2 |a_0| / |a_n|)^(1/2), which that radius always
        # reaches, overflows to inf when it is taken by itself
        p = (1e300, 0, 1e-8)
        assert growth_certificate(p).enclosure_radius == 3e154
        want = [1e154j, -1e154j]
        result = find_root(p)
        assert result.converged
        assert min(abs(result.root - w) for w in want) <= 1e142
        report = find_all_roots(p)
        assert all(r.converged for r in report.roots)
        assert _matched([r.root for r in report.roots], want, 1e142)

    def test_results_are_not_tuples(self):
        # the benchmark's digest reads a tuple as a CLI (exit code, stdout)
        # pair, so the solvers' results stay records of their own
        assert not isinstance(find_root(QUAD), tuple)
        assert not isinstance(find_all_roots(QUAD), tuple)

    @pytest.mark.parametrize("p, coeff", NON_FINITE)
    def test_every_entry_that_takes_p_names_a_non_finite_coefficient(self, p, coeff):
        # each entry takes p through polynomial._prepare, so each gives the
        # one message; before, the search spent its budget to report inf,
        # descend returned a NaN residual, descent_step raised OverflowError,
        # and lipschitz_bound, step_parameter, max_coeff_norm and
        # check_bounds returned numbers (max skips a NaN, a_i / inf is 0)
        norm_text = abs(complex(coeff.partition(" = ")[2]))
        region = SquareRegion(-1 - 1j, 2.0)
        entries = {
            "growth_certificate": lambda: growth_certificate(p),
            "check_bounds": lambda: check_bounds(p, 10.0, growth_certificate(QUAD)),
            "certified_min": lambda: certified_min(p, region, 1e-6),
            "lipschitz_bound": lambda: lipschitz_bound(p, region),
            "descend": lambda: descend(p, 0.5),
            "descent_step": lambda: descent_step(p, 0.5),
            "step_parameter": lambda: step_parameter(p),
            "max_coeff_norm": lambda: max_coeff_norm(p),
            "find_root": lambda: find_root(p),
            "find_all_roots": lambda: find_all_roots(p),
        }
        assert entries.keys() == REFUSE_NON_FINITE
        message = f"the norm of a coefficient is {norm_text}: coefficient {coeff}"
        for entry in entries.values():
            with pytest.raises(ValueError, match=re.escape(message)):
                entry()

    def test_every_public_entry_on_p_is_sorted_into_refusing_or_arithmetic(self):
        # a public function whose first parameter is p either reads
        # coefficient norms, and takes p through _prepare (the entries the
        # test above checks), or is arithmetic that passes NaN through
        on_p = {name for name in dalembert.__all__
                if inspect.isfunction(getattr(dalembert, name))
                and next(iter(inspect.signature(getattr(dalembert, name)).parameters)) == "p"}
        assert on_p == REFUSE_NON_FINITE | ARITHMETIC
        assert not REFUSE_NON_FINITE & ARITHMETIC

    def test_trailing_zeros_change_no_bit_of_the_search_or_its_bound(self):
        # certified_min and lipschitz_bound truncate p first
        rng = np.random.default_rng(27)
        for _ in range(40):
            p = random_poly(rng, int(rng.integers(1, 9)))
            region = growth_certificate(p).square
            padded = tuple(p) + (0j, 0j)
            assert repr(certified_min(padded, region, 1e-6, 2_000)) == repr(
                certified_min(p, region, 1e-6, 2_000))
            assert repr(lipschitz_bound(padded, region)) == repr(lipschitz_bound(p, region))

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
        from dalembert.polynomial import truncate

        rng = np.random.default_rng(42)
        for _ in range(25):
            p = truncate(random_poly(rng, int(rng.integers(1, 9))))
            square = growth_certificate(p).square
            seed = find_all_roots(p).seed
            assert square.contains(seed.argmin)
            assert seed.value <= norm(evaluate(p, 0j)) + seed.gap + 1e-12


def _bits(x):
    """x with every float, and each part of every complex, as its hex string."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(y) for y in x)
    if dataclasses.is_dataclass(x):
        return tuple((f.name, _bits(getattr(x, f.name))) for f in dataclasses.fields(x))
    return x


def _search_with(search, cells=None, **changes):
    """search, the seed search's core, with the CertifiedMinimum fields in
    changes replaced and, if given, its live cells replaced by cells; the
    (p, p') pair is taken again at a replaced argmin."""
    def replaced(coeffs, *args):
        found, live, pair = search(coeffs, *args)
        found = found._replace(**changes)
        if "argmin" in changes:
            pair = evaluate_with_derivative(coeffs, found.argmin)
        return found, live if cells is None else cells, pair

    return replaced


def _recording_search(monkeypatch):
    """The solver's seed search, made to record what it returns: a list
    that gets one (CertifiedMinimum, live cells) pair per call."""
    import dalembert.solver

    found = []
    original = dalembert.solver._search

    def recording(*args):
        found.append(original(*args))
        return found[-1]

    monkeypatch.setattr(dalembert.solver, "_search", recording)
    return found


def _gamma(n):
    k = 2 * n * 2.0**-53
    return k / (1 - k)


# the solver's prepared path against the public functions it replaces: the
# classic inputs, the hard families, both extreme scales, a root at 0, and
# signed zero parts in a_0 and a_1
_PREPARED = {
    "quad": QUAD,
    "z^2+1": (1, 0, 1),
    "z^3-1": (-1, 0, 0, 1),
    "(z-1)^2": (1, -2, 1),
    "deg4": (2 - 1j, 0.5, 0, -3j, 1),
    "z^8-1": (-1,) + (0,) * 7 + (1,),
    "wilkinson8": from_roots(1, range(1, 9)),
    "random40": random_poly(np.random.default_rng(44), 40),
    "random8x1e+150": tuple(1e150 * c for c in random_poly(np.random.default_rng(8), 8)),
    "random8x1e-150": tuple(1e-150 * c for c in random_poly(np.random.default_rng(8), 8)),
    "a0=0": (0, 1 - 2j, 0.5j, 3),
    "signed-zero-a0": (complex(-0.0, 2.0), complex(1.5, -0.5), 1),
    "signed-zero-a1": (complex(-1.0, 0.5), complex(-0.0, -0.0), complex(0.0, -0.0), 2),
}


class TestSeed:
    # ids p0 .. p12, in _PREPARED's order
    @pytest.mark.parametrize("p", list(_PREPARED.values()))
    def test_seed_is_the_public_branch_and_bound(self, p, monkeypatch):
        found = _recording_search(monkeypatch)
        report = find_all_roots(p)
        assert report.enclosure == growth_certificate(p)
        n = report.enclosure.degree
        square, epsilon = report.enclosure.square, max(1e-10, _gamma(n) * norm(p[0]))
        want, want_cells, _pair = _search(as_poly(p), list(map(norm, as_poly(p))),
                                          square.corner, square.side, epsilon, 50_000)
        assert want == certified_min(p, square, epsilon, 50_000)
        assert _bits(report.seed) == _bits(want)
        [(_seed, cells, _pair)] = found
        assert np.array_equal(np.asarray(cells, complex), np.asarray(want_cells, complex))
        # the first root is find_root's result, from the same one descent
        assert _bits(report.roots[0]) == _bits(find_root(p))
        # which starts from the seed's value, |p| at its argmin as norm
        # computes it, handed on rather than evaluated again
        seed = report.seed
        assert find_root(p).trace[0].residual == seed.value == norm(evaluate(p, seed.argmin))

    def test_find_root_evaluates_p_only_inside_the_search(self, monkeypatch):
        import dalembert.solver

        # p is evaluated by the seed search and the descent, not the solver
        assert not hasattr(dalembert.solver, "evaluate")
        calls = []
        original = dalembert.solver.evaluate_with_derivative
        monkeypatch.setattr(dalembert.solver, "evaluate_with_derivative",
                            lambda p, z: calls.append(z) or original(p, z))
        for p in [QUAD, (1, 0, 1), (2 - 1j, 0.5, 0, -3j, 1), from_roots(1, range(1, 9))]:
            assert find_root(p).converged
        assert calls == []

    def test_one_certificate_and_one_seed_per_call(self, monkeypatch):
        # the solver derives the growth radii from its one set of norms
        # (growth._radii) and runs the seed search's core (gridmin._search)
        # on them: once each per call, not once per deflated factor
        import dalembert.solver

        certificates = []
        original = dalembert.solver._radii

        def recording(norms):
            certificates.append(original(norms))
            return certificates[-1]

        monkeypatch.setattr(dalembert.solver, "_radii", recording)
        seeds = _recording_search(monkeypatch)
        report = find_all_roots((2 - 1j, 0.5, 0, -3j, 1))
        assert [c.degree for c in certificates] == [4]
        assert len(seeds) == 1
        assert len(report.roots) == 4
        # the report holds the very records the two stages built
        assert report.enclosure is certificates[0]
        assert report.seed is seeds[0][0]


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

    def test_a_root_of_an_overflowing_modulus_is_taken(self):
        # a descent step on this degree-5 input takes the root of a -s/a_k
        # whose modulus overflows; both solvers report, with the seed
        # search's overflow warnings
        p = (2.09e284 + 1e284j, 3.97e-13 + 4.48e-13j, 2.31e-34 + 1.81e-34j,
             -3.32e297 + 4.28e297j, 1.5e-44 - 1.92e-44j, 8.71e154 + 5.98e154j)
        with pytest.warns(RuntimeWarning):
            result = find_root(p)
        with pytest.warns(RuntimeWarning):
            report = find_all_roots(p)
        assert report.roots[0] == result
        assert len(report.roots) == 5

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

    # the seed search's Newton run scales its step by the multiplicity it
    # reads off its iterates, so it lands on the k-fold root in a few
    # tries, where plain Newton steps gain a constant factor each
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_a_multiple_root_is_found_exactly(self, k):
        p = tuple(complex(c) for c in np.poly(np.ones(k))[::-1])
        result = find_root(p)
        assert result.converged
        assert abs(result.root - 1) <= 1e-12
        assert find_all_roots(p).seed.evaluations <= 6


# a seeded random degree-40 input, whose numpy.roots answer is checked
# against mpmath.polyroots in TestDeflatedFactors
RAND40 = random_poly(np.random.default_rng(40), 40)

_ABSOLUTE_TOL = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="tol is absolute, so a tiny scale converges anywhere (ROADMAP item 3)")


def _beta(q):
    """1/2 min_{k>=1} (|a_0| / |a_k|)^(1/k) over the nonzero a_k of q."""
    a = np.abs(np.asarray(q, dtype=complex))
    return 0.5 * min((a[0] / a[k]) ** (1.0 / k) for k in range(1, len(a)) if a[k])


def _factor_starts(monkeypatch, degree):
    """A list that gets (factor, start) for each deflated factor's descent
    in find_all_roots of a polynomial of this degree."""
    import dalembert.solver

    starts = []
    original = dalembert.solver._descend

    def recording(q, floor, z0, *args):
        if len(q) <= degree:  # a deflated factor, not p itself
            starts.append((q, z0))
        return original(q, floor, z0, *args)

    monkeypatch.setattr(dalembert.solver, "_descend", recording)
    return starts


class TestDeflatedFactors:
    """Each later factor descends once, from the first search's one live
    cell center or else from its root-free circle; no other start is tried."""

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
            (from_roots(1, range(1, 9)), 1e-8),
            ((-1,) + (0,) * 63 + (1,), 1e-9),
            (RAND40, 1e-9),
            # every root is reported converged, yet one lies 1.0 (z^64 - 1)
            # and 1.5 (random degree 8) away from every true root: the
            # residual tol is absolute, so at this scale it holds far from
            # any root
            pytest.param(tuple(1e-150 * c for c in (-1,) + (0,) * 63 + (1,)), 1e-9,
                         marks=_ABSOLUTE_TOL),
            pytest.param(tuple(1e-150 * c for c in random_poly(np.random.default_rng(8), 8)),
                         1e-9, marks=_ABSOLUTE_TOL),
            (tuple(1e150 * c for c in random_poly(np.random.default_rng(8), 8)), 1e-9),
        ],
        ids=["z^20-1", "(z-1)^4", "cluster-3+3", "wilkinson-6", "z^8-1", "wilkinson-8",
             "z^64-1", "random40", "z^64-1x1e-150", "random8x1e-150", "random8x1e+150"],
    )
    def test_hard_families_match_numpy(self, p, radius):
        report = find_all_roots(p)
        want = np.roots(np.asarray(p, dtype=complex)[::-1])
        assert _matched([r.root for r in report.roots], list(want), radius)
        assert report.reconstruction_error <= 1e-8 * max_coeff_norm(p)

    def test_numpy_oracle_agrees_with_mpmath_at_degree_40(self):
        mpmath = pytest.importorskip("mpmath")
        want = np.roots(np.asarray(RAND40, dtype=complex)[::-1])
        oracle = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in RAND40[::-1]])
        assert _matched([complex(z) for z in oracle], list(want), 1e-12)

    def test_each_factor_starts_at_the_one_live_cell(self, monkeypatch):
        p = random_poly(np.random.default_rng(46), 7)
        starts = _factor_starts(monkeypatch, 7)
        found = _recording_search(monkeypatch)
        find_all_roots(p)
        [cell] = found[0][1]
        assert len(starts) == 6
        assert all(z0 == cell for _q, z0 in starts)

    # from a start on a critical line, such as a diagonal center of z^8 - 1,
    # a factor's k = 1 steps can stall; the escape by a later Taylor term is
    # covered at the descent level by test_steps_off_a_critical_line, and
    # from one such cell by test_a_stalled_factor_steps_off_by_a_later_term
    @pytest.mark.parametrize("p", [(-1,) + (0,) * 7 + (1,), (1, 0, 2 - 1j, 0.5, 3),
                                   (2, 0, 0, 1j, 0, 1)], ids=["z^8-1", "a1=0", "a1=a2=0"])
    def test_several_live_cells_start_each_factor_on_its_root_free_circle(self, p, monkeypatch):
        n = len(p) - 1
        starts = _factor_starts(monkeypatch, n)
        found = _recording_search(monkeypatch)
        report = find_all_roots(p)
        assert len(found[0][1]) > 1
        assert len(starts) == n - 1
        for q, z0 in starts:
            beta = _beta(q)
            assert abs(abs(z0) - beta) <= 1e-12 * beta
            assert z0.real > 0 and z0.imag > 0  # off both axes
        assert all(r.converged for r in report.roots)
        want = np.roots(np.asarray(p, dtype=complex)[::-1])
        assert _matched([r.root for r in report.roots], list(want), 1e-8)

    @pytest.mark.parametrize("cells", [np.empty(0, complex), np.array([1e308 + 1e308j]),
                                       np.array([complex("nan")])],
                             ids=["no-live-cell", "overflowing-cell", "nan-cell"])
    def test_falls_back_to_the_root_free_circle(self, monkeypatch, cells):
        import dalembert.solver

        starts = _factor_starts(monkeypatch, 2)
        monkeypatch.setattr(dalembert.solver, "_search",
                            _search_with(dalembert.solver._search, cells=cells))
        report = find_all_roots(QUAD)
        [(q, z0)] = starts
        assert abs(abs(z0) - _beta(q)) <= 1e-12 * _beta(q)
        for want in QUAD_ROOTS:
            assert min(abs(r.root - want) for r in report.roots) <= 1e-8

    def test_a_factor_with_a_zero_constant_term_starts_at_its_root_0(self):
        # a_0 = 0 leaves no root-free circle, and 0 is a root
        q = (0j, 2 - 1j, 0.5, 1)
        assert _start(q, [norm(c) for c in q], ()) == (0j, (0j, 2 - 1j))

    @staticmethod
    def _unity8_from(monkeypatch, cells):
        """find_all_roots of z^8 - 1 with the seed's live cells replaced by
        cells and its argmin by the root -(1 + i)/sqrt(2)."""
        import dalembert.solver

        monkeypatch.setattr(dalembert.solver, "_search", _search_with(
            dalembert.solver._search, argmin=-(1 + 1j) / math.sqrt(2.0), cells=cells))
        return find_all_roots((-1,) + (0,) * 7 + (1,))

    def test_a_stalled_factor_steps_off_by_a_later_term(self, monkeypatch):
        # from the one diagonal center, the k = 1 steps on the degree-6 and
        # degree-4 factors head for a critical point on the diagonal and
        # stall; polished on p, such an estimate would be a root found
        # before, so the factor's descent must leave it by a later term
        import dalembert.solver

        ks = []
        original = dalembert.solver._descend

        def tracing(q, floor, z0, pair, tol, max_iter, keep_trace):
            result = original(q, floor, z0, pair, tol, max_iter, True)
            if len(q) < 9:
                ks.extend(row.k for row in result.trace[1:])
            return result if keep_trace else dataclasses.replace(result, trace=None)

        monkeypatch.setattr(dalembert.solver, "_descend", tracing)
        report = self._unity8_from(monkeypatch, [0.5 + 0.5j])
        want = [cmath.exp(2j * math.pi * j / 8) for j in range(8)]
        assert max(ks) >= 2
        assert all(r.converged for r in report.roots)
        assert _matched([r.root for r in report.roots], want, 1e-8)

    def test_a_factor_that_does_not_converge_is_flagged(self, monkeypatch):
        import dalembert.solver

        original = dalembert.solver._descend

        def failing(q, floor, z0, pair, tol, max_iter, keep_trace):
            # z^6 + i z^4 - z^2 - i, left once the first two roots are out,
            # takes no step from the one center and so does not converge
            return original(q, floor, z0, pair, tol, 0 if len(q) == 7 else max_iter,
                            keep_trace)

        monkeypatch.setattr(dalembert.solver, "_descend", failing)
        report = self._unity8_from(monkeypatch, [0.5 + 0.5j])
        # its estimate is deflated out all the same, and every quotient
        # after that deflation is corrupted
        assert [r.converged for r in report.roots] == [True, True] + [False] * 6
        converged = [r.root for r in report.roots if r.converged]
        assert all(abs(a - b) > 1e-8 for i, a in enumerate(converged) for b in converged[:i])

    def test_many_live_cells_on_a_critical_line(self, monkeypatch):
        # live cells all along the diagonal, where z^8 - 1's factors have
        # critical points: none is a start, each factor starts on its
        # root-free circle and descends once, and so does each polish
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
        assert len(calls) == 15

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
    def test_overflowing_input_completes(self, monkeypatch):
        # |p| overflows on most of the enclosure square; those cells bound
        # nothing, so the search keeps them with the trivial certificate
        # [0, value], which is already below the rounding floor
        # gamma_2n |a_0| at the center: it stops there, not on its budget
        p = tuple(1e300 * c for c in random_poly(np.random.default_rng(45), 8))
        found = _recording_search(monkeypatch)
        report = find_all_roots(p)
        assert len(found[0][1]) > 0
        assert not report.seed.budget_exhausted
        assert report.seed.gap == report.seed.value
        assert len(report.roots) == 8
        assert all(r.converged for r in report.roots)

    @pytest.mark.parametrize("seed", [8, 45, 1, 2, 3])
    def test_seed_search_stops_at_the_rounding_floor(self, seed):
        # no computed |p| in the square resolves a gap below gamma_2n |a_0|,
        # the floor at its center 0, so the search stops there long before
        # its 50,000-evaluation budget, and the roots stay numpy's
        p = tuple(1e150 * c for c in random_poly(np.random.default_rng(seed), 8))
        u = 2.0**-53
        gamma = 2 * 8 * u / (1 - 2 * 8 * u)
        report = find_all_roots(p)
        assert not report.seed.budget_exhausted
        assert report.seed.evaluations <= 100
        assert report.seed.gap <= max(1e-10, gamma * abs(p[0]))
        want = np.roots(np.asarray(p, dtype=complex)[::-1])
        assert all(r.converged for r in report.roots)
        assert _matched([r.root for r in report.roots], list(want), 1e-9)
