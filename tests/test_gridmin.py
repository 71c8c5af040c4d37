import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dalembert.complexmath import norm
from dalembert.gridmin import (
    CertifiedMinimum,
    SquareRegion,
    HALF_DIAGONAL,
    _cell_lipschitz,
    _cell_radius,
    _derivative_norms,
    _first_wave,
    _search,
    certified_min,
    lipschitz_bound,
)
from dalembert.growth import growth_certificate
from dalembert.polynomial import (_horner, _noise_floor, as_poly, evaluate,
                                 evaluate_with_derivative, from_roots)
from dalembert.solver import _start
from helpers import UNITY8_DUST_FACTOR, dense_min_oracle, random_poly

QUAD = (1 + 0j, 1j, 3 + 0j)
SQRT2 = math.sqrt(2.0)


def _search_cells(p, region, epsilon, budget=1_000_000):
    """certified_min's result and the centers of the cells still live at
    its stop, as a complex array: the search's own return, _search's."""
    cm, cells, _pair = _search(as_poly(p), _norms(p), region.corner, region.side, epsilon,
                               budget)
    return cm, np.asarray(cells, complex)


def random_region(rng, max_half=2.0):
    corner = complex(rng.uniform(-max_half, 0.5), rng.uniform(-max_half, 0.5))
    return SquareRegion(corner, float(rng.uniform(0.5, 2.5)))


class TestSquareRegion:
    def test_rejects_bad_side(self):
        for side in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SquareRegion(0j, side)

    def test_rejects_an_unrepresentable_far_corner(self):
        # corner and side are finite, but corner + side overflows on an axis
        for corner in (1e308 + 1e308j, 1e308 + 0j, 1e308j):
            with pytest.raises(ValueError, match="far corner"):
                SquareRegion(corner, 1e308)
        assert SquareRegion(-1e308 - 1e308j, 1e308).center == -5e307 - 5e307j

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


class TestCertifiedMinimumRecord:
    def test_fields_are_read_only(self):
        cm = certified_min(QUAD, growth_certificate(QUAD).square, 1e-10, 50_000)
        for name in CertifiedMinimum._fields:
            with pytest.raises(AttributeError):
                setattr(cm, name, getattr(cm, name))

    def test_repr_names_every_field(self):
        cm = CertifiedMinimum(1 + 2j, 0.5, 0.25, 3)
        assert repr(cm) == ("CertifiedMinimum(argmin=(1+2j), value=0.5, gap=0.25, "
                            "evaluations=3, budget_exhausted=False)")
        assert cm._replace(budget_exhausted=True).budget_exhausted is True


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
        square = growth_certificate(QUAD).square
        cm = certified_min(QUAD, square, 1e-4)
        # a root lies inside the enclosure square, so the minimum is 0
        assert cm.value <= 1e-4
        assert cm.gap <= 1e-4

    def test_budget_exhaustion_flagged_and_still_sound(self):
        # the Newton run from the center reaches 1e-12 after 7 evaluations;
        # a budget of 5 cuts it off at |p| ~ 3e-5
        square = growth_certificate(QUAD).square
        cm = certified_min(QUAD, square, 1e-12, budget=5)
        assert cm.budget_exhausted
        assert cm.evaluations <= 5
        oracle = dense_min_oracle(QUAD, square, n=512)
        assert oracle >= cm.value - cm.gap - 1e-9

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            certified_min(QUAD, SquareRegion(0j, 1.0), 0.0)

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError):
            certified_min(QUAD, SquareRegion(0j, 1.0), math.nan)

    def test_rejects_infinite_epsilon(self):
        with pytest.raises(ValueError, match="positive and finite"):
            certified_min(QUAD, SquareRegion(0j, 1.0), math.inf)

    def test_rejects_bad_budget(self):
        for budget in (0, -5, 2.5, 3.0, math.nan):
            with pytest.raises(ValueError):
                certified_min(QUAD, SquareRegion(0j, 1.0), 1e-6, budget=budget)

    def test_rejects_bool_budget(self):
        # bool is an Integral, but True is not a cell budget
        for budget in (True, False):
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

    def test_later_tie_keeps_the_earlier_incumbent(self):
        # z (z - (0.5+0.5i)) is 0 at the center and at the last center of the
        # first wave; the update's strict < keeps the center
        cm = certified_min((0, -(0.5 + 0.5j), 1), SquareRegion(complex(-1, -1), 2.0), 1e-6)
        assert cm.argmin == 0j
        assert cm.value == 0.0

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

    def test_against_dense_oracle(self):
        # the true minimum m lies in [value - gap, value], and a dense grid
        # sample is never below m
        square = growth_certificate(QUAD).square
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
        square = growth_certificate(QUAD).square
        a = certified_min(QUAD, square, 1e-8)
        b = certified_min(QUAD, square, 1e-8)
        assert a == b


# a fixed degree-8 polynomial, coefficients uniform in the unit box
DEG8 = (0.395 + 0.887j, -0.372 - 0.193j, -0.758 - 0.636j, -0.353 + 0.721j, 0.862 + 0.814j,
        0.579 - 0.397j, -0.98 - 0.29j, -0.602 + 0.507j, -0.414 - 0.463j)
# the enclosure squares of QUAD and DEG8 (growth_certificate(p).square)
QUAD_SQUARE = SquareRegion(complex(-1.3333333333333333, -1.3333333333333333), 2.6666666666666665)
DEG8_SQUARE = SquareRegion(complex(-30.54187007015051, -30.54187007015051), 61.08374014030102)


class TestGoldenOutputs:
    """The search's exact output bits: a rewrite of the loop must keep every
    float, count and live cell (cells hashed as little-endian complex128)."""

    @pytest.mark.parametrize(
        "p, region, epsilon, budget, argmin, value, gap, evaluations, exhausted, cells",
        [
            # the Newton run from the center reaches a root within the first
            # wave, whose one cell is left live
            (QUAD, QUAD_SQUARE, 1e-6, 1_000_000,
             ("0x0.0p+0", "0x1.bcae45b2c77efp-2"),
             "0x0.0p+0", "0x0.0p+0", 8, False,
             "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
            (DEG8, DEG8_SQUARE, 1e-6, 50_000,
             ("0x1.14ff7e20383a2p-1", "0x1.e05987d9b4ac2p-2"),
             "0x1.0000000000000p-53", "0x1.0000000000000p-53", 11, False,
             "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
            # a square with no root, whose minimum 2.06 sits at its corner
            # 0.5 + 0.5i: stopped by its budget after eight waves, part way
            # through a Newton run
            (QUAD, SquareRegion(0.5 + 0.5j, 1.0), 1e-12, 100,
             ("0x1.000000000696dp-1", "0x1.0125209d50f49p-1"),
             "0x1.086fe02bfee96p+1", "0x1.05f67593cd300p-7", 100, True,
             "8b331ff24b6a2574b69639709568a10871006f3699232c0aff33444ba8fa3b36"),
        ],
        ids=["quad", "deg8", "budget"],
    )
    def test_pinned(self, p, region, epsilon, budget, argmin, value, gap, evaluations,
                    exhausted, cells):
        cm, live = _search_cells(p, region, epsilon, budget)
        assert cm == certified_min(p, region, epsilon, budget)
        assert (cm.argmin.real.hex(), cm.argmin.imag.hex()) == argmin
        assert cm.value.hex() == value
        assert cm.gap.hex() == gap
        assert cm.evaluations == evaluations
        assert cm.budget_exhausted is exhausted
        assert hashlib.sha256(live.astype("<c16").tobytes()).hexdigest() == cells


def _live_side(cells, region):
    """Side of the live cells: they all come from one wave, so their centers
    sit at odd multiples of half the side from the region's corner."""
    offsets = np.concatenate([cells.real - region.corner.real, cells.imag - region.corner.imag])
    for wave in range(64):
        side = region.side / 2.0**wave
        odd = offsets / (side / 2.0)
        if np.all(np.abs(odd - np.round(odd)) <= 1e-3) and np.all(np.round(odd) % 2 == 1):
            return side
    raise AssertionError("live cell centers lie on no wave's grid")


class TestLiveCells:
    def test_every_root_lies_in_a_live_cell(self):
        rng = np.random.default_rng(26)
        polys = [QUAD] + [random_poly(rng, int(rng.integers(2, 9))) for _ in range(20)]
        for p in polys:
            square = growth_certificate(p).square
            _cm, cells = _search_cells(p, square, 1e-6, 50_000)
            side = _live_side(cells, square)
            for root in np.roots(np.asarray(p, dtype=complex)[::-1]):
                d = cells - root
                inside = np.maximum(np.abs(d.real), np.abs(d.imag)) <= side / 2.0 * (1 + 1e-9)
                assert inside.any(), (p, root)

    def test_constant_leaves_no_live_cell(self):
        _cm, cells = _search_cells((7,), SquareRegion(0j, 1.0), 1e-6)
        assert cells.size == 0


def _in_live_cell(root, cells, side):
    d = cells - root
    return bool((np.maximum(np.abs(d.real), np.abs(d.imag)) <= side / 2.0 * (1 + 1e-9)).any())


def _stop_rule_cases():
    rng = np.random.default_rng(27)
    unit3 = np.exp(2j * np.pi * np.arange(3) / 3)
    # three roots within 1e-3 of 1, three on |z| = 1/2
    cluster = list(1 + 1e-3 * unit3) + list(0.5 * unit3 * np.exp(1j * np.pi / 3))
    cases = [("quad", QUAD, None), ("(z-1)^4", from_roots(1.0, [1.0] * 4), [1.0] * 4),
             ("cluster3+3", from_roots(1.0, cluster), cluster)]
    cases += [(f"rand{i}", random_poly(rng, int(rng.integers(2, 13))), None) for i in range(20)]
    return cases


# four roots within 1e-3 of 1, eight on |z| = 1/2
_CLUSTER4_8 = (list(1 + 1e-3 * np.exp(2j * np.pi * np.arange(4) / 4))
               + list(0.5 * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)))


def _recorded_tries(monkeypatch) -> list:
    """The list that each later (z, (p(z), p'(z))) the search evaluates in
    scalar arithmetic is appended to: its first wave's center, its Newton
    tries and its waves' best cells."""
    import dalembert.gridmin

    original, tries = dalembert.gridmin.evaluate_with_derivative, []

    def recording(p, z):
        pair = original(p, z)
        tries.append((z, pair))
        return pair

    monkeypatch.setattr(dalembert.gridmin, "evaluate_with_derivative", recording)
    return tries


def _numpy_poly(roots) -> tuple:
    """The monic polynomial with these roots, a0 first, from numpy.poly as
    the benchmark builds it."""
    return tuple(complex(c) for c in np.poly(np.asarray(roots, dtype=complex))[::-1])


class TestStopRules:
    """The search stops once value - max(0, lowest lower bound) <= epsilon,
    with a Newton step from the incumbent each wave; the certificate must
    still bracket the minimum and keep every root in a live cell."""

    @pytest.mark.parametrize("epsilon, budget", [(1e-6, 50_000), (1e-10, 50_000), (1e-10, 300)])
    def test_certificate_brackets_the_oracle(self, epsilon, budget):
        for label, p, roots in _stop_rule_cases():
            square = growth_certificate(p).square
            cm, cells = _search_cells(p, square, epsilon, budget)
            coeffs = np.asarray(p, dtype=complex)[::-1]
            if roots is None:
                roots = np.roots(coeffs)
            # the minimum over the square is at most |p| at any oracle root
            # and at any dense grid point, and it is never below value - gap
            at_roots = np.abs(np.polyval(coeffs, np.asarray(roots))).max()
            oracle = min(at_roots, dense_min_oracle(p, square, n=128))
            assert cm.value - cm.gap <= oracle + 1e-12, label
            assert cm.gap >= 0.0, label
            assert square.contains(cm.argmin), label
            assert cm.value == pytest.approx(abs(np.polyval(coeffs, cm.argmin)), rel=1e-6,
                                             abs=1e-14), label
            assert cm.evaluations <= budget, label
            assert cm.budget_exhausted or cm.gap <= epsilon, label
            side = _live_side(cells, square)
            for root in roots:
                assert _in_live_cell(root, cells, side), (label, root)

    def test_quad_seed_search_takes_few_waves(self, monkeypatch):
        # bisection alone runs 38 waves to a 1e-10 gap (lower bounds near a
        # root are negative); with the floor at 0 and the Newton incumbent
        # the value meets epsilon after 7
        import dalembert.gridmin

        waves = []
        original = dalembert.gridmin._cell_radius

        def counting(centers, side):
            waves.append(side)
            return original(centers, side)

        monkeypatch.setattr(dalembert.gridmin, "_cell_radius", counting)
        cm = certified_min(QUAD, QUAD_SQUARE, 1e-10, 50_000)
        assert cm.value <= 1e-10
        assert not cm.budget_exhausted
        assert len(waves) <= 10

    @pytest.mark.parametrize("roots", [[1.0] * 3, [1.0] * 4, [1.0] * 5, _CLUSTER4_8],
                             ids=["(z-1)^3", "(z-1)^4", "(z-1)^5", "cluster4+8"])
    def test_multiple_roots_close_their_gap(self, roots):
        # one damped Newton step per wave converges only linearly at a
        # multiple root, and these searches ran to their 50k budget; run to
        # the noise floor, the steps close the gap within a few hundred
        p = from_roots(1.0, roots)
        square = growth_certificate(p).square
        cm, cells = _search_cells(p, square, 1e-10, 50_000)
        assert not cm.budget_exhausted
        assert cm.gap <= 1e-10
        assert cm.evaluations <= 1_000
        side = _live_side(cells, square)
        for root in roots:
            assert _in_live_cell(root, cells, side), root

    # coefficients from numpy.poly, as the benchmark builds them; the search
    # before the full-step rule took 36 and 79 evaluations, and before the
    # multiplicity-scaled tries 34 and 23
    @pytest.mark.parametrize("roots, most", [([1.0] * 5, 34), (_CLUSTER4_8, 12)],
                             ids=["(z-1)^5", "cluster4+8"])
    def test_newton_halving_stops_at_the_noise_floor(self, monkeypatch, roots, most):
        # as in the descent, a try that does not lower |p| is halved while
        # the halved try's gain s |p| is at or above the noise floor at the
        # point, and the run stops once it is below; epsilon plays no part
        tries = _recorded_tries(monkeypatch)
        p = _numpy_poly(roots)
        cm = certified_min(p, growth_certificate(p).square, 1e-10, 50_000)
        assert cm.value <= 1e-10 and not cm.budget_exhausted
        # the search stops after its first wave, so the tries are the
        # center and one Newton run from there
        assert len(tries) == cm.evaluations <= most
        floor = _noise_floor(_norms(p))
        (z, (val, der)), halved = tries[0], None
        for w, pair in tries[1:]:
            s = abs((z - w) / (val / der))
            if halved is not None:
                # the try before, from z, was rejected, and the run went on
                assert halved * abs(val) >= floor(z), (halved, z)
                assert s == pytest.approx(halved, rel=1e-9)
            if abs(pair[0]) < abs(val):
                (z, (val, der)), halved = (w, pair), None
            else:
                halved = s / 2.0
        # the run ends on a rejected try whose halving would gain too little
        assert halved is not None and halved * abs(val) < floor(z)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="full Newton tries from a point at the noise floor are still "
                              "spent, and can be accepted (ROADMAP item 7)")
    def test_no_try_starts_at_the_noise_floor(self, monkeypatch):
        # a computed |p| at or below the floor says nothing, so no try from
        # there can show a gain; today (z-1)^5 spends 1 such try, and
        # cluster4+8 spends 2 and accepts 1 of them
        tries = _recorded_tries(monkeypatch)
        at_floor = []
        for roots in ([1.0] * 5, _CLUSTER4_8):
            p = _numpy_poly(roots)
            tries.clear()
            certified_min(p, growth_certificate(p).square, 1e-10, 50_000)
            floor = _noise_floor(_norms(p))
            z, (val, _der) = tries[0]
            for w, pair in tries[1:]:
                if abs(val) <= floor(z):
                    at_floor.append((roots, w))
                if abs(pair[0]) < abs(val):
                    z, (val, _der) = w, pair
        assert at_floor == []

    def test_result_does_not_depend_on_epsilon_once_both_gaps_are_met(self):
        # the Newton runs read no epsilon, so a search whose gap at 1e-6 is
        # already within 1e-12 stops where the search at 1e-12 does
        rng = np.random.default_rng(32)
        polys = [random_poly(rng, int(rng.integers(2, 13))) for _ in range(100)]
        polys += [from_roots(1.0, [1.0] * k) for k in range(2, 6)]
        polys += [from_roots(1.0, _CLUSTER4_8)]
        compared = 0
        for p in polys:
            square = growth_certificate(p).square
            loose = certified_min(p, square, 1e-6, 50_000)
            tight = certified_min(p, square, 1e-12, 50_000)
            if loose.gap <= 1e-12 and tight.gap <= 1e-12:
                assert loose == tight, p
                compared += 1
        assert compared >= 100

    def test_newton_try_is_counted_and_kept_in_the_region(self):
        # a budget of 2 is the center and one Newton try from it
        for p, region in ((QUAD, QUAD_SQUARE), (DEG8, DEG8_SQUARE), (QUAD, SquareRegion(1 + 1j, 0.5))):
            cm = certified_min(p, region, 1e-12, budget=2)
            assert cm.evaluations <= 2
            assert region.contains(cm.argmin)
            at_center = abs(np.polyval(np.asarray(p, dtype=complex)[::-1], region.center))
            assert cm.value <= at_center * (1 + 1e-12)

    def test_newton_try_is_damped(self):
        # from the center 0 of 1 + z + 2z^4 the full Newton step -1 raises
        # |p| from 1 to 2; the half step -1/2 lowers it to 5/8
        p, region = (1, 1, 0, 0, 2), SquareRegion(-2 - 2j, 4.0)
        cm = certified_min(p, region, 1e-12, budget=3)
        assert (cm.argmin, cm.value, cm.evaluations) == (-0.5 + 0j, 0.625, 3)
        # each try costs one evaluation and stays within the budget
        cm = certified_min(p, region, 1e-12, budget=2)
        assert (cm.argmin, cm.value, cm.evaluations) == (0j, 1.0, 2)
        cm = certified_min(p, region, 1e-6, 50_000)
        assert cm.value <= 1e-6
        assert not cm.budget_exhausted

    def test_few_tries_near_an_incumbent_at_0(self, monkeypatch):
        # the z^8 - 1 dust factor from the center 0 of its square: the
        # halving used to run on to the try that rounds back to 0, and 2,083
        # of the search's 2,193 evaluations were tries within 1e-10 of 0;
        # the noise floor stops it after 45, 1 of them that near
        tries = _recorded_tries(monkeypatch)
        cm = certified_min(UNITY8_DUST_FACTOR, SquareRegion(-1 - 1j, 2.0), 1e-10)
        assert sum(abs(z) < 1e-10 for z, _pair in tries) < 100
        assert cm.evaluations <= 100


class TestNonFinite:
    """Horner overflow: a NaN value never wins, a non-finite lower bound never
    prunes its cell."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_wilkinson20_over_its_growth_square(self):
        # the square growth_certificate gives Wilkinson-20 today, passed
        # explicitly so that a tighter enclosure cannot hide the overflow;
        # |p| overflows over most of it
        p = from_roots(1.0, range(1, 21))
        half = float.fromhex("0x1.deea03e6b5783p+68")  # 5.52e20
        region = SquareRegion(complex(-half, -half), 2.0 * half)
        cm, cells = _search_cells(p, region, 1e-6, 20_000)
        # the roots 1..20 lie in the square, so the minimum is 0; the Newton
        # run from the center reaches a root, which closes the gap
        assert cm.value - cm.gap <= 0.0
        assert math.isfinite(cm.value)
        assert not cm.budget_exhausted
        assert cm.gap <= 1e-6
        assert cm.evaluations <= 20_000
        assert region.contains(cm.argmin)
        side = _live_side(cells, region)
        for root in range(1, 21):
            assert _in_live_cell(root, cells, side), root

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_center_does_not_block_finite_values(self):
        # 1 + z^40 is NaN at the center 1e9 + 1e9i (Horner overflows to
        # inf, then inf * z is NaN) and finite near the corner 0
        p = (1,) + (0,) * 39 + (1,)
        region = SquareRegion(0j, 2e9)
        with np.errstate(all="ignore"):
            assert math.isnan(abs(np.polyval(np.asarray(p, dtype=complex)[::-1], region.center)))
        cm = certified_min(p, region, 1e-6, 20_000)
        assert math.isfinite(cm.value)
        assert cm.argmin != region.center
        assert region.contains(cm.argmin)
        assert cm.value - cm.gap <= 0.0  # the root e^(i pi/40) is in the square

    def test_an_overflowing_cell_radius_bounds_nothing(self):
        # the square's largest |z| is about 1.9e308, past the largest float:
        # the bound is inf, not 0 * inf = NaN, and the one cell's lower bound
        # is -inf, so the gap is the whole (finite) value
        square = SquareRegion(complex(1.3e308, 1.3e308), 1e307)
        p = (1e-300, 1e-300)
        assert lipschitz_bound(p, square) == math.inf
        with pytest.warns(RuntimeWarning):
            cm = certified_min(p, square, 1e-6, budget=1)
        assert math.isfinite(cm.value) and cm.value > 1e8
        assert cm.gap == cm.value


def _numpy_horner(coeffs, xs):
    """Horner's rule as numpy's in-place loop over an array of points."""
    coeffs = np.asarray(coeffs)
    acc = np.zeros(np.shape(xs), dtype=np.result_type(coeffs, xs))
    for c in coeffs[::-1]:
        acc *= xs
        acc += c
    return acc


# the shape of the one-cell array that TestOnePointHorner compares against
_ONE_CELL = pytest.mark.parametrize("shape", [(1,)], ids=["shape1"])


class TestOnePointHorner:
    """certified_min's first wave, the region's center alone, runs in
    scalar arithmetic (_first_wave): its |p| and lower bound must equal,
    bit for bit, what the numpy wave of later waves computes over that one
    cell, held as a wave holds its cells, in a 1-d array.

    Every |.| on both sides is C's hypot (norm, and np.hypot of the
    parts), so the one property of the installed numpy and CPU that these
    tests assert is that numpy's complex multiply in the Horner loop rounds
    like CPython's on a one-element array: it does with numpy 2.4 on x86-64
    (on longer arrays it can round otherwise).  A failure on another
    platform points there, and _first_wave must then be restricted or
    removed on it.  The overflow cases pin that the scalar wave reports an
    overflow with a RuntimeWarning, as numpy's loops do."""

    POINTS = [0j, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0),
              -1.5 + 0j, complex(2.0, -0.0), 0.3 - 0.7j]

    @_ONE_CELL
    def test_complex_coefficients_match_numpy(self, shape):
        rng = np.random.default_rng(12)
        for degree in range(-1, 61):
            p = random_poly(rng, degree) if degree >= 0 else ()
            # signed zero coefficients, and a zero leading one
            p = tuple(complex(-0.0, c.imag) if i % 7 == 3 else c for i, c in enumerate(p))
            for z in self.POINTS + [complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(5)]:
                side = float(rng.uniform(0.01, 4.0))
                assert _scalar_wave(p, z, side) == _numpy_wave(p, z, side, shape), (degree, z)

    @_ONE_CELL
    def test_signed_zeros_match_numpy(self, shape):
        zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        for n in range(1, 4):
            for combo in itertools.product(zeros, repeat=n):
                for z in self.POINTS:
                    assert _scalar_wave(combo, z, 1.0) == _numpy_wave(combo, z, 1.0, shape), (combo, z)

    @_ONE_CELL
    def test_derivative_norms_match_numpy(self, shape):
        # the lower bound's Lipschitz constant alone, over wide radii
        rng = np.random.default_rng(13)
        for degree in range(0, 61):
            p = random_poly(rng, degree)
            norms = _norms(p)
            dnorm = _derivative_norms(norms)
            for center in self.POINTS + [complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(5)]:
                side = float(rng.choice([1e-9, 1e-3, 1.0, 4.0, 1e3]) * rng.uniform(0.5, 1.0))
                want = _numpy_horner(dnorm, _cell_radius(np.full(shape, center), side)).item()
                assert _bits(_cell_lipschitz(dnorm, center, side)) == _bits(want), (degree, center)

    def test_numpy_scalar_point(self):
        # lipschitz_bound is the same scalar loop, and equals numpy's over
        # the numpy scalar _cell_radius returns
        dnorm = _derivative_norms(_norms(DEG8))
        r = _cell_radius(DEG8_SQUARE.center, DEG8_SQUARE.side)
        assert _bits(lipschitz_bound(DEG8, DEG8_SQUARE)) == _bits(float(_numpy_horner(dnorm, r)))
        # Wilkinson-20 over the square of the overflow test below, whose
        # radius is 7.8e20: sum i |a_i| R^(i-1) overflows, and the bound is
        # inf, without a numpy loop or its warning
        region = SquareRegion(complex(-5.52e20, -5.52e20), 1.104e21)
        assert lipschitz_bound(from_roots(1.0, range(1, 21)), region) == math.inf

    @_ONE_CELL
    @pytest.mark.parametrize(
        "p, region, check",
        [
            # Wilkinson-20 over its growth square, whose cell radius is
            # 7.8e20: sum i |a_i| r^(i-1) overflows to inf, so the lower
            # bound is -inf
            (from_roots(1.0, range(1, 21)),
             SquareRegion(complex(-5.52e20, -5.52e20), 1.104e21),
             lambda value, lower: math.isfinite(value) and lower == -math.inf),
            # 1 + z^40 at 1e9 + 1e9i: Horner overflows to inf, then inf * z
            # is NaN, which never wins: the value is inf
            ((1,) + (0,) * 39 + (1,), SquareRegion(0j, 2e9),
             lambda value, lower: value == math.inf and lower == -math.inf),
        ],
        ids=["wilkinson20-dnorm", "1+z^40"],
    )
    def test_overflow_is_reported(self, shape, p, region, check):
        # the scalar wave warns as numpy's loops do, and its value, gap and
        # evaluations are theirs
        with pytest.warns(RuntimeWarning):
            cm = certified_min(p, region, 1e-6, budget=1)
        with np.errstate(all="ignore"):
            value, lower = _numpy_wave(p, region.center, region.side, shape)
        assert check(float.fromhex(value), float.fromhex(lower))
        assert (_bits(cm.value), _bits(cm.gap), cm.evaluations) == (
            value, _bits(float.fromhex(value) - max(0.0, float.fromhex(lower))), 1)

    @pytest.mark.parametrize("p", [QUAD, from_roots(1.0, [1.0] * 5),
                                   random_poly(np.random.default_rng(60), 60)],
                             ids=["quad", "(z-1)^5", "random60"])
    def test_a_first_wave_stop_runs_no_numpy_loop(self, monkeypatch, p):
        # the seed search of find_root on these stops in its first wave,
        # which then evaluates nothing with _horner over an array or with
        # _cell_radius and takes no numpy absolute value
        import dalembert.gridmin

        calls = []

        def probe(name, f):
            def wrapped(*args):
                # _horner over a float is the first wave's scalar bound
                if name != "_horner" or isinstance(args[1], np.ndarray):
                    calls.append(name)
                return f(*args)
            return wrapped

        for module, name in [(dalembert.gridmin, "_horner"), (dalembert.gridmin, "_cell_radius"),
                             (np, "abs"), (np, "hypot")]:
            monkeypatch.setattr(module, name, probe(name, getattr(module, name)))
        square = growth_certificate(p).square
        cm, cells = _search_cells(p, square, 1e-10, 50_000)
        assert calls == []
        assert cells.tolist() == [square.center]  # the first wave's one cell
        assert cm.gap <= 1e-10 and not cm.budget_exhausted


def _raw(x) -> tuple:
    """dtype, shape and bytes of an array or number: equal only bit for bit."""
    a = np.asarray(x)
    return a.dtype, a.shape, a.tobytes()


class TestHornerLoop:
    """The waves run polynomial._horner, the library's plain Horner loop,
    over arrays of cells and of their radii.  It must give the bits of
    _numpy_horner, numpy's in-place loop, which TestOnePointHorner holds
    the scalar first wave to, on every array length a wave can have and on
    one cell.  Not on 0-d arrays: numpy makes every product of one an
    out-of-place product, which can round otherwise (numpy 2.4 on x86-64),
    and no wave holds one."""

    @pytest.mark.parametrize("size", [1, 4, 1000])
    def test_complex_cells_match_the_in_place_loop(self, size):
        rng = np.random.default_rng(14)
        for degree in range(0, 61):
            p = random_poly(rng, degree)
            # signed zero coefficients, as in TestOnePointHorner
            p = tuple(complex(-0.0, c.imag) if i % 7 == 3 else c for i, c in enumerate(p))
            cells = rng.uniform(-2.0, 2.0, size) + 1j * rng.uniform(-2.0, 2.0, size)
            assert _raw(_horner(p, cells)) == _raw(_numpy_horner(p, cells)), degree

    def test_signed_zeros_match_the_in_place_loop(self):
        zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        points = np.array(TestOnePointHorner.POINTS)
        for n in range(1, 4):
            for combo in itertools.product(zeros, repeat=n):
                for cells in [points] + [points[i:i + 1] for i in range(points.size)]:
                    assert _raw(_horner(combo, cells)) == _raw(_numpy_horner(combo, cells)), combo

    @pytest.mark.parametrize("size", [1, 4])
    def test_an_overflowing_cell_matches_the_in_place_loop(self, size):
        # 1 + z^40 at 1e9 + 1e9i: Horner overflows to inf, then inf * z is NaN
        p = (1,) + (0,) * 39 + (1,)
        cells = np.array([1e9 + 1e9j, 0.5j, -0.25 + 0j, 1 - 1j][:size])
        with np.errstate(all="ignore"):
            got, want = _horner(p, cells), _numpy_horner(p, cells)
        assert math.isnan(abs(got[0]))
        assert _raw(got) == _raw(want)

    def test_radii_match_the_scalar_loop(self):
        # the real bound sum i |a_i| r^(i-1) over an array of radii is, cell
        # by cell, the scalar call at each radius, overflow to inf included
        rng = np.random.default_rng(15)
        for degree in range(1, 61):
            dnorm = _derivative_norms(_norms(random_poly(rng, degree)))
            radii = np.concatenate([rng.uniform(0.0, 4.0, 50), [0.0, 1e-300, 1e300, 1e308]])
            with np.errstate(over="ignore"):
                wave = _horner(dnorm, radii)
            for r, got in zip(radii.tolist(), wave.tolist()):
                assert _bits(got) == _bits(_horner(dnorm, r)), (degree, r)


def _random_searches(count):
    """count seeded (p, region, epsilon, budget) draws on small squares,
    from a degree, coefficients, corner, side, epsilon and budget in turn."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        n = int(rng.integers(3, 13))
        p = tuple(complex(re, im) for re, im in rng.uniform(-1, 1, (n + 1, 2)))
        corner = complex(*rng.uniform(-2, 2, 2))
        side = float(rng.uniform(0.05, 1.5))
        epsilon = 10 ** rng.uniform(-14, -6)
        yield p, SquareRegion(corner, side), epsilon, int(rng.integers(20, 3000))


class TestReportedValue:
    """numpy ranks and prunes the cells of the later waves, but every |p|
    the search reports is the scalar Horner loop's, taken once per point."""

    def test_value_is_the_scalar_norm_at_argmin(self):
        for p, region, epsilon, budget in _random_searches(300):
            cm = certified_min(p, region, epsilon, budget)
            assert _bits(cm.value) == _bits(norm(evaluate(p, cm.argmin)))

    def test_argmin_is_evaluated_once(self, monkeypatch):
        import dalembert.gridmin

        original = dalembert.gridmin.evaluate_with_derivative
        for p, region, epsilon, budget in _random_searches(300):
            calls = []
            monkeypatch.setattr(dalembert.gridmin, "evaluate_with_derivative",
                                lambda q, z: calls.append(z) or original(q, z))
            cm = certified_min(p, region, epsilon, budget)
            assert calls.count(cm.argmin) == 1

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="cells split below the float resolution of their centers "
                              "(ROADMAP item 8)")
    def test_no_wave_evaluates_a_center_twice(self, monkeypatch):
        # draw 1024: its last four waves hold 16, 64, 256 and 1,024 cells
        # whose side/4 is below the ulp of their centers, so the children
        # round onto their parent's center; today 1,362 of its 1,584 wave
        # cells repeat a center of their wave
        import dalembert.gridmin

        p, region, epsilon, budget = list(_random_searches(1025))[1024]
        original, waves = dalembert.gridmin._horner, []

        def recording(coeffs, x):
            # the complex arrays are the waves' centers; the real ones their radii
            if isinstance(x, np.ndarray) and x.dtype == complex:
                waves.append(x.tolist())
            return original(coeffs, x)

        monkeypatch.setattr(dalembert.gridmin, "_horner", recording)
        certified_min(p, region, epsilon, budget)
        assert all(len(set(w)) == len(w) for w in waves)


def _bits(x: float) -> str:
    return float(x).hex()


def _norms(p) -> list:
    return [norm(c) for c in as_poly(p)]


def _scalar_wave(p, center, side):
    """|p| and the lower bound of _first_wave, as hex strings."""
    _pair, value, lower = _first_wave(as_poly(p), _derivative_norms(_norms(p)), center, side)
    return _bits(value), _bits(lower)


def _numpy_wave(p, center, side, shape):
    """|p| and the lower bound of certified_min's numpy wave over the one
    cell at center, held in an array of the given shape, as hex strings."""
    coeffs = np.asarray(p, dtype=complex)
    cells = np.full(shape, center)
    h = _numpy_horner(coeffs, cells)
    vals = np.hypot(h.real, h.imag)
    lower = vals - _numpy_horner(_derivative_norms(_norms(p)), _cell_radius(cells, side)) * (
        HALF_DIAGONAL * side)
    vals = np.where(np.isnan(vals), np.inf, vals)
    lower = np.where(np.isfinite(lower), lower, -np.inf)
    return _bits(vals.item()), _bits(lower.item())


_PART = st.floats(-10.0, 10.0, allow_nan=False)
_COMPLEX = st.builds(complex, _PART, _PART)
_REAL = st.builds(complex, _PART)


class TestStart:
    """Without one usable live cell a factor starts on the circle |z| =
    beta, beta = 1/2 min_{k>=1} (|a_0| / |a_k|)^(1/k), which no root lies
    inside: Fujiwara's bound on the reversed polynomial."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(_COMPLEX, min_size=2, max_size=13),
        st.lists(st.one_of(st.just(0j), _COMPLEX), min_size=2, max_size=13),
        st.lists(st.one_of(st.just(0j), _REAL), min_size=2, max_size=13),
    ))
    def test_no_root_lies_inside_the_start_circle(self, coeffs):
        assume(abs(coeffs[0]) >= 1e-3 and abs(coeffs[-1]) >= 1e-3)
        q = tuple(coeffs)
        z0, pair = _start(q, [norm(c) for c in q], ())
        assert pair == evaluate_with_derivative(q, z0)
        roots = np.roots(np.asarray(q, dtype=complex)[::-1])
        assert np.abs(roots).min() >= abs(z0) * (1 - 1e-9)

    def test_one_cell_is_the_start_where_the_factor_is_finite(self):
        z0, pair = _start(QUAD, [norm(c) for c in QUAD], (0.25 + 0.5j,))
        assert (z0, pair) == (0.25 + 0.5j, evaluate_with_derivative(QUAD, 0.25 + 0.5j))
        # two cells, or one where |p| overflows, are no start
        beta = 0.5 * min(1.0, (1.0 / 3.0) ** 0.5)
        for cells in ((0.25 + 0.5j, 0j), (1e200 + 0j,)):
            z0 = _start(QUAD, [norm(c) for c in QUAD], cells)[0]
            assert abs(abs(z0) - beta) <= 1e-15
