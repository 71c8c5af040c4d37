import hashlib
import math

import numpy as np
import pytest

from dalembert.gridmin import CertifiedMinimum, SquareRegion, certified_min, lipschitz_bound
from dalembert.growth import minimum_enclosing_square
from dalembert.polynomial import from_roots
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


# a fixed degree-8 polynomial, coefficients uniform in the unit box
DEG8 = (0.395 + 0.887j, -0.372 - 0.193j, -0.758 - 0.636j, -0.353 + 0.721j, 0.862 + 0.814j,
        0.579 - 0.397j, -0.98 - 0.29j, -0.602 + 0.507j, -0.414 - 0.463j)
# the enclosure squares of QUAD and DEG8 (minimum_enclosing_square)
QUAD_SQUARE = SquareRegion(complex(-1.3333333333333333, -1.3333333333333333), 2.6666666666666665)
DEG8_SQUARE = SquareRegion(complex(-30.54187007015051, -30.54187007015051), 61.08374014030102)


class TestGoldenOutputs:
    """The search's exact output bits: a rewrite of the loop must keep every
    float, count and live cell (cells hashed as little-endian complex128)."""

    @pytest.mark.parametrize(
        "p, region, epsilon, budget, argmin, value, gap, evaluations, exhausted, cells",
        [
            (QUAD, QUAD_SQUARE, 1e-6, 1_000_000,
             ("-0x1.2f0d2afd45800p-23", "0x1.bcae3e55f296fp-2"),
             "0x1.5a01fc0b99a41p-21", "0x1.5a01fc0b99a41p-21", 147, False,
             "b6d179708bb85bc25da38be5b0970f6dd9b3f70f78fffc6d710661aef0b3d332"),
            (DEG8, DEG8_SQUARE, 1e-6, 50_000,
             ("0x1.14ff80e89b58cp-1", "0x1.e05986232ed9ap-2"),
             "0x1.14da604196aa7p-22", "0x1.14da604196aa7p-22", 5130, False,
             "d6a257701080761e30d6c97ce78e05868d89948156989703aaa2c6acf8382f51"),
            # stopped by its budget, after a wave that spends it exactly and
            # leaves nothing for that wave's Newton try
            (QUAD, QUAD_SQUARE, 1e-12, 121,
             ("-0x1.4141414141410p-6", "0x1.afafafafafafbp-2"),
             "0x1.5555555555550p-4", "0x1.5555555555550p-4", 121, True,
             "a1fa02f84573b2cb5ce66e8ce96adeb9da521a8f0cfcb6a91324315d0404bfa2"),
        ],
        ids=["quad", "deg8", "budget"],
    )
    def test_pinned(self, p, region, epsilon, budget, argmin, value, gap, evaluations,
                    exhausted, cells):
        cm = certified_min(p, region, epsilon, budget)
        assert (cm.argmin.real.hex(), cm.argmin.imag.hex()) == argmin
        assert cm.value.hex() == value
        assert cm.gap.hex() == gap
        assert cm.evaluations == evaluations
        assert cm.budget_exhausted is exhausted
        assert hashlib.sha256(cm.cells.astype("<c16").tobytes()).hexdigest() == cells


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
            square = minimum_enclosing_square(p)
            cm = certified_min(p, square, 1e-6, 50_000)
            side = _live_side(cm.cells, square)
            for root in np.roots(np.asarray(p, dtype=complex)[::-1]):
                d = cm.cells - root
                inside = np.maximum(np.abs(d.real), np.abs(d.imag)) <= side / 2.0 * (1 + 1e-9)
                assert inside.any(), (p, root)

    def test_cells_are_read_only_and_not_compared(self):
        square = minimum_enclosing_square(QUAD)
        cm = certified_min(QUAD, square, 1e-10, 50_000)
        assert cm.cells.size > 0
        assert not cm.cells.flags.writeable
        with pytest.raises(ValueError):
            cm.cells[0] = 0j
        bare = CertifiedMinimum(cm.argmin, cm.value, cm.gap, cm.evaluations, cm.budget_exhausted)
        assert bare == cm
        assert hash(bare) == hash(cm)
        assert repr(bare) == repr(cm)
        assert bare.cells.size == 0

    def test_constant_leaves_no_live_cell(self):
        cm = certified_min((7,), SquareRegion(0j, 1.0), 1e-6)
        assert cm.cells.size == 0


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


class TestStopRules:
    """The search stops once value - max(0, lowest lower bound) <= epsilon,
    with a Newton step from the incumbent each wave; the certificate must
    still bracket the minimum and keep every root in a live cell."""

    @pytest.mark.parametrize("epsilon, budget", [(1e-6, 50_000), (1e-10, 50_000), (1e-10, 300)])
    def test_certificate_brackets_the_oracle(self, epsilon, budget):
        for label, p, roots in _stop_rule_cases():
            square = minimum_enclosing_square(p)
            cm = certified_min(p, square, epsilon, budget)
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
            side = _live_side(cm.cells, square)
            for root in roots:
                assert _in_live_cell(root, cm.cells, side), (label, root)

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

    def test_newton_try_is_counted_and_kept_in_the_region(self):
        # a budget of 2 is the center and one Newton try from it
        for p, region in ((QUAD, QUAD_SQUARE), (DEG8, DEG8_SQUARE), (QUAD, SquareRegion(1 + 1j, 0.5))):
            cm = certified_min(p, region, 1e-12, budget=2)
            assert cm.evaluations <= 2
            assert region.contains(cm.argmin)
            at_center = abs(np.polyval(np.asarray(p, dtype=complex)[::-1], region.center))
            assert cm.value <= at_center * (1 + 1e-12)


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
        cm = certified_min(p, region, 1e-6, 20_000)
        # the roots 1..20 lie in the square, so the minimum is 0
        assert cm.value - cm.gap <= 0.0
        assert math.isfinite(cm.value)
        assert cm.budget_exhausted
        assert cm.evaluations <= 20_000
        assert region.contains(cm.argmin)
        side = _live_side(cm.cells, region)
        for root in range(1, 21):
            assert _in_live_cell(root, cm.cells, side), root

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
