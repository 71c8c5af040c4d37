"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and timings.
Every random suite uses a fixed seed, so results are reproducible.
"""

import json
import math
import random
import time
from cmath import rect
from contextlib import contextmanager

import numpy as np

from dalembert.cli import main, parse_polynomial, serialize_polynomial
from dalembert.complexmath import norm, nth_root
from dalembert.descent import descend, descent_step
from dalembert.gridmin import SquareRegion, certified_min
from dalembert.growth import growth_certificate
from dalembert.polynomial import evaluate, max_coeff_norm
from dalembert.solver import find_all_roots, find_root
from helpers import dense_min_oracle, random_poly


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.2f}s"
    )
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s < {limit_seconds:g}s)")


def test_criterion_1_norm_laws():
    rng = random.Random(101)
    with criterion(1, "norm-laws", 1.0):
        for i in range(100_000):
            scale = 10.0 ** rng.uniform(-8.0, 8.0) if i % 4 == 0 else 1.0
            x = complex(rng.uniform(-10, 10) * scale, rng.uniform(-10, 10) * scale)
            y = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            nx, ny = norm(x), norm(y)
            product = nx * ny
            assert abs(norm(x * y) - product) <= 1e-12 * (1.0 + product)
            slack = 1e-12 * (1.0 + nx + ny)
            assert norm(x + y) <= nx + ny + slack
            assert norm(x - y) >= nx - ny - slack


def test_criterion_2_de_moivre():
    rng = random.Random(102)
    with criterion(2, "de-moivre-round-trip", 1.0):
        for _ in range(10_000):
            z = rect(10.0 ** rng.uniform(-6.0, 6.0), rng.uniform(-math.pi, math.pi))
            n = rng.randint(1, 16)
            w = nth_root(z, n) ** n
            assert norm(w - z) <= 1e-10 * norm(z)


def test_criterion_3_growth_sandwich():
    rng = np.random.default_rng(103)
    with criterion(3, "growth-sandwich", 2.0):
        for _ in range(10_000):
            p = random_poly(rng, int(rng.integers(1, 11)))
            cert = growth_certificate(p)
            radius = rng.uniform(cert.threshold_radius, 10.0 * cert.threshold_radius)
            z = rect(radius, rng.uniform(-math.pi, math.pi))
            value = norm(evaluate(p, z))
            base = cert.lead_norm * norm(z) ** cert.degree
            lower, upper = 0.5 * base, 1.5 * base
            assert lower <= value + 1e-9 * (1.0 + value)
            assert value <= upper + 1e-9 * (1.0 + upper)


def test_criterion_4_enclosure_domination():
    rng = np.random.default_rng(104)
    with criterion(4, "enclosure-domination", 2.0):
        for _ in range(10_000):
            p = random_poly(rng, int(rng.integers(1, 11)))
            cert = growth_certificate(p)
            at_origin = norm(evaluate(p, 0j))
            radius = rng.uniform(cert.enclosure_radius, 10.0 * cert.enclosure_radius)
            z = rect(radius, rng.uniform(-math.pi, math.pi))
            assert norm(evaluate(p, z)) >= at_origin - 1e-9 * (1.0 + at_origin)


def test_criterion_5_evt_certificates():
    rng = np.random.default_rng(105)
    with criterion(5, "evt-certificates", 30.0):
        for _ in range(100):
            degree = int(rng.integers(1, 7))
            coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
            p = tuple(coeffs)
            # center the region near a root so the gap target is reachable
            roots = np.roots(coeffs[::-1])
            anchor = complex(roots[int(rng.integers(0, len(roots)))])
            side = float(rng.uniform(0.6, 2.0))
            jitter = complex(rng.uniform(-side / 4, side / 4), rng.uniform(-side / 4, side / 4))
            corner = anchor + jitter - complex(side / 2, side / 2)
            region = SquareRegion(corner, side)
            cm = certified_min(p, region, epsilon=1e-9, budget=8_000_000)
            oracle = dense_min_oracle(p, region, n=512)
            assert oracle >= cm.value - cm.gap - 1e-9
            assert cm.value <= oracle + 1e-9


def test_criterion_6_descent_decrease():
    rng = np.random.default_rng(106)
    with criterion(6, "descent-decrease", 5.0):
        done = 0
        while done < 1000:
            p = random_poly(rng, int(rng.integers(1, 9)))
            z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if norm(evaluate(p, z0)) <= 1e-6:
                continue
            done += 1
            step = descent_step(p, z0)
            assert step.after < step.before
            result = descend(p, z0, tol=1e-12, max_iter=25)
            residuals = [row.residual for row in result.trace]
            assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_criterion_7_fta():
    rng = np.random.default_rng(107)
    with criterion(7, "fta-random-suite", 20.0):
        exempt = 0
        for index in range(200):
            degree = 1 + index % 10
            p = random_poly(rng, degree)
            scale = 1.0 + max_coeff_norm(p)
            result = find_root(p, tol=1e-10, max_iter=10000)
            assert result.residual <= 1e-8 * scale, (index, degree, result.residual)
            if degree <= 8:
                report = find_all_roots(p, tol=1e-10, max_iter=10000)
                assert len(report.roots) == degree
                points = [r.root for r in report.roots]
                separation = min(
                    (abs(a - b) for i, a in enumerate(points) for b in points[i + 1 :]),
                    default=math.inf,
                )
                if separation > 1e-3:
                    assert report.reconstruction_error <= 1e-6, (index, degree)
                else:
                    exempt += 1
        assert exempt <= 10  # random coefficients rarely cluster roots


def test_criterion_8_worked_example(capsys):
    with criterion(8, "worked-example", 10.0):
        p = parse_polynomial("1 1i 3")
        result = find_root(p)
        expected = (
            1j * (-1 + math.sqrt(13.0)) / 6.0,
            1j * (-1 - math.sqrt(13.0)) / 6.0,
        )
        assert result.converged
        assert min(abs(result.root - r) for r in expected) <= 1e-8

        code = main(["--mode", "bounds", "1 1i 3"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert abs(report["enclosure"]["enclosure_radius"] - 4.0 / 3.0) <= 1e-12

        code = main(["--mode", "solve", "1 1i 3"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-10


def test_criterion_9_cli_contract(capsys, monkeypatch):
    with criterion(9, "cli-contract", 10.0):
        # parse/serialize round trip is exact
        tricky = [
            (1 + 0j, 1j, 3 + 0j),
            (complex(-0.0, -0.0), complex(0.1, -0.3)),
            (complex(1e-300, 1e300), complex(-1.5e-8, 2.25)),
            (complex(5e-324, -5e-324),),
        ]
        for p in tricky:
            assert parse_polynomial(serialize_polynomial(p)) == p

        # exit code 0: converged solve
        assert main(["--mode", "solve", "1 1i 3"]) == 0
        capsys.readouterr()

        # exit code 1: errors
        assert main(["--mode", "solve", "7"]) == 1
        assert main(["1 bogus"]) == 1
        capsys.readouterr()

        # exit code 2: not converged (with a seed search of one evaluation,
        # the square's center, 1 + 2z + ... + 41 z^40 needs 21 steps; two
        # are allowed)
        import dalembert.solver

        monkeypatch.setattr(dalembert.solver, "_SEED_BUDGET", 1)
        ramp = " ".join(str(k) for k in range(1, 42))
        assert main(["--max-iter", "2", ramp]) == 2
        capsys.readouterr()

        # trace CSV schema is exact
        code = main(["--format", "csv", "--max-iter", "2", ramp])
        out = capsys.readouterr().out
        assert code == 2
        lines = out.strip().split("\n")
        assert lines[0] == "iter,re,im,residual,s,k"
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert len(fields) == 6
            assert int(fields[0]) == i
            for field in fields[1:5]:
                float(field)
            assert int(fields[5]) >= 0
