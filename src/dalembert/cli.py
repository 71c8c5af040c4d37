"""Command-line front end: parse polynomials, run the solver modes, emit reports.

Modes: solve (one root), solve-all (all roots via deflation), evt (certified
minimum over a square), bounds (growth certificate), check (replay the lemma
suites on the given polynomial).  Reports are JSON with floats printed to 17
significant digits so every double round-trips; traces are CSV with columns
iter,re,im,residual,s,k.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .checks import run_lemma_checks
from .complexmath import format_complex, parse_complex
from .descent import RootResult
from .errors import EmptyPolynomial, ParseError
from .gridmin import CertifiedMinimum, SquareRegion, certified_min
from .growth import GrowthCertificate, growth_certificate
from .polynomial import Poly
from .solver import find_all_roots, find_root

__all__ = ["CliConfig", "parse_polynomial", "serialize_polynomial", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


@dataclass(frozen=True)
class CliConfig:
    mode: str
    tol: float
    max_iter: int
    epsilon: float
    budget: int
    trace: bool
    poly_text: Optional[str]
    input_path: Optional[str]
    output_format: str
    corner: Optional[complex]
    side: Optional[float]
    seed: int

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError(f"--tol must be positive, got {self.tol}")
        if not (self.epsilon > 0):
            raise ValueError(f"--epsilon must be positive, got {self.epsilon}")
        if self.max_iter < 0:
            raise ValueError(f"--max-iter must be >= 0, got {self.max_iter}")
        if self.budget < 1:
            raise ValueError(f"--budget must be >= 1, got {self.budget}")
        if (self.poly_text is None) == (self.input_path is None):
            raise ValueError("give exactly one polynomial, inline or via --input")


def parse_polynomial(text: str) -> Poly:
    """Parse whitespace-separated complex literals (a0 first) or a JSON
    array of [re, im] pairs."""
    stripped = text.strip()
    if not stripped:
        raise EmptyPolynomial("no coefficients given")
    if stripped.startswith("["):
        return _parse_json_pairs(stripped)
    return tuple(
        parse_complex(token, i) for i, token in enumerate(stripped.split(), start=1)
    )


def _parse_json_pairs(text: str) -> Poly:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON polynomial: {exc}", 1)
    if not isinstance(data, list):
        raise ParseError("JSON polynomial must be an array of [re, im] pairs", 1)
    if not data:
        raise EmptyPolynomial("no coefficients given")
    out = []
    for i, pair in enumerate(data, start=1):
        ok = (
            isinstance(pair, list)
            and len(pair) == 2
            # bool is an int subclass, but true/false are not coefficients
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) for v in pair)
        )
        if not ok:
            raise ParseError(f"entry {i} is not a finite [re, im] pair", i)
        out.append(complex(pair[0], pair[1]))
    return tuple(out)


def serialize_polynomial(p) -> str:
    """Inverse of parse_polynomial (text form, one literal per coefficient)."""
    return " ".join(format_complex(c) for c in p)


def _float_repr(x: float) -> str:
    return format(x, ".17g")


def _to_json(value, level: int = 0) -> str:
    pad = "  " * level
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{"  " * (level + 1)}{json.dumps(key)}: {_to_json(val, level + 1)}'
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_to_json(v, level + 1) for v in value]
        flat = all(not isinstance(v, (dict, list, tuple)) for v in value)
        if flat and sum(len(s) for s in parts) < 72:
            return "[" + ", ".join(parts) + "]"
        return (
            "[\n"
            + ",\n".join("  " * (level + 1) + s for s in parts)
            + "\n" + pad + "]"
        )
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _float_repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _root_json(result: RootResult, include_trace: bool) -> dict:
    out = {
        "root": _pair(result.root),
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    if include_trace and result.trace is not None:
        out["trace"] = [
            [row.iteration, row.point.real, row.point.imag, row.residual, row.s, row.k]
            for row in result.trace
        ]
    return out


def _certificate_json(cert: GrowthCertificate) -> dict:
    return {
        "threshold_radius": cert.threshold_radius,
        "enclosure_radius": cert.enclosure_radius,
        "lead_norm": cert.lead_norm,
        "sub_max": cert.sub_max,
        "degree": cert.degree,
    }


def _minimum_json(cm: CertifiedMinimum) -> dict:
    return {
        "argmin": _pair(cm.argmin),
        "value": cm.value,
        "gap": cm.gap,
        "evaluations": cm.evaluations,
        "budget_exhausted": cm.budget_exhausted,
    }


def _trace_csv(result: RootResult) -> str:
    lines = ["iter,re,im,residual,s,k"]
    for row in result.trace or ():
        lines.append(
            f"{row.iteration},{_float_repr(row.point.real)},{_float_repr(row.point.imag)},"
            f"{_float_repr(row.residual)},{_float_repr(row.s)},{row.k}"
        )
    return "\n".join(lines) + "\n"


def _run_solve(config: CliConfig, poly: Poly) -> tuple[int, str]:
    result = find_root(poly, config.tol, config.max_iter)
    code = EXIT_OK if result.converged else EXIT_NOT_CONVERGED
    if config.output_format == "csv":
        return code, _trace_csv(result)
    return code, _to_json(_root_json(result, config.trace)) + "\n"


def _run_solve_all(config: CliConfig, poly: Poly) -> tuple[int, str]:
    report = find_all_roots(poly, config.tol, config.max_iter)
    out = {
        "roots": [_root_json(r, config.trace) for r in report.roots],
        "reconstruction_error": report.reconstruction_error,
        "enclosure": _certificate_json(report.enclosure),
        "seed": _minimum_json(report.seed),
    }
    code = EXIT_OK if all(r.converged for r in report.roots) else EXIT_NOT_CONVERGED
    return code, _to_json(out) + "\n"


def _run_evt(config: CliConfig, poly: Poly) -> tuple[int, str]:
    if config.corner is None or config.side is None:
        raise ValueError("evt mode needs --corner re,im and --side s")
    region = SquareRegion(config.corner, config.side)
    cm = certified_min(poly, region, config.epsilon, config.budget)
    code = EXIT_NOT_CONVERGED if cm.budget_exhausted else EXIT_OK
    return code, _to_json(_minimum_json(cm)) + "\n"


def _run_bounds(config: CliConfig, poly: Poly) -> tuple[int, str]:
    cert = growth_certificate(poly)
    return EXIT_OK, _to_json({"enclosure": _certificate_json(cert)}) + "\n"


def _run_check(config: CliConfig, poly: Poly) -> tuple[int, str]:
    reports = run_lemma_checks(poly, samples=1000, seed=config.seed)
    out = {
        "seed": config.seed,
        "samples": 1000,
        "lemmas": [
            {"name": r.name, "samples": r.samples, "failures": r.failures, "pass": r.passed}
            for r in reports
        ],
        "pass": all(r.passed for r in reports),
    }
    code = EXIT_OK if all(r.passed for r in reports) else EXIT_ERROR
    return code, _to_json(out) + "\n"


_MODES = {
    "solve": _run_solve,
    "solve-all": _run_solve_all,
    "evt": _run_evt,
    "bounds": _run_bounds,
    "check": _run_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dalembert",
        description="Certified complex-polynomial root finding by norm descent.",
    )
    parser.add_argument("poly", nargs="?", help="inline polynomial, e.g. '1 1i 3'")
    parser.add_argument("--input", metavar="FILE", help="read the polynomial from a file")
    parser.add_argument("--mode", choices=sorted(_MODES), default="solve")
    parser.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    parser.add_argument("--max-iter", type=int, default=10000, help="descent step limit")
    parser.add_argument("--epsilon", type=float, default=1e-6, help="evt optimality gap")
    parser.add_argument("--budget", type=int, default=1_000_000, help="evt cell budget")
    parser.add_argument("--trace", action="store_true", help="include the descent trace")
    parser.add_argument("--corner", help="evt region lower-left corner as re,im")
    parser.add_argument("--side", type=float, help="evt region side length")
    parser.add_argument("--format", choices=["json", "csv"], default="json",
                        dest="output_format", help="csv emits the solve trace")
    parser.add_argument("--seed", type=int, default=0, help="seed for check mode")
    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    corner = None
    if args.corner is not None:
        parts = args.corner.split(",")
        if len(parts) != 2:
            raise ValueError(f"--corner must be re,im, got {args.corner!r}")
        try:
            corner = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(f"--corner must be re,im, got {args.corner!r}")
    if args.output_format == "csv" and args.mode != "solve":
        raise ValueError("csv output is only available for solve mode (the trace)")
    return CliConfig(
        mode=args.mode,
        tol=args.tol,
        max_iter=args.max_iter,
        epsilon=args.epsilon,
        budget=args.budget,
        trace=args.trace,
        poly_text=args.poly,
        input_path=args.input,
        output_format=args.output_format,
        corner=corner,
        side=args.side,
        seed=args.seed,
    )


def _load_polynomial(config: CliConfig) -> Poly:
    if config.input_path is not None:
        with open(config.input_path, "r", encoding="utf-8") as handle:
            return parse_polynomial(handle.read())
    assert config.poly_text is not None
    return parse_polynomial(config.poly_text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; report 1
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        config = _config_from_args(args)
        poly = _load_polynomial(config)
        code, text = _MODES[config.mode](config, poly)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
