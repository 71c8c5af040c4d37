"""Command-line front end: parse polynomials, run the solver modes, emit reports.

Modes: solve (one root), solve-all (all roots via deflation), evt (certified
minimum over a square), bounds (growth certificate), check (replay the lemma
suites on the given polynomial).  Reports are JSON with floats printed to 17
significant digits so every double round-trips; traces are CSV with columns
iter,re,im,residual,s,k.  Identical invocations produce byte-identical output,
--help included: it is wrapped at 78 columns whatever the terminal or COLUMNS
says.  --tol and --epsilon must be positive and finite.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .complexmath import format_complex, parse_complex
from .descent import RootResult
from .errors import EmptyPolynomial, ParseError
from .gridmin import SquareRegion, certified_min
from .growth import growth_certificate
from .polynomial import Poly
from .solver import find_all_roots, find_root

__all__ = ["parse_polynomial", "serialize_polynomial", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


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
            # bool is an int subclass, but true/false are not coefficients;
            # an int beyond the largest float does not convert to one
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and abs(v) <= sys.float_info.max for v in pair)
        )
        if not ok:
            raise ParseError(f"entry {i} is not a finite [re, im] pair", i)
        out.append(complex(pair[0], pair[1]))
    return tuple(out)


def serialize_polynomial(p) -> str:
    """Inverse of parse_polynomial (text form, one literal per coefficient)."""
    return " ".join(format_complex(c) for c in p)


def _to_json(value, level: int = 0) -> str:
    """Indented JSON: floats (tested first) to 17 digits, a complex as [re, im]."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, complex):
        value = [value.real, value.imag]
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
        flat = all(not isinstance(v, (dict, list, tuple, complex)) for v in value)
        if flat and sum(len(s) for s in parts) < 72:
            return "[" + ", ".join(parts) + "]"
        return (
            "[\n"
            + ",\n".join("  " * (level + 1) + s for s in parts)
            + "\n" + pad + "]"
        )
    if type(value) is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if type(value) is int:
        return repr(value)
    return json.dumps(value)  # str; TypeError for any other type


# The report keys of each result, in output order.  Named rather than taken
# from the record, so that a new field does not change the output.
_ROOT_FIELDS = ("root", "residual", "iterations", "converged")
_MINIMUM_FIELDS = ("argmin", "value", "gap", "evaluations", "budget_exhausted")
_GROWTH_FIELDS = ("threshold_radius", "enclosure_radius", "lead_norm", "sub_max", "degree")


def _fields(obj, names: tuple[str, ...]) -> dict:
    return {name: getattr(obj, name) for name in names}


def _trace_rows(result: RootResult) -> list[list]:
    """The trace as iter, re, im, residual, s, k rows, for JSON and CSV."""
    return [
        [row.iteration, row.point.real, row.point.imag, row.residual, row.s, row.k]
        for row in result.trace or ()
    ]


def _root_report(result: RootResult, include_trace: bool) -> dict:
    out = _fields(result, _ROOT_FIELDS)
    if include_trace and result.trace is not None:
        out["trace"] = _trace_rows(result)
    return out


def _run_solve(args: argparse.Namespace, poly: Poly) -> tuple[int, dict | str]:
    result = find_root(poly, args.tol, args.max_iter)
    code = EXIT_OK if result.converged else EXIT_NOT_CONVERGED
    if args.output_format == "csv":
        rows = [",".join(map(_to_json, row)) for row in _trace_rows(result)]
        return code, "\n".join(["iter,re,im,residual,s,k", *rows]) + "\n"
    return code, _root_report(result, args.trace)


def _run_solve_all(args: argparse.Namespace, poly: Poly) -> tuple[int, dict | str]:
    report = find_all_roots(poly, args.tol, args.max_iter)
    code = EXIT_OK if all(r.converged for r in report.roots) else EXIT_NOT_CONVERGED
    return code, {
        "roots": [_root_report(r, args.trace) for r in report.roots],
        "reconstruction_error": report.reconstruction_error,
        "enclosure": _fields(report.enclosure, _GROWTH_FIELDS),
        "seed": _fields(report.seed, _MINIMUM_FIELDS),
    }


def _run_evt(args: argparse.Namespace, poly: Poly) -> tuple[int, dict | str]:
    if args.corner is None or args.side is None:
        raise ValueError("evt mode needs --corner re,im and --side s")
    region = SquareRegion(args.corner, args.side)
    cm = certified_min(poly, region, args.epsilon, args.budget)
    code = EXIT_NOT_CONVERGED if cm.budget_exhausted else EXIT_OK
    return code, _fields(cm, _MINIMUM_FIELDS)


def _run_bounds(args: argparse.Namespace, poly: Poly) -> tuple[int, dict | str]:
    return EXIT_OK, {"enclosure": _fields(growth_certificate(poly), _GROWTH_FIELDS)}


def _run_check(args: argparse.Namespace, poly: Poly) -> tuple[int, dict | str]:
    from .checks import _SAMPLES, run_lemma_checks  # here, so only check mode pays its import

    reports = run_lemma_checks(poly, seed=args.seed)
    passed = all(r.passed for r in reports)
    return EXIT_OK if passed else EXIT_ERROR, {
        "seed": args.seed,
        "samples": _SAMPLES,
        "lemmas": [
            {"name": r.name, "samples": r.samples, "failures": r.failures, "pass": r.passed}
            for r in reports
        ],
        "pass": passed,
    }


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
        # argparse's width off a terminal, fixed: no build probes the terminal
        # (once per argument), and --help reads the same under any COLUMNS
        formatter_class=functools.partial(argparse.HelpFormatter, width=78),
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


def _validate(args: argparse.Namespace) -> None:
    """Check what argparse cannot, and parse --corner into a complex in place."""
    if args.corner is not None:
        parts = args.corner.split(",")
        if len(parts) != 2:
            raise ValueError(f"--corner must be re,im, got {args.corner!r}")
        try:
            args.corner = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(f"--corner must be re,im, got {args.corner!r}")
    if args.output_format == "csv" and args.mode != "solve":
        raise ValueError("csv output is only available for solve mode (the trace)")
    if not (0 < args.tol < math.inf):
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    if not (0 < args.epsilon < math.inf):
        raise ValueError(f"--epsilon must be positive and finite, got {args.epsilon}")
    if args.max_iter < 0:
        raise ValueError(f"--max-iter must be >= 0, got {args.max_iter}")
    if args.budget < 1:
        raise ValueError(f"--budget must be >= 1, got {args.budget}")
    if (args.poly is None) == (args.input is None):
        raise ValueError("give exactly one polynomial, inline or via --input")


def _load_polynomial(args: argparse.Namespace) -> Poly:
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as handle:
            return parse_polynomial(handle.read())
    return parse_polynomial(args.poly)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; report 1
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        _validate(args)
        code, report = _MODES[args.mode](args, _load_polynomial(args))
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(report if isinstance(report, str) else _to_json(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
