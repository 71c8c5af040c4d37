"""dalembert benchmark: closed-loop workloads checked against an oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  One
process, one thread, one caller: each public call starts when the previous
one has returned.  A run sets up three times (import dalembert afresh, build
the inputs of the seed, one warm-up call) and computes the oracle's
reference roots; then, in an untraced run (--trace 0), it makes passes over
the workload's calls until the next one would end after S seconds, at least
two, setting up three times more before each pass after the first.  setup_s
is the median of all those set-ups.  A traced run (--trace 1) makes one
untraced pass and two traced ones, whatever S is.  Every pass must return
byte-identical outputs; any difference ends the run with exit code 3.

Times of calls and set-ups are CPU time of the calling thread
(time.thread_time), scaled to a reference host speed by the kernel of
hostspeed.py, which runs right before every timed call and after the last:
on a shared host the CPU time of the same work swings by up to 1.8x.  A
call's time is its mean over the passes.  Unscaled CPU and wall times are
printed alongside.

Verdicts on the first pass's outputs (see oracle.py) sort each call into
ok, fail (did not deliver: not converged, budget exhausted, exit code 2),
wrong (claimed success, contradicts the oracle) and error (raised, exit
code 1, unreadable output).  The last line of stdout is one JSON object:
correct, attempted (calls made), failed (calls in error) and the metrics,
end-to-end ones untraced, per-layer ones traced.  correct is false when a
call on a trusted input is wrong or in error.  Spans of a traced run are
written to .bench_out/spans-<workload>.tsv.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import hostspeed
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_PASS = 3
TRACED_PASSES = 2
EXIT_NONDETERMINISTIC = 3


@dataclass
class Pass:
    wall: float = 0.0  # the whole pass
    times: list = field(default_factory=list)  # thread CPU seconds per call
    walls: list = field(default_factory=list)  # wall seconds per call
    kernels: list = field(default_factory=list)  # hostspeed.kernel() before each call and after the last
    outputs: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    out_bytes: int = 0

    @property
    def scaled_times(self) -> list:
        """times at the reference host speed."""
        k = self.kernels
        return [hostspeed.scaled(t, k[i], k[i + 1]) for i, t in enumerate(self.times)]


# ----------------------------------------------------------------- calls


def invoke(call: corpus.Call, coeffs: tuple, modules: dict):
    """Make one public call; returns (cpu seconds, wall seconds, output).

    The output is (exit code, stdout) for the CLI and the result object (or
    the exception raised) for the library.  The callable is looked up on
    every call, so a traced run's wrappers are used.
    """
    if call.op == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cpu, wall = time.thread_time(), time.perf_counter()
            try:
                code = modules["dalembert.cli"].main(list(call.argv))
            except Exception as exc:  # a raise is an outcome to count, not a crash
                code = exc
            cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
        return cpu, wall, (code, out.getvalue())
    fn = getattr(modules["dalembert"], call.op)
    cpu, wall = time.thread_time(), time.perf_counter()
    try:
        result = fn(coeffs, corpus.TOL, corpus.MAX_ITER)
    except Exception as exc:
        result = exc
    return time.thread_time() - cpu, time.perf_counter() - wall, result


def _hex(x) -> str:
    if isinstance(x, complex):
        return f"{x.real.hex()},{x.imag.hex()}"
    return float(x).hex() if isinstance(x, float) else repr(x)


def digest(output) -> str:
    """Exact fingerprint of one output (library results: their public fields)."""
    if isinstance(output, tuple):
        code, text = output
        return hashlib.sha256(f"{code!r}\n{text}".encode()).hexdigest()
    if isinstance(output, Exception):
        return f"raised {type(output).__name__}: {output}"
    parts = []
    roots = getattr(output, "roots", None)
    for r in roots if roots is not None else (output,):
        trace = getattr(r, "trace", None) or ()
        parts.append(" ".join(_hex(getattr(r, k)) for k in ("root", "residual", "iterations", "converged")))
        parts.append(" ".join(_hex(row.residual) for row in trace))
    if roots is not None:
        parts.append(_hex(output.reconstruction_error))
        seed = output.seed
        parts.append(" ".join(_hex(getattr(seed, k)) for k in ("argmin", "value", "gap", "evaluations")))
        parts.append(_hex(output.enclosure.enclosure_radius))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def run_pass(calls, inputs, modules, tracer=None, keep=False) -> Pass:
    """One pass over the calls.  Outputs are kept only if keep is set, so
    peak memory does not grow with the number of passes."""
    result = Pass()
    start = time.perf_counter()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call = i
        result.kernels.append(hostspeed.kernel())
        cpu, wall, output = invoke(call, inputs[call.input].coeffs, modules)
        result.times.append(cpu)
        result.walls.append(wall)
        result.digests.append(digest(output))
        if isinstance(output, tuple):
            result.out_bytes += len(output[1].encode())
        if keep:
            result.outputs.append(output)
    result.kernels.append(hostspeed.kernel())
    result.wall = time.perf_counter() - start
    return result


# ---------------------------------------------------------------- set-up


def _fresh_import() -> dict:
    for name in [m for m in sys.modules if m == "dalembert" or m.startswith("dalembert.")]:
        del sys.modules[name]
    package = importlib.import_module("dalembert")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "dalembert":
        raise ImportError(f"dalembert was imported from {package.__file__}, not from ./src")
    importlib.import_module("dalembert.cli")
    return {name: mod for name, mod in sys.modules.items() if name.startswith("dalembert")}


def setup(workload: str, seed: int, times: list):
    """SETUPS_PER_PASS timed set-ups; appends their CPU times, at the
    reference host speed, to times and returns the last one's state."""
    for _ in range(SETUPS_PER_PASS):
        before = hostspeed.kernel()
        start = time.thread_time()
        modules = _fresh_import()
        inputs, calls = corpus.build(workload, seed)
        invoke(corpus.warmup_call(workload), corpus.WARMUP_COEFFS, modules)
        elapsed = time.thread_time() - start
        times.append(hostspeed.scaled(elapsed, before, hostspeed.kernel()))
    return modules, inputs, calls


# -------------------------------------------------------------- verdicts

_NONFINITE = re.compile(r"(?<=[\s\[,:])(-?)(inf|nan)(?=[\s,\]}])")


def _parse_report(text: str):
    # the CLI prints non-finite floats as inf / nan, which JSON lacks
    fixed = _NONFINITE.sub(lambda m: m.group(1) + ("Infinity" if m.group(2) == "inf" else "NaN"), text)
    return json.loads(fixed)


def _decreasing(residuals) -> bool:
    return all(b < a for a, b in zip(residuals, residuals[1:]))


def _cli_verdict(call, ref, output) -> str:
    code, text = output
    if code not in (0, 2):
        return "error"
    try:
        report = _parse_report(text)
    except json.JSONDecodeError:
        return "error"
    if code == 2:
        return "fail"
    try:
        good = _cli_report_ok(call, ref, report)
    except (KeyError, TypeError, IndexError):  # not the documented report
        return "error"
    return "ok" if good else "wrong"


def _cli_report_ok(call, ref, report) -> bool:
    if call.mode == "bounds":
        return oracle.enclosure_ok(ref, report["enclosure"]["enclosure_radius"])
    if call.mode == "evt":
        corner, side = call.square
        return report["gap"] <= corpus.EPSILON and oracle.certificate_ok(
            ref, corner, side, report["value"], report["gap"], complex(*report["argmin"]))
    if call.mode == "solve":
        return oracle.root_ok(ref, complex(*report["root"])) and _decreasing(
            [row[3] for row in report["trace"]])
    # solve-all: all roots, then the seed certificate over the enclosure square
    roots = [complex(*r["root"]) for r in report["roots"]]
    radius = report["enclosure"]["enclosure_radius"]
    seed = report["seed"]
    return oracle.roots_ok(ref, roots) and oracle.certificate_ok(
        ref, complex(-radius, -radius), 2.0 * radius, seed["value"], seed["gap"], complex(*seed["argmin"]))


def _library_verdict(call, ref, output) -> str:
    if isinstance(output, Exception):
        return "error"
    results = output.roots if call.op == "find_all_roots" else (output,)
    if not all(r.converged for r in results):
        return "fail"
    if not all(_decreasing([row.residual for row in r.trace or ()]) for r in results):
        return "wrong"
    if call.op == "find_root":
        return "ok" if oracle.root_ok(ref, output.root) else "wrong"
    r = output.enclosure.enclosure_radius
    good = oracle.roots_ok(ref, [x.root for x in results]) and oracle.certificate_ok(
        ref, complex(-r, -r), 2.0 * r, output.seed.value, output.seed.gap, output.seed.argmin)
    return "ok" if good else "wrong"


def verdicts(calls, refs, outputs) -> list[str]:
    out = []
    for call, output in zip(calls, outputs):
        ref = refs[call.input]
        judge = _cli_verdict if call.op == "cli" else _library_verdict
        out.append(judge(call, ref, output))
    return out


# --------------------------------------------------------------- metrics


def _exact_check(passes, what: str) -> None:
    first = passes[0]
    for n, p in enumerate(passes[1:], start=2):
        if p != first:
            print(f"error: {what} of pass {n} differ from pass 1", file=sys.stderr)
            sys.exit(EXIT_NONDETERMINISTIC)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def mean_times(passes, attr: str = "scaled_times") -> list[float]:
    """Each call's mean time over the passes.  The library is deterministic,
    so every pass repeats the same work; the mean evens out what is left of
    the host's swings after scaling."""
    per_pass = [getattr(p, attr) for p in passes]
    return [statistics.fmean(column) for column in zip(*per_pass)]


def end_to_end(setup_times, passes, outcome) -> tuple[dict, dict]:
    """name -> (value, unit): the JSON line's metrics, and more for the table."""
    n = len(outcome)
    times = mean_times(passes)
    fail = sum(v != "ok" for v in outcome) / n
    wrong = sum(v == "wrong" for v in outcome) / n
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "calls_per_s": (n / sum(times), "1/s"),
        "call_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "ok_frac": (1.0 - fail, "ratio"),
        "right_frac": (1.0 - wrong, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    kernels = [k for p in passes for k in p.kernels]
    extra = {
        "call_cpu_p50_ms": (statistics.median(mean_times(passes, "times")) * 1e3, "ms"),
        "call_wall_p50_ms": (statistics.median(mean_times(passes, "walls")) * 1e3, "ms"),
        "host_slowdown": (statistics.median(kernels) / hostspeed.REFERENCE_S, "ratio"),
    }
    if n >= 100:  # at least ten calls beyond the 90th percentile
        extra["call_p90_ms"] = (statistics.quantiles(times, n=10)[8] * 1e3, "ms")
    extra["fail_frac"] = (fail, "ratio")
    extra["wrong_frac"] = (wrong, "ratio")
    return metrics, extra


def per_layer(passes, traced, tracers, calls, refs) -> dict:
    """name -> (value, unit) from the traced passes; exits if exact counts differ."""
    root_scale = {i: float(abs(refs[c.input].roots).max()) for i, c in enumerate(calls)}
    per_pass = [tracing.layer_metrics(t, p.out_bytes, root_scale) for t, p in zip(tracers, traced)]
    _exact_check([{k: m[k] for k in tracing.EXACT} for m in per_pass], "exact counts")
    layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    untraced = sum(passes[0].scaled_times)
    layers["trace.overhead_frac"] = statistics.median(sum(p.scaled_times) for p in traced) / untraced - 1.0
    layers["trace.absent_names"] = len(tracers[0].absent)
    return {name: (layers[name], unit) for name, (unit, _better) in tracing.LAYER_METRICS.items()}


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    setup_times = []
    try:
        modules, inputs, calls = setup(args.workload, args.seed, setup_times)
    except ImportError as exc:
        print(f"error: cannot import dalembert from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    try:
        refs = [oracle.reference(inp) for inp in inputs]
    except oracle.OracleError as exc:
        print(f"error: oracle failed: {exc}", file=sys.stderr)
        return 1

    passes, traced, tracers = [], [], []
    started = time.perf_counter()
    if args.trace:
        passes.append(run_pass(calls, inputs, modules, keep=True))
        for _ in range(TRACED_PASSES):
            with tracing.Tracer() as tracer:
                traced.append(run_pass(calls, inputs, modules, tracer))
            tracers.append(tracer)
    else:
        while True:
            if passes:  # set-ups are spread over the run, like the passes
                modules, inputs, calls = setup(args.workload, args.seed, setup_times)
            passes.append(run_pass(calls, inputs, modules, keep=not passes))
            elapsed = time.perf_counter() - started
            if len(passes) >= 2 and elapsed + passes[-1].wall > args.seconds:
                break
    _exact_check([p.digests for p in passes + traced], "outputs")
    outcome = verdicts(calls, refs, passes[0].outputs)
    metrics, extra = end_to_end(setup_times, passes, outcome)
    if args.trace:
        extra.update(metrics)
        metrics = per_layer(passes, traced, tracers, calls, refs)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracing.write_spans(tracers, out_dir / f"spans-{args.workload}.tsv")

    runs = len(passes) + len(traced)
    print(f"workload {args.workload} seed {args.seed}: {runs} passes of {len(calls)} calls")
    for name, (value, unit) in {**extra, **metrics}.items():
        print(f"  {name:<30} {value:.6g} {unit}")
    for name in tracers[0].absent if tracers else ():
        print(f"  absent: {name}")
    not_ok = [(inputs[c.input], c.mode, v) for c, v in zip(calls, outcome) if v != "ok"]
    print("  not ok:", " ".join(f"{i.label}:{mode}={v}" for i, mode, v in not_ok) or "-")
    bad_trusted = [i.label for i, _mode, v in not_ok if i.trusted and v in ("wrong", "error")]
    print(json.dumps({
        "correct": not bad_trusted,
        "attempted": len(calls) * runs,
        "failed": sum(v == "error" for v in outcome) * runs,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
