#!/usr/bin/env python3
"""Print an exact fingerprint of every public call of the benchmark workloads.

Usage: python3 scripts/output_digests.py --seed 1 --seed 20261017
       python3 scripts/output_digests.py --workload descent-deep --seed 1

One line per call, in the order of a benchmark pass: the workload, the
seed, the call's index, the input's label, the call's mode and
bench/run.py's digest of its output (library results by their public
fields, CLI calls by exit code and stdout).  Without --workload every
workload is printed; --workload and --seed may each be given more than
once.  Two source trees print the same lines exactly when every call
returns the same bits, so checking a change against its parent is a plain
diff of one run in each tree.  The inputs come from bench/corpus.py and the
digests from bench/run.py, both imported as they are; dalembert is imported
from the src/ directory next to this script.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=corpus.WORKLOADS)
    parser.add_argument("--seed", action="append", type=int, required=True)
    args = parser.parse_args(argv)

    modules = run._fresh_import()  # fails unless dalembert comes from ./src
    for workload in args.workload or corpus.WORKLOADS:
        for seed in args.seed:
            inputs, calls = corpus.build(workload, seed)
            for i, call in enumerate(calls):
                _cpu, _wall, output = run.invoke(call, inputs[call.input].coeffs, modules)
                label = inputs[call.input].label
                print(f"{workload} {seed} {i} {label} {call.mode} {run.digest(output)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
