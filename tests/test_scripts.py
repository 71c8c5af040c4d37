"""Smoke tests: the example scripts run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        # from the default start 0, where p'(0) = 0, the first step takes k = 2
        ["scripts/descent_demo.py", "-2 0 1"],
        ["scripts/descent_demo.py", "1 1i 3", "--start", "1,1"],
    ],
)
def test_script_exits_zero(argv):
    done = _run(argv)
    assert done.returncode == 0, done.stdout + done.stderr


def test_output_digests_prints_one_line_per_call():
    argv = ["scripts/output_digests.py", "--workload", "descent-deep", "--seed", "1"]
    first, second = _run(argv), _run(argv)
    assert first.returncode == 0, first.stdout + first.stderr
    lines = first.stdout.splitlines()
    assert len(lines) == 7  # the workload's seven find_root calls
    for i, line in enumerate(lines):
        workload, seed, index, _label, mode, digest = line.split()
        assert (workload, int(seed), int(index), mode) == ("descent-deep", 1, i, "find_root")
        assert len(digest) == 64 and int(digest, 16) >= 0
    assert second.stdout == first.stdout


def test_output_digests_covers_every_workload_and_seed():
    # one run per tree is the whole bit-identity check: without --workload
    # every workload is printed, for each --seed given
    done = _run(["scripts/output_digests.py", "--seed", "1", "--seed", "2"])
    assert done.returncode == 0, done.stdout + done.stderr
    keys = [tuple(line.split()[:2]) for line in done.stdout.splitlines()]
    order = list(dict.fromkeys(keys))
    assert order == [(w, s) for w in ("cli-lowdeg", "descent-deep", "all-roots-hard")
                     for s in ("1", "2")]
    # each block is what a run for its workload and seed alone prints
    for workload, seed in order:
        alone = _run(["scripts/output_digests.py", "--workload", workload, "--seed", seed])
        assert alone.returncode == 0, alone.stdout + alone.stderr
        block = [line for line, key in zip(done.stdout.splitlines(), keys)
                 if key == (workload, seed)]
        assert block == alone.stdout.splitlines(), (workload, seed)
