"""Run ``sepctl all`` at a range of root seeds and report the failing gates.

    python3 tools/seed_sweep.py                      # root seeds 0..15
    python3 tools/seed_sweep.py --first 4 --last 9   # root seeds 4..9

Each seed runs ``python -m ibsep.harness all --seed N`` in its own
subprocess, one after the other, against this checkout's ``src/``, with
its metrics written to a temporary directory. One line per seed gives the
pass count and every failed gate with its value. The exit code is 0 when
every seed passes every gate, 1 when a gate fails and 2 when a run stops
without a verdict. One seed takes as long as one ``sepctl all`` run.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_seed(seed: int, out: str) -> tuple[str, list[str]]:
    """(the pass-count line, the failed gate lines) of one ``sepctl all`` run."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "ibsep.harness", "all", "--seed", str(seed), "--out", out],
        env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].endswith("checks pass"):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"exit code {proc.returncode}: {tail}")
    return lines[-1], [line for line in lines if line.endswith("[fail]")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0, help="first root seed")
    parser.add_argument("--last", type=int, default=15, help="last root seed, included")
    args = parser.parse_args(argv)
    if args.last < args.first:
        parser.error("--last is below --first")
    status = 0
    for seed in range(args.first, args.last + 1):
        with tempfile.TemporaryDirectory() as out:
            try:
                summary, failed = run_seed(seed, out)
            except RuntimeError as err:
                print(f"seed {seed}: no verdict, {err}", flush=True)
                status = 2
                continue
        print(f"seed {seed}: {summary}", flush=True)
        for line in failed:
            print(f"  {line}", flush=True)
        if failed and status == 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
