"""Run ``sepctl all`` at a range of root seeds and report the failing gates.

    python3 tools/seed_sweep.py                      # root seeds 0..15
    python3 tools/seed_sweep.py --first 4 --last 9   # root seeds 4..9
    python3 tools/seed_sweep.py --first 0 --last 5 --against ../parent/src

Each seed runs ``python -m ibsep.harness all --seed N`` in its own
subprocess, one after the other, against this checkout's ``src/``, with
its metrics written to a temporary directory. One line per seed gives the
pass count and every failed gate with its value. With ``--against
OTHER/src`` each seed also runs on that other checkout, and every
``<experiment>/metrics.csv`` of the two runs is compared byte for byte: one
line says they are identical or names the first row that differs. The exit
code is 0 when every seed passes every gate (and every compared file is
identical), 1 when a gate fails or a file differs, and 2 when a run stops
without a verdict. One seed takes as long as one ``sepctl all`` run, or two
with ``--against``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_seed(seed: int, out: str, src: Path = SRC) -> tuple[str, list[str]]:
    """(the pass-count line, the failed gate lines) of one ``sepctl all`` run."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "ibsep.harness", "all", "--seed", str(seed), "--out", out],
        env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].endswith("checks pass"):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"exit code {proc.returncode} on {src}: {tail}")
    return lines[-1], [line for line in lines if line.endswith("[fail]")]


def first_difference(mine: Path, other: Path) -> str | None:
    """None when every ``*/metrics.csv`` under the two output directories is
    byte-identical, else where the first difference is, in sorted file order."""
    names = sorted({p.relative_to(root).as_posix() for root in (mine, other)
                    for p in root.glob("*/metrics.csv")})
    for name in names:
        if not (mine / name).is_file() or not (other / name).is_file():
            side = "this checkout" if not (mine / name).is_file() else "the other"
            return f"{name} is missing from {side}'s run"
        a, b = (mine / name).read_bytes(), (other / name).read_bytes()
        if a == b:
            continue
        rows, other_rows = a.decode().splitlines(), b.decode().splitlines()
        for index in range(max(len(rows), len(other_rows))):
            row = rows[index] if index < len(rows) else "<none>"
            other_row = other_rows[index] if index < len(other_rows) else "<none>"
            if row != other_row:
                return f"{name} row {index + 1}: {row!r} here, {other_row!r} there"
        return f"{name} differs in its line endings"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0, help="first root seed")
    parser.add_argument("--last", type=int, default=15, help="last root seed, included")
    parser.add_argument("--against", type=Path, metavar="OTHER/src",
                        help="also run the other checkout's src and compare metrics.csv")
    args = parser.parse_args(argv)
    if args.last < args.first:
        parser.error("--last is below --first")
    if args.against is not None and not (args.against / "ibsep").is_dir():
        parser.error(f"--against {args.against}: no ibsep package there")
    status = 0
    for seed in range(args.first, args.last + 1):
        with tempfile.TemporaryDirectory() as out, tempfile.TemporaryDirectory() as theirs:
            try:
                summary, failed = run_seed(seed, out)
                if args.against is not None:
                    run_seed(seed, theirs, args.against.resolve())
            except RuntimeError as err:
                print(f"seed {seed}: no verdict, {err}", flush=True)
                status = 2
                continue
            difference = (first_difference(Path(out), Path(theirs))
                          if args.against is not None else None)
        print(f"seed {seed}: {summary}", flush=True)
        for line in failed:
            print(f"  {line}", flush=True)
        if args.against is not None:
            print(f"  metrics.csv against {args.against}: {difference or 'identical'}",
                  flush=True)
        if (failed or difference) and status == 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
