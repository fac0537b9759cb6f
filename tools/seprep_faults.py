"""Time the full seprep battery and count its minor page faults, per checkout.

    python3 tools/seprep_faults.py                          # this checkout, twice
    python3 tools/seprep_faults.py OTHER/src src --rounds 2  # A B A B

Each run is ``python -m ibsep.harness seprep --seed 7`` in its own child
process, with ``PYTHONPATH`` set to the given ``src`` directory and its
metrics written to a temporary directory. The ``src`` directories take
turns, round after round, so that two checkouts meet the same machine
load. One line per run gives the wall time, the child's user and system
time and its minor faults (``resource.getrusage(RUSAGE_CHILDREN)``, taken
before and after), and the sha256 of its ``metrics.csv``, so that runs of
two checkouts can be compared for their bits as well as their costs. The
exit code is 2 when a run stops without writing its metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT_SEED = 7


def run_battery(src: Path) -> dict:
    """Wall, user and system seconds, minor faults and metrics digest of one run."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as out:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ibsep.harness", "seprep", "--seed", str(ROOT_SEED),
             "--out", out], env=env, capture_output=True, text=True)
        wall = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        metrics = Path(out) / "seprep" / "metrics.csv"
        if not metrics.exists():
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise RuntimeError(f"exit code {proc.returncode}: {tail}")
        digest = hashlib.sha256(metrics.read_bytes()).hexdigest()
    return {"wall_s": wall, "user_s": after.ru_utime - before.ru_utime,
            "sys_s": after.ru_stime - before.ru_stime,
            "minflt": after.ru_minflt - before.ru_minflt, "metrics": digest[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("srcs", nargs="*", type=Path, default=[SRC],
                        help="the src directories to run, in turn (default: this one)")
    parser.add_argument("--rounds", type=int, default=2, help="runs of each src")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for src in args.srcs:
        if not (src / "ibsep" / "harness.py").is_file():
            parser.error(f"{src} holds no ibsep package")
    for round_ in range(1, args.rounds + 1):
        for src in args.srcs:
            try:
                got = run_battery(src.resolve())
            except RuntimeError as err:
                print(f"{src} round {round_}: no metrics, {err}", flush=True)
                return 2
            print(f"{src} round {round_}: wall {got['wall_s']:.2f} s, "
                  f"user {got['user_s']:.2f} s, sys {got['sys_s']:.2f} s, "
                  f"minflt {got['minflt']}, metrics {got['metrics']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
