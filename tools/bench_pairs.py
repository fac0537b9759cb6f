"""Alternating separate-process pairs of two checkouts on one benchmark workload.

    python3 tools/bench_pairs.py PARENT CHANGE --workload exact-oracles --pairs 10

PARENT and CHANGE are checkouts of this repository. Pair i (i = 1..N) runs
the benchmark command of PARENT's ``BENCHMARK.json`` in each checkout, as
a fresh process with the checkout as its working directory, with
``--workload W --seed i --seconds S --trace 0``, where S is that file's
``run_seconds``; the side that runs first alternates from pair to pair.
Each run's last stdout line is its result. A run that exits non-zero,
prints no result, reports ``correct`` false or leaves out an end-to-end
metric stops the tool with exit code 1.

For every end-to-end metric of ``BENCHMARK.json`` the tool then prints each
side's median and quartiles and the pairs the change won (ties count for
neither side), and says whether the claim rule holds: the change won at
least nine tenths of the pairs, and its median is better than the
parent's by more than the parent's interquartile range. It names every
metric whose change median is worse than the parent's by more than the
metric's relative ``bound``. Separate processes are the benchmark's own
conditions: an in-process comparison can read a larger gain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, command: list, workload: str, seed: int,
             seconds: float, names) -> dict:
    """One benchmark run in ``checkout``: its result line, parsed.

    Raises RuntimeError when the run fails, prints no result, reports
    ``correct`` false or leaves out one of the metrics ``names``.
    """
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 120)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = (done.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        raise RuntimeError(f"exit code {done.returncode}: {tail}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RuntimeError(f"last line is not a result: {lines[-1]!r}") from None
    if not isinstance(result, dict) or "metrics" not in result:
        raise RuntimeError(f"last line is not a result: {lines[-1]!r}")
    if result.get("correct") is not True:
        raise RuntimeError(f"the run is not correct: {lines[-1]}")
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        raise RuntimeError(f"the result has no {', '.join(missing)}")
    return {name: float(result["metrics"][name]["value"]) for name in names}


def quartiles(values) -> tuple:
    """(q1, median, q3) of one or more values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def verdict(spec: dict, parent: list, change: list) -> tuple:
    """(report line, worse than its bound) for one metric's pairs."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    claim = won >= 0.9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1
    worse = sign * (c_med - p_med) > spec["bound"] * abs(p_med)
    line = (f"{spec['name']} ({spec['unit']}, {spec['better']} is better): "
            f"parent median {p_med:.4f} (q1 {p_q1:.4f}, q3 {p_q3:.4f}), "
            f"change median {c_med:.4f} (q1 {c_q1:.4f}, q3 {c_q3:.4f}); "
            f"change better in {won} of {len(parent)} pairs; "
            f"claim {'holds' if claim else 'not met'}")
    return line, worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT")
    parser.add_argument("change", type=Path, metavar="CHANGE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec_path = args.parent / "BENCHMARK.json"
    try:
        bench = json.loads(spec_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        parser.error(f"{spec_path}: {err}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"--workload {args.workload}: choose from "
                     f"{', '.join(w['name'] for w in bench['workloads'])}")
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    metrics = {spec["name"]: {side: [] for side in SIDES} for spec in bench["end_to_end"]}
    for seed in range(1, args.pairs + 1):
        for side in SIDES if seed % 2 else SIDES[::-1]:
            try:
                values = run_once(checkouts[side], bench["command"], args.workload,
                                  seed, bench["run_seconds"], list(metrics))
            except (RuntimeError, subprocess.TimeoutExpired) as err:
                print(f"pair {seed}: {side} run failed: {err}")
                return 1
            for name, sides in metrics.items():
                sides[side].append(values[name])
        print(f"pair {seed}: " + "; ".join(
            f"{name} parent {sides['parent'][-1]:.4f}, change {sides['change'][-1]:.4f}"
            for name, sides in metrics.items()), flush=True)
    worse = []
    for spec in bench["end_to_end"]:
        sides = metrics[spec["name"]]
        line, beyond = verdict(spec, sides["parent"], sides["change"])
        print(line)
        if beyond:
            worse.append(f"{spec['name']} (bound {spec['bound']:.0%})")
    print("worse than its bound: " + (", ".join(worse) if worse else "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
