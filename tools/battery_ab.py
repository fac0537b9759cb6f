"""Paired A/B of two checkouts on one benchmark workload, in one process.

    python3 tools/battery_ab.py PARENT/src CHANGE/src --workload static-train --rounds 20
    python3 tools/battery_ab.py A/src B/src --workload static-train --rounds 2 \\
        --set static-ib.train_steps=2 --set gradcheck.models=1

Each ``src/ibsep`` is copied under a package name of its own into a
temporary directory, and both copies are imported into this process, so
that the two sides meet the same machine load. A round runs one pass of the
workload's batteries on each side, as ``benchmarks/run.py``'s ``WORKLOADS``
defines them and at its root seed 7 (that file is read, not changed), and
the side that goes first alternates from round to round. ``--set
battery.key=value`` (a JSON value) changes one battery override on both
sides. The two sides' records, everything but their wall time, must be
identical in every round: the first round where they differ is named and
the exit code is 1. Otherwise the last lines give each side's median and
quartiles of pass seconds, the median and quartiles of the per-round ratio
change/parent, and the rounds the change won, and the exit code is 0.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SIDES = ("parent", "change")


def load_benchmark():
    """``benchmarks/run.py`` as a module, with its ``spans`` import resolved."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec = importlib.util.spec_from_file_location("battery_ab_run", BENCHMARKS / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module


def with_overrides(bench, name: str, settings) -> object:
    """Workload ``name`` with each ``battery.key=value`` of ``settings`` applied."""
    base = bench.WORKLOADS[name]
    extra = {}
    for text in settings:
        key, eq, raw = text.partition("=")
        battery, dot, bare = key.partition(".")
        if not (eq and dot and bare) or battery not in dict(base.batteries):
            raise ValueError(f"--set {text!r}: expected battery.key=value with a battery "
                             f"of {name}: {', '.join(dict(base.batteries))}")
        try:
            extra.setdefault(battery, {})[bare] = json.loads(raw)
        except json.JSONDecodeError:
            extra[battery][bare] = raw
    return bench.Workload(tuple((battery, {**overrides, **extra.get(battery, {})})
                                for battery, overrides in base.batteries), base.steps)


def import_copy(src: Path, name: str, into: Path) -> dict:
    """Copy ``src/ibsep`` to ``into/name`` and import it as package ``name``."""
    shutil.copytree(src / "ibsep", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    importlib.invalidate_caches()
    return {"harness": importlib.import_module(f"{name}.harness"),
            "nn": importlib.import_module(f"{name}.nn")}


def first_difference(parent: dict, change: dict) -> str:
    """Where two passes' records first differ."""
    for battery in sorted(set(parent) | set(change)):
        mine, theirs = parent.get(battery, []), change.get(battery, [])
        for index in range(max(len(mine), len(theirs))):
            a = mine[index] if index < len(mine) else None
            b = theirs[index] if index < len(theirs) else None
            if a != b:
                return f"{battery} record {index}: parent {a}, change {b}"
    return "no record differs"


def spread(values) -> str:
    """'median M (q1 A, q3 B)' of one or more values."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {statistics.median(values):.4f} (q1 {q1:.4f}, q3 {q3:.4f})"


def compare(bench, workload, sides: dict, rounds: int) -> int:
    """Run the rounds and print them; 1 when the records differ, else 0."""
    order = list(range(len(workload.batteries)))
    times = {side: [] for side in SIDES}
    for index in range(rounds):
        records = {}
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            seconds, records[side] = bench.run_pass(sides[side], workload, order)
            times[side].append(seconds)
        if records["parent"] != records["change"]:
            print(f"round {index}: records differ: "
                  f"{first_difference(records['parent'], records['change'])}")
            return 1
        print(f"round {index}: parent {times['parent'][-1]:.4f} s, "
              f"change {times['change'][-1]:.4f} s", flush=True)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    for side in SIDES:
        print(f"{side}: {spread(times[side])} s")
    print(f"change/parent: {spread(ratios)}; change faster in {won} of {rounds} rounds")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT/src")
    parser.add_argument("change", type=Path, metavar="CHANGE/src")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--set", action="append", default=[], dest="sets",
                        metavar="BATTERY.KEY=VALUE")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload {args.workload}: choose from {', '.join(bench.WORKLOADS)}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for src in (args.parent, args.change):
        if not (src / "ibsep" / "__init__.py").is_file():
            parser.error(f"{src}: no ibsep package there")
    try:
        workload = with_overrides(bench, args.workload, args.sets)
    except ValueError as err:
        parser.error(str(err))
    names = {side: f"battery_ab_{side}" for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = {side: import_copy(src, names[side], Path(tmp))
                     for side, src in zip(SIDES, (args.parent, args.change))}
            for modules in sides.values():
                bench.check_overrides(modules["harness"], workload)
            return compare(bench, workload, sides, args.rounds)
        finally:
            sys.path.remove(tmp)
            for key in [k for k in sys.modules
                        if k.split(".")[0] in names.values()]:
                del sys.modules[key]


if __name__ == "__main__":
    sys.exit(main())
