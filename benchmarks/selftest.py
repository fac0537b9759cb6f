"""Self-test of the benchmark itself (not of ibsep).

    python3 benchmarks/selftest.py [WORKLOAD ...]

For each workload (all by default) it makes two traced runs with different
``--seed`` values, so the battery order differs too, and checks that

- each run is correct: every pass, traced or not, returned the same
  battery records, every gate passed, and each training call took the
  steps the workload asked for;
- the work counters in spans.EXACT_COUNTERS repeat exactly across the runs;
- both runs returned the same records.

It also checks that run.py reports exactly the metrics BENCHMARK.json
declares, that a misspelt battery override is refused, and that the
benchmark exits non-zero, printing no result, in a directory holding only
``BENCHMARK.json`` and ``benchmarks/``. Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads((run.OUT / f"{workload}-seed{seed}-trace1.json").read_text())
    return result, {p["records_sha256"] for p in detail["passes"]}, detail["problems"]


def check_workload(workload: str) -> list:
    failures = []
    first, first_digests, problems_a = traced_run(workload, 1)
    second, second_digests, problems_b = traced_run(workload, 2)
    for label, result, problems in (("seed 1", first, problems_a),
                                    ("seed 2", second, problems_b)):
        if not result["correct"]:
            failures.append(f"{workload} {label}: not correct: {problems}")
    for name in spans.EXACT_COUNTERS:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            failures.append(f"{workload}: {name} reads {a} then {b}")
    if len(first_digests | second_digests) != 1:
        failures.append(f"{workload}: records differ between runs")
    return failures


def check_metric_names() -> list:
    """The metrics run.py reports are the ones BENCHMARK.json declares."""
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for section, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.per_layer_units())):
        listed = {m["name"]: m["unit"] for m in declared[section]}
        if listed != units:
            failures.append(f"BENCHMARK.json {section} differs from run.py")
    return failures


def check_misspelt_override() -> list:
    modules = run.import_ibsep()
    typo = run.Workload((("seprep", {"train_step": 5}),))
    try:
        run.check_overrides(modules["harness"], typo)
    except SystemExit:
        return []
    return ["a misspelt override (train_step) was accepted"]


def check_bare_directory() -> list:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "static-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return ["in a bare directory the benchmark printed a result or exited 0"]
    return []


def main(argv) -> int:
    workloads = argv or sorted(run.WORKLOADS)
    failures = (check_metric_names() + check_misspelt_override()
                + check_bare_directory())
    for workload in workloads:
        failures += check_workload(workload)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {len(failures)} failure(s) over {', '.join(workloads)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
