"""Time-to-certify benchmark for ibsep.

    python3 benchmarks/run.py --workload filter-sweep --seed 1 --seconds 32 --trace 0

Runs the workload's batteries through the public ``ibsep.harness`` battery
functions, pass after pass, for ``--seconds`` seconds in one process, and
prints as its last stdout line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics from the traced ones (see spans.py).
Details (pass times, machine facts, every metric) go to
``benchmarks/out/``, and with ``--trace 1`` the spans as JSON lines.

Every battery runs at the canonical root seed 7 and derives its stream
with ``harness.experiment_seed``, so each pass does the same work and
must return the same records. ``--seed`` orders the batteries within
each pass. See NOTES.md for why, and for the workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
ROOT_SEED = 7
SETUP_PROBES = 2


@dataclass(frozen=True)
class Workload:
    batteries: tuple  # (experiment name, overrides), in canonical order
    # span name -> steps every call must take; traced runs check it
    steps: dict = field(default_factory=dict)


# filter-sweep keeps the seprep battery's per-step shapes and every gate, but
# trains 1 seed for 120 steps instead of 3 seeds for 1,000 so that a pass fits
# in one run; NOTES.md gives the measurements behind that choice.
WORKLOADS = {
    "filter-sweep": Workload(
        (("seprep", {"train_seeds": 1, "train_steps": 120}),),
        {"seprep.train_filter": 120},
    ),
    "exact-oracles": Workload(
        (("info", {}), ("kalman", {}), ("control-sep", {})),
    ),
    "static-train": Workload(
        (("static-ib", {}), ("gradcheck", {})),
        {"static_ib.train_ib": 400},
    ),
}

END_TO_END_UNITS = {"certify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "gate_pass_ratio": "ratio"}


def per_layer_units() -> dict:
    """Unit of every per-layer metric: the span metrics, then pass-level ones."""
    units = {m: unit for m, (unit, _) in spans.LAYER_METRICS.items()}
    units.update({"harness.gates_checked": "count", "harness.gates_failed": "count",
                  "trace.overhead_ratio": "ratio", "trace.unattributed_share": "ratio"})
    return units


def import_ibsep():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ibsep" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no ibsep package under {src}")
    sys.path.insert(0, str(src))
    from ibsep import control_sep, harness, info, lgss, nn, seprep, static_ib
    if Path(harness.__file__).resolve().parent != src / "ibsep":
        raise SystemExit(f"run.py: imported ibsep from {harness.__file__}")
    return {"nn": nn, "lgss": lgss, "seprep": seprep, "static_ib": static_ib,
            "control_sep": control_sep, "info": info, "harness": harness}


def check_overrides(harness, workload: Workload) -> None:
    """Reject an override the battery does not know.

    ``harness`` drops unknown keys silently, so a misspelt key would run
    the default (1,000 seprep steps) unnoticed. Traced runs also check the
    steps each training call really took, from its spans.
    """
    for name, overrides in workload.batteries:
        unknown = set(overrides) - set(harness._DEFAULTS[name])
        if unknown:
            raise SystemExit(f"run.py: unknown {name} override(s) {sorted(unknown)}")


def record_key(record) -> tuple:
    """Everything a battery reports except its wall-clock seconds."""
    tol = None if record.tolerance is None else float(record.tolerance).hex()
    return (record.experiment, record.key, float(record.value).hex(), tol,
            record.status)


def run_battery(modules, name, overrides) -> list:
    harness, nn = modules["harness"], modules["nn"]
    battery = getattr(harness, "run_" + name.replace("-", "_"))
    try:
        return battery(harness.experiment_seed(ROOT_SEED, name), dict(overrides))
    except nn.TrainingDiverged as err:  # a failed gate, not a crash
        return [harness.MetricRecord(name, "training_diverged", float(err.args[0]),
                                     None, "fail", 0.0)]


def run_pass(modules, workload, order) -> tuple:
    """One pass: (seconds, {battery: record keys})."""
    records = {}
    started = time.perf_counter()
    for index in order:
        name, overrides = workload.batteries[index]
        records[name] = [record_key(r) for r in run_battery(modules, name, overrides)]
    return time.perf_counter() - started, records


def gates(records) -> tuple:
    """(gates checked, gates failed) in one pass's records."""
    statuses = [key[4] for keys in records.values() for key in keys]
    checked = sum(s in ("pass", "fail") for s in statuses)
    return checked, statuses.count("fail")


def measure(modules, workload, seed, seconds, trace) -> dict:
    """Run passes until the next one would end after ``seconds``.

    Untraced runs make at least one pass; traced runs alternate untraced
    and traced passes and make at least one of each.
    """
    rng = random.Random(seed)
    tracer = spans.Tracer()
    passes = []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        order = list(range(len(workload.batteries)))
        rng.shuffle(order)
        if traced:
            with tracer.installed(modules, len(passes)):
                wall, records = run_pass(modules, workload, order)
        else:
            wall, records = run_pass(modules, workload, order)
        passes.append({"seconds": wall, "traced": traced, "order": order,
                       "records": records})
        elapsed = time.perf_counter() - started
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed + median(p["seconds"] for p in passes) > seconds:
            return {"started": started, "passes": passes, "tracer": tracer}


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def percentile_line(times) -> str:
    """Median, plus the highest percentile with ten passes beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    line = f"certify_s over {n} passes: median {median(ordered):.4f}"
    if n >= 11:
        line += f", p{100.0 * (n - 10) / n:.1f} {ordered[n - 11]:.4f}"
    return line


def layer_metrics(tracer, passes, steps) -> tuple:
    """Per-layer metrics (medians over traced passes) and validity problems."""
    problems = []
    tables = []
    for index, p in enumerate(passes):
        if not p["traced"]:
            continue
        layers = spans.pass_layers(tracer.spans, index, p["seconds"])
        table = layers["by_name"]
        for name, expected in steps.items():
            taken = table.get(name, {}).get("counts", [])
            if not taken or any(c != expected for c in taken):
                problems.append(f"{name} took steps {taken}, expected {expected}")
        values = {m: fn(table) for m, (_, fn) in spans.LAYER_METRICS.items()}
        values["harness.gates_checked"], values["harness.gates_failed"] = \
            gates(p["records"])
        values["trace.unattributed_share"] = layers["unattributed_share"]
        tables.append(values)
    for name in spans.EXACT_COUNTERS:
        seen = {t[name] for t in tables}
        if len(seen) != 1:
            problems.append(f"counter {name} varies across traced passes: {sorted(seen)}")
    untraced = median(p["seconds"] for p in passes if not p["traced"])
    traced = median(p["seconds"] for p in passes if p["traced"])
    units = per_layer_units()
    metrics = {m: {"value": median(t[m] for t in tables), "unit": units[m]}
               for m in tables[0]}
    metrics["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
    return metrics, problems


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                found[Path(lib).name] = int(getattr(handle, symbol)())
                break
    return found


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def setup_probes(args) -> list:
    """Set-up seconds of fresh interpreters doing this run's set-up."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="do the set-up only and print its seconds")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_probe:
        parser.error("--seconds is required")
    workload = WORKLOADS[args.workload]

    setup_started = time.perf_counter()
    modules = import_ibsep()
    check_overrides(modules["harness"], workload)
    if args.setup_probe:
        print(time.perf_counter() - setup_started)
        return 0
    run = measure(modules, workload, args.seed, args.seconds, bool(args.trace))
    setup_main = run["started"] - setup_started
    passes = run["passes"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    first = passes[0]["records"]
    for index, p in enumerate(passes[1:], 1):
        if p["records"] != first:
            kind = "traced" if p["traced"] else "untraced"
            problems.append(f"pass {index} ({kind}) records differ from pass 0")
    checked_failed = [gates(p["records"]) for p in passes]
    attempted = sum(c for c, _ in checked_failed)
    failed = sum(f for _, f in checked_failed)
    if any(c == 0 for c, _ in checked_failed):
        problems.append("a pass checked zero gates: the run is invalid")

    untraced_times = [p["seconds"] for p in passes if not p["traced"]]
    summary = [percentile_line(untraced_times)]
    if args.trace:
        metrics, layer_problems = layer_metrics(run["tracer"], passes, workload.steps)
        problems += layer_problems
    else:
        setups = [setup_main] + setup_probes(args)
        checked, failed_one = checked_failed[0]
        values = {
            "certify_s": median(untraced_times),
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb,
            "gate_pass_ratio": (checked - failed_one) / checked if checked else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        summary.append("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))

    correct = not problems and failed == 0
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "root_seed": ROOT_SEED,
        "batteries": [list(b) for b in workload.batteries],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(),
        "passes": [{"seconds": p["seconds"], "traced": p["traced"],
                    "order": p["order"], "gates": gates(p["records"]),
                    "records_sha256": digest(p["records"])} for p in passes],
        "records": first,
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        run["tracer"].write_jsonl(OUT / f"{stem}-spans.jsonl")

    for line in summary + [f"problem: {p}" for p in problems]:
        print(line)
    print(f"machine: {json.dumps(detail['machine'])}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
