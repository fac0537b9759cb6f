"""The separate-process pairs of ``tools/bench_pairs.py``, on stub checkouts."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"

# prints a fixed result line after a detail line, and logs its arguments
STUB = '''import json, sys
from pathlib import Path
with open(Path(__file__).resolve().parents[2] / "calls.log", "a") as fh:
    fh.write(json.dumps([Path.cwd().name, sys.argv[1:]]) + "\\n")
print("certify_s over 3 passes: median 0")
print(json.dumps({RESULT}))
'''


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(tmp_path, name, certify_s, peak_rss_mb=70.0, correct=True):
    root = tmp_path / name
    (root / "benchmarks").mkdir(parents=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench["command"] = [sys.executable, "benchmarks/run.py"]
    (root / "BENCHMARK.json").write_text(json.dumps(bench))
    metrics = {"certify_s": certify_s, "setup_s": 0.5, "peak_rss_mb": peak_rss_mb,
               "gate_pass_ratio": 1.0}
    result = {"correct": correct, "attempted": 8, "failed": 0,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    (root / "benchmarks" / "run.py").write_text(STUB.replace("{RESULT}", repr(result)))
    return root


def _calls(tmp_path):
    return [json.loads(line) for line in (tmp_path / "calls.log").read_text().splitlines()]


def test_pairs_alternate_and_report_every_end_to_end_metric(bench_pairs, tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 1.0)
    change = _checkout(tmp_path, "change", 0.5, peak_rss_mb=80.0)
    assert bench_pairs.main([str(parent), str(change), "--workload", "exact-oracles",
                             "--pairs", "2"]) == 0
    seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    assert _calls(tmp_path) == [
        [side, ["--workload", "exact-oracles", "--seed", seed, "--seconds", seconds,
                "--trace", "0"]]
        for side, seed in (("parent", "1"), ("change", "1"), ("change", "2"),
                           ("parent", "2"))]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pair 1: certify_s parent 1.0000, change 0.5000")
    report = {line.split(" ")[0]: line for line in lines[2:]}
    assert report["certify_s"].endswith("change better in 2 of 2 pairs; claim holds")
    assert report["setup_s"].endswith("change better in 0 of 2 pairs; claim not met")
    assert report["peak_rss_mb"].endswith("change better in 0 of 2 pairs; claim not met")
    assert lines[-1] == "worse than its bound: peak_rss_mb (bound 5%)"


def test_a_run_that_is_not_correct_exits_1(bench_pairs, tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 1.0)
    change = _checkout(tmp_path, "change", 0.5, correct=False)
    assert bench_pairs.main([str(parent), str(change), "--workload", "exact-oracles",
                             "--pairs", "3"]) == 1
    assert capsys.readouterr().out.startswith("pair 1: change run failed: the run is not correct")
    assert len(_calls(tmp_path)) == 2


def test_an_unknown_workload_is_a_usage_error(bench_pairs, tmp_path):
    parent = _checkout(tmp_path, "parent", 1.0)
    with pytest.raises(SystemExit) as err:
        bench_pairs.main([str(parent), str(parent), "--workload", "no-such"])
    assert err.value.code == 2
