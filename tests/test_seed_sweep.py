"""The metrics comparison of ``tools/seed_sweep.py --against``."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"


@pytest.fixture(scope="module")
def seed_sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, files):
    for name, text in files.items():
        path = root / name / "metrics.csv"
        path.parent.mkdir(parents=True)
        path.write_text(text)
    return root


ROWS = {"info": "experiment,key,value\ninfo,a,0.5\n",
        "kalman": "experiment,key,value\nkalman,b,1.0\nkalman,c,2.0\n"}


def test_identical_runs_have_no_difference(seed_sweep, tmp_path):
    mine = _write(tmp_path / "mine", ROWS)
    other = _write(tmp_path / "other", ROWS)
    assert seed_sweep.first_difference(mine, other) is None


@pytest.mark.parametrize("changed, expected", [
    ({"kalman": "experiment,key,value\nkalman,b,1.0\nkalman,c,2.0000000000000004\n"},
     "kalman/metrics.csv row 3: 'kalman,c,2.0' here, 'kalman,c,2.0000000000000004' there"),
    ({"kalman": "experiment,key,value\nkalman,b,1.0\n"},
     "kalman/metrics.csv row 3: 'kalman,c,2.0' here, '<none>' there"),
    ({"control-sep": "experiment\n"},
     "control-sep/metrics.csv is missing from this checkout's run"),
    ({"info": ROWS["info"].replace("\n", "\r\n")},
     "info/metrics.csv differs in its line endings"),
], ids=["value", "row-missing", "file-missing", "line-endings"])
def test_the_first_difference_is_named(seed_sweep, tmp_path, changed, expected):
    mine = _write(tmp_path / "mine", ROWS)
    other = _write(tmp_path / "other", {**ROWS, **changed})
    assert seed_sweep.first_difference(mine, other) == expected
