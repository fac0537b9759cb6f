"""The paired in-process comparison of ``tools/battery_ab.py``."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "battery_ab.py"
# static-train at a size that runs in a fraction of a second
SMALL = ["--workload", "static-train", "--rounds", "2",
         "--set", "static-ib.encoders=1", "--set", "static-ib.train_seeds=1",
         "--set", "static-ib.train_steps=2", "--set", "static-ib.flatness_steps=2",
         "--set", "gradcheck.models=2"]


@pytest.fixture(scope="module")
def battery_ab():
    spec = importlib.util.spec_from_file_location("battery_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _copy_src(tmp_path):
    shutil.copytree(ROOT / "src" / "ibsep", tmp_path / "src" / "ibsep",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "src"


def test_identical_copies_pass_and_are_timed(battery_ab, tmp_path, capsys):
    assert battery_ab.main([str(ROOT / "src"), str(_copy_src(tmp_path)), *SMALL]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "round 0", "round 1", "parent", "change", "change/parent"]
    assert lines[-1].endswith("of 2 rounds")


def test_a_copy_whose_battery_reports_another_value_fails(battery_ab, tmp_path, capsys):
    src = _copy_src(tmp_path)
    harness = src / "ibsep" / "harness.py"
    report = '_report("gradcheck", "models_checked", opts["models"], clock)'
    text = harness.read_text()
    assert report in text
    harness.write_text(text.replace(report, report.replace('opts["models"]',
                                                           'opts["models"] + 1')))
    assert battery_ab.main([str(ROOT / "src"), str(src), *SMALL]) == 1
    out = capsys.readouterr().out
    assert out.startswith("round 0: records differ: gradcheck record 1: ")
    assert "models_checked" in out


@pytest.mark.parametrize("setting", ["seprep.train_steps=2", "train_steps=2",
                                     "static-ib.train_steps"])
def test_a_setting_outside_the_workload_is_a_usage_error(battery_ab, setting, capsys):
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as err:
        battery_ab.main([src, src, "--workload", "static-train", "--set", setting])
    assert err.value.code == 2
    assert "battery.key=value" in capsys.readouterr().err
