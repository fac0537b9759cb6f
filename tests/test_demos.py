"""Smoke tests: the user-facing demo scripts run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run_demo(name, env, tmp_path):
    # TMPDIR keeps the files a demo writes inside the test's directory
    return subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          env=dict(env, TMPDIR=str(tmp_path)),
                          capture_output=True, text=True, timeout=300)


def test_kalman_oracles_demo_runs(subprocess_env, tmp_path):
    # the one script that drives riccati_iterate and run_filter end to end
    proc = _run_demo("02_kalman_oracles.py", subprocess_env, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Riccati fixed point" in proc.stdout


# the scripts that call train_ib, train_weight_posterior and train_filter,
# the HMM prediction floors, and the filter and POMDP JSON loaders
@pytest.mark.parametrize("name, marker", [
    ("03_static_bottleneck.py", "invariance slack"),
    ("05_weight_information.py", "curvature bound rhs"),
    ("06_separating_filter.py", "JSON round trip: predictive mean agrees -> True"),
    ("07_hmm_prediction_bounds.py", "n=2: floor 1.62632888, Bayes slack"),
    ("08_belief_separation.py", "JSON round trip exact: True"),
])
def test_training_and_loader_demos_run(name, marker, subprocess_env, tmp_path):
    proc = _run_demo(name, subprocess_env, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout
