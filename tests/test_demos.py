"""Smoke tests: every user-facing demo script runs to completion."""

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


# one line of each demo's output: the gradient check, the closed-form
# Gaussian KL, riccati_iterate and run_filter end to end, the stacked
# channels, train_ib, train_weight_posterior and train_filter, the HMM
# prediction floors, and the filter and POMDP JSON loaders
@pytest.mark.parametrize("name, marker", [
    ("00_autodiff_gradcheck.py", "worst over all parameters"),
    ("01_information_identities.py", "KL(N(m, C) || N(0, I)) = 0.234486"),
    ("02_kalman_oracles.py", "Riccati fixed point"),
    ("03_static_bottleneck.py", "invariance slack"),
    ("04_stacked_channels.py", "I(x2;y) = 1.386294361120  (identical)"),
    ("05_weight_information.py", "curvature bound rhs"),
    ("06_separating_filter.py", "JSON round trip: predictive mean agrees -> True"),
    ("07_hmm_prediction_bounds.py", "n=2: floor 1.62632888, Bayes slack"),
    ("08_belief_separation.py", "JSON round trip exact: True"),
])
def test_training_and_loader_demos_run(name, marker, subprocess_env, tmp_path):
    proc = _run_demo(name, subprocess_env, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout
