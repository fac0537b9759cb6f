"""Every user-facing demo script runs to completion and prints the very
same output as recorded.

The stdout digests were recorded with numpy 2.4 and OpenBLAS on x86-64;
another BLAS build may move the last printed digit of a number and so
change them.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run_demo(name, env, tmp_path):
    return subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


# sha256 of each demo's whole stdout
STDOUT_SHA256 = {
    "00_autodiff_gradcheck.py":
        "0600bc688963f131cabc34fe79d27295a6f8962070f6864e089ab64429208658",
    "01_information_identities.py":
        "3b1e73ac2c97063152187a1670e1849310b596fef1df60cc5585e5135c9e96d5",
    "02_kalman_oracles.py":
        "54ddfb4f44405d9152fdce819fdf9f61389929520b7c86abddb05128a1b559a7",
    "03_static_bottleneck.py":
        "cf540eb0aa8df2c8b93a0c9b1ec21137542e5193f1b757ec9ba765cf54432de7",
    "04_stacked_channels.py":
        "eb57708a41dd446e5658a703678622e78c72d109ac358a532064ee65e587225a",
    "05_weight_information.py":
        "fac202b45a1f4992a8eeb4c2d63a637cfff692d61efcbf786aac216cc7b76524",
    "06_separating_filter.py":
        "67919afedcae7733bef1203fe1443775f7bcc8cdaadc1bf9bf042d1e74c3a7fe",
    "07_hmm_prediction_bounds.py":
        "30eb75dc8265fc0d69d69f6b2ec41b7b2ce728d3be8a842d5485d6918b80ec8b",
    "08_belief_separation.py":
        "3b13a4ed0ce90d7e8f5648f33680fd310fc28ea290e4f227b7ff79f0fae9a56d",
}


# one line of each demo's output: the gradient check, the closed-form
# Gaussian KL, riccati_iterate and run_filter end to end, the stacked
# channels, train_ib, train_weight_posterior, train_filter scored by
# evaluate_vs_kalman, the HMM prediction floors, and the POMDP history tree
# against mdp_value_iteration
@pytest.mark.parametrize("name, marker", [
    ("00_autodiff_gradcheck.py", "worst over all parameters"),
    ("01_information_identities.py", "KL(N(m, C) || N(0, I)) = 0.234486"),
    ("02_kalman_oracles.py", "Riccati fixed point"),
    ("03_static_bottleneck.py", "invariance slack"),
    ("04_stacked_channels.py", "I(x2;y) = 1.386294361120  (identical)"),
    ("05_weight_information.py", "curvature bound rhs"),
    ("06_separating_filter.py", "held-out NLL: learned"),
    ("07_hmm_prediction_bounds.py", "n=2: floor 1.62632888, Bayes slack"),
    ("08_belief_separation.py", "root Q from histories vs b0 @ Q_mdp"),
])
def test_training_and_loader_demos_run(name, marker, subprocess_env, tmp_path):
    proc = _run_demo(name, subprocess_env, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[name], proc.stdout
