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
    # TMPDIR keeps the files a demo writes inside the test's directory
    return subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          env=dict(env, TMPDIR=str(tmp_path)),
                          capture_output=True, text=True, timeout=300)


# sha256 of each demo's whole stdout, with its TMPDIR written as <tmp>
STDOUT_SHA256 = {
    "00_autodiff_gradcheck.py":
        "0600bc688963f131cabc34fe79d27295a6f8962070f6864e089ab64429208658",
    "01_information_identities.py":
        "3b1e73ac2c97063152187a1670e1849310b596fef1df60cc5585e5135c9e96d5",
    "02_kalman_oracles.py":
        "3fbbf545a395a9ddb0869c5ec46039c9cdc86d17263197d8860d490c41b9179f",
    "03_static_bottleneck.py":
        "cf540eb0aa8df2c8b93a0c9b1ec21137542e5193f1b757ec9ba765cf54432de7",
    "04_stacked_channels.py":
        "eb57708a41dd446e5658a703678622e78c72d109ac358a532064ee65e587225a",
    "05_weight_information.py":
        "fac202b45a1f4992a8eeb4c2d63a637cfff692d61efcbf786aac216cc7b76524",
    "06_separating_filter.py":
        "ce678aa29dec243cff2299df173e1836b4b9b53b27023523812ecdff8c40262e",
    "07_hmm_prediction_bounds.py":
        "30eb75dc8265fc0d69d69f6b2ec41b7b2ce728d3be8a842d5485d6918b80ec8b",
    "08_belief_separation.py":
        "f8fd892a6d6db19ed17d2bb779c1a32beb7f6155dfa52fd97413f1754cd32e15",
}


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
    # a demo that prints a file path prints it under TMPDIR
    stdout = proc.stdout.replace(str(tmp_path), "<tmp>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256[name], stdout
