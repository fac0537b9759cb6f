"""Smoke tests: the user-facing demo scripts run to completion."""

import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_kalman_oracles_demo_runs(subprocess_env, tmp_path):
    # the one script that drives riccati_iterate and run_filter end to end
    proc = subprocess.run([sys.executable, str(DEMOS / "02_kalman_oracles.py")],
                          cwd=tmp_path, env=subprocess_env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Riccati fixed point" in proc.stdout
