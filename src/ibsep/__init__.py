"""ibsep: information-bottleneck representations and separating filters.

Submodules
----------
info
    Exact entropies, divergences, mutual information, total correlation.
nn
    Minimal reverse-mode autodiff, MLPs, SGD with momentum.
lgss
    Linear-Gaussian state-space simulation and Kalman filtering oracles.
static_ib
    Static information-bottleneck training and invariance measurement.
seprep
    Separating representations for filtering/prediction; dynamic
    bottleneck training and exact finite-HMM references.
control_sep
    Finite-POMDP belief machinery and the belief-separation checks.
harness
    Experiment batteries, config handling, and the ``sepctl`` CLI.
"""

# harness is not imported here, so `python -m ibsep.harness` loads it once
from . import control_sep, info, lgss, nn, seprep, static_ib

__all__ = ["info", "nn", "lgss", "static_ib", "seprep", "control_sep", "harness"]

__version__ = "0.1.0"
