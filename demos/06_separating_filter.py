"""Training a recurrent filter and comparing it to the exact Kalman answer.

A scalar linear-Gaussian process is the cleanest testbed: the Kalman
filter gives the exact one-step predictive, so a learned recurrent
bottleneck filter can be scored against the truth in nats.  The exact
filter also embeds into the same interface, which pins the evaluation
harness itself to zero gap.
"""

import os
import tempfile

import numpy as np

from ibsep import lgss, seprep

model = lgss.LGSSModel(A=[[0.9]], B=np.zeros((1, 0)), C=[[1.0]],
                       Q=[[0.1]], R=[[0.1]], mu0=[0.0], P0=[[1.0]])

print("exact filter embedded behind the learned-filter interface")
wrapped = seprep.KalmanSepFilter(model)
report = seprep.evaluate_vs_kalman(wrapped, model, T=30, num_traj=10,
                                   seed=123, samples=1)
print(f"  NLL gap  = {report['gap']:.3e}   mean KL = {report['mean_kl']:.3e}")

print("\ntraining a recurrent filter from scratch (few hundred steps)")
config = seprep.DynIBConfig(
    beta=1e-3, traj_len=40, steps=400, batch=16, seed=0, rep_dim=4,
    learning_rate=lambda k: 0.04 * min((k + 1) / 100.0, 1.0) / (1.0 + k / 250.0))
source = seprep.lgss_source(model, T=config.traj_len)
trained = seprep.train_filter(source, [config])
learned, curve = trained.runs[0], trained.curves[0]
first, last = curve[0], curve[-1]
print(f"  loss {first['loss']:.4f} -> {last['loss']:.4f} "
      f"(ce {first['ce']:.4f} -> {last['ce']:.4f})")

report = seprep.evaluate_vs_kalman(learned, model, T=50, num_traj=10,
                                   seed=123, samples=64)
rel = report["gap"] / abs(report["nll_kalman"])
print(f"  held-out NLL: learned {report['nll_learned']:.4f} vs "
      f"Kalman {report['nll_kalman']:.4f}  (rel gap {rel:.3%})")
print(f"  mean KL(kalman || learned) = {report['mean_kl']:.4f} nats")

csv_path = os.path.join(tempfile.gettempdir(), "demo_filter_eval.csv")
seprep.write_eval_csv(report["records"], csv_path)
print(f"  per-step rows written to {csv_path}")

path = os.path.join(tempfile.gettempdir(), "demo_filter.json")
seprep.save_filter_json(learned, path)
back = seprep.load_filter_json(path)
a = back.predict(back.initial_phi(), 1, None)
b = learned.predict(learned.initial_phi(), 1, None)
print(f"  JSON round trip: predictive mean agrees -> "
      f"{np.allclose(a['mean'], b['mean']) and np.allclose(a['cov'], b['cov'])}")
