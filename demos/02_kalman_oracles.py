"""Kalman filtering cross-checked against two independent oracles.

Simulates a random stable linear-Gaussian model, runs the recursive filter,
and compares the posterior at a few times against the batch joint-Gaussian
conditioning oracle (which never recurses).  Then iterates the Riccati map
to its fixed point and checks the filter covariance converges to it.
"""

import numpy as np

from ibsep import lgss

rng = np.random.default_rng(7)
model = lgss.random_stable_model(rng, n=3, m=2)
traj = lgss.simulate(model, T=40, rng=rng)
print(f"simulated T={traj.T}, state dim {model.n}, obs dim {model.m}")

(means, covs), (pred_means, pred_covs) = lgss.run_filter(model, [traj])
(loglik,) = lgss.predictive_loglik([traj], pred_means, pred_covs)
print(f"total predictive log-likelihood: {loglik:.4f}")
for t in (5, 20, 40):
    oracle = lgss.batch_posterior_oracle(model, traj, t)
    dev = max(np.max(np.abs(means[0, t - 1] - oracle.mean)),
              np.max(np.abs(covs[0, t - 1] - oracle.cov)))
    print(f"  t={t:2d}: recursive vs batch-conditioning posterior, "
          f"max dev {dev:.3e}")

print("\nRiccati fixed point vs long-run filter covariance")
P_star = lgss.riccati_iterate(model, np.eye(model.n), 5000)
(_, long_covs), _ = lgss.run_filter(model, [lgss.simulate(model, 1000, rng)])
print(f"  ||P_filter(1000) - P*||_max = "
      f"{np.max(np.abs(long_covs[0, -1] - P_star)):.3e}")
print(f"  steady posterior variance diag: {np.round(np.diag(P_star), 6)}")
