"""Exact prediction-loss floors on a finite HMM.

On a small hidden Markov chain every observation history can be
enumerated, so the entropy floor on sequential prediction loss is exact,
and any candidate predictor's slack above it can be computed to machine
precision.  The Bayes filter sits exactly on the floor; a predictor that
ignores its history pays precisely the mutual information it discards.
"""

import numpy as np

from ibsep import seprep

hmm = seprep.FiniteHMM(trans=[[0.8, 0.2], [0.3, 0.7]],
                       emit=[[0.9, 0.1], [0.2, 0.8]],
                       init=[0.6, 0.4])
T = 6

ref = seprep.hmm_exact_reference(hmm, T)
print(f"entropy floor at T={T}: {ref['entropy_lower_bound']:.12f} nats/step")
depth3 = [p for p in ref["prefix_probs"] if len(p) == 3]
print(f"  enumerated {len(depth3)} histories at depth 3, "
      f"total prob {sum(ref['prefix_probs'][p] for p in depth3):.12f}")

print("\nthree candidates, exact slack above the floor")
for name, cand in [
    ("Bayes posterior replay", seprep.exact_posterior_candidate(hmm)),
    ("history-blind marginal", seprep.marginal_candidate(hmm, T)),
]:
    out = seprep.nstep_bound_check(ref, cand)
    print(f"  {name:24s}: loss {out['loss']:.8f}  slack {out['slack']:.3e}")

rng = np.random.default_rng(0)
worst = None
for _ in range(5):
    table = rng.dirichlet(np.ones(hmm.n_obs), size=64)

    def cand(history, k, table=table):
        return table[hash((tuple(history), k)) % 64]

    out = seprep.nstep_bound_check(ref, cand)
    worst = out if worst is None or out["slack"] < worst["slack"] else worst
print(f"  {'random lookup tables(5)':24s}: min slack {worst['slack']:.6f} "
      f"(never below zero)")

print("\nmulti-step floors (predicting k steps ahead as well)")
for n in (0, 1, 2):
    ref_n = seprep.hmm_exact_reference(hmm, T, n=n)
    out = seprep.nstep_bound_check(ref_n, seprep.exact_posterior_candidate(hmm))
    print(f"  n={n}: floor {ref_n['entropy_lower_bound']:.8f}, "
          f"Bayes slack {out['slack']:.3e}")
