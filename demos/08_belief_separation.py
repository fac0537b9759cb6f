"""Belief states as sufficient statistics for acting under partial observation.

Brute-force Q-values over complete observation histories are the ground
truth for a finite POMDP.  Grouping histories by their Bayes belief shows
the Q-values depend on the history only through the belief (separation);
a representation that reproduces the belief recovers the optimal values
exactly, while one that forgets observations pays a measurable price.
"""

import numpy as np

from ibsep import control_sep

pomdp = control_sep.belief_collision_pomdp()
print(f"instance: {pomdp.n_states} states, {pomdp.n_actions} actions, "
      f"{pomdp.n_obs} observations, horizon {pomdp.horizon}")

tree = control_sep.brute_force_q(pomdp)
n_hist = len(tree)
report = control_sep.verify_separation(tree)
print(f"  {n_hist} histories -> {report['groups']} distinct beliefs "
      f"(collisions by construction)")
print(f"  max Q spread within a belief group: {report['max_q_spread']:.3e}")

opt = control_sep.optimal_return(tree)
pol = control_sep.policy_return(pomdp, control_sep.belief_policy(tree))
print(f"  optimal return {opt:.10f} vs belief-greedy policy {pol:.10f} "
      f"(gap {abs(opt - pol):.1e})")

print("\nvalue recovery from history representations")
exact = control_sep.reward_sufficiency_check(
    tree, control_sep.exact_belief_representation(pomdp))
counterexample = control_sep.counterexample_pomdp()
blind = control_sep.reward_sufficiency_check(
    control_sep.brute_force_q(counterexample),
    control_sep.collapsing_representation(counterexample))
print(f"  belief-replay representation : max |Q_rep - Q*| = "
      f"{exact['max_dev']:.3e}")
print(f"  observation-blind one        : max |Q_rep - Q*| = "
      f"{blind['max_dev']:.3f}  (pays for what it forgot)")

print("\nfully observed corner case reduces to the MDP answer")
mdp = control_sep.random_pomdp(np.random.default_rng(4), n_states=3,
                               n_actions=2, n_obs=3, horizon=3)
ident = control_sep.FinitePOMDP(trans=mdp.trans, obs=np.eye(3),
                                reward=mdp.reward, b0=mdp.b0,
                                horizon=mdp.horizon)
qs = control_sep.mdp_value_iteration(ident)
root_q = control_sep.brute_force_q(ident).q_levels[0][0]
print(f"  root Q from histories vs b0 @ Q_mdp: max dev = "
      f"{np.max(np.abs(root_q - ident.b0 @ qs[0])):.3e}")
