"""Exact information measures on small discrete systems.

Everything in ibsep.info is enumeration, not estimation: joints are
explicit tables, so identities hold to machine precision and make good
oracles for the rest of the library.
"""

import numpy as np

from ibsep import info

rng = np.random.default_rng(0)

# a random prior over x and a random channel x -> y
prior = info.DiscreteDistribution(rng.dirichlet(np.ones(4)))
channel = info.DiscreteChannel(rng.dirichlet(np.ones(3), size=4))
joint = info.joint_from_prior_channel(prior, channel)

print("I(x;y) two ways")
sides = info.mi_identity_check(prior, channel)
print(f"  from the joint table      : {sides['lhs']:.12f}")
print(f"  as E_y KL(p(x|y) || p(x)) : {sides['rhs']:.12f}")
print(f"  difference                : {abs(sides['lhs'] - sides['rhs']):.2e}")

print("\ncross-entropy = entropy + KL")
p = info.DiscreteDistribution(rng.dirichlet(np.ones(5)))
q = info.DiscreteDistribution(rng.dirichlet(np.ones(5)))
ce = info.cross_entropy_discrete(p, q)
print(f"  H_x(p, q)        : {ce:.12f}")
print(f"  H(p) + KL(p||q)  : {info.entropy(p) + info.kl_discrete(p, q):.12f}")

print("\ntotal correlation vanishes iff the components are independent")
px = rng.dirichlet(np.ones(3))
py = rng.dirichlet(np.ones(3))
independent = info.DiscreteJoint(("x", "y"), np.outer(px, py))
coupled = info.DiscreteJoint(("x", "y"), np.diag(px))
print(f"  product joint : TC = {info.total_correlation_discrete(independent):.2e}")
print(f"  diagonal joint: TC = {info.total_correlation_discrete(coupled):.6f}")
print(f"  (equals H(x) = {info.entropy(info.DiscreteDistribution(px)):.6f} "
      "when y is a copy of x)")

print("\nGaussian KL and TC in closed form")
cov = np.array([[1.0, 0.6], [0.6, 1.5]])
kl = info.kl_gaussian(np.array([0.3, -0.1]), cov, np.zeros(2), np.eye(2))
print(f"  KL(N(m, C) || N(0, I)) = {kl:.6f}")
print(f"  TC of C (off-diagonal coupling) = "
      f"{info.total_correlation_gaussian(cov):.6f}")
