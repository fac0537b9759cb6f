"""Information stored in weights, and a flatness readout of a minimum.

A factorized Gaussian posterior over the weights of a small classifier is
trained with a KL-to-prior penalty.  Raising the penalty strength beta
squeezes the bits the weights carry about the dataset; the curvature
diagnostic then relates that information to how flat the loss basin is.
"""

import numpy as np

from ibsep import nn, static_ib

rng = np.random.default_rng(2)
xs = np.vstack([rng.normal(-1.0, 0.4, (20, 2)),
                rng.normal(1.0, 0.4, (20, 2))])
labels = np.array([0] * 20 + [1] * 20)

print("penalty sweep: KL(q||p) falls as beta grows, fit degrades gently")
for beta in (1e-4, 1e-2, 1.0):
    post, kl, ce = static_ib.train_weight_posterior(
        xs, labels, [2, 4, 2], beta, seed=0, steps=200)
    print(f"  beta={beta:7.4f}: weight info KL = {kl:8.3f} nats, "
          f"train CE = {ce:.4f}")

print("\nflatness diagnostic at a trained minimum")
post, kl, ce = static_ib.train_weight_posterior(
    xs, labels, [2, 4, 2], 1e-2, seed=0, steps=200)
names = sorted(post.mu)
shapes = [post.mu[k].shape for k in names]
sizes = [int(np.prod(s)) for s in shapes]


def unflatten(w):
    parts, at = {}, 0
    for name, shape, size in zip(names, shapes, sizes):
        parts[name] = w[at:at + size].reshape(shape)
        at += size
    return parts


def loss(w):
    logits = nn.forward(post.template.with_params(unflatten(w)), xs).value
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -float(np.mean(logp[np.arange(labels.size), labels]))


w_hat = np.concatenate([post.mu[k].ravel() for k in names])
out = static_ib.flatness_diagnostic(loss, w_hat, beta=1e-2)
print(f"  all curvature probes finite : {out['finite']}")
print(f"  Hessian trace (2nd diffs)   : {out['hessian_trace']:.4f}")
print(f"  posterior info estimate     : {out['info_estimate']:.4f} nats")
print(f"  curvature bound rhs         : {out['bound_rhs']:.4f}")

print("\nsanity: quadratic loss with known curvature")
lam, K = 0.7, 6
probe = static_ib.flatness_diagnostic(
    lambda w: 0.5 * lam * float(np.dot(w, w)), np.full(K, 0.3), beta=1e-2)
print(f"  measured trace {probe['hessian_trace']:.8f} vs exact {lam * K}")
