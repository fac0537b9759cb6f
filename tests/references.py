"""Reference implementations that only the tests run.

Each is the plain, unfused or per-step form of something ``ibsep`` does
in one fused node or one batched pass, and a test checks the package
against it: the autodiff ops of the unfused layer and scan chains, the
one-step LGSS predictive, and the array forms of the static and recurrent
bottleneck objectives. The name does not match ``test_*.py``, so pytest
does not collect this module; the tests import it.
"""

import numpy as np

from ibsep import info, lgss, nn, seprep, static_ib

# ---------------------------------------------------------------------------
# autodiff ops of the unfused chains (nn.affine_n and nn.scan_n)
# ---------------------------------------------------------------------------


def matmul(a, b):
    """``a @ b`` over the last two axes; leading (run) axes broadcast."""
    a, b = nn._wrap(a), nn._wrap(b)
    av, bv = a.value, b.value
    return nn.Node(
        av @ bv,
        (a, b),
        (lambda g: nn._unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape),
         lambda g: nn._unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)),
        op="matmul",
    )


def relu_n(x):
    x = nn._wrap(x)
    val = x.value
    mask = val > 0
    return nn.Node(nn._relu(val), (x,), (lambda g: g * mask,), op="relu")


def concat(nodes, axis=-1):
    nodes = [nn._wrap(n) for n in nodes]
    vals = [n.value for n in nodes]
    out = np.concatenate(vals, axis=axis)
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            return g[tuple(index)]

        return vjp

    return nn.Node(out, tuple(nodes), tuple(make_vjp(i) for i in range(len(nodes))),
                   op="concat")


def detach(node):
    """Copy of ``node``'s value with no graph history (stops gradients)."""
    return nn.Node(node.value.copy(), op="const")


# ---------------------------------------------------------------------------
# the one-step LGSS predictive
# ---------------------------------------------------------------------------


def predictive_density(mean, cov, model):
    """Exact one-step predictive p(y_{t+1} | data up to t).

    The posterior (mean, cov) predicts the prior N(m, P) over x_{t+1},
    whose observation density is N(C m, C P Cᵀ + R).
    """
    mean, cov = lgss.kalman_predict(mean, cov, model)
    return info.GaussianDistribution(model.C @ mean, model.C @ cov @ model.C.T + model.R)


# ---------------------------------------------------------------------------
# the bottleneck objectives on arrays
# ---------------------------------------------------------------------------


def ibl_loss(encoder, decoder, batch, config, rng=None):
    """Static bottleneck objective on one batch of (y indices, z labels).

    Returns ``total``, ``cross_entropy_term`` and ``info_term`` as floats;
    total = ce + beta * mean_y KL(q(x|y) || N(0, I)). The KL term upper
    bounds the representation's mutual information with y.
    """
    y_idx, z_idx = batch
    y_idx = np.asarray(y_idx, dtype=int)
    z_idx = np.asarray(z_idx, dtype=int)
    rng = np.random.default_rng(config.seed) if rng is None else rng
    eps = rng.standard_normal((1, y_idx.size, config.rep_dim))
    params = nn.stack_runs([static_ib._named_params(encoder, decoder)])
    total, ce, kl = static_ib._loss_graph(encoder, decoder, nn.parameters(params),
                                          y_idx[None], z_idx[None], eps,
                                          np.array([config.beta]))
    return {
        "total": float(total.value[0]),
        "cross_entropy_term": float(ce.value[0]),
        "info_term": float(kl.value[0]),
    }


def dyn_ibl_loss(model, ys, config, samples=1, rng=None):
    """Recurrent objective total = ce_term + β·info_term over trajectories.

    ``ys`` is (B, T, obs_dim). ce_term is (1/T) Σ_t NLL(y_{t+1} | predict
    from φ_t); info_term is (1/T) Σ_t KL(q(x_t|φ_t) || N(0,I)), the
    per-step upper bound on the representation's information about the
    history. Both are averaged over the batch. This per-step loop is the
    reference the training graph is checked against.
    """
    ys = np.asarray(ys, dtype=float)
    B, T = ys.shape[0], ys.shape[1]
    rngs = None if rng is None else [rng]
    ce_total = info_total = 0.0
    for b in range(B):
        phi = model.initial_phi()
        for t in range(T):
            mu, std = model.posterior_params(phi)
            info_total += float(info.kl_to_standard_normal(mu, std**2, 2.0 * np.log(std)))
            ce_total += float(seprep.predictive_nll(model.predict(phi, samples, rngs),
                                                    ys[b, t]))
            phi = model.step(phi, ys[b, t], t)
    ce_term = ce_total / (B * T)
    info_term = info_total / (B * T)
    return {
        "total": ce_term + config.beta * info_term,
        "ce_term": ce_term,
        "info_term": info_term,
    }
