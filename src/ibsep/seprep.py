"""Learned separating representations for time series.

A recurrent filter keeps a finite-dimensional statistic φ_t of the
observations y^t and uses it two ways: a decoder predicts the next
observation from a sample of the diagonal-Gaussian posterior q(x_t | φ_t),
and an update network maps (φ_t, y_{t+1}) to φ_{t+1}. The update consumes
only the previous statistic and the new data — no observation likelihood
is ever evaluated, which is the structural point of the construction.
Training minimizes the per-step prediction cross-entropy plus β times a
closed-form KL(q(x_t|φ_t) || N(0, I)) information penalty. A β × seed
sweep trains as one graph with its runs stacked on a leading run axis, and
the filters step and predict over a batch of statistics, so an evaluation
advances all of its trajectories together.

A filter follows a duck-typed protocol: ``initial_phi()``, ``step(phi,
y_next, t)`` and ``predict(phi, samples, rng)`` (a Gaussian predictive of
the next observation, which :func:`predictive_nll` scores). The learned
filter has one shape, the one the batteries certify: no control inputs,
one decoder head for the next observation, one posterior sample per step
in training, truncated backpropagation every :data:`TBPTT` steps and
:data:`HIDDEN` hidden layers in the update and the decoder.

Two exact references keep the learner honest: a hand-built filter that
packs the Kalman mean and covariance into φ and reproduces the optimal
predictive density in closed form, and full enumeration of small HMMs,
which yields the entropy lower bound that every history-to-prediction
candidate must respect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import control_sep, info, lgss, nn

__all__ = [
    "SepFilterModel",
    "DynIBConfig",
    "FiniteHMM",
    "KalmanSepFilter",
    "init_sep_filter",
    "predictive_nll",
    "train_filter",
    "lgss_source",
    "evaluate_vs_kalman",
    "hmm_exact_reference",
    "nstep_bound_check",
    "exact_posterior_candidate",
    "marginal_candidate",
]

LOG2PI = math.log(2.0 * math.pi)
HIDDEN = (32,)  # hidden widths of the update network and of the decoder
TBPTT = 16  # training detaches the statistic every TBPTT steps


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SepFilterModel:
    """Recurrent filter with posterior parameters φ ∈ R^{2d}.

    ``update`` maps (φ_t, y_{t+1}) to φ_{t+1}; ``head`` maps a sample of
    x_t to the (mean, log-std) of a diagonal Gaussian over the next
    observation. Log-stds are clamped to [-6, 2] wherever they are
    interpreted.
    """

    rep_dim: int
    obs_dim: int
    update: nn.MLP
    head: nn.MLP
    phi0: np.ndarray

    def __post_init__(self):
        d = self.rep_dim
        if self.update.widths[0] != 2 * d + self.obs_dim:
            raise ValueError("update network input dimension inconsistent")
        if self.update.widths[-1] != 2 * d:
            raise ValueError("update network output dimension inconsistent")
        if self.head.widths[0] != d:
            raise ValueError("decoder head input dimension inconsistent")
        if self.head.widths[-1] != 2 * self.obs_dim:
            raise ValueError("decoder head output dimension inconsistent")
        phi0 = np.asarray(self.phi0, dtype=float).reshape(2 * d)
        object.__setattr__(self, "phi0", phi0)

    # -- parameter plumbing -------------------------------------------------

    def params(self) -> dict:
        out = {"phi0": self.phi0}
        for name, value in self.update.params().items():
            out[f"upd.{name}"] = value
        for name, value in self.head.params().items():
            out[f"dec0.{name}"] = value
        return out

    def with_params(self, params: dict) -> "SepFilterModel":
        return SepFilterModel(self.rep_dim, self.obs_dim,
                              self.update.with_params(nn.param_group(params, "upd")),
                              self.head.with_params(nn.param_group(params, "dec0")),
                              params["phi0"])

    # -- filtering protocol ---------------------------------------------------

    def initial_phi(self) -> np.ndarray:
        return self.phi0.copy()

    def posterior_params(self, phi):
        """(mean, std) of q(x | φ); a batch of statistics gives one row each."""
        phi = np.asarray(phi, dtype=float)
        mu = phi[..., : self.rep_dim]
        log_std = np.clip(phi[..., self.rep_dim :], nn.LOG_STD_MIN, nn.LOG_STD_MAX)
        return mu, np.exp(log_std)

    def step(self, phi, y_next, t=None):
        """Advance the statistic one step: φ_{t+1} = g(φ_t, y_{t+1}).

        Purely functional and deterministic; raises with the time index when
        the update produces a non-finite state. A 2-D ``phi`` is a batch of
        statistics, one per row, advanced together; ``y_next`` then holds
        one row each.
        """
        phi = np.asarray(phi, dtype=float)
        y_next = np.asarray(y_next, dtype=float).reshape(*phi.shape[:-1], self.obs_dim)
        out = nn.forward(self.update, np.concatenate([phi, y_next], axis=-1)).value
        if not np.all(np.isfinite(out)):
            at = "" if t is None else f" at step {t}"
            raise FloatingPointError(f"filter update produced non-finite state{at}")
        return out

    def predict(self, phi, samples=1, rng=None) -> dict:
        """Monte-Carlo predictive of the next observation from ``samples``
        posterior draws.

        ``rng`` is a sequence of one Generator per statistic, or None: the
        draw then collapses to the posterior mean — the degenerate/Dirac
        evaluation. The result holds the mixture components and the
        moment-matched (mean, cov).

        A 2-D ``phi`` is a batch of N statistics, and every returned array
        gains a leading axis of N; row i draws from ``rng[i]`` exactly what
        a lone prediction from that Generator would.
        """
        phi = np.asarray(phi, dtype=float)
        mu, sigma = self.posterior_params(phi.reshape(-1, 2 * self.rep_dim))
        N = mu.shape[0]
        if rng is None:
            eps = np.zeros((N, samples, self.rep_dim))
        else:
            eps = np.stack([r.standard_normal((samples, self.rep_dim)) for r in rng])
        x = mu[:, None] + sigma[:, None] * eps  # (N, samples, d)
        out = nn.forward(self.head, x.reshape(N * samples, -1)).value
        out = out.reshape(N, samples, -1)
        means = out[..., : self.obs_dim]
        log_stds = np.clip(out[..., self.obs_dim :], nn.LOG_STD_MIN, nn.LOG_STD_MAX)
        variances = np.exp(2.0 * log_stds)
        mean = means.mean(axis=-2)
        var = (variances + means**2).mean(axis=-2) - mean**2
        cov = np.zeros((N, self.obs_dim, self.obs_dim))
        diag = np.arange(self.obs_dim)
        cov[:, diag, diag] = np.maximum(var, 1e-300)
        params = {"mean": mean, "cov": cov, "component_means": means,
                  "component_vars": variances}
        if phi.ndim == 1:
            params = {key: value[0] for key, value in params.items()}
        return params


def init_sep_filter(rep_dim, obs_dim, rng=None) -> SepFilterModel:
    """Seeded construction: the update network first, then the decoder."""
    rng = np.random.default_rng(0) if rng is None else rng
    activations = ["relu"] * len(HIDDEN) + ["identity"]
    update = nn.init_mlp([2 * rep_dim + obs_dim, *HIDDEN, 2 * rep_dim], activations, rng)
    head = nn.init_mlp([rep_dim, *HIDDEN, 2 * obs_dim], activations, rng)
    phi0 = np.zeros(2 * rep_dim)  # q(x_0) starts at the reference N(0, I)
    return SepFilterModel(rep_dim, obs_dim, update, head, phi0)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynIBConfig:
    """Training configuration for the recurrent bottleneck objective."""

    beta: float
    traj_len: int
    steps: int
    batch: int
    seed: int
    rep_dim: int = 4
    learning_rate: float = 0.03
    momentum: float = 0.9

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.traj_len < 1:
            raise ValueError(f"traj_len must be at least 1, got {self.traj_len!r}")


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def lgss_source(model: lgss.LGSSModel, T: int):
    """Observation source drawing from a linear-Gaussian state-space model.

    A draw of ``batch`` trajectories is bit-identical to ``batch``
    successive ``lgss.simulate`` calls on the same rng: both run
    the one sampler of :mod:`ibsep.lgss`, each trajectory one row of a
    standard-normal block. Given R generators, run r draws its block from
    the r-th, one state recursion covers all R·batch rows, and a leading
    run axis is added.
    """

    def draw(batch, rng):
        lone = isinstance(rng, np.random.Generator)
        rngs = [rng] if lone else list(rng)
        lead = (batch,) if lone else (len(rngs), batch)
        return lgss._rollouts(model, T, rngs, batch)[1].reshape(*lead, T, model.m)

    return draw


def _sep_loss_graph(model, param_nodes, ys, eps_draws, beta):
    """Recurrent training graph of R runs; returns (R,) total, ce, info nodes.

    ``ys`` (R, B, T, obs_dim), ``eps_draws`` (R, T, B, d) and every
    parameter carry a leading run axis of R (biases and φ_0 as (R, 1, ·)),
    and ``beta`` holds each run's β. The update φ_t → φ_{t+1} (detached
    every :data:`TBPTT` steps) is one :func:`~ibsep.nn.scan_n` node over
    the columns y_t. Its value stacks each run's statistics φ_0..φ_{T-1}
    time-major into (T·B, 2d) rows, row t·B + b holding trajectory b at
    step t, and the KL and the decoder are evaluated once over them. Row
    t·B + b of the decoder's input is x_t = μ + σ·ε with ε =
    ``eps_draws[r, t, b]``, so the draws reshape to the rows. Every sum is
    per run, so entry r of each returned node depends on run r alone.
    """
    R, B, T = ys.shape[:3]
    d = model.rep_dim
    upd_nodes = nn.param_group(param_nodes, "upd")
    layers = [(upd_nodes[f"W{k}"], upd_nodes[f"b{k}"], act == "relu")
              for k, act in enumerate(model.update.activations)]
    stacked = nn.scan_n(param_nodes["phi0"], layers, ys, TBPTT)
    x, kl = nn.gaussian_bottleneck_n(stacked, eps_draws.reshape(R, T * B, d))
    out = nn.forward(model.head, x, param_nodes=nn.param_group(param_nodes, "dec0"))
    mean = out[..., : model.obs_dim]
    dls = nn.clip_n(out[..., model.obs_dim :], nn.LOG_STD_MIN, nn.LOG_STD_MAX)
    z = ys.swapaxes(1, 2).reshape(R, T * B, -1)  # time-major, as the rows
    resid = (nn.constant(z) - mean) * (-dls).exp()
    nll = (0.5 * resid.square() + dls + 0.5 * LOG2PI).sum(axis=(-2, -1))
    ce = nll * (1.0 / (B * T))
    total = ce + kl * beta
    return total, ce, kl


def train_filter(source, configs):
    """Train SepFilterModels on trajectories from ``source``.

    ``source(batch, rng)`` returns the observations ``ys`` of shape
    (B, T, obs_dim); given a sequence of R generators, as once per step
    here, it adds a leading axis of R whose entry r is what
    ``source(batch, rngs[r])`` returns. ``configs`` is a list or tuple of
    :class:`DynIBConfig` that differ only in β, seed and learning rate; a
    bare config is a ``ValueError``. The R runs train as one graph with
    every parameter stacked on a leading run axis, so each step builds one
    graph instead of R. Gradients flow through the recurrent update with
    truncation every :data:`TBPTT` steps, and each step draws one posterior
    sample per trajectory and time step. Run r keeps its own init, data and
    noise streams from its seed, so its parameters and curve are
    bit-identical to its config trained as a one-run sweep. Returns a
    :class:`~ibsep.nn.TrainedSweep` whose ``runs[r]`` is run r's trained
    model and whose curves record (step, loss, ce, info). Raises
    :class:`~ibsep.nn.TrainingDiverged` naming the step and the run's β
    and seed on a non-finite loss or gradient.
    """
    configs = nn.sweep_configs(configs)
    first = configs[0]
    streams = [np.random.SeedSequence(cfg.seed).spawn(3) for cfg in configs]
    data_rngs = [np.random.default_rng(data_ss) for _, data_ss, _ in streams]
    noise_rngs = [np.random.default_rng(noise_ss) for _, _, noise_ss in streams]

    obs_dim = np.shape(source(1, np.random.default_rng(streams[0][1])))[2]
    models = [init_sep_filter(first.rep_dim, obs_dim, np.random.default_rng(init_ss))
              for init_ss, _, _ in streams]
    T = first.traj_len
    betas = np.array([cfg.beta for cfg in configs])

    def loss(params, step):
        ys = np.asarray(source(first.batch, data_rngs))
        if ys.shape[2] != T:
            raise ValueError("source produced trajectories of the wrong length")
        eps = np.stack([rng.standard_normal((T, first.batch, first.rep_dim))
                        for rng in noise_rngs])
        total, ce, kl = _sep_loss_graph(models[0], nn.parameters(params), ys, eps, betas)
        return total, {"ce": ce.value.tolist(), "info": kl.value.tolist()}

    params, curves, curve = nn.fit_sweep(configs, [m.params() for m in models], loss)
    runs = tuple(model.with_params(p) for model, p in zip(models, params))
    return nn.TrainedSweep(runs, curves, curve)


# ---------------------------------------------------------------------------
# Kalman oracle embedding
# ---------------------------------------------------------------------------


class KalmanSepFilter:
    """The Kalman filter packed into the filtering protocol.

    φ stacks the posterior mean and flattened covariance, the update is the
    exact Kalman predict/update map — a deterministic function of
    (φ_t, y_{t+1}), which is what makes the Kalman filter itself a
    separating statistic — and the predictive is the closed-form Gaussian.
    Like :class:`SepFilterModel`, ``step`` and ``predict`` take a 2-D
    ``phi`` as a batch of statistics (a lone one is the one-row batch). The
    rows whose covariance blocks are equal byte for byte share one Kalman
    call over their batch of means.
    """

    def __init__(self, model: lgss.LGSSModel):
        self.model = model

    def initial_phi(self) -> np.ndarray:
        return np.concatenate([self.model.mu0, self.model.P0.ravel()])

    def _predicted(self, phi):
        """(rows, prior means, prior cov) per covariance group of a 2-D ``phi``."""
        n = self.model.n
        groups = {}
        for i, row in enumerate(phi):
            groups.setdefault(row[n:].tobytes(), []).append(i)
        for rows in groups.values():
            yield rows, *lgss.kalman_predict(phi[rows, :n], phi[rows[0], n:].reshape(n, n),
                                             self.model)

    def step(self, phi, y_next, t=None):
        phi = np.asarray(phi, dtype=float)
        batch = np.atleast_2d(phi)
        N, n = len(batch), self.model.n
        ys, out = np.reshape(y_next, (N, self.model.m)), np.empty_like(batch)
        for rows, mean, cov in self._predicted(batch):
            out[rows, :n], cov = lgss.kalman_update(mean, cov, ys[rows], self.model)
            out[rows, n:] = cov.ravel()
        return out.reshape(phi.shape)

    def predict(self, phi, samples=1, rng=None) -> dict:
        phi = np.asarray(phi, dtype=float)
        batch = np.atleast_2d(phi)
        N, C, R = len(batch), self.model.C, self.model.R
        means, covs = np.empty((N, self.model.m)), np.empty((N, *R.shape))
        for rows, mean, cov in self._predicted(batch):
            means[rows] = lgss._finite(lgss._matvec(C, mean))
            covs[rows] = lgss._finite_symmetric(C @ cov @ C.T + R)
        if phi.ndim == 1:
            means, covs = means[0], covs[0]
        return {"mean": means, "cov": covs, "component_means": None,
                "component_vars": None}


# ---------------------------------------------------------------------------
# evaluation against the Kalman oracle
# ---------------------------------------------------------------------------


def _logsumexp(a):
    """log Σ exp(a) over the last axis, in scipy.special.logsumexp's order.

    With M the maximum and m the count of entries equal to it, the result
    is log1p(s / m) + log(m) + M, s the sum of exp(a - M) over the other
    entries; where that is not finite (M infinite or NaN), it is the plain
    log of the sum of exp(a).
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        plain = np.log(np.exp(a).sum(axis=-1))
        top = a.max(axis=-1, keepdims=True)
        is_top = a == top
        count = is_top.sum(axis=-1, dtype=float)
        rest = np.exp(np.where(is_top, -np.inf, a) - top).sum(axis=-1)
        rest = np.where(rest == 0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + top[..., 0]
    return np.where(np.isfinite(out), out, plain)


def predictive_nll(params: dict, z):
    """Negative log-likelihood of targets under predictive parameters.

    The predictive of one statistic scores a lone target as a 0-d result;
    that of a batch of N statistics scores N targets, one row each. An
    exact predictive is scored as its Gaussian, a Monte Carlo one as the
    equal-weight mixture of its diagonal-Gaussian components, which are on
    axis -2 of ``component_means`` and ``component_vars``.
    """
    z = np.asarray(z, dtype=float)
    means = params.get("component_means")
    if means is None:
        return -info.gaussian_logpdf(params["mean"], params["cov"], z)
    variances = params["component_vars"]
    logps = -0.5 * (np.sum((z[..., None, :] - means) ** 2 / variances, axis=-1)
                    + np.sum(np.log(variances), axis=-1) + z.shape[-1] * LOG2PI)
    return -(_logsumexp(logps) - math.log(means.shape[-2]))


def evaluate_vs_kalman(model, lgss_model: lgss.LGSSModel, T: int, num_traj: int,
                       seed: int, samples: int = 64) -> dict:
    """Held-out comparison of a filter against the exact Kalman predictives.

    Fresh trajectories are simulated from ``lgss_model``; for every step
    the learned one-step predictive of y_{t+1} is scored beside the Kalman
    one. Returns nll_learned, nll_kalman, their gap, and
    mean_kl = average KL(kalman || moment-matched learned); ``records``
    carries the per-(trajectory, step) rows.

    All trajectories advance together: one ``lgss.run_filter`` call gives
    their Kalman predictives, at each step the model predicts and updates
    once over the (num_traj, ·) batch of statistics, and the NLLs and KLs
    are scored in closed form over the batch. Trajectory j
    keeps its own simulation and sampling streams, drawn step by step, so
    its rows do not depend on the trajectories beside it. A non-finite
    learned predictive raises ``ValueError``.
    """
    streams = [child.spawn(2) for child in np.random.SeedSequence(seed).spawn(num_traj)]
    sim_rngs = [np.random.default_rng(sim_ss) for sim_ss, _ in streams]
    eval_rngs = [np.random.default_rng(eval_ss) for _, eval_ss in streams]
    xs, ys = lgss._rollouts(lgss_model, T, sim_rngs, 1)
    trajs = [lgss.Trajectory(x=x, y=y) for x, y in zip(xs, ys)]
    _, (kal_means, kal_covs) = lgss.run_filter(lgss_model, trajs)
    nll_learned = np.empty((num_traj, T))
    kls = np.empty((num_traj, T))
    phi = np.stack([model.initial_phi()] * num_traj)
    for t in range(T):
        params = model.predict(phi, samples, eval_rngs)
        mean, cov = params["mean"], params["cov"]
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError(f"non-finite learned predictive at step {t}")
        nll_learned[:, t] = predictive_nll(params, ys[:, t])
        kls[:, t] = info.kl_gaussian(kal_means[:, t], kal_covs[:, t], mean, cov)
        phi = model.step(phi, ys[:, t], t)
    nll_kalman = -info.gaussian_logpdf(kal_means, kal_covs, ys)
    records = [{"traj_id": j, "t": t, "nll_learned": float(nll_learned[j, t]),
                "nll_kalman": float(nll_kalman[j, t]), "kl": float(kls[j, t])}
               for j in range(num_traj) for t in range(T)]
    mean_learned, mean_kalman = float(np.mean(nll_learned)), float(np.mean(nll_kalman))
    return {
        "nll_learned": mean_learned,
        "nll_kalman": mean_kalman,
        "mean_kl": float(np.mean(kls)),
        "gap": mean_learned - mean_kalman,
        "records": records,
    }


# ---------------------------------------------------------------------------
# exact finite-HMM references
# ---------------------------------------------------------------------------

_ENUM_MAX_T = 8
_ENUM_MAX_OBS = 4


@dataclass(frozen=True)
class FiniteHMM:
    """Hidden Markov chain with finite states and observations.

    s_0 ~ init carries no emission; thereafter s_{t+1} ~ trans(s_t) and
    y_{t+1} ~ emit(s_{t+1}). The prediction task is the next observation:
    z_t = y_{t+1}.
    """

    trans: np.ndarray  # (S, S), rows p(s'|s)
    emit: np.ndarray  # (S, O), rows p(o|s)
    init: np.ndarray  # (S,)
    # the same chain as a one-action POMDP with zero reward: its belief tree
    # is the prefix tree of observation histories, and its tables are checked
    pomdp: control_sep.FinitePOMDP = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pomdp = control_sep.FinitePOMDP(np.expand_dims(self.trans, 1), self.emit,
                                        np.zeros((np.size(self.init), 1)), self.init,
                                        horizon=1)
        object.__setattr__(self, "trans", pomdp.trans[:, 0, :])
        object.__setattr__(self, "emit", pomdp.obs)
        object.__setattr__(self, "init", pomdp.b0)
        object.__setattr__(self, "pomdp", pomdp)

    @property
    def n_obs(self) -> int:
        return self.emit.shape[1]

    def forward_update(self, belief, obs):
        """One Bayes step: p(s_t | y^t) from p(s_{t-1} | y^{t-1}) and y_t."""
        return control_sep.belief_update(self.pomdp, belief, 0, obs)

    def next_obs_dist(self, belief, k=0):
        """p(y_{t+k+1} | y^t) given the current posterior p(s_t | y^t)."""
        state = belief
        for _ in range(k + 1):
            state = self.trans.T @ state
        return self.emit.T @ state


def hmm_exact_reference(hmm: FiniteHMM, T: int, n: int = 0) -> dict:
    """Exact enumeration of all observation histories up to length T.

    The histories are the belief tree of the one-action ``hmm.pomdp``.
    Returns the entropy lower bound
    (1/T) Σ_{k=0..n} Σ_t E_{y^t} H(z_{t+k} | y^t), the per-history forward
    posteriors for every prefix, each prefix's probability, and the
    per-(t, k) expected entropies. Any predictor's loss on this chain is
    bounded below by ``entropy_lower_bound``.

    ``truths[t, k]`` maps every prefix of length t, in tree order, to the
    exact p(z_{t+k} | y^t) its entropy term was computed from. With the
    ``hmm``, ``T`` and ``n`` it was built for, the reference is all that
    :func:`nstep_bound_check` needs, so one tree serves every candidate.
    """
    if T > _ENUM_MAX_T or hmm.n_obs > _ENUM_MAX_OBS:
        raise ValueError(f"enumeration cap exceeded: need T <= {_ENUM_MAX_T} and "
                         f"|O| <= {_ENUM_MAX_OBS}, got T={T}, |O|={hmm.n_obs}")
    if n < 0 or n >= T:
        raise ValueError("need 0 <= n < T")
    levels = control_sep._belief_tree(hmm.pomdp, T)
    prefixes = [[tuple(o for _, o in history) for history in level.histories]
                for level in levels]  # the only action is 0
    posteriors = {p: belief for level, ps in zip(levels, prefixes)
                  for p, belief in zip(ps, level.beliefs)}
    probs = {p: reach for level, ps in zip(levels, prefixes)
             for p, reach in zip(ps, level.reach.tolist())}
    truths, term_entropies = {}, {}
    for k in range(n + 1):
        for t in range(T - k):
            # hmm.next_obs_dist and info._entropy_table for a whole level:
            # each row's matvec has the bits of a lone one, and with at most
            # _ENUM_MAX_OBS < 8 outcomes a row sum adds the same terms in the
            # same order, plus exact zeros
            states = levels[t].beliefs
            for _ in range(k + 1):
                states = (hmm.trans.T @ states[..., None])[..., 0]
            predictives = (hmm.emit.T @ states[..., None])[..., 0]
            logs = np.log(predictives, where=predictives > 0,
                          out=np.zeros_like(predictives))
            entropies = -(predictives * logs).sum(axis=1)
            truths[t, k] = dict(zip(prefixes[t], predictives))
            term_entropies[t, k] = sum((levels[t].reach * entropies).tolist())
    return {
        "hmm": hmm, "T": T, "n": n,
        "entropy_lower_bound": sum(term_entropies.values()) / T,
        "posteriors": posteriors,
        "prefix_probs": probs,
        "term_entropies": term_entropies,
        "truths": truths,
    }


def nstep_bound_check(reference: dict, candidate) -> dict:
    """Exact loss of a history→prediction candidate against the lower bound.

    ``reference`` is an :func:`hmm_exact_reference`, and the candidate is
    scored on its HMM, T and n. ``candidate(history, k)`` returns a
    probability vector over the observation alphabet for target z_{t+k},
    where t = len(history); a guess of another shape raises ``ValueError``.
    The loss is the exact expected cross-entropy (1/T) Σ_{k} Σ_t
    E_{y^t} H_x(p(z_{t+k}|y^t), candidate); slack = loss − bound is a KL
    average, hence ≥ 0, and 0 exactly when the candidate matches the true
    conditional on every positive-probability history.
    """
    probs = reference["prefix_probs"]
    want = (reference["hmm"].n_obs,)
    loss = 0.0
    for (t, k), truths in reference["truths"].items():
        guesses = []
        for prefix in truths:
            guess = np.asarray(candidate(prefix, k), dtype=float)
            if guess.shape != want:
                raise ValueError(f"candidate guess for history {prefix}, k={k} has "
                                 f"shape {guess.shape}, need {want}")
            guesses.append(guess)
        with np.errstate(divide="ignore"):  # one log and one row sum per level
            logs = np.log(np.maximum(guesses, nn._PROB_FLOOR))
        terms = -(np.array(list(truths.values())) * logs).sum(axis=1)
        for prefix, term in zip(truths, terms.tolist()):
            loss += probs[prefix] * term
    loss /= reference["T"]
    bound = reference["entropy_lower_bound"]
    return {"loss": loss, "bound": bound, "slack": loss - bound}


def exact_posterior_candidate(hmm: FiniteHMM):
    """The Bayes-optimal candidate: replay the history, predict exactly."""

    def candidate(history, k):
        belief = hmm.init.copy()
        for obs in history:
            belief = hmm.forward_update(belief, int(obs))
        return hmm.next_obs_dist(belief, k)

    return candidate


def marginal_candidate(hmm: FiniteHMM, T: int):
    """History-ignoring candidate: the exact marginal p(z_{t+k}) per time.

    Its slack against the lower bound equals (1/T) Σ I(z_{t+k}; y^t) — the
    information the history carries that this candidate throws away.
    """
    marginals = [hmm.next_obs_dist(hmm.init, j) for j in range(T + 1)]

    def candidate(history, k):
        return marginals[len(history) + k]

    return candidate
