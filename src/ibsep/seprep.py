"""Learned separating representations for time series.

A recurrent filter keeps a finite-dimensional statistic φ_t of the history
(y^t, u^t) and uses it two ways: a task decoder predicts z_{t+k} from
samples of the diagonal-Gaussian posterior q(x_t | φ_t), and an update
network maps (φ_t, y_{t+1}, u_t) to φ_{t+1}. The update consumes only the
previous statistic and the new data — no observation likelihood is ever
evaluated, which is the structural point of the construction. Training
minimizes per-step prediction cross-entropy plus β times a closed-form
KL(q(x_t|φ_t) || N(0, I)) information penalty. A β × seed sweep trains as
one graph with its runs stacked on a leading run axis, and the filters
step and predict over a batch of statistics, so an evaluation advances all
of its trajectories together.

Two exact references keep the learner honest: a hand-built filter that
packs the Kalman mean and covariance into φ and reproduces the optimal
predictive density in closed form, and full enumeration of small HMMs,
which yields the entropy lower bound that every history-to-prediction
candidate must respect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import control_sep, info, lgss, nn

__all__ = [
    "SepFilterModel",
    "DynIBConfig",
    "FiniteHMM",
    "KalmanSepFilter",
    "init_sep_filter",
    "predictive_nll",
    "dyn_ibl_loss",
    "train_filter",
    "lgss_source",
    "evaluate_vs_kalman",
    "write_eval_csv",
    "hmm_exact_reference",
    "nstep_bound_check",
    "exact_posterior_candidate",
    "marginal_candidate",
    "save_filter_json",
    "load_filter_json",
]

LOG2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SepFilterModel:
    """Recurrent filter with posterior parameters φ ∈ R^{2d}.

    ``update`` maps (φ_t, y_{t+1}, u_t) to φ_{t+1}; ``heads[k]`` maps a
    sample of x_t (and the controls u_t..u_{t+k}, when there are controls)
    to the parameters of the predictive over z_{t+k}. ``output`` selects
    the predictive family: "gaussian" heads emit (mean, log-std) per target
    dimension, "categorical" heads emit logits. Log-stds are clamped to
    [-6, 2] wherever they are interpreted.
    """

    rep_dim: int
    obs_dim: int
    ctrl_dim: int
    horizon: int
    output: str
    target_dim: int
    update: nn.MLP
    heads: tuple
    phi0: np.ndarray

    def __post_init__(self):
        if self.output not in ("gaussian", "categorical"):
            raise ValueError(f"unknown output family {self.output!r}")
        d = self.rep_dim
        if self.update.widths[0] != 2 * d + self.obs_dim + self.ctrl_dim:
            raise ValueError("update network input dimension inconsistent")
        if self.update.widths[-1] != 2 * d:
            raise ValueError("update network output dimension inconsistent")
        if len(self.heads) != self.horizon + 1:
            raise ValueError("need one decoder head per prediction offset")
        for k, head in enumerate(self.heads):
            if head.widths[0] != d + self.ctrl_dim * (k + 1):
                raise ValueError(f"decoder head {k} input dimension inconsistent")
            want = 2 * self.target_dim if self.output == "gaussian" else self.target_dim
            if head.widths[-1] != want:
                raise ValueError(f"decoder head {k} output dimension inconsistent")
        phi0 = np.asarray(self.phi0, dtype=float).reshape(2 * d)
        object.__setattr__(self, "phi0", phi0)

    # -- parameter plumbing -------------------------------------------------

    def params(self) -> dict:
        out = {"phi0": self.phi0}
        for name, value in self.update.params().items():
            out[f"upd.{name}"] = value
        for k, head in enumerate(self.heads):
            for name, value in head.params().items():
                out[f"dec{k}.{name}"] = value
        return out

    def with_params(self, params: dict) -> "SepFilterModel":
        update = self.update.with_params(nn.param_group(params, "upd"))
        heads = tuple(head.with_params(nn.param_group(params, f"dec{i}"))
                      for i, head in enumerate(self.heads))
        return SepFilterModel(self.rep_dim, self.obs_dim, self.ctrl_dim,
                              self.horizon, self.output, self.target_dim,
                              update, heads, params["phi0"])

    # -- filtering protocol ---------------------------------------------------

    def initial_phi(self) -> np.ndarray:
        return self.phi0.copy()

    def posterior_params(self, phi):
        """(mean, std) of q(x | φ); a batch of statistics gives one row each."""
        phi = np.asarray(phi, dtype=float)
        mu = phi[..., : self.rep_dim]
        log_std = np.clip(phi[..., self.rep_dim :], nn.LOG_STD_MIN, nn.LOG_STD_MAX)
        return mu, np.exp(log_std)

    def step(self, phi, y_next, u=None, t=None):
        """Advance the statistic one step: φ_{t+1} = g(φ_t, y_{t+1}, u_t).

        Purely functional and deterministic; raises with the time index when
        the update produces a non-finite state. A 2-D ``phi`` is a batch of
        statistics, one per row, advanced together; ``y_next`` and ``u``
        then hold one row each.
        """
        phi = np.asarray(phi, dtype=float)
        rows = phi.shape[:-1]  # () for one statistic
        y_next = np.asarray(y_next, dtype=float).reshape(*rows, self.obs_dim)
        u = (np.zeros((*rows, self.ctrl_dim)) if u is None
             else np.asarray(u, dtype=float).reshape(*rows, self.ctrl_dim))
        out = nn.forward(self.update,
                         np.concatenate([phi, y_next, u], axis=-1)).value
        if not np.all(np.isfinite(out)):
            at = "" if t is None else f" at step {t}"
            raise FloatingPointError(f"filter update produced non-finite state{at}")
        return out

    def predict(self, phi, controls=None, samples=1, rng=None) -> dict:
        """Monte-Carlo predictive over z_{t+k} from ``samples`` posterior draws.

        ``controls`` stacks u_t..u_{t+k} (its length selects the offset k).
        With ``rng=None`` the draw collapses to the posterior mean — the
        degenerate/Dirac evaluation. Gaussian outputs report the mixture
        components and the moment-matched (mean, cov).

        A 2-D ``phi`` is a batch of N statistics, and every returned array
        gains a leading axis of N. ``controls`` is then (N, k+1, ctrl_dim),
        or one (k+1, ctrl_dim) stack for every row, and ``rng`` is one
        Generator or a sequence of N: row i then draws from ``rng[i]``
        exactly what a lone prediction from that Generator would.
        """
        phi = np.asarray(phi, dtype=float)
        mu, sigma = self.posterior_params(phi.reshape(-1, 2 * self.rep_dim))
        N = mu.shape[0]
        controls = (np.zeros((1, self.ctrl_dim)) if controls is None
                    else np.asarray(controls, dtype=float))
        if self.ctrl_dim and controls.ndim < 3:
            controls = controls.reshape(-1, self.ctrl_dim)
        if controls.ndim not in (2, 3) or controls.shape[-1] != self.ctrl_dim:
            raise ValueError("select the offset with controls of shape "
                             "(k+1, ctrl_dim), so (k+1, 0) without controls")
        k = controls.shape[-2] - 1
        if not 0 <= k <= self.horizon:
            raise ValueError(f"offset {k} outside trained horizon {self.horizon}")
        if rng is None:
            eps = np.zeros((N, samples, self.rep_dim))
        elif isinstance(rng, np.random.Generator):
            eps = rng.standard_normal((N, samples, self.rep_dim))
        else:
            eps = np.stack([r.standard_normal((samples, self.rep_dim)) for r in rng])
        x = mu[:, None] + sigma[:, None] * eps  # (N, samples, d)
        if self.ctrl_dim:
            width = (k + 1) * self.ctrl_dim
            window = np.broadcast_to(controls, (N, k + 1, self.ctrl_dim))
            x = np.concatenate([x, np.broadcast_to(window.reshape(N, 1, width),
                                                   (N, samples, width))], axis=-1)
        out = nn.forward(self.heads[k], x.reshape(N * samples, -1)).value
        out = out.reshape(N, samples, -1)
        if self.output == "gaussian":
            means = out[..., : self.target_dim]
            log_stds = np.clip(out[..., self.target_dim :], nn.LOG_STD_MIN,
                               nn.LOG_STD_MAX)
            variances = np.exp(2.0 * log_stds)
            mean = means.mean(axis=-2)
            var = (variances + means**2).mean(axis=-2) - mean**2
            cov = np.zeros((N, self.target_dim, self.target_dim))
            diag = np.arange(self.target_dim)
            cov[:, diag, diag] = np.maximum(var, 1e-300)
            params = {"family": "gaussian", "mean": mean, "cov": cov,
                      "component_means": means, "component_vars": variances}
        else:
            shifted = out - out.max(axis=-1, keepdims=True)
            probs = np.exp(shifted)
            probs /= probs.sum(axis=-1, keepdims=True)
            params = {"family": "categorical", "probs": probs.mean(axis=-2),
                      "component_probs": probs}
        if phi.ndim == 1:
            params = {key: value if key == "family" else value[0]
                      for key, value in params.items()}
        return params

    def info(self, phi) -> float:
        """Closed-form KL(q(x|φ) || N(0, I)) — the per-step information rate."""
        mu, std = self.posterior_params(phi)
        return float(info.kl_to_standard_normal(mu, std**2, 2.0 * np.log(std)))


def init_sep_filter(rep_dim, obs_dim, ctrl_dim=0, horizon=0, output="gaussian",
                    target_dim=None, update_hidden=(32,), decoder_hidden=(32,),
                    rng=None) -> SepFilterModel:
    """Seeded construction; the default task target is the next observation."""
    rng = np.random.default_rng(0) if rng is None else rng
    if target_dim is None:
        if output != "gaussian":
            raise ValueError("categorical output needs an explicit target_dim")
        target_dim = obs_dim
    upd_widths = [2 * rep_dim + obs_dim + ctrl_dim, *update_hidden, 2 * rep_dim]
    update = nn.init_mlp(upd_widths, ["relu"] * len(update_hidden) + ["identity"], rng)
    heads = []
    out_dim = 2 * target_dim if output == "gaussian" else target_dim
    for k in range(horizon + 1):
        widths = [rep_dim + ctrl_dim * (k + 1), *decoder_hidden, out_dim]
        heads.append(nn.init_mlp(widths, ["relu"] * len(decoder_hidden) + ["identity"], rng))
    phi0 = np.zeros(2 * rep_dim)  # q(x_0) starts at the reference N(0, I)
    return SepFilterModel(rep_dim, obs_dim, ctrl_dim, horizon, output,
                          target_dim, update, tuple(heads), phi0)


def predictive_nll(params: dict, z) -> float:
    """Negative log-likelihood of a target under predictive parameters."""
    if params["family"] == "categorical":
        prob = params["probs"][int(np.asarray(z).ravel()[0])]
        return float(-math.log(max(prob, nn._PROB_FLOOR)))
    z = np.asarray(z, dtype=float).reshape(-1)
    means = params.get("component_means")
    if means is None:
        return float(-info.GaussianDistribution(params["mean"], params["cov"]).logpdf(z))
    return float(_mixture_nll(means, params["component_vars"], z))


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
    horizon: int = 0
    tbptt: int = 16
    rep_dim: int = 4
    mc_samples: int = 1
    learning_rate: float = 0.03
    momentum: float = 0.9
    update_hidden: tuple = (32,)
    decoder_hidden: tuple = (32,)

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if not 0 <= self.horizon < self.traj_len:
            raise ValueError("horizon must be shorter than the trajectories")
        if self.tbptt < 1:
            raise ValueError("backpropagation window must be positive")


def _as_batch(trajectories, ctrl_dim_hint=0):
    ys, us = trajectories
    ys = np.asarray(ys)
    if us is None:
        us = np.zeros((ys.shape[0], ys.shape[1], ctrl_dim_hint))
    else:
        us = np.asarray(us, dtype=float)
    return ys, us


def dyn_ibl_loss(model, trajectories, config: DynIBConfig, samples=None, rng=None) -> dict:
    """Evaluate total = ce_term + β·info_term over a batch of trajectories.

    ce_term is (1/T) Σ_t Σ_{k=0..n} NLL(z_{t+k} | predict from φ_t);
    info_term is (1/T) Σ_t KL(q(x_t|φ_t) || N(0,I)), the per-step upper
    bound on the representation's information about the history. The
    target is the next observation: z_{t+k} = y_{t+k+1}.
    """
    ys, us = _as_batch(trajectories, getattr(model, "ctrl_dim", 0))
    B, T = ys.shape[0], ys.shape[1]
    n = config.horizon
    if n >= T:
        raise ValueError("horizon must be shorter than the trajectories")
    samples = config.mc_samples if samples is None else samples
    ce_total = 0.0
    info_total = 0.0
    for b in range(B):
        phi = model.initial_phi()
        for t in range(T):
            info_total += model.info(phi)
            for k in range(min(n, T - 1 - t) + 1):
                params = model.predict(phi, us[b, t : t + k + 1], samples, rng)
                ce_total += predictive_nll(params, ys[b, t + k])
            phi = model.step(phi, ys[b, t], us[b, t], t)
    ce_term = ce_total / (B * T)
    info_term = info_total / (B * T)
    return {
        "total": ce_term + config.beta * info_term,
        "ce_term": ce_term,
        "info_term": info_term,
    }


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def lgss_source(model: lgss.LGSSModel, T: int):
    """Trajectory source drawing from a linear-Gaussian state-space model.

    A draw of ``batch`` trajectories (zero controls) is bit-identical to
    ``batch`` successive ``lgss.simulate`` calls on the same rng: each row
    of one standard-normal block holds one trajectory's x_0, w and v draws
    in that order, and a noise term with an all-zero covariance draws
    nothing. Given R generators, run r draws its block from the r-th, one
    state recursion covers all R·batch rows, and a leading run axis is added.
    """
    roots = [lgss.covariance_root(cov) for cov in (model.P0, model.Q, model.R)]
    shapes = [(1, model.n), (T, model.n), (T, model.m)]  # x_0, w, v
    widths = [0 if root is None else rows * cols
              for root, (rows, cols) in zip(roots, shapes)]
    splits = np.cumsum(widths)[:-1]

    def draw(batch, rng):
        lone = isinstance(rng, np.random.Generator)
        rngs = [rng] if lone else list(rng)
        rows = len(rngs) * batch
        noise = np.concatenate([r.standard_normal((batch, sum(widths))) for r in rngs])
        x0, w, v = (
            np.zeros((rows, *shape)) if root is None
            else block.reshape(rows, *shape) @ root.T
            for block, root, shape in zip(np.split(noise, splits, axis=1), roots, shapes)
        )
        x = model.mu0 + x0[:, 0]
        ys = np.empty((rows, T, model.m))
        for t in range(T):
            x = (model.A @ x[..., None])[..., 0] + w[:, t]
            ys[:, t] = (model.C @ x[..., None])[..., 0] + v[:, t]
        lead = (batch,) if lone else (len(rngs), batch)
        return ys.reshape(*lead, T, model.m), np.zeros((*lead, T, model.p))

    return draw


def _time_major(a):
    """(..., B, T', f) -> (..., T'·B, f) with row t·B + b holding a[..., b, t]."""
    a = np.swapaxes(a, -3, -2)
    return a.reshape(*a.shape[:-3], a.shape[-3] * a.shape[-2], a.shape[-1])


def _sep_loss_graph(model, param_nodes, ys, us, config, eps_draws, beta):
    """Recurrent training graph of R runs; returns (R,) total, ce, info nodes.

    ``ys`` (R, B, T, ·), ``us`` (R, B, T, ctrl_dim), ``eps_draws`` and every
    parameter carry a leading run axis of R (biases and φ_0 as (R, 1, ·)),
    and ``beta`` holds each run's β. The update φ_t → φ_{t+1} (detached
    every ``config.tbptt`` steps) is one :func:`~ibsep.nn.scan_n` node over
    the exogenous columns y_t (and u_t with controls). Its value stacks
    each run's statistics φ_0..φ_{T-1} time-major into (T·B, 2d) rows, row
    t·B + b holding trajectory b at step t, and the KL and the decoders
    are evaluated once over them: head k reads the first
    (T-k)·B rows (the steps t <= T-1-k) repeated once per Monte-Carlo
    sample, so its input is (R, S·(T-k)·B, ·) with rows ordered
    (sample, t, b). ``eps_draws[r, i]`` is run r's (B, d) draw for the
    i-th (t, k, sample) triple in lexicographic order. Every sum is per
    run, so entry r of each returned node depends on run r alone.
    """
    R, B, T = ys.shape[:3]
    ys = ys.reshape(R, B, T, -1)
    d = model.rep_dim
    n = config.horizon
    S = config.mc_samples
    upd_nodes = nn.param_group(param_nodes, "upd")
    head_nodes = [nn.param_group(param_nodes, f"dec{i}")
                  for i in range(len(model.heads))]
    layers = [(upd_nodes[f"W{k}"], upd_nodes[f"b{k}"], act == "relu")
              for k, act in enumerate(model.update.activations)]
    inputs = np.concatenate([ys, us], axis=-1) if model.ctrl_dim else ys
    stacked = nn.scan_n(param_nodes["phi0"], layers, inputs, config.tbptt)
    mu = stacked[..., :d]
    log_std = nn.clip_n(stacked[..., d:], nn.LOG_STD_MIN, nn.LOG_STD_MAX)
    sigma = log_std.exp()
    kl = nn.kl_to_standard_normal_n(mu, log_std)

    per_step = S * (np.minimum(n, T - 1 - np.arange(T)) + 1)
    first_draw = np.concatenate([[0], np.cumsum(per_step)[:-1]])
    ce = None
    for k in range(n + 1):
        rows = (T - k) * B
        draws = (first_draw[None, : T - k] + k * S
                 + np.arange(S)[:, None])  # (S, T-k)
        eps = eps_draws[:, draws].reshape(R, S * rows, d)
        x = (nn.concat([mu[..., :rows, :]] * S, axis=-2)
             + nn.concat([sigma[..., :rows, :]] * S, axis=-2) * nn.constant(eps))
        if model.ctrl_dim:
            window = np.concatenate([us[..., j : T - k + j, :] for j in range(k + 1)],
                                    axis=-1)  # (R, B, T-k, (k+1)·ctrl_dim)
            x = nn.concat([x, nn.constant(np.tile(_time_major(window), (S, 1)))])
        out = nn.forward(model.heads[k], x, param_nodes=head_nodes[k])
        z = np.tile(_time_major(ys[..., k:, :]), (S, 1))
        if model.output == "gaussian":
            mean = out[..., : model.target_dim]
            dls = nn.clip_n(out[..., model.target_dim :], nn.LOG_STD_MIN,
                            nn.LOG_STD_MAX)
            resid = (nn.constant(z) - mean) * (-dls).exp()
            nll = (0.5 * resid.square() + dls + 0.5 * LOG2PI).sum(axis=(-2, -1))
        else:
            labels = z[..., 0].astype(int)
            nll = -nn.gather_logprob(nn.log_softmax_n(out), labels).sum(axis=-1)
        ce = nll if ce is None else ce + nll
    ce = ce * (1.0 / (B * T * S))
    total = ce + kl * beta
    return total, ce, kl


def train_filter(source, configs):
    """Train SepFilterModels on trajectories from ``source``.

    ``source(batch, rng)`` returns ``(ys, us)`` with shapes (B, T, obs_dim)
    and (B, T, ctrl_dim) (``us`` may be None); given a sequence of R
    generators, as once per step here, it adds a leading axis of R whose
    entry r is what ``source(batch, rngs[r])`` returns. ``configs`` is a list or
    tuple of :class:`DynIBConfig` that differ only in β and seed; a bare
    config is a ``ValueError``. The R runs train as one graph with every
    parameter stacked on a leading run axis, so each step builds one
    graph instead of R. Gradients flow through the recurrent update with
    truncation every ``tbptt`` steps. Run r keeps its own init, data and
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

    probe_ys, probe_us = _as_batch(source(1, np.random.default_rng(streams[0][1])))
    obs_dim, ctrl_dim = probe_ys.shape[2], probe_us.shape[2]
    models = [init_sep_filter(
        first.rep_dim, obs_dim, ctrl_dim, first.horizon, "gaussian",
        update_hidden=first.update_hidden, decoder_hidden=first.decoder_hidden,
        rng=np.random.default_rng(init_ss)) for init_ss, _, _ in streams]

    T, n = first.traj_len, first.horizon
    n_draws = first.mc_samples * sum(min(n, T - 1 - t) + 1 for t in range(T))
    betas = np.array([cfg.beta for cfg in configs])

    def loss(params, step):
        ys, us = source(first.batch, data_rngs)
        ys = np.asarray(ys)
        if ys.shape[2] != T:
            raise ValueError("source produced trajectories of the wrong length")
        us = (np.zeros((*ys.shape[:3], ctrl_dim)) if us is None
              else np.asarray(us, dtype=float))
        eps = np.stack([rng.standard_normal((n_draws, first.batch, first.rep_dim))
                        for rng in noise_rngs])
        total, ce, kl = _sep_loss_graph(models[0], nn.parameters(params), ys, us,
                                        first, eps, betas)
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
    (φ_t, y_{t+1}, u_t), which is what makes the Kalman filter itself a
    separating statistic — and the predictive is the closed-form Gaussian.
    ``info`` is 0: the statistic is deterministic given the history, so no
    extra stochastic coding cost is charged. Like :class:`SepFilterModel`,
    ``step`` and ``predict`` take a 2-D ``phi`` as a batch of statistics
    (a lone one is the one-row batch). The rows whose covariance blocks are
    equal byte for byte share one Kalman call over their batch of means.
    """

    output = "gaussian"

    def __init__(self, model: lgss.LGSSModel):
        self.model = model
        self.ctrl_dim = model.p

    def initial_phi(self) -> np.ndarray:
        return np.concatenate([self.model.mu0, self.model.P0.ravel()])

    def _predicted(self, phi, us):
        """(rows, prior means, prior cov) per covariance group of a 2-D ``phi``."""
        n = self.model.n
        groups = {}
        for i, row in enumerate(phi):
            groups.setdefault(row[n:].tobytes(), []).append(i)
        for rows in groups.values():
            yield rows, *lgss.kalman_predict(phi[rows, :n], phi[rows[0], n:].reshape(n, n),
                                             self.model, None if us is None else us[rows])

    def step(self, phi, y_next, u=None, t=None):
        phi = np.asarray(phi, dtype=float)
        batch = np.atleast_2d(phi)
        N, n = len(batch), self.model.n
        us = None if u is None else np.reshape(u, (N, self.model.p))
        ys, out = np.reshape(y_next, (N, self.model.m)), np.empty_like(batch)
        for rows, mean, cov in self._predicted(batch, us):
            out[rows, :n], cov = lgss.kalman_update(mean, cov, ys[rows], self.model)
            out[rows, n:] = cov.ravel()
        return out.reshape(phi.shape)

    def predict(self, phi, controls=None, samples=1, rng=None) -> dict:
        phi = np.asarray(phi, dtype=float)
        batch = np.atleast_2d(phi)
        N, C, R = len(batch), self.model.C, self.model.R
        us = None
        if controls is not None:  # one (1, p) window, or one per row
            controls = np.atleast_2d(np.asarray(controls, dtype=float))
            if controls.shape[-2] != 1:
                raise ValueError("the exact filter predicts one step ahead")
            if self.model.p:
                us = np.broadcast_to(controls[..., 0, :], (N, self.model.p))
        means, covs = np.empty((N, self.model.m)), np.empty((N, *R.shape))
        for rows, mean, cov in self._predicted(batch, us):
            means[rows] = lgss._finite(lgss._matvec(C, mean))
            covs[rows] = info.GaussianDistribution(means[rows[0]], C @ cov @ C.T + R).cov
        if phi.ndim == 1:
            means, covs = means[0], covs[0]
        return {"family": "gaussian", "mean": means, "cov": covs,
                "component_means": None, "component_vars": None}

    def info(self, phi) -> float:
        return 0.0


# ---------------------------------------------------------------------------
# evaluation against the Kalman oracle
# ---------------------------------------------------------------------------


def _gaussian_nll(mean, cov, z):
    """-log N(z; mean, cov) over any leading batch axes; cov positive definite."""
    chol = np.linalg.cholesky(cov)
    dev = np.linalg.solve(chol, (z - mean)[..., None])[..., 0]
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    return 0.5 * (z.shape[-1] * LOG2PI + logdet + (dev * dev).sum(axis=-1))


def _mixture_nll(means, variances, z):
    """-log of the equal-weight diagonal-Gaussian mixture at z.

    Components are on axis -2 of ``means`` and ``variances``; leading axes
    are a batch, matched by those of ``z``.
    """
    logps = -0.5 * (np.sum((z[..., None, :] - means) ** 2 / variances, axis=-1)
                    + np.sum(np.log(variances), axis=-1) + z.shape[-1] * LOG2PI)
    return -(logsumexp(logps, axis=-1) - math.log(means.shape[-2]))


def _kl_gaussian(mean_p, cov_p, mean_q, cov_q):
    """KL(N(mean_p, cov_p) || N(mean_q, cov_q)) over any leading batch axes.

    The closed form of :func:`ibsep.info.kl_gaussian`: +inf where cov_p is
    singular, and ``LinAlgError`` where cov_q is not positive definite.
    """
    chol_q = np.linalg.cholesky(cov_q)
    logdet_q = 2.0 * np.log(np.diagonal(chol_q, axis1=-2, axis2=-1)).sum(axis=-1)
    sign_p, logdet_p = np.linalg.slogdet(cov_p)
    half = np.linalg.solve(chol_q, cov_p)
    trace = np.trace(np.linalg.solve(chol_q, np.swapaxes(half, -1, -2)),
                     axis1=-2, axis2=-1)
    dev = np.linalg.solve(chol_q, (mean_q - mean_p)[..., None])[..., 0]
    kl = 0.5 * (trace + (dev * dev).sum(axis=-1) - mean_p.shape[-1]
                + logdet_q - logdet_p)
    return np.where(sign_p > 0, kl, math.inf)


def evaluate_vs_kalman(model, lgss_model: lgss.LGSSModel, T: int, num_traj: int,
                       seed: int, samples: int = 64) -> dict:
    """Held-out comparison of a filter against the exact Kalman predictives.

    Fresh trajectories are simulated from ``lgss_model`` (zero controls);
    for every step the learned one-step predictive of y_{t+1} is scored
    beside the Kalman one. Returns nll_learned, nll_kalman, their gap, and
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
    trajs = [lgss.simulate(lgss_model, None, T, np.random.default_rng(sim_ss))
             for sim_ss, _ in streams]
    eval_rngs = [np.random.default_rng(eval_ss) for _, eval_ss in streams]
    _, (kal_means, kal_covs) = lgss.run_filter(lgss_model, trajs)
    ys = np.stack([traj.y for traj in trajs])
    us = np.stack([traj.u for traj in trajs])
    nll_learned = np.empty((num_traj, T))
    kls = np.empty((num_traj, T))
    phi = np.stack([model.initial_phi()] * num_traj)
    for t in range(T):
        params = model.predict(phi, us[:, t : t + 1], samples, eval_rngs)
        mean, cov = params["mean"], params["cov"]
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError(f"non-finite learned predictive at step {t}")
        if params["component_means"] is None:
            nll_learned[:, t] = _gaussian_nll(mean, cov, ys[:, t])
        else:
            nll_learned[:, t] = _mixture_nll(params["component_means"],
                                             params["component_vars"], ys[:, t])
        kls[:, t] = _kl_gaussian(kal_means[:, t], kal_covs[:, t], mean, cov)
        phi = model.step(phi, ys[:, t], us[:, t], t)
    nll_kalman = _gaussian_nll(kal_means, kal_covs, ys)
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


def write_eval_csv(records, path) -> None:
    """Write evaluation rows as traj_id,t,nll_learned,nll_kalman,kl."""
    with open(path, "w") as fh:
        fh.write("traj_id,t,nll_learned,nll_kalman,kl\n")
        for r in records:
            fh.write(
                f"{r['traj_id']},{r['t']},{r['nll_learned']!r},"
                f"{r['nll_kalman']!r},{r['kl']!r}\n"
            )


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
    def n_states(self) -> int:
        return self.init.size

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
            truths[t, k] = {p: hmm.next_obs_dist(belief, k)
                            for p, belief in zip(prefixes[t], levels[t].beliefs)}
            term_entropies[t, k] = sum(probs[p] * info._entropy_table(truth)
                                       for p, truth in truths[t, k].items())
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_ARCH_KEYS = {"rep_dim", "obs_dim", "ctrl_dim", "horizon", "output", "target_dim"}


def _mlp_payload(mlp: nn.MLP) -> dict:
    return {
        "widths": list(mlp.widths),
        "activations": list(mlp.activations),
        "weights": [w.tolist() for w in mlp.weights],
        "biases": [b.tolist() for b in mlp.biases],
    }


def _mlp_from_payload(payload: dict) -> nn.MLP:
    return nn.MLP(
        tuple(payload["widths"]),
        tuple(np.asarray(w, dtype=float) for w in payload["weights"]),
        tuple(np.asarray(b, dtype=float) for b in payload["biases"]),
        tuple(payload["activations"]),
    )


def save_filter_json(model: SepFilterModel, path=None) -> str:
    """Serialize architecture and weights; floats round-trip exactly.

    Values are written with shortest round-trip formatting (at most 17
    significant digits), so loading reproduces the arrays bit for bit.
    """
    payload = {
        "rep_dim": model.rep_dim,
        "obs_dim": model.obs_dim,
        "ctrl_dim": model.ctrl_dim,
        "horizon": model.horizon,
        "output": model.output,
        "target_dim": model.target_dim,
        "phi0": model.phi0.tolist(),
        "update": _mlp_payload(model.update),
        "heads": [_mlp_payload(h) for h in model.heads],
    }
    text = json.dumps(payload, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    return text


def load_filter_json(source) -> SepFilterModel:
    """Load a model written by :func:`save_filter_json` (path, text or file)."""
    payload = info._read_json_object(source)
    missing = (_ARCH_KEYS | {"phi0", "update", "heads"}) - set(payload)
    if missing:
        raise ValueError(f"model file missing keys: {sorted(missing)}")
    return SepFilterModel(
        rep_dim=int(payload["rep_dim"]),
        obs_dim=int(payload["obs_dim"]),
        ctrl_dim=int(payload["ctrl_dim"]),
        horizon=int(payload["horizon"]),
        output=payload["output"],
        target_dim=int(payload["target_dim"]),
        update=_mlp_from_payload(payload["update"]),
        heads=tuple(_mlp_from_payload(h) for h in payload["heads"]),
        phi0=np.asarray(payload["phi0"], dtype=float),
    )
