"""Static information-bottleneck training and exact invariance measurement.

The objects here live on small synthetic tasks built from a task variable z
and an independent nuisance n, observed through y = f(z, n). A stochastic
encoder maps y to a diagonal-Gaussian representation x; training minimizes

    cross-entropy(z | x)  +  beta * E_y KL( q(x|y) || r(x) ),

with r(x) a fixed standard normal, so the penalty term is a provable upper
bound on I(x; y). Because the tasks are finite and the posteriors are
Gaussian, every information quantity can be computed by exact enumeration
after quantizing x on a fixed grid; that enumeration is the oracle used by
the invariance and stacking checks, and nothing in this module estimates
information from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import info, nn

__all__ = [
    "NuisanceTask",
    "StochasticEncoder",
    "IBLConfig",
    "WeightPosterior",
    "InvarianceReport",
    "make_nuisance_task",
    "random_separated_encoder",
    "info_bound_exact",
    "train_ib",
    "eval_accuracy",
    "measure_invariance",
    "stacked_bottleneck_experiment",
    "train_weight_posterior",
    "flatness_diagnostic",
]

# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuisanceTask:
    """Finite task: z ~ p(z) and an independent nuisance n ~ p(n) generate
    the observation y = f(z, n).

    ``f_map[z, n]`` is the observation index; independence of z and n makes
    I(z; n) = 0 by construction, and the constructor rejects maps that are
    not surjective onto 0..y_card-1 or that are constant (a task nothing
    could be learned from).
    """

    z_card: int
    n_card: int
    p_z: np.ndarray
    p_n: np.ndarray
    f_map: np.ndarray  # shape (z_card, n_card), values in 0..y_card-1

    def __post_init__(self):
        p_z = info.DiscreteDistribution(self.p_z).probs
        p_n = info.DiscreteDistribution(self.p_n).probs
        f_map = np.asarray(self.f_map, dtype=int)
        if f_map.shape != (self.z_card, self.n_card):
            raise ValueError("observation map shape must be (z_card, n_card)")
        y_card = int(f_map.max()) + 1
        if f_map.min() < 0:
            raise ValueError("observation indices must be non-negative")
        attained = np.unique(f_map)
        if attained.size != y_card:
            raise ValueError("observation map must be surjective onto its range")
        if y_card < 2:
            raise ValueError("degenerate observation map: constant f carries no signal")
        object.__setattr__(self, "p_z", p_z)
        object.__setattr__(self, "p_n", p_n)
        object.__setattr__(self, "f_map", f_map)

    @property
    def y_card(self) -> int:
        return int(self.f_map.max()) + 1

    def joint_zny(self) -> info.DiscreteJoint:
        """Exact joint p(z, n, y) as a three-axis table, built once per task."""
        return self._tables[0]

    def observation_prior(self) -> np.ndarray:
        """p(y), the joint's y marginal, built once per task."""
        return self._tables[1]

    @cached_property
    def _tables(self):
        """The joint p(z, n, y) and its y marginal, their tables read-only."""
        table = np.zeros((self.z_card, self.n_card, self.y_card))
        for z in range(self.z_card):
            for n in range(self.n_card):
                table[z, n, self.f_map[z, n]] = self.p_z[z] * self.p_n[n]
        joint = info.DiscreteJoint(("z", "n", "y"), table)
        prior = joint.marginal_table("y")
        joint.table.flags.writeable = prior.flags.writeable = False
        return joint, prior

    @cached_property
    def _cdfs(self):
        """The CDFs of p(z) and p(n), normalised as ``Generator.choice`` does."""
        return tuple(cdf / cdf[-1] for cdf in (self.p_z.cumsum(), self.p_n.cumsum()))

    def sample_batch(self, batch, rng):
        """Draw (y indices, z labels) from the generative model.

        The draws are ``rng.choice(k, size=batch, p=p)``'s for z and then
        n, bit for bit and with the same use of ``rng``: that method's
        search of uniform draws in the prior's CDF, without its check of
        ``p`` on every call, which the constructor has already made.
        """
        z_cdf, n_cdf = self._cdfs
        z = z_cdf.searchsorted(rng.random(batch), side="right")
        n = n_cdf.searchsorted(rng.random(batch), side="right")
        return self.f_map[z, n], z


def make_nuisance_task(z_card, n_card, rule="bijective", seed=0, y_card=None) -> NuisanceTask:
    """Build a synthetic nuisance task.

    rule="bijective" (default): y enumerates the pairs (z, n) through a
    seeded random relabeling, so |y| = |z|*|n| and y determines both z and
    n. rule="lossy": a random surjective map onto ``y_card`` < |z|*|n|
    observations, giving tasks with H(z|y) > 0. Priors are uniform.
    """
    if z_card < 2:
        raise ValueError("need at least two task classes")
    if n_card < 1:
        raise ValueError("need at least one nuisance value")
    rng = np.random.default_rng(seed)
    if rule == "bijective":
        labels = rng.permutation(z_card * n_card)
        f_map = labels.reshape(z_card, n_card)
    elif rule == "lossy":
        total = z_card * n_card
        if y_card is None:
            y_card = max(2, total - max(1, total // 4))
        if not 2 <= y_card <= total:
            raise ValueError(f"lossy rule needs 2 <= y_card <= {total}")
        # guarantee surjectivity, then fill the rest at random
        values = np.concatenate([
            np.arange(y_card),
            rng.integers(0, y_card, size=total - y_card),
        ])
        f_map = rng.permutation(values).reshape(z_card, n_card)
    else:
        raise ValueError(f"unknown construction rule {rule!r}")
    return NuisanceTask(
        z_card=z_card,
        n_card=n_card,
        p_z=np.full(z_card, 1.0 / z_card),
        p_n=np.full(n_card, 1.0 / n_card),
        f_map=f_map,
    )


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StochasticEncoder:
    """MLP from one-hot y to (mean, log-std) of a diagonal Gaussian over x.

    The network's output dimension is 2*rep_dim; log-stds are clamped to
    [-6, 2] wherever they are used.
    """

    mlp: nn.MLP
    rep_dim: int

    def __post_init__(self):
        if self.mlp.widths[-1] != 2 * self.rep_dim:
            raise ValueError("encoder output must have dimension 2*rep_dim")

    @staticmethod
    def from_table(means, log_stds) -> "StochasticEncoder":
        """Encoder with an explicit per-y posterior table.

        Realized as a single identity-activation layer on one-hot inputs,
        so the table rows are exactly the network outputs.
        """
        means = np.atleast_2d(np.asarray(means, dtype=float))
        log_stds = np.atleast_2d(np.asarray(log_stds, dtype=float))
        if means.shape != log_stds.shape:
            raise ValueError("means and log-stds must have matching shapes")
        y_card, rep_dim = means.shape
        W = np.hstack([means, log_stds])
        mlp = nn.MLP((y_card, 2 * rep_dim), (W,), (np.zeros(2 * rep_dim),), ("identity",))
        return StochasticEncoder(mlp, rep_dim)

    def posterior_table(self):
        """(means, stds) arrays of shape (y_card, rep_dim), log-std clamped."""
        out = nn.forward(self.mlp, np.eye(self.mlp.widths[0])).value
        means = out[:, : self.rep_dim]
        log_stds = np.clip(out[:, self.rep_dim :], nn.LOG_STD_MIN, nn.LOG_STD_MAX)
        return means, np.exp(log_stds)


def random_separated_encoder(task: NuisanceTask, rng, rep_dim=1) -> StochasticEncoder:
    """Random near-deterministic encoder with well-separated means.

    Means are drawn without replacement from a lattice of pitch 0.3 on
    [-3, 3] (several quantization cells apart), and log-stds uniformly from
    [-6, -3.5], so noise is small. This is the regime in which the
    representation stays an injective, essentially deterministic function
    of y — exactly the sufficient encoders for which the invariance bound
    I(x;n) <= I(x;y) - I(y;z) is guaranteed; a blurry or collapsing encoder
    is not sufficient for the task and can sit outside the bound (a
    constant encoder is the extreme case).
    """
    y_card = task.y_card
    lattice = np.arange(-3.0, 3.0 + 0.3 / 2, 0.3)
    if lattice.size < y_card:
        raise ValueError("lattice too small for the observation alphabet")
    means = np.stack(
        [rng.choice(lattice, size=y_card, replace=False) for _ in range(rep_dim)],
        axis=1,
    )
    log_stds = rng.uniform(-6.0, -3.5, size=(y_card, rep_dim))
    return StochasticEncoder.from_table(means, log_stds)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IBLConfig:
    """Training configuration for the static bottleneck objective."""

    beta: float
    rep_dim: int
    steps: int
    batch: int
    seed: int
    learning_rate: float = 0.05
    momentum: float = 0.9

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


def _init_mlp(d_in, d_out, rng) -> nn.MLP:
    """A seeded encoder or decoder of ``train_ib``: one hidden ReLU layer of 16."""
    return nn.init_mlp([d_in, 16, d_out], ["relu", "identity"], rng)


def _loss_graph(encoder, decoder, param_nodes, y_idx, z_idx, eps, beta):
    """Build the training graph of R runs; returns (R,) total, ce, info nodes.

    ``param_nodes`` are named ``enc.*`` and ``dec.*``, each with a leading
    run axis of R (biases as (R, 1, ·)); ``encoder`` and ``decoder`` give
    the architecture. ``y_idx`` and ``z_idx`` are (R, B), ``eps[r]`` is
    run r's (B, d) draw of the one Monte-Carlo sample, and ``beta`` holds
    each run's β. Entry r of each returned node depends on run r alone.
    """
    one_hot = np.eye(encoder.mlp.widths[0])[y_idx]
    out = nn.forward(encoder.mlp, nn.constant(one_hot),
                     param_nodes=nn.param_group(param_nodes, "enc"))
    x, kl = nn.gaussian_bottleneck_n(out, eps)
    logits = nn.forward(decoder, x, param_nodes=nn.param_group(param_nodes, "dec"))
    ce = -nn.gather_logprob(nn.log_softmax_n(logits), z_idx).mean(axis=-1)
    total = ce + kl * beta
    return total, ce, kl


def _named_params(encoder, decoder) -> dict:
    """The flat ``enc.*``/``dec.*`` parameter dict of a network pair."""
    return {**{f"enc.{k}": v for k, v in encoder.mlp.params().items()},
            **{f"dec.{k}": v for k, v in decoder.params().items()}}


def info_bound_exact(encoder, task: NuisanceTask) -> float:
    """Exact E_y KL(q(x|y) || N(0,I)) under the task's observation prior."""
    means, stds = encoder.posterior_table()
    p_y = task.observation_prior()
    kls = info.kl_to_standard_normal(means, stds**2, 2.0 * np.log(stds))
    return float(np.dot(p_y, kls))


def eval_accuracy(encoder, decoder, task, samples, rng) -> float:
    """Task accuracy of argmax decoding under the exact (z, n) distribution.

    Each (z, n) pair of positive probability, in row-major order, draws
    ``samples`` noisy representations of its y from ``rng``; all pairs
    share one decoder forward over the stacked rows, and the accuracy sums
    each pair's hit rate weighted by p(z) p(n).
    """
    means, stds = encoder.posterior_table()
    weights = np.outer(task.p_z, task.p_n)
    zs, ns = np.nonzero(weights)
    ys = np.repeat(task.f_map[zs, ns], samples)
    x = means[ys] + stds[ys] * rng.standard_normal((ys.size, encoder.rep_dim))
    hits = np.argmax(nn.forward(decoder, x).value, axis=-1) == np.repeat(zs, samples)
    rates = hits.reshape(-1, samples).mean(axis=-1)
    # a running sum adds the weighted hit rates in (z, n) order
    return float(np.cumsum(weights[zs, ns] * rates)[-1])


def train_ib(task: NuisanceTask, configs):
    """Minimize the bottleneck objective with reparametrized sampling.

    ``configs`` is a list or tuple of :class:`IBLConfig` that differ only
    in β, seed and learning rate; a bare config is a ``ValueError``. The
    R runs train as one graph with every encoder and decoder parameter
    stacked on a leading run axis, β an (R,) constant and each run
    stepped at its own rate. Run r keeps its own init and train streams
    from its seed, so its parameters and curve are bit-identical to its
    config trained as a one-run sweep. Returns a
    :class:`~ibsep.nn.TrainedSweep` whose ``runs[r]`` is run r's
    ``(encoder, decoder)`` pair and whose curves record (step, loss, ce,
    info_bound). Raises :class:`~ibsep.nn.TrainingDiverged` naming the
    step and the run's β and seed when a loss or its gradient stops being
    finite.
    """
    configs = nn.sweep_configs(configs)
    first = configs[0]
    streams = [np.random.SeedSequence(cfg.seed).spawn(2) for cfg in configs]
    train_rngs = [np.random.default_rng(train_ss) for _, train_ss in streams]
    start = []  # each run's init; the last run's networks serve as templates
    for init_ss, _ in streams:
        init_rng = np.random.default_rng(init_ss)
        encoder = StochasticEncoder(_init_mlp(task.y_card, 2 * first.rep_dim, init_rng),
                                    first.rep_dim)
        decoder = _init_mlp(first.rep_dim, task.z_card, init_rng)
        start.append(_named_params(encoder, decoder))
    betas = np.array([cfg.beta for cfg in configs])

    def networks(params):
        enc = StochasticEncoder(encoder.mlp.with_params(nn.param_group(params, "enc")),
                                first.rep_dim)
        return enc, decoder.with_params(nn.param_group(params, "dec"))

    def draw(rng):
        y_idx, z_idx = task.sample_batch(first.batch, rng)
        return y_idx, z_idx, rng.standard_normal((first.batch, first.rep_dim))

    def loss(params, step):
        y_idx, z_idx, eps = (np.stack(block) for block in zip(*map(draw, train_rngs)))
        total, ce, kl = _loss_graph(encoder, decoder, nn.parameters(params), y_idx,
                                    z_idx, eps, betas)
        return total, {"ce": ce.value.tolist(), "info_bound": kl.value.tolist()}

    params, curves, curve = nn.fit_sweep(configs, start, loss)
    return nn.TrainedSweep(tuple(map(networks, params)), curves, curve)


# ---------------------------------------------------------------------------
# exact invariance measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    """Exactly enumerated information quantities for one encoder/task pair.

    ``epsilon`` is I(x;z|n) - I(y;z): the shortfall of the representation's
    conditional task information against the task information in the data.
    ``prop_slack`` is I(x;y) - I(y;z) - I(x;n), non-negative exactly when
    the invariance bound I(x;n) <= I(x;y) - I(y;z) holds.
    """

    i_xy: float
    i_xz: float
    i_yz: float
    i_xn: float
    i_xz_given_n: float
    h_z_given_y: float
    epsilon: float
    cells: int
    step: float

    @property
    def prop_slack(self) -> float:
        return self.i_xy - self.i_yz - self.i_xn


def _cell_table(encoder: StochasticEncoder, task: NuisanceTask, step: float):
    """p(cell | y) over a product grid of pitch ``step``.

    Returns (table (Y, cells), per-dim bin edges). The grid for each
    dimension spans five standard deviations of the aggregate posterior
    either side of its mean, and the two edge bins extend to infinity so
    rows sum to 1.
    """
    means, stds = encoder.posterior_table()
    p_y = task.observation_prior()
    rows = None
    all_edges = []
    for dim in range(encoder.rep_dim):
        m, s = means[:, dim], stds[:, dim]
        agg_mean = float(np.dot(p_y, m))
        agg_var = float(np.dot(p_y, s**2 + m**2) - agg_mean**2)
        half = 5.0 * math.sqrt(max(agg_var, 1e-12))
        edges = np.arange(agg_mean - half, agg_mean + half + step / 2, step)
        all_edges.append(edges)
        masses = info.gaussian_bin_masses(m, s, edges)
        if rows is None:
            rows = masses
        else:
            rows = (rows[:, :, None] * masses[:, None, :]).reshape(task.y_card, -1)
    return rows, all_edges


def _channel_joints(task: NuisanceTask, rows):
    """The (z, n, x) and (y, x) joints of the channel p(x | y) in ``rows``.

    Both come from the task's validated tables and the channel's rows, so
    they skip the checks but keep the renormalising division.
    """
    p_zn = task.joint_zny().marginal_table(("z", "n"))
    return (info.DiscreteJoint._derived(("z", "n", "x"), p_zn[:, :, None] * rows[task.f_map]),
            info.DiscreteJoint._derived(("y", "x"), task.observation_prior()[:, None] * rows))


def _bin_representatives(edges, step):
    """Cell representatives: bin midpoints; the unbounded edge bins get the
    point half a step beyond the outermost edge."""
    return np.concatenate([[edges[0] - step / 2], (edges[:-1] + edges[1:]) / 2,
                           [edges[-1] + step / 2]])


def measure_invariance(encoder, task: NuisanceTask, step=0.05) -> InvarianceReport:
    """Enumerate I(x;y), I(x;z), I(y;z), I(x;n), I(x;z|n), H(z|y), epsilon.

    All quantities come from explicit joint tables: the (z, n) structure is
    finite and the Gaussian posterior over x is quantized on a fixed grid
    of pitch ``step`` (masses via the normal CDF, unbounded edge bins), so
    every value is an exact discrete computation up to the grid coarseness.
    """
    cell_rows, _ = _cell_table(encoder, task, step)
    n_cells = cell_rows.shape[1]
    joint, joint_yx = _channel_joints(task, cell_rows)

    joint_yz = task.joint_zny().marginal(("y", "z"))
    i_yz = info.mutual_information(joint_yz, "y", "z")
    h_z_given_y = joint_yz.entropy_of(("y", "z")) - joint_yz.entropy_of("y")

    i_xz_given_n = info.mutual_information(joint, "x", "z", given="n")
    report = InvarianceReport(
        i_xy=info.mutual_information(joint_yx, "x", "y"),
        i_xz=info.mutual_information(joint, "x", "z"),
        i_yz=i_yz,
        i_xn=info.mutual_information(joint, "x", "n"),
        i_xz_given_n=i_xz_given_n,
        h_z_given_y=h_z_given_y,
        epsilon=i_xz_given_n - i_yz,
        cells=n_cells,
        step=step,
    )
    return report


# ---------------------------------------------------------------------------
# stacked representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StackLayerReport:
    i_xy: float
    i_xn: float
    accuracy: float


def _monotone_pwl(rng, segments, lo, hi):
    """Random strictly increasing piecewise-linear map on [lo, hi]."""
    knots = np.linspace(lo, hi, segments + 1)
    slopes = rng.uniform(0.4, 1.6, size=segments)
    heights = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
    heights = heights - heights.mean() + rng.uniform(-0.3, 0.3)

    def apply(x):
        return np.interp(x, knots, heights)

    return apply


def stacked_bottleneck_experiment(task: NuisanceTask, widths, noise_levels,
                                  seed=0, layer_maps=None) -> list:
    """Stack representations y -> x1 -> x2 -> ... and enumerate each layer.

    Layer 1 is a separated stochastic encoder with noise ``noise_levels[0]``;
    each further layer applies a deterministic scalar map (random strictly
    monotone piecewise-linear with ``widths[k]`` segments, or the callables
    in ``layer_maps``) to the previous layer's cell representatives and adds
    Gaussian noise ``noise_levels[k]``. All layers are discrete channels, so
    I(x_k; y), I(x_k; n) and the Bayes accuracy are exact; the chain is
    checked for the data-processing ordering I(x_{k+1}; y) <= I(x_k; y).
    """
    widths = list(widths)
    noise_levels = list(noise_levels)
    if len(widths) < 2:
        raise ValueError("need at least two layers to stack")
    if len(noise_levels) != len(widths):
        raise ValueError("need one noise level per layer")
    rng = np.random.default_rng(seed)

    step = 0.05
    encoder = random_separated_encoder(task, rng, rep_dim=1)
    means, _ = encoder.posterior_table()
    noisy = StochasticEncoder.from_table(
        means, np.full_like(means, math.log(max(noise_levels[0], 1e-3)))
    )
    cell_rows, cell_edges = _cell_table(noisy, task, step)
    reps = _bin_representatives(cell_edges[0], step)

    def layer_report(channel_rows):
        joint, joint_yx = _channel_joints(task, channel_rows)
        accuracy = float(np.sum(np.max(joint.marginal_table(("z", "x")), axis=0)))
        return StackLayerReport(
            i_xy=info.mutual_information(joint_yx, "x", "y"),
            i_xn=info.mutual_information(joint, "x", "n"),
            accuracy=accuracy,
        )

    reports = [layer_report(cell_rows)]
    rows = cell_rows
    for k in range(1, len(widths)):
        if layer_maps is not None and layer_maps[k - 1] is not None:
            mapping = layer_maps[k - 1]
        else:
            mapping = _monotone_pwl(rng, widths[k], reps[0], reps[-1])
        mapped = np.asarray(mapping(reps), dtype=float)
        sigma = noise_levels[k]
        lo, hi = mapped.min(), mapped.max()
        pad = 5.0 * max(sigma, step)
        new_edges = np.arange(lo - pad, hi + pad + step / 2, step)
        if sigma > 0:
            channel = info.gaussian_bin_masses(mapped, np.full_like(mapped, sigma), new_edges)
        else:
            idx = np.searchsorted(new_edges, mapped)
            channel = np.zeros((mapped.size, new_edges.size + 1))
            channel[np.arange(mapped.size), idx] = 1.0
        rows = rows @ channel
        reps = _bin_representatives(new_edges, step)
        reports.append(layer_report(rows))

    for a, b in zip(reports, reports[1:]):
        if b.i_xy > a.i_xy + 1e-12 or b.i_xn > a.i_xn + 1e-12:
            raise RuntimeError("data-processing ordering violated across the stack")
    return reports


# ---------------------------------------------------------------------------
# weight-space information
# ---------------------------------------------------------------------------


@dataclass
class WeightPosterior:
    """Fully factorized Gaussian over the weights of a fixed architecture.

    ``mu`` and ``log_var`` are per-parameter arrays keyed like the MLP's
    parameters; the prior is N(0, I) shared across weights.
    """

    template: nn.MLP
    mu: dict
    log_var: dict

    def kl_to_prior(self) -> float:
        total = 0.0
        for name, mu in self.mu.items():
            log_var = self.log_var[name].ravel()
            total += info.kl_to_standard_normal(mu.ravel(), np.exp(log_var), log_var)
        return float(total)

    @staticmethod
    def from_init(widths, activations, rng) -> "WeightPosterior":
        """Means at a seeded MLP init, every log-variance at -6."""
        template = nn.init_mlp(widths, activations, rng)
        mu = {k: v.copy() for k, v in template.params().items()}
        log_var = {k: np.full_like(v, -6.0) for k, v in mu.items()}
        return WeightPosterior(template, mu, log_var)


def _weight_loss_graph(posterior: WeightPosterior, xs, labels, beta, eps):
    mu_nodes = nn.parameters(posterior.mu, "mu")
    lv_nodes = nn.parameters(posterior.log_var, "lv")
    w_nodes = {
        k: mu_nodes[k] + (lv_nodes[k] * 0.5).exp() * nn.constant(eps[k])
        for k in mu_nodes
    }
    logits = nn.forward(posterior.template, nn.constant(np.atleast_2d(xs)),
                        param_nodes=w_nodes)
    ce = -nn.gather_logprob(nn.log_softmax_n(logits), labels).mean()
    kl = None
    for k in mu_nodes:
        var = lv_nodes[k].exp()
        term = (0.5 * (var + mu_nodes[k] * mu_nodes[k] - 1.0)
                - 0.5 * lv_nodes[k]).sum()
        kl = term if kl is None else kl + term
    total = ce + beta * kl
    return total, ce, kl


def train_weight_posterior(xs, labels, widths, beta, seed, steps=300):
    """Train a factorized Gaussian weight posterior on a fixed dataset.

    SGD with learning rate 0.05 and momentum 0.9. Returns (posterior,
    final_kl, final_ce); used by the regularizer sweep checks, where
    growing beta must shrink the final KL(q || p). Raises
    :class:`~ibsep.nn.TrainingDiverged` with the step when the loss or its
    gradient stops being finite.
    """
    seq = np.random.SeedSequence(seed)
    init_ss, train_ss = seq.spawn(2)
    posterior = WeightPosterior.from_init(
        widths, ["relu"] * (len(widths) - 2) + ["identity"],
        np.random.default_rng(init_ss))
    rng = np.random.default_rng(train_ss)
    labels = np.asarray(labels, dtype=int)
    params = {f"mu.{k}": v for k, v in posterior.mu.items()}
    params.update({f"lv.{k}": v for k, v in posterior.log_var.items()})
    state = nn.OptimizerState(schedule=0.05, momentum=0.9)

    def set_posterior(params):
        posterior.mu = nn.param_group(params, "mu")
        posterior.log_var = nn.param_group(params, "lv")

    def loss(params, step):
        set_posterior(params)
        eps = {k: rng.standard_normal(v.shape) for k, v in posterior.mu.items()}
        total, ce, _ = _weight_loss_graph(posterior, xs, labels, beta, eps)
        return total, {"ce": float(ce.value)}

    params, curve = nn.fit(params, loss, state, steps)
    set_posterior(params)
    ce_val = curve[-1]["ce"] if curve else math.nan
    return posterior, posterior.kl_to_prior(), ce_val


def flatness_diagnostic(loss_fn, w_hat, beta) -> dict:
    """Curvature-based report on a trained minimum. Report only: no pass/fail.

    ``hessian_trace`` comes from central second differences along each of
    the K coordinates of ``w_hat`` (step 1e-3). ``bound_rhs`` evaluates
    0.5*K*(ln ||w||^2 + ln tr(H) - K ln(K^2 beta / 2)). ``info_estimate``
    is KL(q || N(0, I)) for the quadratic-approximation diagonal posterior
    q with variances beta / (H_ii + beta) centered at the minimum.
    Non-finite curvature does not raise; the ``finite`` flag records it.
    """
    w_hat = np.asarray(w_hat, dtype=float).reshape(-1)
    K, fd_step = w_hat.size, 1e-3
    base = float(loss_fn(w_hat))
    diag = np.empty(K)
    for i in range(K):
        probe = w_hat.copy()
        probe[i] += fd_step
        hi = float(loss_fn(probe))
        probe[i] = w_hat[i] - fd_step
        lo = float(loss_fn(probe))
        diag[i] = (hi - 2.0 * base + lo) / fd_step**2
    trace = float(np.sum(diag))
    finite = bool(np.isfinite(trace))
    norm_sq = float(np.dot(w_hat, w_hat))
    with np.errstate(invalid="ignore", divide="ignore"):
        bound_rhs = 0.5 * K * (
            math.log(norm_sq) + (math.log(trace) if finite and trace > 0 else math.nan)
            - K * math.log(K**2 * beta / 2.0)
        ) if beta > 0 and norm_sq > 0 else math.nan
    variances = beta / (np.clip(diag, 0.0, None) + beta)
    return {
        "info_estimate": float(info.kl_to_standard_normal(w_hat, variances,
                                                          np.log(variances))),
        "bound_rhs": float(bound_rhs) if bound_rhs == bound_rhs else math.nan,
        "hessian_trace": trace,
        "finite": finite,
    }
