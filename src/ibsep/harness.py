"""Experiment batteries, configuration, metric files, and the sepctl CLI.

Each named experiment is a deterministic battery of checks that returns
:class:`MetricRecord` rows; the CLI persists them as ``metrics.csv`` (no
timing, so reruns with the same seed are byte-identical) plus a
``summary.json`` that carries wall-clock times. The batteries are plain
functions so the test suite can call them directly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import operator
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import control_sep, info, lgss, nn, seprep, static_ib

__all__ = [
    "EXPERIMENT_NAMES",
    "ExperimentConfig",
    "MetricRecord",
    "experiment_seed",
    "run_gradcheck",
    "run_info",
    "run_kalman",
    "run_static_ib",
    "run_seprep",
    "run_control_sep",
    "run",
    "write_metrics_csv",
    "main",
]

EXPERIMENT_NAMES = ("gradcheck", "info", "kalman", "static-ib", "seprep",
                    "control-sep")


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: experiment name, root seed, output dir, overrides."""

    experiment: str
    seed: int = 0
    out: str = "results"
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES + ("all",):
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from "
                f"{', '.join(EXPERIMENT_NAMES + ('all',))}"
            )
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if not isinstance(self.out, str):
            raise ValueError(f"out must be a string, got {self.out!r}")


@dataclass(frozen=True)
class MetricRecord:
    """One checked quantity: value, tolerance, verdict, wall-clock seconds,
    and for a gate the number of instance values it reduced."""

    experiment: str
    key: str
    value: float
    tolerance: float | None
    status: str  # "pass" | "fail" | "report"
    seconds: float
    instances: int | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail", "report"):
            raise ValueError(f"bad status {self.status!r}")
        if not np.isfinite(self.value) and self.status == "pass":
            raise ValueError("non-finite value cannot pass")


def experiment_seed(root_seed: int, name: str) -> int:
    """Derived 64-bit stream seed: hash of (root seed, experiment name).

    Running a subset of experiments must draw the same randomness for each
    as running them all, so the streams are decoupled by hashing instead
    of splitting sequentially.
    """
    digest = hashlib.sha256(f"{int(root_seed)}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class _Clock:
    def __init__(self):
        self._last = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        dt = now - self._last
        self._last = now
        return dt


_DEFAULTS = {
    "gradcheck": {"models": 100, "fd_step": 1e-4, "tol": 1e-5},
    "info": {"instances": 1000, "tol": 1e-12},
    "kalman": {"models": 20, "tol": 1e-8, "riccati_models": 5,
               "riccati_T": 1000},
    "static-ib": {"encoders": 100, "train_seeds": 3, "train_steps": 400,
                  "flatness_steps": 150},
    "seprep": {"train_seeds": 3, "train_steps": 1000,
               "betas": (1e-1, 1e-2, 1e-3), "traj_len": 40, "batch": 16,
               "rep_dim": 4, "eval_traj": 50, "hmm_T": 6,
               "rand_candidates": 20},
    "control-sep": {"instances": 20},
}


# Integer keys count models, instances, steps or sizes, so a value below 1
# would check nothing; these keys have other inclusive bounds. The kalman
# gates fail by themselves when they compared no model.
_INT_BOUNDS = {("kalman", "models"): (-math.inf, math.inf),
               ("kalman", "riccati_models"): (-math.inf, math.inf),
               ("seprep", "hmm_T"): (1, seprep._ENUM_MAX_T)}


def _number(key: str, value):
    # NaN, infinities and ints too large for a float all fail the comparison
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return value
    raise ValueError(f"{key} must be a finite number, got {value!r}")


def _typed(name: str, key: str, value, default):
    """``value`` converted to its default's type, or a ValueError naming ``key``."""
    if isinstance(default, tuple):  # betas: the sweep gate compares neighbours
        if not (isinstance(value, (list, tuple)) and len(value) >= 2):
            raise ValueError(f"{key} must be a list of at least two numbers, got {value!r}")
        betas = tuple(float(_number(key, v)) for v in value)
        # a repeated beta would make the gate compare a beta with itself
        if min(betas) < 0 or len(set(betas)) < len(betas):
            raise ValueError(f"{key} must be distinct non-negative numbers, got {value!r}")
        return betas
    if isinstance(default, float):
        value = float(_number(key, value))
        # a zero step divides by zero, a negative one disarms the kink margin
        if key == "fd_step" and not value > 0:
            raise ValueError(f"{key} must be positive, got {value!r}")
        return value
    return _integer(key, value, *_INT_BOUNDS.get((name, key), (1, math.inf)))


def _integer(key: str, value, low=-math.inf, high=math.inf) -> int:
    """An integral number (not a bool) in [low, high], or a ValueError naming key."""
    if _number(key, value) != int(value) or not low <= value <= high:
        raise ValueError(f"{key} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def _opts(name: str, overrides) -> dict:
    """The battery's defaults with the overrides, typed and checked.

    A key the battery does not know is a ValueError naming it.
    """
    merged = dict(_DEFAULTS[name])
    for key, value in (overrides or {}).items():
        if key not in merged:
            raise ValueError(f"unknown override key {key!r} for {name!r}")
        merged[key] = _typed(name, key, value, merged[key])
    return merged


def _battery_overrides(experiment: str, names, overrides) -> dict:
    """The overrides of each battery in ``names``, by the key's namespace.

    ``battery.key`` goes to that battery alone, and a bare ``key`` to the
    one selected battery that knows it. A key that no selected battery
    knows, or a bare key that several know, is a ValueError naming it.
    """
    split = {name: {} for name in names}
    for key, value in overrides.items():
        battery, _, bare = key.rpartition(".")
        owners = [battery] if battery else [n for n in names if key in _DEFAULTS[n]]
        if len(owners) > 1:
            raise ValueError(f"override key {key!r} is known to {', '.join(owners)}; "
                             f"name one battery, as in {owners[0]}.{key}")
        if not owners or owners[0] not in split or bare not in _DEFAULTS[owners[0]]:
            raise ValueError(f"unknown override key {key!r} for {experiment!r}")
        split[owners[0]][bare] = value
    return split


def _gate(experiment, key, values, reduce, op, bound, tolerance,
          clock) -> MetricRecord:
    """The one pass/fail decision: ``op(reduce(values), bound)``.

    ``reduce`` is ``np.max``, ``np.min`` or ``np.mean``, so a NaN in any
    instance reaches the recorded value and fails. A gate that saw no
    instance records NaN and fails rather than passing vacuously.
    ``tolerance`` is only the column written to ``metrics.csv``.
    """
    flat = np.asarray(values, dtype=float).ravel()
    value = float(reduce(flat)) if flat.size else math.nan
    ok = flat.size > 0 and math.isfinite(value) and op(value, bound)
    return MetricRecord(experiment, key, value, tolerance,
                        "pass" if ok else "fail", clock.lap(), flat.size)


def _report(experiment, key, value, clock) -> MetricRecord:
    return MetricRecord(experiment, key, float(value), None, "report",
                        clock.lap())


# ---------------------------------------------------------------------------
# gradcheck: backward pass vs central finite differences
# ---------------------------------------------------------------------------


def _fd_gradients(graph_loss, params, step):
    """Central differences of ``graph_loss`` in each entry of ``params``.

    The parameters' K entries in turn, each moved by +step and then by
    -step, make 2K probes on one run axis, shaped as ``nn.stack_runs``
    shapes them, so one forward gives all their losses, each bit for bit
    a lone forward's. Each parameter is built as one array: its value
    repeated on every probe row, with ``step`` added to its own entries on
    their rows.
    """
    sizes = [value.size for value in params.values()]
    rows, probes, at = 2 * sum(sizes), {}, 0
    for (name, value), size in zip(params.items(), sizes):
        probe = np.repeat(value.reshape(1, -1), rows, axis=0)
        entries = np.arange(size)
        probe[2 * (at + entries), entries] += step
        probe[2 * (at + entries) + 1, entries] += -step
        probes[name] = probe.reshape(rows, *(value.shape if value.ndim > 1 else (1, size)))
        at += size
    losses = graph_loss(probes).value
    diffs = np.split((losses[0::2] - losses[1::2]) / (2 * step), np.cumsum(sizes)[:-1])
    return {name: d.reshape(v.shape) for (name, v), d in zip(params.items(), diffs)}


def _graph_loss(mlp, x, mode, labels, nodes):
    """The loss of ``mlp`` on ``x``: one per run for parameters on a run axis."""
    out = nn.forward(mlp, x, param_nodes=nodes)
    if mode == "ce":
        logp = nn.log_softmax_n(out)
        rows = np.broadcast_to(labels, logp.value.shape[:-1])
        return -nn.gather_logprob(logp, rows).mean(axis=-1)
    return out.square().sum(axis=(-2, -1)) * 0.5


def _min_preactivation_gap(mlp, x) -> float:
    """Distance of the nearest hidden pre-activation from the ReLU kink."""
    gap = np.inf
    h = x
    for w, b, act in zip(mlp.weights, mlp.biases, mlp.activations):
        pre = h @ w + b
        if act == "relu":
            gap = min(gap, float(np.min(np.abs(pre))))
            h = np.maximum(pre, 0.0)
        else:
            h = pre
    return gap


def _gradcheck_models(seed, opts):
    """The battery's ``(mlp, x, mode, labels)`` cases, in order.

    Finite differences are only valid away from the ReLU kink, so each
    (model, input) pair is resampled until every hidden pre-activation
    clears the kink by more than any FD perturbation can move it.
    """
    rng = np.random.default_rng(seed)
    margin = 50.0 * opts["fd_step"]
    for index in range(opts["models"]):
        while True:
            depth = int(rng.integers(1, 3))
            widths = [int(rng.integers(2, 6)) for _ in range(depth + 2)]
            acts = ["relu"] * depth + ["identity"]
            mlp = nn.init_mlp(widths, acts, rng)
            params = mlp.params()
            for name in params:
                if name.startswith("b"):
                    params[name] = rng.normal(0.0, 0.1, size=params[name].shape)
            mlp = mlp.with_params(params)
            x = rng.standard_normal((3, widths[0]))
            if _min_preactivation_gap(mlp, x) > margin:
                break
        mode = "ce" if index % 2 == 0 else "quad"
        yield mlp, x, mode, rng.integers(0, widths[-1], size=3)


def run_gradcheck(seed: int, overrides=None) -> list:
    """Random MLP battery: analytic gradients vs central finite differences."""
    opts = _opts("gradcheck", overrides)
    clock = _Clock()
    errors = []
    for mlp, x, mode, labels in _gradcheck_models(seed, opts):
        params = mlp.params()
        analytic = nn.backward(_graph_loss(mlp, x, mode, labels, nn.parameters(params)))
        fd = _fd_gradients(lambda nodes: _graph_loss(mlp, x, mode, labels, nodes),
                           params, opts["fd_step"])
        for name in params:
            a, f = analytic[name], fd[name]
            denom = max(1e-8, float(np.max(np.abs(a))), float(np.max(np.abs(f))))
            errors.append(float(np.max(np.abs(a - f))) / denom)
    return [
        _gate("gradcheck", "max_rel_error", errors, np.max, operator.lt,
              opts["tol"], opts["tol"], clock),
        _report("gradcheck", "models_checked", opts["models"], clock),
    ]


# ---------------------------------------------------------------------------
# info: exact identities on random discrete instances
# ---------------------------------------------------------------------------


def run_info(seed: int, overrides=None) -> list:
    """Mutual-information identity and cross-entropy decomposition."""
    opts = _opts("info", overrides)
    rng = np.random.default_rng(seed)
    clock = _Clock()
    n = opts["instances"]

    mi_errs = []
    for _ in range(n):
        kx = int(rng.integers(2, 6))
        ky = int(rng.integers(2, 6))
        prior = info.DiscreteDistribution(rng.dirichlet(np.ones(kx)))
        channel = info.DiscreteChannel(rng.dirichlet(np.ones(ky), size=kx))
        sides = info.mi_identity_check(prior, channel)
        mi_errs.append(abs(sides["lhs"] - sides["rhs"]))
    records = [_gate("info", "mi_identity_max_abs_err", mi_errs, np.max,
                     operator.lt, opts["tol"], opts["tol"], clock)]

    ce_errs = []
    for _ in range(n):
        k = int(rng.integers(2, 9))
        p = info.DiscreteDistribution(rng.dirichlet(np.ones(k)))
        q = info.DiscreteDistribution(rng.dirichlet(np.ones(k)))
        lhs = info.cross_entropy_discrete(p, q)
        rhs = info.entropy(p) + info.kl_discrete(p, q)
        ce_errs.append(abs(lhs - rhs))
    records.append(_gate("info", "ce_decomposition_max_abs_err", ce_errs,
                         np.max, operator.lt, opts["tol"], opts["tol"], clock))
    return records


# ---------------------------------------------------------------------------
# kalman: recursive filter vs batch conditioning, Riccati fixed point
# ---------------------------------------------------------------------------


def run_kalman(seed: int, overrides=None) -> list:
    """Filter-vs-oracle agreement on random stable state-space models."""
    opts = _opts("kalman", overrides)
    riccati_T = opts["riccati_T"]  # at least 1: the gate reads a last posterior
    rng = np.random.default_rng(seed)
    clock = _Clock()

    filter_devs = []
    models = []
    for _ in range(opts["models"]):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        model = lgss.random_stable_model(rng, n=n, m=m)
        models.append(model)
        T = int(rng.integers(10, 51))
        traj = lgss.simulate(model, T, rng)
        (means, covs), _ = lgss.run_filter(model, [traj])
        for t in (max(1, T // 2), T):
            oracle = lgss.batch_posterior_oracle(model, traj, t)
            filter_devs += [np.max(np.abs(means[0, t - 1] - oracle.mean)),
                            np.max(np.abs(covs[0, t - 1] - oracle.cov))]
    records = [_gate("kalman", "filter_vs_batch_max_dev", filter_devs, np.max,
                     operator.lt, opts["tol"], opts["tol"], clock)]

    riccati_devs = []
    for model in models[: max(0, opts["riccati_models"])]:
        fixed = lgss.riccati_iterate(model, 2.0 * np.eye(model.n), 5 * riccati_T)
        traj = lgss.simulate(model, riccati_T, rng)
        (_, covs), _ = lgss.run_filter(model, [traj])
        riccati_devs.append(np.max(np.abs(covs[0, -1] - fixed)))
    records.append(_gate("kalman", "riccati_vs_filter_max_dev", riccati_devs,
                         np.max, operator.lt, opts["tol"], opts["tol"], clock))
    return records


# ---------------------------------------------------------------------------
# static-ib: invariance bound, stacking, endpoints, flatness
# ---------------------------------------------------------------------------


def _flatness_records(opts, seed, clock) -> list:
    rng = np.random.default_rng(seed)
    xs = np.vstack([rng.normal(-1.0, 0.4, (20, 2)),
                    rng.normal(1.0, 0.4, (20, 2))])
    labels = np.array([0] * 20 + [1] * 20)
    post, _, _ = static_ib.train_weight_posterior(
        xs, labels, [2, 4, 2], 1e-2, seed, steps=opts["flatness_steps"])
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
        mlp = post.template.with_params(unflatten(w))
        return float(_graph_loss(mlp, xs, "ce", labels, None).value)

    w_hat = np.concatenate([post.mu[k].ravel() for k in names])
    out = static_ib.flatness_diagnostic(loss, w_hat, beta=1e-2)
    records = [
        _gate("static-ib", "flatness_all_finite", [float(out["finite"])], np.min,
              operator.ge, 1.0, None, clock),
        _report("static-ib", "flatness_info_estimate", out["info_estimate"], clock),
        _report("static-ib", "flatness_bound_rhs", out["bound_rhs"], clock),
        _report("static-ib", "flatness_hessian_trace", out["hessian_trace"], clock),
    ]
    # analytic probe: quadratic loss with known Hessian trace
    lam, K = 0.7, 6
    probe = static_ib.flatness_diagnostic(
        lambda w: 0.5 * lam * float(np.dot(w, w)), np.full(K, 0.3), beta=1e-2)
    records.append(_gate("static-ib", "flatness_quadratic_trace_err",
                         [abs(probe["hessian_trace"] - lam * K)], np.max,
                         operator.lt, 1e-6, 1e-6, clock))
    return records


def _exact_static_ib(opts, seed) -> tuple:
    """static-ib's checks that read no trained network, on a clock of their own.

    Returns the invariance and stacking records, which alone read the
    battery's ``rng``, and the flatness records.
    """
    rng = np.random.default_rng(seed)
    clock = _Clock()
    records = []

    # invariance bound over random separated encoders on bijective tasks
    margins, epsilons, excesses = [], [], []
    for index in range(opts["encoders"]):
        task = static_ib.make_nuisance_task(int(rng.integers(2, 5)),
                                            int(rng.integers(2, 5)),
                                            seed=int(rng.integers(2**31)))
        encoder = static_ib.random_separated_encoder(task, rng)
        rep = static_ib.measure_invariance(encoder, task)
        margins.append(rep.i_xy - rep.i_yz + 0.02 - rep.i_xn)
        epsilons.append(rep.epsilon)
        excesses.append(rep.epsilon - rep.h_z_given_y - 0.02)
    records.append(_gate("static-ib", "invariance_min_bound_margin", margins,
                         np.min, operator.ge, 0.0, 0.02, clock))
    # on these bijective tasks z is independent of n and H(z|y) = 0, so
    # epsilon = H(z|y) - H(z|x,n) = -H(z|x,n) <= 0 exactly, not >= 0; the
    # floor only bounds H(z|x,n), how much the encoder's quantised cells
    # overlap (means 0.3 apart, sigma <= 0.03)
    records.append(_gate("static-ib", "epsilon_min", epsilons, np.min,
                         operator.ge, -1e-6, 1e-6, clock))
    records.append(_gate("static-ib", "epsilon_max_excess_over_hzy", excesses,
                         np.max, operator.le, 0.0, 0.02, clock))

    # stacking: deterministic second layer keeps information exactly;
    # injected noise can only lose it, about the task and the nuisance both
    task = static_ib.make_nuisance_task(3, 2, seed=11)
    exact = static_ib.stacked_bottleneck_experiment(
        task, widths=[1, 4, 4], noise_levels=[0.05, 0.0, 0.0],
        seed=int(rng.integers(2**31)))
    records.append(_gate("static-ib", "stack_exact_dpi_max_violation",
                         [b.i_xy - a.i_xy for a, b in zip(exact, exact[1:])],
                         np.max, operator.le, 1e-12, 1e-12, clock))
    noisy = static_ib.stacked_bottleneck_experiment(
        task, widths=[1, 4, 4], noise_levels=[0.05, 0.05, 0.1],
        seed=int(rng.integers(2**31)))
    records.append(_gate("static-ib", "stack_noisy_nuisance_max_increase",
                         [b.i_xn - a.i_xn for a, b in zip(noisy, noisy[1:])],
                         np.max, operator.le, 1e-12, 1e-12, clock))
    return records, _flatness_records(opts, seed, clock)


def run_static_ib(seed: int, overrides=None) -> list:
    """Invariance battery, stacked channels, training endpoints, flatness.

    The exact checks run :func:`~ibsep.nn.beside` the training and its
    evaluations, and the records keep the order of this docstring.
    """
    opts = _opts("static-ib", overrides)
    with nn.beside(lambda: _exact_static_ib(opts, seed)) as exact:
        trained = _trained_static_ib(opts, seed)
        checked, flatness = exact()
    return checked + trained + flatness


def _trained_static_ib(opts, seed) -> list:
    """static-ib's training records, on a clock of their own."""
    clock = _Clock()
    records = []
    # training endpoints, averaged over seeds; the free (beta 0) and squeezed
    # (beta 1e3, a smaller step) seeds train as one sweep
    task = static_ib.make_nuisance_task(2, 2, seed=0)
    steps = opts["train_steps"]
    n_seeds = opts["train_seeds"]
    configs = [static_ib.IBLConfig(beta=0.0, rep_dim=1, steps=steps, batch=64,
                                   seed=seed + s) for s in range(n_seeds)]
    configs += [replace(cfg, beta=1e3, learning_rate=1e-4) for cfg in configs]
    runs = static_ib.train_ib(task, configs).runs
    free_runs, squeezed_runs = runs[:n_seeds], runs[n_seeds:]
    accs, bounds, devs = [], [], []
    for s, (free, squeezed) in enumerate(zip(free_runs, squeezed_runs)):
        accs.append(static_ib.eval_accuracy(*free, task, 256,
                                            np.random.default_rng(123 + s)))
        encoder, decoder = squeezed
        bounds.append(static_ib.info_bound_exact(encoder, task))
        acc = static_ib.eval_accuracy(encoder, decoder, task, 512,
                                      np.random.default_rng(321 + s))
        devs.append(abs(acc - 1.0 / task.z_card))
    records.append(_gate("static-ib", "beta0_mean_accuracy", accs, np.mean,
                         operator.ge, 0.99, 0.01, clock))
    records.append(_gate("static-ib", "hi_beta_mean_info_bound", bounds,
                         np.mean, operator.lt, 0.01, 0.01, clock))
    records.append(_gate("static-ib", "hi_beta_mean_accuracy_dev", devs,
                         np.mean, operator.le, 0.05, 0.05, clock))
    return records


# ---------------------------------------------------------------------------
# seprep: prediction bounds, Kalman embedding, trained filters
# ---------------------------------------------------------------------------


def _scalar_lgss() -> lgss.LGSSModel:
    return lgss.LGSSModel(A=[[0.9]], C=[[1.0]],
                          Q=[[0.1]], R=[[0.1]], mu0=[0.0], P0=[[1.0]])


def _hmm_instances(rng):
    fixed = seprep.FiniteHMM(trans=[[0.8, 0.2], [0.3, 0.7]],
                             emit=[[0.9, 0.1], [0.2, 0.8]],
                             init=[0.6, 0.4])
    random3 = seprep.FiniteHMM(trans=rng.dirichlet(np.ones(3) * 5, size=3),
                               emit=rng.dirichlet(np.ones(3) * 5, size=3),
                               init=rng.dirichlet(np.ones(3) * 5))
    return [fixed, random3]


def _marginal_slack_identity_err(reference) -> float:
    """|slack(marginal candidate) - (1/T) sum_t I(z_t; y^t)|, both exact."""
    hmm, T, probs = reference["hmm"], reference["T"], reference["prefix_probs"]
    mi_sum = 0.0
    for t in range(T):
        truths = reference["truths"][t, 0]
        marginal = sum(probs[p] * truth for p, truth in truths.items())
        for p, truth in truths.items():
            ratio = np.log(truth / marginal, where=truth > 0,
                           out=np.zeros_like(marginal))
            mi_sum += probs[p] * float((truth * ratio).sum())
    out = seprep.nstep_bound_check(reference, seprep.marginal_candidate(hmm, T))
    return abs(out["slack"] - mi_sum / T)


def _random_candidate(reference, rng):
    """A candidate of random guesses, drawn from ``rng`` one (t, k) level at a time.

    The first call for a level draws a Dirichlet(1) guess for each of the
    level's histories, in the reference's order, with one ``dirichlet``
    call, which gives the numbers of one call per history in that order.
    """
    n_obs, truths, levels = reference["hmm"].n_obs, reference["truths"], {}

    def candidate(history, k):
        key = (len(history), k)
        if key not in levels:
            level = truths[key]
            levels[key] = dict(zip(level, rng.dirichlet(np.ones(n_obs), size=len(level))))
        return levels[key][history]

    return candidate


def run_seprep(seed: int, overrides=None) -> list:
    """Entropy bounds on enumerable HMMs, the Kalman embedding, training."""
    opts = _opts("seprep", overrides)
    rng = np.random.default_rng(seed)
    clock = _Clock()
    records = []

    # n-step prediction loss: bound, attainment, and the marginal's slack,
    # every candidate scored against one exact reference per HMM
    T = opts["hmm_T"]
    exact_slacks, marginal_errs, slacks = [], [], []
    for hmm in _hmm_instances(rng):
        reference = seprep.hmm_exact_reference(hmm, T)
        out = seprep.nstep_bound_check(reference,
                                       seprep.exact_posterior_candidate(hmm))
        exact_slacks.append(abs(out["slack"]))
        marginal_errs.append(_marginal_slack_identity_err(reference))
        for _ in range(opts["rand_candidates"]):
            slacks.append(seprep.nstep_bound_check(
                reference, _random_candidate(reference, rng))["slack"])
    records.append(_gate("seprep", "hmm_exact_candidate_max_abs_slack",
                         exact_slacks, np.max, operator.lt, 1e-9, 1e-9, clock))
    records.append(_gate("seprep", "hmm_marginal_slack_identity_err",
                         marginal_errs, np.max, operator.lt, 1e-9, 1e-9, clock))
    records.append(_gate("seprep", "hmm_min_candidate_slack", slacks, np.min,
                         operator.ge, -1e-12, 1e-12, clock))

    # the Kalman filter, embedded as a filtering model, is exact
    scalar = _scalar_lgss()
    embed = seprep.evaluate_vs_kalman(seprep.KalmanSepFilter(scalar), scalar,
                                      T=opts["traj_len"], num_traj=10,
                                      seed=int(rng.integers(2**31)))
    records.append(_gate("seprep", "kalman_embed_abs_nll_gap",
                         [abs(embed["gap"])], np.max, operator.lt, 1e-9, 1e-9,
                         clock))
    records.append(_gate("seprep", "kalman_embed_mean_kl", [embed["mean_kl"]],
                         np.max, operator.lt, 1e-9, 1e-9, clock))

    # trained filters: a beta sweep, trained as one graph; the smallest beta
    # doubles as the near-optimality candidate evaluated against the oracle
    betas = sorted(opts["betas"], reverse=True)
    steps = opts["train_steps"]
    n_seeds = opts["train_seeds"]
    tail = max(1, min(50, steps // 4))

    def schedule(k):
        # linear warmup tames the early recurrent instability, then a 1/k
        # decay takes over
        return 0.04 * min((k + 1) / 100.0, 1.0) / (1.0 + k / 250.0)

    configs = [seprep.DynIBConfig(beta=beta, traj_len=opts["traj_len"],
                                  steps=steps, batch=opts["batch"], seed=seed + s,
                                  rep_dim=opts["rep_dim"], learning_rate=schedule,
                                  momentum=0.9)
               for beta in betas for s in range(n_seeds)]
    sweep = seprep.train_filter(seprep.lgss_source(scalar, opts["traj_len"]),
                                configs)
    ce_by_beta = {}
    drops = []
    for index, beta in enumerate(betas):
        curves = sweep.curves[index * n_seeds : (index + 1) * n_seeds]
        finals = [float(np.mean([r["ce"] for r in curve[-tail:]])) for curve in curves]
        drops += [1.0 - curve[-1]["loss"] / curve[0]["loss"] for curve in curves]
        ce_by_beta[beta] = (float(np.mean(finals)), float(np.std(finals)))
    models_smallest = [model for model, cfg in zip(sweep.runs, configs)
                       if cfg.beta == betas[-1]]
    rises = []
    for hi, lo in zip(betas, betas[1:]):
        allowance = 2.0 * max(ce_by_beta[hi][1], ce_by_beta[lo][1])
        rises.append(ce_by_beta[lo][0] - ce_by_beta[hi][0] - allowance)
    records.append(_gate("seprep", "sweep_ce_max_increase", rises, np.max,
                         operator.le, 0.0, 0.0, clock))
    records.append(_report("seprep", "sweep_min_loss_drop",
                           float(np.min(drops)), clock))

    rel_gaps, kls = [], []
    for index, model in enumerate(models_smallest):
        ev = seprep.evaluate_vs_kalman(model, scalar, T=opts["traj_len"],
                                       num_traj=opts["eval_traj"],
                                       seed=90_000 + index, samples=64)
        rel_gaps.append(ev["gap"] / abs(ev["nll_kalman"]))
        kls.append(ev["mean_kl"])
    records.append(_gate("seprep", "learned_mean_rel_nll_gap", rel_gaps,
                         np.mean, operator.lt, 0.05, 0.05, clock))
    records.append(_gate("seprep", "learned_mean_kl", kls, np.mean,
                         operator.lt, 0.05, 0.05, clock))
    return records


# ---------------------------------------------------------------------------
# control-sep: belief separation on random POMDPs
# ---------------------------------------------------------------------------


def run_control_sep(seed: int, overrides=None) -> list:
    """Q* separation, belief-policy optimality, reward sufficiency."""
    opts = _opts("control-sep", overrides)
    rng = np.random.default_rng(seed)
    clock = _Clock()

    instances = [control_sep.belief_collision_pomdp()]
    for _ in range(opts["instances"]):
        instances.append(control_sep.random_pomdp(
            rng,
            n_states=int(rng.integers(2, 5)),
            n_actions=int(rng.integers(2, 4)),
            n_obs=int(rng.integers(2, 4)),
            horizon=int(rng.integers(3, 6)),
        ))
    spreads, gaps, devs, compressions = [], [], [], []
    for pomdp in instances:
        tree = control_sep.brute_force_q(pomdp)
        report = control_sep.verify_separation(tree)
        spreads.append(report["max_q_spread"])
        compressions.append(len(tree) - report["groups"])
        policy = control_sep.belief_policy(tree)
        gaps.append(abs(control_sep.policy_return(pomdp, policy)
                        - control_sep.optimal_return(tree)))
        rep = control_sep.exact_belief_representation(pomdp)
        devs.append(control_sep.reward_sufficiency_check(tree, rep)["max_dev"])
    records = [
        _gate("control-sep", "separation_max_q_spread", spreads, np.max,
              operator.lt, 1e-9, 1e-9, clock),
        _gate("control-sep", "policy_max_return_gap", gaps, np.max,
              operator.lt, 1e-9, 1e-9, clock),
        _gate("control-sep", "reward_sufficiency_max_dev", devs, np.max,
              operator.lt, 1e-9, 1e-9, clock),
    ]
    # instance 0 is the collision instance
    records.append(_gate("control-sep", "collision_group_compression",
                         compressions[:1], np.min, operator.ge, 1, None, clock))
    counterexample = control_sep.counterexample_pomdp()
    insufficient = control_sep.reward_sufficiency_check(
        control_sep.brute_force_q(counterexample),
        control_sep.collapsing_representation(counterexample))
    records.append(_gate("control-sep", "collapsing_rep_max_dev",
                         [insufficient["max_dev"]], np.max, operator.gt, 1e-3,
                         None, clock))
    return records


_BATTERIES = {
    "gradcheck": run_gradcheck,
    "info": run_info,
    "kalman": run_kalman,
    "static-ib": run_static_ib,
    "seprep": run_seprep,
    "control-sep": run_control_sep,
}


# ---------------------------------------------------------------------------
# persistence and orchestration
# ---------------------------------------------------------------------------


def write_metrics_csv(records, path) -> None:
    """CSV with shortest round-trip floats; excludes timing so identical
    seeds write byte-identical files."""
    with open(path, "w") as fh:
        fh.write("experiment,key,value,tolerance,status\n")
        for r in records:
            tol = "" if r.tolerance is None else repr(float(r.tolerance))
            fh.write(f"{r.experiment},{r.key},{float(r.value)!r},{tol},{r.status}\n")


def _write_summary(records, path, config, seconds) -> None:
    payload = {
        "experiment": records[0].experiment if records else None,
        "root_seed": config.seed,
        "overrides": config.overrides,
        "all_pass": all(r.status != "fail" for r in records),
        "seconds_total": seconds,
        "records": [
            {"key": r.key, "value": r.value, "tolerance": r.tolerance,
             "status": r.status, "seconds": r.seconds,
             "instances": r.instances}
            for r in records
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def run(config: ExperimentConfig) -> list:
    """Execute the named experiment(s); write metrics.csv + summary.json each.

    Returns every MetricRecord produced. An override key is ``key`` or
    ``battery.key`` and must name exactly one selected battery that knows
    it. A battery whose training diverges records one failed
    ``training_diverged`` row (its value is the step), and the batteries
    after it still run.
    """
    names = EXPERIMENT_NAMES if config.experiment == "all" else (config.experiment,)
    overrides = _battery_overrides(config.experiment, names, config.overrides)
    for name in names:  # a bad value fails here, before any battery runs
        _opts(name, overrides[name])
    all_records = []
    for name in names:
        stream = experiment_seed(config.seed, name)
        started = time.perf_counter()
        try:
            records = _BATTERIES[name](stream, overrides[name])
        except nn.TrainingDiverged as err:
            print(f"sepctl: {name}: {err}", file=sys.stderr)
            records = [MetricRecord(name, "training_diverged", float(err.step),
                                    None, "fail", time.perf_counter() - started)]
        elapsed = time.perf_counter() - started
        outdir = Path(config.out) / name
        outdir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(records, outdir / "metrics.csv")
        _write_summary(records, outdir / "summary.json", config, elapsed)
        all_records.extend(records)
    return all_records


def _parse_set(text: str) -> tuple:
    if "=" not in text:
        raise ValueError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def main(argv=None) -> int:
    """``sepctl <experiment> [--seed N] [--out DIR] [--set key=value]...`` —
    run a battery and persist its metrics.

    Exit codes: 0 all checks pass, 1 a check failed, 2 usage/config error.
    """
    parser = argparse.ArgumentParser(
        prog="sepctl",
        description="Run verification experiment batteries.")
    parser.add_argument("experiment", choices=EXPERIMENT_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    parser.add_argument("--out", default=ExperimentConfig.out)
    parser.add_argument("--set", action="append", default=[], dest="sets",
                        metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig(args.experiment, args.seed, args.out,
                                  dict(_parse_set(s) for s in args.sets))
        records = run(config)
    except (ValueError, OSError) as err:
        print(f"sepctl: {err}", file=sys.stderr)
        return 2
    for r in records:
        tol = "" if r.tolerance is None else f" (tol {r.tolerance!r})"
        print(f"{r.experiment}/{r.key}: {r.value!r}{tol} [{r.status}]")
    failed = [r for r in records if r.status == "fail"]
    print(f"{len(records) - len(failed)}/{len(records)} checks pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
