"""Linear-Gaussian state-space simulation and exact Kalman filtering.

The model is

    x_{t+1} = A x_t + w_t,   w_t ~ N(0, Q)
    y_t     = C x_t + v_t,   v_t ~ N(0, R)

with x_0 ~ N(mu0, P0). ``simulate`` draws one rollout and ``seprep``
batches of them through one sampler: each rollout is one row of a
standard-normal block, mapped through noise roots computed once per
model. The posterior over x_t given y_1..y_t is exactly Gaussian, so the
filter state is the plain ``(mean, cov)`` pair of arrays:
``kalman_predict`` and ``kalman_update`` (Joseph-form covariance,
Cholesky gain solve) map one pair to the next, and ``run_filter`` returns
the stacked posteriors and the stacked one-step predictives of y_t; the
covariances depend on no data, so a batch of means shares one covariance
pass, drawn like ``riccati_iterate``'s from one step memo.
``predictive_loglik`` scores the trajectories under those predictives
with ``info.gaussian_logpdf``, for the callers that want the
log-likelihood. The recursive filter is checked against an independent
oracle that builds the joint Gaussian of (x_t, y_1..y_t) explicitly and
conditions by Schur complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import info

__all__ = [
    "LGSSModel",
    "Trajectory",
    "random_stable_model",
    "covariance_root",
    "simulate",
    "kalman_predict",
    "kalman_update",
    "riccati_iterate",
    "batch_posterior_oracle",
    "run_filter",
    "predictive_loglik",
]


def _check_psd(mat, name, strict=False):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size and np.max(np.abs(mat - mat.T)) > 1e-10 * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"{name} must be symmetric")
    mat = (mat + mat.T) / 2.0
    if mat.size:
        eigs = np.linalg.eigvalsh(mat)
        if strict and eigs.min() <= 0:
            raise ValueError(f"{name} must be positive definite")
        if not strict and eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
            raise ValueError(f"{name} must be positive semi-definite")
    return mat


@dataclass(frozen=True)
class LGSSModel:
    """Parameters (A, C, Q, R, mu0, P0) with dimensions (n, m)."""

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    mu0: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        fields = {name: np.asarray(getattr(self, name), dtype=float)
                  for name in ("A", "C", "Q", "R", "mu0", "P0")}
        for name, value in fields.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has non-finite entries")
        A = np.atleast_2d(fields["A"])
        n = A.shape[0]
        C = np.atleast_2d(fields["C"])
        m = C.shape[0]
        if A.shape != (n, n) or C.shape != (m, n):
            raise ValueError("A must be n×n and C must be m×n")
        mu0 = fields["mu0"].reshape(n)
        Q = _check_psd(fields["Q"], "Q")
        R = _check_psd(fields["R"], "R", strict=True)
        P0 = _check_psd(fields["P0"], "P0")
        if Q.shape != (n, n) or R.shape != (m, m) or P0.shape != (n, n):
            raise ValueError("noise covariance dimensions inconsistent")
        for name, value in zip(fields, (A, C, Q, R, mu0, P0)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @cached_property
    def _noise_roots(self):
        """The covariance roots of x_0, w and v, computed once per model."""
        return [covariance_root(cov) for cov in (self.P0, self.Q, self.R)]


@dataclass(frozen=True)
class Trajectory:
    """Simulated rollout: states x_1..T and observations y_1..T."""

    x: np.ndarray  # (T, n)
    y: np.ndarray  # (T, m)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape[0] != y.shape[0]:
            raise ValueError("states/observations lengths differ")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def T(self) -> int:
        return self.y.shape[0]


def random_stable_model(rng, n=2, m=1) -> LGSSModel:
    """Random well-posed model: A rescaled to spectral radius <= 0.95."""
    A = rng.standard_normal((n, n))
    radius = max(np.abs(np.linalg.eigvals(A)))
    if radius > 0:
        A = A * (0.95 * rng.uniform(0.5, 1.0) / radius)
    C = rng.standard_normal((m, n))
    q_root = rng.standard_normal((n, n)) * 0.3
    Q = q_root @ q_root.T + 0.05 * np.eye(n)
    r_root = rng.standard_normal((m, m)) * 0.3
    R = r_root @ r_root.T + 0.05 * np.eye(m)
    mu0 = rng.standard_normal(n)
    p_root = rng.standard_normal((n, n)) * 0.3
    P0 = p_root @ p_root.T + 0.05 * np.eye(n)
    return LGSSModel(A=A, C=C, Q=Q, R=R, mu0=mu0, P0=P0)


def covariance_root(cov):
    """A square root L with L Lᵀ = cov (eigen-based, so PSD is enough).

    Returns None for an all-zero (or empty) covariance, from which
    sampling draws nothing.
    """
    if not cov.any():
        return None
    eigval, eigvec = np.linalg.eigh(cov)
    return eigvec * np.sqrt(np.clip(eigval, 0.0, None))


def _rollouts(model: LGSSModel, T: int, rngs, batch: int):
    """States (rows, T, n) and observations (rows, T, m) of ``batch`` rollouts
    from each generator of ``rngs``, rows = len(rngs)·batch, generator-major.

    Each rollout takes one row of a standard-normal block drawn from its
    generator, holding its x_0, w and v draws in that order; a noise term
    with an all-zero covariance draws nothing. One state recursion covers
    all rows, and the observations are one stacked C x after it.
    """
    roots = model._noise_roots
    shapes = [(1, model.n), (T, model.n), (T, model.m)]  # x_0, w, v
    widths = [0 if root is None else rows * cols
              for root, (rows, cols) in zip(roots, shapes)]
    rows = len(rngs) * batch
    noise = np.empty((len(rngs), batch, sum(widths)))
    for r, rng in enumerate(rngs):
        rng.standard_normal(out=noise[r])
    x0, w, v = (
        np.zeros((rows, *shape)) if root is None
        else block.reshape(rows, *shape) @ root.T
        for block, root, shape in zip(np.split(noise.reshape(rows, -1),
                                               np.cumsum(widths)[:-1], axis=1),
                                      roots, shapes)
    )
    del noise  # free the raw draws before the state recursion
    x = model.mu0 + x0[:, 0]
    xs = np.empty((rows, T, model.n))
    for t in range(T):
        x = xs[:, t] = _matvec(model.A, x) + w[:, t]
    return xs, _matvec(model.C, xs) + v


def simulate(model: LGSSModel, T: int, rng) -> Trajectory:
    """Roll the generative model forward for T steps; deterministic given the rng state."""
    (xs,), (ys,) = _rollouts(model, T, [rng], 1)
    return Trajectory(x=xs, y=ys)


def _finite(values):
    if not np.isfinite(values).all():
        raise ValueError("non-finite filter state")
    return values


def _finite_symmetric(cov):
    """A filter covariance: checked finite, then symmetrised."""
    cov = _finite(cov)
    return (cov + cov.T) / 2.0


def _predict_cov(cov, model: LGSSModel):
    return _finite_symmetric(model.A @ cov @ model.A.T + model.Q)


def _update_cov(cov, model: LGSSModel):
    """Innovation covariance S = C P Cᵀ + R (symmetrised), gain P Cᵀ S⁻¹ and
    Joseph-form posterior covariance for prior cov P."""
    C = model.C
    S = _finite_symmetric(C @ cov @ C.T + model.R)
    try:
        chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"innovation covariance singular: {exc}")
    # the factor of a finite S is finite; an overflow in C P reaches the
    # posterior covariance, whose check raises
    gain = _cho_solve(chol, C @ cov).T
    U = np.eye(model.n) - gain @ C
    return S, gain, _finite_symmetric(U @ cov @ U.T + gain @ model.R @ gain.T)


_SOLVE_BLOCK = 64


def _cho_solve(chol, b):
    """(L Lᵀ)⁻¹ b for the Cholesky factor L, by forward then back substitution.

    The substitution runs over blocks of at most 64 rows, each diagonal
    block an LU solve. OpenBLAS runs an LU solve of 100 rows or more on
    its threads: on a 2-core x86-64 box whose other core was busy, such a
    solve stalled for 100-160 ms in about 1 of 300 calls, and the Cholesky
    factorisation did not. One block is the plain pair of solves.
    """
    if chol.shape[0] <= _SOLVE_BLOCK:
        return np.linalg.solve(chol.T, np.linalg.solve(chol, b))
    starts = range(0, chol.shape[0], _SOLVE_BLOCK)
    y = np.empty(b.shape)
    for i in starts:
        s = slice(i, i + _SOLVE_BLOCK)
        y[s] = np.linalg.solve(chol[s, s], b[s] - chol[s, :i] @ y[:i])
    x = np.empty(b.shape)
    for i in reversed(starts):
        s, rest = slice(i, i + _SOLVE_BLOCK), slice(i + _SOLVE_BLOCK, None)
        x[s] = np.linalg.solve(chol[s, s].T, y[s] - chol[rest, s].T @ x[rest])
    return x


def _covariance_steps(cov, n: int, model: LGSSModel) -> list:
    """The first n data-free steps ``(S, gain, P_{t+1})`` from posterior P_0 = ``cov``.

    A step is ``kalman_predict`` then ``kalman_update`` bit for bit, and
    depends on the bytes of P_t alone: once P_k repeats P_j, step t >= j
    is step j + (t - j) mod (k - j), and no step is computed twice.
    """
    steps, first_seen = [], {}  # posterior covariance bytes -> its index
    while len(steps) < n:
        key = cov.tobytes()
        if key in first_seen:
            j, k = first_seen[key], len(steps)
            return steps + [steps[j + (t - j) % (k - j)] for t in range(k, n)]
        first_seen[key] = len(steps)
        steps.append(_update_cov(_predict_cov(cov, model), model))
        cov = steps[-1][2]
    return steps


def _state(mean, cov):
    """A filter state (mean, cov) as arrays, cov checked finite and symmetrised.

    A non-finite mean, or batch of means, reaches the result, whose check raises.
    """
    cov = _finite_symmetric(np.atleast_2d(np.asarray(cov, dtype=float)))
    mean = np.asarray(mean, dtype=float)
    return mean.reshape(*mean.shape[:-1], cov.shape[0]), cov


def _matvec(mat, vecs):
    """``mat @ v`` for each vector v on the last axis, each a lone matvec."""
    return (mat @ vecs[..., None])[..., 0]


def kalman_predict(mean, cov, model: LGSSModel):
    """Time update: the prior (mean, cov) over x_{t+1} given data up to t.

    A batch of means shares one covariance.
    """
    mean, cov = _state(mean, cov)
    return _finite(_matvec(model.A, mean)), _predict_cov(cov, model)


def kalman_update(mean, cov, y, model: LGSSModel):
    """Measurement update of the prior (mean, cov) with Joseph-form covariance.

    Gain solves go through a Cholesky factorization of the innovation
    covariance S = C P Cᵀ + R; a singular S raises. A batch of means takes
    one row of ``y`` each and shares one gain and posterior covariance.
    """
    mean, cov = _state(mean, cov)
    y = np.asarray(y, dtype=float).reshape(*mean.shape[:-1], model.m)
    _, gain, post_cov = _update_cov(cov, model)
    return _finite(mean + _matvec(gain, y - _matvec(model.C, mean))), post_cov


def riccati_iterate(model: LGSSModel, P_init, n_iters: int) -> np.ndarray:
    """Iterate the posterior-covariance map (predict then update) n times.

    The iteration is independent of data; its fixed point is the
    steady-state posterior covariance of the filter. The iterates come
    from :func:`run_filter`'s step memo, so past the first bitwise repeat
    they are lookups, the very arrays of the plain loop.
    ``n_iters`` <= 0 returns the input unchanged.
    """
    P = np.atleast_2d(np.asarray(P_init, dtype=float))
    n_iters = int(n_iters)
    if n_iters <= 0:
        return P
    return _covariance_steps(_finite_symmetric(P), n_iters, model)[-1][2]


def _observations(trajectories, m: int, caller: str) -> np.ndarray:
    """The (N, T, m) observations of a list or tuple of N equal-length trajectories."""
    if not isinstance(trajectories, (list, tuple)):
        raise ValueError(f"{caller} takes a list or tuple of trajectories, "
                         f"got {type(trajectories).__name__}")
    trajs = list(trajectories)
    if not trajs or any(traj.T != trajs[0].T for traj in trajs):
        raise ValueError(f"{caller} needs one or more trajectories of equal length")
    return np.stack([traj.y.reshape(traj.T, m) for traj in trajs])


def run_filter(model: LGSSModel, trajectories):
    """Filter a list or tuple of N equal-length trajectories (not a bare one).

    Returns ``((means, covs), (pred_means, pred_covs))``: row (i, t) of the
    (N, T, n) and (N, T, n, n) arrays is trajectory i's posterior after
    y_{t+1}, and of the (N, T, m) and (N, T, m, m) arrays its one-step
    predictive of y_{t+1}, all bit for bit the per-step predict/update
    chain. :func:`predictive_loglik` turns the predictives into each
    trajectory's log-likelihood. The covariances depend on no data: the
    rows share them (read-only views), and a covariance step is computed
    once per distinct posterior covariance, so once the Riccati recursion
    repeats bit for bit every later step is a lookup.
    """
    ys = _observations(trajectories, model.m, "run_filter")
    (N, T, m), n = ys.shape, model.n
    means, covs = np.empty((N, T, n)), np.empty((T, n, n))
    pred_means, pred_covs = np.empty((N, T, m)), np.empty((T, m, m))
    mean = np.broadcast_to(model.mu0, (N, n))
    for t, (S, gain, cov) in enumerate(_covariance_steps(model.P0, T, model)):
        pred_covs[t], covs[t] = S, cov
        mean = _finite(_matvec(model.A, mean))
        pred_means[:, t] = _matvec(model.C, mean)
        mean = means[:, t] = _finite(mean + _matvec(gain, ys[:, t] - pred_means[:, t]))
    covs, pred_covs = (np.broadcast_to(a, (N, *a.shape)) for a in (covs, pred_covs))
    return (means, covs), (pred_means, pred_covs)


def predictive_loglik(trajectories, pred_means, pred_covs) -> np.ndarray:
    """Each trajectory's Σ_t log p(y_t | y^{t-1}) under its one-step predictives.

    ``pred_means`` and ``pred_covs`` are the (N, T, m) and (N, T, m, m)
    predictives that :func:`run_filter` returns for the same list of
    trajectories. Entry i is the sum, in time order, of
    ``info.gaussian_logpdf`` over trajectory i's steps.
    """
    ys = _observations(trajectories, pred_means.shape[-1], "predictive_loglik")
    if ys.shape != pred_means.shape or pred_covs.shape != ys.shape + ys.shape[-1:]:
        raise ValueError(f"predictives of shapes {pred_means.shape} and {pred_covs.shape} "
                         f"do not fit observations of shape {ys.shape}")
    logpdfs = info.gaussian_logpdf(pred_means, pred_covs, ys)
    loglik = np.zeros(len(ys))
    for column in logpdfs.T:
        loglik += column
    return loglik


def _conditioning_gain(cov_xy, cov_yy):
    """Cov(x, y) Cov(y, y)⁻¹ through the Cholesky factor of the symmetrised
    joint observation covariance, which must be positive definite."""
    try:
        chol = np.linalg.cholesky((cov_yy + cov_yy.T) / 2.0)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("joint observation covariance singular")
    return _cho_solve(chol, cov_xy.T).T


def batch_posterior_oracle(model: LGSSModel, trajectory: Trajectory,
                           t: int) -> info.GaussianDistribution:
    """Posterior over x_t given y_1..t by explicit joint-Gaussian conditioning.

    Builds the mean and covariance of the joint Gaussian of
    (x_0..x_t, y_1..y_t) from the model recursions, then conditions x_t on
    the stacked observations via a Schur complement. Entirely independent
    of the recursive filter; t = 0 returns the prior.
    """
    if not 0 <= t <= trajectory.T:
        raise ValueError(f"t={t} outside 0..{trajectory.T}")
    n, m = model.n, model.m
    if t == 0:
        return info.GaussianDistribution(model.mu0, model.P0)

    # State means and pairwise covariances joint[s, :, r, :] = Cov(x_s, x_r).
    means = [model.mu0]
    for s in range(t):
        means.append(model.A @ means[-1])
    joint = np.zeros((t + 1, n, t + 1, n))
    joint[0, :, 0, :] = model.P0
    for s in range(t):
        joint[s + 1, :, s + 1, :] = model.A @ joint[s, :, s, :] @ model.A.T + model.Q
        # Cov(x_r, x_{s+1}) = Cov(x_r, x_s) Aᵀ for r <= s, one product per block
        column = joint[:s + 1, :, s, :] @ model.A.T
        joint[:s + 1, :, s + 1, :] = column
        joint[s + 1, :, :s + 1, :] = column.transpose(2, 0, 1)

    # Joint of (x_t, y_1..y_t): y_s = C x_s + v_s with independent v_s.
    mean_xt = means[t]
    mean_y = np.concatenate([model.C @ means[s] for s in range(1, t + 1)])
    cov_xx = joint[t, :, t, :]
    # the solve and the products below see C-ordered arrays, as they would
    # for blocks assembled one by one
    cov_xy = np.ascontiguousarray(
        (joint[t, :, 1:, :].transpose(1, 0, 2) @ model.C.T)
        .transpose(1, 0, 2).reshape(n, t * m))
    obs_blocks = model.C @ joint[1:, :, 1:, :].transpose(0, 2, 1, 3) @ model.C.T
    obs_blocks[np.arange(t), np.arange(t)] += model.R
    cov_yy = np.ascontiguousarray(obs_blocks.transpose(0, 2, 1, 3).reshape(t * m, t * m))

    y_stack = trajectory.y[:t].reshape(-1)
    gain = _conditioning_gain(cov_xy, cov_yy)
    mean_post = mean_xt + gain @ (y_stack - mean_y)
    cov_post = cov_xx - gain @ cov_xy.T
    return info.GaussianDistribution(mean_post, cov_post)
