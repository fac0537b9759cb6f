"""Exact information-theoretic quantities on finite alphabets and Gaussians.

Everything here is computed in closed form (no sampling, no estimators) so
that the rest of the library can be checked against it: entropies, KL
divergences, (conditional) mutual information and total correlation on
explicit probability tables, plus the standard Gaussian closed forms.

Conventions
-----------
* All quantities are in nats (natural logarithm).
* ``0 * log 0 := 0`` throughout.
* A KL divergence whose absolute-continuity requirement fails does not
  raise; it returns ``+inf``, so that inequality checks stay total.
* Covariance matrices are symmetrized on construction and validated as
  positive semi-definite with eigenvalue tolerance ``-1e-10``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteDistribution",
    "DiscreteJoint",
    "DiscreteChannel",
    "GaussianDistribution",
    "entropy",
    "cross_entropy_discrete",
    "kl_discrete",
    "mutual_information",
    "mi_identity_check",
    "total_correlation_discrete",
    "kl_gaussian",
    "gaussian_logpdf",
    "kl_to_standard_normal",
    "total_correlation_gaussian",
    "joint_from_prior_channel",
    "gaussian_bin_masses",
]

_LOG2PI = math.log(2.0 * math.pi)
_SUM_TOL = 1e-12
# Distributions may arrive with sums off by accumulated roundoff; anything
# within this tolerance is renormalized exactly, anything worse is rejected.
_RENORM_TOL = 1e-9


def _as_prob_array(table, name="probability table"):
    """Validate and renormalize a nonnegative table summing to one."""
    arr = np.asarray(table, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    if (arr < -_SUM_TOL).any():
        raise ValueError(f"{name} contains negative entries")
    arr = arr.clip(0.0, None)
    total = arr.sum()
    if abs(total - 1.0) > _RENORM_TOL:
        raise ValueError(f"{name} sums to {total!r}, not 1")
    return arr / total


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over a finite alphabet.

    Parameters
    ----------
    probs : array_like
        Non-negative entries summing to 1 (renormalized if off by at most
        1e-9, rejected otherwise).
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = _as_prob_array(self.probs, "distribution")
        if arr.ndim != 1:
            raise ValueError("distribution table must be one-dimensional")
        object.__setattr__(self, "probs", arr)

    def __len__(self):
        return self.probs.shape[0]


@dataclass(frozen=True)
class DiscreteJoint:
    """Joint distribution over named finite axes.

    Parameters
    ----------
    axes : tuple of str
        One name per table dimension, all distinct.
    table : ndarray
        Joint probability table, one dimension per axis.
    """

    axes: tuple
    table: np.ndarray

    def __post_init__(self):
        axes = tuple(self.axes)
        if len(set(axes)) != len(axes):
            raise ValueError(f"duplicate axis names in {axes}")
        table = _as_prob_array(self.table, "joint table")
        if table.ndim != len(axes):
            raise ValueError(
                f"table has {table.ndim} dimensions but {len(axes)} axes named"
            )
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "table", table)

    @classmethod
    def _derived(cls, axes, table) -> "DiscreteJoint":
        """A joint on a nonnegative table built from validated ones: no checks,
        but the constructor's renormalising division, so the same bits."""
        joint = object.__new__(cls)
        object.__setattr__(joint, "axes", tuple(axes))
        object.__setattr__(joint, "table", table / table.sum())
        return joint

    def _axis_indices(self, names):
        if isinstance(names, str):
            names = (names,)
        idx = []
        for name in names:
            if name not in self.axes:
                raise KeyError(f"axis {name!r} not in {self.axes}")
            idx.append(self.axes.index(name))
        return tuple(idx)

    def marginal_table(self, names) -> np.ndarray:
        """Marginal probability table over ``names``, in the order given."""
        keep = self._axis_indices(names)
        drop = tuple(i for i in range(self.table.ndim) if i not in keep)
        marg = self.table.sum(axis=drop) if drop else self.table
        # reorder surviving axes to the requested order
        surviving = [i for i in range(self.table.ndim) if i in keep]
        perm = [surviving.index(i) for i in keep]
        return np.transpose(marg, perm)

    def marginal(self, names) -> "DiscreteJoint":
        names = (names,) if isinstance(names, str) else tuple(names)
        return DiscreteJoint(names, self.marginal_table(names))

    def entropy_of(self, names) -> float:
        """Joint Shannon entropy (nats) of the named axes."""
        return _entropy_table(self.marginal_table(names))


@dataclass(frozen=True)
class DiscreteChannel:
    """Row-stochastic conditional table p(out | in).

    Row i is the output distribution given input symbol i.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError("channel matrix must be 2-D")
        if mat.size == 0:
            raise ValueError(f"channel matrix of shape {mat.shape} is empty")
        if not np.isfinite(mat).all():
            raise ValueError("channel matrix contains non-finite entries")
        if (mat < -_SUM_TOL).any():
            raise ValueError("channel matrix contains negative entries")
        mat = mat.clip(0.0, None)
        sums = mat.sum(axis=1)
        if (np.abs(sums - 1.0) > _RENORM_TOL).any():
            raise ValueError("channel rows must sum to 1")
        object.__setattr__(self, "matrix", mat / sums[:, None])

    @property
    def in_size(self) -> int:
        return self.matrix.shape[0]

    def push(self, prior: DiscreteDistribution) -> DiscreteDistribution:
        """Output marginal induced by ``prior`` on the input."""
        return DiscreteDistribution(prior.probs @ self.matrix)


def _check_symmetric(cov, tol=1e-10):
    asym = np.max(np.abs(cov - cov.T)) if cov.size else 0.0
    if asym > tol * max(1.0, np.max(np.abs(cov))):
        raise ValueError(f"covariance asymmetric by {asym!r}")


@dataclass(frozen=True)
class GaussianDistribution:
    """Multivariate normal given by mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean/covariance shapes inconsistent")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("non-finite Gaussian parameters")
        _check_symmetric(cov)
        cov = (cov + cov.T) / 2.0
        min_eig = np.min(np.linalg.eigvalsh(cov)) if cov.size else 0.0
        if min_eig < -1e-10 * max(1.0, np.max(np.abs(cov))):
            raise ValueError(f"covariance not PSD (min eigenvalue {min_eig!r})")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def gaussian_logpdf(mean, cov, x):
    """Log density of N(mean, cov) at ``x`` over any leading batch axes.

    ``cov`` must be positive definite; one mean, covariance and point give
    a scalar.
    """
    chol = np.linalg.cholesky(cov)
    dev = np.linalg.solve(chol, np.subtract(x, mean)[..., None])[..., 0]
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    return -(0.5 * (dev.shape[-1] * _LOG2PI + logdet + (dev * dev).sum(axis=-1)))


def _entropy_table(table) -> float:
    t = np.asarray(table, dtype=float)
    pos = t[t > 0]
    return float(-(pos * np.log(pos)).sum())


def entropy(p) -> float:
    """Shannon entropy -sum p log p in nats, with 0 log 0 := 0."""
    if isinstance(p, DiscreteDistribution):
        return _entropy_table(p.probs)
    if isinstance(p, DiscreteJoint):
        return _entropy_table(p.table)
    return _entropy_table(_as_prob_array(p))


def cross_entropy_discrete(p, q) -> float:
    """Cross-entropy -sum p log q in nats.

    Returns ``+inf`` when q assigns zero mass where p does not.
    """
    pa = p.probs if isinstance(p, DiscreteDistribution) else _as_prob_array(p)
    qa = q.probs if isinstance(q, DiscreteDistribution) else _as_prob_array(q)
    if pa.shape != qa.shape:
        raise ValueError("alphabet sizes differ")
    mask = pa > 0
    if (qa[mask] == 0.0).any():
        return math.inf
    return float(-(pa[mask] * np.log(qa[mask])).sum())


def kl_discrete(p, q) -> float:
    """KL divergence sum p log(p/q) in nats.

    An absolute-continuity violation (p puts mass where q has none) yields
    ``+inf`` instead of raising.
    """
    pa = p.probs if isinstance(p, DiscreteDistribution) else _as_prob_array(p)
    qa = q.probs if isinstance(q, DiscreteDistribution) else _as_prob_array(q)
    if pa.shape != qa.shape:
        raise ValueError("alphabet sizes differ")
    return _kl_arrays(pa, qa)


def _kl_arrays(pa, qa) -> float:
    """KL(pa || qa) of two validated probability vectors of one shape."""
    mask = pa > 0
    if (qa[mask] == 0.0).any():
        return math.inf
    return float((pa[mask] * (np.log(pa[mask]) - np.log(qa[mask]))).sum())


def mutual_information(joint: DiscreteJoint, axes_a, axes_b, given=()) -> float:
    """(Conditional) mutual information I(A; B | C) in nats.

    Parameters
    ----------
    joint : DiscreteJoint
    axes_a, axes_b : str or sequence of str
        The two groups of axes; must be disjoint from each other and from
        ``given``.
    given : str or sequence of str, optional
        Conditioning axes C.

    Notes
    -----
    Computed as H(A,C) + H(B,C) - H(A,B,C) - H(C), which reduces to
    H(A) + H(B) - H(A,B) when C is empty.
    """
    a = (axes_a,) if isinstance(axes_a, str) else tuple(axes_a)
    b = (axes_b,) if isinstance(axes_b, str) else tuple(axes_b)
    c = (given,) if isinstance(given, str) else tuple(given)
    groups = a + b + c
    if len(set(groups)) != len(groups):
        raise ValueError(f"axis groups overlap: {a}, {b}, given {c}")
    h_ac = joint.entropy_of(a + c)
    h_bc = joint.entropy_of(b + c)
    h_abc = joint.entropy_of(a + b + c)
    h_c = joint.entropy_of(c) if c else 0.0
    return h_ac + h_bc - h_abc - h_c


def joint_from_prior_channel(
    prior: DiscreteDistribution,
    channel: DiscreteChannel,
    axes=("y", "x"),
) -> DiscreteJoint:
    """Joint p(in)·p(out|in) as a two-axis table (input axis first)."""
    if channel.in_size != len(prior):
        raise ValueError("prior and channel input alphabets differ")
    return DiscreteJoint(tuple(axes), prior.probs[:, None] * channel.matrix)


def mi_identity_check(prior: DiscreteDistribution, channel: DiscreteChannel) -> dict:
    """Mutual information two ways: from the joint, and as E_y KL(p(x|y) || p(x)).

    Returns
    -------
    dict with keys ``lhs`` (I(x;y) from the induced joint table) and ``rhs``
    (the prior-weighted KL of each channel row against the output marginal).
    The two are equal in exact arithmetic; callers check |lhs - rhs|.
    """
    joint = joint_from_prior_channel(prior, channel)
    lhs = mutual_information(joint, "x", "y")
    marginal = channel.push(prior).probs
    # the validated rows are renormalised once more, as DiscreteDistribution
    # does, so that the KL terms keep their bits
    rows = channel.matrix / channel.matrix.sum(axis=1)[:, None]
    rhs = 0.0
    for py, row in zip(prior.probs, rows):
        if py == 0.0:
            continue
        rhs += py * _kl_arrays(row, marginal)
    return {"lhs": lhs, "rhs": float(rhs)}


def total_correlation_discrete(joint: DiscreteJoint) -> float:
    """Total correlation KL(joint || product of axis marginals), in nats."""
    if len(joint.axes) < 2:
        raise ValueError("total correlation needs at least two axes")
    tc = -entropy(joint)
    for name in joint.axes:
        tc += joint.entropy_of(name)
    return float(tc)


def kl_gaussian(mean_p, cov_p, mean_q, cov_q):
    """Closed-form KL(N(mean_p, cov_p) || N(mean_q, cov_q)) in nats, over any
    leading batch axes; one pair gives a scalar.

    Mismatched dimensions raise ``ValueError``, and a q covariance that is
    not positive definite ``numpy.linalg.LinAlgError``. A singular p
    covariance gives ``+inf`` (absolute-continuity failure).
    """
    d = np.shape(mean_p)[-1]
    shapes = np.shape(mean_q)[-1:], np.shape(cov_p)[-2:], np.shape(cov_q)[-2:]
    if shapes != ((d,), (d, d), (d, d)):
        raise ValueError("dimension mismatch")
    chol_q = np.linalg.cholesky(cov_q)
    logdet_q = 2.0 * np.log(np.diagonal(chol_q, axis1=-2, axis2=-1)).sum(axis=-1)
    sign_p, logdet_p = np.linalg.slogdet(cov_p)
    half = np.linalg.solve(chol_q, cov_p)
    trace = np.trace(np.linalg.solve(chol_q, np.swapaxes(half, -1, -2)),
                     axis1=-2, axis2=-1)
    dev = np.linalg.solve(chol_q, np.subtract(mean_q, mean_p)[..., None])[..., 0]
    kl = 0.5 * (trace + (dev * dev).sum(axis=-1) - d + logdet_q - logdet_p)
    return np.where(sign_p > 0, kl, math.inf)[()]  # [()] unwraps one pair's 0-d array


def kl_to_standard_normal(mean, var, log_var):
    """KL(N(mean, diag var) || N(0, I)) in nats, summed over the last axis.

    Takes the variance and its log both, as the caller holds them: deriving
    one from the other here would round differently from the caller's own.
    """
    return 0.5 * np.sum(mean**2 + var - 1.0 - log_var, axis=-1)


def total_correlation_gaussian(cov) -> float:
    """Gaussian total correlation ½(Σ_i ln cov_ii − ln det cov), in nats."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    _check_symmetric(cov)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or np.any(np.diag(cov) <= 0):
        raise ValueError("covariance must be positive definite")
    return float(0.5 * (np.sum(np.log(np.diag(cov))) - logdet))


# Cephes ndtr (Moshier, "Methods and Programs for Mathematical Functions",
# 1989), the normal CDF that scipy.special.ndtr runs: erf(x) = x T(x²)/U(x²)
# for |x| < 1, erfc(z) = exp(-z²) P(z)/Q(z) for 1 <= z < 8 and R(z)/S(z)
# beyond; U, Q and S have a leading coefficient of 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # ln of the largest double
_SQRT1_2 = 7.07106781186547524401E-1
# CDF arguments per block of gaussian_bin_masses: bounds its scratch memory
_BIN_BLOCK = 1 << 14


def _polevl(x, coefs, monic=False):
    """Horner's rule in Cephes' order; ``monic`` prepends a leading 1."""
    y = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _normal_cdf(a) -> np.ndarray:
    """The standard normal CDF, bit for bit Cephes' ``ndtr``.

    With x = a/√2 and z = |x|, the CDF is ½ + ½ erf(x) for z < 1/√2 and
    ½ erfc(z), reflected for x > 0, beyond. Cephes takes erfc(z) as
    1 − erf(z) for z < 1, saturates to exactly 0 or 1 once z² > MAXLOG,
    and takes exp(−z²) from libm, which ``math.exp`` calls (``np.exp``
    rounds some results differently). Only the unsaturated elements are
    computed, each branch on its own.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    cdf = np.heaviside(x, 0.0)  # the saturated tails; NaN stays NaN
    with np.errstate(over="ignore"):
        # from x = 6 on, 1 − ½ erfc(x) rounds to 1: erfc(6) < 2⁻⁵⁴
        live = np.flatnonzero((x < 6.0) & (x * x <= _MAXLOG))
    x = x.take(live)
    z = np.abs(x)
    out = np.empty(x.size)  # the CDF for z < 1/√2, ½ erfc(z) beyond
    inner = z < 1.0
    xi = x[inner]
    erf = xi * _polevl(xi * xi, _ERF_T) / _polevl(xi * xi, _ERF_U, monic=True)
    out[inner] = np.where(z[inner] < _SQRT1_2, 0.5 + 0.5 * erf, 0.5 * (1.0 - np.abs(erf)))
    zt = z[~inner]
    erfc = np.fromiter(map(math.exp, (-zt * zt).tolist()), float, count=zt.size)
    near = zt < 8.0
    for part, num, den in ((near, _ERFC_P, _ERFC_Q), (~near, _ERFC_R, _ERFC_S)):
        zp = zt[part]
        erfc[part] = erfc[part] * _polevl(zp, num) / _polevl(zp, den, monic=True)
    out[~inner] = 0.5 * erfc
    upper = (x > 0) & (z >= _SQRT1_2)
    out[upper] = 1.0 - out[upper]
    np.put(cdf, live, out)
    return cdf


def gaussian_bin_masses(means, stds, edges) -> np.ndarray:
    """Exact bin masses of 1-D Gaussians on a shared grid.

    Parameters
    ----------
    means, stds : array_like, shape (k,)
        Parameters of k univariate Gaussians, finite and with stds > 0.
    edges : array_like, shape (B+1,)
        Strictly increasing interior bin edges. Two extra unbounded bins
        (-inf, edges[0]) and (edges[-1], inf) are prepended/appended so
        every row sums to 1 exactly.

    Returns
    -------
    ndarray, shape (k, B+2)
        Row i is the probability of each bin under N(means[i], stds[i]²).

    Working memory: the result is allocated once and filled in blocks of
    whole rows, each of at most ``_BIN_BLOCK`` CDF arguments, or one row
    if a row alone has more. A block needs about 100 bytes per argument
    when none saturates, so beyond the result the call needs at most
    about 1.6 MB for any number of rows on a grid of up to ``_BIN_BLOCK``
    edges, and about 100 bytes per edge on a wider one.
    """
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if means.ndim != 1 or means.shape != stds.shape:
        raise ValueError("means and stds must be 1-D of one length, "
                         f"got shapes {means.shape} and {stds.shape}")
    for name, values in (("means", means), ("stds", stds)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"{name} must be finite: {name}[{i}] = {float(values[i])!r}")
    if np.any(stds <= 0):
        raise ValueError("standard deviations must be positive")
    if edges.ndim != 1 or edges.size == 0:
        raise ValueError(f"edges must be a non-empty 1-D grid, got shape {edges.shape}")
    bad = np.flatnonzero(~(edges[1:] > edges[:-1]))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"edges must strictly increase: edges[{i + 1}] = {float(edges[i + 1])!r} "
                         f"does not exceed edges[{i}] = {float(edges[i])!r}")
    masses = np.empty((means.size, edges.size + 1))
    rows = max(1, _BIN_BLOCK // edges.size)
    for start in range(0, means.size, rows):
        block = slice(start, start + rows)
        cdf = _normal_cdf((edges - means[block, None]) / stds[block, None])
        out = masses[block]
        out[:, 0] = cdf[:, 0]
        np.subtract(cdf[:, 1:], cdf[:, :-1], out=out[:, 1:-1])
        np.subtract(1.0, cdf[:, -1], out=out[:, -1])
    return np.clip(masses, 0.0, None, out=masses)
