import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibsep import info


def random_distribution(rng, k):
    return info.DiscreteDistribution(rng.dirichlet(np.ones(k)))


def random_channel(rng, k_in, k_out):
    return info.DiscreteChannel(rng.dirichlet(np.ones(k_out), size=k_in))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_delta_is_zero():
    assert info.entropy(info.DiscreteDistribution(np.eye(4)[2])) == 0.0


def uniform(k):
    return info.DiscreteDistribution(np.full(k, 1.0 / k))


def test_entropy_uniform_closed_form():
    assert info.entropy(uniform(2)) == pytest.approx(math.log(2), abs=1e-15)
    for k in (3, 5, 17):
        assert info.entropy(uniform(k)) == pytest.approx(math.log(k), abs=1e-12)


def test_entropy_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_distribution(rng, int(rng.integers(2, 9)))
        assert info.entropy(p) >= 0.0


# ---------------------------------------------------------------------------
# discrete KL
# ---------------------------------------------------------------------------


def test_kl_equal_distributions_zero():
    p = info.DiscreteDistribution([0.3, 0.2, 0.5])
    assert info.kl_discrete(p, p) == 0.0


def test_kl_single_term():
    val = info.kl_discrete(info.DiscreteDistribution([1.0, 0.0]),
                           info.DiscreteDistribution([0.5, 0.5]))
    assert val == pytest.approx(math.log(2), abs=1e-15)


def test_kl_closed_form_two_point():
    val = info.kl_discrete(info.DiscreteDistribution([0.5, 0.5]),
                           info.DiscreteDistribution([0.25, 0.75]))
    expected = 0.5 * math.log(2) + 0.5 * math.log(2.0 / 3.0)
    assert val == pytest.approx(expected, abs=1e-15)
    assert val == pytest.approx(0.14384, abs=5e-6)


def test_kl_absolute_continuity_violation_flagged():
    val = info.kl_discrete(info.DiscreteDistribution([0.5, 0.5]),
                           info.DiscreteDistribution([1.0, 0.0]))
    assert val == math.inf


def test_kl_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        p, q = random_distribution(rng, k), random_distribution(rng, k)
        kl = info.kl_discrete(p, q)
        assert kl >= 0.0


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def test_mi_product_joint_zero():
    joint = info.DiscreteJoint(("a", "b"), np.outer([0.3, 0.7], [0.6, 0.4]))
    assert info.mutual_information(joint, "a", "b") == pytest.approx(0.0, abs=1e-15)


def test_mi_identity_channel_binary():
    joint = info.DiscreteJoint(("y", "z"), np.diag([0.5, 0.5]))
    assert info.mutual_information(joint, "y", "z") == pytest.approx(math.log(2), abs=1e-15)


def test_mi_binary_symmetric_channel():
    # uniform input, flip probability 0.25: I = ln 2 - H_b(0.25)
    flip = 0.25
    table = 0.5 * np.array([[1 - flip, flip], [flip, 1 - flip]])
    joint = info.DiscreteJoint(("y", "x"), table)
    h_b = -flip * math.log(flip) - (1 - flip) * math.log(1 - flip)
    got = info.mutual_information(joint, "y", "x")
    assert got == pytest.approx(math.log(2) - h_b, abs=1e-14)
    assert got == pytest.approx(0.130812, abs=5e-7)


def test_conditional_mi_chain():
    # z -> y -> x: conditioning on y must remove all dependence of x on z
    rng = np.random.default_rng(2)
    pz = rng.dirichlet(np.ones(3))
    p_y_given_z = rng.dirichlet(np.ones(4), size=3)
    p_x_given_y = rng.dirichlet(np.ones(2), size=4)
    table = pz[:, None, None] * p_y_given_z[:, :, None] * p_x_given_y[None, :, :]
    joint = info.DiscreteJoint(("z", "y", "x"), table)
    assert info.mutual_information(joint, "z", "x", given="y") == pytest.approx(0.0, abs=1e-13)
    # and unconditionally z and x are dependent in general
    assert info.mutual_information(joint, "z", "x") > 0.0


def test_mi_overlapping_axes_rejected():
    joint = info.DiscreteJoint(("a", "b"), np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        info.mutual_information(joint, "a", "a")


# ---------------------------------------------------------------------------
# the MI identity
# ---------------------------------------------------------------------------


def test_identity_constant_channel():
    prior = info.DiscreteDistribution([0.4, 0.6])
    channel = info.DiscreteChannel([[0.0, 1.0], [0.0, 1.0]])
    result = info.mi_identity_check(prior, channel)
    assert result["lhs"] == pytest.approx(0.0, abs=1e-15)
    assert result["rhs"] == pytest.approx(0.0, abs=1e-15)


def test_identity_identity_channel_uniform():
    for k in (2, 5):
        result = info.mi_identity_check(uniform(k), info.DiscreteChannel(np.eye(k)))
        assert result["lhs"] == pytest.approx(math.log(k), abs=1e-12)
        assert result["rhs"] == pytest.approx(math.log(k), abs=1e-12)


def test_identity_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k_in = int(rng.integers(2, 7))
        k_out = int(rng.integers(2, 7))
        prior = random_distribution(rng, k_in)
        channel = random_channel(rng, k_in, k_out)
        result = info.mi_identity_check(prior, channel)
        assert abs(result["lhs"] - result["rhs"]) < 1e-12


# ---------------------------------------------------------------------------
# the identities on random small joints and channels
# ---------------------------------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(1, 4)


def _sparse_rows(rng, rows, cols, sparse):
    """Dirichlet rows; ``sparse`` zeroes about a third of the entries of
    each row (keeping one) and renormalises, so 0 log 0 terms occur."""
    table = rng.dirichlet(np.ones(cols), size=rows)
    if sparse:
        keep = rng.random((rows, cols)) >= 0.35
        keep[np.arange(rows), rng.integers(cols, size=rows)] = True
        table = np.where(keep, table, 0.0)
        table /= table.sum(axis=1, keepdims=True)
    return table


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, x=SIZES, y=SIZES, z=SIZES, sparse=st.booleans())
def test_mutual_information_is_symmetric_nonnegative_and_obeys_the_chain_rule(
        seed, x, y, z, sparse):
    rng = np.random.default_rng(seed)
    table = _sparse_rows(rng, 1, x * y * z, sparse).reshape(x, y, z)
    joint = info.DiscreteJoint(("x", "y", "z"), table)
    mi = info.mutual_information
    for a, b, given_ in (("x", "y", ()), ("x", "z", ()), ("x", "z", "y"),
                         ("y", "z", "x"), ("x", ("y", "z"), ())):
        forward, backward = mi(joint, a, b, given_), mi(joint, b, a, given_)
        assert abs(forward - backward) <= 1e-12
        assert forward >= -1e-12
    chain = mi(joint, "x", "y") + mi(joint, "x", "z", given="y")
    assert abs(mi(joint, "x", ("y", "z")) - chain) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, k_in=SIZES, k_out=SIZES, sparse=st.booleans())
def test_mi_identity_check_agrees_on_random_channels(seed, k_in, k_out, sparse):
    rng = np.random.default_rng(seed)
    prior = info.DiscreteDistribution(_sparse_rows(rng, 1, k_in, sparse)[0])
    channel = info.DiscreteChannel(_sparse_rows(rng, k_in, k_out, sparse))
    out = info.mi_identity_check(prior, channel)
    assert abs(out["lhs"] - out["rhs"]) <= 1e-12
    assert out["lhs"] >= -1e-12


# ---------------------------------------------------------------------------
# total correlation
# ---------------------------------------------------------------------------


def test_tc_product_zero():
    joint = info.DiscreteJoint(("a", "b"), np.outer([0.2, 0.8], [0.5, 0.5]))
    assert info.total_correlation_discrete(joint) == pytest.approx(0.0, abs=1e-15)


def test_tc_correlated_bits():
    joint = info.DiscreteJoint(("a", "b"), np.diag([0.5, 0.5]))
    assert info.total_correlation_discrete(joint) == pytest.approx(math.log(2), abs=1e-15)


def test_tc_three_independent_bits():
    table = np.full((2, 2, 2), 1 / 8)
    joint = info.DiscreteJoint(("a", "b", "c"), table)
    assert info.total_correlation_discrete(joint) == pytest.approx(0.0, abs=1e-15)


def test_tc_equals_mi_on_two_axes():
    rng = np.random.default_rng(4)
    for _ in range(50):
        table = rng.dirichlet(np.ones(12)).reshape(3, 4)
        joint = info.DiscreteJoint(("a", "b"), table)
        tc = info.total_correlation_discrete(joint)
        mi = info.mutual_information(joint, "a", "b")
        assert abs(tc - mi) < 1e-12


# ---------------------------------------------------------------------------
# Gaussian quantities
# ---------------------------------------------------------------------------


def _random_gaussians(rng, lead, d):
    """Means and positive-definite covariances of shape lead + (d,) and lead + (d, d)."""
    roots = rng.normal(size=(*lead, d, d))
    covs = roots @ np.swapaxes(roots, -1, -2) + 0.1 * np.eye(d)
    return rng.normal(size=(*lead, d)), covs


def test_kl_gaussian_identical_zero():
    mean, cov = [1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]]
    assert info.kl_gaussian(mean, cov, mean, cov) == pytest.approx(0.0, abs=1e-12)


def test_kl_gaussian_scalar_closed_forms():
    n01, n11, n02 = ([0.0], [[1.0]]), ([1.0], [[1.0]]), ([0.0], [[2.0]])
    assert info.kl_gaussian(*n01, *n11) == pytest.approx(0.5, abs=1e-14)
    expected = 0.5 * (2.0 - 1.0 - math.log(2.0))
    assert info.kl_gaussian(*n02, *n01) == pytest.approx(expected, abs=1e-14)
    assert info.kl_gaussian(*n02, *n01) == pytest.approx(0.153426, abs=5e-7)


def test_kl_gaussian_singular_q_errors():
    # alone, and as one row of a batch
    singular = [[1.0, 1.0], [1.0, 1.0]]
    with pytest.raises(np.linalg.LinAlgError):
        info.kl_gaussian([0.0, 0.0], np.eye(2), [0.0, 0.0], singular)
    cov_q = np.stack([np.eye(2), singular, np.eye(2)])
    with pytest.raises(np.linalg.LinAlgError):
        info.kl_gaussian(np.zeros((3, 2)), np.stack([np.eye(2)] * 3), np.zeros((3, 2)), cov_q)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_kl_gaussian_singular_p_is_infinite(lead):
    # absolute continuity fails in the singular row alone
    mean, cov_q = _random_gaussians(np.random.default_rng(6), lead, 2)
    cov_p = cov_q.copy()
    cov_p[(0,) * len(lead)] = [[1.0, 1.0], [1.0, 1.0]]
    kl = np.atleast_1d(info.kl_gaussian(mean, cov_p, mean, cov_q))
    assert kl[0] == math.inf
    assert np.isfinite(kl[1:]).all()


@pytest.mark.parametrize("d_p, d_q", [(2, 3), (3, 2)])
@pytest.mark.parametrize("lead", [(), (4,)])
def test_kl_gaussian_refuses_mismatched_dimensions(d_p, d_q, lead):
    rng = np.random.default_rng(7)
    p, q = _random_gaussians(rng, lead, d_p), _random_gaussians(rng, lead, d_q)
    with pytest.raises(ValueError, match="dimension mismatch"):
        info.kl_gaussian(*p, *q)


@pytest.mark.parametrize("lead", [(5,), (3, 4)])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_batched_gaussian_closed_forms_are_their_lone_calls_bit_for_bit(lead, d):
    rng = np.random.default_rng(10 * d + len(lead))
    mean_p, cov_p = _random_gaussians(rng, lead, d)
    mean_q, cov_q = _random_gaussians(rng, lead, d)
    x = rng.normal(size=(*lead, d))
    logpdf = info.gaussian_logpdf(mean_p, cov_p, x)
    kl = info.kl_gaussian(mean_p, cov_p, mean_q, cov_q)
    assert logpdf.shape == kl.shape == lead
    for row in np.ndindex(*lead):
        assert logpdf[row] == info.gaussian_logpdf(mean_p[row], cov_p[row], x[row])
        assert kl[row] == info.kl_gaussian(mean_p[row], cov_p[row], mean_q[row], cov_q[row])


def test_kl_gaussian_matches_numerical_integration():
    # 1-D oracle: midpoint rule, spacing 1e-3, range +-10 sigma around p
    rng = np.random.default_rng(5)
    for _ in range(5):
        mp, mq = rng.normal(0, 1), rng.normal(0, 1)
        sp, sq = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        xs = np.arange(mp - 10 * sp, mp + 10 * sp, 1e-3) + 0.5e-3
        logp = -0.5 * ((xs - mp) / sp) ** 2 - math.log(sp * math.sqrt(2 * math.pi))
        logq = -0.5 * ((xs - mq) / sq) ** 2 - math.log(sq * math.sqrt(2 * math.pi))
        grid = np.sum(np.exp(logp) * (logp - logq)) * 1e-3
        kl = info.kl_gaussian([mp], [[sp**2]], [mq], [[sq**2]])
        assert kl == pytest.approx(grid, abs=1e-4)


def test_kl_to_standard_normal_matches_kl_gaussian():
    rng = np.random.default_rng(41)
    mean = rng.normal(size=(4, 3))
    log_var = rng.uniform(-4.0, 2.0, size=(4, 3))
    got = info.kl_to_standard_normal(mean, np.exp(log_var), log_var)
    for row in range(4):
        kl = info.kl_gaussian(mean[row], np.diag(np.exp(log_var[row])), np.zeros(3), np.eye(3))
        assert abs(got[row] - kl) < 1e-12
    assert info.kl_to_standard_normal(np.zeros(3), np.ones(3), np.zeros(3)) == 0.0


def test_tc_gaussian_diagonal_zero():
    assert info.total_correlation_gaussian(np.diag([1.0, 2.0, 0.5])) == pytest.approx(0.0, abs=1e-14)


def test_tc_gaussian_correlated_pair():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    expected = -0.5 * math.log(0.75)
    assert info.total_correlation_gaussian(cov) == pytest.approx(expected, abs=1e-14)
    assert info.total_correlation_gaussian(cov) == pytest.approx(0.143841, abs=5e-7)


def test_tc_gaussian_permutation_invariant():
    rng = np.random.default_rng(6)
    root = rng.standard_normal((4, 4))
    cov = root @ root.T + 0.5 * np.eye(4)
    perm = rng.permutation(4)
    assert info.total_correlation_gaussian(cov[np.ix_(perm, perm)]) == pytest.approx(
        info.total_correlation_gaussian(cov), abs=1e-12)


def test_tc_gaussian_rejects_non_pd():
    with pytest.raises(ValueError):
        info.total_correlation_gaussian([[1.0, 1.0], [1.0, 1.0]])


# ---------------------------------------------------------------------------
# DPI
# ---------------------------------------------------------------------------


def test_data_processing_inequality_random():
    rng = np.random.default_rng(9)
    for _ in range(100):
        k_y = int(rng.integers(2, 6))
        k1 = int(rng.integers(2, 6))
        k2 = int(rng.integers(2, 6))
        prior = random_distribution(rng, k_y)
        c1 = random_channel(rng, k_y, k1)
        c2 = random_channel(rng, k1, k2)
        i_x1 = info.mi_identity_check(prior, c1)["lhs"]
        composed = info.DiscreteChannel(c1.matrix @ c2.matrix)
        i_x2 = info.mi_identity_check(prior, composed)["lhs"]
        assert i_x2 <= i_x1 + 1e-12


# ---------------------------------------------------------------------------
# validation and helpers
# ---------------------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        info.DiscreteDistribution([0.5, 0.4])  # sums to 0.9
    with pytest.raises(ValueError):
        info.DiscreteDistribution([1.5, -0.5])
    # tiny drift renormalizes
    d = info.DiscreteDistribution([0.5 + 1e-12, 0.5])
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("bad, message", [
    ([], "is empty"),
    ([0.5, np.nan], "non-finite"),
    ([0.5, np.inf], "non-finite"),
    ([1.0, -np.inf], "non-finite"),
    ([1.0 + 2e-12, -2e-12], "negative"),
    ([0.5, 0.5 + 2e-9], "sums to"),
])
def test_a_bad_probability_table_is_rejected_with_its_reason(bad, message):
    with pytest.raises(ValueError, match=message):
        info.DiscreteDistribution(bad)


@pytest.mark.parametrize("bad, message", [
    (np.zeros((0, 3)), r"shape \(0, 3\) is empty"),
    (np.zeros((2, 0)), r"shape \(2, 0\) is empty"),
    ([0.5, 0.5], "2-D"),
    ([[0.5, np.nan], [0.5, 0.5]], "non-finite"),
    ([[0.5, np.inf], [0.5, 0.5]], "non-finite"),
    ([[0.5, 0.5], [-np.inf, 1.0]], "non-finite"),
    ([[1.0 + 2e-12, -2e-12], [0.5, 0.5]], "negative"),
    ([[0.5, 0.5], [0.5, 0.5 + 2e-9]], "rows must sum to 1"),
])
def test_a_bad_channel_matrix_is_rejected_with_its_reason(bad, message):
    with pytest.raises(ValueError, match=message):
        info.DiscreteChannel(bad)


def test_entries_just_below_zero_are_clipped():
    dist = info.DiscreteDistribution([1.0 + 1e-12, -1e-12])
    assert dist.probs.tolist() == [1.0, 0.0]
    channel = info.DiscreteChannel([[1.0 + 1e-12, -1e-12], [0.5, 0.5]])
    assert channel.matrix.tolist() == [[1.0, 0.0], [0.5, 0.5]]


def test_joint_marginal_ordering():
    table = np.arange(1, 7, dtype=float).reshape(2, 3)
    table /= table.sum()
    joint = info.DiscreteJoint(("a", "b"), table)
    ab = joint.marginal_table(("a", "b"))
    ba = joint.marginal_table(("b", "a"))
    assert np.allclose(ab.T, ba)


def test_gaussian_bin_masses_equal_the_normal_cdf_formula_bit_for_bit():
    from scipy.stats import norm

    def check(means, stds, edges):
        cdf = norm.cdf((edges[None, :] - means[:, None]) / stds[:, None])
        want = np.clip(np.concatenate([cdf[:, :1], np.diff(cdf, axis=1),
                                       1.0 - cdf[:, -1:]], axis=1), 0.0, None)
        got = info.gaussian_bin_masses(means, stds, edges)
        assert got.shape == (means.size, edges.size + 1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    rng = np.random.default_rng(12)
    for scale in (0.01, 1.0, 40.0):
        means = rng.normal(0.0, scale, size=500)
        stds = rng.uniform(0.01, 1.0, size=500) * scale
        edges = np.sort(rng.normal(0.0, scale, size=31))
        # unbounded outer edges and an edge exactly at a mean (a zero z)
        edges = np.concatenate([[-np.inf], edges, [np.inf]])
        means[0] = edges[5]
        check(means, stds, edges)
    # the masses are filled in blocks of whole rows: no row, one row, and
    # one block less one row, exactly and plus one row
    block = info._BIN_BLOCK // edges.size
    for k in (0, 1, block - 1, block, block + 1):
        check(rng.normal(0.0, 2.0, size=k), rng.uniform(0.1, 2.0, size=k), edges)
    # a grid wider than the block budget: one row per block
    wide = np.concatenate([[-np.inf], np.linspace(-6.0, 6.0, info._BIN_BLOCK + 1), [np.inf]])
    check(rng.normal(0.0, 2.0, size=3), rng.uniform(0.1, 2.0, size=3), wide)


def test_gaussian_bin_masses_refuse_a_bad_grid():
    # edges that fall back would give a row summing to more than one
    with pytest.raises(ValueError, match=r"strictly increase: edges\[1\] = 0.0"):
        info.gaussian_bin_masses([0.0], [1.0], [1.0, 0.0, -1.0])
    with pytest.raises(ValueError, match="strictly increase"):
        info.gaussian_bin_masses([0.0], [1.0], [-1.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="strictly increase"):
        info.gaussian_bin_masses([0.0], [1.0], [-1.0, np.nan, 1.0])


def test_gaussian_bin_masses_refuse_means_and_stds_of_different_lengths():
    with pytest.raises(ValueError, match=r"means and stds .* \(3,\) and \(2,\)"):
        info.gaussian_bin_masses([0.0, 1.0, 2.0], [1.0, 1.0], [-1.0, 0.0, 1.0])


def test_gaussian_bin_masses_refuse_non_finite_means_and_stds():
    # unchecked, a NaN std gives a NaN row and an infinite std the finite
    # row [0.5, 0, 0.5]
    edges = [-1.0, 1.0]
    with pytest.raises(ValueError, match=r"stds must be finite: stds\[1\] = nan"):
        info.gaussian_bin_masses([0.0, 0.0, 0.0], [1.0, np.nan, np.inf], edges)
    with pytest.raises(ValueError, match=r"stds must be finite: stds\[0\] = inf"):
        info.gaussian_bin_masses([0.0], [np.inf], edges)
    with pytest.raises(ValueError, match=r"means must be finite: means\[2\] = -inf"):
        info.gaussian_bin_masses([0.0, 1.0, -np.inf], [1.0, 1.0, 1.0], edges)
    with pytest.raises(ValueError, match=r"means must be finite: means\[0\] = inf"):
        info.gaussian_bin_masses([np.inf], [1.0], [-np.inf, 0.0])


def test_gaussian_bin_masses_work_in_bounded_memory():
    # beyond its result, a call needs one block's scratch memory however
    # many rows it has; every argument here is unsaturated, the costliest
    # case (about 100 bytes each)
    rng = np.random.default_rng(14)
    for k, width in ((2_000, 500), (64, 2_000)):
        means = rng.normal(0.0, 1.0, size=k)
        stds = rng.uniform(0.5, 2.0, size=k)
        edges = np.linspace(-6.0, 6.0, width - 1)
        tracemalloc.start()
        try:
            masses = info.gaussian_bin_masses(means, stds, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masses.shape == (k, width)
        assert peak - masses.nbytes < 2 * 2**20, (k, width, peak - masses.nbytes)


def test_normal_cdf_equals_scipy_ndtr_bit_for_bit():
    # scipy is a test-only reference for the Cephes port
    from scipy.special import ndtr

    rng = np.random.default_rng(13)
    wide = [rng.normal(0.0, scale, 100_000) for scale in (0.5, 2.0, 10.0, 40.0)]
    # the branch edges |x| = 1, √2 and 8√2, and the saturation edge, where
    # (x/√2)² passes MAXLOG, each with its 64 neighbours in ulps either side
    edges = []
    for edge in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * info._MAXLOG)):
        near = edge + np.arange(-64, 65) * np.spacing(edge)
        edges += [near, -near]
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300])
    x = np.concatenate(wide + edges + [special])
    got, want = info._normal_cdf(x), ndtr(x)
    assert got.tobytes() == want.tobytes()
    saturated = np.abs(x) > math.sqrt(2.0 * info._MAXLOG) + 1e-9
    assert set(got[saturated]) == {0.0, 1.0}
    assert np.isnan(info._normal_cdf(np.array([np.nan]))).all()
    # the shape is kept, as the bin masses need
    grid = x[:60].reshape(3, 4, 5)
    assert info._normal_cdf(grid).tobytes() == ndtr(grid).tobytes()


def test_gaussian_bin_masses_rows_sum_to_one():
    edges = np.arange(-5.0, 5.0001, 0.05)
    masses = info.gaussian_bin_masses([0.0, 1.3], [1.0, 0.1], edges)
    assert np.allclose(masses.sum(axis=1), 1.0, atol=1e-12)
    # mass concentrates near the mean
    mid = np.argmax(masses[1])
    center = 0.5 * (edges[mid - 1] + edges[mid]) if 0 < mid <= len(edges) - 1 else None
    assert abs(center - 1.3) < 0.1


def test_cross_entropy_discrete_decomposition():
    rng = np.random.default_rng(10)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        p = random_distribution(rng, k)
        q = random_distribution(rng, k)
        lhs = info.cross_entropy_discrete(p, q)
        rhs = info.entropy(p) + info.kl_discrete(p, q)
        assert abs(lhs - rhs) < 1e-12

