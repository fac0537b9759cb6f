import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibsep import harness, info, lgss
from ibsep.info import GaussianDistribution

import references


def scalar_model(a=0.9, c=1.0, q=0.1, r=0.1, mu0=0.0, p0=1.0):
    return lgss.LGSSModel(A=[[a]], C=[[c]], Q=[[q]], R=[[r]],
                          mu0=[mu0], P0=[[p0]])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_noiseless_fixed_point():
    model = lgss.LGSSModel(A=np.eye(2), C=np.eye(2),
                           Q=np.zeros((2, 2)), R=1e-300 * np.eye(2),
                           mu0=[1.0, -2.0], P0=np.zeros((2, 2)))
    # R must be PD; use a negligible floor and compare loosely enough
    traj = lgss.simulate(model, 10, np.random.default_rng(0))
    assert np.allclose(traj.y, np.tile([1.0, -2.0], (10, 1)), atol=1e-9)
    assert np.allclose(traj.x, np.tile([1.0, -2.0], (10, 1)))


def test_simulate_ar1_autocorrelation():
    model = scalar_model(a=0.9, q=1.0, r=1e-6, p0=1.0 / (1 - 0.81))
    traj = lgss.simulate(model, 100_000, np.random.default_rng(1))
    x = traj.x[:, 0]
    x = x - x.mean()
    rho = np.dot(x[:-1], x[1:]) / np.dot(x, x)
    assert abs(rho - 0.9) < 0.01


def test_simulate_deterministic_given_seed():
    model = lgss.random_stable_model(np.random.default_rng(2), n=3, m=2)
    t1 = lgss.simulate(model, 20, np.random.default_rng(7))
    t2 = lgss.simulate(model, 20, np.random.default_rng(7))
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.y, t2.y)


# ---------------------------------------------------------------------------
# predict / update
# ---------------------------------------------------------------------------


def test_predict_identity_dynamics_fixed_point():
    model = lgss.LGSSModel(A=np.eye(2), C=np.eye(2),
                           Q=np.zeros((2, 2)), R=np.eye(2),
                           mu0=[0.5, 1.5], P0=np.eye(2))
    mean, cov = lgss.kalman_predict(model.mu0, model.P0, model)
    assert np.allclose(mean, model.mu0)
    assert np.allclose(cov, model.P0)


def test_predict_scalar_variance():
    model = scalar_model(a=2.0, q=1.0)
    _, cov = lgss.kalman_predict(np.zeros(1), np.eye(1), model)
    assert cov[0, 0] == pytest.approx(5.0)  # a^2 P + Q


def test_predict_keeps_symmetric_psd():
    rng = np.random.default_rng(4)
    model = lgss.random_stable_model(rng, n=4, m=2)
    mean, cov = model.mu0, model.P0
    for _ in range(50):
        mean, cov = lgss.kalman_predict(mean, cov, model)
        assert np.allclose(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-12


def test_update_uninformative_observation():
    model = lgss.LGSSModel(A=np.eye(2), C=np.zeros((1, 2)),
                           Q=np.eye(2), R=np.eye(1), mu0=[0.0, 0.0], P0=np.eye(2))
    prior_mean, prior_cov = np.array([1.0, 2.0]), 2.0 * np.eye(2)
    mean, cov = lgss.kalman_update(prior_mean, prior_cov, [3.0], model)
    assert np.allclose(mean, prior_mean)
    assert np.allclose(cov, prior_cov)


def test_update_conjugate_variance_sequence():
    # c=1, a=1, Q=0, R=1, flat prior var 1: posterior var after t obs = 1/(1+t)
    model = scalar_model(a=1.0, c=1.0, q=0.0, r=1.0, p0=1.0)
    mean, cov = model.mu0, model.P0
    rng = np.random.default_rng(5)
    for t in range(1, 8):
        prior_mean, prior_cov = lgss.kalman_predict(mean, cov, model)
        mean, cov = lgss.kalman_update(prior_mean, prior_cov, rng.normal(), model)
        assert cov[0, 0] == pytest.approx(1.0 / (1.0 + t), abs=1e-12)


def _psd(rng, n):
    root = rng.standard_normal((n, n))
    return root @ root.T + 0.1 * np.eye(n)


def test_update_never_inflates_covariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        model = lgss.random_stable_model(rng, n=3, m=2)
        prior_cov = _psd(rng, 3)
        _, cov = lgss.kalman_update(rng.normal(size=3), prior_cov,
                                    rng.normal(size=2), model)
        gap_eigs = np.linalg.eigvalsh(prior_cov - cov)
        assert gap_eigs.min() > -1e-10


def _singular_innovation_model():
    # R = 0 and P = 0 make the innovation covariance exactly singular; the
    # model validator forbids R = 0, so build the instance unvalidated
    bad_model = lgss.LGSSModel.__new__(lgss.LGSSModel)
    object.__setattr__(bad_model, "A", np.eye(1))
    object.__setattr__(bad_model, "C", np.array([[1.0]]))
    object.__setattr__(bad_model, "Q", np.zeros((1, 1)))
    object.__setattr__(bad_model, "R", np.zeros((1, 1)))
    object.__setattr__(bad_model, "mu0", np.zeros(1))
    object.__setattr__(bad_model, "P0", np.zeros((1, 1)))
    return bad_model


def test_update_singular_innovation_errors():
    bad_model = _singular_innovation_model()
    singular = "innovation covariance singular"
    with pytest.raises(np.linalg.LinAlgError, match=singular):
        lgss.kalman_update(np.zeros(1), np.zeros((1, 1)), [0.0], bad_model)
    with pytest.raises(np.linalg.LinAlgError, match=singular):
        lgss.riccati_iterate(bad_model, np.zeros((1, 1)), 3)
    traj = lgss.Trajectory(x=np.zeros((2, 1)), y=np.zeros((2, 1)))
    with pytest.raises(np.linalg.LinAlgError, match=singular):
        lgss.run_filter(bad_model, [traj])


def test_an_overflowing_innovation_covariance_is_non_finite():
    # C P Cᵀ overflows to inf: a non-finite state, not a singular matrix
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite filter state"):
        lgss.kalman_update(np.zeros(1), [[1e200]], [0.0], scalar_model(c=1e60))


def test_oracle_singular_observation_covariance_errors():
    traj = lgss.Trajectory(x=np.zeros((2, 1)), y=np.zeros((2, 1)))
    with pytest.raises(np.linalg.LinAlgError, match="joint observation covariance singular"):
        lgss.batch_posterior_oracle(_singular_innovation_model(), traj, 2)


# ---------------------------------------------------------------------------
# predictive density
# ---------------------------------------------------------------------------


def test_predictive_zero_dynamics():
    model = lgss.LGSSModel(A=np.zeros((2, 2)), C=np.eye(2),
                           Q=np.zeros((2, 2)), R=np.eye(2),
                           mu0=[0.0, 0.0], P0=np.eye(2))
    pred = references.predictive_density(model.mu0, model.P0, model)
    assert np.allclose(pred.mean, 0.0)
    assert np.allclose(pred.cov, np.eye(2))


def test_predictive_matches_monte_carlo():
    model = scalar_model(a=0.8, c=1.5, q=0.3, r=0.2, mu0=0.4, p0=0.5)
    pred = references.predictive_density(model.mu0, model.P0, model)
    rng = np.random.default_rng(8)
    n = 100_000
    x1 = 0.8 * (0.4 + math.sqrt(0.5) * rng.standard_normal(n)) + math.sqrt(0.3) * rng.standard_normal(n)
    y1 = 1.5 * x1 + math.sqrt(0.2) * rng.standard_normal(n)
    mc_mean, mc_var = y1.mean(), y1.var()
    assert abs(pred.mean[0] - mc_mean) < 3 * math.sqrt(pred.cov[0, 0] / n)
    assert abs(pred.cov[0, 0] - mc_var) < 3 * pred.cov[0, 0] * math.sqrt(2.0 / n)


def test_predictive_logpdf_closed_form():
    model = scalar_model()
    pred = references.predictive_density(model.mu0, model.P0, model)
    y = 0.7
    s = pred.cov[0, 0]
    expected = -0.5 * (math.log(2 * math.pi * s) + (y - pred.mean[0]) ** 2 / s)
    assert info.gaussian_logpdf(pred.mean, pred.cov, [y]) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Riccati iteration
# ---------------------------------------------------------------------------


def test_riccati_trace_shrinks_with_sharp_observations():
    model = lgss.LGSSModel(A=0.9 * np.eye(2), C=np.eye(2),
                           Q=np.zeros((2, 2)), R=1e-4 * np.eye(2),
                           mu0=np.zeros(2), P0=np.eye(2))
    P = np.eye(2)
    traces = [np.trace(P)]
    for _ in range(6):
        P = lgss.riccati_iterate(model, P, 1)
        traces.append(np.trace(P))
    assert all(t2 < t1 + 1e-15 for t1, t2 in zip(traces, traces[1:]))


def test_riccati_fixed_point_self_consistent():
    rng = np.random.default_rng(9)
    model = lgss.random_stable_model(rng, n=3, m=2)
    P_star = lgss.riccati_iterate(model, model.P0, 500)
    P_next = lgss.riccati_iterate(model, P_star, 1)
    assert np.max(np.abs(P_next - P_star)) < 1e-10


def test_riccati_scalar_golden_ratio():
    # a=q=c=r=1: prior-variance fixed point M solves M^2 - M - 1 = 0,
    # so the posterior fixed point is M/(M+1) with M the positive root
    model = scalar_model(a=1.0, c=1.0, q=1.0, r=1.0)
    P = lgss.riccati_iterate(model, [[1.0]], 200)[0, 0]
    m_root = max(np.roots([1.0, -1.0, -1.0]))
    assert P == pytest.approx(m_root / (m_root + 1.0), abs=1e-12)


def test_riccati_matches_long_filter_covariance():
    rng = np.random.default_rng(10)
    model = lgss.random_stable_model(rng, n=2, m=2)
    traj = lgss.simulate(model, 1000, rng)
    (_, (covs,)), _ = lgss.run_filter(model, [traj])
    P_star = lgss.riccati_iterate(model, model.P0, 1000)
    assert np.max(np.abs(covs[-1] - P_star)) < 1e-8


def _riccati_reference(model, P_init, cap=2000):
    """Plain-loop iterates P_0..P_{mu+lam} over the public predict/update.

    Stops at the first bitwise repeat P_{mu+lam} == P_mu and returns
    (iterates, mu, lam); P_0 is P_init as kalman_predict symmetrises it.
    """
    cov = (P_init + P_init.T) / 2.0
    iterates = [cov]
    first_seen = {cov.tobytes(): 0}
    for k in range(1, cap + 1):
        prior_mean, prior_cov = lgss.kalman_predict(np.zeros(model.n), cov, model)
        _, cov = lgss.kalman_update(prior_mean, prior_cov, np.zeros(model.m), model)
        iterates.append(cov)
        key = cov.tobytes()
        if key in first_seen:
            return iterates, first_seen[key], k - first_seen[key]
        first_seen[key] = k
    raise AssertionError(f"no exact repeat within {cap} iterations")


def _riccati_case(rng):
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 4))
    model = lgss.random_stable_model(rng, n=n, m=m)
    P_init = _psd(rng, n)
    P_init[0, -1] += 1e-13  # not quite symmetric: the first step symmetrises
    return model, P_init


def test_riccati_iterate_equals_the_plain_loop_bitwise():
    rng = np.random.default_rng(18)
    periods = []
    for _ in range(60):
        model, P_init = _riccati_case(rng)
        iterates, mu, lam = _riccati_reference(model, P_init)
        periods.append(lam)
        # zero iterations hand the input back untouched, unsymmetrised
        assert np.array_equal(lgss.riccati_iterate(model, P_init, 0), P_init)
        for n_iters in (1, 2, mu - 1, mu, mu + lam, 5000):
            if n_iters < 1:
                continue
            # past the first repeat the plain loop cycles with period lam
            k = n_iters if n_iters <= mu + lam else mu + (n_iters - mu) % lam
            got = lgss.riccati_iterate(model, P_init, n_iters)
            assert np.array_equal(got, iterates[k]), (n_iters, mu, lam)
    assert 2 in periods and max(periods) > 2


def test_riccati_iterate_matches_a_full_length_plain_loop():
    # the periodicity the shortcut relies on, checked by running the
    # plain loop all the way on models with period 1, 2 and > 2
    rng = np.random.default_rng(18)
    want = {1, 2, 3}
    while want:
        model, P_init = _riccati_case(rng)
        _, _, lam = _riccati_reference(model, P_init)
        if min(lam, 3) not in want:
            continue
        want.discard(min(lam, 3))
        mean, cov = np.zeros(model.n), P_init
        for _ in range(3001):
            mean, cov = lgss.kalman_update(*lgss.kalman_predict(mean, cov, model),
                                           np.zeros(model.m), model)
        got = lgss.riccati_iterate(model, P_init, 3001)
        assert np.array_equal(got, cov), lam


def test_riccati_iterate_rejects_a_non_finite_start():
    model = lgss.random_stable_model(np.random.default_rng(19), n=2, m=1)
    P_init = np.eye(2)
    P_init[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        lgss.riccati_iterate(model, P_init, 5)


def _count_steps(monkeypatch):
    """Patch the data-free step so each one computed appends its posterior's bytes."""
    calls = []
    predict_cov = lgss._predict_cov

    def counting_predict_cov(cov, model):
        calls.append(cov.tobytes())
        return predict_cov(cov, model)

    monkeypatch.setattr(lgss, "_predict_cov", counting_predict_cov)
    return calls


def test_kalman_battery_riccati_work_stays_short(monkeypatch):
    # each riccati_iterate(..., 5000) of the battery at root seed 7 computes
    # the steps up to its first exact repeat mu + lam, each once; the plain
    # loop computes all 5,000
    steps = _count_steps(monkeypatch)
    runs = []
    riccati_iterate = lgss.riccati_iterate

    def counting_iterate(model, P_init, n_iters):
        before = len(steps)
        out = riccati_iterate(model, P_init, n_iters)
        runs.append((model, P_init, n_iters, steps[before:]))
        return out

    monkeypatch.setattr(lgss, "riccati_iterate", counting_iterate)
    records = harness.run_kalman(harness.experiment_seed(7, "kalman"))
    assert [r.status for r in records] == ["pass", "pass"]
    assert len(runs) == 5
    for model, P_init, n_iters, computed in runs:
        _, mu, lam = _riccati_reference(model, P_init)
        assert mu + lam < n_iters
        assert len(computed) == len(set(computed)) == mu + lam


def test_run_filter_predictives_are_the_one_step_densities():
    # bitwise the per-step loop over the public predict/update: row t of
    # the posteriors is kalman_update(kalman_predict(row t-1)), row t of the
    # predictives is predictive_density at row t-1, and loglik is their
    # running sum
    rng = np.random.default_rng(13)
    for n, m in ((3, 2), (1, 1), (4, 3), (5, 1), (2, 3)):
        model = lgss.random_stable_model(rng, n=n, m=m)
        traj = lgss.simulate(model, 12, rng)
        filtered, predictives = lgss.run_filter(model, [traj])
        ((means,), (covs,)), ((pred_means,), (pred_covs,)) = filtered, predictives
        (loglik,) = lgss.predictive_loglik([traj], *predictives)
        assert means.shape == (12, n) and covs.shape == (12, n, n)
        assert pred_means.shape == (12, m) and pred_covs.shape == (12, m, m)
        mean, cov = model.mu0, model.P0
        expect_ll = 0.0
        for t in range(traj.T):
            expect = references.predictive_density(mean, cov, model)
            assert np.array_equal(pred_means[t], expect.mean)
            assert np.array_equal(pred_covs[t], expect.cov)
            expect_ll += info.gaussian_logpdf(expect.mean, expect.cov, traj.y[t])
            prior = lgss.kalman_predict(mean, cov, model)
            mean, cov = lgss.kalman_update(*prior, traj.y[t], model)
            assert np.array_equal(means[t], mean)
            assert np.array_equal(covs[t], cov)
        assert loglik == expect_ll


def _per_step_chain(model, traj):
    """The public predict/update chain on one trajectory, stacked like run_filter."""
    mean, cov, loglik = model.mu0, model.P0, 0.0
    rows = []
    for t in range(traj.T):
        pred = references.predictive_density(mean, cov, model)
        loglik += info.gaussian_logpdf(pred.mean, pred.cov, traj.y[t])
        mean, cov = lgss.kalman_update(*lgss.kalman_predict(mean, cov, model),
                                       traj.y[t], model)
        rows.append((mean, cov, pred.mean, pred.cov))
    return [np.stack(col) for col in zip(*rows)] + [loglik]


def _random_case(rng, T):
    model = lgss.random_stable_model(rng, n=int(rng.integers(1, 5)),
                                     m=int(rng.integers(1, 3)))
    return model, lgss.simulate(model, T, rng)


def test_a_long_run_filter_equals_the_per_step_chain_bitwise():
    # past the first exact repeat of the posterior covariance every step is a
    # lookup; means, covariances, predictives and loglik keep the chain's bits
    rng = np.random.default_rng(29)
    for _ in range(6):
        model, traj = _random_case(rng, 1000)
        want = _per_step_chain(model, traj)
        assert len({cov.tobytes() for cov in want[1]}) < 1000
        got = [a[0] for a in _flat(_with_loglik([traj], lgss.run_filter(model, [traj])))]
        for got_part, want_part in zip(got, want):
            assert np.array_equal(got_part, want_part)


def test_run_filter_steps_each_distinct_posterior_covariance_once(monkeypatch):
    # P_0..P_{T-1} are distinct below the first repeat mu + lam, so T below
    # it takes T steps and T past it takes mu + lam; the plain loop takes T
    calls = _count_steps(monkeypatch)
    rng = np.random.default_rng(31)
    for _ in range(6):
        model, _ = _random_case(rng, 1)
        _, mu, lam = _riccati_reference(model, model.P0)
        assert mu + lam < 1000
        for T in (mu + lam, 1000):
            traj = lgss.simulate(model, T, rng)
            calls.clear()
            lgss.run_filter(model, [traj])
            assert len(calls) == len(set(calls)) == min(T, mu + lam)


def test_a_nan_observation_past_the_covariance_repeat_still_raises():
    rng = np.random.default_rng(37)
    model, traj = _random_case(rng, 400)
    _, mu, lam = _riccati_reference(model, model.P0)
    y = traj.y.copy()
    y[mu + lam + 5] = np.nan
    with pytest.raises(ValueError, match="non-finite filter state"):
        lgss.run_filter(model, [lgss.Trajectory(x=traj.x, y=y)])


def test_a_bare_trajectory_is_refused_by_name():
    model = scalar_model()
    traj = lgss.simulate(model, 5, np.random.default_rng(41))
    with pytest.raises(ValueError, match="list or tuple of trajectories, got Trajectory"):
        lgss.run_filter(model, traj)
    # a tuple is a list of trajectories
    assert np.array_equal(_with_loglik((traj,), lgss.run_filter(model, (traj,)))[2],
                          _with_loglik([traj], lgss.run_filter(model, [traj]))[2])


def test_predictive_loglik_refuses_predictives_of_other_trajectories():
    rng = np.random.default_rng(43)
    model = lgss.random_stable_model(rng, n=2, m=2)
    trajs = [lgss.simulate(model, 6, rng) for _ in range(3)]
    _, (pred_means, pred_covs) = lgss.run_filter(model, trajs)
    assert lgss.predictive_loglik(trajs, pred_means, pred_covs).shape == (3,)
    for others in (trajs[:2], [lgss.simulate(model, 5, rng)] * 3):
        with pytest.raises(ValueError, match="do not fit observations"):
            lgss.predictive_loglik(others, pred_means, pred_covs)
    with pytest.raises(ValueError, match="list or tuple of trajectories, got Trajectory"):
        lgss.predictive_loglik(trajs[0], pred_means, pred_covs)


def _filter_rows(model, trajs):
    """run_filter on the list, and row 0 of a one-trajectory call on each."""
    batched = _with_loglik(trajs, lgss.run_filter(model, trajs))
    return batched, [[a[0] for a in _flat(_with_loglik([traj],
                                                      lgss.run_filter(model, [traj])))]
                     for traj in trajs]


def _with_loglik(trajs, result):
    """run_filter's result with the trajectories' log-likelihoods appended."""
    return (*result, lgss.predictive_loglik(trajs, *result[1]))


def _flat(result):
    (means, covs), (pred_means, pred_covs), loglik = result
    return [means, covs, pred_means, pred_covs, np.asarray(loglik)]


def test_a_list_of_trajectories_filters_row_for_row_like_lone_calls():
    # one covariance pass, the means as one batch: row i is trajectory i's
    # lone result, bit for bit on the scalar model of the seprep battery
    rng = np.random.default_rng(17)
    model = scalar_model()
    trajs = [lgss.simulate(model, 40, rng) for _ in range(6)]
    batched, lone = _filter_rows(model, trajs)
    assert batched[0][0].shape == (6, 40, 1) and batched[1][1].shape == (6, 40, 1, 1)
    assert batched[2].shape == (6,)
    for i, result in enumerate(lone):
        for got, want in zip(_flat(batched), result):
            assert np.array_equal(got[i], want)


@pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (4, 2), (4, 1)])
def test_a_list_of_trajectories_of_a_vector_model_matches_lone_calls(n, m):
    # a batched product may round differently from a lone matvec when n > 1
    rng = np.random.default_rng(n * 100 + m * 10)
    model = lgss.random_stable_model(rng, n=n, m=m)
    trajs = [lgss.simulate(model, 25, rng) for _ in range(5)]
    batched, lone = _filter_rows(model, trajs)
    for i, result in enumerate(lone):
        for got, want in zip(_flat(batched), result):
            assert np.max(np.abs(got[i] - want), initial=0.0) <= \
                1e-12 * max(1.0, np.max(np.abs(want), initial=0.0))


def test_a_nan_observation_in_one_trajectory_fails_the_batch():
    rng = np.random.default_rng(19)
    model = lgss.random_stable_model(rng, n=2, m=1)
    trajs = [lgss.simulate(model, 8, rng) for _ in range(3)]
    y = trajs[1].y.copy()
    y[3] = np.nan
    trajs[1] = lgss.Trajectory(x=trajs[1].x, y=y)
    for arg in (trajs, [trajs[1]]):
        with pytest.raises(ValueError, match="non-finite filter state"):
            lgss.run_filter(model, arg)


def test_trajectories_of_unequal_length_are_refused():
    rng = np.random.default_rng(23)
    model = scalar_model()
    trajs = [lgss.simulate(model, T, rng) for T in (8, 9)]
    for arg in (trajs, []):
        with pytest.raises(ValueError, match="equal length"):
            lgss.run_filter(model, arg)


# ---------------------------------------------------------------------------
# properties of one predict/update step on random models
# ---------------------------------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)
DIMS = {"n": st.integers(1, 4), "m": st.integers(1, 3)}


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, **DIMS)
def test_one_step_is_symmetric_psd_shrinking_and_matches_the_oracle(seed, n, m):
    rng = np.random.default_rng(seed)
    model = lgss.random_stable_model(rng, n=n, m=m)
    traj = lgss.simulate(model, 1, rng)
    prior_mean, prior_cov = lgss.kalman_predict(model.mu0, model.P0, model)
    mean, cov = lgss.kalman_update(prior_mean, prior_cov, traj.y[0], model)
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() >= -1e-12 * max(1.0, np.abs(cov).max())
    # the update never inflates the covariance: prior - posterior is PSD
    gap = np.linalg.eigvalsh(prior_cov - cov).min()
    assert gap >= -1e-12 * max(1.0, np.abs(prior_cov).max())
    oracle = lgss.batch_posterior_oracle(model, traj, 1)
    assert np.max(np.abs(mean - oracle.mean)) < 1e-8
    assert np.max(np.abs(cov - oracle.cov)) < 1e-8


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, **DIMS, in_cov=st.booleans(), update=st.booleans(),
       at=st.integers(0, 15))
def test_a_nan_anywhere_in_the_state_raises(seed, n, m, in_cov, update, at):
    model = lgss.random_stable_model(np.random.default_rng(seed), n=n, m=m)
    mean, cov = model.mu0.copy(), model.P0.copy()
    bad = cov if in_cov else mean
    bad.flat[at % bad.size] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        if update:
            lgss.kalman_update(mean, cov, np.zeros(m), model)
        else:
            lgss.kalman_predict(mean, cov, model)


# ---------------------------------------------------------------------------
# batch joint-Gaussian oracle
# ---------------------------------------------------------------------------


def test_batch_oracle_t0_is_prior():
    rng = np.random.default_rng(11)
    model = lgss.random_stable_model(rng, n=2, m=1)
    traj = lgss.simulate(model, 5, rng)
    post = lgss.batch_posterior_oracle(model, traj, 0)
    assert np.allclose(post.mean, model.mu0)
    assert np.allclose(post.cov, model.P0)


def test_batch_oracle_agrees_with_recursive_filter():
    rng = np.random.default_rng(12)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        model = lgss.random_stable_model(rng, n=n, m=m)
        T = int(rng.integers(5, 21))
        traj = lgss.simulate(model, T, rng)
        ((means,), (covs,)), _ = lgss.run_filter(model, [traj])
        for t in (1, max(1, T // 2), T):
            oracle = lgss.batch_posterior_oracle(model, traj, t)
            assert np.max(np.abs(means[t - 1] - oracle.mean)) < 1e-8
            assert np.max(np.abs(covs[t - 1] - oracle.cov)) < 1e-8


def test_batch_oracle_sharp_observation_limit():
    model = lgss.LGSSModel(A=np.eye(2), C=np.eye(2),
                           Q=0.1 * np.eye(2), R=1e-12 * np.eye(2),
                           mu0=np.zeros(2), P0=np.eye(2))
    traj = lgss.simulate(model, 4, np.random.default_rng(13))
    post = lgss.batch_posterior_oracle(model, traj, 4)
    assert np.max(np.abs(post.mean - traj.y[3])) < 1e-5


def _per_block_oracle(model, trajectory, t, gain=lgss._conditioning_gain):
    """``batch_posterior_oracle`` as it was built block by block: the reference
    the stacked construction must match bit for bit. ``gain`` solves the
    conditioning system, by default with the module's own solve."""
    n, m = model.n, model.m
    means = [model.mu0]
    for s in range(t):
        means.append(model.A @ means[-1])
    cov = np.zeros(((t + 1) * n, (t + 1) * n))

    def blk(i, j):
        return (slice(i * n, (i + 1) * n), slice(j * n, (j + 1) * n))

    cov[blk(0, 0)] = model.P0
    for s in range(t):
        prev = cov[blk(s, s)]
        cov[blk(s + 1, s + 1)] = model.A @ prev @ model.A.T + model.Q
        for r in range(s + 1):
            c = cov[blk(r, s)] @ model.A.T
            cov[blk(r, s + 1)] = c
            cov[blk(s + 1, r)] = c.T
    mean_y = np.concatenate([model.C @ means[s] for s in range(1, t + 1)])
    cov_xx = cov[blk(t, t)]
    cov_xy = np.hstack([cov[blk(t, s)] @ model.C.T for s in range(1, t + 1)])
    cov_yy = np.zeros((t * m, t * m))
    for s in range(1, t + 1):
        for r in range(1, t + 1):
            block = model.C @ cov[blk(s, r)] @ model.C.T
            if s == r:
                block = block + model.R
            cov_yy[(s - 1) * m : s * m, (r - 1) * m : r * m] = block
    gain = gain(cov_xy, cov_yy)
    mean_post = means[t] + gain @ (trajectory.y[:t].reshape(-1) - mean_y)
    return GaussianDistribution(mean_post, cov_xx - gain @ cov_xy.T)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2])
def test_batch_oracle_equals_the_per_block_construction_bit_for_bit(n, m):
    rng = np.random.default_rng(100 * n + m)
    for T in (3, 24, 50):
        model = lgss.random_stable_model(rng, n=n, m=m)
        traj = lgss.simulate(model, T, rng)
        for t in sorted({1, 2, T // 2, T}):
            got = lgss.batch_posterior_oracle(model, traj, t)
            want = _per_block_oracle(model, traj, t)
            assert got.mean.tobytes() == want.mean.tobytes(), (T, t)
            assert got.cov.tobytes() == want.cov.tobytes(), (T, t)


def _scipy_gain(cov_xy, cov_yy):
    from scipy.linalg import cho_factor, cho_solve

    return cho_solve(cho_factor((cov_yy + cov_yy.T) / 2.0, lower=True), cov_xy.T).T


def test_cholesky_solve_agrees_with_scipy_cho_solve():
    # sizes on both sides of the 64-row blocks, one and several right-hand sides
    from scipy.linalg import cho_solve

    rng = np.random.default_rng(31)
    for n in (1, 3, 64, 65, 100, 150):
        root = rng.standard_normal((n, n))
        chol = np.linalg.cholesky(root @ root.T + 0.5 * np.eye(n))
        for b in (rng.standard_normal(n), rng.standard_normal((n, 4))):
            got, want = lgss._cho_solve(chol, b), cho_solve((chol, True), b)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n


def test_batch_oracle_agrees_with_scipy_cho_solve():
    # scipy is a test-only reference: the per-block oracle conditioned by
    # its Cholesky solve, against the module's own
    rng = np.random.default_rng(29)
    for n, m in ((1, 1), (2, 1), (3, 2), (4, 2)):
        model = lgss.random_stable_model(rng, n=n, m=m)
        traj = lgss.simulate(model, 100, rng)
        for t in (1, 2, 25, 100):
            got = lgss.batch_posterior_oracle(model, traj, t)
            want = _per_block_oracle(model, traj, t, gain=_scipy_gain)
            for a, b in ((got.mean, want.mean), (got.cov, want.cov)):
                assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b))), (n, m, t)


def _sample_gaussian(rng, cov, size):
    """size draws of N(0, cov) through its eigen root; none for an all-zero cov."""
    if not cov.any():
        return np.zeros((size, cov.shape[0]))
    eigval, eigvec = np.linalg.eigh(cov)
    root = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    return rng.standard_normal((size, cov.shape[0])) @ root.T


def _per_step_simulate(model, T, rng):
    """``simulate`` with each observation computed inside the state loop."""
    x = model.mu0 + _sample_gaussian(rng, model.P0, 1)[0]
    w = _sample_gaussian(rng, model.Q, T)
    v = _sample_gaussian(rng, model.R, T)
    xs, ys = np.empty((T, model.n)), np.empty((T, model.m))
    for t in range(T):
        x = model.A @ x + w[t]
        xs[t] = x
        ys[t] = model.C @ x + v[t]
    return xs, ys


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_simulate_equals_the_per_step_loop_bit_for_bit(n, m):
    rng = np.random.default_rng(10 * n + m)
    for k in range(3):
        model = lgss.random_stable_model(rng, n=n, m=m)
        for T in (0, 1, 60):
            seed = int(rng.integers(2**32))
            traj = lgss.simulate(model, T, np.random.default_rng(seed))
            xs, ys = _per_step_simulate(model, T, np.random.default_rng(seed))
            assert traj.x.tobytes() == xs.tobytes(), (k, T)
            assert traj.y.tobytes() == ys.tobytes(), (k, T)
            assert traj.y.shape == (T, m)


# ---------------------------------------------------------------------------
# long-run structure
# ---------------------------------------------------------------------------


def test_innovation_whiteness():
    rng = np.random.default_rng(14)
    model = lgss.random_stable_model(rng, n=2, m=1)
    traj = lgss.simulate(model, 10_000, rng)
    mean, cov = model.mu0, model.P0
    innovations = []
    for t in range(traj.T):
        pred = references.predictive_density(mean, cov, model)
        innovations.append((traj.y[t] - pred.mean) / math.sqrt(pred.cov[0, 0]))
        prior_mean, prior_cov = lgss.kalman_predict(mean, cov, model)
        mean, cov = lgss.kalman_update(prior_mean, prior_cov, traj.y[t], model)
    e = np.array(innovations)[:, 0]
    e = e - e.mean()
    rho1 = np.dot(e[:-1], e[1:]) / np.dot(e, e)
    assert abs(rho1) < 0.03


def test_joseph_form_minimum_eigenvalue():
    rng = np.random.default_rng(15)
    model = lgss.random_stable_model(rng, n=3, m=2)
    traj = lgss.simulate(model, 10_000, rng)
    mean, cov = model.mu0, model.P0
    min_eig = np.inf
    for t in range(traj.T):
        prior_mean, prior_cov = lgss.kalman_predict(mean, cov, model)
        mean, cov = lgss.kalman_update(prior_mean, prior_cov, traj.y[t], model)
        min_eig = min(min_eig, np.linalg.eigvalsh(cov).min())
    assert min_eig >= -1e-12


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["A", "C", "Q", "R", "mu0", "P0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_model_refuses_non_finite_entries_by_name(name, bad):
    fields = dict(A=[[0.9]], C=[[1.0]], Q=[[0.1]], R=[[0.1]],
                  mu0=[0.0], P0=[[1.0]])
    fields[name] = np.full(np.shape(fields[name]), bad)
    with pytest.raises(ValueError, match=rf"^{name} has non-finite entries$"):
        lgss.LGSSModel(**fields)

