"""Tests for the separating-filter module: protocol, objective, exact oracles."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from ibsep import info, lgss, nn, seprep

import references


def scalar_lgss():
    return lgss.LGSSModel(A=[[0.9]], C=[[1.0]],
                          Q=[[0.1]], R=[[0.1]], mu0=[0.0], P0=[[1.0]])


def two_state_hmm():
    return seprep.FiniteHMM(trans=[[0.8, 0.2], [0.3, 0.7]],
                            emit=[[0.9, 0.1], [0.2, 0.8]],
                            init=[0.6, 0.4])


def small_model(rng_seed=3):
    return seprep.init_sep_filter(4, 1, rng=np.random.default_rng(rng_seed))


# ---------------------------------------------------------------------------
# model structure and the filtering protocol
# ---------------------------------------------------------------------------


def test_update_network_consumes_only_fixed_size_state():
    # the statistic has fixed width 2d; the update sees (phi, y), never
    # the growing history — that is the structural point of the filter
    model = seprep.init_sep_filter(3, 2, rng=np.random.default_rng(0))
    assert model.update.widths == (2 * 3 + 2, *seprep.HIDDEN, 2 * 3)
    assert model.head.widths == (3, *seprep.HIDDEN, 2 * 2)
    phi = model.initial_phi()
    rng = np.random.default_rng(1)
    for t in range(50):
        phi = model.step(phi, rng.standard_normal(2), t)
        assert phi.shape == (6,)


def test_parameters_keep_their_names_and_order():
    # a sweep stacks the runs' parameters by name, and init draws them in
    # this order: the update network first, then the one decoder head
    model = seprep.init_sep_filter(4, 1, rng=np.random.default_rng(0))
    assert list(model.params()) == ["phi0", "upd.W0", "upd.b0", "upd.W1", "upd.b1",
                                    "dec0.W0", "dec0.b0", "dec0.W1", "dec0.b1"]
    again = seprep.init_sep_filter(4, 1, rng=np.random.default_rng(0))
    update = nn.init_mlp(list(model.update.widths), ["relu", "identity"],
                         np.random.default_rng(0))
    assert all(np.array_equal(a, b) for a, b in zip(again.update.weights, update.weights))


def test_initial_phi_is_the_reference_prior():
    model = small_model()
    phi0 = model.initial_phi()
    assert np.array_equal(phi0, np.zeros(8))


def test_step_matches_manual_network_evaluation():
    model = seprep.init_sep_filter(2, 1, rng=np.random.default_rng(5))
    params = model.params()
    w0, b0 = params["upd.W0"], params["upd.b0"]
    w1, b1 = params["upd.W1"], params["upd.b1"]
    phi = np.array([0.3, -0.1, 0.2, 0.05])
    y = np.array([0.7])
    inp = np.concatenate([phi, y])
    expect = np.maximum(inp @ w0 + b0, 0.0) @ w1 + b1
    got = model.step(phi, y)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14)


def test_step_is_deterministic():
    model = small_model()
    phi = np.full(8, 0.25)
    a = model.step(phi, [0.1])
    b = model.step(phi, [0.1])
    assert np.array_equal(a, b)


def test_step_reports_time_index_on_nonfinite_state():
    model = small_model()
    params = model.params()
    params["upd.b1"] = params["upd.b1"] + np.inf
    broken = model.with_params(params)
    with pytest.raises(FloatingPointError, match="step 7"):
        broken.step(broken.initial_phi(), [0.0], t=7)


# ---------------------------------------------------------------------------
# predictive distributions
# ---------------------------------------------------------------------------


def test_prediction_without_rng_collapses_to_posterior_mean():
    model = small_model()
    phi = np.array([0.5, -0.2, 0.1, 0.4, -1.0, -0.5, -1.5, -0.2])
    params = model.predict(phi, samples=5, rng=None)
    assert params["component_means"].shape == (5, 1)
    # every draw is the posterior mean; rows agree to a BLAS ulp
    assert np.ptp(params["component_means"]) < 1e-14
    direct = nn.forward(model.head, phi[:4][None, :]).value
    np.testing.assert_allclose(params["component_means"][0], direct[0, :1],
                               rtol=1e-12, atol=1e-14)


def test_mixture_moments_match_law_of_total_variance():
    model = small_model()
    phi = np.array([0.5, -0.2, 0.1, 0.4, -0.3, -0.6, -0.4, -0.8])
    params = model.predict(phi, samples=64, rng=[np.random.default_rng(2)])
    means = params["component_means"]
    variances = params["component_vars"]
    mean = means.mean(axis=0)
    var = (variances + means**2).mean(axis=0) - mean**2
    np.testing.assert_allclose(params["mean"], mean, rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.diag(params["cov"]), var, rtol=1e-12, atol=1e-14)


def test_predictive_nll_single_gaussian_is_exact():
    mean = np.array([0.4, -1.2])
    cov = np.array([[0.5, 0.1], [0.1, 0.3]])
    params = {"mean": mean, "cov": cov, "component_means": None}
    z = np.array([0.1, -0.9])
    expect = -info.gaussian_logpdf(mean, cov, z)
    assert seprep.predictive_nll(params, z) == pytest.approx(expect, abs=1e-12)


def test_predictive_nll_mixture_matches_direct_sum():
    means = np.array([[0.0], [1.0], [-0.5]])
    variances = np.array([[0.2], [0.5], [1.0]])
    params = {"mean": means.mean(0), "cov": np.eye(1), "component_means": means,
              "component_vars": variances}
    z = 0.3
    dens = [math.exp(-0.5 * (z - m) ** 2 / v) / math.sqrt(2 * math.pi * v)
            for (m,), (v,) in zip(means, variances)]
    expect = -math.log(sum(dens) / 3.0)
    assert seprep.predictive_nll(params, [z]) == pytest.approx(expect, abs=1e-12)


def test_logsumexp_equals_scipy_bit_for_bit():
    # scipy is a test-only reference for the transcription of its order
    from scipy.special import logsumexp

    rng = np.random.default_rng(41)
    ties = np.round(rng.normal(0.0, 2.0, (200, 6)))
    ties[:50, 1] = ties[:50, 0]
    with_neg_inf = rng.normal(0.0, 30.0, (200, 5))
    with_neg_inf[rng.random((200, 5)) < 0.3] = -np.inf
    with_neg_inf[:3] = -np.inf  # rows with no finite entry
    cases = [rng.normal(0.0, scale, (300, 7)) for scale in (1e-3, 1.0, 30.0, 800.0)]
    cases += [ties, with_neg_inf, rng.normal(0.0, 5.0, (100, 1)),
              rng.normal(0.0, 5.0, (3, 4, 9)), np.array([-np.inf]), np.array([2.5])]
    for a in cases:
        got, want = seprep._logsumexp(a), np.asarray(logsumexp(a, axis=-1))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_mc_predictive_stabilizes_for_sharp_posteriors():
    model = small_model()
    phi = np.array([0.5, -0.2, 0.1, 0.4, -2.5, -3.0, -2.8, -3.5])
    z = np.array([0.3])
    p256 = model.predict(phi, samples=256, rng=[np.random.default_rng(11)])
    p512 = model.predict(phi, samples=512, rng=[np.random.default_rng(12)])
    a = seprep.predictive_nll(p256, z)
    b = seprep.predictive_nll(p512, z)
    assert abs(a - b) < 1e-3


# ---------------------------------------------------------------------------
# the objective
# ---------------------------------------------------------------------------


def test_loss_is_affine_in_beta():
    model = small_model()
    rng = np.random.default_rng(0)
    ys = rng.standard_normal((3, 10, 1))
    parts = {}
    for beta in (0.0, 1.0, 2.5):
        cfg = seprep.DynIBConfig(beta=beta, traj_len=10, steps=1, batch=3, seed=0)
        parts[beta] = references.dyn_ibl_loss(model, ys, cfg)
    assert parts[0.0]["total"] == parts[0.0]["ce_term"]
    for beta in (1.0, 2.5):
        assert parts[beta]["ce_term"] == parts[0.0]["ce_term"]
        expect = parts[beta]["ce_term"] + beta * parts[beta]["info_term"]
        assert parts[beta]["total"] == pytest.approx(expect, rel=1e-15)


def test_constant_representation_carries_zero_information():
    model = small_model()
    params = model.params()
    for name in list(params):
        if name.startswith("upd.") or name == "phi0":
            params[name] = np.zeros_like(params[name])
    frozen = model.with_params(params)
    ys = np.random.default_rng(1).standard_normal((2, 8, 1))
    cfg = seprep.DynIBConfig(beta=1.0, traj_len=8, steps=1, batch=2, seed=0)
    out = references.dyn_ibl_loss(frozen, ys, cfg)
    # phi stays at zero => q(x|phi) = N(0, I) at every step
    assert out["info_term"] == 0.0


@pytest.mark.parametrize("traj_len", [0, -3])
def test_config_refuses_trajectories_without_a_step(traj_len):
    with pytest.raises(ValueError, match="traj_len"):
        seprep.DynIBConfig(beta=0.0, traj_len=traj_len, steps=1, batch=1, seed=0)


def _one_run_graph(model, ys, beta, eps):
    """Entry 0 of the (total, ce, info) nodes of a one-run training graph."""
    nodes = nn.parameters(nn.stack_runs([model.params()]))
    total, ce, kl = seprep._sep_loss_graph(model, nodes, ys[None], eps[None],
                                           np.array([beta]))
    return total[0], ce[0], kl[0]


def _graph_case():
    """A small filter with a moved phi0 and a batch whose length T 19 is not
    a multiple of TBPTT, so the last window is a partial one."""
    T, B = 19, 3
    rng = np.random.default_rng(0)
    model = seprep.init_sep_filter(3, 1, rng=rng)
    params = model.params()
    params["phi0"] = rng.normal(0.0, 0.5, size=params["phi0"].shape)
    return model.with_params(params), rng.standard_normal((B, T, 1))


def test_graph_objective_matches_array_reference():
    # with every posterior draw at zero the graph and the per-step array
    # reference evaluate the same objective, term for term
    model, ys = _graph_case()
    B, T = ys.shape[0], ys.shape[1]
    total, ce, kl = _one_run_graph(model, ys, 0.7, np.zeros((T, B, 3)))
    cfg = seprep.DynIBConfig(beta=0.7, traj_len=T, steps=1, batch=B, seed=0, rep_dim=3)
    ref = references.dyn_ibl_loss(model, ys, cfg, rng=None)
    assert abs(float(total.value) - ref["total"]) < 1e-12
    assert abs(float(ce.value) - ref["ce_term"]) < 1e-12
    assert abs(float(kl.value) - ref["info_term"]) < 1e-12


def test_graph_uses_each_draw_at_its_step():
    # eps_draws[t, b] is the draw of trajectory b at step t; the reference
    # walks the steps one trajectory at a time
    model, ys = _graph_case()
    B, T = ys.shape[0], ys.shape[1]
    eps = np.random.default_rng(5).standard_normal((T, B, 3))
    _, ce, _ = _one_run_graph(model, ys, 0.7, eps)
    nll = 0.0
    for b in range(B):
        phi = model.initial_phi()
        for t in range(T):
            mu, sigma = model.posterior_params(phi)
            mean, log_std = nn.forward(model.head, mu + sigma * eps[t, b]).value
            log_std = np.clip(log_std, nn.LOG_STD_MIN, nn.LOG_STD_MAX)
            nll += (0.5 * ((ys[b, t, 0] - mean) / math.exp(log_std)) ** 2
                    + log_std + 0.5 * seprep.LOG2PI)
            phi = model.step(phi, ys[b, t], t)
    assert abs(float(ce.value) - nll / (B * T)) < 1e-12


def test_graph_gradients_match_finite_differences():
    # gradients through the recurrence (T <= TBPTT, so nothing truncates),
    # the stacked KL and the decoder, phi0 included
    rng = np.random.default_rng(21)
    T, B = 5, 2
    model = seprep.init_sep_filter(2, 1, rng=rng)
    params = model.params()
    for name in params:
        # jittered biases and phi0 keep every ReLU off its kink
        if name == "phi0" or ".b" in name:
            params[name] = rng.normal(0.0, 0.3, size=params[name].shape)
    ys = rng.standard_normal((B, T, 1))
    eps = rng.standard_normal((T, B, 2))

    def loss(p):
        return _one_run_graph(model.with_params(p), ys, 0.5, eps)[0]

    grads = nn.backward(loss(params))
    assert set(grads) == set(params)
    step = 1e-4
    for name, value in params.items():
        fd = np.zeros_like(value)
        flat, gflat = value.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(loss(params).value)
            flat[i] = orig - step
            lo = float(loss(params).value)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        denom = max(1e-8, float(np.max(np.abs(grads[name]))),
                    float(np.max(np.abs(fd))))
        assert float(np.max(np.abs(grads[name] - fd))) / denom < 1e-5, name


def test_battery_shaped_step_builds_one_recurrence_node():
    # the seprep battery's training step: 9 runs, batch 16, T 40, d 4; the
    # recurrence is one scan node, so the graph no longer grows with T
    R, B, T, d = 9, 16, 40, 4
    rng = np.random.default_rng(0)
    models = [seprep.init_sep_filter(d, 1, rng=rng) for _ in range(R)]
    nodes = nn.parameters(nn.stack_runs([m.params() for m in models]))
    total, _, _ = seprep._sep_loss_graph(
        models[0], nodes, rng.standard_normal((R, B, T, 1)),
        rng.standard_normal((R, T, B, d)), np.full(R, 0.1))
    order = nn._toposort(total.sum())  # the graph fit differentiates
    assert len(order) <= 60
    assert [node.op for node in order].count("scan") == 1


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_training_is_deterministic():
    src = seprep.lgss_source(scalar_lgss(), 12)
    cfg = seprep.DynIBConfig(beta=1e-2, traj_len=12, steps=25, batch=4, seed=9,
                             rep_dim=3, learning_rate=0.02)
    a = seprep.train_filter(src, [cfg])
    b = seprep.train_filter(src, [cfg])
    assert a.curve == b.curve
    for key, value in a.runs[0].params().items():
        assert np.array_equal(value, b.runs[0].params()[key])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_training_reduces_prediction_loss(seed):
    src = seprep.lgss_source(scalar_lgss(), 40)
    cfg = seprep.DynIBConfig(beta=1e-3, traj_len=40, steps=300, batch=16,
                             seed=seed, rep_dim=4, learning_rate=0.03)
    curve = seprep.train_filter(src, [cfg]).curves[0]
    first, last = curve[0]["loss"], curve[-1]["loss"]
    assert last < 0.7 * first


def test_training_takes_the_observation_width_from_the_source():
    model = lgss.random_stable_model(np.random.default_rng(4), n=3, m=2)
    cfg = seprep.DynIBConfig(beta=1e-2, traj_len=20, steps=3, batch=4, seed=1)
    trained = seprep.train_filter(seprep.lgss_source(model, 20), [cfg])
    filt = trained.runs[0]
    assert (filt.obs_dim, filt.update.widths[0], filt.head.widths[-1]) == (2, 10, 4)
    assert all(math.isfinite(row["loss"]) for row in trained.curves[0])


def test_training_divergence_reports_the_step():
    src = seprep.lgss_source(scalar_lgss(), 40)
    cfg = seprep.DynIBConfig(beta=1e-3, traj_len=40, steps=200, batch=8,
                             seed=0, rep_dim=4, learning_rate=5.0)
    with pytest.raises(nn.TrainingDiverged) as err:
        seprep.train_filter(src, [cfg])
    assert isinstance(err.value.step, int)
    assert 0 <= err.value.step < 200


def _sweep_configs(betas_seeds, steps=12, learning_rate=0.02):
    def schedule(k):  # one schedule object, shared by every run
        return learning_rate

    return [seprep.DynIBConfig(beta=beta, traj_len=12, steps=steps, batch=4,
                               seed=seed, rep_dim=3, learning_rate=schedule)
            for beta, seed in betas_seeds]


def test_a_sweep_trains_each_run_bit_for_bit_as_a_lone_call():
    src = seprep.lgss_source(scalar_lgss(), 12)
    configs = _sweep_configs([(1e-1, 4), (1e-2, 5), (1e-3, 4)])
    sweep = seprep.train_filter(src, configs)
    assert len(sweep.curve) == 12 and len(sweep.runs) == len(sweep.curves) == 3
    for r, cfg in enumerate(configs):
        lone = seprep.train_filter(src, [cfg])
        assert sweep.curves[r] == lone.curves[0]
        assert [row["loss"][r] for row in sweep.curve] == \
            [row["loss"] for row in lone.curves[0]]
        for key, value in lone.runs[0].params().items():
            got = sweep.runs[r].params()[key]
            assert got.shape == value.shape and np.array_equal(got, value), key


def test_a_sweep_refuses_configs_that_differ_beyond_beta_and_seed():
    src = seprep.lgss_source(scalar_lgss(), 12)
    a, b = _sweep_configs([(1e-1, 4), (1e-2, 5)])
    # each run steps at its own rate
    seprep.train_filter(src, [a, dataclasses.replace(b, learning_rate=0.01)])
    for other in (dataclasses.replace(b, momentum=0.5),
                  dataclasses.replace(b, batch=5)):
        with pytest.raises(ValueError, match="beta, seed and learning_rate"):
            seprep.train_filter(src, [a, other])
    with pytest.raises(ValueError, match="beta, seed and learning_rate"):
        seprep.train_filter(src, [])
    with pytest.raises(ValueError, match="list or tuple of configs, got DynIBConfig"):
        seprep.train_filter(src, a)


def test_a_diverged_sweep_run_names_its_beta_seed_and_step():
    # beta = 100 drives this run's loss to overflow within a few steps,
    # while the other runs of the sweep stay finite
    src = seprep.lgss_source(scalar_lgss(), 12)
    configs = _sweep_configs([(1e-3, 1), (100.0, 3), (1e-2, 2)], steps=30,
                             learning_rate=0.05)
    with pytest.raises(nn.TrainingDiverged) as lone:
        seprep.train_filter(src, [configs[1]])
    with pytest.raises(nn.TrainingDiverged) as err:
        seprep.train_filter(src, configs)
    assert lone.value.step > 0
    assert err.value.step == lone.value.step
    assert err.value.run == 1
    assert "beta=100.0" in str(err.value) and "seed=3" in str(err.value)
    assert f"step {lone.value.step}" in str(err.value)


def test_lgss_source_shapes():
    src = seprep.lgss_source(scalar_lgss(), 15)
    assert src(4, np.random.default_rng(0)).shape == (4, 15, 1)


@pytest.mark.parametrize("which", ["scalar", "random", "noiseless"])
def test_lgss_source_matches_per_trajectory_simulation(which):
    if which == "scalar":
        model = scalar_lgss()
    elif which == "random":
        model = lgss.random_stable_model(np.random.default_rng(4), n=3, m=2)
    else:  # Q = 0: the process noise draws nothing
        model = lgss.LGSSModel(A=[[0.8, 0.1], [0.0, 0.7]],
                               C=[[1.0, 0.5]], Q=np.zeros((2, 2)), R=[[0.2]],
                               mu0=[0.3, -0.1], P0=np.eye(2))
    T, batch = 9, 5
    src = seprep.lgss_source(model, T)
    rng_batched = np.random.default_rng(17)
    rng_loop = np.random.default_rng(17)
    for _ in range(3):
        ys = src(batch, rng_batched)
        trajs = [lgss.simulate(model, T, rng_loop) for _ in range(batch)]
        assert np.array_equal(ys, np.stack([tr.y for tr in trajs]))


@pytest.mark.parametrize("which", ["scalar", "random", "noiseless"])
def test_lgss_source_draws_a_sweep_like_its_lone_calls(which):
    models = {
        "scalar": scalar_lgss,
        "random": lambda: lgss.random_stable_model(np.random.default_rng(4), n=3, m=2),
        "noiseless": lambda: lgss.LGSSModel(
            A=[[0.8, 0.1], [0.0, 0.7]], C=[[1.0, 0.5]],
            Q=np.zeros((2, 2)), R=[[0.2]], mu0=[0.3, -0.1], P0=np.eye(2)),
    }
    model = models[which]()
    T, batch, seeds = 9, 5, (17, 3, 8)
    src = seprep.lgss_source(model, T)
    sweep_rngs = [np.random.default_rng(s) for s in seeds]
    lone_rngs = [np.random.default_rng(s) for s in seeds]
    for _ in range(3):
        ys = src(batch, sweep_rngs)
        assert ys.shape == (3, batch, T, model.m)
        for r, rng in enumerate(lone_rngs):
            assert ys[r].tobytes() == src(batch, rng).tobytes()


def test_a_source_of_the_wrong_length_is_refused():
    short = seprep.lgss_source(scalar_lgss(), 11)  # the configs ask for 12 steps
    with pytest.raises(ValueError, match="wrong length"):
        seprep.train_filter(short, _sweep_configs([(1e-1, 4), (1e-2, 5)]))


def test_training_graph_size_stays_stacked():
    # battery-shaped step: the per-step loop holds only the recurrence,
    # the KL and the decoder run once over the stacked statistics
    T, B = 40, 16
    model = seprep.init_sep_filter(4, 1, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    ys = rng.standard_normal((B, T, 1))
    eps = rng.standard_normal((T, B, 4))
    total, _, _ = _one_run_graph(model, ys, 1e-3, eps)
    assert len(nn._toposort(total)) <= 220


# ---------------------------------------------------------------------------
# the Kalman embedding
# ---------------------------------------------------------------------------


def test_kalman_wrapper_follows_the_protocol():
    filt = seprep.KalmanSepFilter(scalar_lgss())
    phi = filt.initial_phi()
    params = filt.predict(phi)
    assert params["component_means"] is None  # exact, not Monte Carlo
    phi = filt.step(phi, [0.3], 0)


def test_batched_step_and_predict_match_lone_statistics():
    model = seprep.init_sep_filter(3, 1, rng=np.random.default_rng(6))
    rng = np.random.default_rng(7)
    phis = rng.normal(0.0, 0.5, size=(4, 6))
    ys = rng.standard_normal((4, 1))
    stepped = model.step(phis, ys, 0)
    batch = model.predict(phis, samples=5,
                          rng=[np.random.default_rng(i) for i in range(4)])
    for i in range(4):
        np.testing.assert_allclose(stepped[i], model.step(phis[i], ys[i]),
                                   rtol=0, atol=1e-14)
        lone = model.predict(phis[i], samples=5, rng=[np.random.default_rng(i)])
        for key in ("mean", "cov", "component_means", "component_vars"):
            np.testing.assert_allclose(batch[key][i], lone[key], rtol=1e-13,
                                       atol=1e-14)
    for lgss_model in (scalar_lgss(),
                       lgss.random_stable_model(np.random.default_rng(5), n=2, m=1)):
        kalman = seprep.KalmanSepFilter(lgss_model)
        phis = _kalman_rows(kalman, rng)
        ys = rng.standard_normal((5, lgss_model.m))
        stepped = kalman.step(phis, ys)
        batch = kalman.predict(phis)
        for i in range(5):
            assert stepped[i].tobytes() == kalman.step(phis[i], ys[i]).tobytes()
            lone = kalman.predict(phis[i])
            assert batch["mean"][i].tobytes() == lone["mean"].tobytes()
            assert batch["cov"][i].tobytes() == lone["cov"].tobytes()


def _kalman_rows(kalman, rng):
    """Five statistics in three covariance groups, the groups interleaved."""
    n, m = kalman.model.n, kalman.model.m
    start = kalman.initial_phi()
    moved = start.copy()
    moved[:n] += rng.standard_normal(n)  # same covariance, another mean
    once = [kalman.step(start, rng.standard_normal(m))
            for _ in range(2)]  # same covariance, since it depends on no data
    twice = kalman.step(once[0], rng.standard_normal(m))
    return np.stack([once[0], start, twice, moved, once[1]])


def test_a_kalman_step_makes_one_call_per_distinct_covariance(monkeypatch):
    kalman = seprep.KalmanSepFilter(lgss.random_stable_model(np.random.default_rng(2)))
    phis = _kalman_rows(kalman, np.random.default_rng(0))
    calls = {"kalman_predict": 0, "kalman_update": 0}
    for name in calls:
        def counted(*args, _real=getattr(lgss, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(lgss, name, counted)
    kalman.step(phis, np.zeros((5, 1)))
    assert calls == {"kalman_predict": 3, "kalman_update": 3}
    kalman.predict(phis)
    assert calls == {"kalman_predict": 6, "kalman_update": 3}
    # an evaluation's rows share one covariance: one call per time step
    seprep.evaluate_vs_kalman(kalman, kalman.model, T=7, num_traj=4, seed=1)
    assert calls == {"kalman_predict": 6 + 14, "kalman_update": 3 + 7}


def _per_step_reference(model, lgss_model, T, num_traj, seed, samples):
    """The per-trajectory, per-step loop that scores each row on its own."""
    rows = []
    for child in np.random.SeedSequence(seed).spawn(num_traj):
        sim_ss, eval_ss = child.spawn(2)
        traj = lgss.simulate(lgss_model, T, np.random.default_rng(sim_ss))
        eval_rng = np.random.default_rng(eval_ss)
        _, ((pred_means,), (pred_covs,)) = lgss.run_filter(lgss_model, [traj])
        phi = model.initial_phi()
        for t in range(T):
            params = model.predict(phi, samples, [eval_rng])
            rows.append((
                seprep.predictive_nll(params, traj.y[t]),
                -info.gaussian_logpdf(pred_means[t], pred_covs[t], traj.y[t]),
                info.kl_gaussian(pred_means[t], pred_covs[t],
                                 params["mean"], params["cov"])))
            phi = model.step(phi, traj.y[t], t)
    return rows


@pytest.mark.parametrize("which", ["learned", "kalman"])
def test_batched_evaluation_scores_every_row_like_the_per_step_loop(which):
    lgss_model = lgss.random_stable_model(np.random.default_rng(3), n=2, m=2)
    if which == "learned":
        model = seprep.init_sep_filter(3, 2, rng=np.random.default_rng(8))
    else:
        model = seprep.KalmanSepFilter(lgss_model)
    T, num_traj, samples = 6, 4, 8
    out = seprep.evaluate_vs_kalman(model, lgss_model, T, num_traj, seed=11,
                                    samples=samples)
    reference = _per_step_reference(model, lgss_model, T, num_traj, 11, samples)
    assert len(out["records"]) == num_traj * T == len(reference)
    for record, (nll_learned, nll_kalman, kl) in zip(out["records"], reference):
        assert abs(record["nll_learned"] - nll_learned) < 1e-12
        assert abs(record["nll_kalman"] - nll_kalman) < 1e-12
        assert abs(record["kl"] - kl) < 1e-12
    assert [(r["traj_id"], r["t"]) for r in out["records"]] == \
        [(j, t) for j in range(num_traj) for t in range(T)]


def test_a_nan_head_fails_the_kalman_evaluation():
    # without a per-step eigvalsh check, a NaN predictive must still raise
    model = small_model()
    params = model.params()
    params["dec0.b1"] = params["dec0.b1"] + np.nan
    broken = model.with_params(params)
    with pytest.raises(ValueError, match="non-finite"):
        seprep.evaluate_vs_kalman(broken, scalar_lgss(), T=5, num_traj=3, seed=0,
                                  samples=4)


def test_kalman_embedding_is_exact():
    model = scalar_lgss()
    result = seprep.evaluate_vs_kalman(seprep.KalmanSepFilter(model), model,
                                       T=30, num_traj=10, seed=5)
    assert abs(result["gap"]) < 1e-9
    assert result["mean_kl"] < 1e-9


def test_untrained_filter_lags_the_kalman_oracle():
    model = scalar_lgss()
    raw = seprep.init_sep_filter(4, 1, rng=np.random.default_rng(0))
    result = seprep.evaluate_vs_kalman(raw, model, T=20, num_traj=5, seed=5,
                                       samples=32)
    assert result["gap"] > 0.05


def test_eval_records_schema():
    model = scalar_lgss()
    result = seprep.evaluate_vs_kalman(seprep.KalmanSepFilter(model), model,
                                       T=4, num_traj=2, seed=1)
    records = result["records"]
    assert len(records) == 8
    assert [(r["traj_id"], r["t"]) for r in records] == [(j, t) for j in range(2)
                                                         for t in range(4)]
    for r in records:
        assert list(r) == ["traj_id", "t", "nll_learned", "nll_kalman", "kl"]
    # the rows hold the values the summary averages
    for key, mean in (("nll_learned", "nll_learned"), ("nll_kalman", "nll_kalman"),
                      ("kl", "mean_kl")):
        assert np.mean([r[key] for r in records]) == result[mean], key


# ---------------------------------------------------------------------------
# finite HMMs and their exact references
# ---------------------------------------------------------------------------


def test_forward_update_matches_manual_bayes():
    hmm = two_state_hmm()
    belief = np.array([0.5, 0.5])
    pred = hmm.trans.T @ belief
    weighted = hmm.emit[:, 1] * pred
    expect = weighted / weighted.sum()
    np.testing.assert_allclose(hmm.forward_update(belief, 1), expect,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("init, message", [
    ([1.5, -0.5], "probability vector"), ([np.nan, 1.0], "non-finite")])
def test_hmm_rejects_a_bad_initial_distribution(init, message):
    with pytest.raises(ValueError, match=message):
        seprep.FiniteHMM(trans=[[0.8, 0.2], [0.3, 0.7]],
                         emit=[[0.9, 0.1], [0.2, 0.8]], init=init)


def test_hmm_rejects_non_finite_and_misshapen_tables():
    emit = [[0.9, 0.1], [0.2, 0.8]]
    with pytest.raises(ValueError, match="transition table has non-finite"):
        seprep.FiniteHMM(trans=[[np.nan, 1.0], [0.3, 0.7]], emit=emit,
                         init=[0.5, 0.5])
    with pytest.raises(ValueError, match="shape"):
        seprep.FiniteHMM(trans=[0.5, 0.5], emit=emit, init=[0.5, 0.5])


def test_hmm_is_the_one_action_pomdp():
    hmm = two_state_hmm()
    view = hmm.pomdp
    assert (view.n_states, view.n_actions, view.n_obs) == (2, 1, 2)
    assert np.array_equal(view.trans[:, 0, :], hmm.trans)
    assert np.array_equal(view.obs, hmm.emit)
    assert np.array_equal(view.b0, hmm.init)
    assert not np.any(view.reward)


def test_forward_update_rejects_impossible_observation():
    hmm = seprep.FiniteHMM(trans=[[0.5, 0.5], [0.5, 0.5]],
                           emit=[[1.0, 0.0], [1.0, 0.0]],
                           init=[0.5, 0.5])
    with pytest.raises(ValueError, match="zero probability"):
        hmm.forward_update(np.array([0.5, 0.5]), 1)


def test_next_obs_dist_chains_transitions():
    hmm = two_state_hmm()
    belief = np.array([0.3, 0.7])
    for k in range(3):
        state = belief.copy()
        for _ in range(k + 1):
            state = hmm.trans.T @ state
        np.testing.assert_allclose(hmm.next_obs_dist(belief, k),
                                   hmm.emit.T @ state, rtol=0, atol=1e-15)


def test_deterministic_chain_has_zero_entropy_bound():
    # cyclic deterministic transitions, identity emissions, point init:
    # every next observation is certain, so the per-step entropy is 0
    hmm = seprep.FiniteHMM(trans=[[0.0, 1.0], [1.0, 0.0]],
                           emit=[[1.0, 0.0], [0.0, 1.0]],
                           init=[1.0, 0.0])
    ref = seprep.hmm_exact_reference(hmm, 5)
    assert ref["entropy_lower_bound"] == pytest.approx(0.0, abs=1e-15)


def test_iid_chain_bound_is_the_marginal_entropy():
    # identical transition rows make observations iid with law pi @ emit
    pi = np.array([0.3, 0.7])
    hmm = seprep.FiniteHMM(trans=[pi, pi], emit=[[0.9, 0.1], [0.2, 0.8]],
                           init=[0.5, 0.5])
    marg = pi @ hmm.emit
    expect = -(marg * np.log(marg)).sum()
    ref = seprep.hmm_exact_reference(hmm, 6)
    assert ref["entropy_lower_bound"] == pytest.approx(expect, abs=1e-12)


def test_reference_agrees_with_string_enumeration():
    # independent route: (1/T) sum_t [H(y^{t+1}) - H(y^t)] from the joint
    # law of observation strings, never touching beliefs
    hmm = two_state_hmm()
    T = 6

    def string_prob(string):
        state = hmm.init.copy()
        p = 1.0
        for o in string:
            state = hmm.trans.T @ state
            joint = state * hmm.emit[:, o]
            p *= joint.sum()
            if p == 0.0:
                return 0.0
            state = joint / joint.sum()
        return p

    def prefix_entropy(length):
        h = 0.0
        for string in itertools.product(range(2), repeat=length):
            p = string_prob(string)
            if p > 0.0:
                h -= p * math.log(p)
        return h

    expect = sum(prefix_entropy(t + 1) - prefix_entropy(t) for t in range(T)) / T
    ref = seprep.hmm_exact_reference(hmm, T)
    assert ref["entropy_lower_bound"] == pytest.approx(expect, abs=1e-12)


def test_prefix_probabilities_sum_to_one_per_depth():
    ref = seprep.hmm_exact_reference(two_state_hmm(), 5)
    totals = {}
    for prefix, p in ref["prefix_probs"].items():
        totals[len(prefix)] = totals.get(len(prefix), 0.0) + p
    for depth in range(5):
        assert totals[depth] == pytest.approx(1.0, abs=1e-12)


def test_reference_enforces_enumeration_caps():
    hmm = two_state_hmm()
    with pytest.raises(ValueError):
        seprep.hmm_exact_reference(hmm, 9)
    wide = seprep.FiniteHMM(trans=[[0.5, 0.5], [0.5, 0.5]],
                            emit=np.full((2, 5), 0.2), init=[0.5, 0.5])
    with pytest.raises(ValueError):
        seprep.hmm_exact_reference(wide, 4)
    with pytest.raises(ValueError):
        seprep.hmm_exact_reference(hmm, 4, n=4)


def test_exact_candidate_attains_the_bound():
    hmm = two_state_hmm()
    for n in (0, 1):
        out = seprep.nstep_bound_check(seprep.hmm_exact_reference(hmm, 6, n=n),
                                       seprep.exact_posterior_candidate(hmm))
        assert abs(out["slack"]) < 1e-9


def test_marginal_candidate_slack_is_the_information_sum():
    # the history-blind candidate pays exactly (1/T) sum_t I(z_t; y^t)
    hmm = two_state_hmm()
    T = 6
    ref = seprep.hmm_exact_reference(hmm, T)
    mi_sum = 0.0
    for t in range(T):
        prefixes = [p for p in ref["prefix_probs"] if len(p) == t]
        truths = {p: hmm.next_obs_dist(ref["posteriors"][p]) for p in prefixes}
        marginal = sum(ref["prefix_probs"][p] * truths[p] for p in prefixes)
        for p in prefixes:
            ratio = np.log(truths[p] / marginal, where=truths[p] > 0,
                           out=np.zeros_like(marginal))
            mi_sum += ref["prefix_probs"][p] * float((truths[p] * ratio).sum())
    out = seprep.nstep_bound_check(ref, seprep.marginal_candidate(hmm, T))
    assert out["slack"] == pytest.approx(mi_sum / T, abs=1e-9)
    assert out["slack"] > 0.01


def test_any_candidate_respects_the_bound():
    hmm = two_state_hmm()
    reference = seprep.hmm_exact_reference(hmm, 5)
    rng = np.random.default_rng(0)
    for _ in range(30):
        table = {}

        def candidate(history, k, _table=table):
            key = (history, k)
            if key not in _table:
                _table[key] = rng.dirichlet(np.ones(2))
            return _table[key]

        out = seprep.nstep_bound_check(reference, candidate)
        assert out["slack"] >= -1e-12


def _seeded_candidate(hmm, seed):
    rng = np.random.default_rng(seed)
    table = {}

    def candidate(history, k):
        if (history, k) not in table:
            table[history, k] = rng.dirichlet(np.ones(hmm.n_obs))
        return table[history, k]

    return candidate


def test_one_shared_reference_scores_every_candidate_as_before():
    # bound, then (loss, slack) of the exact, marginal and seeded random
    # candidates, recorded when every nstep_bound_check call enumerated its
    # own tree; one shared reference per (hmm, n) must give the same floats
    from test_pinned_bits import _pinned_hmms

    pinned = {
        (0, 0): (0.6366842823685289, [(0.6366842823685288, -1.1102230246251565e-16),
                                      (0.6640641265641084, 0.027379844195579484),
                                      (0.9763152609694016, 0.33963097860087266)]),
        (0, 1): (1.1846340800108164, [(1.1846340800108164, 0.0),
                                      (1.2174508987008648, 0.03281681869004838),
                                      (1.7907115082061649, 0.6060774281953485)]),
        (0, 2): (1.62632888471101, [(1.62632888471101, 0.0),
                                    (1.6601603164102705, 0.033831431699260506),
                                    (2.327421268037852, 0.7010923833268421)]),
        (1, 0): (1.0645100380491053, [(1.0645100380491053, 0.0),
                                      (1.0652687091915585, 0.0007586711424532044),
                                      (1.4736371561205093, 0.409127118071404)]),
        (1, 1): (1.9519078560408827, [(1.9519078560408827, 0.0),
                                      (1.9527316748563768, 0.0008238188154940929),
                                      (2.6026434125613425, 0.6507355565204598)]),
        (1, 2): (2.6620366832189717, [(2.6620366832189717, 0.0),
                                      (2.6628657584842386, 0.0008290752652668765),
                                      (3.7631296584308527, 1.101092975211881)]),
    }
    T = 6
    for i, hmm in enumerate(_pinned_hmms()):
        for n in (0, 1, 2):
            reference = seprep.hmm_exact_reference(hmm, T, n=n)
            bound, rows = pinned[i, n]
            candidates = [seprep.exact_posterior_candidate(hmm),
                          seprep.marginal_candidate(hmm, T),
                          _seeded_candidate(hmm, 3)]
            for candidate, (loss, slack) in zip(candidates, rows):
                out = seprep.nstep_bound_check(reference, candidate)
                assert repr((out["loss"], out["bound"], out["slack"])) == \
                    repr((loss, bound, slack))


def test_a_reference_keeps_each_truth_by_prefix_length_and_offset():
    hmm = two_state_hmm()
    reference = seprep.hmm_exact_reference(hmm, 5, n=2)
    assert (reference["hmm"], reference["T"], reference["n"]) == (hmm, 5, 2)
    assert sorted(reference["truths"]) == sorted(
        (t, k) for k in range(3) for t in range(5 - k))
    for (t, k), truths in reference["truths"].items():
        assert list(truths) == [p for p in reference["prefix_probs"] if len(p) == t]
        for prefix, truth in truths.items():
            belief = reference["posteriors"][prefix]
            assert np.array_equal(truth, hmm.next_obs_dist(belief, k))


@pytest.mark.parametrize("guess", [[1.0], [0.2, 0.3, 0.5], 1.0, [[0.5, 0.5]]])
def test_a_guess_of_the_wrong_shape_is_refused_by_name(guess):
    # a one-entry guess used to broadcast against the truth and score a loss
    # of 0, below the entropy floor
    reference = seprep.hmm_exact_reference(two_state_hmm(), 4)
    shape = np.shape(guess)
    with pytest.raises(ValueError, match=re.escape(f"{shape}, need (2,)")):
        seprep.nstep_bound_check(reference, lambda history, k: guess)

