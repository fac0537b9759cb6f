"""Tests for the static bottleneck: tasks, training, exact enumeration."""

import dataclasses
import math

import numpy as np
import pytest

from ibsep import info, nn, static_ib as sib

import references


LN2 = math.log(2.0)


def bijective_task():
    return sib.make_nuisance_task(2, 2, seed=3)


def reference_encoder(task):
    """The encoder that emits the reference marginal N(0, 1) for every y."""
    zeros = np.zeros((task.y_card, 1))
    return sib.StochasticEncoder.from_table(zeros, zeros)


# ---------------------------------------------------------------------------
# task construction
# ---------------------------------------------------------------------------


def test_no_nuisance_task_is_plain_classification():
    task = sib.make_nuisance_task(2, 1, seed=0)
    joint = task.joint_zny()
    assert abs(info.mutual_information(joint, "y", "z") - LN2) < 1e-12
    assert task.y_card == 2


def test_bijective_task_information_structure():
    task = bijective_task()
    joint = task.joint_zny()
    assert task.y_card == 4
    assert abs(info.mutual_information(joint, "y", "z") - LN2) < 1e-12
    assert abs(info.mutual_information(joint, "y", "n") - LN2) < 1e-12
    h_z_given_y = joint.marginal(("y", "z")).entropy_of(("y", "z")) - joint.entropy_of("y")
    assert abs(h_z_given_y) < 1e-12


def test_task_z_and_n_independent_by_construction():
    task = sib.make_nuisance_task(3, 4, rule="lossy", seed=5, y_card=7)
    joint = task.joint_zny()
    assert abs(info.mutual_information(joint, "z", "n")) < 1e-12
    assert abs(joint.table.sum() - 1.0) < 1e-12


def test_constant_map_rejected():
    with pytest.raises(ValueError, match="constant"):
        sib.NuisanceTask(2, 2, np.full(2, 0.5), np.full(2, 0.5), np.zeros((2, 2), dtype=int))


def test_task_validation():
    with pytest.raises(ValueError):
        sib.make_nuisance_task(1, 2)
    with pytest.raises(ValueError):
        sib.make_nuisance_task(2, 2, rule="lossy", y_card=40)
    with pytest.raises(ValueError):
        sib.make_nuisance_task(2, 2, rule="mystery")


def test_lossy_rule_is_surjective_with_requested_alphabet():
    task = sib.make_nuisance_task(3, 3, rule="lossy", seed=1, y_card=5)
    assert task.y_card == 5
    assert set(task.f_map.ravel()) == set(range(5))


def test_sample_batch_matches_generative_model():
    task = bijective_task()
    rng = np.random.default_rng(0)
    y_idx, z_idx = task.sample_batch(20000, rng)
    # every sampled y must be consistent with its z under the map
    for y, z in zip(y_idx, z_idx):
        assert y in task.f_map[z]
    freq = np.bincount(y_idx, minlength=task.y_card) / y_idx.size
    assert np.all(np.abs(freq - 0.25) < 0.02)


@pytest.mark.parametrize("p_z, p_n", [([0.3, 0.7], [0.2, 0.0, 0.8]),
                                      ([0.05, 0.1, 0.15, 0.2, 0.1, 0.3, 0.1], [0.5, 0.5])],
                         ids=["2x3-with-a-zero", "7x2"])
def test_sample_batch_draws_what_rng_choice_draws(p_z, p_n):
    # the cached-CDF draw must be rng.choice's, index for index, and leave
    # the generator where rng.choice leaves it
    z_card, n_card = len(p_z), len(p_n)
    task = sib.NuisanceTask(z_card, n_card, np.array(p_z), np.array(p_n),
                            np.arange(z_card * n_card).reshape(z_card, n_card))
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for batch in (1, 64, 2000):
        y_idx, z_idx = task.sample_batch(batch, rng)
        z = ref.choice(z_card, size=batch, p=task.p_z)
        n = ref.choice(n_card, size=batch, p=task.p_n)
        assert z_idx.dtype == z.dtype and np.array_equal(z_idx, z)
        assert np.array_equal(y_idx, task.f_map[z, n])
    assert rng.random() == ref.random()


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


def test_table_encoder_round_trip():
    means = np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]])
    log_stds = np.array([[-1.0, -2.0], [-0.5, -4.0], [0.0, -3.0]])
    enc = sib.StochasticEncoder.from_table(means, log_stds)
    got_m, got_s = enc.posterior_table()
    assert np.allclose(got_m, means, atol=1e-12)
    assert np.allclose(got_s, np.exp(log_stds), atol=1e-12)


def test_log_std_clamped_to_range():
    enc = sib.StochasticEncoder.from_table([[0.0], [0.0]], [[-40.0], [9.0]])
    _, stds = enc.posterior_table()
    assert abs(stds[0, 0] - math.exp(-6.0)) < 1e-15
    assert abs(stds[1, 0] - math.exp(2.0)) < 1e-15


def test_encoder_output_dim_validated():
    mlp = nn.init_mlp([4, 3], ["identity"], np.random.default_rng(0))
    with pytest.raises(ValueError):
        sib.StochasticEncoder(mlp, rep_dim=2)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def _small_decoder(rep_dim, z_card, seed=5):
    return nn.init_mlp([rep_dim, 8, z_card], ["relu", "identity"],
                       np.random.default_rng(seed))


def test_loss_beta_zero_is_pure_cross_entropy():
    task = bijective_task()
    enc = sib.random_separated_encoder(task, np.random.default_rng(0))
    dec = _small_decoder(1, task.z_card)
    batch = task.sample_batch(32, np.random.default_rng(1))
    cfg = sib.IBLConfig(beta=0.0, rep_dim=1, steps=1, batch=32, seed=0)
    out = references.ibl_loss(enc, dec, batch, cfg)
    assert out["total"] == out["cross_entropy_term"]
    assert out["info_term"] > 0.0  # reported even when unweighted


def test_loss_info_term_zero_for_reference_encoder():
    task = bijective_task()
    enc = reference_encoder(task)
    dec = _small_decoder(1, task.z_card)
    batch = task.sample_batch(32, np.random.default_rng(1))
    cfg = sib.IBLConfig(beta=2.0, rep_dim=1, steps=1, batch=32, seed=0)
    out = references.ibl_loss(enc, dec, batch, cfg)
    assert out["info_term"] == 0.0
    assert out["total"] == out["cross_entropy_term"]


def test_info_term_scales_linearly_with_beta():
    task = bijective_task()
    enc = sib.random_separated_encoder(task, np.random.default_rng(2))
    dec = _small_decoder(1, task.z_card)
    batch = task.sample_batch(16, np.random.default_rng(1))
    outs = {}
    for beta in (0.0, 1.0, 3.0):
        cfg = sib.IBLConfig(beta=beta, rep_dim=1, steps=1, batch=16, seed=9)
        outs[beta] = references.ibl_loss(enc, dec, batch, cfg)
    kl = outs[1.0]["info_term"]
    assert abs(outs[1.0]["total"] - (outs[0.0]["total"] + kl)) < 1e-12
    assert abs(outs[3.0]["total"] - (outs[0.0]["total"] + 3.0 * kl)) < 1e-12


def test_kl_bound_dominates_enumerated_information():
    # the variational info term can never undercut the true I(x;y), for any
    # encoder, because quantization only coarsens and r(x) is not p(x)
    rng = np.random.default_rng(77)
    tasks = [bijective_task(), sib.make_nuisance_task(3, 2, seed=7),
             sib.make_nuisance_task(2, 3, rule="lossy", seed=11, y_card=4)]
    for trial in range(30):
        task = tasks[trial % len(tasks)]
        enc = sib.StochasticEncoder.from_table(
            rng.normal(0.0, 1.5, (task.y_card, 1)),
            rng.uniform(-3.0, 1.0, (task.y_card, 1)),
        )
        bound = sib.info_bound_exact(enc, task)
        report = sib.measure_invariance(enc, task)
        assert bound >= report.i_xy - 1e-9


def test_info_bound_exact_matches_hand_formula():
    task = sib.make_nuisance_task(2, 1, seed=0)
    enc = sib.StochasticEncoder.from_table([[1.0], [-1.0]], [[0.0], [math.log(2.0)]])
    # p(y) uniform over 2; KL(N(m, s^2) || N(0,1)) = (m^2 + s^2 - 1 - 2 ln s)/2
    kl0 = 0.5 * (1.0 + 1.0 - 1.0 - 0.0)
    kl1 = 0.5 * (1.0 + 4.0 - 1.0 - 2.0 * math.log(2.0))
    assert abs(sib.info_bound_exact(enc, task) - 0.5 * (kl0 + kl1)) < 1e-12


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_beta_zero_reaches_high_accuracy():
    task = bijective_task()
    cfg = sib.IBLConfig(beta=0.0, rep_dim=1, steps=400, batch=64, seed=0)
    encoder, decoder = sib.train_ib(task, [cfg]).runs[0]
    acc = sib.eval_accuracy(encoder, decoder, task, 256,
                            np.random.default_rng(123))
    assert acc >= 0.99


def test_train_large_beta_collapses_representation():
    task = bijective_task()
    cfg = sib.IBLConfig(beta=1e3, rep_dim=1, steps=400, batch=64, seed=0,
                        learning_rate=1e-4)
    encoder, decoder = sib.train_ib(task, [cfg]).runs[0]
    assert sib.info_bound_exact(encoder, task) < 0.01
    acc = sib.eval_accuracy(encoder, decoder, task, 512,
                            np.random.default_rng(123))
    assert abs(acc - 0.5) < 0.05


def _lone_accuracy(encoder, decoder, task, samples, rng):
    """Accuracy from a lone posterior table and decoder forward, summed in a loop."""
    means, stds = encoder.posterior_table()
    weights = np.outer(task.p_z, task.p_n)
    zs, ns = np.nonzero(weights)
    ys = np.repeat(task.f_map[zs, ns], samples)
    x = means[ys] + stds[ys] * rng.standard_normal((ys.size, encoder.rep_dim))
    logits = nn.forward(decoder, x).value
    hits = (np.argmax(logits, axis=1) == np.repeat(zs, samples)).reshape(-1, samples)
    acc = 0.0
    for w, rate in zip(weights[zs, ns], hits.mean(axis=1)):
        acc += w * float(rate)
    return float(acc)


def test_eval_accuracy_equals_a_summed_loop():
    # three networks with their own generators: each eval_accuracy call
    # gives the loop's accuracy and consumes its generator as the loop
    # does; p(z, n) = 1/6 is not dyadic, so the hit rates' summation order
    # shows in the bits
    task = sib.make_nuisance_task(3, 2, seed=5)
    nets = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        nets.append((sib.StochasticEncoder(sib._init_mlp(task.y_card, 4, rng), 2),
                     sib._init_mlp(2, task.z_card, rng)))
    seeds = (10, 20, 30)
    lone_rngs, loop_rngs = ([np.random.default_rng(seed) for seed in seeds]
                            for _ in range(2))
    for _ in range(3):
        got = [sib.eval_accuracy(*pair, task, 8, rng)
               for pair, rng in zip(nets, lone_rngs)]
        want = [_lone_accuracy(*pair, task, 8, rng) for pair, rng in zip(nets, loop_rngs)]
        assert all(type(a) is float for a in got)
        assert got == want
        assert len(set(want)) > 1
    assert [rng.standard_normal() for rng in lone_rngs] == \
        [rng.standard_normal() for rng in loop_rngs]


def test_training_curve_deterministic_for_fixed_seed():
    task = bijective_task()
    cfg = sib.IBLConfig(beta=0.1, rep_dim=1, steps=50, batch=32, seed=4)
    a = sib.train_ib(task, [cfg])
    b = sib.train_ib(task, [cfg])
    assert a.curve == b.curve


def test_divergence_aborts_with_step_index():
    task = bijective_task()
    cfg = sib.IBLConfig(beta=1e3, rep_dim=1, steps=200, batch=16, seed=0,
                        learning_rate=1e6)
    with pytest.raises(nn.TrainingDiverged) as exc:
        sib.train_ib(task, [cfg])
    assert isinstance(exc.value.step, int)
    assert 0 <= exc.value.step < 200
    assert str(exc.value.step) in str(exc.value)


def test_curve_rows_have_expected_fields():
    task = bijective_task()
    cfg = sib.IBLConfig(beta=0.1, rep_dim=1, steps=5, batch=16, seed=1)
    curve = sib.train_ib(task, [cfg]).curves[0]
    assert len(curve) == 5
    assert [row["step"] for row in curve] == list(range(5))
    for row in curve:
        assert set(row) == {"step", "loss", "ce", "info_bound"}
        assert abs(row["loss"] - (row["ce"] + cfg.beta * row["info_bound"])) < 1e-9


def _assert_sweep_matches_one_run_sweeps(task, configs):
    sweep = sib.train_ib(task, configs)
    assert isinstance(sweep, nn.TrainedSweep)
    assert len(sweep.runs) == len(sweep.curves) == len(configs)
    assert len(sweep.curve) == configs[0].steps
    for r, cfg in enumerate(configs):
        lone = sib.train_ib(task, [cfg])
        (encoder, decoder), (lone_encoder, lone_decoder) = sweep.runs[r], lone.runs[0]
        assert sweep.curves[r] == lone.curves[0]
        for got, want in ((encoder.mlp, lone_encoder.mlp),
                          (decoder, lone_decoder)):
            for key, value in want.params().items():
                other = got.params()[key]
                assert other.shape == value.shape and np.array_equal(other, value), key


@pytest.mark.parametrize("groups", [[(0.0, 0.05)], [(1e3, 1e-4)],
                                    [(0.0, 0.05), (1e3, 1e-4)]],
                         ids=["harness-beta0", "harness-hi-beta", "harness-both"])
def test_a_sweep_trains_each_run_bit_for_bit_as_a_lone_call(groups):
    # the two seed groups of the static-ib battery, each alone and as the
    # battery's one sweep, where the groups also differ in learning rate
    configs = [sib.IBLConfig(beta=beta, rep_dim=1, steps=25, batch=64, seed=seed,
                             learning_rate=learning_rate)
               for beta, learning_rate in groups for seed in (7, 8, 9)]
    _assert_sweep_matches_one_run_sweeps(bijective_task(), configs)


def test_a_sweep_may_mix_betas():
    configs = [sib.IBLConfig(beta=beta, rep_dim=2, steps=10, batch=16, seed=seed)
               for beta, seed in ((0.0, 1), (0.5, 1), (2.0, 3))]
    _assert_sweep_matches_one_run_sweeps(sib.make_nuisance_task(3, 2, seed=5), configs)


def test_a_sweep_refuses_configs_that_differ_beyond_beta_and_seed():
    task = bijective_task()
    a = sib.IBLConfig(beta=0.0, rep_dim=1, steps=2, batch=8, seed=0)
    b = dataclasses.replace(a, beta=1.0, seed=1)
    # each run steps at its own rate
    sib.train_ib(task, [a, dataclasses.replace(b, learning_rate=1e-4)])
    for other in (dataclasses.replace(b, momentum=0.5),
                  dataclasses.replace(b, batch=9)):
        with pytest.raises(ValueError, match="beta, seed and learning_rate"):
            sib.train_ib(task, [a, other])
    with pytest.raises(ValueError, match="beta, seed and learning_rate"):
        sib.train_ib(task, [])
    with pytest.raises(ValueError, match="list or tuple of configs, got IBLConfig"):
        sib.train_ib(task, a)


def test_a_diverged_sweep_names_the_run_its_beta_and_seed():
    task = bijective_task()
    configs = [sib.IBLConfig(beta=beta, rep_dim=1, steps=200, batch=16, seed=seed,
                             learning_rate=1e6)
               for beta, seed in ((10.0, 2), (1e3, 4), (1e3, 0))]
    steps = []
    for cfg in configs:
        with pytest.raises(nn.TrainingDiverged) as lone:
            sib.train_ib(task, [cfg])
        steps.append(lone.value.step)
    with pytest.raises(nn.TrainingDiverged) as err:
        sib.train_ib(task, configs)
    cfg = configs[err.value.run]
    # run 0 would diverge a step later than the other two
    assert err.value.step == min(steps) == steps[err.value.run] < steps[0]
    assert err.value.run == 1
    message = str(err.value)
    assert f"step {err.value.step}" in message
    assert f"beta={cfg.beta!r}" in message and f"seed={cfg.seed}" in message


def test_config_validation():
    with pytest.raises(ValueError):
        sib.IBLConfig(beta=-0.5, rep_dim=1, steps=1, batch=1, seed=0)


# ---------------------------------------------------------------------------
# exact invariance measurement
# ---------------------------------------------------------------------------


def test_constant_encoder_carries_no_information():
    task = bijective_task()
    report = sib.measure_invariance(reference_encoder(task), task)
    assert abs(report.i_xy) < 1e-9
    assert abs(report.i_xn) < 1e-9
    assert abs(report.i_xz) < 1e-9


def test_sharp_encoder_saturates_invariance_bound():
    # distinct deterministic-ish mean per y: the representation is a
    # bijection of y, so I(x;n)=H(n), H-residual epsilon vanishes
    task = bijective_task()
    enc = sib.StochasticEncoder.from_table(
        np.array([[-1.5], [-0.5], [0.5], [1.5]]), np.full((4, 1), -5.0)
    )
    report = sib.measure_invariance(enc, task)
    assert abs(report.i_xn - LN2) < 1e-3
    assert abs(report.i_xy - 2 * LN2) < 1e-3
    assert abs(report.epsilon) < 1e-3
    assert abs(report.prop_slack) < 1e-3


def test_invariance_battery_on_random_separated_encoders():
    # the bound I(x;n) <= I(x;y) - I(y;z) and the bracket
    # 0 <= eps <= H(z|y) hold for every near-deterministic injective
    # encoder, within the documented grid slack
    slack = 0.02
    tasks = [
        bijective_task(),
        sib.make_nuisance_task(3, 2, seed=7),
        sib.make_nuisance_task(2, 3, rule="lossy", seed=11, y_card=4),
        sib.make_nuisance_task(4, 2, rule="lossy", seed=13, y_card=5),
    ]
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(25):
        for task in tasks:
            enc = sib.random_separated_encoder(task, rng)
            report = sib.measure_invariance(enc, task)
            assert report.prop_slack >= -slack
            assert report.epsilon >= -slack
            assert report.epsilon <= report.h_z_given_y + slack
            for name in ("i_xy", "i_xz", "i_yz", "i_xn", "i_xz_given_n"):
                assert getattr(report, name) >= -1e-12
            checked += 1
    assert checked >= 100


def test_trained_encoder_satisfies_invariance_bound():
    # train long enough to be near-sufficient; the residual insufficiency
    # then sits well inside the grid tolerance
    task = bijective_task()
    cfg = sib.IBLConfig(beta=0.05, rep_dim=1, steps=800, batch=64, seed=2)
    encoder, _ = sib.train_ib(task, [cfg]).runs[0]
    report = sib.measure_invariance(encoder, task)
    assert report.prop_slack >= -0.02
    assert report.epsilon >= -0.02
    assert report.epsilon <= report.h_z_given_y + 0.02
    # the pressure actually strips the nuisance: far below H(n) = ln 2
    assert report.i_xn < 0.1


def test_quantization_slack_shrinks_under_grid_refinement():
    task = bijective_task()
    enc = sib.random_separated_encoder(task, np.random.default_rng(6))
    coarse = sib.measure_invariance(enc, task, step=0.1)
    fine = sib.measure_invariance(enc, task, step=0.05)
    # refinement can only reveal information (coarsening is processing)
    assert fine.i_xy >= coarse.i_xy - 1e-12
    assert fine.cells > coarse.cells
    assert (coarse.step, fine.step) == (0.1, 0.05)


# ---------------------------------------------------------------------------
# stacked representations
# ---------------------------------------------------------------------------


def test_identity_second_layer_preserves_information_exactly():
    task = bijective_task()
    reports = sib.stacked_bottleneck_experiment(
        task, widths=[1, 1], noise_levels=[0.05, 0.0],
        seed=0, layer_maps=[lambda x: x],
    )
    assert reports[1].i_xy == reports[0].i_xy
    assert reports[1].i_xn == reports[0].i_xn


def test_positive_noise_strictly_loses_information():
    task = bijective_task()
    reports = sib.stacked_bottleneck_experiment(
        task, widths=[1, 4], noise_levels=[0.05, 0.3], seed=0
    )
    assert reports[1].i_xy < reports[0].i_xy - 1e-6
    assert reports[1].i_xn <= reports[0].i_xn + 1e-12


def test_stack_can_stay_sufficient_while_shedding_nuisance():
    task = bijective_task()
    reports = sib.stacked_bottleneck_experiment(
        task, widths=[1, 4], noise_levels=[0.05, 0.3], seed=0
    )
    assert reports[1].accuracy >= reports[0].accuracy - 0.05
    assert reports[1].i_xn <= reports[0].i_xn


def test_three_layer_stack_is_monotone():
    task = bijective_task()
    reports = sib.stacked_bottleneck_experiment(
        task, widths=[1, 3, 3], noise_levels=[0.05, 0.2, 0.2], seed=1
    )
    assert len(reports) == 3
    for a, b in zip(reports, reports[1:]):
        assert b.i_xy <= a.i_xy + 1e-12
        assert b.i_xn <= a.i_xn + 1e-12


def test_stack_needs_two_layers():
    with pytest.raises(ValueError):
        sib.stacked_bottleneck_experiment(bijective_task(), widths=[1],
                                          noise_levels=[0.05])
    with pytest.raises(ValueError):
        sib.stacked_bottleneck_experiment(bijective_task(), widths=[1, 1],
                                          noise_levels=[0.05])


# ---------------------------------------------------------------------------
# disentanglement link
# ---------------------------------------------------------------------------


def _aggregate_tc(encoder, task):
    means, stds = encoder.posterior_table()
    p_y = task.observation_prior()
    m_bar = p_y @ means
    cov = -np.outer(m_bar, m_bar)
    for y in range(task.y_card):
        cov += p_y[y] * (np.outer(means[y], means[y]) + np.diag(stds[y] ** 2))
    return info.total_correlation_gaussian(cov)


def test_total_correlation_decreases_with_beta():
    # one 15-run sweep: each run is bit-identical to its config trained alone
    task = bijective_task()
    betas = (1e-3, 1e-2, 1e-1)
    configs = [sib.IBLConfig(beta=beta, rep_dim=2, steps=300, batch=32, seed=seed)
               for beta in betas for seed in range(5)]
    runs = sib.train_ib(task, configs).runs
    mean_tc = []
    for k in range(len(betas)):
        tcs = [_aggregate_tc(encoder, task) for encoder, _ in runs[5 * k : 5 * k + 5]]
        mean_tc.append(float(np.mean(tcs)))
    assert mean_tc[0] > mean_tc[1] > mean_tc[2]


# ---------------------------------------------------------------------------
# weight-space information
# ---------------------------------------------------------------------------


def _blob_data(seed=0, per_class=20):
    rng = np.random.default_rng(seed)
    xs = np.vstack([rng.normal(-1.0, 0.4, (per_class, 2)),
                    rng.normal(1.0, 0.4, (per_class, 2))])
    labels = np.array([0] * per_class + [1] * per_class)
    return xs, labels


def test_posterior_equal_to_prior_has_zero_kl():
    post = sib.WeightPosterior.from_init([2, 4, 2], ["relu", "identity"],
                                         np.random.default_rng(1))
    post.mu = {k: np.zeros_like(v) for k, v in post.mu.items()}
    post.log_var = {k: np.zeros_like(v) for k, v in post.log_var.items()}
    assert post.kl_to_prior() == 0.0
    xs, labels = _blob_data()
    rng = np.random.default_rng(3)
    eps = {k: rng.standard_normal(v.shape) for k, v in post.mu.items()}
    with_pen = float(sib._weight_loss_graph(post, xs, labels, 5.0, eps)[0].value)
    without = float(sib._weight_loss_graph(post, xs, labels, 0.0, eps)[0].value)
    assert abs(with_pen - without) < 1e-12


def test_beta_zero_is_noisy_weight_cross_entropy():
    post = sib.WeightPosterior.from_init([2, 4, 2], ["relu", "identity"],
                                         np.random.default_rng(1))
    xs, labels = _blob_data()
    rng = np.random.default_rng(7)
    eps = {k: rng.standard_normal(v.shape) for k, v in post.mu.items()}
    loss = float(sib._weight_loss_graph(post, xs, labels, 0.0, eps)[0].value)
    # replay the same weight draw and compute the cross-entropy by hand
    sampled = post.template.with_params(
        {k: post.mu[k] + np.exp(0.5 * post.log_var[k]) * eps[k] for k in post.mu})
    logits = nn.forward(sampled, xs).value
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ce = -float(np.mean(logp[np.arange(labels.size), labels]))
    assert abs(loss - ce) < 1e-12


def test_kl_formula_matches_direct_gaussian_computation():
    rng = np.random.default_rng(4)
    post = sib.WeightPosterior.from_init([2, 3, 2], ["relu", "identity"], rng)
    post.log_var = {k: rng.uniform(-2.0, 1.0, v.shape) for k, v in post.mu.items()}
    total = 0.0
    for name in post.mu:
        for m, lv in zip(post.mu[name].ravel(), post.log_var[name].ravel()):
            total += info.kl_gaussian([m], [[math.exp(lv)]], [0.0], [[1.0]])
    assert abs(post.kl_to_prior() - total) < 1e-10


def test_stronger_weight_penalty_shrinks_final_kl():
    xs, labels = _blob_data()
    means = []
    for beta in (1e-4, 1e-2, 1.0):
        kls = [
            sib.train_weight_posterior(xs, labels, [2, 4, 2], beta, seed,
                                       steps=200)[1]
            for seed in range(5)
        ]
        means.append(float(np.mean(kls)))
    assert means[0] >= means[1] >= means[2]


# ---------------------------------------------------------------------------
# flatness diagnostic
# ---------------------------------------------------------------------------


def test_quadratic_loss_trace_is_analytic():
    lam, K = 0.7, 6
    out = sib.flatness_diagnostic(lambda w: 0.5 * lam * np.dot(w, w),
                                  np.full(K, 0.3), beta=1e-2)
    assert abs(out["hessian_trace"] - lam * K) < 1e-6
    assert out["finite"]


def test_trace_invariant_to_parameter_permutation():
    rng = np.random.default_rng(3)
    w = rng.normal(0.0, 0.5, 8)
    scales = rng.uniform(0.5, 2.0, 8)

    def loss(v, s=scales):
        return 0.5 * np.dot(s * v, v)

    a = sib.flatness_diagnostic(loss, w, beta=0.1)
    perm = rng.permutation(8)

    def loss_perm(v):
        return loss(v[np.argsort(perm)])

    b = sib.flatness_diagnostic(loss_perm, w[perm], beta=0.1)
    assert abs(a["hessian_trace"] - b["hessian_trace"]) < 1e-6


def test_diagnostic_finite_on_trained_two_layer_model():
    xs, labels = _blob_data()
    post, _, _ = sib.train_weight_posterior(xs, labels, [2, 4, 2], 1e-2, 0,
                                            steps=150)
    template = post.template
    names = sorted(post.mu)
    shapes = [post.mu[n].shape for n in names]
    sizes = [int(np.prod(s)) for s in shapes]

    def unflatten(w):
        parts, at = {}, 0
        for name, shape, size in zip(names, shapes, sizes):
            parts[name] = w[at:at + size].reshape(shape)
            at += size
        return parts

    def loss(w):
        logits = nn.forward(template.with_params(unflatten(w)), xs).value
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -float(np.mean(logp[np.arange(labels.size), labels]))

    w_hat = np.concatenate([post.mu[n].ravel() for n in names])
    out = sib.flatness_diagnostic(loss, w_hat, beta=1e-2)
    assert np.isfinite(out["hessian_trace"])
    assert np.isfinite(out["info_estimate"])
    assert np.isfinite(out["bound_rhs"])
    assert out["finite"]
