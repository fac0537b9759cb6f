import math
import os
import pickle
import time

import numpy as np
import pytest

from ibsep import info, nn, seprep, static_ib

import references


def random_mlp(rng, max_layers=3, max_width=16, final="identity"):
    depth = int(rng.integers(1, max_layers + 1))
    widths = [int(rng.integers(2, max_width + 1)) for _ in range(depth + 1)]
    acts = ["relu"] * (depth - 1) + [final]
    mlp = nn.init_mlp(widths, acts, rng)
    # jitter the zero-init biases: with biases exactly 0 a dead previous
    # layer parks pre-activations exactly on the ReLU kink, where the loss
    # is not differentiable and finite differences measure a subgradient
    params = mlp.params()
    for name in params:
        if name.startswith("b"):
            params[name] = rng.normal(0.0, 0.1, size=params[name].shape)
    return mlp.with_params(params)


def fd_gradients(loss_fn, params, step=1e-4):
    """Central finite differences of loss_fn(params) w.r.t. every entry."""
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn(params)
            flat[i] = orig - step
            lo = loss_fn(params)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        grads[name] = g
    return grads


def rel_error(a, b):
    denom = max(1e-8, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / denom


# ---------------------------------------------------------------------------
# plain ops
# ---------------------------------------------------------------------------


def _softmax(v):
    """Softmax as the exp of the log-softmax node."""
    return nn.log_softmax_n(nn.constant(v)).exp().value


def _cross_entropy(predicted, label):
    """-log predicted[label] in nats, through the training graph's log loss."""
    with np.errstate(divide="ignore"):  # a zero probability is a -inf logit
        logits = nn.constant(np.log(predicted))
    return float(-nn.gather_logprob(nn.log_softmax_n(logits), label).value)


def test_relu_values():
    assert references.relu_n([-1.0]).value == np.array([0.0])
    assert references.relu_n([2.5]).value == np.array([2.5])
    assert references.relu_n([0.0]).value == np.array([0.0])


def test_softmax_symmetry_and_shift():
    assert np.allclose(_softmax([0.0, 0.0]), [0.5, 0.5])
    assert np.allclose(_softmax([3.3, 3.3, 3.3]), [1 / 3] * 3)
    assert np.allclose(_softmax([math.log(2), 0.0]), [2 / 3, 1 / 3])


def test_softmax_shift_invariance_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(0, 3, size=int(rng.integers(2, 10)))
        c = rng.normal(0, 10)
        assert np.max(np.abs(_softmax(v + c) - _softmax(v))) < 1e-12


def test_softmax_properties():
    rng = np.random.default_rng(1)
    v = rng.normal(0, 50, size=7)  # large logits stay finite via max-subtraction
    s = _softmax(v)
    assert np.all(s > 0)
    assert abs(s.sum() - 1.0) < 1e-12


def test_softmax_empty_errors():
    with pytest.raises(ValueError):
        _softmax([])


def test_cross_entropy_values():
    assert _cross_entropy([1.0, 0.0], 0) == 0.0
    assert _cross_entropy([0.5, 0.5], 1) == pytest.approx(math.log(2), abs=1e-15)
    for k in (3, 7):
        assert _cross_entropy([1 / k] * k, k - 1) == pytest.approx(math.log(k), abs=1e-12)


def test_cross_entropy_decomposition_against_info():
    # H_{p,q} == H_p + KL(p||q), all three computed exactly
    rng = np.random.default_rng(2)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        h_pq = float(np.sum(p * np.array([_cross_entropy(q, i) for i in range(k)])))
        dp = info.DiscreteDistribution(p)
        dq = info.DiscreteDistribution(q)
        assert abs(h_pq - (info.entropy(dp) + info.kl_discrete(dp, dq))) < 1e-12
        assert h_pq >= info.entropy(dp) - 1e-12


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_identity_net():
    mlp = nn.MLP((2, 2), (np.eye(2),), (np.zeros(2),), ("identity",))
    out = nn.forward(mlp, np.array([1.0, 2.0]))
    assert np.allclose(out.value, [1.0, 2.0])


def test_forward_zero_weights_relu():
    rng = np.random.default_rng(3)
    mlp = nn.MLP((3, 4), (np.zeros((3, 4)),), (np.zeros(4),), ("relu",))
    out = nn.forward(mlp, rng.normal(size=3))
    assert np.allclose(out.value, 0.0)


def test_forward_matches_straight_reevaluation():
    rng = np.random.default_rng(4)
    mlp = nn.init_mlp([3, 5, 4], ["relu", "identity"], rng)
    x = rng.normal(size=3)
    out = nn.forward(mlp, x).value
    h = np.maximum(x @ mlp.weights[0] + mlp.biases[0], 0.0)
    expected = h @ mlp.weights[1] + mlp.biases[1]
    assert np.allclose(out, expected, atol=1e-12)


def test_forward_dimension_mismatch():
    rng = np.random.default_rng(5)
    mlp = nn.init_mlp([3, 2], ["identity"], rng)
    with pytest.raises(ValueError):
        nn.forward(mlp, np.zeros(4))


def test_softmax_is_an_unknown_nonlinearity():
    # every loss takes log_softmax_n of identity logits, so no layer is a
    # softmax, at the output or before it
    rng = np.random.default_rng(6)
    for acts in (["relu", "softmax"], ["softmax", "identity"]):
        with pytest.raises(ValueError, match="unknown nonlinearity 'softmax'"):
            nn.init_mlp([2, 3, 2], acts, rng)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_square():
    w = nn.parameter(np.array(3.0), name="w")
    loss = w * w
    grads = nn.backward(loss)
    assert grads["w"] == pytest.approx(6.0)


def test_backward_constant_graph():
    c = nn.constant(np.array(5.0))
    w = nn.parameter(np.array(2.0), name="w")
    loss = c * c + 0.0 * w
    grads = nn.backward(loss)
    assert grads["w"] == pytest.approx(0.0)


def test_backward_rejects_nonscalar():
    w = nn.parameter(np.ones(3), name="w")
    with pytest.raises(ValueError):
        nn.backward(w * w)


def test_backward_hands_each_parameter_a_gradient_of_its_own():
    # the sum's VJP hands both operands of the add the same incoming array
    a = nn.parameter(np.array([1.0, -2.0, 3.0]), name="a")
    b = nn.parameter(np.array([0.5, 0.25, -4.0]), name="b")
    grads = nn.backward((a + b).sum())
    assert grads["a"] is not grads["b"]
    assert np.array_equal(grads["a"], np.ones(3)) and np.array_equal(grads["b"], np.ones(3))
    grads["a"][0] = 7.0
    assert np.array_equal(grads["b"], np.ones(3))
    assert grads["a"] is a.grad and grads["b"] is b.grad


# incoming gradients with every value whose bits a careless copy could move
_SPECIAL = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -2.25e-308])


def _special_gradient(rng, shape):
    return rng.choice(_SPECIAL, size=shape) if shape else np.float64(rng.choice(_SPECIAL))


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(
        np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


@pytest.mark.parametrize("axis", [None, 0, -1, 2, (0, 2), (-2, -1), (1,)])
def test_sum_and_mean_vjps_keep_the_bits_of_a_broadcast_copy(axis):
    rng = np.random.default_rng(12)
    val = rng.standard_normal((3, 4, 5))
    kept = () if axis is None else axis
    for _ in range(5):
        total, mean = nn.Node(val).sum(axis=axis), nn.Node(val).mean(axis=axis)
        g = _special_gradient(rng, total.value.shape)
        n = val.size // total.value.size
        want_sum = np.broadcast_to(np.expand_dims(g, kept), val.shape).copy()
        want_mean = np.broadcast_to(np.expand_dims(g / n, kept), val.shape).copy()
        assert _same_bits(total.vjps[0](g), want_sum)
        assert _same_bits(mean.vjps[0](g), want_mean)


@pytest.mark.parametrize("shape", [(5,), (4, 5), (3, 4, 5)])
def test_the_gather_vjp_keeps_the_bits_of_put_along_axis(shape):
    rng = np.random.default_rng(13)
    logp = rng.standard_normal(shape)
    for _ in range(5):
        labels = rng.integers(-shape[-1], shape[-1], size=shape[:-1])
        node = nn.gather_logprob(logp, labels)
        g = _special_gradient(rng, labels.shape)
        want = np.zeros(shape)
        np.put_along_axis(want, labels[..., None], np.asarray(g)[..., None], axis=-1)
        assert _same_bits(node.vjps[0](g), want)


def test_backward_matches_finite_differences_mlp():
    rng = np.random.default_rng(7)
    mlp = nn.init_mlp([4, 6, 5, 3], ["relu", "relu", "identity"], rng)
    xs = rng.normal(size=(2, 4))
    labels = np.array([0, 2])

    def loss_from(params):
        model = mlp.with_params(params)
        h = np.atleast_2d(xs)
        for k, act in enumerate(model.activations):
            h = h @ model.weights[k] + model.biases[k]
            if act == "relu":
                h = np.maximum(h, 0.0)
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        h = e / e.sum(axis=-1, keepdims=True)
        return float(np.mean([-math.log(h[i, labels[i]]) for i in range(len(labels))]))

    param_nodes = {k: nn.parameter(v, name=k) for k, v in mlp.params().items()}
    logits = nn.constant(xs)
    for k, act in enumerate(mlp.activations):
        logits = references.matmul(logits, param_nodes[f"W{k}"]) + param_nodes[f"b{k}"]
        if act == "relu":
            logits = references.relu_n(logits)
    logp = nn.log_softmax_n(logits)
    loss = -nn.gather_logprob(logp, labels).mean()
    grads = nn.backward(loss)
    fd = fd_gradients(loss_from, {k: v.copy() for k, v in mlp.params().items()})
    for name in grads:
        assert rel_error(grads[name], fd[name]) < 1e-5, name


def test_gradient_fidelity_battery_small():
    # trimmed version of the acceptance battery
    rng = np.random.default_rng(8)
    for _ in range(10):
        mlp = random_mlp(rng)
        xs = rng.normal(size=(2, mlp.widths[0]))
        labels = rng.integers(0, mlp.widths[-1], size=2)

        def graph_loss(params):
            nodes = {k: nn.parameter(v, name=k) for k, v in params.items()}
            h = nn.constant(xs)
            for k, act in enumerate(mlp.activations):
                h = references.matmul(h, nodes[f"W{k}"]) + nodes[f"b{k}"]
                if act == "relu":
                    h = references.relu_n(h)
            loss = -nn.gather_logprob(nn.log_softmax_n(h), labels).mean()
            return loss

        params = mlp.params()
        grads = nn.backward(graph_loss(params))
        fd = fd_gradients(lambda p: float(graph_loss(p).value), params)
        worst = max(rel_error(grads[name], fd[name]) for name in grads)
        assert worst < 1e-5


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------


def test_sgd_zero_gradient_fixed_point():
    params = {"w": np.array([1.0, 2.0])}
    state = nn.OptimizerState(schedule=0.1, momentum=0.9)
    new_params, new_state = nn.sgd_step(params, {"w": np.zeros(2)}, state)
    assert np.allclose(new_params["w"], params["w"])
    assert new_state.step == 1


def test_sgd_plain_descent_step():
    params = {"w": np.array(1.0)}
    state = nn.OptimizerState(schedule=0.1, momentum=0.0)
    new_params, _ = nn.sgd_step(params, {"w": np.array(3.0)}, state)
    assert new_params["w"] == pytest.approx(1.0 - 0.1 * 3.0)


def test_sgd_converges_on_scalar_quadratic():
    # f(w) = (w - 2)^2 with eta_k = 1/k
    params = {"w": np.array(0.0)}
    state = nn.OptimizerState(schedule=lambda k: 1.0 / (k + 1), momentum=0.0)
    for _ in range(100):
        grad = {"w": 2.0 * (params["w"] - 2.0)}
        params, state = nn.sgd_step(params, grad, state)
    assert abs(params["w"] - 2.0) < 0.05


def test_sgd_momentum_accumulates():
    params = {"w": np.array(0.0)}
    state = nn.OptimizerState(schedule=1.0, momentum=0.5)
    params, state = nn.sgd_step(params, {"w": np.array(1.0)}, state)
    assert params["w"] == pytest.approx(-1.0)  # buffer = 1
    params, state = nn.sgd_step(params, {"w": np.array(1.0)}, state)
    assert params["w"] == pytest.approx(-2.5)  # buffer = 1.5


def test_sgd_nonfinite_gradient_names_parameter():
    params = {"good": np.array(1.0), "bad": np.array(1.0)}
    grads = {"good": np.array(0.0), "bad": np.array(np.nan)}
    state = nn.OptimizerState(schedule=0.1)
    with pytest.raises(FloatingPointError, match="bad"):
        nn.sgd_step(params, grads, state)


def _stacked_steps(rates, steps=3, momentum=0.9):
    """Per-run parameters stepped ``steps`` times stacked at per-run ``rates``
    and lone at each rate; returns (the stacked runs unstacked, the lone runs)."""
    rng = np.random.default_rng(8)
    runs = [{"W": rng.standard_normal((4, 3)), "b": rng.standard_normal(3)}
            for _ in rates]
    params = nn.stack_runs(runs)
    state = nn.OptimizerState(schedule=tuple(rates), momentum=momentum)
    lone = [(p, nn.OptimizerState(schedule=r, momentum=momentum))
            for p, r in zip(runs, rates)]
    for _ in range(steps):
        grads = [{k: rng.standard_normal(v.shape) for k, v in p.items()} for p in runs]
        params, state = nn.sgd_step(params, nn.stack_runs(grads), state)
        lone = [nn.sgd_step(p, g, s) for (p, s), g in zip(lone, grads)]
    return nn.unstack_runs(params, runs[0]), [p for p, _ in lone]


def test_sgd_per_run_rates_equal_lone_steps_bit_for_bit():
    got, want = _stacked_steps([0.05, 1e-4, lambda k: 0.3 / (k + 1)])
    assert np.shape(nn.OptimizerState(schedule=(0.1, 0.2)).learning_rate()) == (2,)
    for run, lone in zip(got, want):
        for key, value in lone.items():
            assert run[key].shape == value.shape
            assert run[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_sgd_refuses_a_per_run_rate_that_is_not_positive_and_names_the_run(bad):
    with pytest.raises(ValueError, match=r"learning rate of run 1 must be positive"):
        _stacked_steps([0.1, lambda k: bad if k == 1 else 0.1, 0.2])


def test_fit_descends_and_records_the_curve():
    def loss(params, step):
        w = nn.parameter(params["w"], name="w")
        return (w * w).sum(), {"w": float(params["w"][0])}

    params, curve = nn.fit({"w": np.array([1.0])}, loss,
                           nn.OptimizerState(schedule=0.25), 3)
    # w <- w - 0.25 * 2w halves w each step
    assert params["w"][0] == 0.125
    assert curve == [{"step": 0, "loss": 1.0, "w": 1.0},
                     {"step": 1, "loss": 0.25, "w": 0.5},
                     {"step": 2, "loss": 0.0625, "w": 0.25}]


def test_fit_reports_the_step_of_a_non_finite_loss():
    def loss(params, step):
        w = nn.parameter(params["w"], name="w")
        return w * (np.inf if step == 3 else 1.0), {}

    with pytest.raises(nn.TrainingDiverged) as err:
        nn.fit({"w": np.array(1.0)}, loss, nn.OptimizerState(schedule=0.1), 10)
    assert err.value.step == 3
    assert err.value.run == 0


def test_fit_reports_the_step_of_a_non_finite_gradient():
    # the loss stays finite; a node whose VJP returns inf poisons the gradient
    def loss(params, step):
        w = nn.parameter(params["w"], name="w")
        if step < 2:
            return w * 1.0, {}
        return nn.Node(1.0, (w,), (lambda g: np.full_like(g, np.inf),),
                       op="bad"), {}

    with pytest.raises(nn.TrainingDiverged) as err:
        nn.fit({"w": np.array(1.0)}, loss, nn.OptimizerState(schedule=0.1), 10)
    assert err.value.step == 2
    assert isinstance(err.value.__cause__, FloatingPointError)


def test_fit_names_the_diverged_run_of_stacked_losses():
    # per-run loss exp(exp(w)): finite for every run at step 0, but run 2's
    # gradient exp(exp(w)) * exp(w) overflows; then a loss that is inf in
    # run 1 only
    def loss(params, step):
        w = nn.parameter(params["w"], name="w")
        return w.exp().exp().sum(axis=-1), {}

    w = np.array([[0.0], [0.0], [math.log(709.0)]])
    with pytest.raises(nn.TrainingDiverged) as err:
        nn.fit({"w": w}, loss, nn.OptimizerState(schedule=0.1), 5)
    assert (err.value.step, err.value.run) == (0, 2)
    assert isinstance(err.value.__cause__, FloatingPointError)
    w = np.array([[0.0], [1000.0]])
    with pytest.raises(nn.TrainingDiverged) as err:
        nn.fit({"w": w}, loss, nn.OptimizerState(schedule=0.1), 5)
    assert (err.value.step, err.value.run) == (0, 1)


def test_stacked_runs_get_the_gradients_of_their_lone_graphs():
    # R MLPs stacked on a run axis: forward values, the per-run loss and
    # every gradient equal the R lone graphs bit for bit
    rng = np.random.default_rng(3)
    mlps = [nn.init_mlp([3, 5, 2], ["relu", "identity"], rng) for _ in range(3)]
    xs = rng.standard_normal((3, 7, 3))

    def graph(params, x):
        nodes = nn.parameters(params)
        out = nn.forward(mlps[0], nn.constant(x), param_nodes=nodes)
        return nn.kl_to_standard_normal_n(out[..., :1], out[..., 1:])

    stacked = {k: np.stack([m.params()[k] if m.params()[k].ndim > 1
                            else m.params()[k][None] for m in mlps])
               for k in mlps[0].params()}
    total = graph(stacked, xs)
    assert total.value.shape == (3,)
    grads = nn.backward(total.sum())
    for r, mlp in enumerate(mlps):
        lone = graph(mlp.params(), xs[r])
        assert lone.value == total.value[r]
        for key, g in nn.backward(lone).items():
            assert np.array_equal(grads[key][r].reshape(g.shape), g), key


def _signed_zero_layer(rng, runs):
    """x, W, b (a leading run axis when ``runs``) whose x @ W + b has exact
    0.0 and -0.0 entries: row 1 of x is 0.0, row 2 underflows to -0.0
    against W's positive column 0, and b is -0.0 there and 0.0 in column 1."""
    lead = (runs,) if runs else ()
    x = rng.standard_normal((*lead, 4, 3))
    x[..., 1, :] = 0.0
    x[..., 2, :] = -5e-324
    W = rng.standard_normal((*lead, 3, 5)) * 0.5
    W[..., 0] = 0.25
    b = rng.standard_normal((*lead, 1, 5) if runs else (5,))
    b[..., 0], b[..., 1] = -0.0, 0.0
    return x, W, b


@pytest.mark.parametrize("runs", [0, 3])
@pytest.mark.parametrize("relu", [False, True])
def test_affine_node_equals_the_unfused_chain_bit_for_bit(runs, relu):
    rng = np.random.default_rng(11)
    x, W, b = _signed_zero_layer(rng, runs)
    pre = x @ W + b
    zeros = np.signbit(pre[pre == 0.0])
    assert zeros.any() and not zeros.all()  # both 0.0 and -0.0 occur
    weight = rng.standard_normal(pre.shape)

    def graph(fused):
        nodes = nn.parameters({"x": x, "W": W, "b": b})
        if fused:
            out = nn.affine_n(nodes["x"], nodes["W"], nodes["b"], relu)
        else:
            out = references.matmul(nodes["x"], nodes["W"]) + nodes["b"]
            out = references.relu_n(out) if relu else out
        return out, nn.backward((out * nn.constant(weight)).sum())

    out, grads = graph(True)
    ref, ref_grads = graph(False)
    assert out.op == "affine" and out.value.tobytes() == ref.value.tobytes()
    for name in ("x", "W", "b"):
        assert grads[name].shape == ref_grads[name].shape
        assert grads[name].tobytes() == ref_grads[name].tobytes(), name


def test_relu_keeps_the_bits_of_where():
    # fmax maps NaN to 0.0 like where but may keep -0.0 (NumPy's vector loop
    # gives +0.0 and its scalar tail -0.0), which the + 0.0 then turns into
    # +0.0; every other value must pass through unchanged
    special = np.array([-0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0,
                        math.nan])
    rng = np.random.default_rng(6)
    blocks = [special, special[::-1]] + [special[i:i + 1] for i in range(special.size)]
    for shape in ((3, 64, 32), (3, 5, 7)) * 2:
        block = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300)
        block[rng.random(block.shape) < 0.1] = -0.0
        block[rng.random(block.shape) < 0.05] = math.nan
        blocks.append(block)
    for x in blocks:
        want = np.where(x > 0, x, 0.0).view(np.int64)
        assert np.array_equal(references.relu_n(x).value.view(np.int64), want)
    for runs in (0, 3):
        x, W, b = _signed_zero_layer(rng, runs)
        pre = x @ W + b
        out = nn.affine_n(x, W, b, relu=True).value
        assert np.array_equal(out.view(np.int64), np.where(pre > 0, pre, 0.0).view(np.int64))


def _reference_toposort(root):
    """The depth-first order, with ids for membership and a tuple per push."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _static_ib_graph(rng):
    task = static_ib.make_nuisance_task(2, 2, seed=0)
    encoder = static_ib.StochasticEncoder(static_ib._init_mlp(4, 2, rng), 1)
    decoder = static_ib._init_mlp(1, 2, rng)
    params = nn.stack_runs([static_ib._named_params(encoder, decoder)] * 3)
    y_idx, z_idx = task.sample_batch(3 * 16, rng)
    total, _, _ = static_ib._loss_graph(
        encoder, decoder, nn.parameters(params), y_idx.reshape(3, 16),
        z_idx.reshape(3, 16), rng.standard_normal((3, 16, 1)), np.array([0.0, 1.0, 1e3]))
    return total.sum()


def _seprep_graph(rng):
    R, B, T, d = 3, 4, 20, 2
    models = [seprep.init_sep_filter(d, 1, rng=rng) for _ in range(R)]
    nodes = nn.parameters(nn.stack_runs([m.params() for m in models]))
    total, _, _ = seprep._sep_loss_graph(
        models[0], nodes, rng.standard_normal((R, B, T, 1)),
        rng.standard_normal((R, T, B, d)), np.full(R, 0.1))
    return total.sum()


@pytest.mark.parametrize("graph", [_static_ib_graph, _seprep_graph],
                         ids=["static-ib", "seprep"])
def test_toposort_keeps_the_depth_first_order_node_for_node(graph):
    # backward sums each gradient in this order, so it fixes the bits
    root = graph(np.random.default_rng(14))
    order = nn._toposort(root)
    want = _reference_toposort(root)
    assert len(order) == len(want) > 20
    assert all(a is b for a, b in zip(order, want))


@pytest.mark.parametrize("acts", [["identity"], ["relu", "identity"],
                                  ["relu", "relu", "identity"]])
def test_forward_adds_one_node_per_layer(acts):
    rng = np.random.default_rng(4)
    mlp = nn.init_mlp([3] + [4] * len(acts), acts, rng)
    out = nn.forward(mlp, rng.standard_normal((6, 3)))
    ops = [node.op for node in nn._toposort(out)]
    K = len(acts)
    assert ops.count("affine") == K
    assert len(ops) == 1 + 2 * K + K  # input, W_k and b_k, layers


def _scan_case(rng, runs, T, tbptt, exo, hidden=(5,)):
    """φ_0, the update's stacked (W, b, relu) arrays, the exogenous block and
    an upstream weight for a scan over ``runs`` runs of 3 rows and width 4."""
    B, width = 3, 4
    widths = [width + exo, *hidden, width]
    acts = ["relu"] * len(hidden) + ["identity"]
    mlps = [nn.init_mlp(widths, acts, rng) for _ in range(runs)]
    params = nn.stack_runs([m.params() for m in mlps])
    for name in params:
        if name.startswith("b"):  # off the ReLU kinks
            params[name] = rng.normal(0.0, 0.3, size=params[name].shape)
    params["phi0"] = rng.normal(0.0, 0.5, size=(runs, 1, width))
    inputs = rng.standard_normal((runs, B, T, exo))
    weight = rng.standard_normal((runs, T * B, width))
    return params, [act == "relu" for act in acts], inputs, weight


def _scan_loss(params, relus, inputs, weight, tbptt, fused):
    """(stack, loss) of the scan, as one node or as the per-step chain."""
    nodes = nn.parameters(params)
    layers = [(nodes[f"W{k}"], nodes[f"b{k}"], relu) for k, relu in enumerate(relus)]
    if fused:
        stack = nn.scan_n(nodes["phi0"], layers, inputs, tbptt)
    else:
        B, T = inputs.shape[-3:-1]
        phi = nn.constant(np.zeros((len(inputs), B, 4))) + nodes["phi0"]
        phis = []
        for t in range(T):
            phis.append(phi)
            h = references.concat([phi, nn.constant(inputs[..., t, :])])
            for W, b, relu in layers:
                h = nn.affine_n(h, W, b, relu)
            phi = references.detach(h) if (t + 1) % tbptt == 0 else h
        stack = references.concat(phis, axis=-2)
    return stack, (stack * nn.constant(weight)).sum()


@pytest.mark.parametrize("T,tbptt,exo,hidden", [
    (7, 3, 1, (5,)),       # tbptt does not divide T: a partial last window
    (5, 8, 1, (5,)),       # tbptt >= T: nothing truncates
    (8, 4, 1, (5,)),       # T a multiple of tbptt
    (7, 3, 3, (5,)),       # controls beside the observation
    (6, 4, 2, (5, 3)),     # two hidden layers
    (4, 1, 1, (5,)),       # every step detached: only φ_0 gets a gradient
])
def test_scan_node_equals_the_unfused_chain_bit_for_bit(T, tbptt, exo, hidden):
    params, relus, inputs, weight = _scan_case(np.random.default_rng(T * tbptt + exo),
                                               3, T, tbptt, exo, hidden)
    stack, loss = _scan_loss(params, relus, inputs, weight, tbptt, True)
    ref, ref_loss = _scan_loss(params, relus, inputs, weight, tbptt, False)
    assert stack.op == "scan" and stack.value.shape == (3, T * 3, 4)
    assert stack.value.tobytes() == ref.value.tobytes()
    grads, ref_grads = nn.backward(loss), nn.backward(ref_loss)
    for name, value in params.items():
        want = ref_grads.get(name, np.zeros_like(value))  # unreached: no gradient
        assert grads[name].shape == want.shape, name
        assert grads[name].tobytes() == want.tobytes(), name


def test_scan_node_gradients_match_finite_differences():
    T = 5
    params, relus, inputs, weight = _scan_case(np.random.default_rng(8), 2, T, T, 2)

    def loss(p):
        return float(_scan_loss(p, relus, inputs, weight, T, True)[1].value)

    grads = nn.backward(_scan_loss(params, relus, inputs, weight, T, True)[1])
    fd = fd_gradients(loss, params, step=1e-5)
    for name in params:
        assert rel_error(grads[name], fd[name]) < 1e-6, name


def test_scan_node_runs_its_bptt_once_per_gradient():
    params, relus, inputs, weight = _scan_case(np.random.default_rng(2), 2, 6, 4, 1)
    stack, _ = _scan_loss(params, relus, inputs, weight, 4, True)
    first = [vjp(weight) for vjp in stack.vjps]
    assert all(a is b for a, b in zip(first, [vjp(weight) for vjp in stack.vjps]))
    fresh = [vjp(weight.copy()) for vjp in stack.vjps]  # a new gradient, a new pass
    assert all(a is not b and np.array_equal(a, b) for a, b in zip(first, fresh))


def _fit_a_scan(steps=4):
    """The curve of a short fit through a scan node (3 runs, T 6, tbptt 4)."""
    params, relus, inputs, weight = _scan_case(np.random.default_rng(9), 3, 6, 4, 1)

    def loss(p, step):
        stack, _ = _scan_loss(p, relus, inputs, weight, 4, True)
        return (stack * stack * nn.constant(weight)).sum(axis=(-2, -1)), {}

    return nn.fit(params, loss, nn.OptimizerState(schedule=0.01, momentum=0.9), steps)[1]


def test_fit_pins_the_heap_thresholds(monkeypatch):
    calls = []
    monkeypatch.setattr(nn, "_libc_mallopt", lambda: lambda *args: calls.append(args))
    _fit_a_scan(1)
    assert calls == [(-1, 256 << 20), (-3, 32 << 20)]  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD


def test_fit_trains_alike_without_mallopt(monkeypatch):
    want = _fit_a_scan()
    monkeypatch.setattr(nn, "_libc_mallopt", lambda: None)
    assert _fit_a_scan() == want


def test_gather_logprob_picks_per_run_rows_like_lone_calls():
    # R = B and R != B: run r of the stacked pick is the lone 2-D pick
    rng = np.random.default_rng(5)
    for runs, rows, classes in ((3, 3, 2), (2, 5, 4)):
        logp = rng.standard_normal((runs, rows, classes))
        labels = rng.integers(0, classes, size=(runs, rows))
        picked = nn.gather_logprob(nn.constant(logp), labels).value
        assert picked.shape == (runs, rows)
        for r in range(runs):
            lone = nn.gather_logprob(nn.constant(logp[r]), labels[r]).value
            assert np.array_equal(picked[r], lone)
            assert np.array_equal(lone, logp[r][np.arange(rows), labels[r]])
    # the value a row-indexing gather got wrong on a (3, 3, K) input
    zeros = nn.gather_logprob(nn.constant(np.zeros((3, 3, 2))),
                              np.zeros((3, 3), int))
    assert np.array_equal(zeros.value, np.zeros((3, 3)))


def test_gather_logprob_refuses_labels_not_shaped_like_the_rows():
    with pytest.raises(ValueError, match="labels of shape"):
        nn.gather_logprob(nn.constant(np.zeros((3, 4, 2))), np.zeros(3, int))
    with pytest.raises(ValueError, match="labels of shape"):
        nn.gather_logprob(nn.constant(np.zeros((4, 2))), np.zeros((4, 1), int))


def test_gather_logprob_and_row_mean_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((2, 5, 3))
    labels = rng.integers(0, 3, size=(2, 5))
    weights = np.array([1.0, -2.5])

    def value(x):
        logp = x - np.log(np.exp(x).sum(axis=-1, keepdims=True))
        picked = np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0]
        return float(np.dot(picked.mean(axis=-1), weights))

    x = nn.parameter(x0.copy(), name="x")
    mean = nn.gather_logprob(nn.log_softmax_n(x), labels).mean(axis=-1)
    assert mean.value.shape == (2,)
    grads = nn.backward((mean * weights).sum())
    fd = fd_gradients(lambda p: value(p["x"]), {"x": x0.copy()})
    assert rel_error(grads["x"], fd["x"]) < 1e-7


def test_sum_over_axes_and_its_gradient():
    x = nn.parameter(np.arange(24.0).reshape(2, 3, 4), name="x")
    out = x.sum(axis=(1, 2))
    assert np.array_equal(out.value, [66.0, 210.0])
    grads = nn.backward((out * np.array([1.0, 2.0])).sum())
    assert np.array_equal(grads["x"][0], np.ones((3, 4)))
    assert np.array_equal(grads["x"][1], np.full((3, 4), 2.0))


def test_param_helpers_name_and_group_leaves():
    leaves = nn.parameters({"W0": np.ones(2), "b0": np.zeros(2)}, "enc")
    assert [(k, n.name) for k, n in leaves.items()] == [("W0", "enc.W0"),
                                                        ("b0", "enc.b0")]
    assert [n.name for n in nn.parameters({"phi0": np.zeros(1)}).values()] == [
        "phi0"]
    flat = {"phi0": 0, "dec0.W0": 1, "dec1.W0": 2, "dec10.W0": 3, "dec1.b0": 4}
    assert nn.param_group(flat, "dec1") == {"W0": 2, "b0": 4}
    assert nn.param_group(flat, "upd") == {}


# ---------------------------------------------------------------------------
# KL(q || N(0, I)) node
# ---------------------------------------------------------------------------


def test_kl_node_matches_the_info_array_kl():
    rng = np.random.default_rng(30)
    for rows, dim in ((1, 1), (5, 3), (40, 4)):
        mu = rng.normal(0.0, 2.0, size=(rows, dim))
        log_std = rng.uniform(-3.0, 1.5, size=(rows, dim))
        node = nn.kl_to_standard_normal_n(nn.constant(mu), nn.constant(log_std))
        array = info.kl_to_standard_normal(mu, np.exp(2.0 * log_std), 2.0 * log_std)
        assert array.shape == (rows,)
        assert abs(float(node.value) - float(np.mean(array))) < 1e-12


def test_kl_node_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    params = {"mu": rng.normal(size=(6, 3)),
              "log_std": rng.uniform(-2.0, 1.0, size=(6, 3))}

    def graph(p):
        nodes = nn.parameters(p)
        return nn.kl_to_standard_normal_n(nodes["mu"], nodes["log_std"])

    grads = nn.backward(graph(params))
    fd = fd_gradients(lambda p: float(graph(p).value), params)
    for name in params:
        assert rel_error(grads[name], fd[name]) < 1e-5, name


def test_training_determinism_bitwise():
    # identical seed -> bit-identical parameter trajectory
    def train(seed):
        rng = np.random.default_rng(seed)
        mlp = nn.init_mlp([3, 8, 2], ["relu", "identity"], rng)
        params = mlp.params()
        state = nn.OptimizerState(schedule=0.05, momentum=0.9)
        xs = rng.normal(size=(40, 3))
        labels = (xs.sum(axis=1) > 0).astype(int)
        for _ in range(30):
            batch = rng.choice(len(xs), size=8, replace=False)
            xb, zb = xs[batch], labels[batch]
            nodes = {k: nn.parameter(v, name=k) for k, v in params.items()}
            h = nn.constant(xb)
            for k, act in enumerate(mlp.activations):
                h = references.matmul(h, nodes[f"W{k}"]) + nodes[f"b{k}"]
                if act == "relu":
                    h = references.relu_n(h)
            loss = -nn.gather_logprob(nn.log_softmax_n(h), zb).mean()
            grads = nn.backward(loss)
            params, state = nn.sgd_step(params, grads, state)
        return params

    a = train(123)
    b = train(123)
    for name in a:
        assert np.array_equal(a[name], b[name])


# ---------------------------------------------------------------------------
# a worker beside the caller
# ---------------------------------------------------------------------------


def test_training_diverged_survives_pickling():
    # a forked worker hands its divergence back pickled; the default reduce
    # would rebuild the message from the message
    err = nn.TrainingDiverged(5, "training loss non-finite at step 5 "
                                 "(run 2: beta=0.1, seed=3)", 2)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is nn.TrainingDiverged
    assert (back.step, back.run, str(back)) == (5, 2, str(err))
    plain = pickle.loads(pickle.dumps(nn.TrainingDiverged(4)))
    assert (plain.step, plain.run, str(plain)) == (
        4, 0, "training loss non-finite at step 4")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """The CPU count ``nn.beside`` sees: 1 calls in process, 2 forks."""
    if request.param > 1 and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(nn, "_usable_cpus", lambda: request.param)
    return request.param


def test_beside_returns_the_result_or_raises_the_error_at_the_join(cpus):
    caller = os.getpid()
    with nn.beside(lambda: (os.getpid() != caller, np.arange(3.0))) as join:
        forked, values = join()
    assert forked == (cpus > 1) == nn._worker_available()
    assert np.array_equal(values, np.arange(3.0))

    def diverge():
        raise nn.TrainingDiverged(3, "training loss non-finite at step 3 "
                                     "(run 1: beta=0.5, seed=2)", 1)

    with nn.beside(diverge) as join:
        with pytest.raises(nn.TrainingDiverged) as err:
            join()
    assert (err.value.step, err.value.run, str(err.value)) == (
        3, 1, "training loss non-finite at step 3 (run 1: beta=0.5, seed=2)")
    _no_child_left()


def test_beside_kills_the_worker_of_a_block_that_raises(cpus):
    started = time.perf_counter()
    with pytest.raises(LookupError):
        with nn.beside(lambda: time.sleep(60) if cpus > 1 else None):
            raise LookupError("the caller's own work failed")
    assert time.perf_counter() - started < 30
    _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_beside_reports_a_worker_without_a_usable_outcome(monkeypatch):
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 2)
    with nn.beside(lambda: (lambda: None)) as join:  # a result that will not pickle
        with pytest.raises(RuntimeError, match="did not pickle"):
            join()
    with nn.beside(lambda: os._exit(3)) as join:
        with pytest.raises(RuntimeError, match="no result"):
            join()
    _no_child_left()


def test_beside_keeps_blas_to_one_thread_in_both_processes(cpus):
    blas = nn._blas_threads()
    if blas is None:
        pytest.skip("NumPy's BLAS is not an OpenBLAS")
    get, put = blas
    before = get()
    put(2)
    try:
        with nn.beside(get) as join:
            caller = get()
            worker = join()
        assert (worker, caller, get()) == (1, 1, 2)
    finally:
        put(before)
