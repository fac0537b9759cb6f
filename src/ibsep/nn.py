"""Dense-tensor reverse-mode autodiff, MLPs, losses, and SGD with momentum.

A deliberately small engine: values are float64 numpy arrays wrapped in
:class:`Node`, every operation records a vector-Jacobian product, and
``backward`` walks the graph once in reverse topological order. That is
enough to train the small stochastic encoders and recurrent filters in
this library while staying simple enough to check against central finite
differences.

Shape conventions: activations are 2-D ``(batch, features)``; weight
matrices are ``(d_in, d_out)`` and act on the right (``x @ W + b``).
Each layer of ``forward`` is one :func:`affine_n` node. Independent runs
can share one graph by stacking on a leading run axis: activations
``(R, batch, features)``, weights ``(R, d_in, d_out)`` and biases
``(R, 1, d_out)``. The layer nodes then multiply run by run, each gradient
keeps the run axis of its operand, and the losses reduce per run.
:func:`fit_sweep` trains such a stack of runs and hands each run back.
The runs of a sweep may differ in β, seed and learning rate: the
optimizer then holds one schedule per run, and :func:`sgd_step` scales
each run's slice of a stacked parameter by that run's rate.

``backward`` copies a gradient only for a parameter leaf, so that every
gradient it returns is an array of its own. An interior node takes its
first contribution as its VJP returns it, which may be an array another
node also holds; that is safe because sums are formed out of place and no
VJP or optimizer step writes into a gradient.

A recurrence is one node too: :func:`scan_n` runs every step of
φ_{t+1} = net(φ_t ‖ inputs_t) forward, and its truncated BPTT in one
backward visit, with the bits of the per-step chain of layer nodes.
:func:`fit` pins glibc's heap thresholds for the process, so that
freeing one step's graph does not hand pages back to the kernel which
the next step would fault in again; where there is no ``mallopt`` this
does nothing.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Node",
    "constant",
    "parameter",
    "affine_n",
    "scan_n",
    "log_softmax_n",
    "gather_logprob",
    "clip_n",
    "kl_to_standard_normal_n",
    "gaussian_bottleneck_n",
    "parameters",
    "param_group",
    "MLP",
    "OptimizerState",
    "TrainingDiverged",
    "init_mlp",
    "forward",
    "backward",
    "sgd_step",
    "fit",
    "TrainedSweep",
    "sweep_configs",
    "stack_runs",
    "unstack_runs",
    "fit_sweep",
    "LOG_STD_MIN",
    "LOG_STD_MAX",
]

# Clamp for the log-std outputs of every diagonal-Gaussian head.
LOG_STD_MIN = -6.0
LOG_STD_MAX = 2.0
# Floor for a zero probability inside a log loss.
_PROB_FLOOR = 1e-300
# glibc's mallopt parameters, and the thresholds fit pins them to.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_TRIM_BYTES, _HEAP_MMAP_BYTES = 256 << 20, 32 << 20


class TrainingDiverged(RuntimeError):
    """Raised when a training loss or gradient becomes non-finite.

    Carries the step and the index of the first run that diverged: its
    entry on the run axis of stacked losses, and 0 for a scalar loss.
    """

    def __init__(self, step, message=None, run=0):
        self.step = step
        self.run = run
        super().__init__(message or f"training loss non-finite at step {step}")


# ---------------------------------------------------------------------------
# graph nodes
# ---------------------------------------------------------------------------


class Node:
    """One vertex of the computation graph.

    Holds the cached forward value, references to parent nodes, and one
    vector-Jacobian product per parent. After ``backward`` the ``grad``
    field of every reachable node is populated.
    """

    __slots__ = ("value", "parents", "vjps", "grad", "op", "name")

    def __init__(self, value, parents=(), vjps=(), op="leaf", name=None):
        self.value = np.asarray(value, dtype=float)
        self.parents = tuple(parents)
        self.vjps = tuple(vjps)
        self.grad = None
        self.op = op
        self.name = name

    def __repr__(self):
        return f"Node(op={self.op}, shape={self.value.shape}, name={self.name})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return _binary(self, other, np.add, "add",
                       lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, np.subtract, "sub",
                       lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return _wrap(other) - self

    def __mul__(self, other):
        return _binary(self, other, np.multiply, "mul",
                       lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __neg__(self):
        return Node(-self.value, (self,), (lambda g: -g,), op="neg")

    def exp(self):
        out_val = np.exp(self.value)
        return Node(out_val, (self,), (lambda g: g * out_val,), op="exp")

    def square(self):
        return self * self

    def sum(self, axis=None):
        """Sum over ``axis`` (an int or tuple; all axes by default)."""
        val = self.value
        shape, kept = val.shape, _kept_shape(val, axis)

        def vjp(g):
            full = np.empty(shape)
            full[...] = g.reshape(kept)
            return full

        return Node(val.sum(axis=axis), (self,), (vjp,), op="sum")

    def mean(self, axis=None):
        """Mean over ``axis`` (an int or tuple; all axes by default)."""
        val = self.value
        out = val.mean(axis=axis)
        n = val.size // out.size
        shape, kept = val.shape, _kept_shape(val, axis)

        def vjp(g):
            full = np.empty(shape)
            full[...] = (g / n).reshape(kept)
            return full

        return Node(out, (self,), (vjp,), op="mean")

    def __getitem__(self, key):
        val = self.value

        def vjp(g, key=key, shape=val.shape):
            full = np.zeros(shape)
            full[key] = g
            return full

        return Node(val[key], (self,), (vjp,), op="slice")


def _wrap(x):
    return x if isinstance(x, Node) else Node(np.asarray(x, dtype=float))


def _kept_shape(value, axis):
    """``value``'s shape with each axis that ``axis`` reduces (all for None) as 1."""
    ndim = value.ndim
    axes = (range(ndim) if axis is None
            else {a % ndim for a in (axis if isinstance(axis, tuple) else (axis,))})
    return tuple(1 if i in axes else size for i, size in enumerate(value.shape))


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _binary(a, b, fn, op, vjp_a, vjp_b):
    a, b = _wrap(a), _wrap(b)
    av, bv = a.value, b.value
    out = fn(av, bv)
    return Node(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(vjp_a(g, av, bv), av.shape),
            lambda g: _unbroadcast(vjp_b(g, av, bv), bv.shape),
        ),
        op=op,
    )


def constant(value) -> Node:
    return Node(value, op="const")


def parameter(value, name=None) -> Node:
    return Node(value, op="param", name=name)


def parameters(values: dict, prefix: str = "") -> dict:
    """Named parameter leaves for ``values``, keyed like ``values``.

    Leaf ``key`` is named ``prefix.key`` (plain ``key`` without a prefix),
    so ``backward`` reports its gradient under that flat name.
    """
    dot = f"{prefix}." if prefix else ""
    return {k: parameter(v, name=dot + k) for k, v in values.items()}


def param_group(params: dict, prefix: str) -> dict:
    """The ``prefix.name`` entries of a flat parameter dict, keyed by ``name``."""
    return {k.split(".", 1)[1]: v for k, v in params.items()
            if k.startswith(prefix + ".")}


def affine_n(x: Node, W: Node, b: Node, relu=False) -> Node:
    """One layer, ``x @ W + b`` and then a ReLU if ``relu`` is set, as one node.

    Value and gradients are bit for bit those of the unfused chain of a
    matmul node, an add and a ReLU node (the references in
    ``tests/references.py``), with ``b`` broadcast over the rows of
    ``x @ W``. A backward visit masks the incoming gradient once and keeps
    it until the next.
    """
    x, W, b = _wrap(x), _wrap(W), _wrap(b)
    xv, Wv, bv = x.value, W.value, b.value
    out, last = xv @ Wv + bv, [None, None]  # the last gradient and its gp
    if relu:
        mask = out > 0
        out = _relu(out)

    def gp(g):
        if relu and last[0] is not g:
            last[:] = g, g * mask
        return last[1] if relu else g

    return Node(out, (x, W, b), (
        lambda g: _unbroadcast(gp(g) @ np.swapaxes(Wv, -1, -2), xv.shape),
        lambda g: _unbroadcast(np.swapaxes(xv, -1, -2) @ gp(g), Wv.shape),
        lambda g: _unbroadcast(gp(g), bv.shape)), op="affine")


def scan_n(phi0: Node, layers, inputs, tbptt: int) -> Node:
    """A recurrence φ_{t+1} = net(φ_t ‖ inputs_t) and its truncated BPTT, as one node.

    ``layers`` lists the network's ``(W, b, relu)`` layers, ``inputs`` is
    the constant (..., B, T, e) block of per-step exogenous columns, and
    ``phi0`` broadcasts to the (..., B, 2d) first statistic. The value is
    the time-major stack of φ_0..φ_{T-1}, shape (..., T·B, 2d), row t·B + b
    holding trajectory b at step t. No gradient flows from φ_t into the
    step before it when t is a multiple of ``tbptt``.

    Value and gradients are bit for bit those of the unfused chain: per
    step a concat node of φ_t and inputs_t and one :func:`affine_n` per
    layer, a detached copy after every ``tbptt``-th step, and one concat
    node of the φ_t (the references in ``tests/references.py``). A
    backward visit runs the BPTT once and keeps the parents' gradients
    until the next. Each parameter's gradient is summed in the
    order in which ``backward`` sums it over the unfused chain: window by
    window in time order, and in descending t within a window.
    """
    phi0 = _wrap(phi0)
    layers = [(_wrap(W), _wrap(b), relu) for W, b, relu in layers]
    inputs = np.asarray(inputs, dtype=float)
    *lead, B, T, _ = inputs.shape
    width = phi0.value.shape[-1]
    phi = np.zeros((*lead, B, width)) + phi0.value
    phis, tape = [phi], {}  # tape[t]: each layer's input and ReLU mask at step t
    for t in range(T - 1):  # φ_T is never read
        h, kept = np.concatenate([phi, inputs[..., t, :]], axis=-1), []
        for W, b, relu in layers:
            x, h, mask = h, h @ W.value + b.value, None
            if relu:
                mask = h > 0
                h = _relu(h)
            kept.append((x, mask))
        if (t + 1) % tbptt:  # otherwise φ_{t+1} is detached
            tape[t] = kept
        phi = h
        phis.append(phi)
    last = [None, None]  # the last gradient and the parents' gradients from it

    def bptt(g):
        sums = [None] * (2 * len(layers))  # W0, b0, W1, b1, ...
        for start in range(0, T, tbptt):
            carry = None  # φ_t's gradient through step t, from φ_{t+1}
            for t in range(min(start + tbptt, T) - 1, start - 1, -1):
                gt = g[..., t * B:(t + 1) * B, :]
                if carry is not None:
                    gt = gt + carry
                if t == 0:
                    first = gt
                if t == start:
                    continue
                for i in range(len(layers) - 1, -1, -1):  # back through step t-1
                    W, _, relu = layers[i]
                    x, mask = tape[t - 1][i]
                    gp = gt * mask if relu else gt
                    for j, contrib in ((2 * i, np.swapaxes(x, -1, -2) @ gp), (2 * i + 1, gp)):
                        contrib = _unbroadcast(contrib, parents[1 + j].value.shape)
                        sums[j] = contrib if sums[j] is None else sums[j] + contrib
                    gt = _unbroadcast(gp @ np.swapaxes(W.value, -1, -2), x.shape)
                carry = gt[..., :width]
        return [_unbroadcast(first, phi0.value.shape)] + [
            np.zeros_like(p.value) if s is None else s for p, s in zip(parents[1:], sums)]

    def grads(g):
        if last[0] is not g:
            last[:] = g, bptt(g)
        return last[1]

    parents = [phi0] + [p for W, b, _ in layers for p in (W, b)]
    return Node(np.concatenate(phis, axis=-2), parents,
                [lambda g, i=i: grads(g)[i] for i in range(len(parents))], op="scan")


def _relu(x):
    """``np.where(x > 0, x, 0.0)`` bit for bit, at a fraction of its cost.

    ``fmax`` maps NaN to 0.0 as ``where`` does, but may keep a -0.0 input
    (NumPy's scalar loop does, its vector loop does not); adding +0.0
    turns that -0.0 into +0.0 and leaves every other value as it is.
    """
    out = np.fmax(x, 0.0)
    out += 0.0
    return out


def log_softmax_n(x: Node) -> Node:
    """Numerically stable log-softmax along the last axis (fused path)."""
    x = _wrap(x)
    val = x.value
    shifted = val - val.max(axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    out = shifted - logz
    soft = np.exp(out)

    def vjp(g):
        return g - soft * g.sum(axis=-1, keepdims=True)

    return Node(out, (x,), (vjp,), op="log_softmax")


def gather_logprob(logp: Node, labels) -> Node:
    """Pick ``logp[..., labels[...]]``: one entry of the last axis per row.

    ``labels`` has the shape of the leading axes of ``logp``, so a
    (B, K) log-prob takes (B,) labels and a run-stacked (R, B, K) one
    takes (R, B) labels; the result has the labels' shape.
    """
    logp = _wrap(logp)
    labels = np.asarray(labels, dtype=int)
    shape = logp.value.shape
    if labels.shape != shape[:-1]:
        raise ValueError(f"labels of shape {labels.shape} do not index the rows "
                         f"of a log-prob of shape {shape}")
    picked = np.take_along_axis(logp.value, labels[..., None], axis=-1)[..., 0]
    # the flat index of each picked entry; take_along_axis has bounded the labels
    flat = np.arange(0, logp.value.size, shape[-1]) + (labels % shape[-1]).ravel()

    def vjp(g):
        full = np.zeros(shape)
        full.reshape(-1)[flat] = g.reshape(-1)
        return full

    return Node(picked, (logp,), (vjp,), op="gather")


def clip_n(x: Node, lo: float, hi: float) -> Node:
    """Hard clip; gradient passes only where the input is inside [lo, hi]."""
    x = _wrap(x)
    val = x.value
    mask = (val >= lo) & (val <= hi)
    return Node(np.clip(val, lo, hi), (x,), (lambda g: g * mask,), op="clip")


def kl_to_standard_normal_n(mu: Node, log_std: Node) -> Node:
    """Row mean of KL(N(mu, diag exp(2 log_std)) || N(0, I)).

    Rows are on axis -2; any leading (run) axes are kept, one mean per run.
    """
    var = (log_std * 2.0).exp()
    total = (0.5 * (mu * mu + var - 1.0) - log_std).sum(axis=(-2, -1))
    return total * (1.0 / mu.value.shape[-2])


def gaussian_bottleneck_n(stats: Node, eps) -> tuple:
    """The (x, kl) nodes of a diagonal-Gaussian bottleneck with statistics ``stats``.

    The last axis of ``stats`` holds μ and then the log-std, which is
    clipped to [LOG_STD_MIN, LOG_STD_MAX]; x = μ + exp(log-std)·ε is the
    reparametrized sample for the standard-normal draws ``eps`` (shaped
    like μ), and kl is :func:`kl_to_standard_normal_n` of μ and the
    clipped log-std.
    """
    d = stats.value.shape[-1] // 2
    mu = stats[..., :d]
    log_std = clip_n(stats[..., d:], LOG_STD_MIN, LOG_STD_MAX)
    return mu + log_std.exp() * constant(eps), kl_to_standard_normal_n(mu, log_std)


def _toposort(root: Node):
    """The nodes reachable from ``root``, each after all of its parents.

    A depth-first walk; ``expanded[i]`` tells whether ``stack[i]`` was
    pushed back to be emitted once its parents are, or is still to visit.
    """
    order, seen, stack, expanded = [], set(), [root], [False]
    while stack:
        node = stack.pop()
        if expanded.pop():
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append(node)
        expanded.append(True)
        for p in node.parents:
            if p not in seen:
                stack.append(p)
                expanded.append(False)
    return order  # parents before children


def backward(output: Node) -> dict:
    """Reverse-mode gradients of a scalar node.

    Returns a dict mapping each reachable named parameter node's name to
    its gradient array, which is also that node's ``grad`` field and is
    no other node's. Only parameter leaves keep a gradient: an interior
    node's is freed once it has been passed to its parents, and a
    constant leaf gets none, so the gradients alive at once are a
    frontier of the graph, not all of it.
    """
    if output.value.size != 1:
        raise ValueError(f"backward needs a scalar output, got shape {output.value.shape}")
    order = _toposort(output)
    for node in order:
        node.grad = None
    output.grad = np.ones_like(output.value)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.parents and parent.op != "param":
                continue
            contrib = vjp(node.grad)
            if parent.grad is not None:
                parent.grad = parent.grad + contrib
            elif parent.parents:  # a VJP may hand on its own input
                parent.grad = contrib
            else:  # a parameter keeps an array of its own
                parent.grad = np.array(contrib, dtype=float, copy=True)
        if node.parents:
            node.grad = None
    grads = {}
    for node in order:
        if node.op == "param" and node.name is not None:
            grads[node.name] = (
                np.zeros_like(node.value) if node.grad is None else node.grad
            )
    return grads


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

_NONLINEARITIES = ("relu", "identity")


@dataclass(frozen=True)
class MLP:
    """Feedforward network: widths d_0..d_K, weights (d_{k-1} x d_k), biases.

    ``activations[k]`` names the nonlinearity applied after layer k+1.
    """

    widths: tuple
    weights: tuple  # of ndarray (d_in, d_out)
    biases: tuple  # of ndarray (d_out,)
    activations: tuple  # of str

    def __post_init__(self):
        K = len(self.widths) - 1
        if not (len(self.weights) == len(self.biases) == len(self.activations) == K):
            raise ValueError("layer count mismatch")
        for k in range(K):
            if self.weights[k].shape != (self.widths[k], self.widths[k + 1]):
                raise ValueError(f"weight {k} has shape {self.weights[k].shape}")
            if self.biases[k].shape != (self.widths[k + 1],):
                raise ValueError(f"bias {k} has shape {self.biases[k].shape}")
            if self.activations[k] not in _NONLINEARITIES:
                raise ValueError(f"unknown nonlinearity {self.activations[k]!r}")

    def params(self) -> dict:
        out = {}
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"W{k}"] = w
            out[f"b{k}"] = b
        return out

    def with_params(self, params: dict) -> "MLP":
        K = len(self.widths) - 1
        weights = tuple(params[f"W{k}"] for k in range(K))
        biases = tuple(params[f"b{k}"] for k in range(K))
        return replace(self, weights=weights, biases=biases)


def init_mlp(widths, activations, rng) -> MLP:
    """Seeded init: weights uniform in ±sqrt(6/(d_in+d_out)), biases zero."""
    widths = tuple(int(w) for w in widths)
    weights, biases = [], []
    for d_in, d_out in zip(widths[:-1], widths[1:]):
        bound = math.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return MLP(widths, tuple(weights), tuple(biases), tuple(activations))


def forward(mlp: MLP, x, param_nodes=None) -> Node:
    """Run the network, recording the graph.

    ``x`` may be 1-D (a single input; output is 1-D) or 2-D ``(batch, d_0)``.
    ``param_nodes`` lets callers supply existing parameter nodes (e.g. when
    weights are themselves computed by the graph); by default fresh named
    parameter leaves are created from the MLP's arrays.
    """
    x_arr = x.value if isinstance(x, Node) else np.asarray(x, dtype=float)
    single = x_arr.ndim == 1
    if x_arr.shape[-1] != mlp.widths[0]:
        raise ValueError(
            f"input has {x_arr.shape[-1]} features, expected {mlp.widths[0]}"
        )
    h = x if isinstance(x, Node) else constant(np.atleast_2d(x_arr))
    if single and isinstance(x, Node):
        raise ValueError("node inputs must be batched (2-D)")
    if param_nodes is None:
        param_nodes = parameters(mlp.params())
    for k, act in enumerate(mlp.activations):
        h = affine_n(h, param_nodes[f"W{k}"], param_nodes[f"b{k}"], act == "relu")
    if single:
        h = h[0, :]
    return h


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def _rate(schedule, step) -> float:
    """The rate of ``schedule``, a float or a callable of the step, at ``step``."""
    return float(schedule(step) if callable(schedule) else schedule)


@dataclass
class OptimizerState:
    """Heavy-ball SGD state.

    ``schedule`` maps the (0-based) step counter to a positive learning
    rate; a bare float is treated as a constant schedule. A tuple of such
    schedules gives each of R runs stacked on a leading axis its own rate.
    """

    schedule: object = 0.01
    momentum: float = 0.0
    step: int = 0
    buffers: dict = field(default_factory=dict)

    def learning_rate(self):
        """This step's rate: a float, or an (R,) array for a tuple of schedules.

        A rate that is not positive (NaN included) is a ValueError, which
        names its run when there is a run axis.
        """
        if isinstance(self.schedule, tuple):
            lr = np.array([_rate(s, self.step) for s in self.schedule])
            bad = np.flatnonzero(~(lr > 0))
            if bad.size:
                raise ValueError(f"learning rate of run {bad[0]} must be positive, "
                                 f"got {float(lr[bad[0]])!r}")
            return lr
        lr = _rate(self.schedule, self.step)
        if not lr > 0:
            raise ValueError(f"learning rate must be positive, got {lr!r}")
        return lr


def sgd_step(params: dict, grads: dict, state: OptimizerState):
    """One descent step: buffer ← momentum·buffer + grad; param ← param − η·buffer.

    Functional: returns ``(new_params, new_state)`` without touching the
    inputs. An (R,) rate scales run r's slice ``param[r]`` by ``η[r]``, the
    same product as a lone run's step with that rate.
    """
    lr = state.learning_rate()
    rates = {}  # the rate shaped for each parameter rank
    new_params, new_buffers = {}, {}
    for name, value in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(value)
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        buf = state.buffers.get(name)
        buf = g.copy() if buf is None else state.momentum * buf + g
        rate = rates.get(value.ndim)
        if rate is None:
            rate = rates[value.ndim] = np.reshape(
                lr, np.shape(lr) + (1,) * (value.ndim - np.ndim(lr)))
        new_params[name] = value - rate * buf
        new_buffers[name] = buf
    return new_params, replace(state, step=state.step + 1, buffers=new_buffers)


def _libc_mallopt():
    """The C library's ``mallopt(int, int) -> int``, or None where there is none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


def _pin_heap():
    """Fix glibc's heap trim and mmap thresholds for the whole process.

    By default glibc hands the top of the heap back to the kernel whenever
    more than 128 KiB of it is free, and it moves the mmap threshold as
    blocks come and go. Whether freeing one step's graph then returns pages
    that the next step faults back in depends on the order of the graph's
    allocations. With the trim threshold far above a training step's heap
    and the mmap threshold at the ceiling glibc's own adjustment reaches
    on 64-bit hosts, the heap keeps its pages from step to step whatever
    that order is. Idempotent; a no-op without ``mallopt``.
    """
    mallopt = _libc_mallopt()
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_BYTES)
        mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_BYTES)


def fit(params: dict, loss_fn, state: OptimizerState, steps: int):
    """Descend ``loss_fn`` for ``steps`` SGD steps; returns ``(params, curve)``.

    ``loss_fn(params, step)`` builds the step's graph over parameter leaves
    named like the keys of ``params`` and returns ``(total, record)``: the
    node to descend and a dict of values to log. ``curve[step]`` is
    ``{"step": step, "loss": total, **record}``. ``total`` is a scalar, or
    an (R,) vector of the losses of R independent runs whose parameters are
    stacked on a leading run axis. fit descends its sum, which gives each
    run exactly its own gradient, and logs the per-run list. Overflow
    while building and differentiating the graph is not an error in itself;
    a non-finite loss or gradient raises :class:`TrainingDiverged` with the
    step and the first run that diverged. It first pins the heap's
    thresholds (:func:`_pin_heap`), so that the steps reuse its pages.
    """
    _pin_heap()
    curve = []
    for step in range(steps):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            total, record = loss_fn(params, step)
            losses = total.value
            finite = np.isfinite(losses)
            if not finite.all():
                raise TrainingDiverged(step, run=int(np.argmax(~finite)))
            grads = backward(total.sum())
        del total  # only one step's graph is alive at a time
        curve.append({"step": step, "loss": losses.tolist(), **record})
        try:
            params, state = sgd_step(params, grads, state)
        except FloatingPointError as err:
            bad = np.zeros(losses.shape, dtype=bool)
            for g in grads.values():
                bad |= ~np.isfinite(g.reshape(*losses.shape, -1)).all(axis=-1)
            raise TrainingDiverged(step, run=int(np.argmax(bad))) from err
    return params, curve


# ---------------------------------------------------------------------------
# sweeps: independent runs stacked on a leading run axis
# ---------------------------------------------------------------------------


@dataclass
class TrainedSweep:
    """The runs of a sweep trained as one graph.

    ``runs[r]`` is run r's trained model and ``curves[r]`` its own curve.
    ``curve`` is the stacked curve: one row per training step, whose
    logged values (all but ``step``) are per-run lists.
    """

    runs: tuple
    curves: list
    curve: list


def sweep_configs(configs) -> tuple:
    """The configs of a sweep, given as a list or tuple, as a tuple.

    They may differ only in ``beta``, ``seed`` and ``learning_rate``, so
    every run trains for the same steps on the same batch shape with the
    same momentum; anything else, an empty sequence or a bare config is a
    ValueError.
    """
    if not isinstance(configs, (list, tuple)):
        raise ValueError("a sweep takes a list or tuple of configs, "
                         f"got {type(configs).__name__}")
    configs = tuple(configs)
    first = configs[0] if configs else None
    if not configs or any(replace(cfg, beta=first.beta, seed=first.seed,
                                  learning_rate=first.learning_rate) != first
                          for cfg in configs):
        raise ValueError("a sweep needs configs that differ only in beta, seed "
                         "and learning_rate")
    return configs


def stack_runs(params: list) -> dict:
    """Per-run parameter dicts -> one dict with a leading run axis.

    Vectors (biases) stack as (R, 1, ·), so they broadcast over each run's
    rows.
    """
    return {key: np.stack([p[key] if p[key].ndim > 1 else p[key][None]
                           for p in params])
            for key in params[0]}


def unstack_runs(stacked: dict, like: dict) -> list:
    """The inverse of :func:`stack_runs`: per-run dicts shaped like ``like``."""
    runs = len(next(iter(stacked.values())))
    return [{key: value[r].reshape(like[key].shape) for key, value in stacked.items()}
            for r in range(runs)]


def fit_sweep(configs, params: list, loss_fn):
    """Train the runs of ``configs`` as one graph; ``(params, curves, curve)``.

    ``configs`` is a sweep as :func:`sweep_configs` returns it and
    ``params[r]`` holds run r's parameter arrays. :func:`fit` descends
    them stacked on a leading run axis for ``configs[0].steps`` steps, with
    the configs' common momentum and each run's own ``learning_rate`` (a
    float or a callable of the step), and ``loss_fn`` gets the stacked
    dict and returns (R,) losses. Returns each run's trained parameters,
    shaped like ``params[r]``, each run's own curve and the stacked
    curve. A divergence raises
    :class:`TrainingDiverged` naming the step, the run and its β and seed.
    """
    state = OptimizerState(schedule=tuple(cfg.learning_rate for cfg in configs),
                           momentum=configs[0].momentum)
    try:
        stacked, curve = fit(stack_runs(params), loss_fn, state, configs[0].steps)
    except TrainingDiverged as err:
        cfg = configs[err.run]
        raise TrainingDiverged(
            err.step, f"training loss non-finite at step {err.step} "
                      f"(run {err.run}: beta={cfg.beta!r}, seed={cfg.seed})",
            err.run) from err
    curves = [[{key: value if key == "step" else value[r] for key, value in row.items()}
               for row in curve] for r in range(len(params))]
    return unstack_runs(stacked, params[0]), curves, curve
