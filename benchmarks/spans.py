"""In-memory spans around the public functions of the ibsep modules.

Every intra-package call in ibsep goes through a module attribute
(``from . import nn`` then ``nn.backward(...)``), and a module's own calls
to its functions read the same module namespace. Replacing an attribute
with a timing wrapper therefore sees every call, without changing a file
of the package. :class:`Tracer` installs the wrappers for the length of a
traced pass and restores the originals afterwards, so untraced passes run
the unmodified functions.

A span is ``[name, start, end, parent, pass_id, count]``: ``parent`` is the
index of the enclosing span (or -1), and ``count`` is a work counter read
from the call's arguments or result (graph nodes, iterations, steps, tree
nodes), or None. Reading a counter can itself cost time (walking a
graph), so it is recorded as a ``trace.count`` span beside the call,
which keeps it out of both the call's and its caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from statistics import median

COUNT_SPAN = "trace.count"


def _graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through ``parents`` (root included)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# module -> {function: work counter or None}. The functions are the layer
# boundaries the benchmark reports; per-step helpers (Kalman predict/update, Node
# arithmetic, belief updates) stay inside their caller's self time.
TARGETS = {
    "nn": {
        "forward": None,
        "backward": lambda args, kwargs, result: _graph_nodes(
            kwargs["output"] if "output" in kwargs else args[0]),
        "sgd_step": None,
        "init_mlp": None,
    },
    "lgss": {
        "simulate": None,
        "run_filter": None,
        "batch_posterior_oracle": None,
        "riccati_iterate": lambda args, kwargs, result: int(
            kwargs["n_iters"] if "n_iters" in kwargs else args[2]),
        "random_stable_model": None,
    },
    "seprep": {
        "train_filter": lambda args, kwargs, result: len(result.curve),
        "evaluate_vs_kalman": lambda args, kwargs, result: len(result["records"]),
        "hmm_exact_reference": lambda args, kwargs, result: len(result["prefix_probs"]),
        "nstep_bound_check": None,
        "predictive_nll": None,
        "init_sep_filter": None,
    },
    "static_ib": {
        "train_ib": lambda args, kwargs, result: len(result.curve),
        "train_weight_posterior": None,
        "measure_invariance": None,
        "stacked_bottleneck_experiment": None,
        "flatness_diagnostic": None,
        "make_nuisance_task": None,
        "random_separated_encoder": None,
        "info_bound_exact": None,
        "eval_accuracy": None,
    },
    "control_sep": {
        "brute_force_q": lambda args, kwargs, result: len(result),
        "verify_separation": None,
        "belief_policy": None,
        "policy_return": None,
        "optimal_return": None,
        "reward_sufficiency_check": None,
        "exact_belief_representation": None,
        "random_pomdp": None,
    },
    "info": {
        "mi_identity_check": None,
        "kl_gaussian": None,
        "mutual_information": None,
        "entropy": None,
        "kl_discrete": None,
        "cross_entropy_discrete": None,
        "gaussian_bin_masses": None,
    },
    "harness": {
        "run_gradcheck": None,
        "run_info": None,
        "run_kalman": None,
        "run_static_ib": None,
        "run_seprep": None,
        "run_control_sep": None,
    },
}


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.pass_id = -1
        self._stack = []

    @contextlib.contextmanager
    def installed(self, modules: dict, pass_id: int):
        """Wrap every TARGETS function of ``modules`` (name -> module)."""
        saved = []
        self.pass_id = pass_id
        try:
            for mod_name, functions in TARGETS.items():
                module = modules[mod_name]
                for fn_name, counter in functions.items():
                    original = getattr(module, fn_name)
                    saved.append((module, fn_name, original))
                    setattr(module, fn_name,
                            self._wrap(original, f"{mod_name}.{fn_name}", counter))
            yield self
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)
            self.pass_id = -1

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                started = clock()
                span[5] = counter(args, kwargs, result)
                spans.append([COUNT_SPAN, started, clock(), parent,
                              self.pass_id, None])
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, pass_id, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id,
                                     "count": count}) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def pass_layers(spans, pass_id: int, wall_s: float) -> dict:
    """Per-function totals of one traced pass plus the pass-level shares.

    Returns ``{"by_name": {name: {calls, total_s, self_s, count, counts}},
    "unattributed_share": ...}``. Unattributed time is the
    pass wall time, less tracing's own counter time, that no module
    function other than a ``harness`` battery covers: battery loop bodies
    and graph arithmetic written inline in the battery.
    """
    selves = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "count": 0, "counts": []})
    count_s = 0.0
    for span, own in zip(spans, selves):
        name, start, end, _, span_pass, count = span
        if span_pass != pass_id:
            continue
        if name == COUNT_SPAN:
            count_s += end - start
            continue
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        if count is not None:
            entry["count"] += count
            entry["counts"].append(count)
    attributed = sum(e["self_s"] for n, e in by_name.items()
                     if not n.startswith("harness."))
    program_s = wall_s - count_s
    return {
        "by_name": dict(by_name),
        "unattributed_share": (program_s - attributed) / program_s,
    }


def _metric(span, key, unit, scale=None):
    """(unit, reader of ``key`` of ``span`` in a pass table).

    With ``scale``, the reader divides by the span's work counter. The
    key ``median_count`` reads the median counter of one call. A span the
    pass never entered reads 0.
    """
    def read(table):
        entry = table.get(span)
        if entry is None:
            return 0
        if key == "median_count":
            return int(median(entry["counts"]))
        if scale is None:
            return entry[key]
        return entry[key] * scale / entry["count"] if entry["count"] else 0.0
    return unit, read


LAYER_METRICS = {
    "nn.graph_nodes_per_step": _metric("nn.backward", "median_count", "count"),
    "nn.backward.calls": _metric("nn.backward", "calls", "count"),
    "nn.backward.self_s": _metric("nn.backward", "self_s", "s"),
    "nn.backward.us_per_node": _metric("nn.backward", "self_s", "us", 1e6),
    "nn.forward.calls": _metric("nn.forward", "calls", "count"),
    "nn.forward.self_s": _metric("nn.forward", "self_s", "s"),
    "nn.sgd_step.self_s": _metric("nn.sgd_step", "self_s", "s"),
    "seprep.train_filter.calls": _metric("seprep.train_filter", "calls", "count"),
    "seprep.train_filter.self_s": _metric("seprep.train_filter", "self_s", "s"),
    "seprep.step_ms": _metric("seprep.train_filter", "total_s", "ms", 1e3),
    "seprep.evaluate_vs_kalman.self_s": _metric("seprep.evaluate_vs_kalman", "self_s", "s"),
    "seprep.eval_steps": _metric("seprep.evaluate_vs_kalman", "count", "count"),
    "seprep.hmm_exact_reference.self_s": _metric("seprep.hmm_exact_reference", "self_s", "s"),
    "seprep.hmm_prefix_nodes": _metric("seprep.hmm_exact_reference", "count", "count"),
    "seprep.nstep_bound_check.self_s": _metric("seprep.nstep_bound_check", "self_s", "s"),
    "lgss.simulate.calls": _metric("lgss.simulate", "calls", "count"),
    "lgss.simulate.self_s": _metric("lgss.simulate", "self_s", "s"),
    "lgss.riccati_iterate.self_s": _metric("lgss.riccati_iterate", "self_s", "s"),
    "lgss.riccati_iters": _metric("lgss.riccati_iterate", "count", "count"),
    "lgss.riccati_us_per_iter": _metric("lgss.riccati_iterate", "self_s", "us", 1e6),
    "lgss.run_filter.calls": _metric("lgss.run_filter", "calls", "count"),
    "lgss.run_filter.self_s": _metric("lgss.run_filter", "self_s", "s"),
    "lgss.batch_posterior_oracle.self_s": _metric("lgss.batch_posterior_oracle", "self_s", "s"),
    "control_sep.brute_force_q.self_s": _metric("control_sep.brute_force_q", "self_s", "s"),
    "control_sep.history_nodes": _metric("control_sep.brute_force_q", "count", "count"),
    "control_sep.verify_separation.self_s": _metric("control_sep.verify_separation", "self_s", "s"),
    "control_sep.policy_return.self_s": _metric("control_sep.policy_return", "self_s", "s"),
    "control_sep.reward_sufficiency_check.self_s":
        _metric("control_sep.reward_sufficiency_check", "self_s", "s"),
    "static_ib.train_ib.calls": _metric("static_ib.train_ib", "calls", "count"),
    "static_ib.train_ib.self_s": _metric("static_ib.train_ib", "self_s", "s"),
    "static_ib.step_ms": _metric("static_ib.train_ib", "total_s", "ms", 1e3),
    "static_ib.train_weight_posterior.self_s":
        _metric("static_ib.train_weight_posterior", "self_s", "s"),
    "static_ib.measure_invariance.calls": _metric("static_ib.measure_invariance", "calls", "count"),
    "static_ib.measure_invariance.self_s": _metric("static_ib.measure_invariance", "self_s", "s"),
    "static_ib.stacked_bottleneck_experiment.self_s":
        _metric("static_ib.stacked_bottleneck_experiment", "self_s", "s"),
    "static_ib.flatness_diagnostic.self_s": _metric("static_ib.flatness_diagnostic", "self_s", "s"),
    "info.mi_identity_check.calls": _metric("info.mi_identity_check", "calls", "count"),
    "info.mi_identity_check.self_s": _metric("info.mi_identity_check", "self_s", "s"),
    "info.kl_gaussian.calls": _metric("info.kl_gaussian", "calls", "count"),
    "info.kl_gaussian.self_s": _metric("info.kl_gaussian", "self_s", "s"),
}
for _battery in ("gradcheck", "info", "kalman", "static_ib", "seprep",
                 "control_sep"):
    LAYER_METRICS[f"harness.run_{_battery}.s"] = _metric(
        f"harness.run_{_battery}", "total_s", "s")

# Work counters that must repeat exactly between runs at one root seed.
EXACT_COUNTERS = ("nn.graph_nodes_per_step", "control_sep.history_nodes",
                  "seprep.hmm_prefix_nodes", "lgss.riccati_iters",
                  "harness.gates_checked")
