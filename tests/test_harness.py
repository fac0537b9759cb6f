"""Tests for experiment orchestration, run configs, and the sepctl CLI."""

import functools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ibsep import control_sep, harness, info, nn, seprep

# shrunk parameters so the full pipeline runs in seconds
FAST = {"models": 3, "instances": 5, "encoders": 3, "train_steps": 5,
        "train_seeds": 1, "flatness_steps": 10, "riccati_models": 1,
        "eval_traj": 2, "rand_candidates": 2, "hmm_T": 4, "traj_len": 10,
        "batch": 2}
# FAST for ``all``: a bare key that several batteries know is refused, so
# each key is namespaced to every battery that knows it
FAST_ALL = {f"{name}.{key}": value for name in harness.EXPERIMENT_NAMES
            for key, value in FAST.items() if key in harness._DEFAULTS[name]}


# ---------------------------------------------------------------------------
# seeds, records, configs
# ---------------------------------------------------------------------------


def test_experiment_seed_streams_are_stable_and_distinct():
    a = harness.experiment_seed(7, "info")
    assert a == harness.experiment_seed(7, "info")
    assert a != harness.experiment_seed(7, "kalman")
    assert a != harness.experiment_seed(8, "info")
    assert 0 <= a < 2**64


def test_config_validates_experiment_name():
    harness.ExperimentConfig("info")
    harness.ExperimentConfig("all")
    with pytest.raises(ValueError, match="nope"):
        harness.ExperimentConfig("nope")


def test_metric_record_validates_status_and_finiteness():
    harness.MetricRecord("info", "x", 1.0, None, "report", 0.0)
    with pytest.raises(ValueError, match="status"):
        harness.MetricRecord("info", "x", 1.0, None, "ok", 0.0)
    with pytest.raises(ValueError, match="finite"):
        harness.MetricRecord("info", "x", float("nan"), None, "pass", 0.0)
    # non-finite is representable as long as it is flagged
    harness.MetricRecord("info", "x", float("inf"), None, "fail", 0.0)
    harness.MetricRecord("info", "x", float("nan"), None, "report", 0.0)


@pytest.mark.parametrize("key, value", [
    ("seed", None), ("seed", "abc"), ("seed", 1.7), ("seed", True),
    ("out", None), ("out", 3),
])
def test_config_seed_and_out_are_checked_by_name(tmp_path, monkeypatch, capsys,
                                                 key, value):
    monkeypatch.chdir(tmp_path)  # a wrongly accepted out lands here
    with pytest.raises(ValueError, match=key):
        harness.ExperimentConfig("info", **{key: value})
    if key == "seed" and value is not None:  # what the CLI can spell
        with pytest.raises(SystemExit) as exc:
            harness.main(["info", "--seed", str(value)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_config_seed_accepts_an_integral_number():
    seed = harness.ExperimentConfig("info", seed=4.0).seed
    assert seed == 4 and type(seed) is int
    with pytest.raises(ValueError, match="seed"):
        harness.ExperimentConfig("info", seed=1.7)


# ---------------------------------------------------------------------------
# running batteries and persisting metrics
# ---------------------------------------------------------------------------


def test_run_writes_metrics_and_summary(tmp_path):
    cfg = harness.ExperimentConfig("info", seed=3, out=str(tmp_path))
    records = harness.run(cfg)
    assert records
    assert all(r.experiment == "info" for r in records)
    csv_path = tmp_path / "info" / "metrics.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "experiment,key,value,tolerance,status"
    assert len(lines) == len(records) + 1
    # shortest round-trip floats: parsing recovers the exact values
    for line, rec in zip(lines[1:], records):
        parts = line.split(",")
        assert float(parts[2]) == rec.value
    summary = json.loads((tmp_path / "info" / "summary.json").read_text())
    assert summary["experiment"] == "info"
    assert summary["root_seed"] == 3
    assert summary["all_pass"] is True
    assert all(r["seconds"] >= 0.0 for r in summary["records"])
    # timing lives in the summary only, never in the CSV
    assert "seconds" not in lines[0]


def test_rerun_with_same_seed_is_byte_identical(tmp_path):
    a = harness.ExperimentConfig("info", seed=7, out=str(tmp_path / "a"))
    b = harness.ExperimentConfig("info", seed=7, out=str(tmp_path / "b"))
    harness.run(a)
    harness.run(b)
    csv_a = (tmp_path / "a" / "info" / "metrics.csv").read_bytes()
    csv_b = (tmp_path / "b" / "info" / "metrics.csv").read_bytes()
    assert csv_a == csv_b


def test_run_all_exercises_every_battery(tmp_path):
    cfg = harness.ExperimentConfig("all", seed=1, out=str(tmp_path),
                                   overrides=dict(FAST_ALL))
    records = harness.run(cfg)
    seen = {r.experiment for r in records}
    assert seen == set(harness.EXPERIMENT_NAMES)
    for name in harness.EXPERIMENT_NAMES:
        assert (tmp_path / name / "metrics.csv").exists()
        assert (tmp_path / name / "summary.json").exists()


def test_run_rejects_unknown_override():
    cfg = harness.ExperimentConfig("info", overrides={"betta": 1})
    with pytest.raises(ValueError, match="betta"):
        harness.run(cfg)
    # a battery called directly refuses it too, instead of running its defaults
    with pytest.raises(ValueError, match="unknown override key 'instancez' for 'info'"):
        harness.run_info(harness.experiment_seed(7, "info"), {"instancez": 5})


def test_seed_changes_random_battery_draws(tmp_path):
    a = harness.run(harness.ExperimentConfig(
        "info", seed=1, out=str(tmp_path / "a"), overrides={"instances": 50}))
    b = harness.run(harness.ExperimentConfig(
        "info", seed=2, out=str(tmp_path / "b"), overrides={"instances": 50}))
    values_a = [r.value for r in a]
    values_b = [r.value for r in b]
    assert values_a != values_b


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


def test_cli_pass_exit_code(tmp_path, capsys):
    code = harness.main(["info", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "mi_identity_max_abs_err" in out
    assert "checks pass" in out


def test_cli_failure_exit_code(tmp_path):
    # an impossible tolerance forces a legitimate failing record
    code = harness.main(["gradcheck", "--out", str(tmp_path),
                         "--set", "models=2", "--set", "tol=1e-30"])
    assert code == 1


def test_cli_config_error_exit_code(tmp_path, capsys):
    code = harness.main(["info", "--out", str(tmp_path), "--set", "betta=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "sepctl:" in err and "betta" in err
    assert not (tmp_path / "info").exists()  # refused before any battery ran


def test_cli_unknown_experiment_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        harness.main(["frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_cli_seed_out_and_sets_reach_the_summary(tmp_path):
    code = harness.main(["info", "--seed", "9", "--out", str(tmp_path / "flags"),
                         "--set", "instances=9"])
    assert code == 0
    summary = json.loads((tmp_path / "flags" / "info" / "summary.json").read_text())
    assert summary["root_seed"] == 9
    assert summary["overrides"] == {"instances": 9}


def test_cli_set_values_are_json_parsed(tmp_path):
    code = harness.main(["info", "--out", str(tmp_path),
                         "--set", "instances=12"])
    assert code == 0
    summary = json.loads((tmp_path / "info" / "summary.json").read_text())
    assert summary["overrides"] == {"instances": 12}


def test_module_entry_point_runs_the_cli(tmp_path, subprocess_env):
    # -W error: the package must not import harness before runpy runs it
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ibsep.harness",
         "info", "--seed", "7", "--out", str(tmp_path), "--set", "instances=10"],
        env=subprocess_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "checks pass" in proc.stdout
    assert (tmp_path / "info" / "metrics.csv").exists()


@pytest.mark.parametrize("overrides, statuses", [
    ({"models": 0}, ["fail", "fail"]),
    ({"models": 2, "riccati_models": 0}, ["pass", "fail"]),
    ({"models": 2, "riccati_models": -1}, ["pass", "fail"]),
])
def test_kalman_gates_fail_when_no_model_was_compared(overrides, statuses):
    records = harness.run_kalman(3, overrides)
    assert [r.key for r in records] == ["filter_vs_batch_max_dev",
                                        "riccati_vs_filter_max_dev"]
    assert [r.status for r in records] == statuses


@pytest.mark.parametrize("riccati_t", [0, -4])
def test_cli_rejects_a_riccati_horizon_below_one(riccati_t, tmp_path, capsys):
    code = harness.main(["kalman", "--out", str(tmp_path), "--set", "models=2",
                         "--set", f"riccati_T={riccati_t}"])
    assert code == 2
    assert "riccati_T" in capsys.readouterr().err


def _fd_loop(mlp, x, mode, labels, params, step):
    """Central differences one entry at a time, each from a lone forward."""
    def loss(p):
        out = nn.forward(mlp, x, param_nodes={k: nn.constant(v) for k, v in p.items()})
        if mode == "ce":
            return float(-(nn.gather_logprob(nn.log_softmax_n(out), labels).mean()).value)
        return float(((out.square().sum()) * 0.5).value)

    params = {k: v.copy() for k, v in params.items()}
    grads = {}
    for name, value in params.items():
        flat, g = value.reshape(-1), np.zeros(value.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss(params)
            flat[i] = orig - step
            lo = loss(params)
            flat[i] = orig
            g[i] = (hi - lo) / (2 * step)
        grads[name] = g.reshape(value.shape)
    return grads


def test_batched_fd_equals_the_per_entry_loop_bit_for_bit():
    # the battery's own first models at root seed 7, both loss modes
    opts = harness._opts("gradcheck", {"models": 10})
    cases = list(harness._gradcheck_models(harness.experiment_seed(7, "gradcheck"),
                                           opts))
    assert {mode for _, _, mode, _ in cases} == {"ce", "quad"}
    for mlp, x, mode, labels in cases:
        params = mlp.params()
        want = _fd_loop(mlp, x, mode, labels, params, opts["fd_step"])
        got = harness._fd_gradients(
            functools.partial(harness._graph_loss, mlp, x, mode, labels), params,
            opts["fd_step"])
        assert list(got) == list(want)
        for name, value in want.items():
            assert got[name].shape == value.shape
            assert np.array_equal(got[name], value), (mode, name)


# sizes that would check nothing, and values of the wrong type: each must
# exit 2 naming its key before any battery runs, never pass or crash
@pytest.mark.parametrize("experiment, setting, key", [
    ("control-sep", "instances=-3", "instances"),
    ("control-sep", "instances=0", "instances"),
    ("seprep", "rand_candidates=0", "rand_candidates"),
    ("seprep", "hmm_T=0", "hmm_T"),
    ("seprep", "hmm_T=9", "hmm_T"),
    ("kalman", 'riccati_T="abc"', "riccati_T"),
    ("kalman", "riccati_T=2.5", "riccati_T"),
    ("seprep", "betas=5", "betas"),
    ("seprep", "betas=[0.1]", "betas"),
    ("seprep", 'betas=[0.1, "x"]', "betas"),
    ("info", "tol=NaN", "tol"),
    ("info", "instances=true", "instances"),
    # zero divides by zero; a negative step makes the kink margin negative
    ("gradcheck", "fd_step=0", "fd_step"),
    ("gradcheck", "fd_step=-1e-4", "fd_step"),
])
def test_cli_rejects_bad_values_by_key(experiment, setting, key, tmp_path, capsys):
    code = harness.main([experiment, "--out", str(tmp_path), "--set", setting])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_all_checks_every_value_before_any_battery(tmp_path):
    # gradcheck runs first; control-sep's bad count must stop it from starting
    cfg = harness.ExperimentConfig("all", out=str(tmp_path),
                                   overrides={"control-sep.instances": 0})
    with pytest.raises(ValueError, match="instances"):
        harness.run(cfg)
    assert not list(tmp_path.iterdir())


def _record_overrides(monkeypatch):
    """Replace every battery by one that records the overrides it gets."""
    seen = {}

    def battery(name):
        def run(seed, overrides):
            seen[name] = overrides
            return []
        return run

    for name in harness.EXPERIMENT_NAMES:
        monkeypatch.setitem(harness._BATTERIES, name, battery(name))
    return seen


def test_a_namespaced_key_sets_only_its_battery(tmp_path, monkeypatch):
    seen = _record_overrides(monkeypatch)
    assert harness.main(["all", "--out", str(tmp_path),
                         "--set", "seprep.train_steps=50",
                         "--set", "static-ib.train_seeds=2",
                         "--set", "flatness_steps=7"]) == 0
    assert seen["seprep"] == {"train_steps": 50}
    assert seen["static-ib"] == {"train_seeds": 2, "flatness_steps": 7}
    assert all(seen[name] == {} for name in ("gradcheck", "info", "kalman",
                                              "control-sep"))


@pytest.mark.parametrize("experiment, setting, named", [
    ("all", "train_steps=50", "train_steps"),  # static-ib and seprep know it
    ("all", "tol=1e-6", "tol"),
    ("seprep", "static-ib.train_steps=5", "static-ib.train_steps"),
    ("all", "seprep.riccati_T=5", "seprep.riccati_T"),
    ("all", "nope.train_steps=5", "nope.train_steps"),
])
def test_an_ambiguous_or_misdirected_key_exits_2_by_name(
        tmp_path, monkeypatch, capsys, experiment, setting, named):
    seen = _record_overrides(monkeypatch)
    assert harness.main([experiment, "--out", str(tmp_path),
                         "--set", setting]) == 2
    assert repr(named) in capsys.readouterr().err
    assert not seen and not list(tmp_path.iterdir())


@pytest.mark.parametrize("betas", ["[-1, 0.1]", "[0.1, 0.1]"])
def test_a_negative_or_repeated_beta_exits_2_before_any_battery(
        betas, tmp_path, monkeypatch, capsys):
    # a negative beta is no DynIBConfig, and a repeated one would make the
    # sweep gate compare a beta with itself; the batteries before seprep
    # must not run and write their results first
    seen = _record_overrides(monkeypatch)
    assert harness.main(["all", "--out", str(tmp_path), "--set", f"betas={betas}"]) == 2
    assert "betas must be distinct non-negative numbers" in capsys.readouterr().err
    assert not seen and not list(tmp_path.iterdir())


def test_a_bare_key_still_reaches_the_one_battery_that_knows_it(tmp_path,
                                                              monkeypatch):
    seen = _record_overrides(monkeypatch)
    harness.run(harness.ExperimentConfig("seprep", out=str(tmp_path),
                                         overrides={"train_steps": 9}))
    assert seen == {"seprep": {"train_steps": 9}}


def test_run_seprep_keeps_the_benchmark_traced_contract(monkeypatch):
    # the benchmark wraps these module attributes and reads their results:
    # one train_filter call whose curve has train_steps rows, and one
    # record per (trajectory, step) from every evaluation
    small = {"train_steps": 4, "train_seeds": 2, "traj_len": 6, "batch": 2,
             "eval_traj": 3, "hmm_T": 2, "rand_candidates": 1}
    trained, evaluated = [], []
    train_filter = harness.seprep.train_filter
    evaluate = harness.seprep.evaluate_vs_kalman

    def traced_train(*args, **kwargs):
        trained.append(train_filter(*args, **kwargs))
        return trained[-1]

    def traced_evaluate(*args, **kwargs):
        evaluated.append((evaluate(*args, **kwargs), kwargs["num_traj"], kwargs["T"]))
        return evaluated[-1][0]

    monkeypatch.setattr(harness.seprep, "train_filter", traced_train)
    monkeypatch.setattr(harness.seprep, "evaluate_vs_kalman", traced_evaluate)
    records = harness.run_seprep(5, small)
    assert len(trained) == 1
    assert len(trained[0].curve) == small["train_steps"]
    assert len(trained[0].runs) == 3 * small["train_seeds"]
    assert [num_traj for _, num_traj, _ in evaluated] == [10] + [3] * 2
    for result, num_traj, T in evaluated:
        assert T == small["traj_len"]
        assert len(result["records"]) == num_traj * T
    assert {r.key for r in records} >= {"sweep_ce_max_increase",
                                        "learned_mean_kl"}


def test_run_seprep_builds_each_exact_reference_once(monkeypatch):
    # one HMM tree per HMM serves every candidate, and one Kalman filter
    # call serves every trajectory of an evaluation; the benchmark counts
    # both through these module attributes
    small = {"train_steps": 3, "train_seeds": 1, "traj_len": 5, "batch": 2,
             "eval_traj": 4, "hmm_T": 3, "rand_candidates": 3}
    calls = {"hmm_exact_reference": 0, "run_filter": 0, "evaluate_vs_kalman": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(harness.seprep, "hmm_exact_reference")
    counting(harness.seprep, "evaluate_vs_kalman")
    counting(harness.lgss, "run_filter")
    harness.run_seprep(5, small)
    assert calls["hmm_exact_reference"] == 2
    assert calls["evaluate_vs_kalman"] == 2
    assert calls["run_filter"] == calls["evaluate_vs_kalman"]


def _lazy_random_candidate(rng, n_obs):
    """One Dirichlet(1) draw per history, at its first call."""
    table = {}

    def candidate(history, k):
        if (history, k) not in table:
            table[history, k] = rng.dirichlet(np.ones(n_obs))
        return table[history, k]

    return candidate


@pytest.mark.parametrize("n", [0, 2])
def test_level_drawn_random_candidates_score_as_per_history_draws(n):
    # the battery's two HMMs (2 and 3 outcomes) and a 4-outcome one, each
    # candidate drawn a level at a time: the same slacks, bit for bit, and
    # the generator ends where the per-history draws leave it
    seed = harness.experiment_seed(7, "seprep")
    hmms = harness._hmm_instances(np.random.default_rng(seed))
    hmms.append(seprep.FiniteHMM(trans=np.full((2, 2), 0.5),
                                 emit=[[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]],
                                 init=[0.5, 0.5]))
    assert [hmm.n_obs for hmm in hmms] == [2, 3, 4]
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for hmm in hmms:
        reference = seprep.hmm_exact_reference(hmm, 4, n)
        for _ in range(3):
            got = seprep.nstep_bound_check(reference,
                                           harness._random_candidate(reference, mine))
            want = seprep.nstep_bound_check(reference,
                                            _lazy_random_candidate(theirs, hmm.n_obs))
            assert got == want
    assert mine.random() == theirs.random()


def test_run_static_ib_trains_each_group_of_seeds_as_one_sweep(monkeypatch):
    # the beta = 0 seeds and the beta = 1e3 seeds, which step at a smaller
    # rate, are one sweep, where one call per group made two; the benchmark
    # counts the calls and reads ``len(result.curve)`` as each call's steps
    small = {"encoders": 2, "train_seeds": 3, "train_steps": 4,
             "flatness_steps": 5}
    trained = []
    train_ib = harness.static_ib.train_ib

    def counted(task, config):
        trained.append(train_ib(task, config))
        return trained[-1]

    monkeypatch.setattr(harness.static_ib, "train_ib", counted)
    records = harness.run_static_ib(5, small)
    assert len(trained) == 1
    sweep, = trained
    assert len(sweep.runs) == 2 * small["train_seeds"]
    assert len(sweep.curve) == small["train_steps"]
    counts = {r.key: r.instances for r in records}
    assert counts["beta0_mean_accuracy"] == counts["hi_beta_mean_info_bound"] == 3


def _small(name):
    return {k: v for k, v in FAST.items() if k in harness._DEFAULTS[name]}


def _record_bits(records):
    """Every field of each record but its wall-clock seconds, floats as hex."""
    return [(r.experiment, r.key, float(r.value).hex(), r.tolerance, r.status,
             r.instances) for r in records]


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@needs_fork
def test_static_ib_gives_the_same_records_in_one_process_and_in_two(monkeypatch):
    # static-ib's exact checks run in a forked worker where two CPUs are
    # usable; with one, all of it runs in process
    seed = harness.experiment_seed(7, "static-ib")
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 1)
    one = harness.run_static_ib(seed, _small("static-ib"))
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 2)
    two = harness.run_static_ib(seed, _small("static-ib"))
    assert _record_bits(two) == _record_bits(one)


def _raising_on(side, real):
    """``real``, but raising LookupError(side) in the worker or in the caller."""
    caller = os.getpid()

    def wrapped(*args, **kwargs):
        if (os.getpid() == caller) == (side == "caller"):
            raise LookupError(side)
        return real(*args, **kwargs)

    return wrapped


@needs_fork
@pytest.mark.parametrize("side", [None, "worker", "caller"])
def test_no_worker_outlives_static_ib(monkeypatch, side):
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 2)
    small = _small("static-ib")
    if side is not None:
        target = "measure_invariance" if side == "worker" else "train_ib"
        monkeypatch.setattr(harness.static_ib, target,
                            _raising_on(side, getattr(harness.static_ib, target)))
        with pytest.raises(LookupError, match=side):
            harness.run_static_ib(5, small)
    else:
        assert harness.run_static_ib(5, small)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_import_leaves_scipy_out():
    # the package needs numpy and the standard library only; scipy's import
    # would cost more start-up time than a whole exact-oracles pass saves
    src = str(Path(harness.__file__).resolve().parents[1])
    modules = ("control_sep", "harness", "info", "lgss", "nn", "seprep", "static_ib")
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from ibsep import {', '.join(modules)}; "
         "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_overrides_take_their_default_types():
    opts = harness._opts("seprep", {"train_steps": 20.0, "betas": [1, 0.5],
                                    "hmm_T": 8})
    assert type(opts["train_steps"]) is int and opts["train_steps"] == 20
    assert opts["betas"] == (1.0, 0.5)
    assert all(type(b) is float for b in opts["betas"])
    assert type(harness._opts("gradcheck", {"tol": 1})["tol"]) is float
    # the kalman gates fail on their own when nothing was compared
    assert harness._opts("kalman", {"riccati_models": -1})["riccati_models"] == -1


def test_cli_rejects_malformed_set(tmp_path, capsys):
    code = harness.main(["info", "--out", str(tmp_path), "--set", "oops"])
    assert code == 2
    assert "key=value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gates: one reduction, no silent NaN, no vacuous pass
# ---------------------------------------------------------------------------

REDUCERS = st.sampled_from([np.max, np.min, np.mean])
OPS = st.sampled_from([operator.lt, operator.le, operator.ge, operator.gt])
# bounded so that np.mean's sum cannot overflow
FINITE = st.floats(-1e300, 1e300, allow_nan=False)


def _gate(values, reduce=np.max, op=operator.lt, bound=1.0):
    return harness._gate("t", "k", values, reduce, op, bound, 0.5,
                         harness._Clock())


@given(st.lists(FINITE, min_size=1, max_size=30), REDUCERS, OPS, FINITE)
def test_gate_reduces_and_decides_from_the_recorded_value(values, reduce, op,
                                                          bound):
    record = _gate(values, reduce, op, bound)
    builtin = {np.max: max, np.min: min}.get(reduce)
    if builtin is not None:
        assert record.value == builtin(values)
        if record.value != 0.0:  # the sign of a zero may differ
            assert record.value.hex() == float(builtin(values)).hex()
    assert record.status == ("pass" if op(record.value, bound) else "fail")
    assert record.instances == len(values)
    assert record.tolerance == 0.5


@given(st.lists(FINITE, max_size=30), st.data(), REDUCERS, OPS)
def test_one_nan_anywhere_fails_the_gate(values, data, reduce, op):
    at = data.draw(st.integers(0, len(values)))
    record = _gate(values[:at] + [math.nan] + values[at:], reduce, op,
                   data.draw(FINITE))
    assert math.isnan(record.value)
    assert record.status == "fail"
    assert record.instances == len(values) + 1


@pytest.mark.parametrize("reduce", [np.max, np.min, np.mean])
def test_a_gate_that_saw_no_instance_fails(reduce):
    record = _gate([], reduce, operator.lt, math.inf)
    assert record.status == "fail"
    assert record.instances == 0
    assert math.isnan(record.value)


@pytest.mark.parametrize("module, function, field, battery, key", [
    (info, "mi_identity_check", "lhs", harness.run_info,
     "mi_identity_max_abs_err"),
    (control_sep, "verify_separation", "max_q_spread", harness.run_control_sep,
     "separation_max_q_spread"),
], ids=["info", "control-sep"])
def test_a_nan_in_one_battery_instance_fails_its_gate(monkeypatch, module,
                                                      function, field, battery,
                                                      key):
    real = getattr(module, function)
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return {**out, field: math.nan} if len(calls) == 3 else out

    monkeypatch.setattr(module, function, poisoned)
    records = battery(7, {"instances": 5})
    assert len(calls) >= 5
    for record in records:
        if record.key == key:
            assert math.isnan(record.value)
            assert record.status == "fail"
        else:  # the other gates of the battery are untouched
            assert record.status in ("pass", "report")


def test_summary_counts_the_instances_of_every_gate(tmp_path):
    small = {k: FAST[k] for k in harness._DEFAULTS["static-ib"]}
    harness.run(harness.ExperimentConfig("static-ib", seed=2, out=str(tmp_path),
                                         overrides=small))
    summary = json.loads((tmp_path / "static-ib" / "summary.json").read_text())
    for rec in summary["records"]:
        if rec["status"] == "report":
            assert rec["instances"] is None
        else:
            assert rec["instances"] >= 1
    counts = {r["key"]: r["instances"] for r in summary["records"]}
    assert counts["invariance_min_bound_margin"] == FAST["encoders"]
    assert counts["beta0_mean_accuracy"] == FAST["train_seeds"]
    # instance counts live in the summary, never in the CSV
    header = (tmp_path / "static-ib" / "metrics.csv").read_text().splitlines()[0]
    assert "instances" not in header


def test_a_diverged_training_run_fails_its_battery_and_the_rest_still_run(
        tmp_path, monkeypatch, capsys):
    def diverge(source, config):
        raise nn.TrainingDiverged(17)

    monkeypatch.setattr(harness.seprep, "train_filter", diverge)
    args = ["all", "--seed", "1", "--out", str(tmp_path)]
    for key, value in FAST_ALL.items():
        args += ["--set", f"{key}={value}"]
    assert harness.main(args) == 1
    assert "sepctl: seprep: training loss non-finite at step 17" in \
        capsys.readouterr().err
    rows = (tmp_path / "seprep" / "metrics.csv").read_text().splitlines()
    assert rows[1:] == ["seprep,training_diverged,17.0,,fail"]
    summary = json.loads((tmp_path / "seprep" / "summary.json").read_text())
    assert summary["all_pass"] is False
    assert (tmp_path / "control-sep" / "metrics.csv").exists()
