"""Acceptance battery: the twelve headline checks, one test line each.

Each test pulls its records from the same batteries `sepctl` runs, at the
same default sizes and tolerances, with the root seed fixed at 7 — so
``pytest tests/test_acceptance.py -v`` and ``sepctl all --seed 7`` certify
the same claims. Batteries are shared per module scope: the trained-model
checks run their training once.
"""

import hashlib

import numpy as np
import pytest

from ibsep import harness

ROOT_SEED = 7


def _battery(name):
    runner = {
        "gradcheck": harness.run_gradcheck,
        "info": harness.run_info,
        "kalman": harness.run_kalman,
        "static-ib": harness.run_static_ib,
        "seprep": harness.run_seprep,
        "control-sep": harness.run_control_sep,
    }[name]
    records = runner(harness.experiment_seed(ROOT_SEED, name))
    return {r.key: r for r in records}


@pytest.fixture(scope="module")
def gradcheck_records():
    return _battery("gradcheck")


@pytest.fixture(scope="module")
def info_records():
    return _battery("info")


@pytest.fixture(scope="module")
def kalman_records():
    return _battery("kalman")


@pytest.fixture(scope="module")
def static_ib_records():
    return _battery("static-ib")


@pytest.fixture(scope="module")
def seprep_records():
    return _battery("seprep")


@pytest.fixture(scope="module")
def control_sep_records():
    return _battery("control-sep")


def test_criterion_01_gradient_fidelity(gradcheck_records):
    r = gradcheck_records["max_rel_error"]
    assert r.value < 1e-5 and r.status == "pass"


def test_criterion_02_information_identities(info_records):
    mi = info_records["mi_identity_max_abs_err"]
    ce = info_records["ce_decomposition_max_abs_err"]
    assert mi.value < 1e-12 and mi.status == "pass"
    assert ce.value < 1e-12 and ce.status == "pass"


def test_criterion_03_kalman_oracle_equivalence(kalman_records):
    filt = kalman_records["filter_vs_batch_max_dev"]
    ricc = kalman_records["riccati_vs_filter_max_dev"]
    assert filt.value < 1e-8 and filt.status == "pass"
    assert ricc.value < 1e-8 and ricc.status == "pass"


def test_criterion_04_invariance_inequality(static_ib_records):
    margin = static_ib_records["invariance_min_bound_margin"]
    eps_lo = static_ib_records["epsilon_min"]
    eps_hi = static_ib_records["epsilon_max_excess_over_hzy"]
    assert margin.value >= 0.0 and margin.status == "pass"
    assert eps_lo.value >= -1e-6 and eps_lo.status == "pass"
    assert eps_hi.value <= 0.0 and eps_hi.status == "pass"


def test_criterion_05_stacking_dpi(static_ib_records):
    exact = static_ib_records["stack_exact_dpi_max_violation"]
    noisy = static_ib_records["stack_noisy_nuisance_max_increase"]
    assert exact.value <= 1e-12 and exact.status == "pass"
    assert noisy.value <= 1e-12 and noisy.status == "pass"


def test_criterion_06_bottleneck_endpoints(static_ib_records):
    acc = static_ib_records["beta0_mean_accuracy"]
    bound = static_ib_records["hi_beta_mean_info_bound"]
    dev = static_ib_records["hi_beta_mean_accuracy_dev"]
    assert acc.value >= 0.99 and acc.status == "pass"
    assert bound.value < 0.01 and bound.status == "pass"
    assert dev.value <= 0.05 and dev.status == "pass"


def test_criterion_07_prediction_loss_bound(seprep_records):
    floor = seprep_records["hmm_min_candidate_slack"]
    exact = seprep_records["hmm_exact_candidate_max_abs_slack"]
    marginal = seprep_records["hmm_marginal_slack_identity_err"]
    assert floor.value >= -1e-12 and floor.status == "pass"
    assert exact.value < 1e-9 and exact.status == "pass"
    assert marginal.value < 1e-9 and marginal.status == "pass"


def test_criterion_08_kalman_filter_embedding(seprep_records):
    gap = seprep_records["kalman_embed_abs_nll_gap"]
    kl = seprep_records["kalman_embed_mean_kl"]
    assert gap.value < 1e-9 and gap.status == "pass"
    assert kl.value < 1e-9 and kl.status == "pass"


def test_criterion_09_learned_filter_near_optimality(seprep_records):
    gap = seprep_records["learned_mean_rel_nll_gap"]
    kl = seprep_records["learned_mean_kl"]
    assert gap.value < 0.05 and gap.status == "pass"
    assert kl.value < 0.05 and kl.status == "pass"


def test_criterion_10_rate_term_monotone_in_beta(seprep_records):
    rise = seprep_records["sweep_ce_max_increase"]
    assert rise.value <= 0.0 and rise.status == "pass"


def test_criterion_11_belief_separation(control_sep_records):
    spread = control_sep_records["separation_max_q_spread"]
    gap = control_sep_records["policy_max_return_gap"]
    dev = control_sep_records["reward_sufficiency_max_dev"]
    collision = control_sep_records["collision_group_compression"]
    assert spread.value < 1e-9 and spread.status == "pass"
    assert gap.value < 1e-9 and gap.status == "pass"
    assert dev.value < 1e-9 and dev.status == "pass"
    # the engineered instance really does present colliding histories
    assert collision.value >= 1 and collision.status == "pass"


def test_criterion_12_flatness_diagnostic(static_ib_records):
    finite = static_ib_records["flatness_all_finite"]
    probe = static_ib_records["flatness_quadratic_trace_err"]
    assert finite.value == 1.0 and finite.status == "pass"
    assert probe.value < 1e-6 and probe.status == "pass"
    # both sides of the weight-information bound are reported, not judged
    assert static_ib_records["flatness_info_estimate"].status == "report"
    assert static_ib_records["flatness_bound_rhs"].status == "report"
    assert np.isfinite(static_ib_records["flatness_hessian_trace"].value)


def test_every_root_7_record_is_pinned(gradcheck_records, info_records,
                                       kalman_records, static_ib_records,
                                       seprep_records, control_sep_records):
    # the refactor oracle, a byte-identical root-7 metrics.csv, as a test:
    # every record's experiment, key, value, tolerance, status and instance
    # count, exact to the bit (the value and tolerance as float.hex), in
    # battery order. Recorded with numpy 2.4 and OpenBLAS on x86-64, as
    # test_pinned_bits.py's digests are.
    batteries = (gradcheck_records, info_records, kalman_records,
                 static_ib_records, seprep_records, control_sep_records)
    keys = [(r.experiment, r.key, float(r.value).hex(),
             None if r.tolerance is None else float(r.tolerance).hex(),
             r.status, r.instances)
            for records in batteries for r in records.values()]
    assert len(keys) == 33
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "850669123463e86e4f65b2887c36c989c85312111e0416b9e9847d90e4a7bc81")
