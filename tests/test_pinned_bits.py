"""Exact results of short training runs, of the Kalman filter and of the
exact belief trees, pinned bit for bit.

The other training tests check that two runs agree with each other or
that the loss falls; these check that a run gives the very same floats
as the recorded one, so a refactor of the training loops, the KL term
or the parameter plumbing that changes any bit fails here. The same
holds for the HMM prefix tree and the POMDP history tree: every
posterior, prefix probability, reach and action value is pinned, and for
every posterior and predictive of ``lgss.run_filter``. Whole results
are pinned by the sha256 of their ``repr``; a few final values are also
spelt out so a failure shows how far off a run is. The digests were
recorded with numpy 2.4 and OpenBLAS on x86-64; another BLAS build may
move the last bits of a matrix product and so change them.
"""

import hashlib

import numpy as np

from ibsep import control_sep, harness, lgss, seprep, static_ib as sib


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_train_ib_curve_is_pinned():
    task = sib.make_nuisance_task(2, 2, seed=3)
    cfg = sib.IBLConfig(beta=1e-2, rep_dim=1, steps=30, batch=16, seed=4)
    curve = sib.train_ib(task, [cfg]).curves[0]
    assert curve[-1] == {"step": 29, "loss": 0.6343601034966818,
                         "ce": 0.6318479037522103,
                         "info_bound": 0.251219974447147, "acc": 0.71875}
    assert _digest(curve) == (
        "3497d48c847e43e27df2c0f1e70c0b75b59fca9b6ffbff28a36754fb95679670")


def test_train_weight_posterior_is_pinned():
    rng = np.random.default_rng(0)
    xs = np.vstack([rng.normal(-1.0, 0.4, (20, 2)),
                    rng.normal(1.0, 0.4, (20, 2))])
    labels = np.array([0] * 20 + [1] * 20)
    post, kl, ce = sib.train_weight_posterior(xs, labels, [2, 4, 2], 1e-2, 0,
                                              steps=30)
    assert (repr(kl), repr(ce)) == ("61.49805527890493", "0.0021961233632145707")
    assert _digest({k: v.tolist() for k, v in post.mu.items()}) == (
        "cb14498b2b6ae3562fe39e7fd80481ccf2ba4528dddcc06d7e256a1dbf4dfc67")
    assert _digest({k: v.tolist() for k, v in post.log_var.items()}) == (
        "af6c75d2b26778890233d2d0bdc801bd00067b35447c0a73595116a570a29ed1")


def test_battery_weight_posterior_is_pinned():
    # the static-ib battery's flatness posterior: its data, widths, beta,
    # seed and 150 steps, at three root seeds; long enough that a change in
    # the order of the gradient sums at a log-variance leaf shows
    pinned = {
        0: ("56.07940781767332", "0.009668495515164304",
            "f750525b734ec13b0426d061eeaf7e5850d27401b99d9378889ca64a0b592426",
            "49fc8a65dc3371fd663e6dab1d520a7acfd16402e713ba3c26a3125c26fa3068"),
        4: ("56.340787010785796", "0.013566849355175981",
            "0dc9c6ae0ebe62785e82a18483eedef94fa715fd18f0c21357d120f7214c602a",
            "82fc0d130e33dc9f1cf62e56283048e973167712beb2778039f42b533c2ac9ec"),
        12: ("55.96110846625638", "0.008245614027577102",
             "e7dbccea6649e54d3f5101d5e7b6e2293ca881ebd30a32889411b4042bda4c94",
             "6abd88b6005f31d14d0f6ccc3e69766b9cc2cfa7b00addaebc729560397a8598"),
    }
    for root, (kl, ce, mu, log_var) in pinned.items():
        seed = harness.experiment_seed(root, "static-ib")
        rng = np.random.default_rng(seed)
        xs = np.vstack([rng.normal(-1.0, 0.4, (20, 2)),
                        rng.normal(1.0, 0.4, (20, 2))])
        labels = np.array([0] * 20 + [1] * 20)
        post, got_kl, got_ce = sib.train_weight_posterior(xs, labels, [2, 4, 2],
                                                          1e-2, seed, steps=150)
        assert (repr(got_kl), repr(got_ce)) == (kl, ce), root
        assert _digest({k: v.tolist() for k, v in post.mu.items()}) == mu, root
        assert _digest({k: v.tolist() for k, v in post.log_var.items()}) == log_var, root


def test_battery_shaped_train_filter_is_pinned():
    # the seprep battery's filter shape with every default option: T 40,
    # rep_dim 4, (32,) hidden layers, one sample, truncation every 16 steps
    # (so the last window is a partial one of 8), batch 16
    model = lgss.LGSSModel(A=[[0.9]], B=np.zeros((1, 0)), C=[[1.0]],
                           Q=[[0.1]], R=[[0.1]], mu0=[0.0], P0=[[1.0]])
    cfg = seprep.DynIBConfig(beta=1e-2, traj_len=40, steps=6, batch=16, seed=5)
    trained = seprep.train_filter(seprep.lgss_source(model, 40), [cfg])
    curve = trained.curves[0]
    assert curve[-1] == {"step": 5, "loss": 1.3330980612382881,
                         "ce": 1.3307084526267248,
                         "info": 0.23896086115633666}
    assert _digest(curve) == (
        "51a50ea62bc5e920e161605fdc7ef45c1a086821bf846c6aa3439be31ed4499b")
    assert _digest(seprep.save_filter_json(trained.runs[0])) == (
        "d3baca7b178aa97ea72664e619eaa377a03c0f69eac019c06bec044deb471e9f")


def test_run_filter_is_pinned():
    pinned = [
        ((3, 2, 2), -64.55408319518162,
         "e29978b7510f5a47336bcefb44d6f3a83eced1bf6158cfc052e5e13ed109d599"),
        ((1, 1, 0), -13.86021730675991,
         "3ca3ed125fe613357c8597041ab706b476c6145071ec467c34e1e3189c213391"),
        ((4, 3, 1), -150.5430664550539,
         "394066d7d8a00a2953c80164ad94c03ba6ea0aba461aee032a27b4df508aafbf"),
    ]
    rng = np.random.default_rng(21)
    for (n, m, p), loglik, digest in pinned:
        model = lgss.random_stable_model(rng, n=n, m=m, p=p)
        traj = lgss.simulate(model, rng.normal(size=(30, p)), 30, rng)
        ((means,), (covs,)), predictives = lgss.run_filter(model, [traj])
        ((pred_means,), (pred_covs,)) = predictives
        (got,) = lgss.predictive_loglik([traj], *predictives)
        assert repr(float(got)) == repr(loglik)
        stacked = b"".join(a.tobytes() for a in (means, covs, pred_means, pred_covs))
        assert hashlib.sha256(stacked).hexdigest() == digest


def _pinned_hmms():
    fixed = seprep.FiniteHMM(trans=[[0.8, 0.2], [0.3, 0.7]],
                             emit=[[0.9, 0.1], [0.2, 0.8]], init=[0.6, 0.4])
    rng = np.random.default_rng(11)
    random3 = seprep.FiniteHMM(trans=rng.dirichlet(np.ones(3), size=3),
                               emit=rng.dirichlet(np.ones(3), size=3),
                               init=rng.dirichlet(np.ones(3)))
    return fixed, random3


def test_hmm_exact_reference_is_pinned():
    pinned = [
        (127, 1.1846340800108164,
         "8f08660e80b7c4ef1403a26bbc41fc36c376cd3c6bb0cb9434570de44540f117",
         "09cf2b10f7beb3a093ecc7858ffe4f45ec85f3b9993c6d6a6792ea5e028800b2",
         "de150433547a1b936ad3800417f03183cbee3e6ca108c871d36d24e23d27a87e"),
        (1093, 1.9519078560408827,
         "878f9e6a402d462eb57f875f712cb60f7dffe16f533bbde9154aff8c266b8d7f",
         "1807ba88c28d554efc9daab3081caff14ddd2ec944f0ea704c93c56608adf8a5",
         "8aca097ff96a742af63ffa27b82b61661d13ddb4f564bd425bcda7e2b78f2d31"),
    ]
    for hmm, (nodes, bound, posteriors, probs, terms) in zip(_pinned_hmms(), pinned):
        ref = seprep.hmm_exact_reference(hmm, 6, n=1)
        assert len(ref["prefix_probs"]) == nodes
        assert ref["entropy_lower_bound"] == bound
        assert all(type(p) is float for p in ref["prefix_probs"].values())
        assert _digest({k: v.tolist() for k, v in ref["posteriors"].items()}) == posteriors
        assert _digest(ref["prefix_probs"]) == probs
        assert _digest(ref["term_entropies"]) == terms


def test_brute_force_q_is_pinned():
    pinned = [
        (control_sep.belief_collision_pomdp(), 21, 1.05,
         "c3db40727130034f7a4c0bf0931456d8ec9b4a6d8e917edafa38bce97762552d"),
        (control_sep.random_pomdp(np.random.default_rng(5), n_states=3,
                                  n_actions=2, n_obs=3, horizon=4),
         259, 0.11837192744882451,
         "326047cf1a51cefbdaee0529b4ae6aa5b2f05bed69d15006e21c2146c33bc111"),
    ]
    for pomdp, count, best, digest in pinned:
        nodes = control_sep.brute_force_q(pomdp)
        assert len(nodes) == count
        assert float(nodes[()].q_values.max()) == best
        assert _digest({h: (n.belief.tolist(), float(n.reach), n.q_values.tolist())
                        for h, n in nodes.items()}) == digest
