"""Exact results of three short training runs, pinned bit for bit.

The other training tests check that two runs agree with each other or
that the loss falls; these check that a run gives the very same floats
as the recorded one, so a refactor of the training loops, the KL term
or the parameter plumbing that changes any bit fails here. Whole results
are pinned by the sha256 of their ``repr``; a few final values are also
spelt out so a failure shows how far off a run is. The digests were
recorded with numpy 2.4 and OpenBLAS on x86-64; another BLAS build may
move the last bits of a matrix product and so change them.
"""

import hashlib

import numpy as np

from ibsep import lgss, seprep, static_ib as sib


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_train_ib_curve_is_pinned():
    task = sib.make_nuisance_task(2, 2, seed=3)
    cfg = sib.IBLConfig(beta=1e-2, rep_dim=1, steps=30, batch=16, seed=4)
    curve = sib.train_ib(task, cfg).curve
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


def test_train_filter_is_pinned():
    model = lgss.LGSSModel(A=[[0.9]], B=np.zeros((1, 0)), C=[[1.0]],
                           Q=[[0.1]], R=[[0.1]], mu0=[0.0], P0=[[1.0]])
    cfg = seprep.DynIBConfig(beta=1e-2, traj_len=8, steps=10, batch=4, seed=5,
                             horizon=1, tbptt=3, rep_dim=2, mc_samples=2,
                             update_hidden=(8,), decoder_hidden=(8,))
    trained = seprep.train_filter(seprep.lgss_source(model, 8), cfg)
    assert trained.curve[-1] == {"step": 9, "loss": 2.0352618743227016,
                                 "ce": 2.032269876044114,
                                 "info": 0.2991998278587369}
    assert _digest(trained.curve) == (
        "a73af0a44bd591d2c1fa9a7d7875af3e473c661688658ad39f9072828579ad09")
    assert _digest(seprep.save_filter_json(trained.model)) == (
        "f0a31d13ac12ca04691c96d9bb5e1c40037d84c63723fd85606e43cc8d803b4a")
