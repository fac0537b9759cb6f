"""Training a bottlenecked encoder and measuring what it keeps.

A nuisance task couples a label z and a nuisance n into observations y.
Training an encoder/decoder pair under the bottleneck objective at a few
pressure settings beta shows the accuracy / compression trade-off, and
exact quantized enumeration measures how much nuisance information the
representation retains.
"""

import numpy as np

from ibsep import static_ib

task = static_ib.make_nuisance_task(z_card=2, n_card=3, rule="bijective", seed=0)
print(f"task: |z|={task.z_card} labels, |n|={task.n_card} nuisance values")

for beta in (0.0, 1e-2, 1e3):
    config = static_ib.IBLConfig(beta=beta, rep_dim=1, steps=300, batch=64,
                                 seed=1, learning_rate=1e-4 if beta > 1 else 0.05)
    encoder, decoder = static_ib.train_ib(task, [config]).runs[0]
    rng = np.random.default_rng(99)
    acc = static_ib.eval_accuracy(encoder, decoder, task, 512, rng)
    bound = static_ib.info_bound_exact(encoder, task)
    print(f"  beta={beta:8.3g}: accuracy {acc:.3f}, "
          f"info bound {bound:8.4f} nats")

print("\nexact invariance measurement on a separated encoder")
rng = np.random.default_rng(5)
enc = static_ib.random_separated_encoder(task, rng)
report = static_ib.measure_invariance(enc, task)
print(f"  I(x;y) = {report.i_xy:.4f}   I(y;z) = {report.i_yz:.4f}   "
      f"I(x;n) = {report.i_xn:.4f}")
print(f"  invariance slack I(x;y) - I(y;z) - I(x;n) = {report.prop_slack:.3e}")
print(f"  epsilon = I(x;z|n) - I(y;z) = {report.epsilon:.3e} "
      f"(sufficient encoder: ~0 up to quantization)")
print(f"  enumeration used {report.cells} cells at step {report.step}")
