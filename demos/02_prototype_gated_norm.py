"""The normalization mechanism in isolation: routing two feature clusters
to different gamma/beta rows, refining prototypes by EMA, and driving the
orthogonality penalty to zero by gradient descent."""

import numpy as np

from protonorm import PrototypeBank, ProtoNormLayer, Tensor, orthogonality_loss

rng = np.random.default_rng(1)
d = 8

# Two clusters of samples, far apart in feature space.
a = 4.0 + 0.2 * rng.normal(size=(6, 5, d))
b = -4.0 + 0.2 * rng.normal(size=(6, 5, d))
x = np.concatenate([a, b])

layer = ProtoNormLayer(d, n=2, mode="proto-gated", rng=rng, ema_alpha=0.3)
print("prototype rows orthonormal at init:",
      orthogonality_loss(layer.bank.P).item() < 1e-10)

# Route, stage EMA statistics, apply them, repeat: prototypes migrate to
# the cluster means and the routing becomes stable and pure.
for step in range(10):
    layer.forward(Tensor(x), train=True)
    layer.bank.apply_ema()
print("assignments after EMA refinement:", layer.last_assignments)
print("prototype 0 ~ cluster mean:",
      np.round(layer.bank.P.data[:, :3], 2).tolist())

# Frozen banks stop moving but keep gating.
layer.bank.frozen = True
before = layer.bank.P.data.copy()
layer.forward(Tensor(x), train=True)
layer.bank.apply_ema()
print("frozen bank unchanged:", np.array_equal(before, layer.bank.P.data))

# The orthogonality penalty pulls an arbitrary bank back to orthonormal.
P = Tensor(rng.normal(size=(4, 16)) / 4.0, requires_grad=True)
for step in range(300):
    P.grad = None
    loss = orthogonality_loss(P)
    loss.backward()
    P.data = P.data - 0.02 * P.grad
print(f"penalty after descent: {orthogonality_loss(P).item():.2e}")

# EMA contraction follows the exact geometric law.
alpha = 0.25
bank = PrototypeBank(1, d, rng, ema_alpha=alpha)
target = rng.normal(size=d)
gap0 = np.linalg.norm(bank.P.data[0] - target)
for t in range(1, 6):
    bank.stage(target[None], np.array([0]))
    bank.apply_ema()
    gap = np.linalg.norm(bank.P.data[0] - target)
    print(f"  step {t}: gap ratio {gap / gap0:.6f} vs (1-alpha)^t {(1 - alpha) ** t:.6f}")
