"""A short tour of the reverse-mode tape that powers every model here.

Tensors wrap numpy arrays; arithmetic builds a graph; ``backward()``
walks it once and accumulates gradients.  The last section checks a
composite expression against central differences, the same style of
check the test suite applies to the full model.
"""

import numpy as np

from storyeval import autodiff as ad

# -- scalars ---------------------------------------------------------------

x = ad.Tensor(3.0, requires_grad=True)
y = ad.Tensor(2.0, requires_grad=True)
z = x * y + x * x
z.backward()
print("z = x*y + x^2 at (3, 2)")
print(f"  z    = {z.item():.1f}   (expect 15.0)")
print(f"  dz/dx = {float(x.grad):.1f}  (expect y + 2x = 8.0)")
print(f"  dz/dy = {float(y.grad):.1f}  (expect x = 3.0)")

# -- arrays: one linear layer ------------------------------------------------

w = ad.Tensor(np.array([[0.5, -0.2], [0.1, 0.4]]), requires_grad=True)
b = ad.Tensor(np.zeros(2), requires_grad=True)
inputs = ad.Tensor(np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0]]))
out = ad.relu(ad.linear(inputs, w, b)).sum()
out.backward()
print("\nrelu(X @ W + b).sum() gradients, X @ W + b as one ad.linear node")
print("  dW =\n", w.grad)
print("  db =", b.grad, " (summed over the rows of X, back to shape (2,))")

# -- a composite check against central differences ---------------------------


def loss_at(theta: np.ndarray) -> float:
    t = ad.Tensor(theta, requires_grad=True)
    h = ad.softmax(ad.layer_norm(t, gain, bias))
    return float((h * h).sum().item())


rng = np.random.default_rng(0)
theta0 = rng.normal(size=(4, 6))
gain = ad.Tensor(np.ones(6))
bias = ad.Tensor(np.zeros(6))

t = ad.Tensor(theta0.copy(), requires_grad=True)
probe = ad.softmax(ad.layer_norm(t, gain, bias))
(probe * probe).sum().backward()
analytic = t.grad.copy()

worst = 0.0
eps = 1e-5
for i, j in [(0, 0), (1, 3), (2, 5), (3, 2)]:
    bumped = theta0.copy()
    bumped[i, j] += eps
    up = loss_at(bumped)
    bumped[i, j] -= 2 * eps
    down = loss_at(bumped)
    numeric = (up - down) / (2 * eps)
    rel = abs(numeric - analytic[i, j]) / max(abs(numeric), abs(analytic[i, j]), 1e-8)
    worst = max(worst, rel)
    print(f"  theta[{i},{j}]: analytic {analytic[i, j]:+.6f}  numeric {numeric:+.6f}"
          f"  rel err {rel:.2e}")
print(f"\nworst relative error across probes: {worst:.2e}")
assert worst < 1e-6
