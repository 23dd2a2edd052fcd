#!/usr/bin/env python3
"""A walk through the tensor core: ops, tape, and the gradient oracle.

Run: python3 demos/01_tensor_autodiff.py
"""

import numpy as np

from ctmar.tensor import Tensor, conv2d, finite_diff_grad, gelu, softmax, tmean

rng = np.random.default_rng(0)

# Tensors wrap contiguous float arrays. Ops build a tape when any input
# requires gradients; backward() consumes it once.
w = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
x = Tensor(rng.normal(size=(1, 2, 8, 8)))

# Convolutions are same-padded: a k x k kernel pads by k // 2 on each side.
y = conv2d(x, w)
print("conv output shape:", y.shape)

loss = tmean(gelu(y))
loss.backward()
print("loss:", f"{loss.item():.6f}")
print("dloss/dw shape:", w.grad.shape, "norm:", f"{np.linalg.norm(w.grad):.4f}")

# The same gradient, this time from central finite differences. The two
# mechanisms are independent; they should agree to a few decimal places.
fd = finite_diff_grad(lambda t: tmean(gelu(conv2d(x, t))),
                      Tensor(w.data.copy()), h=1e-5)
rel = np.abs(w.grad - fd).max() / np.abs(fd).max()
print("max relative difference vs finite differences:", f"{rel:.2e}")

# Softmax (over the last axis) gives convex weights: each row sums to one
# even for huge logits.
logits = Tensor(np.array([[1000.0, 0.0, -1000.0], [3.0, 2.0, 1.0]]))
print("softmax rows:", softmax(logits).data.sum(axis=1))
