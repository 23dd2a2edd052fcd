"""Every operator's backward pass is checked against central differences."""

import numpy as np
import pytest

from ctmar.tensor import (
    Tensor,
    concat,
    conv2d,
    finite_diff_grad,
    gelu,
    layernorm_channels,
    matmul,
    pixel_shuffle,
    pixel_unshuffle,
    reshape,
    softmax,
    tabs,
    texp,
    tmean,
    transpose,
)

RTOL = 1e-4


def check_grad(make_loss, *arrays, h=1e-5):
    """Backward gradients of make_loss(*tensors) vs finite differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = make_loss(*tensors)
    loss.backward()
    for i, t in enumerate(tensors):
        def f(probe, i=i):
            args = [Tensor(a.copy()) for a in arrays]
            args[i] = probe
            return make_loss(*args)

        fd = finite_diff_grad(f, Tensor(arrays[i].copy()), h=h)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(t.grad)), 1e-8)
        rel = np.abs(t.grad - fd) / denom
        assert rel.max() < RTOL, f"arg {i}: max rel err {rel.max():.3e}"


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_finite_diff_probe_is_a_copy():
    """An f that writes to its argument must not disturb later probes."""
    def f(p):
        loss = tmean(p * p)
        p.data += 1
        return loss

    g = finite_diff_grad(f, Tensor(np.array([0.0, 1.0, 2.0])))
    np.testing.assert_allclose(g, [0.0, 2.0 / 3.0, 4.0 / 3.0], rtol=1e-9, atol=1e-9)


def test_add_mul_broadcast(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    check_grad(lambda x, y: tmean((x + y) * (x * y + x)), a, b)


def test_exp_abs_mean(rng):
    a = rng.normal(size=(5,)) + 3.0  # keep |.| away from the kink
    check_grad(lambda x: tmean(tabs(texp(x * 0.3))), a)


def test_gelu(rng):
    a = rng.normal(size=(3, 5))
    check_grad(lambda x: tmean(gelu(x)), a)


def test_softmax(rng):
    a = rng.normal(size=(3, 6)) * 2
    w = rng.normal(size=(3, 6))
    check_grad(lambda x: tmean(softmax(x, axis=1) * Tensor(w)), a)


def test_layernorm(rng):
    x = rng.normal(size=(1, 4, 3, 3))
    gamma = rng.normal(size=4)
    w = rng.normal(size=(1, 4, 3, 3))
    check_grad(lambda a, g: tmean(layernorm_channels(a, g) * Tensor(w)), x, gamma)


def test_matmul_batched(rng):
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 5))
    check_grad(lambda x, y: tmean(matmul(x, y) * matmul(x, y)), a, b)


def test_matmul_broadcast_batch(rng):
    a = rng.normal(size=(2, 2, 3, 4))
    b = rng.normal(size=(4, 5))
    check_grad(lambda x, y: tmean(matmul(x, y)), a, b)


def test_reshape_transpose_concat(rng):
    a = rng.normal(size=(2, 6))
    b = rng.normal(size=(2, 6))

    def loss(x, y):
        joined = concat([reshape(x, (3, 4)), transpose(reshape(y, (4, 3)), (1, 0))], axis=0)
        return tmean(joined * joined)

    check_grad(loss, a, b)


def test_pixel_shuffles(rng):
    a = rng.normal(size=(1, 4, 4, 4))
    w = rng.normal(size=(1, 16, 2, 2))
    check_grad(lambda x: tmean(pixel_unshuffle(x, 2) * Tensor(w)), a)
    b = rng.normal(size=(1, 8, 2, 2))
    w2 = rng.normal(size=(1, 2, 4, 4))
    check_grad(lambda x: tmean(pixel_shuffle(x, 2) * Tensor(w2)), b)


@pytest.mark.parametrize("stride,padding,groups", [(1, 1, 1), (2, 1, 1), (1, 1, 4), (2, 0, 4)])
def test_conv2d_variants(rng, stride, padding, groups):
    x = rng.normal(size=(2, 4, 6, 6))
    w = rng.normal(size=(4, 4 // groups, 3, 3))
    b = rng.normal(size=4)
    mask = rng.normal(size=(2, 4, (6 + 2 * padding - 3) // stride + 1,
                            (6 + 2 * padding - 3) // stride + 1))
    check_grad(
        lambda xx, ww, bb: tmean(
            conv2d(xx, ww, bb, stride=stride, padding=padding, groups=groups) * Tensor(mask)),
        x, w, b)


def test_composed_attention_style_block(rng):
    """A miniature attention: projections, scores, softmax, mixing."""
    x = rng.normal(size=(1, 4, 4, 4))
    wq = rng.normal(size=(4, 4, 1, 1))
    wv = rng.normal(size=(2, 4, 1, 1))

    def loss(xx, q_w, v_w):
        q = reshape(conv2d(xx, q_w), (1, 4, 16))
        v = reshape(conv2d(xx, v_w), (1, 2, 16))
        scores = matmul(q, transpose(v, (0, 2, 1)))
        attn = softmax(scores, axis=-1)
        return tmean(matmul(attn, v))

    check_grad(loss, x, wq, wv)
