"""Forward-semantics tests for the tensor core, oracle values first."""

import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmar import tensor as tensor_module
from ctmar.tensor import (
    LAYERNORM_EPS,
    GraphError,
    ShapeError,
    Tensor,
    add,
    concat,
    conv2d,
    finite_diff_grad,
    gelu,
    layernorm_channels,
    matmul,
    mul,
    neg,
    no_grad,
    pixel_shuffle,
    pixel_unshuffle,
    reshape,
    softmax,
    sub,
    tabs,
    texp,
    tmean,
    transpose,
)

# frozen from a 40-digit erf evaluation (mpmath)
GELU_ORACLE = {
    1.0: 0.84134474606854294859,
    0.5: 0.34573123063700655182,
    -1.25: -0.13206221708356907211,
}


def conv2d_reference(x, w, b=None, stride=1, padding=0, groups=1):
    """Direct six-nested-loop convolution, the independent oracle. It takes
    the padding explicitly; conv2d must match it at padding k // 2."""
    n, c_in, h, wid = x.shape
    c_out, c_in_g, k, _ = w.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wid + 2 * padding - k) // stride + 1
    xp = np.zeros((n, c_in, h + 2 * padding, wid + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wid] = x
    out = np.zeros((n, c_out, ho, wo), dtype=np.float64)
    out_per_group = c_out // groups
    for ni in range(n):
        for co in range(c_out):
            g = co // out_per_group
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c_in_g):
                        for di in range(k):
                            for dj in range(k):
                                acc += (xp[ni, g * c_in_g + ci, i * stride + di, j * stride + dj]
                                        * w[co, ci, di, dj])
                    out[ni, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def conv2d_reference_grads(x, w, g, stride=1, padding=0, groups=1):
    """Gradients of sum(g * conv) for x, w and the bias, by the same loops."""
    n, c_in, h, wid = x.shape
    c_out, c_in_g, k, _ = w.shape
    xp = np.zeros((n, c_in, h + 2 * padding, wid + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wid] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape, dtype=np.float64)
    out_per_group = c_out // groups
    for ni in range(n):
        for co in range(c_out):
            grp = co // out_per_group
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    gv = g[ni, co, i, j]
                    for ci in range(c_in_g):
                        for di in range(k):
                            for dj in range(k):
                                at = (ni, grp * c_in_g + ci, i * stride + di, j * stride + dj)
                                gxp[at] += gv * w[co, ci, di, dj]
                                gw[co, ci, di, dj] += gv * xp[at]
    gx = gxp[:, :, padding:padding + h, padding:padding + wid]
    return gx, gw, g.sum(axis=(0, 2, 3))


class TestConv2d:
    def test_identity_1x1_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.array([[[[1.0]]]], dtype=np.float32))
        out = conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_input_gives_bias(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.zeros((2, 4, 6, 6), dtype=np.float32))
        w = Tensor(rng.normal(size=(3, 4, 3, 3)).astype(np.float32))
        b = Tensor(np.array([1.5, -2.0, 0.25], dtype=np.float32))
        out = conv2d(x, w, b)
        for c, val in enumerate([1.5, -2.0, 0.25]):
            assert np.allclose(out.data[:, c], val)

    def test_against_loop_reference_strided(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), stride=2)
        ref = conv2d_reference(x, w, stride=2, padding=1)
        np.testing.assert_allclose(out.data, ref, rtol=1e-12)

    @pytest.mark.parametrize("shape,cout,k,stride,padding,groups", [
        ((2, 4, 8, 8), 6, 3, 1, 1, 1),
        ((1, 6, 10, 10), 6, 3, 2, 1, 6),
        ((2, 8, 9, 9), 8, 1, 2, 0, 8),
        ((4, 8, 16, 16), 8, 5, 1, 2, 1),
        ((1, 3, 7, 7), 5, 1, 1, 0, 1),
    ])
    def test_against_loop_reference_random(self, shape, cout, k, stride, padding, groups):
        rng = np.random.default_rng(hash((shape, cout, k)) % 2**32)
        x = rng.normal(size=shape)
        w = rng.normal(size=(cout, shape[1] // groups, k, k))
        b = rng.normal(size=cout)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, groups=groups)
        ref = conv2d_reference(x, w, b, stride=stride, padding=padding, groups=groups)
        np.testing.assert_allclose(out.data, ref, rtol=1e-10, atol=1e-12)

    def test_output_extent_law(self):
        """Same padding: every kernel path gives ceil(H/stride) x ceil(W/stride)."""
        paths = [(3, 2, 3, 1),      # dense, output planes
                 (2, 3, 3, 1),      # dense, stacked windows
                 (3, 2, 1, 1),      # dense 1x1
                 (3, 3, 3, 3),      # depth-wise tap loop
                 (3, 3, 7, 3)]      # depth-wise, FFT at stride 1, tap loop when strided
        for (c_in, c_out, k, groups), stride in itertools.product(paths, (1, 2, 3)):
            x = Tensor(np.zeros((1, c_in, 11, 15), dtype=np.float32))
            w = Tensor(np.zeros((c_out, c_in // groups, k, k), dtype=np.float32))
            out = conv2d(x, w, stride=stride, groups=groups)
            assert out.shape == (1, c_out, math.ceil(11 / stride), math.ceil(15 / stride))

    def test_bad_groups_rejected(self):
        """groups=2 is neither dense nor depth-wise, whether or not it divides C_in."""
        w = Tensor(np.zeros((4, 2, 3, 3), dtype=np.float32))
        for c_in in (5, 4):
            x = Tensor(np.zeros((1, c_in, 4, 4), dtype=np.float32))
            with pytest.raises(ShapeError):
                conv2d(x, w, groups=2)

    @pytest.mark.parametrize("c_in,c_out,k,stride", [
        pytest.param(3, 5, 1, 1, id="1x1-widening"),
        pytest.param(5, 3, 1, 1, id="1x1-narrowing"),
        *[pytest.param(c_in, c_out, 2 * p + 1, s, id=f"{name}-stride{s}-pad{p}")
          for name, c_in, c_out in [("intro", 1, 9), ("outro", 3, 1)]
          for s in (1, 2) for p in (0, 1)],
    ])
    def test_dense_convs_never_reach_tap_loop(self, monkeypatch, c_in, c_out, k, stride):
        """Every groups == 1 conv runs as one matmul, in both directions: 1x1
        widening and narrowing, the intro's channels (1 -> 9) and the outro's
        (3 -> 1) at stride 1 and 2, with k = 1 (padding 0) and k = 3 (padding 1)."""
        def refuse(*args, **kwargs):
            raise AssertionError("dense conv reached the tap loop")

        monkeypatch.setattr(tensor_module, "_conv_taps", refuse)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, c_in, 7, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(c_out, c_in, k, k)).astype(np.float32), requires_grad=True)
        tmean(conv2d(x, w, stride=stride)).backward()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    def test_even_kernel_rejected(self):
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, w)


def _case(kind, n, c_in, c_out, h, w, k, stride, dtype="f32", bias=True, seed=0):
    return dict(kind=kind, n=n, c_in=c_in, c_out=c_out, h=h, w=w, k=k, stride=stride,
                dtype=dtype, bias=bias, seed=seed)


@st.composite
def conv_cases(draw, kind):
    """Shapes for one conv2d kernel: "dense1x1" (one matmul over the input),
    "dense3x3_windows" (3x3 with C_in <= C_out, as the intro: one matmul
    over the stacked input windows), "dense3x3_planes" (3x3 with
    C_in > C_out, as the outro: one matmul giving an output plane per
    tap), "dw_fft" (depth-wise, stride 1, k in {5, 7}) or "dw_taps"
    (depth-wise, strided or k = 3, on the tap loop).
    A 1-channel depth-wise conv is also dense and runs as a matmul, so the
    depth-wise kinds, like the planes kind, draw at least 2 channels."""
    c = draw(st.integers(1 if kind in ("dense1x1", "dense3x3_windows") else 2, 3))
    if kind == "dense3x3_windows":
        c_out = draw(st.integers(c, 9))
    elif kind == "dense3x3_planes":
        c_out = draw(st.integers(1, c - 1))
    elif kind == "dense1x1":
        c_out = draw(st.integers(1, 4))
    else:
        c_out = c
    if kind == "dense1x1":
        k, stride = 1, 1
    elif kind.startswith("dense3x3"):
        k, stride = 3, draw(st.integers(1, 2))
    elif kind == "dw_fft":
        k, stride = draw(st.sampled_from([5, 7])), 1
    else:
        stride = draw(st.integers(1, 3))
        k = draw(st.sampled_from([3, 5, 7])) if stride > 1 else 3
    return _case(kind, draw(st.integers(1, 2)), c, c_out,
                 draw(st.integers(1, 12)), draw(st.integers(1, 12)), k, stride,
                 draw(st.sampled_from(["f32", "f64"])), draw(st.booleans()),
                 draw(st.integers(0, 2**32 - 1)))


class TestConv2dProperty:
    """Every conv2d kernel against the six-loop reference: forward, input,
    weight and bias gradients, both dtypes, batches of one and two."""

    # an error bound relative to the largest |x|*|w| (or |g|*|w|, |g|*|x|)
    # sum, so it holds for rounding in any summation order
    TOL = {"f32": 1e-5, "f64": 1e-12}

    @pytest.mark.parametrize("kind", ["dense1x1", "dw_fft", "dw_taps", "dense3x3_windows",
                                      "dense3x3_planes"])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_loop_reference(self, kind, data):
        self.check(data.draw(conv_cases(kind)))

    @pytest.mark.parametrize("case", [
        _case("dw_fft", 2, 3, 3, 8, 8, 7, 1),
        _case("dw_fft", 1, 2, 2, 8, 8, 7, 1, dtype="f64"),
        _case("dw_fft", 2, 2, 2, 5, 11, 7, 1),
        _case("dw_fft", 2, 3, 3, 12, 7, 7, 1, dtype="f64"),
        _case("dw_taps", 2, 3, 3, 9, 8, 7, 2),
        _case("dw_taps", 2, 2, 2, 8, 10, 1, 1, dtype="f64"),     # k = 1: no padding
        _case("dense1x1", 2, 3, 4, 6, 9, 1, 1),
        _case("dense1x1", 1, 3, 4, 6, 9, 1, 1, dtype="f64"),
        _case("dense3x3_windows", 2, 1, 9, 9, 8, 3, 1),
        _case("dense3x3_windows", 1, 2, 18, 7, 9, 3, 2, dtype="f64"),
        _case("dense3x3_planes", 2, 3, 1, 8, 9, 3, 1),
    ], ids=["fft-8x8", "fft-8x8-batch1-f64", "fft-5x11", "fft-12x7-f64",
            "taps-strided-9x8", "taps-unpadded-8x10-f64", "1x1-batch2",
            "1x1-batch1-f64", "3x3-matmul-intro", "3x3-matmul-strided-f64",
            "3x3-planes-outro"])
    def test_named_shapes(self, case):
        self.check(case)

    def test_fft_channel_blocks(self, monkeypatch):
        """The FFT kernel splits wide inputs into channel blocks; one channel
        per block must give the reference results too."""
        monkeypatch.setattr(tensor_module, "_FFT_BLOCK", 1)
        self.check(_case("dw_fft", 2, 3, 3, 9, 7, 7, 1))
        self.check(_case("dw_fft", 1, 3, 3, 6, 10, 5, 1, dtype="f64"))

    def check(self, case):
        rng = np.random.default_rng(case["seed"])
        n, c_in, c_out, k = case["n"], case["c_in"], case["c_out"], case["k"]
        groups = 1 if case["kind"].startswith("dense") else c_in
        dt = np.float32 if case["dtype"] == "f32" else np.float64
        x = rng.normal(size=(n, c_in, case["h"], case["w"])).astype(dt)
        w = rng.normal(size=(c_out, c_in // groups, k, k)).astype(dt)
        b = rng.normal(size=c_out).astype(dt) if case["bias"] else None
        kw = dict(stride=case["stride"], groups=groups)

        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True) if b is not None else None
        out = conv2d(xt, wt, bt, **kw)
        kw["padding"] = k // 2
        g = rng.normal(size=out.shape).astype(dt)
        tmean(mul(out, Tensor(g))).backward()
        g = g / out.size    # the upstream gradient that tmean hands back

        want = conv2d_reference(x, w, b, **kw)
        gx, gw, gb = conv2d_reference_grads(x, w, g, **kw)
        ax, aw, ag = np.abs(x), np.abs(w), np.abs(g)
        scale = conv2d_reference(ax, aw, None if b is None else np.abs(b), **kw).max()
        sx, sw, _ = conv2d_reference_grads(ax, aw, ag, **kw)
        tol = self.TOL[case["dtype"]]
        assert out.data.dtype == xt.grad.dtype == wt.grad.dtype == dt
        assert np.abs(out.data - want).max() <= tol * scale
        assert np.abs(xt.grad - gx).max() <= tol * sx.max()
        assert np.abs(wt.grad - gw).max() <= tol * sw.max()
        if b is not None:
            assert np.abs(bt.grad - gb).max() <= tol * ag.sum(axis=(0, 2, 3)).max()


class TestConvTape:
    @pytest.mark.parametrize("c_out,stride,groups", [(16, 2, 16), (4, 1, 1)],
                             ids=["dw3x3-stride2-taps", "dense3x3-planes"])
    def test_recorded_conv_retains_only_its_output(self, c_out, stride, groups, traced_memory):
        """A recorded depth-wise tap-loop conv or dense output-planes conv
        keeps ``x`` for its backward, which the parent holds anyway, so what
        it adds to memory is its output. Neither the padded input (16 x 66 x
        66 f32, 279 KB) nor the padded planes may stay on the tape; 16 KiB
        covers the Python objects (the Tensor, closures, tap indices) and the
        planes kernel's reshaped weight (2.3 KB)."""
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(1, 16, 64, 64)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(c_out, 16 // groups, 3, 3)).astype(np.float32),
                   requires_grad=True)
        out, retained, _ = traced_memory(
            lambda: conv2d(x, w, stride=stride, groups=groups))
        assert out._backward_fn is not None
        assert retained <= out.data.nbytes + 16 * 1024, (retained, out.data.nbytes)


class TestPixelShuffle:
    def test_unshuffle_single_block(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = pixel_unshuffle(x)
        assert out.shape == (1, 4, 1, 1)
        np.testing.assert_array_equal(out.data.ravel(), [1.0, 2.0, 3.0, 4.0])

    def test_shuffle_single_block(self):
        x = Tensor(np.array([10.0, 20.0, 30.0, 40.0]).reshape(1, 4, 1, 1))
        out = pixel_shuffle(x)
        np.testing.assert_array_equal(out.data, [[[[10.0, 20.0], [30.0, 40.0]]]])

    def test_shape_law(self):
        x = Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32))
        assert pixel_shuffle(x).shape == (1, 2, 8, 8)

    def test_roundtrip_identity_bit_exact(self):
        rng = np.random.default_rng(3)
        for shape in [(1, 3, 8, 8), (1, 1, 12, 8), (2, 6, 6, 6)]:
            x = rng.normal(size=shape).astype(np.float32)
            back = pixel_shuffle(pixel_unshuffle(Tensor(x)))
            np.testing.assert_array_equal(back.data, x)

    def test_multiset_preserved(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3, 8, 8))
        out = pixel_unshuffle(Tensor(x))
        np.testing.assert_array_equal(np.sort(out.data.ravel()), np.sort(x.ravel()))

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            pixel_unshuffle(Tensor(np.zeros((1, 1, 5, 4))))
        with pytest.raises(ShapeError):
            pixel_shuffle(Tensor(np.zeros((1, 6, 2, 2))))


@pytest.mark.parametrize("op,c", [
    (lambda x: conv2d(x, Tensor(np.zeros((2, 2, 1, 1)))), 2),
    (lambda x: layernorm_channels(x, Tensor(np.ones(2))), 2),
    (pixel_shuffle, 4),
    (pixel_unshuffle, 2),
], ids=["conv2d", "layernorm_channels", "pixel_shuffle", "pixel_unshuffle"])
def test_unbatched_input_rejected(op, c):
    """The spatial ops take (N,C,H,W) only; a (C,H,W) map is a ShapeError."""
    op(Tensor(np.zeros((1, c, 4, 4))))
    with pytest.raises(ShapeError):
        op(Tensor(np.zeros((c, 4, 4))))


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor(np.array(0.0))).item() == 0.0

    def test_asymptote(self):
        assert abs(gelu(Tensor(np.array(10.0))).item() - 10.0) < 1e-6

    def test_erf_oracle_values(self):
        for x, expected in GELU_ORACLE.items():
            got = gelu(Tensor(np.array(x, dtype=np.float64))).item()
            assert got == pytest.approx(expected, abs=1e-12)

    def test_f32_erf_bound(self):
        """The f32 rational erf against scipy's f64 erf on 2M grid points."""
        from scipy.special import erf
        z = np.linspace(-8.0, 8.0, 2_000_001).astype(np.float32)
        got = tensor_module._erf_f32(z.copy()).astype(np.float64)
        assert np.abs(got - erf(z.astype(np.float64))).max() <= 5e-7

    def test_f32_non_finite(self):
        out = gelu(Tensor(np.array([np.nan, np.inf, 1.0], dtype=np.float32))).data
        assert np.isnan(out[0]) and out[1] == np.inf and out.dtype == np.float32

    def test_f32_matches_f64_path(self):
        """Output and gradient of the f32 path within 1e-6 max(1, |x|) of the
        f64 path on the same inputs, over several blocks, with the upstream
        gradient arriving as a transposed (non-contiguous) view."""
        x = np.linspace(-12.0, 12.0, 3 * tensor_module._GELU_BLOCK + 8).astype(np.float32)
        x = x.reshape(2, -1)
        g = np.cos(x.T).astype(np.float32)
        results = []
        for dt in (np.float32, np.float64):
            xt = Tensor(x.astype(dt), requires_grad=True)
            out = gelu(xt)
            tmean(mul(transpose(out, (1, 0)), Tensor(g.astype(dt)))).backward()
            # undo tmean's 1/n, so the bound applies to g * GELU'(x)
            results.append((out.data.astype(np.float64), xt.grad.astype(np.float64) * x.size))
        bound = 1e-6 * np.maximum(1.0, np.abs(x.astype(np.float64)))
        for got, want in zip(*results):
            assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, tensor_module._GELU_BLOCK - 1, tensor_module._GELU_BLOCK,
                                      3 * tensor_module._GELU_BLOCK + 8])
    def test_no_grad_bit_identical_to_recorded(self, size, dt):
        """Without a tape the erf values go through one block-sized workspace
        instead of a full-size buffer; the bits must not change, short last
        block included."""
        x = np.random.default_rng(size).normal(scale=3.0, size=size).astype(dt)
        recorded = gelu(Tensor(x, requires_grad=True))
        assert recorded._backward_fn is not None
        with no_grad():
            out = gelu(Tensor(x, requires_grad=True))
        bits = np.int32 if dt == np.float32 else np.int64
        np.testing.assert_array_equal(out.data.view(bits), recorded.data.view(bits))

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_no_grad_allocates_output_and_one_block(self, dt, traced_memory):
        """Under no_grad, gelu's peak allocation is its output plus one
        block's erf workspace: the block of x / sqrt(2) itself and, for f32,
        the three block-sized temporaries of ``_erf_f32`` (z^2, numerator,
        denominator); scipy's f64 erf runs in place. 16 KiB covers the
        Python objects (block slices, the result Tensor)."""
        block = tensor_module._GELU_BLOCK
        x = Tensor(np.linspace(-6.0, 6.0, 8 * block + 8).astype(dt), requires_grad=True)
        workspace = (4 if dt == np.float32 else 1) * block * x.data.itemsize
        with no_grad():
            out, _, peak = traced_memory(lambda: gelu(x))
        assert peak <= out.data.nbytes + workspace + 16 * 1024, (peak, out.data.nbytes)


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax(Tensor(np.array([2.5, 2.5, 2.5])))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-12)

    def test_large_inputs_stable(self):
        out = softmax(Tensor(np.array([1000.0, 0.0])))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-30)

    def test_extended_precision_oracle(self):
        import mpmath as mp
        mp.mp.dps = 50
        rng = np.random.default_rng(11)
        x = rng.normal(size=4) * 3.0
        exps = [mp.e ** mp.mpf(v) for v in x]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
        out = softmax(Tensor(x))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_slices_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 5, 4)) * 10
        s = softmax(Tensor(x))
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)
        shifted = softmax(Tensor(x + 123.456))  # constant shift
        np.testing.assert_allclose(shifted.data, s.data, atol=1e-6)


class TestLayernormChannels:
    def test_constant_input_zero(self):
        x = Tensor(np.full((1, 4, 3, 3), 7.0))
        out = layernorm_channels(x, Tensor(np.ones(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_standardizes_each_pixel(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 16, 5, 5)) * 4 + 2
        out = layernorm_channels(Tensor(x), Tensor(np.ones(16))).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_two_pass_reference(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 3, 2, 2))
        gamma = rng.normal(size=3)
        ref = np.empty_like(x)
        for i in range(2):
            for j in range(2):
                v = x[0, :, i, j]
                ref[0, :, i, j] = (v - v.mean()) / math.sqrt(v.var() + LAYERNORM_EPS) * gamma
        out = layernorm_channels(Tensor(x), Tensor(gamma))
        np.testing.assert_allclose(out.data, ref, rtol=1e-12)


    def test_allocates_two_maps(self, traced_memory):
        """The centred map is divided in place, and the squares that give the
        variance are overwritten by the output, so a call allocates two
        input-sized maps beside at most six one-channel planes (mean,
        variance, inverse deviation and their temporaries); 16 KiB covers
        the Python objects."""
        x = Tensor(np.random.default_rng(7).normal(size=(1, 48, 64, 64)).astype(np.float32))
        gamma = Tensor(np.ones(48, dtype=np.float32))
        plane = x.data.nbytes // 48
        _, _, peak = traced_memory(lambda: layernorm_channels(x, gamma))
        assert peak <= 2 * x.data.nbytes + 6 * plane + 16 * 1024, (peak, x.data.nbytes)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        out = matmul(Tensor(np.eye(4)), Tensor(x))
        np.testing.assert_allclose(out.data, x, rtol=1e-15)

    def test_hand_case(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_transpose_identity(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(5, 4))
        ab_t = matmul(Tensor(a), Tensor(b)).data.T
        bt_at = matmul(Tensor(b.T.copy()), Tensor(a.T.copy())).data
        np.testing.assert_allclose(ab_t, bt_at, rtol=1e-12)

    def test_batch_extent_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 6))))
        # no broadcasting of a batch extent that one side lacks
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))))


class TestBackwardBasics:
    def test_linear_map(self):
        w = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        x = Tensor(np.array([4.0, 5.0, 6.0, 7.0]))
        loss = tmean(w * x)
        loss.backward()
        np.testing.assert_array_equal(w.grad, x.data / 4)

    def test_quadratic(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = tmean(w * w)
        loss.backward()
        np.testing.assert_allclose(w.grad, [1.0, 2.0])

    def test_fanout_accumulates(self):
        w = Tensor(np.array([3.0]), requires_grad=True)
        y = w * 2.0
        loss = tmean(y + y * w)  # dL/dw = 2 + 4w = 14
        loss.backward()
        np.testing.assert_allclose(w.grad, [2.0 + 4.0 * 3.0])

    def test_double_backward_rejected(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        loss = tmean(w * w)
        loss.backward()
        with pytest.raises(GraphError):
            loss.backward()

    def test_backward_through_consumed_graph_rejected(self):
        """A second backward that reaches a node the first one consumed
        must fail before it changes any gradient, not treat the consumed
        result as a leaf."""
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = mul(w, Tensor(np.array([2.0, 3.0])))
        tmean(h).backward()
        np.testing.assert_array_equal(w.grad, [1.0, 1.5])
        with pytest.raises(GraphError):
            tmean(mul(h, h)).backward()
        np.testing.assert_array_equal(w.grad, [1.0, 1.5])
        assert h.grad is None

    def test_replaced_closure_is_the_one_called(self):
        """A profiler may wrap a recorded result's ``_backward_fn``; backward
        must call the wrapper in place of the original."""
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = mul(w, w)
        inner, seen = h._backward_fn, []

        def wrapper(g):
            seen.append(g.copy())
            return inner(g)

        h._backward_fn = wrapper
        assert h._backward_fn is wrapper
        tmean(h).backward()
        np.testing.assert_array_equal(seen, [[0.5, 0.5]])
        np.testing.assert_array_equal(w.grad, [1.0, 2.0])

    def test_dropped_results_are_freed(self):
        """Results that no backward reads are freed as soon as the program
        drops them, with the tape still alive: a conv output read only by
        add, an add output read only by layernorm_channels and add, and a
        gelu input. The gradients are those of a run that keeps all three."""
        rng = np.random.default_rng(41)
        x = Tensor(rng.normal(size=(1, 4, 8, 8)))
        w0 = rng.normal(size=(4, 4, 3, 3))

        def run(keep):
            w = Tensor(w0.copy(), requires_grad=True)
            gamma = Tensor(np.linspace(0.5, 1.5, 4), requires_grad=True)
            conv = conv2d(x, w)
            summed = add(conv, x)
            hidden = add(summed, layernorm_channels(summed, gamma))
            loss = tmean(gelu(hidden))
            refs = [weakref.ref(t.data) for t in (conv, summed, hidden)]
            if not keep:
                del conv, summed, hidden
            dead = [ref() is None for ref in refs]
            loss.backward()
            return dead, w.grad, gamma.grad

        dead, gw, ggamma = run(keep=False)
        assert dead == [True, True, True]
        kept, gw_kept, ggamma_kept = run(keep=True)
        assert kept == [False, False, False]
        np.testing.assert_array_equal(gw.view(np.int64), gw_kept.view(np.int64))
        np.testing.assert_array_equal(ggamma.view(np.int64), ggamma_kept.view(np.int64))

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(GraphError):
            (w * w).backward()

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 4, 3, 3)).astype(np.float32)
        a = conv2d(Tensor(x), Tensor(w)).data
        b = conv2d(Tensor(x), Tensor(w)).data
        np.testing.assert_array_equal(a, b)


class TestNoGrad:
    @staticmethod
    def _ops(rng):
        """Every op, applied to requires_grad inputs."""
        def leaf(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True)

        x, y = leaf(1, 4, 4, 4), leaf(1, 4, 4, 4)
        w, g = leaf(4, 4, 3, 3), leaf(4)
        return [
            lambda: add(x, y), lambda: sub(x, y), lambda: mul(x, y), lambda: neg(x),
            lambda: texp(x), lambda: tabs(x), lambda: tmean(x),
            lambda: gelu(x), lambda: reshape(x, (16, 4)), lambda: transpose(x, (0, 3, 1, 2)),
            lambda: concat([x, y], axis=0), lambda: softmax(x),
            lambda: layernorm_channels(x, g), lambda: matmul(x, y),
            lambda: pixel_unshuffle(x), lambda: pixel_shuffle(x),
            lambda: conv2d(x, w, g),
            lambda: conv2d(x, Tensor(w.data[:, :1].copy(), requires_grad=True),
                           stride=2, groups=4),
        ]

    def test_ops_record_nothing(self):
        for op in self._ops(np.random.default_rng(21)):
            recorded = op()
            assert recorded._backward_fn is not None and recorded._node.parents
            with no_grad():
                out = op()
            np.testing.assert_array_equal(out.data, recorded.data)
            assert out._node is None and out._backward_fn is None
            assert not out.requires_grad

    def test_backward_through_scope_rejected(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with no_grad():
            loss = tmean(w * w)
        assert w.requires_grad
        with pytest.raises(GraphError):
            loss.backward()
        assert w.grad is None

    def test_recording_restored_after_exception(self):
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ShapeError):
            with no_grad():
                matmul(w, w)
        assert (w * w)._backward_fn is not None

    def test_recording_restored_after_nested_scope(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            with no_grad():
                assert (w * w)._backward_fn is None
            assert (w * w)._backward_fn is None
        loss = tmean(w * w)
        loss.backward()
        np.testing.assert_array_equal(w.grad, [1.0, 1.0])


class TestFiniteDiff:
    def test_sum_of_squares(self):
        g = finite_diff_grad(lambda t: tmean(t * t), Tensor(np.array([3.0])), h=1e-5)
        assert g[0] == pytest.approx(6.0, rel=1e-7)

    def test_linear_exact(self):
        c = np.array([2.0, -1.0, 0.5])
        for h in (1e-2, 1e-6):
            g = finite_diff_grad(lambda t: tmean(t * Tensor(c)),
                                 Tensor(np.array([1.0, 1.0, 1.0])), h=h)
            np.testing.assert_allclose(g, c / 3, rtol=1e-9)

    def test_matches_backward_on_toy_net(self):
        rng = np.random.default_rng(13)
        w1 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 2)))

        def f(w1_val):
            h1 = gelu(matmul(w1_val, x))
            return tmean(matmul(Tensor(w2.data), h1))

        loss = tmean(matmul(Tensor(w2.data), gelu(matmul(w1, x))))
        loss.backward()
        fd = finite_diff_grad(f, Tensor(w1.data), h=1e-4)
        np.testing.assert_allclose(w1.grad, fd, rtol=1e-4, atol=1e-9)


class TestReductionsAndInvariants:
    def test_mean_and_abs(self):
        t = Tensor(np.array([-1.0, 3.0]), requires_grad=True)
        loss = tmean(tabs(t))
        assert loss.item() == pytest.approx(2.0)
        loss.backward()
        np.testing.assert_allclose(t.grad, [-0.5, 0.5])

    def test_all_finite_after_ops(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(1, 4, 8, 8)).astype(np.float32) * 50
        outs = [
            softmax(Tensor(x)).data,
            gelu(Tensor(x)).data,
            layernorm_channels(Tensor(x), Tensor(np.ones(4, dtype=np.float32))).data,
            pixel_unshuffle(Tensor(x)).data,
        ]
        for o in outs:
            assert np.all(np.isfinite(o))


class TestTensorInit:
    def test_requires_grad_is_keyword_only(self):
        """A second positional argument is refused rather than read as the
        flag, so no stale positional dtype string can switch on recording.
        A float32 or float64 input keeps its dtype; any other becomes float64."""
        with pytest.raises(TypeError):
            Tensor(np.zeros(3), "f64")
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        assert t.requires_grad and t.data.dtype == np.float32
        assert Tensor(np.arange(3)).data.dtype == np.float64
