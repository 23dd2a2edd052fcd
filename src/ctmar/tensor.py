"""Dense f32/f64 tensors with reverse-mode automatic differentiation.

The operator set is deliberately small: exactly what a convolutional
channel-attention U-Net needs, plus a finite-difference oracle to check
the analytic gradients against. Every op is numpy-backed and
deterministic.

The tape is kept apart from the data. A recorded result holds a small
``_Node``: its backward closure and its parents' nodes, with a leaf
parameter referenced directly. A node holds no array, so a result the
program drops is freed unless some backward closure captured it, and
each closure captures only what it reads:

- ``add``, ``sub``, ``neg``, ``reshape``, ``transpose``, ``concat``,
  ``tmean`` and the pixel shuffles keep shapes, axes and dtypes only;
- ``mul`` and ``matmul`` keep both operands, ``tabs`` its input, and
  ``texp`` and ``softmax`` their outputs;
- ``gelu`` keeps its derivative ``Phi(x) + x phi(x)``;
- ``layernorm_channels`` keeps ``xhat``, the inverse deviations and gamma;
- ``conv2d`` keeps its input (as im2col columns where it stacks them)
  and its weight, never a padded copy or a spectrum.

A single ``backward()`` consumes the nodes it walks; a later backward
that reaches one raises GraphError. Inside a ``no_grad()`` scope ops
record nothing, so inference keeps no tape and each op's saved
temporaries are freed when it returns.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_recording = True                  # False inside no_grad(); read by _records()
_FFT_BLOCK = 1 << 17               # complex values per block of FFT-conv channels
FFT_MIN_KERNEL = 5                 # depth-wise stride-1 kernels from this extent run by FFT
_GELU_BLOCK = 1 << 15              # elements per GELU block; its temporaries stay in cache
LAYERNORM_EPS = 1e-6               # added to the channel variance before its square root
# erf(z) ~ z P(z^2) / Q(z^2) on z clipped to [-4, 4], highest power first
# (the coefficients of Eigen's float erf)
_ERF_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                   -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                   -1.60960333262415e-02], dtype=np.float32)
_ERF_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                   -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)


class ShapeError(ValueError):
    """Raised when operand shapes violate an operator's contract."""


class GraphError(RuntimeError):
    """Raised when a backward tape is misused (non-scalar root, reuse)."""


def _as_dtype(name: str) -> np.dtype:
    if name not in DTYPES:
        raise ValueError(f"unsupported dtype {name!r}; expected 'f32' or 'f64'")
    return np.dtype(DTYPES[name])


class _Node:
    """One recorded op on the tape: its backward closure and its parents.

    ``parents`` holds, per operand, the operand's node, the operand itself
    if it is a leaf with ``requires_grad``, or None if no gradient flows
    to it. ``backward()`` sets both fields to None once it has run the
    closure, which marks the node consumed.
    """

    __slots__ = ("backward_fn", "parents")

    def __init__(self, backward_fn: Callable, parents: tuple):
        self.backward_fn: Optional[Callable] = backward_fn
        self.parents: Optional[tuple] = parents


class Tensor:
    """A dense real array with an optional gradient buffer.

    ``data`` is always a C-contiguous float32 or float64 ndarray; any
    other input dtype becomes float64. When ``requires_grad`` is set
    (directly, or inherited from any input of an op) and the op runs
    outside ``no_grad()``, the result gets a ``_Node`` so that
    ``backward()`` can later fill ``grad`` on every reachable leaf. The
    node does not point back at the result, so the tape keeps a result's
    array alive only where a backward closure captured it.
    ``_backward_fn`` reads and replaces the node's closure.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, *, requires_grad: bool = False):
        arr = np.asarray(data)
        dt = arr.dtype if arr.dtype in (np.float32, np.float64) else np.dtype(np.float64)
        self.data = np.ascontiguousarray(arr, dtype=dt)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._node: Optional[_Node] = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype_name(self) -> str:
        return "f32" if self.data.dtype == np.float32 else "f64"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        grad = ", grad" if self.grad is not None else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype_name}{grad})"

    # -- autodiff engine -----------------------------------------------------

    @property
    def _backward_fn(self) -> Optional[Callable]:
        return None if self._node is None else self._node.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn: Callable) -> None:
        self._node.backward_fn = fn

    def _record(self, parents: Sequence["Tensor"], backward_fn: Callable) -> "Tensor":
        if _records(*parents):
            self.requires_grad = True
            self._node = _Node(backward_fn, tuple(
                p._node if p._node is not None else (p if p.requires_grad else None)
                for p in parents))
        return self

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded tape.

        Gradients accumulate additively into ``grad`` on every leaf with
        ``requires_grad``. Every node walked is consumed and its saved
        arrays released; a later backward that reaches a consumed node,
        from this root or any other, raises GraphError before any
        gradient changes.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise GraphError("loss does not depend on any tensor with requires_grad")
        if self._node is None:
            self.grad = np.ones_like(self.data) if self.grad is None else self.grad + 1
            return

        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.parents is None:
                raise GraphError("backward() through a graph that an earlier backward() "
                                 "consumed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if isinstance(p, _Node) and id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self._node): np.ones_like(self.data)}
        for node in reversed(topo):
            parent_grads = node.backward_fn(grads.pop(id(node)))
            for parent, pg in zip(node.parents, parent_grads):
                if isinstance(parent, Tensor):
                    parent.grad = pg if parent.grad is None else parent.grad + pg
                elif parent is not None:
                    prev = grads.get(id(parent))
                    grads[id(parent)] = pg if prev is None else prev + pg
            node.backward_fn = node.parents = None

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __neg__(self):
        return neg(self)


@contextmanager
def no_grad() -> Iterator[None]:
    """Scope in which ops compute the same arrays but record no tape.

    Results get no parents, no backward closure and no
    ``requires_grad``, so ``backward()`` through them raises GraphError.
    Parameters keep their ``requires_grad``. The flag is process-wide;
    the previous state is restored on exit, also on an exception, so
    scopes nest.
    """
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def _records(*tensors: Tensor) -> bool:
    """Whether an op on ``tensors`` records a tape node: outside
    ``no_grad()``, with one of them requiring a gradient."""
    return _recording and any(t.requires_grad for t in tensors)


def _wrap(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _check_same_dtype(*tensors: Tensor) -> np.dtype:
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"mixed dtypes {dt} and {t.data.dtype}")
    return dt


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _nchw(a: Tensor, op: str) -> tuple:
    """``a``'s (N, C, H, W) extents; ShapeError unless it is 4-D."""
    if a.ndim != 4:
        raise ShapeError(f"{op} expects (N,C,H,W), got shape {a.shape}")
    return a.shape


# -- elementwise ops ---------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    out = Tensor(a.data + b.data)
    sa, sb = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return out._record((a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    out = Tensor(a.data - b.data)
    sa, sb = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return out._record((a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    x, y = a.data, b.data
    out = Tensor(x * y)

    def bw(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return out._record((a, b), bw)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return out._record((a,), lambda g: (-g,))


def texp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return Tensor(y)._record((a,), lambda g: (g * y,))


def tabs(a: Tensor) -> Tensor:
    """Elementwise absolute value; subgradient uses sign(0) = 0."""
    x = a.data
    return Tensor(np.abs(x))._record((a,), lambda g: (g * np.sign(x),))


def tmean(a: Tensor) -> Tensor:
    n, shape, dt = a.data.size, a.shape, a.data.dtype
    out = Tensor(np.asarray(a.data.mean(), dtype=dt))
    return out._record((a,), lambda g: ((np.broadcast_to(g, shape) / n).astype(dt),))


def _horner(coeffs: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """The polynomial ``coeffs`` (highest power first) at ``z2``, in one new array."""
    acc = z2 * coeffs[0]
    for c in coeffs[1:-1]:
        acc += c
        acc *= z2
    acc += coeffs[-1]
    return acc


def _erf_f32(z: np.ndarray) -> np.ndarray:
    """erf of a float32 block, in float32, overwriting and returning ``z``.

    Over a dense grid of float32 z in [-8, 8] it stays within 4.5e-7
    absolute of the float64 erf; NaN stays NaN.
    """
    np.clip(z, -4.0, 4.0, out=z)
    z2 = z * z
    p = _horner(_ERF_P, z2)
    p *= z
    return np.divide(p, _horner(_ERF_Q, z2), out=z)


def _gelu_into(x: np.ndarray, y: np.ndarray, dy: Optional[np.ndarray] = None) -> None:
    """Write GELU(x) into ``y`` and, if given, its derivative into ``dy``.

    The arrays are C-contiguous and of one shape; ``y`` may be ``x``
    itself, since each flat block of ``_GELU_BLOCK`` elements is read
    before it is overwritten. Phi(x) goes through one block-sized
    workspace.
    """
    x, y = x.reshape(-1), y.reshape(-1)
    d = None if dy is None else dy.reshape(-1)
    if x.dtype != np.float32:
        from scipy.special import erf
    erf_block = _erf_f32 if x.dtype == np.float32 else (lambda z: erf(z, out=z))
    cdf = np.empty(min(x.size, _GELU_BLOCK), dtype=x.dtype)
    for i in range(0, x.size, _GELU_BLOCK):
        blk = slice(i, min(i + _GELU_BLOCK, x.size))
        c = erf_block(np.multiply(x[blk], _INV_SQRT2, out=cdf[:blk.stop - i]))
        c += 1.0
        c *= 0.5
        if d is not None:
            t = np.multiply(x[blk], x[blk], out=d[blk])
            t *= -0.5
            np.exp(t, out=t)
            t *= _INV_SQRT_2PI
            t *= x[blk]
            t += c
        np.multiply(x[blk], c, out=y[blk])


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF (erf form).

    f64 tensors take scipy's erf. f32 tensors take ``_erf_f32``, whose
    error of at most 4.5e-7 bounds Phi's by 2.3e-7, so the f32 output is
    within about 2.3e-7 |x| of the exact GELU before rounding. Both run
    over flat blocks in ``_gelu_into``. A recorded call also fills the
    derivative x phi(x) + Phi(x), and its backward is g times that; it
    keeps neither x nor Phi(x).
    """
    y = np.empty_like(a.data)
    dy = np.empty_like(a.data) if _records(a) else None
    _gelu_into(a.data, y, dy)
    return Tensor(y)._record((a,), lambda g: (g * dy,))


# -- shape ops ----------------------------------------------------------------


def reshape(a: Tensor, shape: tuple) -> Tensor:
    before = a.shape
    out = Tensor(a.data.reshape(shape))
    return out._record((a,), lambda g: (g.reshape(before),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))
    return out._record((a,), lambda g: (g.transpose(inv),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    _check_same_dtype(*tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return out._record(tuple(tensors), bw)


# -- softmax / normalization ---------------------------------------------------


def softmax(a: Tensor) -> Tensor:
    """Stable softmax along the last axis (per-row max subtraction)."""
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def bw(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return out._record((a,), bw)


def layernorm_channels(a: Tensor, gamma: Tensor) -> Tensor:
    """Standardize the channel vector at every spatial location, then scale.

    ``a`` is (N,C,H,W); ``gamma`` is per-channel (C,). There is no bias
    term; ``LAYERNORM_EPS`` is added to the variance.
    """
    _, c, _, _ = _nchw(a, "layernorm_channels")
    if gamma.shape != (c,):
        raise ShapeError(f"gamma shape {gamma.shape} does not match {c} channels")
    _check_same_dtype(a, gamma)

    x = a.data
    scale = gamma.data[:, None, None]
    xhat = x - x.mean(axis=1, keepdims=True)       # centred here, divided below
    y = xhat * xhat                                 # the squares, then the output
    inv = 1.0 / np.sqrt(y.mean(axis=1, keepdims=True) + LAYERNORM_EPS)
    xhat *= inv
    out = Tensor(np.multiply(xhat, scale, out=y))

    def bw(g):
        dxhat = g * scale
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, (g * xhat).sum(axis=(0, 2, 3))

    return out._record((a, gamma), bw)


# -- matmul -------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product ``a[..., M, K] @ b[..., K, N]``; the leading
    batch extents of the two operands must be equal."""
    _check_same_dtype(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch extents differ: {a.shape} @ {b.shape}")
    x, y = a.data, b.data
    out = Tensor(np.matmul(x, y))

    def bw(g):
        return np.matmul(g, np.swapaxes(y, -1, -2)), np.matmul(np.swapaxes(x, -1, -2), g)

    return out._record((a, b), bw)


# -- pixel shuffle ------------------------------------------------------------


def _unshuffle(x: np.ndarray) -> np.ndarray:
    """(N,C,H,W) -> (N,4C,H/2,W/2) as a C-contiguous array."""
    n, c, h, w = x.shape
    y = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 5, 2, 4)
    return np.ascontiguousarray(y.reshape(n, 4 * c, h // 2, w // 2))


def _shuffle(x: np.ndarray) -> np.ndarray:
    """(N,C,H,W) -> (N,C/4,2H,2W) as a C-contiguous array; undoes ``_unshuffle``."""
    n, c, h, w = x.shape
    y = x.reshape(n, c // 4, 2, 2, h, w).transpose(0, 1, 4, 2, 5, 3)
    return np.ascontiguousarray(y.reshape(n, c // 4, 2 * h, 2 * w))


def pixel_unshuffle(a: Tensor) -> Tensor:
    """(N,C,H,W) -> (N,4C,H/2,W/2); block (dy,dx) lands at channel 4c + 2dy + dx."""
    _, _, h, w = _nchw(a, "pixel_unshuffle")
    if h % 2 or w % 2:
        raise ShapeError(f"spatial extents {h}x{w} not divisible by 2")
    out = Tensor(_unshuffle(a.data))
    return out._record((a,), lambda g: (_shuffle(g),))


def pixel_shuffle(a: Tensor) -> Tensor:
    """(N,C,H,W) -> (N,C/4,2H,2W); exact inverse of pixel_unshuffle."""
    _, c, _, _ = _nchw(a, "pixel_shuffle")
    if c % 4:
        raise ShapeError(f"channel extent {c} not divisible by 4")
    out = Tensor(_shuffle(a.data))
    return out._record((a,), lambda g: (_unshuffle(g),))


# -- convolution ----------------------------------------------------------------


def _pad_and_taps(x: np.ndarray, k: int, stride: int, ho: int, wo: int):
    """``x`` zero-padded by k // 2 on its last two axes and, per tap in
    row-major order, the index of the strided (..., Ho, Wo) window that tap reads."""
    *lead, h, wid = x.shape
    p = k // 2
    xp = x
    if p:
        xp = np.zeros((*lead, h + 2 * p, wid + 2 * p), dtype=x.dtype)
        xp[..., p:p + h, p:p + wid] = x
    return xp, [(..., slice(di, di + stride * ho, stride), slice(dj, dj + stride * wo, stride))
                for di in range(k) for dj in range(k)]


def _conv_matmul(x: np.ndarray, w: np.ndarray, stride: int, ho: int, wo: int):
    """Dense conv as one matmul over the k*k taps of its narrower side.

    Windows (k == 1 or C_in <= C_out, im2col): (C_out, C_in*k*k) @ the
    stacked tap windows of x, or x itself if 1x1 and stride 1.
    Planes (col2im): (k*k*C_out, C_in) @ x is a plane per tap; each padded
    plane is read at its tap's window and summed. The backward places g in
    those windows, so its tape keeps the reshaped weight and shapes only.
    """
    n, c_in, h, wid = x.shape
    c_out, _, k, _ = w.shape
    p = k // 2
    if k == 1 or c_in <= c_out:
        xp, taps = _pad_and_taps(x, k, stride, ho, wo)
        padded = xp.shape
        whole = k == 1 and stride == 1
        cols = xp if whole else np.stack([xp[at] for at in taps], axis=2)
        cols = cols.reshape(n, c_in * k * k, ho * wo)
        w2 = w.reshape(c_out, c_in * k * k)
        out = np.matmul(w2, cols).reshape(n, c_out, ho, wo)

        def bw(g):
            gr = g.reshape(n, c_out, ho * wo)
            gw = np.matmul(gr, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
            gcols = np.matmul(w2.T, gr)
            if whole:
                return gcols.reshape(x.shape), gw
            gcols = gcols.reshape(n, c_in, k * k, ho, wo)
            gxp = np.zeros(padded, dtype=x.dtype)
            for t, at in enumerate(taps):
                gxp[at] += gcols[:, :, t]
            return gxp[:, :, p:p + h, p:p + wid], gw
    else:
        w2 = w.transpose(2, 3, 0, 1).reshape(k * k * c_out, c_in)
        planes = np.matmul(w2, x.reshape(n, c_in, h * wid)).reshape(n, k * k, c_out, h, wid)
        planes, taps = _pad_and_taps(planes, k, stride, ho, wo)
        padded = planes.shape
        out = sum(planes[:, t][at] for t, at in enumerate(taps))

        def bw(g):
            gp = np.zeros(padded, dtype=x.dtype)
            for t, at in enumerate(taps):
                gp[:, t][at] = g
            gp = gp[..., p:p + h, p:p + wid].reshape(n, -1, h * wid)
            gw = np.matmul(gp, x.reshape(n, c_in, h * wid).transpose(0, 2, 1)).sum(axis=0)
            return (np.matmul(w2.T, gp).reshape(x.shape),
                    gw.reshape(k, k, c_out, c_in).transpose(2, 3, 0, 1))
    return out, bw


def _irfft2_crop(spec: np.ndarray, s: tuple, h: int, w: int) -> np.ndarray:
    """The leading h x w corner of ``irfft2(spec, s)``, as a view.

    The column pass overwrites ``spec`` and the row pass runs only over
    the h rows kept, so no second spectrum-sized buffer is allocated.
    """
    from scipy.fft import ifft, irfft
    spec = ifft(spec, axis=-2, overwrite_x=True)
    return irfft(spec[..., :h, :], n=s[1], axis=-1)[..., :w]


def _tap_spectrum(w: np.ndarray, lag: np.ndarray, s: tuple) -> np.ndarray:
    """rfft2 over an s-sized grid of depth-wise taps ``w`` (C, 1, k, k),
    tap a sitting at offset ``lag[a]`` from the origin (modulo s).

    Evaluated from the k x k taps as two DFT-matrix products over all C
    channels at once, (C*k, k) @ (k, m) and then (s0, k) @ (k, C*m), so
    no s-sized copy of the kernel is built. Returns a (C, s0, m) view.
    """
    cdt = np.result_type(w.dtype, np.complex64)
    c, _, k, _ = w.shape
    m = s[1] // 2 + 1

    def dft(size: int, keep: int) -> np.ndarray:       # (k, keep): tap -> frequency
        return np.exp(-2j * np.pi * np.outer(lag, np.arange(keep)) / size).astype(cdt)

    cols = (w.reshape(c * k, k) @ dft(s[1], m)).reshape(c, k, m)
    rows = dft(s[0], s[0]).T @ cols.transpose(1, 0, 2).reshape(k, c * m)
    return rows.reshape(s[0], c, m).transpose(1, 0, 2)


def _conv_dw_fft(x: np.ndarray, w: np.ndarray, out: np.ndarray):
    """Depth-wise, stride 1, as products of 2-D spectra, written into ``out``.

    With pad = k // 2, each transform spans the kernel and at least
    (H+pad) x (W+pad), so the circular wrap-around of every tap lands in
    zero padding. Tap a sits at offset pad - a, so output (i, j) is read
    at (i, j). Channels go through in blocks of about _FFT_BLOCK spectrum
    values, so the spectra held at any time stay small beside the output;
    the backward recomputes them rather than keep any on the tape. A
    block is transformed before its output is written, so ``out`` may be
    ``x`` itself when no backward will run.
    """
    from scipy.fft import irfft2, next_fast_len, rfft2
    n, c, h, wid = x.shape
    k = w.shape[-1]
    pad = k // 2
    s = tuple(next_fast_len(max(e + pad, k), real=True) for e in (h, wid))
    lag = pad - np.arange(k)
    step = max(1, _FFT_BLOCK // (n * s[0] * (s[1] // 2 + 1)))
    blocks = [slice(c0, c0 + step) for c0 in range(0, c, step)]
    for ch in blocks:
        spec = rfft2(x[:, ch], s)
        spec *= _tap_spectrum(w[ch], lag, s)
        out[:, ch] = _irfft2_crop(spec, s, h, wid)

    def bw(g):
        gx = np.empty(x.shape, dtype=x.dtype)
        gw = np.empty(w.shape, dtype=w.dtype)
        for ch in blocks:
            gspec = rfft2(g[:, ch], s)
            xspec = rfft2(x[:, ch], s)
            np.conjugate(xspec, out=xspec)
            xspec *= gspec
            # corr[d] = sum_i g[i + d] x[i]; tap a reads lag d = pad - a
            corr = irfft2(xspec.sum(axis=0), s)
            gw[ch, 0] = corr[:, (lag % s[0])[:, None], (lag % s[1])[None, :]]
            gspec *= _tap_spectrum(w[ch], lag, s).conj()
            gx[:, ch] = _irfft2_crop(gspec, s, h, wid)
        return gx, gw

    return out, bw


def _conv_taps(x: np.ndarray, w: np.ndarray, stride: int, ho: int, wo: int):
    """Depth-wise conv as a sum over its k*k taps, in the tensor's dtype.
    The backward pads ``x`` again rather than keep a padded copy on the tape."""
    n, c, h, wid = x.shape
    k = w.shape[-1]
    p = k // 2
    wt = w.reshape(c, k * k, 1, 1)
    xp, taps = _pad_and_taps(x, k, stride, ho, wo)
    acc = np.zeros((n, c, ho, wo), dtype=x.dtype)
    tmp = np.empty_like(acc)
    for t, at in enumerate(taps):
        acc += np.multiply(xp[at], wt[:, t], out=tmp)

    def bw(g):
        xp, _ = _pad_and_taps(x, k, stride, ho, wo)
        gxp = np.zeros(xp.shape, dtype=x.dtype)
        gw = np.empty((c, k * k), dtype=w.dtype)
        tmp = np.empty(g.shape, dtype=x.dtype)
        for t, at in enumerate(taps):
            gw[:, t] = np.multiply(g, xp[at], out=tmp).sum(axis=(0, 2, 3))
            gxp[at] += np.multiply(g, wt[:, t], out=tmp)
        return gxp[:, :, p:p + h, p:p + wid], gw.reshape(w.shape)

    return acc, bw


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, groups: int = 1) -> Tensor:
    """2-D same-padded convolution (cross-correlation) with square odd kernels.

    ``x`` is (N,C_in,H,W); ``weight`` is (C_out, C_in/groups, k, k). The
    input is zero-padded by k // 2 on each side, so the output is
    (N, C_out, ceil(H/stride), ceil(W/stride)). Two groupings are
    supported: dense (groups == 1) and depth-wise (groups == C_in ==
    C_out); any other ``groups`` raises ShapeError.

    The kernel follows from the shapes: every dense conv is one matmul
    (``_conv_matmul``), a depth-wise stride-1 conv with k >= ``FFT_MIN_KERNEL``
    (5) runs through an FFT, and any other depth-wise conv loops over its k*k
    taps. The kernels all compute in the tensor's dtype, so f64 stays
    exact enough for gradcheck and f32 sums in f32. The bias is added here,
    once, onto the fresh array the kernel returns."""
    _check_same_dtype(x, weight, *([bias] if bias is not None else []))
    _, c_in, h, w = _nchw(x, "conv2d")
    if weight.ndim != 4 or weight.shape[-1] != weight.shape[-2]:
        raise ShapeError(f"weight must be (C_out, C_in/groups, k, k), got {weight.shape}")
    c_out, c_in_g, k, _ = weight.shape
    if k % 2 == 0:
        raise ShapeError(f"kernel extent must be odd, got {k}")
    if stride < 1 or groups < 1:
        raise ValueError("stride >= 1 and groups >= 1 required")
    if groups != 1 and not (groups == c_in == c_out):
        raise ShapeError(f"groups={groups} is neither 1 nor depth-wise for channels "
                         f"{c_in}->{c_out}")
    if c_in_g != c_in // groups:
        raise ShapeError(f"weight expects {c_in_g * groups} input channels, input has {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"bias shape {bias.shape} does not match {c_out} output channels")
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1

    if groups == 1:
        out_data, kernel_bw = _conv_matmul(x.data, weight.data, stride, ho, wo)
    elif stride == 1 and k >= FFT_MIN_KERNEL:
        out_data, kernel_bw = _conv_dw_fft(x.data, weight.data, np.empty_like(x.data))
    else:
        out_data, kernel_bw = _conv_taps(x.data, weight.data, stride, ho, wo)
    if bias is not None:
        out_data += bias.data[None, :, None, None]
    out = Tensor(out_data)

    def bw(g):
        gx, gw = kernel_bw(g)
        return (gx, gw) if bias is None else (gx, gw, g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return out._record(parents, bw)


# -- gradient oracle -------------------------------------------------------------


def central_difference(f: Callable[[], float], arr: np.ndarray, index: int,
                       h: float) -> float:
    """(f() at arr + h e_index - f() at arr - h e_index) / 2h.

    ``arr`` is C-contiguous and is perturbed in place at flat position
    ``index``, which ``f`` must read; the element is restored afterwards.
    """
    flat = arr.reshape(-1)
    orig = flat[index]
    flat[index] = orig + h
    fp = f()
    flat[index] = orig - h
    fm = f()
    flat[index] = orig
    return (fp - fm) / (2.0 * h)


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a tensor-to-scalar function.

    ``f`` must be deterministic; it receives a detached copy of ``x``
    with one element perturbed by +/- h at a time, so writing to it does
    not disturb later probes.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    base = x.data.copy()

    def evaluate() -> float:
        r = f(Tensor(base.copy()))
        return r.item() if isinstance(r, Tensor) else float(r)

    grad = np.zeros_like(base)
    gflat = grad.reshape(-1)
    for i in range(base.size):
        gflat[i] = central_difference(evaluate, base, i, h)
    return grad
