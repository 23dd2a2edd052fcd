"""MTSR1 tensor-file format tests, and the atomic write every file writer shares."""

import io
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctmar.io import FormatError, _record_size, load_tensor, read_tensor, save_tensor, write_tensor
from ctmar.model import build_model, save_checkpoint
from ctmar.simulate import make_dataset
from ctmar.train import (GRADCHECK_CONFIG, CurvePoint, MetricsReport, write_curve_csv,
                         write_metrics_csv)


def roundtrip(arr):
    buf = io.BytesIO()
    size = write_tensor(buf, arr)
    buf.seek(0)
    back = read_tensor(buf)
    assert size == _record_size(back.shape, back.dtype)
    return back


def test_roundtrip_f32_and_f64():
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64):
        arr = rng.normal(size=(3, 4, 5)).astype(dtype)
        back = roundtrip(arr)
        assert back.dtype == dtype
        np.testing.assert_array_equal(back, arr)


def test_scalar_and_vector():
    np.testing.assert_array_equal(roundtrip(np.float32(3.5)), np.float32(3.5))
    np.testing.assert_array_equal(roundtrip(np.arange(7, dtype=np.float64)),
                                  np.arange(7, dtype=np.float64))


def test_header_layout():
    buf = io.BytesIO()
    write_tensor(buf, np.zeros((2, 3), dtype=np.float32))
    raw = buf.getvalue()
    assert raw[:4] == b"MTSR"
    assert raw[4] == 1              # version
    assert raw[5] == 0              # f32
    assert raw[6] == 2              # rank
    assert struct.unpack("<2I", raw[7:15]) == (2, 3)
    assert len(raw) == 15 + 2 * 3 * 4


def test_little_endian_values():
    buf = io.BytesIO()
    write_tensor(buf, np.array([1.0], dtype=np.float32))
    assert buf.getvalue()[-4:] == struct.pack("<f", 1.0)


def test_bad_magic():
    with pytest.raises(FormatError, match="magic"):
        read_tensor(io.BytesIO(b"XXXX" + bytes(10)))


def test_bad_version():
    buf = io.BytesIO()
    write_tensor(buf, np.zeros(2, dtype=np.float32))
    raw = bytearray(buf.getvalue())
    raw[4] = 9
    with pytest.raises(FormatError, match="version"):
        read_tensor(io.BytesIO(bytes(raw)))


def test_bad_dtype_code():
    buf = io.BytesIO()
    write_tensor(buf, np.zeros(2, dtype=np.float32))
    raw = bytearray(buf.getvalue())
    raw[5] = 7
    with pytest.raises(FormatError, match="dtype"):
        read_tensor(io.BytesIO(bytes(raw)))


def test_truncated_payload():
    buf = io.BytesIO()
    write_tensor(buf, np.zeros(8, dtype=np.float64))
    with pytest.raises(FormatError, match="truncated"):
        read_tensor(io.BytesIO(buf.getvalue()[:-3]))


def test_int_dtype_rejected():
    with pytest.raises(FormatError):
        write_tensor(io.BytesIO(), np.zeros(3, dtype=np.int32))


def test_file_roundtrip(tmp_path):
    arr = np.linspace(0, 1, 24, dtype=np.float32).reshape(2, 3, 4)
    path = tmp_path / "t.mtsr"
    save_tensor(path, arr)
    np.testing.assert_array_equal(load_tensor(path), arr)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.mtsr"
    save_tensor(path, np.zeros(2, dtype=np.float32))
    with open(path, "ab") as fh:
        fh.write(b"junk")
    with pytest.raises(FormatError, match="trailing"):
        load_tensor(path)


@pytest.mark.parametrize("arr", [np.arange(60, dtype=np.float32).reshape(3, 4, 5),
                                 np.linspace(-1, 1, 7)], ids=["f32-rank3", "f64-rank1"])
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncation_or_bit_flip_raises_only_format_error(tmp_path, arr, data):
    """Cut a written file at any length, or flip any one bit: load_tensor
    raises FormatError and nothing else. MTSR1 has no checksum, so a flip
    in the payload loads, with the same shape and the one value changed;
    a flip anywhere in the header is always caught."""
    path = tmp_path / "t.mtsr"
    save_tensor(path, arr)
    raw = bytearray(path.read_bytes())
    header_bytes = 7 + 4 * arr.ndim
    if data.draw(st.booleans(), label="truncate"):
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
        with pytest.raises(FormatError):
            load_tensor(path)
        return
    bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
    raw[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(raw))
    if bit < 8 * header_bytes:
        with pytest.raises(FormatError):
            load_tensor(path)
    else:
        back = load_tensor(path)
        assert back.shape == arr.shape
        assert np.count_nonzero(back.view(np.uint8) != arr.view(np.uint8)) == 1


def test_corrupt_extent_does_not_size_the_read():
    """An extent with its top bit flipped is reported as truncated rather
    than asking the stream for gigabytes."""
    buf = io.BytesIO()
    write_tensor(buf, np.zeros((2, 3), dtype=np.float32))
    raw = bytearray(buf.getvalue())
    raw[7 + 3] ^= 0x80                      # first extent: 2 -> 2 + 2**31

    class Guarded(io.BytesIO):
        def read(self, size=-1):
            assert size < 1 << 20, f"read of {size} bytes"
            return super().read(size)

    with pytest.raises(FormatError, match="truncated payload"):
        read_tensor(Guarded(bytes(raw)))


# each writer, as (file it writes under tmp_path, write(path, seed))
WRITERS = {
    "checkpoint": ("model.mckp", lambda path, seed: save_checkpoint(
        build_model(GRADCHECK_CONFIG, seed=seed), path)),
    "tensor": ("slice.mtsr", lambda path, seed: save_tensor(
        path, np.full((2, 3), seed, dtype=np.float32))),
    "manifest": ("ds/manifest.json", lambda path, seed: make_dataset(1, 8, seed, path.parent)),
    "curve": ("loss_curve.csv", lambda path, seed: write_curve_csv(
        path, [CurvePoint(step=1, epoch=0, lr=1e-3, loss=seed)])),
    "metrics": ("metrics.csv", lambda path, seed: write_metrics_csv(
        path, MetricsReport(rows=[("0000", seed, 0.5)], mean_psnr=seed, mean_ssim=0.5))),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    """A write that fails at its final rename leaves the previous file whole
    and no temporary file beside it."""
    name, write = WRITERS[writer]
    path = tmp_path / name
    write(path, 1)
    before, listing = path.read_bytes(), sorted(p.name for p in path.parent.iterdir())
    real_replace = os.replace

    def failing_replace(src, dst):
        if os.fspath(dst) == os.fspath(path):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr("os.replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write(path, 2)
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == listing
