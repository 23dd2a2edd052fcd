"""MTSR1 binary tensor files.

Layout: magic ``MTSR``, version byte 1, dtype byte (0 = f32, 1 = f64),
u8 rank, rank little-endian u32 extents, then the raw little-endian
values in row-major order. Used for dataset slices, checkpoints and
inference I/O.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Union

import numpy as np

MAGIC = b"MTSR"
VERSION = 1
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class FormatError(ValueError):
    """Raised on malformed or truncated MTSR1 data."""


def write_tensor(stream: BinaryIO, array: np.ndarray) -> int:
    """Serialize one tensor record; returns the number of bytes written."""
    arr = np.ascontiguousarray(array)
    if arr.dtype not in _DTYPE_CODES:
        raise FormatError(f"unsupported dtype {arr.dtype}; expected float32 or float64")
    if arr.ndim > 255:
        raise FormatError("rank exceeds 255")
    header = MAGIC + struct.pack("<BBB", VERSION, _DTYPE_CODES[arr.dtype], arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    stream.write(header)
    stream.write(payload)
    return len(header) + len(payload)


def _record_size(shape, dtype: np.dtype) -> int:
    """Bytes of the record ``write_tensor`` writes for an array of ``shape`` and ``dtype``."""
    return 7 + 4 * len(shape) + math.prod(shape) * dtype.itemsize


def read_tensor(stream: BinaryIO) -> np.ndarray:
    """Read one tensor record from the current stream position."""
    head = stream.read(7)
    if len(head) != 7:
        raise FormatError("truncated header")
    if head[:4] != MAGIC:
        raise FormatError(f"bad magic {head[:4]!r}")
    version, dtype_code, rank = struct.unpack("<BBB", head[4:])
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if dtype_code not in _CODE_DTYPES:
        raise FormatError(f"unknown dtype code {dtype_code}")
    ext_bytes = stream.read(4 * rank)
    if len(ext_bytes) != 4 * rank:
        raise FormatError("truncated extents")
    shape = struct.unpack(f"<{rank}I", ext_bytes)
    dt = _CODE_DTYPES[dtype_code]
    count = math.prod(shape)
    if stream.seekable():
        # a corrupt extent must not size a read far beyond the end of the data
        here = stream.tell()
        if stream.seek(0, 2) - here < count * dt.itemsize:
            raise FormatError("truncated payload")
        stream.seek(here)
    payload = stream.read(count * dt.itemsize)
    if len(payload) != count * dt.itemsize:
        raise FormatError("truncated payload")
    arr = np.frombuffer(payload, dtype=dt, count=count).reshape(shape)
    return arr.astype(dt.newbyteorder("="), copy=True)


@contextmanager
def _atomic_write(path: Union[str, Path]) -> Iterator[Path]:
    """Yield ``<path>.tmp`` to write, then rename it over ``path``, or remove it on failure."""
    tmp = Path(f"{path}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_tensor(path: Union[str, Path], array: np.ndarray) -> None:
    with _atomic_write(path) as tmp, open(tmp, "wb") as fh:
        write_tensor(fh, array)


def load_tensor(path: Union[str, Path]) -> np.ndarray:
    with open(path, "rb") as fh:
        arr = read_tensor(fh)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after tensor record")
    return arr
