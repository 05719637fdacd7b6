"""Dense matrix helpers, activation batches, and the binary tensor-dump format.

Matrices are plain 2-D float64 numpy arrays throughout the library.  Data
is checked where it enters: ``as_matrix`` and ``ActivationBatch`` validate
shapes and finiteness, and the loaders the "SPQT" dump format used to move
calibration data between commands.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"SPQT"
FORMAT_VERSION = 1
_KIND_MATRIX = 0
_KIND_BATCH = 1


class TensorFormatError(ValueError):
    """Raised for malformed tensor-dump files."""


class ModalityTag(enum.IntEnum):
    TEXT = 0
    VISION = 1


def as_matrix(values) -> np.ndarray:
    """Validate and return a 2-D float64 matrix.

    Rejects non-2-D input and NaN/Inf elements.
    """
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite value in matrix")
    return np.ascontiguousarray(m)


@dataclass(frozen=True)
class ActivationBatch:
    """Token-by-channel activations plus a per-token modality tag.

    ``data`` is T x D, ``tags`` has length T with values from ModalityTag.
    Either modality may be empty, but the batch holds at least one token and
    one channel.
    """

    data: np.ndarray
    tags: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", as_matrix(self.data))
        tags = np.asarray(self.tags, dtype=np.uint8)
        if tags.ndim != 1:
            raise ValueError("tags must be a 1-D sequence")
        if tags.shape[0] != self.data.shape[0]:
            raise ValueError("tag-length mismatch")
        if self.data.shape[0] < 1:
            raise ValueError("batch must contain at least one token")
        if self.data.shape[1] < 1:
            raise ValueError("batch must have at least one channel")
        if not np.all((tags == ModalityTag.TEXT) | (tags == ModalityTag.VISION)):
            raise ValueError("tags must be 0 (text) or 1 (vision)")
        object.__setattr__(self, "tags", tags)

    @property
    def text_rows(self) -> np.ndarray:
        return np.flatnonzero(self.tags == ModalityTag.TEXT)

    @property
    def vision_rows(self) -> np.ndarray:
        return np.flatnonzero(self.tags == ModalityTag.VISION)


def save_tensor(path, obj) -> None:
    """Write a matrix or ActivationBatch to the binary dump format.

    Layout (little-endian): magic "SPQT", version u32, kind u8
    (0 = matrix, 1 = batch), rows u64, cols u64, rows*cols float64
    row-major; batches append one tag byte per row.
    """
    if isinstance(obj, ActivationBatch):
        kind, data, tags = _KIND_BATCH, obj.data, obj.tags
    else:
        kind, data, tags = _KIND_MATRIX, as_matrix(obj), None
    rows, cols = data.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IBQQ", FORMAT_VERSION, kind, rows, cols))
        fh.write(data.astype("<f8").tobytes(order="C"))
        if tags is not None:
            fh.write(tags.tobytes())


def load_tensor(path):
    """Read a matrix or ActivationBatch written by :func:`save_tensor`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = struct.calcsize("<IBQQ")
    if len(raw) < 4 + header:
        raise TensorFormatError("truncated header")
    if raw[:4] != MAGIC:
        raise TensorFormatError("bad magic")
    version, kind, rows, cols = struct.unpack_from("<IBQQ", raw, 4)
    if version != FORMAT_VERSION:
        raise TensorFormatError(f"unsupported version {version}")
    if kind not in (_KIND_MATRIX, _KIND_BATCH):
        raise TensorFormatError(f"unknown kind {kind}")
    offset = 4 + header
    payload = rows * cols * 8
    if len(raw) < offset + payload:
        raise TensorFormatError("truncated payload")
    values = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=offset)
    values = values.reshape(rows, cols).copy()
    if not np.all(np.isfinite(values)):
        raise TensorFormatError("non-finite value")
    if kind == _KIND_MATRIX:
        if len(raw) != offset + payload:
            raise TensorFormatError("trailing bytes after matrix payload")
        return values
    tag_bytes = raw[offset + payload :]
    if len(tag_bytes) != rows:
        raise TensorFormatError("tag-length mismatch")
    tags = np.frombuffer(tag_bytes, dtype=np.uint8).copy()
    if not np.all(tags <= 1):
        raise TensorFormatError("invalid modality tag")
    return ActivationBatch(values, tags)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_tensor`; a batch is a format error."""
    m = load_tensor(path)
    if isinstance(m, ActivationBatch):
        raise TensorFormatError(f"{path} contains a batch, expected a matrix")
    return m
