"""Volume containers and the PVOL binary file format.

PVOL layout (little-endian, no padding between fields):

    magic   4 bytes ASCII "PVOL"
    version u32 = 1
    dtype   u8   (1 = f32 intensities, 2 = u8 binary mask)
    dims    m, h, w as u32 each
    spacing sz, sy, sx as f32 each (mm)
    payload slice-major: z outer, then row-major h x w

Masks store one byte per voxel, strictly 0 or 1.

``Volume``, ``MaskVolume`` and ``ProbVolume`` share one base, ``_Grid``,
which holds the data and spacing and checks the rank, the size and the
spacing; each class adds only its value rule. ``_PAYLOAD`` is the one
table from dtype code to payload dtype, for writing and reading alike.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import MagicError, SchemaError, TruncationError, read_input, write_output

MAGIC = b"PVOL"
VERSION = 1
DTYPE_F32 = 1
DTYPE_MASK = 2

Spacing = tuple[float, float, float]


@dataclass
class _Grid:
    """A 3-D array (m, h, w) with voxel spacing in mm. A subclass states its
    value rule in ``_values``, which checks the data and returns it in the
    subclass's dtype."""

    data: np.ndarray
    spacing: Spacing = (1.0, 1.0, 1.0)

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise SchemaError(f"volume data must be 3-D (m,h,w), got shape {data.shape}")
        if min(data.shape) < 1:
            raise SchemaError(f"volume dims must all be >= 1, got {data.shape}")
        self.data = self._values(data)
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or not all(0 < s < np.inf for s in spacing):  # NaN fails too
            raise SchemaError(f"voxel spacing must be 3 finite values above 0, got {spacing}")
        self.spacing = spacing

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


def _floating(data: np.ndarray) -> np.ndarray:
    return data if np.issubdtype(data.dtype, np.floating) else data.astype(np.float32)


class Volume(_Grid):
    """Real-valued 3-D scalar field."""

    @staticmethod
    def _values(data):
        data = _floating(data)
        if not np.all(np.isfinite(data)):
            raise SchemaError("volume intensities must all be finite")
        return data


class MaskVolume(_Grid):
    """Binary 3-D label field; 1 = foreground, 0 = background."""

    @staticmethod
    def _values(data):
        if not ((data == 0) | (data == 1)).all():  # NaN fails too
            raise SchemaError(f"mask labels must be 0/1, found values {np.unique(data)[:8]}")
        return data.astype(np.uint8)


class ProbVolume(_Grid):
    """Per-voxel foreground probabilities in [0, 1]."""

    @staticmethod
    def _values(data):
        data = _floating(data)
        lo, hi = float(data.min()), float(data.max())
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo < 0.0 or hi > 1.0:
            raise SchemaError(f"probabilities must lie in [0,1], found range [{lo}, {hi}]")
        return data


_HEADER = struct.Struct("<4sIB3I3f")
# dtype code -> payload dtype and the class a read returns; a ProbVolume is
# written as f32 and reads back as a Volume
_PAYLOAD = {DTYPE_F32: (np.dtype("<f4"), Volume), DTYPE_MASK: (np.dtype(np.uint8), MaskVolume)}


def write_pvol(v: Volume | MaskVolume | ProbVolume) -> bytes:
    """Serialize a volume; lossless for f32 intensities and u8 masks."""
    if not isinstance(v, _Grid):
        raise SchemaError(f"cannot serialize object of type {type(v).__name__}")
    dtype_code = DTYPE_MASK if isinstance(v, MaskVolume) else DTYPE_F32
    payload = np.ascontiguousarray(v.data, dtype=_PAYLOAD[dtype_code][0]).tobytes()
    return _HEADER.pack(MAGIC, VERSION, dtype_code, *v.dims, *v.spacing) + payload


def read_pvol(data: bytes) -> Volume | MaskVolume:
    """Parse PVOL bytes into a Volume (f32) or MaskVolume (u8)."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise MagicError("unrecognized format: bad PVOL magic")
    if len(data) < _HEADER.size:
        raise TruncationError(f"PVOL header truncated at {len(data)} bytes")
    _, version, dtype_code, m, h, w, sz, sy, sx = _HEADER.unpack_from(data)
    if version != VERSION:
        raise SchemaError(f"unsupported PVOL version {version}")
    if dtype_code not in _PAYLOAD:
        raise SchemaError(f"unknown PVOL dtype code {dtype_code}")
    dtype, cls = _PAYLOAD[dtype_code]
    expected = _HEADER.size + m * h * w * dtype.itemsize
    if len(data) != expected:
        raise TruncationError(
            f"PVOL payload length mismatch: header promises {expected} bytes total, got {len(data)}"
        )
    arr = np.frombuffer(data, dtype, offset=_HEADER.size).reshape(m, h, w)
    return cls(arr.copy(), (sz, sy, sx))  # the class refuses a zero-length axis


def read_pvol_file(path) -> Volume | MaskVolume:
    """``read_pvol`` of a file, through ``read_input``."""
    return read_input(path, read_pvol)


def write_pvol_file(path, v: Volume | MaskVolume | ProbVolume) -> None:
    write_output(path, write_pvol(v))

