"""Volume containers and the PVOL binary file format.

PVOL layout (little-endian, no padding between fields):

    magic   4 bytes ASCII "PVOL"
    version u32 = 1
    dtype   u8   (1 = f32 intensities, 2 = u8 binary mask)
    dims    m, h, w as u32 each
    spacing sz, sy, sx as f32 each (mm)
    payload slice-major: z outer, then row-major h x w

Masks store one byte per voxel, strictly 0 or 1.
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


def _check_dims(data: np.ndarray) -> None:
    if data.ndim != 3:
        raise SchemaError(f"volume data must be 3-D (m,h,w), got shape {data.shape}")
    if min(data.shape) < 1:
        raise SchemaError(f"volume dims must all be >= 1, got {data.shape}")


def _check_spacing(spacing) -> Spacing:
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or not all(0 < s < np.inf for s in spacing):  # NaN fails too
        raise SchemaError(f"voxel spacing must be 3 finite values above 0, got {spacing}")
    return spacing


@dataclass
class Volume:
    """Real-valued 3-D scalar field with voxel spacing in mm."""

    data: np.ndarray
    spacing: Spacing = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        _check_dims(self.data)
        if not np.issubdtype(self.data.dtype, np.floating):
            self.data = self.data.astype(np.float32)
        if not np.all(np.isfinite(self.data)):
            raise SchemaError("volume intensities must all be finite")
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass
class MaskVolume:
    """Binary 3-D label field; 1 = foreground, 0 = background."""

    data: np.ndarray
    spacing: Spacing = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        _check_dims(self.data)
        vals = np.unique(self.data)
        if not np.isin(vals, (0, 1)).all():
            raise SchemaError(f"mask labels must be 0/1, found values {vals[:8]}")
        self.data = self.data.astype(np.uint8)
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def voxel_count(self) -> int:
        return int(self.data.sum())


@dataclass
class ProbVolume:
    """Per-voxel foreground probabilities in [0, 1]."""

    data: np.ndarray
    spacing: Spacing = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        _check_dims(self.data)
        if not np.issubdtype(self.data.dtype, np.floating):
            self.data = self.data.astype(np.float32)
        lo, hi = float(self.data.min()), float(self.data.max())
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo < 0.0 or hi > 1.0:
            raise SchemaError(f"probabilities must lie in [0,1], found range [{lo}, {hi}]")
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


_HEADER = struct.Struct("<4sIB3I3f")


def write_pvol(v: Volume | MaskVolume | ProbVolume) -> bytes:
    """Serialize a volume; lossless for f32 intensities and u8 masks."""
    if isinstance(v, MaskVolume):
        dtype_code = DTYPE_MASK
        payload = np.ascontiguousarray(v.data, dtype=np.uint8).tobytes()
    elif isinstance(v, (Volume, ProbVolume)):
        dtype_code = DTYPE_F32
        payload = np.ascontiguousarray(v.data, dtype="<f4").tobytes()
    else:
        raise SchemaError(f"cannot serialize object of type {type(v).__name__}")
    m, h, w = v.dims
    sz, sy, sx = v.spacing
    header = _HEADER.pack(MAGIC, VERSION, dtype_code, m, h, w, sz, sy, sx)
    return header + payload


def read_pvol(data: bytes) -> Volume | MaskVolume:
    """Parse PVOL bytes into a Volume (f32) or MaskVolume (u8)."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise MagicError("unrecognized format: bad PVOL magic")
    if len(data) < _HEADER.size:
        raise TruncationError(f"PVOL header truncated at {len(data)} bytes")
    _, version, dtype_code, m, h, w, sz, sy, sx = _HEADER.unpack_from(data)
    if version != VERSION:
        raise SchemaError(f"unsupported PVOL version {version}")
    if dtype_code not in (DTYPE_F32, DTYPE_MASK):
        raise SchemaError(f"unknown PVOL dtype code {dtype_code}")
    if min(m, h, w) < 1:
        raise SchemaError(f"PVOL dims must be >= 1, got ({m}, {h}, {w})")
    n_vox = m * h * w
    itemsize = 1 if dtype_code == DTYPE_MASK else 4
    expected = _HEADER.size + n_vox * itemsize
    if len(data) != expected:
        raise TruncationError(
            f"PVOL payload length mismatch: header promises {expected} bytes total, got {len(data)}"
        )
    spacing = (sz, sy, sx)
    raw = data[_HEADER.size:]
    if dtype_code == DTYPE_MASK:
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(m, h, w)
        return MaskVolume(arr.copy(), spacing)
    arr = np.frombuffer(raw, dtype="<f4").reshape(m, h, w)
    return Volume(arr.copy(), spacing)


def read_pvol_file(path) -> Volume | MaskVolume:
    """``read_pvol`` of a file, through ``read_input``."""
    return read_input(path, read_pvol)


def write_pvol_file(path, v: Volume | MaskVolume | ProbVolume) -> None:
    write_output(path, write_pvol(v))

