"""Binary checkpoint format for network weights.

Layout (little-endian, no padding):

    magic   4 bytes ASCII "PBRW"
    version u32 = 1
    header  input-channels u32, base-width u32
    count   u32 number of arrays
    per array:
        name length u16, UTF-8 name bytes
        rank u8, dims as u32 each
        values as f32, row-major

Round-trips are bit-exact for float32 weights.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import MagicError, SchemaError, TruncationError

MAGIC = b"PBRW"
VERSION = 1


@dataclass
class Checkpoint:
    """Named weight arrays plus the architecture descriptor."""

    params: dict
    in_channels: int
    base_width: int


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncationError(
                f"checkpoint truncated: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def save_checkpoint(params, in_channels, base_width) -> bytes:
    """Serialize named arrays (insertion order preserved) to bytes."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<IIII", VERSION, in_channels, base_width, len(params))
    for name, arr in params.items():
        nb = name.encode("utf-8")
        arr = np.asarray(arr)
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return bytes(out)


def load_checkpoint(data: bytes) -> Checkpoint:
    """Parse checkpoint bytes; raises distinct errors for bad magic,
    truncation, and dim/count mismatches."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise MagicError("unrecognized format: bad checkpoint magic")
    r = _Reader(data)
    r.take(4)
    version, in_channels, base_width, count = r.unpack("<IIII")
    if version != VERSION:
        raise SchemaError(f"unsupported checkpoint version {version}")
    if in_channels < 1 or base_width < 1:
        raise SchemaError(f"no net has {in_channels} input channels and base width {base_width}")
    params: dict = {}
    for i in range(count):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("utf-8")
        if name in params:
            raise SchemaError(f"duplicate array name '{name}'")
        (rank,) = r.unpack("<B")
        if rank < 1 or rank > 8:
            raise SchemaError(f"array '{name}' has unsupported rank {rank}")
        dims = r.unpack(f"<{rank}I")
        n_vals = int(np.prod(dims, dtype=np.int64))
        raw = r.take(4 * n_vals)
        params[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    if r.pos != len(data):
        raise SchemaError(f"{len(data) - r.pos} trailing bytes after {count} arrays")
    return Checkpoint(params=params, in_channels=in_channels, base_width=base_width)


def checkpoint_digest(data: bytes) -> str:
    """SHA-256 hex digest, used in run manifests."""
    return hashlib.sha256(data).hexdigest()
