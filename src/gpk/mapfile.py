"""GPKM binary map files.

Layout: magic "GPKM", u32 version=1, u32 height, u32 width, u32 channels
(all positive), u8 mask-present flag, row-major little-endian float32
payload, then (if flagged) row-major packed validity bits. Round-trips are
bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ParseError
from .maps import DenormMap, GroundDepthMap

MAGIC = b"GPKM"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIB")


def pack_map(data: np.ndarray, mask: np.ndarray | None = None) -> bytes:
    """Serialize an (h, w) or (h, w, c) array, optionally with a bool mask."""
    data = np.asarray(data, dtype="<f4")
    if data.ndim == 2:
        data = data[:, :, None]
    if data.ndim != 3:
        raise ValueError("map data must be (h, w) or (h, w, c)")
    h, w, c = data.shape
    parts = [_HEADER.pack(MAGIC, VERSION, h, w, c, 1 if mask is not None else 0)]
    parts.append(data.tobytes(order="C"))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (h, w):
            raise ValueError("mask shape must match map dimensions")
        parts.append(np.packbits(mask.reshape(-1)).tobytes())
    return b"".join(parts)


def unpack_map(blob: bytes):
    """Inverse of pack_map: returns (data (h, w, c) float32, mask or None)."""
    if len(blob) < _HEADER.size:
        raise ParseError("truncated GPKM header")
    magic, version, h, w, c, has_mask = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ParseError(f"unsupported version {version}")
    if 0 in (h, w, c):  # numpy cannot shape an empty array of huge extents
        raise ParseError(f"empty GPKM map {h}x{w}x{c}")
    off = _HEADER.size
    n = h * w * c
    if len(blob) < off + 4 * n:
        raise ParseError("truncated GPKM payload")
    data = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(h, w, c)
    off += 4 * n
    mask = None
    if has_mask:
        nbits = h * w
        nbytes = (nbits + 7) // 8
        if len(blob) < off + nbytes:
            raise ParseError("truncated GPKM mask")
        bits = np.frombuffer(blob, dtype=np.uint8, count=nbytes, offset=off)
        mask = np.unpackbits(bits, count=nbits).astype(bool).reshape(h, w)
        off += nbytes
    if len(blob) != off:
        raise ParseError("trailing bytes after GPKM payload")
    return data.copy(), mask


def load_depth_map(path) -> GroundDepthMap:
    with open(path, "rb") as f:
        data, mask = unpack_map(f.read())
    if data.shape[2] != 1 or mask is None:
        raise ParseError("not a depth map (expect 1 channel with mask)")
    return GroundDepthMap(depth=data[:, :, 0].astype(float), valid=mask)


def load_denorm_map(path) -> DenormMap:
    with open(path, "rb") as f:
        data, _ = unpack_map(f.read())
    if data.shape[2] != 4:
        raise ParseError("not a denorm map (expect 4 channels)")
    return DenormMap(data=data.astype(float))
