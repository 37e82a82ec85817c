"""GPKM binary map files.

Every file starts with the same 21-byte header: magic "GPKM", u32 version,
u32 height, u32 width, u32 channels (all positive), u8 mask-present flag,
all little-endian. The version names the layout of what follows:

- 1, dense: the row-major float32 payload, then (if flagged) row-major
  packed validity bits. `gen-maps` writes depth maps this way.
- 2, piecewise (mask flag 0): `<II` plane count n and run count r, the
  (n, c) float32 plane table, then r u32 run lengths and r u32 plane
  indices, the runs covering the row-major raster (a maps.PlaneMap).
  `gen-maps` writes global maps (one run) and refined maps this way.

Both layouts decode to the same dense (h, w, c) float32 array, and
round-trips are bit-exact. A piecewise header asking for more than
MAX_PIECEWISE_VALUES floats is refused, since its size is not bounded by
the file's.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ParseError
from .maps import DenormMap, GroundDepthMap, PlaneMap

MAGIC = b"GPKM"
VERSION = 1
PIECEWISE = 2
MAX_PIECEWISE_VALUES = 2**28  # h * w * c of one decoded piecewise map
_HEADER = struct.Struct("<4sIIIIB")
_COUNTS = struct.Struct("<II")


def pack_map(data, mask: np.ndarray | None = None) -> bytes:
    """Serialize an (h, w) or (h, w, c) array, optionally with a bool mask,
    in the dense layout, or a PlaneMap in the piecewise layout: the join of
    pack_parts(data, mask)."""
    return b"".join(pack_parts(data, mask))


def pack_parts(data, mask: np.ndarray | None = None) -> tuple:
    """The buffers whose concatenation is pack_map(data, mask), in file
    order. A writer writes them one after another, so a dense payload goes
    to the file from its array's own buffer, which may be `data`'s."""
    if isinstance(data, PlaneMap):
        if mask is not None:
            raise ValueError("a piecewise map has no mask")
        return _piecewise_parts(data)
    data = np.ascontiguousarray(data, dtype="<f4")
    if data.ndim == 2:
        data = data[:, :, None]
    if data.ndim != 3:
        raise ValueError("map data must be (h, w) or (h, w, c)")
    if 0 in data.shape:
        raise ValueError(f"empty map {data.shape}")
    h, w, c = data.shape
    header = _HEADER.pack(MAGIC, VERSION, h, w, c, 1 if mask is not None else 0)
    if mask is None:
        return header, data
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (h, w):
        raise ValueError("mask shape must match map dimensions")
    return header, data, np.packbits(mask.reshape(-1))


def _piecewise_parts(m: PlaneMap) -> tuple:
    planes, h, w = np.ascontiguousarray(m.planes, dtype="<f4"), m.h, m.w
    # The file's (2, r) table of lengths and ids; np.stack refuses unpaired runs.
    runs = np.stack([m.lengths, m.ids]).reshape(2, -1)
    if planes.ndim != 2 or 0 in planes.shape or h < 1 or w < 1:
        raise ValueError(f"empty {h}x{w} map or (n, c) plane table {planes.shape}")
    n, c = planes.shape
    if h * w * c > MAX_PIECEWISE_VALUES:
        raise ValueError(f"piecewise map {h}x{w}x{c} exceeds {MAX_PIECEWISE_VALUES} values")
    if runs.dtype.kind not in "iu" or runs[0].sum() != h * w or runs.min() < 0:
        raise ValueError(f"runs must be non-negative integers covering {h}x{w} pixels")
    if runs[1].max() >= n:
        raise ValueError(f"a run names a plane beyond the {n}-plane table")
    return (_HEADER.pack(MAGIC, PIECEWISE, h, w, c, 0),
            _COUNTS.pack(n, runs.shape[1]), planes, runs.astype("<u4"))


def unpack_map(blob: bytes):
    """Inverse of pack_map: returns (data, mask or None), where data is the
    dense (h, w, c) float32 map. For a dense file it is a view of the blob's
    payload (read-only for bytes); a piecewise file decodes to a fresh
    array and has no mask."""
    return _unpack(blob, np.float32)


def _unpack(blob: bytes, dtype):
    """unpack_map, with a piecewise map expanded straight to `dtype`."""
    if len(blob) < _HEADER.size:
        raise ParseError("truncated GPKM header")
    magic, version, h, w, c, has_mask = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}")
    if version not in (VERSION, PIECEWISE):
        raise ParseError(f"unsupported version {version}")
    if 0 in (h, w, c):  # numpy cannot shape an empty array of huge extents
        raise ParseError(f"empty GPKM map {h}x{w}x{c}")
    off = _HEADER.size
    if version == PIECEWISE:
        return _unpack_piecewise(blob, h, w, c, has_mask, dtype), None
    n = h * w * c
    if len(blob) < off + 4 * n:
        raise ParseError("truncated GPKM payload")
    data = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(h, w, c)
    off += 4 * n
    mask = None
    if has_mask:
        nbytes = (h * w + 7) // 8
        if len(blob) < off + nbytes:
            raise ParseError("truncated GPKM mask")
        bits = np.frombuffer(blob, dtype=np.uint8, count=nbytes, offset=off)
        mask = np.unpackbits(bits, count=h * w).view(bool).reshape(h, w)
        off += nbytes
    if len(blob) != off:
        raise ParseError("trailing bytes after GPKM payload")
    return data, mask


def _unpack_piecewise(blob, h, w, c, has_mask, dtype):
    if has_mask:
        raise ParseError("piecewise GPKM map with a mask")
    if h * w * c > MAX_PIECEWISE_VALUES:
        raise ParseError(f"piecewise GPKM map {h}x{w}x{c} exceeds "
                         f"{MAX_PIECEWISE_VALUES} values")
    off = _HEADER.size + _COUNTS.size
    if len(blob) < off:
        raise ParseError("truncated GPKM plane and run counts")
    n, r = _COUNTS.unpack_from(blob, _HEADER.size)
    if n == 0:
        raise ParseError("empty GPKM plane table")
    size = off + 4 * (n * c + 2 * r)
    if len(blob) != size:
        raise ParseError("truncated GPKM plane or run table" if len(blob) < size
                         else "trailing bytes after GPKM runs")
    planes = np.frombuffer(blob, dtype="<f4", count=n * c, offset=off).reshape(n, c)
    lengths = np.frombuffer(blob, dtype="<u4", count=r, offset=off + 4 * n * c)
    ids = np.frombuffer(blob, dtype="<u4", count=r, offset=off + 4 * (n * c + r))
    if int(lengths.sum(dtype=np.uint64)) != h * w:
        raise ParseError(f"GPKM runs do not cover the {h}x{w} map")
    if ids.max() >= n:  # r >= 1 here, since the runs cover h * w > 0 pixels
        raise ParseError(f"GPKM run names a plane beyond the {n}-plane table")
    return PlaneMap(planes, lengths, ids, h, w).dense(dtype)


def load_depth_map(path) -> GroundDepthMap:
    data, mask = unpack_map(Path(path).read_bytes())
    if data.shape[2] != 1 or mask is None:
        raise ParseError("not a depth map (expect 1 channel with mask)")
    return GroundDepthMap(depth=data[:, :, 0].astype(float), valid=mask)


def load_denorm_map(path) -> DenormMap:
    data, _ = _unpack(Path(path).read_bytes(), np.float64)
    if data.shape[2] != 4:
        raise ParseError("not a denorm map (expect 4 channels)")
    return DenormMap(data=data.astype(float, copy=False))
