"""Exact-count pass over a workload's frames, untimed, using public gpk functions.

Triangles come from ``gpk.maps.triangulate_ground_points``.  Which pixel
centres a triangle owns is decided here by the exclusive top-left fill rule
that the README documents for the refined map, so the counts do not depend
on how the program's rasterizer is implemented.
"""

from __future__ import annotations

import math

import numpy as np

from gpk.errors import AllDegenerate, InsufficientPoints
from gpk.geometry import CameraIntrinsics, bottom_center
from gpk.maps import triangulate_ground_points


def scaled(k: CameraIntrinsics, stride: int) -> CameraIntrinsics:
    """Intrinsics of a map built at 1/stride of the image resolution."""
    return CameraIntrinsics(fx=k.fx / stride, fy=k.fy / stride,
                            cx=k.cx / stride, cy=k.cy / stride)


def owned_pixels(pixels, h: int, w: int):
    """(row slice, column slice, bool mask) of the pixel centres a triangle
    owns, or None.  A centre on an edge belongs to the triangle iff the edge
    is a top edge (horizontal, interior below) or a left edge."""
    v = np.asarray(pixels, dtype=float).reshape(3, 2)

    def area2(p):
        return (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (
            p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0])

    if area2(v) == 0.0:
        return None
    if area2(v) < 0:
        v = v[[0, 2, 1]]
    lo_x = max(math.floor(v[:, 0].min() - 0.5), 0)
    hi_x = min(math.ceil(v[:, 0].max() - 0.5), w - 1)
    lo_y = max(math.floor(v[:, 1].min() - 0.5), 0)
    hi_y = min(math.ceil(v[:, 1].max() - 0.5), h - 1)
    if lo_x > hi_x or lo_y > hi_y:
        return None
    px, py = np.meshgrid(np.arange(lo_x, hi_x + 1) + 0.5,
                         np.arange(lo_y, hi_y + 1) + 0.5)
    inside = np.ones(px.shape, dtype=bool)
    for i in range(3):
        ax, ay = v[i]
        bx, by = v[(i + 1) % 3]
        e = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        top_or_left = (by == ay and bx > ax) or by < ay
        inside &= (e >= 0) if top_or_left else (e > 0)
    if not inside.any():
        return None
    return slice(lo_y, hi_y + 1), slice(lo_x, hi_x + 1), inside


def triangle_counts(jobs) -> dict:
    """Counts over (ground, boxes, intrinsics, h, w) map builds."""
    triangles = empty = skipped = covered = pixels = 0
    for ground, boxes, k, h, w in jobs:
        points = [bottom_center(b, ground) for b in boxes]
        pixels += h * w
        try:
            regions, n_skipped = triangulate_ground_points(points, k)
        except InsufficientPoints:
            continue
        except AllDegenerate:
            skipped += len(points)
            continue
        skipped += n_skipped
        triangles += len(regions)
        owned = np.zeros((h, w), dtype=bool)
        for region in regions:
            cov = owned_pixels(region.pixels, h, w)
            if cov is None:
                empty += 1
                continue
            rows, cols, inside = cov
            owned[rows, cols] |= inside
        covered += int(owned.sum())
    return {
        "maps.triangles": triangles,
        "maps.empty_triangle_frac": empty / triangles if triangles else 0.0,
        "maps.covered_px_frac": covered / pixels if pixels else 0.0,
        "maps.degenerate_skipped": skipped,
    }
