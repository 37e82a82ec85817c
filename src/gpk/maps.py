"""Ground-plane representations: depth map, global and refined equation maps.

The refined map follows the annotation-driven pipeline: collect the bottom
centers of the 3D boxes, Delaunay-triangulate their image projections, and
fit a plane to each triangle's generating 3D points, all triangles at once.
One scanline rasterizer then writes a triangle-id raster with a
pixel-center / top-left fill rule; where two triangles claim a pixel, the
higher triangle index wins. The map stays piecewise planar: refine_map
returns the plane table (sub-planes, then the global plane) and the
raster, and `planes[tri_id]` is the dense map, since id -1 (no triangle)
selects the global plane in the last row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllDegenerate,
    CollinearPoints,
    DimensionMismatch,
    InsufficientPoints,
)
from .geometry import (_HORIZON_TOL, CameraIntrinsics, GroundPlane,
                       bottom_centers, project_points, unit_planes)


@dataclass
class GroundDepthMap:
    """Per-pixel ray-ground depth with a validity mask."""

    depth: np.ndarray  # (h, w) float64, meters; undefined where invalid
    valid: np.ndarray  # (h, w) bool


@dataclass
class DenormMap:
    """Per-pixel plane equation map, channels (alpha, beta, gamma, d)."""

    data: np.ndarray  # (h, w, 4) float64


@dataclass
class TriangleRegion:
    """One Delaunay triangle in image space with its fitted sub-plane."""

    pixels: np.ndarray  # (3, 2) float64, (u, v) vertices
    plane: GroundPlane
    points3d: np.ndarray  # (3, 3) generating camera-frame points

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float).reshape(3, 2)
        self.points3d = np.asarray(self.points3d, dtype=float).reshape(3, 3)
        if _signed_area2(self.pixels) == 0.0:
            raise CollinearPoints("triangle vertices are collinear in image space")
        for p in self.points3d:
            if abs(self.plane.signed_distance(p)) > 1e-9:
                raise ValueError("plane does not contain its generating points")


def _signed_area2(px: np.ndarray):
    """Twice the signed area of the triangles px[..., 3, 2]."""
    x, y = px[..., 0], px[..., 1]
    return ((x[..., 1] - x[..., 0]) * (y[..., 2] - y[..., 0])
            - (y[..., 1] - y[..., 0]) * (x[..., 2] - x[..., 0]))


def build_ground_depth_map(
    k: CameraIntrinsics, g: GroundPlane, h: int, w: int
) -> GroundDepthMap:
    """Evaluate the ray-plane depth at every pixel center (u+0.5, v+0.5).

    Horizon and behind-camera pixels become mask entries instead of errors.
    The denominator is geometry.ray_ground_denominator in separable form,
    alpha * ((u - cx) / fx): that rounding is what GPKM depth files hold.
    """
    if h <= 0 or w <= 0:
        raise DimensionMismatch("map dimensions must be positive")
    u = (np.arange(w) + 0.5 - k.cx) / k.fx
    v = (np.arange(h) + 0.5 - k.cy) / k.fy
    denom = g.alpha * u[None, :] + g.beta * v[:, None] + g.gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = -g.d / denom
    valid = (np.abs(denom) > _HORIZON_TOL) & (depth > 0)
    depth = np.where(valid, depth, 0.0)
    return GroundDepthMap(depth=depth, valid=valid)


def build_global_denorm_map(g_initial: GroundPlane, h: int, w: int) -> DenormMap:
    """Every pixel carries the global plane equation."""
    if h <= 0 or w <= 0:
        raise DimensionMismatch("map dimensions must be positive")
    data = np.broadcast_to(g_initial.params(), (h, w, 4)).copy()
    return DenormMap(data=data)


def triangulate_ground_points(points, k: CameraIntrinsics):
    """Delaunay-triangulate projected ground points and fit per-triangle planes.

    Points are kept as refine_map keeps them, for the image its intrinsics
    imply (2·cy x 2·cx). Returns (regions, skipped): degenerate triples
    (collinear in 3D or image space, or origin-crossing planes) are dropped
    and counted.
    """
    points = np.asarray(list(points), dtype=float).reshape(-1, 3)
    points3d, pixels, planes, skipped = _fit_sub_planes(
        *_in_view(points, k, 2 * k.cy, 2 * k.cx))
    regions = [
        TriangleRegion(pixels=px, plane=GroundPlane(*plane.tolist()), points3d=p3)
        for p3, px, plane in zip(points3d, pixels, planes)
    ]
    return regions, skipped


def _in_view(points: np.ndarray, k: CameraIntrinsics, h, w):
    """(points, pixels) of the (n, 3) points in front of the camera whose
    pixel is finite and within [-w, 2w] x [-h, 2h]: the h x w map grown by
    its own size on each side. A point just in front of the camera
    projects far beyond that, and would make Qhull lose the other points."""
    pixels = project_points(points, k)
    inside = (pixels >= (-w, -h)) & (pixels <= (2 * w, 2 * h))
    seen = (points[:, 2] > 0) & (np.isfinite(pixels) & inside).all(axis=1)
    return points[seen], pixels[seen]


def _fit_sub_planes(usable: np.ndarray, pts2d: np.ndarray):
    """Delaunay triangles of (n, 3) points with (n, 2) pixels, and their
    sub-planes.

    Returns (points3d (T, 3, 3), pixels (T, 3, 2), planes (T, 4), skipped)
    for the T fitted triangles, in Delaunay order. All triangles are fitted
    at once with plane_from_three_points' expressions and unit_planes, so
    each plane equals plane_from_three_points' bit for bit. Skipped and
    counted: collinear or origin-crossing triples, triangles collinear in
    image space, and planes that miss one of their generating points by
    more than 1e-9 (nearly collinear triples).
    """
    if len(usable) < 3:
        raise InsufficientPoints(f"{len(usable)} usable points, need 3")
    if len(usable) == 3:
        simplices = np.array([[0, 1, 2]])
    else:
        # Imported here: scipy.spatial is most of the time `import gpk`
        # takes, and only triangulation needs it.
        from scipy.spatial import Delaunay, QhullError

        try:
            simplices = Delaunay(pts2d).simplices
        except QhullError as exc:
            raise AllDegenerate(f"triangulation failed: {exc}") from None
    p3, p2 = usable[simplices], pts2d[simplices]

    with np.errstate(all="ignore"):
        edges = p3[:, 1:] - p3[:, :1]  # second and third point minus the first
        (ux, uy, uz), (vx, vy, vz) = edges.transpose(1, 2, 0)
        x1, y1, z1 = p3[:, 0].T
        a = uy * vz - vy * uz
        b = uz * vx - vz * ux
        c = ux * vy - vx * uy
        d = -a * x1 - b * y1 - c * z1
        # float_power is C pow, as Python's ** is; x * x can round differently.
        sq = np.float_power(edges, 2)
        e1, e2 = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2]).T
        collinear = (np.sqrt(a * a + b * b + c * c)
                     <= 1e-9 * np.maximum(e1 * e2, 1e-300))
        planes, fitted = unit_planes(np.stack([a, b, c, d], axis=1))
        off = (planes[:, None, 0] * p3[..., 0] + planes[:, None, 1] * p3[..., 1]
               + planes[:, None, 2] * p3[..., 2] + planes[:, None, 3])
        flat = _signed_area2(p2) == 0.0
    keep = fitted & ~collinear & ~flat & (np.abs(off) <= 1e-9).all(axis=1)
    if not keep.any():
        raise AllDegenerate("all candidate triangles are degenerate")
    return p3[keep], p2[keep], planes[keep], int(keep.size - keep.sum())


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + n) for each (s, n)."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)


def _settle(bound, step, outer, empty, holds):
    """Move each bound to the last column, going by `step` from `empty`
    towards `outer`, at which the test `holds(index, column)` passes, or to
    `empty` if it passes nowhere. The test must be monotone along the row,
    so the walk ends; bounds that start next to their answer walk little.
    """
    idx = np.nonzero(bound != outer)[0]
    while idx.size:  # grow while the next column passes
        idx = idx[holds(idx, bound[idx] + step[idx])]
        bound[idx] += step[idx]
        idx = idx[bound[idx] != outer[idx]]
    idx = np.nonzero(bound != empty)[0]
    while idx.size:  # shrink while this column fails
        idx = idx[~holds(idx, bound[idx])]
        bound[idx] -= step[idx]
        idx = idx[bound[idx] != empty[idx]]
    return bound


def _rasterize(pixels, h: int, w: int) -> np.ndarray:
    """(h, w) int32 raster of the triangle owning each pixel center, or -1.

    `pixels` holds (T, 3, 2) image-space vertices (u, v). A pixel center
    (col + 0.5, row + 0.5) belongs to a triangle iff it passes the three
    edge functions of the counter-clockwise-ordered vertices, and a center
    on an edge belongs to it iff the edge is a top edge (horizontal,
    interior below) or a left edge (going up in image coordinates), so
    adjacent triangles sharing an edge never both claim a pixel. Where two
    triangles still claim a pixel, the higher triangle index wins.

    Scanline form: an edge function is monotone along a row, so each
    (triangle, row) owns one column interval. Each edge's end of it is
    estimated from where the edge crosses the row, then moved until the
    exact edge test agrees on both sides of it.
    """
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 3, 2)
    area = _signed_area2(pixels)
    verts = np.where((area < 0)[:, None, None], pixels[:, [0, 2, 1]], pixels)
    # Bounding box of pixel indices, (T, 2) as (col, row).
    lo = np.maximum(np.floor(verts.min(axis=1) - 0.5), 0)
    hi = np.minimum(np.ceil(verts.max(axis=1) - 0.5), [w - 1, h - 1])
    live = np.nonzero((area != 0) & (lo <= hi).all(axis=1))[0].astype(np.int32)
    lo, hi = lo[live].astype(np.int64), hi[live].astype(np.int64)

    n_rows = hi[:, 1] - lo[:, 1] + 1
    tri = np.repeat(live, n_rows)  # one entry per (triangle, row)
    row = _runs(lo[:, 1], n_rows)
    first, last = np.repeat(lo[:, 0], n_rows), np.repeat(hi[:, 0], n_rows)
    start, stop = first.copy(), last.copy()

    a = verts[tri]
    b = np.roll(a, -1, axis=1)  # edge i runs from vertex i to vertex i + 1
    ax, ay, bx, by = a[..., 0].T, a[..., 1].T, b[..., 0].T, b[..., 1].T
    rise = by - ay
    base = (bx - ax) * (row + 0.5 - ay)
    inclusive = ((rise == 0) & (bx > ax)) | (rise < 0)

    def passes(edge, sel, col):
        e = base[edge, sel] - rise[edge, sel] * ((col + 0.5) - ax[edge, sel])
        return np.where(inclusive[edge, sel], e >= 0, e > 0)

    for edge in range(3):
        flat = np.nonzero(rise[edge] == 0)[0]  # the test is constant along the row
        shut = flat[~passes(edge, flat, first[flat])]
        stop[shut] = first[shut] - 1
        sel = np.nonzero(rise[edge] != 0)[0]
        up = rise[edge, sel] > 0  # e falls along the row: an upper end
        step = np.where(up, 1, -1)
        outer = np.where(up, last[sel], first[sel])
        empty = np.where(up, first[sel] - 1, last[sel] + 1)
        with np.errstate(all="ignore"):
            cross = ax[edge, sel] + base[edge, sel] / rise[edge, sel] - 0.5
        guess = np.where(up, np.floor(cross), np.ceil(cross))
        guess = np.fmin(np.fmax(guess, np.minimum(outer, empty)),
                        np.maximum(outer, empty))
        bound = _settle(guess.astype(np.int64), step, outer, empty,
                        lambda j, col: passes(edge, sel[j], col))
        stop[sel[up]] = np.minimum(stop[sel[up]], bound[up])
        start[sel[~up]] = np.maximum(start[sel[~up]], bound[~up])

    owned = start <= stop
    n_cols = (stop - start + 1)[owned]
    tri_id = np.full(h * w, -1, dtype=np.int32)
    np.maximum.at(tri_id, _runs(row[owned] * w + start[owned], n_cols),
                  np.repeat(tri[owned], n_cols))
    return tri_id.reshape(h, w)


def refine_map(g_initial: GroundPlane, boxes, k: CameraIntrinsics, h: int, w: int):
    """(planes, tri_id, stats) of the refined map.

    `planes` is the (T + 1, 4) table of the T fitted sub-planes followed by
    the global plane; `tri_id` is the (h, w) int32 raster of the sub-plane
    owning each pixel, or -1 (the global plane). `planes[tri_id]` is the
    dense (h, w, 4) map. `stats` counts {'dropped_points',
    'insufficient_points', 'degenerate_skipped', 'triangles',
    'covered_pixels'}. `boxes` is a label table's box3d column. Bottom
    centers behind the camera, or whose pixel is not finite or lies beyond
    the map by more than its size, are dropped. With fewer than three
    usable bottom centers no pixel is covered.
    """
    if h <= 0 or w <= 0:
        raise DimensionMismatch("map dimensions must be positive")
    points = bottom_centers(boxes, g_initial)
    usable, pts2d = _in_view(points, k, h, w)
    stats = {"dropped_points": len(points) - len(usable),
             "insufficient_points": 0, "degenerate_skipped": 0}
    pixels, planes = np.empty((0, 3, 2)), np.empty((0, 4))
    try:
        _, pixels, planes, skipped = _fit_sub_planes(usable, pts2d)
        stats["degenerate_skipped"] = skipped
    except InsufficientPoints:
        stats["insufficient_points"] = 1
    except AllDegenerate:
        stats["degenerate_skipped"] = len(usable)
    tri_id = _rasterize(pixels, h, w)
    stats["triangles"] = len(planes)
    stats["covered_pixels"] = int(np.count_nonzero(tri_id >= 0))
    return np.vstack([planes, g_initial.params()]), tri_id, stats


def denorm_l1_loss(pred: DenormMap, label: DenormMap) -> float:
    """Mean absolute difference over all h*w*4 entries."""
    if pred.data.shape != label.data.shape:
        raise DimensionMismatch(
            f"{pred.data.shape} vs {label.data.shape}"
        )
    return float(np.mean(np.abs(pred.data - label.data)))
