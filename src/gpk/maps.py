"""Ground-plane representations: depth map, global and refined equation maps.

The refined map follows the annotation-driven pipeline: collect the bottom
centers of the 3D boxes, triangulate their image projections, fit a plane
to each triangle's generating 3D points and overwrite the covered pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .errors import (
    AllDegenerate,
    CollinearPoints,
    DegeneratePlane,
    DimensionMismatch,
    InsufficientPoints,
    NonPositiveDepth,
)
from .geometry import (
    _HORIZON_TOL,
    CameraIntrinsics,
    GroundPlane,
    bottom_center,
    plane_from_three_points,
    project_point,
)


@dataclass
class GroundDepthMap:
    """Per-pixel ray-ground depth with a validity mask."""

    depth: np.ndarray  # (h, w) float64, meters; undefined where invalid
    valid: np.ndarray  # (h, w) bool

    @property
    def height(self) -> int:
        return self.depth.shape[0]

    @property
    def width(self) -> int:
        return self.depth.shape[1]


@dataclass
class DenormMap:
    """Per-pixel plane equation map, channels (alpha, beta, gamma, d)."""

    data: np.ndarray  # (h, w, 4) float64

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def plane_at(self, row: int, col: int) -> GroundPlane:
        a, b, c, d = self.data[row, col]
        return GroundPlane(float(a), float(b), float(c), float(d))


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


def _signed_area2(px: np.ndarray) -> float:
    (x0, y0), (x1, y1), (x2, y2) = px
    return (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)


def build_ground_depth_map(
    k: CameraIntrinsics, g: GroundPlane, h: int, w: int
) -> GroundDepthMap:
    """Evaluate the ray-plane depth at every pixel center (u+0.5, v+0.5).

    Horizon and behind-camera pixels become mask entries instead of errors.
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

    Returns (regions, skipped): degenerate triples (collinear in 3D or
    image space, or origin-crossing planes) are dropped and counted.
    """
    usable = []
    for p in points:
        p = np.asarray(p, dtype=float)
        try:
            px = project_point(p, k)
        except NonPositiveDepth:
            continue
        usable.append((p, (px.u, px.v)))
    if len(usable) < 3:
        raise InsufficientPoints(f"{len(usable)} usable points, need 3")

    pts3d = np.array([p for p, _ in usable])
    pts2d = np.array([q for _, q in usable])

    if len(usable) == 3:
        simplices = [np.array([0, 1, 2])]
    else:
        try:
            simplices = list(Delaunay(pts2d).simplices)
        except QhullError as exc:
            raise AllDegenerate(f"triangulation failed: {exc}") from None

    regions, skipped = [], 0
    for tri in simplices:
        p3 = pts3d[tri]
        p2 = pts2d[tri]
        try:
            plane = plane_from_three_points(p3[0], p3[1], p3[2])
            regions.append(TriangleRegion(pixels=p2, plane=plane, points3d=p3))
        except (CollinearPoints, DegeneratePlane):
            skipped += 1
    if not regions:
        raise AllDegenerate("all candidate triangles are degenerate")
    return regions, skipped


def _covered_pixels(pixels: np.ndarray, h: int, w: int):
    """(window, mask) of the pixel centers a triangle covers in an (h, w)
    map, or None, with a pixel-center / top-left fill rule.

    A pixel center on an edge belongs to the triangle iff the edge is a
    top edge (horizontal, interior below) or a left edge (going up in
    image coordinates), so adjacent triangles sharing an edge never both
    claim a pixel.
    """
    verts = pixels.copy()
    if _signed_area2(verts) == 0.0:
        return None
    if _signed_area2(verts) < 0:
        verts = verts[[0, 2, 1]]

    lo_x = max(int(np.floor(verts[:, 0].min() - 0.5)), 0)
    hi_x = min(int(np.ceil(verts[:, 0].max() - 0.5)), w - 1)
    lo_y = max(int(np.floor(verts[:, 1].min() - 0.5)), 0)
    hi_y = min(int(np.ceil(verts[:, 1].max() - 0.5)), h - 1)
    if lo_x > hi_x or lo_y > hi_y:
        return None

    cx = np.arange(lo_x, hi_x + 1) + 0.5
    cy = np.arange(lo_y, hi_y + 1) + 0.5
    px, py = np.meshgrid(cx, cy)

    inside = np.ones(px.shape, dtype=bool)
    for i in range(3):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % 3]
        e = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        top = by == ay and bx > ax
        left = by < ay
        if top or left:
            inside &= e >= 0
        else:
            inside &= e > 0
    if not inside.any():
        return None
    return (slice(lo_y, hi_y + 1), slice(lo_x, hi_x + 1)), inside


def refine_map(g_initial: GroundPlane, boxes, k: CameraIntrinsics, h: int, w: int):
    """Refined map plus counters {'insufficient_points', 'degenerate_skipped'}.

    With fewer than three usable bottom centers the result equals the
    global map.
    """
    stats = {"insufficient_points": 0, "degenerate_skipped": 0}
    m = build_global_denorm_map(g_initial, h, w)
    points = [bottom_center(b, g_initial) for b in boxes]
    try:
        regions, skipped = triangulate_ground_points(points, k)
    except InsufficientPoints:
        stats["insufficient_points"] = 1
        return m, stats
    except AllDegenerate:
        stats["degenerate_skipped"] = len(points)
        return m, stats
    stats["degenerate_skipped"] = skipped
    for tri in regions:
        cov = _covered_pixels(tri.pixels, h, w)
        if cov is None:
            continue
        window, inside = cov
        m.data[window][inside] = tri.plane.params()
    return m, stats


def denorm_l1_loss(pred: DenormMap, label: DenormMap) -> float:
    """Mean absolute difference over all h*w*4 entries."""
    if pred.data.shape != label.data.shape:
        raise DimensionMismatch(
            f"{pred.data.shape} vs {label.data.shape}"
        )
    return float(np.mean(np.abs(pred.data - label.data)))
