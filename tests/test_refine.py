"""Refined-map tests against a per-triangle reference, plus property tests
for the rasterizer and the sub-plane fit.

The reference is the earlier per-triangle implementation kept verbatim:
triangulate, fit each triangle with plane_from_three_points, and overwrite
each triangle's covered pixels in order, so a later triangle wins a pixel.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay, QhullError

from gpk.dataio import SceneConfig, synthesize_scene
from gpk.errors import (
    AllDegenerate,
    CollinearPoints,
    DegeneratePlane,
    InsufficientPoints,
    NonPositiveDepth,
)
from gpk.geometry import (
    BBox3D,
    CameraIntrinsics,
    GroundPlane,
    bottom_center,
    plane_from_three_points,
    project_point,
)
from gpk.maps import (
    TriangleRegion,
    _rasterize,
    _signed_area2,
    build_global_denorm_map,
    refine_map,
    triangulate_ground_points,
)


def reference_triangulate(points, k):
    usable = []
    for p in points:
        p = np.asarray(p, dtype=float)
        try:
            with np.errstate(over="ignore"):
                px = project_point(p, k)
        except (NonPositiveDepth, ValueError):  # z <= 0 or a non-finite pixel
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
        except ValueError:  # the plane misses a point: a nearly collinear triple
            skipped += 1
    if not regions:
        raise AllDegenerate("all candidate triangles are degenerate")
    return regions, skipped


def reference_covered_pixels(pixels: np.ndarray, h: int, w: int):
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


def reference_raster(triangles, h: int, w: int) -> np.ndarray:
    """Triangle ids written one triangle at a time; a later one wins."""
    tri_id = np.full((h, w), -1)
    for t, pixels in enumerate(triangles):
        cov = reference_covered_pixels(np.asarray(pixels, float), h, w)
        if cov is not None:
            window, inside = cov
            tri_id[window][inside] = t
    return tri_id


def in_map(p, k, h, w):
    """Whether refine_map keeps the bottom center p: in front of the
    camera, with a finite pixel in the map grown by its size each side."""
    try:
        px = project_point(np.asarray(p, dtype=float), k)
    except (NonPositiveDepth, ValueError):
        return False
    return -w <= px.u <= 2 * w and -h <= px.v <= 2 * h


def reference_refine(g_initial, boxes, k, h, w):
    """The earlier refine_map, counting triangles and written pixels too."""
    stats = {"dropped_points": 0, "insufficient_points": 0,
             "degenerate_skipped": 0, "triangles": 0, "covered_pixels": 0}
    m = build_global_denorm_map(g_initial, h, w)
    points = [bottom_center(b, g_initial) for b in boxes]
    kept = [p for p in points if in_map(p, k, h, w)]
    stats["dropped_points"] = len(points) - len(kept)
    try:
        regions, skipped = reference_triangulate(kept, k)
    except InsufficientPoints:
        stats["insufficient_points"] = 1
        return m, stats
    except AllDegenerate:
        stats["degenerate_skipped"] = len(kept)
        return m, stats
    stats["degenerate_skipped"] = skipped
    stats["triangles"] = len(regions)
    written = np.zeros((h, w), dtype=bool)
    for tri in regions:
        cov = reference_covered_pixels(tri.pixels, h, w)
        if cov is None:
            continue
        window, inside = cov
        m.data[window][inside] = tri.plane.params()
        written[window] |= inside
    stats["covered_pixels"] = int(written.sum())
    return m, stats


@pytest.mark.parametrize("stride", [1, 16])
@pytest.mark.parametrize("objects,frames", [(40, 3), (400, 1), (2000, 1)])
def test_refine_equals_reference_on_fleets(objects, frames, stride):
    cfg = SceneConfig(seed=objects + stride, n_frames=frames,
                      objects_per_frame=objects)
    for frame in synthesize_scene(cfg):
        k = frame.rig.intrinsics.scaled(stride)
        h, w = cfg.image_height // stride, cfg.image_width // stride
        boxes = [o.box3d for o in frame.objects]
        planes, tri_id, stats = refine_map(frame.ground, boxes, k, h, w)
        want, want_stats = reference_refine(frame.ground, boxes, k, h, w)
        assert np.array_equal(planes[tri_id], want.data)
        assert stats == want_stats


def test_triangulation_equals_reference():
    frame = synthesize_scene(SceneConfig(seed=3, n_frames=1,
                                         objects_per_frame=300))[0]
    k = frame.rig.intrinsics.scaled(16)
    points = [bottom_center(o.box3d, frame.ground) for o in frame.objects]
    got, skipped = triangulate_ground_points(points, k)
    want, want_skipped = reference_triangulate(points, k)
    assert skipped == want_skipped and len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.points3d, b.points3d)
        assert a.plane == b.plane


def refine_like_reference(points):
    """refine_map's counters on boxes with these bottom centers, after
    checking its dense map and counters against the reference."""
    boxes = [BBox3D(x=x, y=y, z=z, l=1.0, w=1.0, h=0.0, theta=0.0)
             for x, y, z in points]
    k = CameraIntrinsics(fx=62.5, fy=62.5, cx=29.0, cy=16.0)
    g = GroundPlane(0.0, -1.0, 0.0, 6.0)
    planes, tri_id, stats = refine_map(g, boxes, k, 32, 58)
    want, want_stats = reference_refine(g, boxes, k, 32, 58)
    assert np.array_equal(planes[tri_id], want.data)
    assert stats == want_stats
    return stats


def test_near_collinear_triple_is_skipped_like_reference():
    # The third point is 50 nm off the line through the other two: it
    # passes the collinearity test, but the fitted plane misses a
    # generating point by more than the 1e-9 containment tolerance, so the
    # triangle is skipped as degenerate.
    points = [[-5.0, 6.0, 30.0], [5.0, 6.5, 60.0], [5e-8, 6.25, 45.0]]
    stats = refine_like_reference(points)
    assert stats["triangles"] == 0 and stats["degenerate_skipped"] == 3


def test_point_projecting_to_a_non_finite_pixel_is_dropped():
    # z = 1.1e-308 is in front of the camera, but y / z overflows.
    points = [[-5.0, 6.0, 30.0], [5.0, 6.0, 60.0], [5.0, 6.0, 30.0],
              [0.0, 6.0, 1.1e-308]]
    stats = refine_like_reference(points)
    assert stats["triangles"] == 1 and stats["degenerate_skipped"] == 0
    assert stats["dropped_points"] == 1
    stats = refine_like_reference(points[2:])
    assert stats["insufficient_points"] == 1


@pytest.mark.parametrize("z", [1e-12, 1e-300])
def test_near_camera_label_is_dropped(z):
    # Its bottom center projects ~1e14 (or ~1e302) pixels off the map.
    # Kept, it made Qhull lose the frame's other points: 8 of 68 triangles
    # at z = 1e-12, and none at all at z = 1e-300.
    frame = synthesize_scene(SceneConfig(seed=0, n_frames=1))[0]
    k, h, w = frame.map_grid(16)
    boxes = [o.box3d for o in frame.objects]
    planes, tri_id, stats = refine_map(frame.ground, boxes, k, h, w)
    assert (stats["triangles"], stats["covered_pixels"]) == (68, 687)
    near = BBox3D(x=1.0, y=2.0, z=z, l=4.0, w=1.8, h=0.0, theta=0.0)
    got_planes, got_tri_id, got = refine_map(frame.ground, boxes + [near],
                                             k, h, w)
    assert np.array_equal(got_planes, planes)
    assert np.array_equal(got_tri_id, tri_id)
    assert got == {**stats, "dropped_points": 1}


def test_overflowing_triple_is_skipped_like_reference():
    # Squared edge lengths overflow: plane_from_three_points calls the
    # triple collinear, and the vectorized fit must skip it too.
    points = [(0.0, 0.0, 1.0), (1e200, 0.0, 1.0), (0.0, 1e200, 1.0)]
    k = CameraIntrinsics(fx=62.5, fy=62.5, cx=29.0, cy=16.0)
    for triangulate in (triangulate_ground_points, reference_triangulate):
        with pytest.raises(AllDegenerate):
            triangulate(points, k)


# Vertex coordinates around a 24 x 32 map: some triangles fall off it.
H, W = 24, 32
coord = st.one_of(
    st.integers(-8, 40).map(float),
    st.integers(-16, 80).map(lambda n: n / 2),
    st.floats(-10.0, 42.0, allow_nan=False, allow_infinity=False),
)
vertex = st.tuples(coord, coord)


@st.composite
def triangle_sets(draw):
    """Triangles over a shared vertex pool (so edges are shared), with
    horizontal edges and slivers mixed in."""
    pool = draw(st.lists(vertex, min_size=3, max_size=12))
    triangles = []
    for _ in range(draw(st.integers(1, 12))):
        a, b, c = (pool[draw(st.integers(0, len(pool) - 1))] for _ in range(3))
        kind = draw(st.sampled_from(["pool", "horizontal", "sliver"]))
        if kind == "horizontal":
            b = (b[0], a[1])
        elif kind == "sliver":
            t = draw(st.floats(0.0, 1.0))
            eps = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.25]))
            c = (a[0] + t * (b[0] - a[0]) + eps, a[1] + t * (b[1] - a[1]))
        triangles.append((a, b, c))
    return np.array(triangles, dtype=float)


@given(triangle_sets())
def test_rasterizer_equals_per_triangle_reference(triangles):
    assert np.array_equal(_rasterize(triangles, H, W),
                          reference_raster(triangles, H, W))


# Triangles with an edge through a pixel center, up to rounding: the
# crossing estimated from the edge rounds below the last column the exact
# edge test accepts, so the interval end must move outward to match.
@pytest.mark.parametrize("triangle", [
    [[1.7829887231883204, 6.705040347146029], [14.40696009002825, 12.876707485920443],
     [9.01411047817587, 6.40292964722005]],
    [[9.434533083952957, 10.323791468343185], [-2.160845827845895, 16.529728971166445],
     [5.678877913796921, 17.57108756759657]],
    [[6.610650481840247, 18.498407062417833], [-0.3773705899351216, 7.269574353182428],
     [9.940664507868728, 9.491791803950825]],
    [[-1.002955161193753, 14.069512667111574], [5.728961037644892, 1.4443414310821812],
     [4.94662174797576, 8.804572608934283]],
])
def test_edge_through_pixel_center_equals_reference(triangle):
    triangles = np.array([triangle])
    assert np.array_equal(_rasterize(triangles, 16, 16),
                          reference_raster(triangles, 16, 16))


# Points on a 1/8-pixel grid, at power-of-two depths, through a camera whose
# projection returns them exactly: every edge function is then exact, and
# the fill rule must partition the hull with no rounding to blame.
K_UNIT = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
grid_pixel = st.tuples(st.integers(-16, 8 * W + 16), st.integers(-16, 8 * H + 16))


@given(st.lists(st.tuples(grid_pixel, st.integers(0, 4)), min_size=3,
                max_size=16, unique_by=lambda p: p[0]))
def test_fill_rule_partitions_the_hull(samples):
    uv = np.array([pixel for pixel, _ in samples], dtype=float) / 8
    z = np.array([2.0 ** e for _, e in samples])
    points = np.column_stack([uv * z[:, None], z])
    try:
        regions, _ = triangulate_ground_points(points, K_UNIT)
    except (InsufficientPoints, AllDegenerate):
        return
    projected = [project_point(p, K_UNIT) for p in points]
    assert np.array_equal([[px.u, px.v] for px in projected], uv)
    try:
        hull = ConvexHull(uv)
        simplices = Delaunay(uv).simplices if len(uv) > 3 else [[0, 1, 2]]
    except QhullError:
        return
    claims = np.zeros((H, W), dtype=int)
    for tri in simplices:
        claims += _rasterize(uv[tri][None], H, W) == 0
    cols, rows = np.meshgrid(np.arange(W) + 0.5, np.arange(H) + 0.5)
    centers = np.column_stack([cols.ravel(), rows.ravel()])
    inside = (centers @ hull.equations[:, :2].T + hull.equations[:, 2]
              < -1e-9).all(axis=1).reshape(H, W)
    assert (claims[inside] == 1).all()
    # Every triangle the refined map uses is one of these, so it owns what
    # they own, minus what skipped triangles own.
    kept = _rasterize(np.array([r.pixels for r in regions]), H, W) >= 0
    assert not (kept & (claims == 0)).any()


GROUND = GroundPlane(0.0, -1.0, 0.0, 6.0)
K_MAP = CameraIntrinsics(fx=40.0, fy=40.0, cx=16.0, cy=12.0)
# Depths include (0, 0.5): a point just in front of the camera projects
# arbitrarily far off the map, or to a non-finite pixel.
camera_point = st.tuples(st.floats(-30.0, 30.0), st.floats(-10.0, 10.0),
                         st.floats(-5.0, 80.0))


@st.composite
def point_sets(draw):
    """Random, duplicated or collinear camera-frame points."""
    kind = draw(st.sampled_from(["random", "duplicate", "collinear"]))
    if kind == "random":
        return draw(st.lists(camera_point, max_size=20))
    if kind == "duplicate":
        base = draw(st.lists(camera_point, min_size=1, max_size=4))
        return [base[draw(st.integers(0, len(base) - 1))]
                for _ in range(draw(st.integers(0, 12)))]
    p, q = np.array(draw(camera_point)), np.array(draw(camera_point))
    line = [p + t * (q - p) for t in draw(st.lists(st.floats(-2.0, 2.0),
                                                   max_size=12))]
    return [tuple(x) for x in line]


@given(point_sets())
def test_degenerate_point_sets_give_a_finite_map(points):
    boxes = [BBox3D(x=x, y=y, z=z, l=1.0, w=1.0, h=0.0, theta=0.0)
             for x, y, z in points]
    planes, tri_id, stats = refine_map(GROUND, boxes, K_MAP, H, W)
    assert np.isfinite(planes[tri_id]).all()
    kept = [p for p in points if in_map(p, K_MAP, H, W)]
    assert stats["dropped_points"] == len(points) - len(kept)
    try:
        regions, skipped = triangulate_ground_points(kept, K_MAP)
    except InsufficientPoints:
        assert stats["insufficient_points"] == 1 and stats["triangles"] == 0
        return
    except AllDegenerate:
        assert stats["degenerate_skipped"] == len(kept)
        assert stats["triangles"] == 0
        return
    assert stats["triangles"] == len(regions)
    assert stats["degenerate_skipped"] == skipped
    changed = np.any(planes[tri_id] != GROUND.params(), axis=2)
    assert changed.sum() <= stats["covered_pixels"]
