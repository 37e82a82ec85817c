"""Map construction, rasterization (vs. a brute-force barycentric oracle),
refinement, and GPKM serialization tests."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gpk.dataio import BOX3D_DTYPE
from gpk.errors import (
    AllDegenerate,
    DimensionMismatch,
    InsufficientPoints,
    ParseError,
)
from gpk.geometry import (
    CameraAttitude,
    CameraIntrinsics,
    GroundPlane,
    Pixel,
    attitude_to_plane,
    bottom_center,
    ground_depth_at_pixel,
    plane_from_three_points,
    project_point,
)
from gpk.mapfile import (
    load_denorm_map,
    load_depth_map,
    _HEADER,
    pack_map,
    unpack_map,
)
from gpk.maps import (
    DenormMap,
    GroundDepthMap,
    TriangleRegion,
    _rasterize,
    build_global_denorm_map,
    build_ground_depth_map,
    denorm_l1_loss,
    refine_map,
    triangulate_ground_points,
)

K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=464.0, cy=256.0)
FLAT = GroundPlane(0.0, -1.0, 0.0, 6.0)


def barycentric_oracle(verts: np.ndarray, h: int, w: int) -> np.ndarray:
    """Reference coverage: barycentric sign test at every pixel center,
    with the same boundary ownership rule (top or left edges inclusive)."""
    cover = np.zeros((h, w), dtype=bool)
    v = verts
    if (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - (v[1, 1] - v[0, 1]) * (
        v[2, 0] - v[0, 0]
    ) < 0:
        v = v[[0, 2, 1]]
    for row in range(h):
        for col in range(w):
            px, py = col + 0.5, row + 0.5
            ok = True
            for i in range(3):
                ax, ay = v[i]
                bx, by = v[(i + 1) % 3]
                e = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
                inclusive = (by == ay and bx > ax) or by < ay
                if e < 0 or (e == 0 and not inclusive):
                    ok = False
                    break
            cover[row, col] = ok
    return cover


def covered_mask(pixels, h: int, w: int) -> np.ndarray:
    """The pixels the rasterizer gives one triangle, as an (h, w) bool map."""
    return _rasterize(np.asarray(pixels, float)[None], h, w) == 0


def make_region(pixels) -> TriangleRegion:
    """TriangleRegion with arbitrary image vertices over the FLAT plane."""
    pts3d = np.array([[-5.0, 6.0, 30.0], [5.0, 6.0, 35.0], [0.0, 6.0, 60.0]])
    return TriangleRegion(
        pixels=np.asarray(pixels, float),
        plane=plane_from_three_points(*pts3d),
        points3d=pts3d,
    )


class TestDepthMap:
    def test_matches_per_pixel_closed_form(self):
        g = attitude_to_plane(CameraAttitude(roll=0.02, pitch=0.2, height=5.0))
        m = build_ground_depth_map(K, g, 64, 96)
        for row in (0, 13, 40, 63):
            for col in (0, 17, 60, 95):
                px = Pixel(col + 0.5, row + 0.5)
                if m.valid[row, col]:
                    z = ground_depth_at_pixel(px, K, g)
                    assert m.depth[row, col] == pytest.approx(z, rel=1e-12)

    def test_sky_rows_masked(self):
        m = build_ground_depth_map(K, FLAT, 512, 928)
        assert not m.valid[: int(K.cy)].any()  # above-horizon rows
        assert m.valid[int(K.cy) + 1 :].all()

    def test_rejects_empty_dims(self):
        with pytest.raises(DimensionMismatch):
            build_ground_depth_map(K, FLAT, 0, 10)


class TestGlobalMap:
    def test_constant_channels(self):
        m = build_global_denorm_map(FLAT, 8, 12)
        assert m.data.shape == (8, 12, 4)
        assert np.array_equal(m.data, np.broadcast_to(FLAT.params(), (8, 12, 4)))


class TestTriangulation:
    def test_three_points_single_triangle(self):
        pts = [[-5, 6, 30], [5, 6, 35], [0, 6, 60]]
        regions, skipped = triangulate_ground_points(pts, K)
        assert len(regions) == 1 and skipped == 0
        assert np.allclose(regions[0].plane.params(), FLAT.params(), atol=1e-12)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            triangulate_ground_points([[0, 6, 30], [1, 6, 40]], K)

    def test_behind_camera_points_dropped(self):
        pts = [[-5, 6, 30], [5, 6, 35], [0, 6, -10]]
        with pytest.raises(InsufficientPoints):
            triangulate_ground_points(pts, K)

    def test_all_collinear_raises(self):
        pts = [[0, 6, 20], [0, 6, 30], [0, 6, 40], [0, 6, 50]]
        with pytest.raises(AllDegenerate):
            triangulate_ground_points(pts, K)

    def test_delaunay_triangles_share_plane_on_flat_ground(self):
        rng = np.random.default_rng(4)
        pts = [[rng.uniform(-20, 20), 6.0, rng.uniform(20, 150)] for _ in range(25)]
        regions, _ = triangulate_ground_points(pts, K)
        assert len(regions) >= 20
        for r in regions:
            assert np.allclose(r.plane.params(), FLAT.params(), atol=1e-9)


class TestRasterization:
    def test_matches_barycentric_oracle(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(100):
            pix = rng.uniform(-4, 36, size=(3, 2))
            try:
                tri = make_region(pix)
            except Exception:
                continue  # collinear image vertices
            got = covered_mask(tri.pixels, 32, 32)
            assert np.array_equal(got, barycentric_oracle(pix, 32, 32))
            checked += 1
        assert checked > 90

    def test_adjacent_triangles_claim_each_pixel_once(self):
        # Two triangles sharing a diagonal edge must partition the square.
        a = np.array([[2.0, 2.0], [18.0, 2.0], [18.0, 18.0]])
        b = np.array([[2.0, 2.0], [18.0, 18.0], [2.0, 18.0]])
        got_a, got_b = covered_mask(a, 20, 20), covered_mask(b, 20, 20)
        assert not (got_a & got_b).any()
        assert (got_a | got_b).sum() == barycentric_oracle(a, 20, 20).sum() + (
            barycentric_oracle(b, 20, 20).sum()
        )

    def test_offmap_triangle_writes_nothing(self):
        tri = make_region([[100.0, 100.0], [110.0, 100.0], [105.0, 110.0]])
        assert (_rasterize(tri.pixels[None], 16, 16) == -1).all()


class TestRefinement:
    def boxes_on(self, g, n=12, seed=0):
        rng = np.random.default_rng(seed)
        boxes = []
        for _ in range(n):
            x = rng.uniform(-15, 15)
            z = rng.uniform(20, 120)
            y = -(g.alpha * x + g.gamma * z + g.d) / g.beta
            h = rng.uniform(1.4, 1.7)
            c = np.array([x, y, z]) + 0.5 * h * g.normal
            boxes.append((c[0], c[1], c[2], 4.2, 1.8, h, 0.0))
        return np.array(boxes, BOX3D_DTYPE)

    # Stride-8 intrinsics for the 64 x 116 maps used below.
    K8 = CameraIntrinsics(fx=125.0, fy=125.0, cx=58.0, cy=32.0)

    def test_flat_ground_is_fixed_point(self):
        g = attitude_to_plane(CameraAttitude(roll=0.01, pitch=0.18, height=6.0))
        boxes = self.boxes_on(g)
        planes, tri_id, _ = refine_map(g, boxes, self.K8, 64, 116)
        refined = DenormMap(planes[tri_id])
        assert denorm_l1_loss(refined, build_global_denorm_map(g, 64, 116)) < 1e-9

    def test_too_few_boxes_returns_global(self):
        planes, tri_id, stats = refine_map(FLAT, self.boxes_on(FLAT, n=2),
                                           self.K8, 32, 58)
        m = DenormMap(planes[tri_id])
        assert stats["insufficient_points"] == 1
        assert np.array_equal(m.data, build_global_denorm_map(FLAT, 32, 58).data)

    def test_tilted_annotations_overwrite_covered_pixels(self):
        # Boxes on a slightly different plane than the global prior: the
        # refined map must differ from the global map inside the hull.
        g2 = attitude_to_plane(CameraAttitude(roll=0.0, pitch=0.21, height=6.0))
        boxes = self.boxes_on(g2, n=15, seed=3)
        planes, tri_id, stats = refine_map(FLAT, boxes, self.K8, 64, 116)
        m = DenormMap(planes[tri_id])
        assert denorm_l1_loss(m, build_global_denorm_map(FLAT, 64, 116)) > 0
        assert stats["insufficient_points"] == 0

    def test_single_triangle_writes_its_sub_plane(self):
        # Three boxes on a plane tilted against the global prior: exactly
        # the pixels the edge oracle assigns to their projected triangle
        # change, and each carries the triangle's sub-plane.
        g2 = attitude_to_plane(CameraAttitude(roll=0.02, pitch=0.23, height=6.5))
        boxes = self.boxes_on(g2, n=3, seed=11)
        points = [bottom_center(b, FLAT) for b in boxes]
        pixels = [project_point(p, self.K8) for p in points]
        verts = np.array([[px.u, px.v] for px in pixels])
        want = barycentric_oracle(verts, 64, 116)
        assert want.sum() > 20
        planes, tri_id, stats = refine_map(FLAT, boxes, self.K8, 64, 116)
        m = DenormMap(planes[tri_id])
        assert stats == {"dropped_points": 0, "insufficient_points": 0,
                         "degenerate_skipped": 0, "triangles": 1,
                         "covered_pixels": int(want.sum())}
        changed = np.any(m.data != FLAT.params(), axis=2)
        assert np.array_equal(changed, want)
        sub_plane = plane_from_three_points(*points).params()
        assert np.all(m.data[want] == sub_plane)

    def test_loss_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            denorm_l1_loss(
                build_global_denorm_map(FLAT, 4, 4),
                build_global_denorm_map(FLAT, 4, 5),
            )


class TestGpkmFormat:
    def test_depth_map_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        m = GroundDepthMap(
            depth=rng.uniform(0, 200, (37, 53)).astype(np.float32).astype(float),
            valid=rng.random((37, 53)) > 0.3,
        )
        path = tmp_path / "depth.gpkm"
        path.write_bytes(pack_map(m.depth, m.valid))
        back = load_depth_map(path)
        assert np.array_equal(back.depth, m.depth)
        assert np.array_equal(back.valid, m.valid)
        assert pack_map(back.depth, back.valid) == path.read_bytes()

    def test_denorm_map_round_trip(self, tmp_path):
        m = build_global_denorm_map(FLAT, 9, 11)
        m = DenormMap(data=m.data.astype(np.float32).astype(float))
        path = tmp_path / "denorm.gpkm"
        path.write_bytes(pack_map(m.data))
        assert np.array_equal(load_denorm_map(path).data, m.data)

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            unpack_map(b"NOPE" + bytes(13))

    def test_truncated_payload(self):
        blob = pack_map(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ParseError):
            unpack_map(blob[:-3])

    def test_trailing_bytes_rejected(self):
        blob = pack_map(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ParseError):
            unpack_map(blob + b"\x00")

    def test_mask_bits_packed(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        blob = pack_map(np.zeros((3, 3), dtype=np.float32), mask)
        _, back = unpack_map(blob)
        assert np.array_equal(back, mask)


VALID_BLOBS = [
    pack_map(np.arange(24, dtype=np.float32).reshape(2, 3, 4)),
    pack_map(np.ones((3, 5), dtype=np.float32), np.eye(3, 5, dtype=bool)),
]


def assert_returns_or_parse_error(blob):
    try:
        unpack_map(blob)
    except ParseError:
        pass


class TestGpkmProperties:
    # Half the inputs carry a valid magic and version, so the dimension and
    # payload checks see arbitrary values. The examples are empty maps of
    # huge extents, which numpy cannot shape.
    @given(st.one_of(st.binary(max_size=96), st.binary(max_size=88).map(
        lambda rest: b"GPKM\x01\x00\x00\x00" + rest)))
    @example(_HEADER.pack(b"GPKM", 1, 2**32 - 1, 2**32 - 1, 0, 0))
    @example(_HEADER.pack(b"GPKM", 1, 0, 2**31, 2**31, 0))
    def test_any_bytes(self, blob):
        assert_returns_or_parse_error(blob)

    @given(st.sampled_from(VALID_BLOBS), st.data())
    def test_single_byte_mutations(self, blob, data):
        i = data.draw(st.integers(0, len(blob) - 1))
        byte = data.draw(st.integers(0, 255))
        assert_returns_or_parse_error(blob[:i] + bytes([byte]) + blob[i + 1:])
