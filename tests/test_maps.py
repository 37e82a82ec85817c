"""Map construction, rasterization (vs. a brute-force barycentric oracle),
refinement, and GPKM serialization tests."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    attitude_to_plane,
    bottom_centers,
    ground_depths,
    project_points,
)
from gpk.losses import denorm_l1
from gpk.mapfile import (
    PIECEWISE,
    _COUNTS,
    _HEADER,
    load_denorm_map,
    load_depth_map,
    pack_map,
    unpack_map,
)
from gpk.maps import (
    DenormMap,
    GroundDepthMap,
    PlaneMap,
    TriangleRegion,
    _rasterize,
    build_global_denorm_map,
    build_ground_depth_map,
    refine_map,
    triangulate_ground_points,
)
from reference import expand_runs, ground_depth, plane_through

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
    return expand_runs(_rasterize(np.asarray(pixels, float)[None], h, w), h, w) == 0


def make_region(pixels) -> TriangleRegion:
    """TriangleRegion with arbitrary image vertices over the FLAT plane."""
    pts3d = np.array([[-5.0, 6.0, 30.0], [5.0, 6.0, 35.0], [0.0, 6.0, 60.0]])
    return TriangleRegion(
        pixels=np.asarray(pixels, float),
        plane=FLAT,
        points3d=pts3d,
    )


class TestDepthMap:
    def test_matches_per_pixel_closed_form(self):
        # The map is geometry.ground_depths at pixel centres, held in float32
        # as the file stores it: bit-equal to the scalar closed form rounded
        # to float32 where it gives a depth, and 0 elsewhere.
        g = attitude_to_plane(CameraAttitude(roll=0.02, pitch=0.2, height=5.0))
        m = build_ground_depth_map(K, g, 64, 96)
        assert m.depth.dtype == np.float32
        for row in (0, 13, 40, 63):
            for col in (0, 17, 60, 95):
                z = ground_depth(col + 0.5, row + 0.5, K, g)
                assert m.valid[row, col] == (z is not None)
                assert m.depth[row, col] == np.float32(0.0 if z is None else z)

    @pytest.mark.parametrize("h", [1, 31, 32, 33, 65, 512])
    def test_row_blocks_equal_the_whole_grid(self, h):
        # Built 32 rows at a time, the map is the whole-grid kernel rounded
        # to float32, bit for bit. The tilted horizon crosses rows
        # 0.55 h +- 2, mid-block for h = 65 (rows 33-38) and h = 512.
        w = 40
        k = CameraIntrinsics(fx=50.0, fy=50.0, cx=w / 2, cy=0.55 * h)
        g = attitude_to_plane(CameraAttitude(roll=0.1, pitch=0.0, height=5.0))
        depth, valid = ground_depths(np.arange(w) + 0.5,
                                     (np.arange(h) + 0.5)[:, None], k, g)
        m = build_ground_depth_map(k, g, h, w)
        assert np.array_equal(m.depth.view(np.uint32),
                              depth.astype(np.float32).view(np.uint32))
        assert np.array_equal(m.valid, valid)
        if h >= 65:  # rows the horizon cuts lie inside a block
            cut = np.flatnonzero(valid.any(axis=1) & ~valid.all(axis=1))
            assert cut.size and (cut % 32 != 0).all() and (cut % 32 != 31).all()

    def test_built_map_is_what_the_file_stores(self, tmp_path):
        g = attitude_to_plane(CameraAttitude(roll=0.02, pitch=0.2, height=5.0))
        m = build_ground_depth_map(K, g, 70, 96)
        (tmp_path / "d.gpkm").write_bytes(pack_map(m.depth, m.valid))
        back = load_depth_map(tmp_path / "d.gpkm")
        assert back.depth.dtype == np.float64
        assert np.array_equal(back.depth, m.depth)
        assert np.array_equal(back.valid, m.valid)

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
        assert (expand_runs(_rasterize(tri.pixels[None], 16, 16), 16, 16) == -1).all()

    def test_no_triangles_one_unowned_run(self):
        lengths, ids = _rasterize(np.empty((0, 3, 2)), 7, 9)
        assert lengths.tolist() == [63] and ids.tolist() == [-1]


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
        refined = DenormMap(refine_map(g, boxes, self.K8, 64, 116)[0].dense())
        global_map = build_global_denorm_map(g, 64, 116)
        assert denorm_l1(refined.data, global_map.data) < 1e-9

    def test_too_few_boxes_returns_global(self):
        refined, stats = refine_map(FLAT, self.boxes_on(FLAT, n=2),
                                    self.K8, 32, 58)
        m = DenormMap(refined.dense())
        assert stats["insufficient_points"] == 1
        assert np.array_equal(m.data, build_global_denorm_map(FLAT, 32, 58).data)

    def test_tilted_annotations_overwrite_covered_pixels(self):
        # Boxes on a slightly different plane than the global prior: the
        # refined map must differ from the global map inside the hull.
        g2 = attitude_to_plane(CameraAttitude(roll=0.0, pitch=0.21, height=6.0))
        boxes = self.boxes_on(g2, n=15, seed=3)
        refined, stats = refine_map(FLAT, boxes, self.K8, 64, 116)
        m = DenormMap(refined.dense())
        assert denorm_l1(m.data, build_global_denorm_map(FLAT, 64, 116).data) > 0
        assert stats["insufficient_points"] == 0

    def test_single_triangle_writes_its_sub_plane(self):
        # Three boxes on a plane tilted against the global prior: exactly
        # the pixels the edge oracle assigns to their projected triangle
        # change, and each carries the triangle's sub-plane.
        g2 = attitude_to_plane(CameraAttitude(roll=0.02, pitch=0.23, height=6.5))
        boxes = self.boxes_on(g2, n=3, seed=11)
        points = bottom_centers(boxes, FLAT)
        verts = project_points(points, self.K8)
        want = barycentric_oracle(verts, 64, 116)
        assert want.sum() > 20
        refined, stats = refine_map(FLAT, boxes, self.K8, 64, 116)
        m = DenormMap(refined.dense())
        assert stats == {"dropped_points": 0, "insufficient_points": 0,
                         "degenerate_skipped": 0, "triangles": 1,
                         "covered_pixels": int(want.sum())}
        changed = np.any(m.data != FLAT.params(), axis=2)
        assert np.array_equal(changed, want)
        sub_plane = plane_through(*points).params()
        assert np.all(m.data[want] == sub_plane)

    def test_loss_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            denorm_l1(
                build_global_denorm_map(FLAT, 4, 4).data,
                build_global_denorm_map(FLAT, 4, 5).data,
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

    @pytest.mark.parametrize("shape", [(0, 3, 4), (3, 0), (2, 3, 0)])
    def test_pack_refuses_empty_map(self, shape):
        # unpack_map refuses every zero extent, so pack_map must not write one.
        with pytest.raises(ValueError):
            pack_map(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
    def test_pack_refuses_empty_plane_table(self, shape):
        with pytest.raises(ValueError):
            pack_map(PlaneMap(np.zeros(shape), [6], [0], 2, 3))

    def test_mask_bits_packed(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        blob = pack_map(np.zeros((3, 3), dtype=np.float32), mask)
        _, back = unpack_map(blob)
        assert np.array_equal(back, mask)

    def test_decode_copies_once(self, tmp_path):
        # unpack_map views the blob; the loaders make the one float64 copy.
        m = build_ground_depth_map(K, FLAT, 8, 12)
        blob = pack_map(m.depth, m.valid)
        data, _ = unpack_map(blob)
        assert not data.flags.writeable
        assert np.shares_memory(data, np.frombuffer(blob, np.uint8))
        (tmp_path / "depth.gpkm").write_bytes(blob)
        (tmp_path / "denorm.gpkm").write_bytes(pack_map(np.ones((8, 12, 4))))
        for array in (load_depth_map(tmp_path / "depth.gpkm").depth,
                      load_denorm_map(tmp_path / "denorm.gpkm").data):
            assert array.dtype == np.float64 and array.flags.writeable
            assert array.flags.owndata


def piecewise_blob(h, w, planes, lengths, ids, n=None, c=None, mask=0):
    """A piecewise GPKM blob assembled field by field, valid or not."""
    planes = np.asarray(planes, dtype="<f4")
    n = len(planes) if n is None else n
    c = planes.shape[1] if c is None else c
    return (_HEADER.pack(b"GPKM", PIECEWISE, h, w, c, mask)
            + _COUNTS.pack(n, len(lengths)) + planes.tobytes()
            + np.asarray(lengths, "<u4").tobytes() + np.asarray(ids, "<u4").tobytes())


class TestPiecewiseFormat:
    PLANES = np.array([[0.0, -1.0, 0.0, 6.0], [0.1, -0.9, 0.0, 5.0]])

    def test_runs_follow_the_raster(self):
        # The writer keeps the runs it is given, even two of one plane.
        raster = np.array([[0, 0, 1], [1, 1, 1]])
        blob = pack_map(PlaneMap(self.PLANES, [2, 3, 1], [0, 1, 1], 2, 3))
        assert blob == piecewise_blob(2, 3, self.PLANES, [2, 3, 1], [0, 1, 1])
        data, mask = unpack_map(blob)
        assert mask is None and data.flags.writeable
        assert np.array_equal(data, self.PLANES.astype("<f4")[raster])

    def test_one_plane_map_is_one_run(self):
        blob = pack_map(PlaneMap(self.PLANES[:1], [512 * 928], [0], 512, 928))
        assert len(blob) == _HEADER.size + _COUNTS.size + 16 + 8

    @pytest.mark.parametrize("ids", [[0, 2], [-1, 0], [0.0, 1.0], [[0, 1]]])
    def test_pack_refuses_bad_ids(self, ids):
        with pytest.raises(ValueError):
            pack_map(PlaneMap(self.PLANES, [1, 1], np.array(ids), 1, 2))

    @pytest.mark.parametrize("lengths,h", [
        ([1, 2], 1), ([3, -1], 1), ([2], 1), ([1.0, 1.0], 1), ([1, 1], 0)],
        ids=["short", "negative", "unpaired", "float", "zero-height"])
    def test_pack_refuses_bad_runs(self, lengths, h):
        with pytest.raises(ValueError):
            pack_map(PlaneMap(self.PLANES, np.array(lengths), [0, 1], h, 2))

    def test_pack_refuses_a_mask(self):
        with pytest.raises(ValueError):
            pack_map(PlaneMap(self.PLANES, [2], [0], 1, 2), np.ones((1, 2), bool))

    def test_pack_refuses_more_than_the_cap(self):
        h, w = 2**14, 2**14 + 1
        with pytest.raises(ValueError):
            pack_map(PlaneMap(np.zeros((1, 1)), [h * w], [0], h, w))

    @pytest.mark.parametrize("blob, message", [
        (piecewise_blob(2, 3, PLANES, [2, 3], [0, 1]), "cover"),
        (piecewise_blob(2, 3, PLANES, [2, 3, 2], [0, 1, 0]), "cover"),
        (piecewise_blob(2, 3, PLANES, [2**32 - 1, 7], [0, 1]), "cover"),
        (piecewise_blob(2, 3, PLANES, [6], [2]), "beyond"),
        (piecewise_blob(2, 3, np.zeros((0, 4)), [6], [0], c=4), "empty"),
        (piecewise_blob(2, 3, PLANES, [6], [0])[:-1], "truncated"),
        (piecewise_blob(2, 3, PLANES, [6], [0])[:_HEADER.size + 4], "truncated"),
        (piecewise_blob(2, 3, PLANES, [6], [0]) + b"\x00", "trailing"),
        (piecewise_blob(2, 3, PLANES, [6], [0], mask=1), "mask"),
        # A 53-byte file, valid but for the cap, that asks for 2 GiB of float32.
        (piecewise_blob(2**14, 2**14, PLANES[:, :2], [2**28], [0]), "exceeds"),
    ])
    def test_rejects(self, blob, message):
        with pytest.raises(ParseError, match=message):
            unpack_map(blob)

    def test_dense_maps_still_load(self, tmp_path):
        # The writer keeps the dense layout for arrays; both decode alike.
        dense = pack_map(self.PLANES[[[1, 1, 0], [0, 0, 1]]])
        (tmp_path / "v1.gpkm").write_bytes(dense)
        runs = PlaneMap(self.PLANES, [2, 3, 1], [1, 0, 1], 2, 3)
        (tmp_path / "v2.gpkm").write_bytes(pack_map(runs))
        assert dense[4] == 1
        assert np.array_equal(load_denorm_map(tmp_path / "v1.gpkm").data,
                              load_denorm_map(tmp_path / "v2.gpkm").data)


@st.composite
def plane_maps(draw):
    """(PlaneMap, raster): an (n, c) table, an (h, w) raster of its ids,
    random, all one id, or 1x1, and runs over the raster that end wherever
    the id changes and, some of them, where it does not."""
    n, c = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    planes = draw(hnp.arrays(np.float64, (n, c), elements=st.floats(width=32)))
    shape = draw(st.tuples(st.integers(1, 7), st.integers(1, 9)))
    ids = st.integers(0, n - 1)
    raster = draw(st.one_of(hnp.arrays(np.int32, shape, elements=ids),
                            ids.map(lambda i: np.full(shape, i, np.int32))))
    flat = raster.reshape(-1)
    cuts = draw(st.lists(st.integers(0, flat.size - 1), max_size=flat.size))
    starts = np.union1d(np.flatnonzero(flat[1:] != flat[:-1]) + 1, [0, *cuts])
    lengths = np.diff(starts, append=flat.size)
    return PlaneMap(planes, lengths, flat[starts], *shape), raster


@pytest.fixture(scope="module")
def gpkm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("gpkm") / "map.gpkm"


class TestPiecewiseProperties:
    @given(plane_maps())
    @example((PlaneMap(np.array([[1.0, 2.0, 3.0, 4.0]]), [1], [0], 1, 1),
              np.array([[0]])))
    @example((PlaneMap(np.eye(3, 4), [1], [2], 1, 1), np.array([[2]])))
    def test_round_trip(self, gpkm_path, table):
        m, raster = table
        planes = m.planes
        want = planes.astype("<f4")[raster]
        gpkm_path.write_bytes(pack_map(m))
        data, mask = unpack_map(gpkm_path.read_bytes())
        assert mask is None
        assert data.dtype == np.float32 and data.shape == want.shape
        assert np.array_equal(data.view(np.uint32), want.view(np.uint32))
        if planes.shape[1] == 4:
            loaded = load_denorm_map(gpkm_path).data
            assert np.array_equal(loaded.view(np.uint64),
                                  want.astype(np.float64).view(np.uint64))
        else:
            with pytest.raises(ParseError):
                load_denorm_map(gpkm_path)


VALID_BLOBS = [
    pack_map(np.arange(24, dtype=np.float32).reshape(2, 3, 4)),
    pack_map(np.ones((3, 5), dtype=np.float32), np.eye(3, 5, dtype=bool)),
    pack_map(PlaneMap(np.arange(12.0).reshape(3, 4), [2, 1, 1, 2], [2, 2, 0, 1], 2, 3)),
]


def assert_returns_or_parse_error(blob):
    try:
        unpack_map(blob)
    except ParseError:
        pass


class TestGpkmProperties:
    # Two thirds of the inputs carry a valid magic and version, dense or
    # piecewise, so the dimension, table and run checks see arbitrary
    # values. The examples are empty maps of huge extents, which numpy
    # cannot shape, and a one-run piecewise map far beyond the value cap.
    @given(st.one_of(st.binary(max_size=96), *(
        st.binary(max_size=88).map(lambda rest, v=v: b"GPKM" + v + rest)
        for v in (b"\x01\x00\x00\x00", b"\x02\x00\x00\x00"))))
    @example(_HEADER.pack(b"GPKM", 1, 2**32 - 1, 2**32 - 1, 0, 0))
    @example(_HEADER.pack(b"GPKM", 1, 0, 2**31, 2**31, 0))
    @example(piecewise_blob(2**32 - 1, 2**32 - 1, [[1.0]], [2**32 - 1], [0]))
    def test_any_bytes(self, blob):
        assert_returns_or_parse_error(blob)

    @given(st.sampled_from(VALID_BLOBS), st.data())
    def test_single_byte_mutations(self, blob, data):
        i = data.draw(st.integers(0, len(blob) - 1))
        byte = data.draw(st.integers(0, 255))
        assert_returns_or_parse_error(blob[:i] + bytes([byte]) + blob[i + 1:])
