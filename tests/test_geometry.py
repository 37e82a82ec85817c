"""Geometry tests against independent oracles.

Oracles used here:
  * ray-plane depth (geometry.ground_depths): solve for the intersection
    with K^-1 and the plane instead of the closed form;
  * sub-plane fit (maps._fit_sub_planes): direct numpy cross product;
  * homography: rotate camera-frame points explicitly;
  * array forms: the scalar expressions of tests/reference.py.
"""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gpk.dataio import BOX3D_DTYPE
from gpk.errors import AllDegenerate, DegeneratePlane
from gpk.geometry import (
    CameraAttitude,
    CameraIntrinsics,
    GroundPlane,
    attitude_to_plane,
    bottom_center,
    bottom_centers,
    ground_depths,
    ground_homography,
    perturbation_rotation,
    plane_to_attitude,
    project_points,
    rotation_pitch,
    rotation_roll,
    unit_planes,
)
from gpk.maps import _fit_sub_planes, _in_view
from reference import back_project, ground_depth

K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=464.0, cy=256.0)


def random_plane(rng) -> GroundPlane:
    att = CameraAttitude(
        roll=rng.uniform(-0.3, 0.3),
        pitch=rng.uniform(0.02, 0.6),
        height=rng.uniform(2.0, 12.0),
    )
    return attitude_to_plane(att)


def ray_plane_oracle(u, v, k: CameraIntrinsics, g: GroundPlane) -> float:
    """Depth via an explicit linear solve: find t with n.(t*ray) + d = 0."""
    ray = np.linalg.inv(k.matrix()) @ np.array([u, v, 1.0])
    denom = g.normal @ ray
    t = -g.d / denom
    return t * ray[2]


class TestIntrinsics:
    def test_matrix_inverse_consistency(self):
        assert np.allclose(K.matrix() @ K.inverse_matrix(), np.eye(3), atol=1e-12)

    def test_rejects_nonpositive_focal(self):
        with pytest.raises(Exception):
            CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)

    def test_scaled_divides_every_field(self):
        k = CameraIntrinsics(fx=1013.7, fy=998.1, cx=463.3, cy=255.9)
        s = k.scaled(16)
        assert (s.fx, s.fy, s.cx, s.cy) == (
            k.fx / 16, k.fy / 16, k.cx / 16, k.cy / 16
        )
        assert k.scaled(1) == k


class TestGroundPlane:
    def test_from_raw_normalizes(self):
        g = GroundPlane.from_raw(0.0, -2.0, 0.0, 10.0)
        assert g.beta == -1.0 and g.d == 5.0

    def test_from_raw_flips_sign_for_positive_d(self):
        g = GroundPlane.from_raw(0.0, 1.0, 0.0, -5.0)
        assert g.beta == -1.0 and g.d == 5.0

    def test_rejects_zero_normal(self):
        with pytest.raises(DegeneratePlane):
            GroundPlane.from_raw(0.0, 0.0, 0.0, 1.0)

    def test_rejects_origin_on_plane(self):
        with pytest.raises(DegeneratePlane):
            GroundPlane.from_raw(0.0, -1.0, 0.0, 0.0)

    def test_huge_component_is_value_error(self):
        # Its square overflows a float: the norm check must not.
        with pytest.raises(ValueError, match="unit norm"):
            GroundPlane(1e200, 0.0, 0.0, 1.0)

    def test_signed_distance(self):
        g = GroundPlane(0.0, -1.0, 0.0, 5.0)
        assert g.signed_distance([0.0, 5.0, 0.0]) == 0.0
        assert g.signed_distance([0.0, 0.0, 0.0]) == 5.0


def depth_at(u, v, k, g):
    """ground_depths at one pixel, as (depth, valid) Python scalars."""
    z, ok = ground_depths(u, v, k, g)
    return float(z), bool(ok)


def fit_triple(pts, pixels=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))):
    """The one sub-plane _fit_sub_planes fits to three points, as a
    GroundPlane. The default pixels span a triangle, so only the 3D points
    decide whether the triple is degenerate."""
    _, _, planes, skipped = _fit_sub_planes(np.asarray(pts, float),
                                            np.asarray(pixels, float))
    assert skipped == 0
    return GroundPlane(*planes[0].tolist())


class TestProjection:
    def test_principal_point(self):
        assert project_points([0.0, 0.0, 10.0], K).tolist() == [[K.cx, K.cy]]

    def test_rejects_nonpositive_depth(self):
        # Points at or behind the camera have no pixel: the refined map's
        # point filter drops them.
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -5.0], [0.0, 0.0, 10.0]])
        kept, pixels = _in_view(pts, K, 512, 928)
        assert kept.tolist() == [[0.0, 0.0, 10.0]]
        assert pixels.tolist() == [[K.cx, K.cy]]

    def test_back_project_round_trip(self):
        rng = np.random.default_rng(1)
        p = np.column_stack([rng.uniform(-20, 20, 200), rng.uniform(-5, 10, 200),
                             rng.uniform(1, 200, 200)])
        for (u, v), q in zip(project_points(p, K), p):
            assert np.allclose(back_project(u, v, K, q[2]), q, atol=1e-9)


class TestGroundDepth:
    def test_matches_linear_system_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(500):
            g = random_plane(rng)
            u, v = rng.uniform(0, 928), rng.uniform(0, 512)
            z, ok = depth_at(u, v, K, g)
            if ok:
                assert z == pytest.approx(ray_plane_oracle(u, v, K, g), rel=1e-9)
                checked += 1
        assert checked > 250

    def test_level_camera_below_horizon(self):
        # Camera looking straight ahead 1.5 m above flat ground: a pixel
        # 100 rows below the principal point sees the ground at z = 15.
        g = GroundPlane(0.0, -1.0, 0.0, 1.5)
        z, ok = depth_at(K.cx, K.cy + 100.0, K, g)
        assert ok and z == pytest.approx(1.5 * 1000.0 / 100.0, rel=1e-12)

    def test_horizon_row_is_invalid(self):
        # The ray through the principal point is parallel to level ground.
        g = GroundPlane(0.0, -1.0, 0.0, 1.5)
        assert depth_at(K.cx, K.cy, K, g) == (0.0, False)

    def test_sky_pixel_is_invalid(self):
        # Above the horizon the ray meets the ground behind the camera.
        g = GroundPlane(0.0, -1.0, 0.0, 1.5)
        assert depth_at(K.cx, K.cy - 50.0, K, g) == (0.0, False)

    def test_monotone_in_v_below_horizon(self):
        g = attitude_to_plane(CameraAttitude(roll=0.0, pitch=0.175, height=6.0))
        zs, ok = ground_depths(K.cx, np.linspace(470.0, 511.0, 40), K, g)
        assert ok.all() and (np.diff(zs) < 0).all()

    def test_intersection_lies_on_plane(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = random_plane(rng)
            u, v = rng.uniform(0, 928), rng.uniform(0, 512)
            z, ok = depth_at(u, v, K, g)
            if ok:
                assert abs(g.signed_distance(back_project(u, v, K, z))) < 1e-8


class TestPlaneFit:
    def test_matches_cross_product_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            pts = rng.uniform(-10, 10, size=(3, 3)) + [0, 5, 30]
            g = fit_triple(pts, project_points(pts, K))
            n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
            n /= np.linalg.norm(n)
            if n @ pts[0] > 0:  # orient so that d = -n.p is positive
                n = -n
            assert np.allclose(g.normal, n, atol=1e-9)
            for p in pts:
                assert abs(g.signed_distance(p)) < 1e-9

    def test_collinear_rejected(self):
        with pytest.raises(AllDegenerate):
            fit_triple([(0, 1, 1), (0, 1, 2), (0, 1, 3)])

    def test_overflowing_edges_are_collinear(self):
        # The points span a plane, but the squares of their edge lengths
        # overflow a float (float_power gives an infinite edge), so
        # collinearity cannot be judged relative to the edges and the
        # triple is skipped as collinear.
        with pytest.raises(AllDegenerate):
            fit_triple([(0, 0, 0), (1e200, 0, 0), (0, 1e200, 0)])

    def test_origin_crossing_plane_rejected(self):
        # x + y - z = 0 passes through the camera: d = 0.
        with pytest.raises(AllDegenerate):
            fit_triple([(1, 0, 1), (0, 1, 1), (1, 1, 2)])

    def test_near_collinear_scale_invariant(self):
        # Collinearity is judged relative to edge lengths, not absolutely.
        pts = np.array([[0.0, 5.0, 10.0], [1e-3, 5.0, 10.0], [0.0, 5.0, 10.001]])
        assert abs(abs(fit_triple(pts).beta) - 1.0) < 1e-9


class TestAttitude:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            att = CameraAttitude(
                roll=rng.uniform(-1.2, 1.2),
                pitch=rng.uniform(-1.2, 1.2),
                height=rng.uniform(0.5, 20.0),
            )
            back = plane_to_attitude(attitude_to_plane(att))
            assert back.roll == pytest.approx(att.roll, abs=1e-12)
            assert back.pitch == pytest.approx(att.pitch, abs=1e-12)
            assert back.height == pytest.approx(att.height, abs=1e-12)

    def test_level_camera(self):
        att = plane_to_attitude(GroundPlane(0.0, -1.0, 0.0, 6.0))
        assert (att.roll, att.pitch, att.height) == (0.0, 0.0, 6.0)

    def test_pitch_only(self):
        g = attitude_to_plane(CameraAttitude(roll=0.0, pitch=0.2, height=6.0))
        assert g.alpha == 0.0
        assert g.gamma == pytest.approx(-math.sin(0.2), abs=1e-15)

    def test_normal_matches_rotation_composition(self):
        att = CameraAttitude(roll=0.07, pitch=0.21, height=4.0)
        n = rotation_roll(att.roll) @ rotation_pitch(att.pitch) @ [0.0, -1.0, 0.0]
        assert np.allclose(attitude_to_plane(att).normal, n, atol=1e-15)


def box_column(boxes):
    """A box3d column of (x, y, z, l, w, h, theta) boxes."""
    return np.array(boxes, BOX3D_DTYPE).reshape(-1)


class TestBottomCenter:
    def test_level_ground(self):
        g = GroundPlane(0.0, -1.0, 0.0, 6.0)
        (b,) = box_column([(1.0, 5.25, 40.0, 4.0, 2.0, 1.5, 0.0)])
        assert np.allclose(bottom_center(b, g), [1.0, 6.0, 40.0])

    def test_offset_is_half_height_along_normal(self):
        rng = np.random.default_rng(9)
        g = random_plane(rng)
        (b,) = box_column([(2.0, 3.0, 50.0, 4.0, 2.0, 1.6, 0.3)])
        p = bottom_center(b, g)
        assert np.linalg.norm(p - [b.x, b.y, b.z]) == pytest.approx(0.8, abs=1e-12)


finite = st.floats(allow_nan=False, allow_infinity=False)
planes = st.builds(
    lambda r, p, h: attitude_to_plane(CameraAttitude(r, p, h)),
    st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(1e-3, 1e3))
boxes = st.tuples(
    finite, finite, finite, st.floats(1e-6, 1e6), st.floats(1e-6, 1e6),
    st.floats(0.0, 1e6), st.floats(-math.pi, math.pi, exclude_max=True))
intrinsics = st.builds(CameraIntrinsics, st.floats(1e-3, 1e5), st.floats(1e-3, 1e5),
                       st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
points = st.tuples(finite, finite, st.floats(min_value=0.0, exclude_min=True,
                                             allow_infinity=False))


# A pixel row: anywhere, or at, just off or above the horizon row v_h of
# its column, where the denominator is (nearly) zero.
rows = st.one_of(
    st.tuples(st.just("at"), st.floats(-1e4, 1e4)),
    st.tuples(st.just("horizon"),
              st.sampled_from([0.0, 1e-9, -1e-9, 1e-6, -1e-6, -1.0, -1e3])))


class TestArrayForms:
    """Rows of the array forms are bit-equal to the scalar expressions
    written out."""

    @given(st.lists(boxes, max_size=8), planes)
    def test_bottom_centers_rows(self, bs, g):
        column = box_column(bs)
        rows = bottom_centers(column, g)
        assert rows.shape == (len(bs), 3)
        for row, b in zip(rows, column):
            with np.errstate(over="ignore"):
                want = np.array([b.x, b.y, b.z]) - 0.5 * b.h * g.normal
            assert np.array_equal(row, bottom_center(b, g))
            assert np.array_equal(row, want)

    @given(st.lists(points, max_size=8), intrinsics)
    def test_project_points_rows(self, ps, k):
        pixels = project_points(np.array(ps, float).reshape(-1, 3), k)
        assert pixels.shape == (len(ps), 2)
        for (u, v), p in zip(pixels, np.array(ps, float).reshape(-1, 3)):
            with np.errstate(all="ignore"):
                want = (k.fx * p[0] / p[2] + k.cx, k.fy * p[1] / p[2] + k.cy)
            assert (u, v) == want

    # A subnormal denominator: -d / denom overflows, and must neither warn
    # nor give a depth.
    @example(CameraIntrinsics(1.0, 1.0, 0.0, 2.2250738585e-313),
             attitude_to_plane(CameraAttitude(0.0, 0.0, 1.0)), [(0.0, ("at", 0.0))])
    @given(intrinsics, planes, st.lists(st.tuples(st.floats(-1e4, 1e4), rows),
                                        min_size=1, max_size=8))
    def test_ground_depths_elements(self, k, g, pixels):
        us = [u for u, _ in pixels]
        vs = [v if kind == "at" else
              k.cy - k.fy * (g.alpha * (u - k.cx) / k.fx + g.gamma) / g.beta + v
              for u, (kind, v) in pixels]
        assume(all(math.isfinite(v) for v in vs))
        depth, valid = ground_depths(np.array(us), np.array(vs), k, g)
        assert depth.shape == valid.shape == (len(us),)
        for z, ok, u, v in zip(depth.tolist(), valid.tolist(), us, vs):
            want = ground_depth(u, v, k, g)
            assert (ok, z) == ((False, 0.0) if want is None else (True, want))


def reference_from_raw(alpha, beta, gamma, d) -> GroundPlane:
    """GroundPlane.from_raw as it was before unit_planes: no power-of-two
    prescale, so squaring the normal overflows past ~1e154 and underflows
    below ~1e-154."""
    norm = math.sqrt(alpha * alpha + beta * beta + gamma * gamma)
    if norm < 1e-300 or not math.isfinite(norm):
        raise DegeneratePlane("zero or non-finite normal")
    s = 1.0 / norm
    if d * s < 0:
        s = -s
    dn = d * s
    if dn < 1e-12:
        raise DegeneratePlane("camera origin lies on the plane (d = 0)")
    return GroundPlane(alpha * s, beta * s, gamma * s, dn)


def plane_bits(g: GroundPlane) -> list:
    return np.array(g.params()).view(np.int64).tolist()


def normal_square(v: float) -> bool:
    return v == 0 or sys.float_info.min <= v * v <= sys.float_info.max


# Components whose squares are normal floats (magnitudes 2^-511 to 2^511),
# mixed with any float at all.
moderate = st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True,
                                            exclude_max=True),
                     st.integers(-510, 511))
component = st.one_of(st.just(0.0), moderate, st.floats())
# Components a scale of 2^±1000 keeps normal.
scalable = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


class TestUnitPlanes:
    @given(component, component, component, st.one_of(moderate, st.floats()))
    def test_equals_reference_where_squares_are_normal(self, a, b, c, d):
        assume(all(normal_square(v) for v in (a, b, c))
               and a * a + b * b + c * c <= sys.float_info.max)
        # A d near the largest float can overflow once scaled with a normal
        # below 0.5, where the unscaled d / norm does not.
        _, e = math.frexp(max(abs(a), abs(b), abs(c)))
        assume(not math.isfinite(d) or e >= 0 or abs(d) < math.ldexp(1.0, 1024 + e))
        try:
            want = reference_from_raw(a, b, c, d)
        except DegeneratePlane as exc:
            with pytest.raises(DegeneratePlane, match=re.escape(str(exc))):
                GroundPlane.from_raw(a, b, c, d)
            return
        except ValueError:  # a d that is not finite, or overflows normalized
            with pytest.raises(DegeneratePlane, match="normalized d is not finite"):
                GroundPlane.from_raw(a, b, c, d)
            return
        assert plane_bits(GroundPlane.from_raw(a, b, c, d)) == plane_bits(want)

    @given(scalable, scalable, scalable, st.floats(1e-3, 1e3),
           st.integers(-1000, 1000))
    def test_power_of_two_scale_gives_the_same_bits(self, a, b, c, d, k):
        assume(a or b or c)
        scaled = [math.ldexp(v, k) for v in (a, b, c, d)]
        assert (plane_bits(GroundPlane.from_raw(*scaled))
                == plane_bits(GroundPlane.from_raw(a, b, c, d)))

    def test_normals_past_the_square_range(self):
        assert GroundPlane.from_raw(0, -1e200, 0, 6e200) == GroundPlane(0, -1, 0, 6)
        assert GroundPlane.from_raw(1.04e-156, 0, -9e-219, 1.32).alpha == 1.0

    @pytest.mark.parametrize("d", [math.inf, math.nan, 1e300])
    def test_d_not_finite_once_normalized_is_degenerate(self, d):
        with pytest.raises(DegeneratePlane, match="normalized d is not finite"):
            GroundPlane.from_raw(0.0, -1e-300, 0.0, d)

    def test_rows_are_independent(self):
        raw = [[0, -2, 0, 12], [0, 0, 0, 1], [2.0 ** -1000, 0, 0, -5 * 2.0 ** -1000],
               [0, -1, 0, 0], [math.nan, -1, 0, 6]]
        planes, ok = unit_planes(raw)
        assert ok.tolist() == [True, False, True, False, False]
        assert planes[[0, 2]].tolist() == [[0, -1, 0, 6], [-1, 0, 0, 5]]
        for row, plane, fine in zip(raw, planes, ok):
            one, one_ok = unit_planes(row)
            assert one_ok.tolist() == [fine]
            assert np.array_equal(one[0], plane, equal_nan=True)


class TestHomography:
    def test_identity_for_zero_offsets(self):
        h = ground_homography(K, 0.0, 0.0)
        assert np.allclose(h, np.eye(3), atol=1e-12)

    def test_matches_point_rotation(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            droll = rng.uniform(-0.2, 0.2)
            dpitch = rng.uniform(-0.2, 0.2)
            h = ground_homography(K, droll, dpitch)
            p = np.array([rng.uniform(-15, 15), rng.uniform(0, 8),
                          rng.uniform(20, 150)])
            p_rot = perturbation_rotation(droll, dpitch) @ p
            if p_rot[2] <= 0:
                continue
            direct, clean = project_points([p_rot, p], K)
            x, y, w = h @ [*clean, 1.0]
            assert direct == pytest.approx([x / w, y / w], abs=1e-7)
