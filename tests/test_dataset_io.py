"""Label/calibration/ground-plane file round-trips and the synthetic
scene generator's geometric guarantees."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gpk.dataio import (
    LABEL_DTYPE,
    SceneConfig,
    parse_calibration,
    parse_ground_plane,
    parse_labels,
    serialize_calibration,
    serialize_ground_plane,
    serialize_labels,
    synthesize_scene,
)
from gpk.errors import ConfigError, ParseError
from gpk.geometry import (
    CameraAttitude,
    CameraIntrinsics,
    GroundPlane,
    attitude_to_plane,
    bottom_center,
    bottom_centers,
    plane_to_attitude,
    project_points,
)

LABEL_LINE = (
    "Car 0.0 0 -1.57 300.5 200.25 420.0 260.75 "
    "1.5 1.8 4.2 2.0 4.5 55.0 0.25\n"
)


class TestLabels:
    def test_parse_fields(self):
        (obj,) = parse_labels(LABEL_LINE)
        assert obj.category == "Car"
        assert obj.occluded == 0
        assert tuple(obj.box2d) == (300.5, 200.25, 420.0, 260.75)
        b = obj.box3d
        assert (b.h, b.w, b.l) == (1.5, 1.8, 4.2)
        assert (b.x, b.y, b.z, b.theta) == (2.0, 4.5, 55.0, 0.25)

    def test_columns(self):
        objects = parse_labels(LABEL_LINE + LABEL_LINE.replace("Car", "Van"))
        assert objects.category.tolist() == ["Car", "Van"]
        assert objects.box3d.z.tolist() == [55.0, 55.0]
        assert objects.box2d.shape == (2, 4)

    def test_round_trip_bit_exact(self):
        objects = parse_labels(LABEL_LINE)
        text = serialize_labels(objects)
        assert serialize_labels(parse_labels(text)) == text

    def test_round_trip_awkward_floats(self):
        # Values with no short decimal representation must survive exactly.
        line = ("Car 0.1 1 -0.30000000000000004 1.1 2.2 3.3 4.4 "
                "1.5 1.6 4.7 0.1 2.3000000000000003 99.9 0.7853981633974483\n")
        objects = parse_labels(line)
        text = serialize_labels(objects)
        assert parse_labels(text)[0].box3d == objects[0].box3d

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_labels("Car 1 2 3\n")
        assert err.value.line == 1

    def test_non_numeric_field(self):
        with pytest.raises(ParseError):
            parse_labels(LABEL_LINE.replace("55.0", "abc"))

    @pytest.mark.parametrize("field", ["x", "y", "z", "h"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_with_line(self, field, value):
        index = {"h": 8, "x": 11, "y": 12, "z": 13}[field]
        fields = LABEL_LINE.split()
        fields[index] = value
        with pytest.raises(ParseError) as err:
            parse_labels(LABEL_LINE + " ".join(fields) + "\n")
        assert err.value.line == 2

    def test_non_integer_occlusion(self):
        with pytest.raises(ParseError):
            parse_labels(LABEL_LINE.replace(" 0 ", " 0.5 ", 1))

    def test_blank_lines_skipped(self):
        assert len(parse_labels("\n" + LABEL_LINE + "\n\n")) == 1

    def test_empty_text_gives_no_objects(self):
        for text in ("", "\n \n\t\n"):
            objects = parse_labels(text)
            assert len(objects) == 0 and objects.dtype == LABEL_DTYPE
            assert serialize_labels(objects) == ""


# A KITTI-layout calibration file, as DAIR-V2X-I and Rope3D ship them. P2's
# 4th column (a stereo offset) is not read.
KITTI_CALIB = """\
P0: 2186.4 0 968.3 0 0 2332.3 542.6 0 0 0 1 0
P1: 2186.4 0 968.3 -386.1 0 2332.3 542.6 0 0 0 1 0
P2: 2186.359 0 968.276 44.857 0 2332.316 542.554 0.216 0 0 1 0.002745
P3: 2186.4 0 968.3 -337.6 0 2332.3 542.6 2.3 0 0 1 0.0049
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 0.0066 -0.9999 -0.0053 -0.0164 -0.1679 0.0041 -0.9858 6.4613 0.9858 0.0073 -0.1679 1.2437
Tr_imu_to_velo: 1 0 0 -0.81 0 1 0 0.32 0 0 1 -0.80
"""
P2_ONLY = "P2: 1000 0 464 0 0 1000 256 0 0 0 1 0\n"
# What `synth --seed 2 --frames 1` wrote for frame 0 before calibration
# files became the P2 row alone.
WITH_TR_WORLD_TO_CAM = P2_ONLY + (
    "Tr_world_to_cam: 0.99998863426662266 0.0046982266936999749 "
    "-0.00081117415484013313 0.029665663924507542 -0.0047677392519805024 "
    "0.98540902650169526 -0.17013617825555613 6.2220950401509558 0 "
    "0.17013811199997445 0.98542022652525463 1.0742904462463514\n")


class TestCalibration:
    def test_round_trip(self):
        frames = synthesize_scene(SceneConfig(seed=1, n_frames=1,
                                              objects_per_frame=4))
        text = serialize_calibration(frames[0].rig)
        rig = parse_calibration(text)
        assert serialize_calibration(rig) == text
        assert rig.intrinsics == frames[0].rig.intrinsics

    def test_kitti_layout_reads_p2(self):
        rig = parse_calibration(KITTI_CALIB)
        assert rig.intrinsics == CameraIntrinsics(
            fx=2186.359, fy=2332.316, cx=968.276, cy=542.554)

    def test_p2_only(self):
        rig = parse_calibration(P2_ONLY)
        assert rig.intrinsics == CameraIntrinsics(1000.0, 1000.0, 464.0, 256.0)
        assert serialize_calibration(rig) == P2_ONLY

    def test_tr_world_to_cam_row_is_skipped(self):
        assert parse_calibration(WITH_TR_WORLD_TO_CAM) == parse_calibration(P2_ONLY)

    def test_missing_row(self):
        with pytest.raises(ParseError, match="missing P2"):
            parse_calibration(KITTI_CALIB.replace("P2:", "P4:"))

    def test_line_without_key_names_it(self):
        with pytest.raises(ParseError) as err:
            parse_calibration(P2_ONLY + "\nR0_rect 1 0 0 0 1 0 0 0 1\n")
        assert err.value.line == 3

    def test_skew_rejected(self):
        p2 = [1000, 5, 464, 0, 0, 1000, 256, 0, 0, 0, 1, 0]
        tr = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]
        text = ("P2: " + " ".join(map(str, p2)) + "\n"
                "Tr_world_to_cam: " + " ".join(map(str, tr)) + "\n")
        with pytest.raises(ParseError):
            parse_calibration(text)

    def test_bad_value_count(self):
        with pytest.raises(ParseError):
            parse_calibration("P2: 1 2 3\n")
        with pytest.raises(ParseError) as err:
            parse_calibration(KITTI_CALIB.replace(" 0.002745", ""))
        assert err.value.line == 3


class TestGroundPlaneFile:
    def test_round_trip(self):
        g = parse_ground_plane("0.01 -0.99 -0.17 6.25")
        text = serialize_ground_plane(g)
        assert serialize_ground_plane(parse_ground_plane(text)) == text

    def test_normalized_on_parse(self):
        g = parse_ground_plane("0 -2 0 12")
        assert (g.beta, g.d) == (-1.0, 6.0)

    def test_wrong_count(self):
        with pytest.raises(ParseError):
            parse_ground_plane("1 2 3")

    def test_synthetic_planes_parse_back_bit_exactly(self):
        # Seed chosen because renormalizing the unit normals of its frames
        # 6, 8, 13 and 16 changes their last digits.
        for frame in synthesize_scene(SceneConfig(seed=579779683)):
            text = serialize_ground_plane(frame.ground)
            assert parse_ground_plane(text) == frame.ground, frame.frame_id
            assert serialize_ground_plane(parse_ground_plane(text)) == text

    @pytest.mark.parametrize("text", ["0 0 0 5", "0 -1 0 0", "nan -1 0 6",
                                      "0 -1e-300 0 1e300"])
    def test_degenerate_plane_is_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_ground_plane(text)

    @pytest.mark.parametrize("scale", ["e200", "e-200"])
    def test_plane_at_any_scale_normalizes(self, scale):
        # Squaring a normal of 1e200 overflows and one of 1e-200 underflows.
        g = parse_ground_plane(f"0 -1{scale} 0 6{scale}")
        assert g == GroundPlane(0.0, -1.0, 0.0, 6.0)


# Tokens that are mostly numbers, some of them non-finite, out of range or
# not numbers at all, so that generated files often get past the tokenizer.
number = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "-0", "1e200", "0x1", "1_0", "x"]),
)
space = st.sampled_from([" ", "  ", "\t"])


@st.composite
def label_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.sampled_from([14, 15, 15, 15, 16]))
        fields = [draw(st.sampled_from(["Car", "Van", "0.5"]))]
        fields += draw(st.lists(number, min_size=n - 1, max_size=n - 1))
        lines.append(draw(space).join(fields))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@st.composite
def calibration_texts(draw):
    pinhole = ["1000", "0", "464", "0", "0", "1000", "256", "0", "0", "0", "1", "0"]
    identity = ["1", "0", "0", "0", "0", "1", "0", "0", "0", "0", "1", "0"]
    rect = ["1", "0", "0", "0", "1", "0", "0", "0", "1"]
    lines = []
    for key, base in (("P2", pinhole), ("Tr_world_to_cam", identity),
                      ("P0", pinhole), ("R0_rect", rect),
                      ("Tr_velo_to_cam", identity)):
        if key != "P2" and draw(st.booleans()):
            continue
        row = [draw(st.one_of(st.just(v), number)) if draw(st.booleans()) else v
               for v in base]
        lines.append(f"{key}:" + draw(space) + " ".join(row))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def assert_error_or_fixed_point(parse, serialize, text):
    """`text` raises ParseError, or parses to an object whose serialized
    text parses back to the same serialized text."""
    try:
        parsed = parse(text)
    except ParseError:
        return
    once = serialize(parsed)
    assert serialize(parse(once)) == once


class TestParserProperties:
    @given(st.one_of(st.text(), label_texts()))
    def test_labels(self, text):
        assert_error_or_fixed_point(parse_labels, serialize_labels, text)

    @given(st.one_of(st.text(), calibration_texts()))
    def test_calibration(self, text):
        assert_error_or_fixed_point(parse_calibration, serialize_calibration, text)

    @given(st.one_of(st.text(), st.lists(number, min_size=3, max_size=5)
                     .flatmap(lambda t: space.map(lambda s: s.join(t)))))
    @example("1e200 0 0 1")
    def test_ground_plane(self, text):
        assert_error_or_fixed_point(parse_ground_plane, serialize_ground_plane,
                                    text)


# The per-line parser and serializer that label files used before a frame's
# objects became one table, with the per-object types they built;
# parse_labels and serialize_labels must match them value for value and
# error for error.
@dataclass(frozen=True)
class BBox3D:
    """7-DoF box: center (x, y, z), dimensions (l, w, h), yaw theta."""

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    theta: float

    def __post_init__(self):
        # h = 0 is tolerated as a degenerate flat box (bottom == center).
        if self.l <= 0 or self.w <= 0 or self.h < 0:
            raise ValueError("box dimensions must be positive")
        if not (-math.pi <= self.theta < math.pi):
            raise ValueError("theta must lie in [-pi, pi)")

    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class LabeledObject:
    category: str
    truncated: float
    occluded: int
    alpha: float
    box2d: tuple  # (left, top, right, bottom) pixels
    box3d: BBox3D


def reference_parse_labels(text):
    objects = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 15:
            raise ParseError(f"expected 15 fields, got {len(fields)}", lineno)
        category = fields[0]
        try:
            vals = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if not all(math.isfinite(v) for v in vals):
            raise ParseError("numeric fields must be finite", lineno)
        trunc, occ, alpha = vals[0], vals[1], vals[2]
        l2d, t2d, r2d, b2d = vals[3:7]
        h3d, w3d, l3d = vals[7:10]
        x, y, z = vals[10:13]
        ry = vals[13]
        if occ != int(occ):
            raise ParseError("occluded must be an integer", lineno)
        try:
            box3d = BBox3D(x=x, y=y, z=z, l=l3d, w=w3d, h=h3d, theta=ry)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        objects.append(LabeledObject(category=category, truncated=trunc,
                                     occluded=int(occ), alpha=alpha,
                                     box2d=(l2d, t2d, r2d, b2d), box3d=box3d))
    return objects


def reference_serialize_labels(objects):
    def fmt(x):
        return format(float(x), ".17g")

    lines = []
    for o in objects:
        b = o.box3d
        fields = (
            [o.category, fmt(o.truncated), str(o.occluded), fmt(o.alpha)]
            + [fmt(v) for v in o.box2d]
            + [fmt(b.h), fmt(b.w), fmt(b.l)]
            + [fmt(b.x), fmt(b.y), fmt(b.z), fmt(b.theta)]
        )
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


def assert_table_equals_reference(table, objects):
    """The label table holds the reference objects' values, field by field
    and in the file's text."""
    assert table.category.tolist() == [o.category for o in objects]
    b = table.box3d
    got = np.column_stack([table.truncated, table.occluded, table.alpha,
                           table.box2d, b.h, b.w, b.l, b.x, b.y, b.z, b.theta])
    want = [[o.truncated, o.occluded, o.alpha, *o.box2d, o.box3d.h, o.box3d.w,
             o.box3d.l, o.box3d.x, o.box3d.y, o.box3d.z, o.box3d.theta]
            for o in objects]
    assert got.tolist() == want
    assert serialize_labels(table) == reference_serialize_labels(objects)


def assert_parse_equals_reference(text):
    """parse_labels(text) gives the reference parser's values, or the same
    ParseError reason on the same line. Returns the reference's result."""
    try:
        want = reference_parse_labels(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_labels(text)
        assert (err.value.reason, err.value.line) == (exc.reason, exc.line)
        return exc
    assert_table_equals_reference(parse_labels(text), want)
    return want


def label_line(**fields):
    """LABEL_LINE with fields replaced by index (f1=..., f14=...); `drop`
    removes the last field."""
    tokens = LABEL_LINE.split()
    for key, value in fields.items():
        if key == "drop":
            tokens = tokens[:-1]
        else:
            tokens[int(key[1:])] = value
    return " ".join(tokens) + "\n"


# One fault of each kind a label line can have, in the order a line is checked.
FAULTY_LINES = {
    "count": (label_line(drop=True), "expected 15 fields, got 14"),
    "number": (label_line(f13="0x10"),
               "could not convert string to float: '0x10'"),
    "finite": (label_line(f13="nan"), "numeric fields must be finite"),
    "occluded": (label_line(f2="0.5"), "occluded must be an integer"),
    "dimensions": (label_line(f10="-4.2"), "box dimensions must be positive"),
    "theta": (label_line(f14="3.5"), "theta must lie in [-pi, pi)"),
}


class TestLabelsEqualReferenceParser:
    @given(st.one_of(st.text(), label_texts()))
    def test_generated_texts(self, text):
        assert_parse_equals_reference(text)

    @pytest.mark.parametrize("first,second", [
        ("count", "theta"), ("number", "finite"), ("occluded", "dimensions"),
        ("dimensions", "number"), ("finite", "count"), ("theta", "occluded"),
    ])
    @pytest.mark.parametrize("order", ["as-listed", "swapped"])
    def test_earliest_bad_line_wins(self, first, second, order):
        if order == "swapped":
            first, second = second, first
        (line1, reason), (line2, _) = FAULTY_LINES[first], FAULTY_LINES[second]
        exc = assert_parse_equals_reference(LABEL_LINE + line1 + "\n" + line2)
        assert (exc.reason, exc.line) == (reason, 2)

    @pytest.mark.parametrize("token,reason", [
        ("1_000", None),
        ("infinity", "numeric fields must be finite"),
        ("0x10", "could not convert string to float: '0x10'"),
        ("nan", "numeric fields must be finite"),
        ("١٢", None),
    ])
    def test_float_spellings(self, token, reason):
        got = assert_parse_equals_reference(label_line(f13=token))
        if reason is None:
            assert got[0].box3d.z == float(token)
        else:
            assert (got.reason, got.line) == (reason, 1)

    def test_blank_lines_only(self):
        assert assert_parse_equals_reference(" \n\n\t \n") == []


class TestSceneConfig:
    def test_defaults_valid(self):
        cfg = SceneConfig()
        assert cfg.intrinsics().cx == cfg.image_width / 2.0

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            SceneConfig(pitch_range=(0.2, 0.1))

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ConfigError):
            SceneConfig(n_frames=0)

    @pytest.mark.parametrize("field,value", [
        ("objects_per_frame", 4.5), ("n_frames", 2.5), ("image_height", 300.5),
        ("image_width", "928"), ("seed", -3), ("seed", 1.0),
        ("focal", float("nan")), ("focal", float("inf")), ("focal", 0.0),
        ("edge_margin", "abc"), ("edge_margin", float("inf")),
        ("depth_range", (0, 0)), ("depth_range", (-5.0, 10.0)),
        ("depth_range", (10.0, float("inf"))), ("pitch_range", ("abc", 0.2)),
    ])
    def test_invalid_value_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SceneConfig(**{field: value})

    @pytest.mark.parametrize("h,w", [(8, 8), (32, 928), (512, 32)])
    def test_image_must_exceed_edge_margins(self, h, w):
        with pytest.raises(ConfigError, match="edge_margin"):
            SceneConfig(image_height=h, image_width=w)


class TestSynthesis:
    CFG = SceneConfig(seed=42, n_frames=4, objects_per_frame=8)

    def test_deterministic(self):
        a = synthesize_scene(self.CFG)
        b = synthesize_scene(self.CFG)
        for fa, fb in zip(a, b):
            assert serialize_labels(fa.objects) == serialize_labels(fb.objects)
            assert np.array_equal(fa.ground.params(), fb.ground.params())

    def test_frame_count_and_ids(self):
        frames = synthesize_scene(self.CFG)
        assert [f.frame_id for f in frames] == [f"{i:06d}" for i in range(4)]
        assert all(len(f.objects) == 8 for f in frames)

    def test_bottom_centers_on_plane(self):
        for f in synthesize_scene(self.CFG):
            for o in f.objects:
                p = bottom_center(o.box3d, f.ground)
                assert abs(f.ground.signed_distance(p)) < 1e-9

    def test_projections_inside_image(self):
        cfg = self.CFG
        for f in synthesize_scene(cfg):
            u, v = project_points(bottom_centers(f.objects.box3d, f.ground),
                                  f.rig.intrinsics).T
            assert ((0 <= u) & (u <= cfg.image_width)).all()
            assert ((0 <= v) & (v <= cfg.image_height)).all()

    def test_attitudes_within_config_ranges(self):
        cfg = SceneConfig(seed=7, n_frames=10, objects_per_frame=3)
        for f in synthesize_scene(cfg):
            att = plane_to_attitude(f.ground)
            assert cfg.roll_range[0] <= att.roll <= cfg.roll_range[1]
            assert cfg.pitch_range[0] <= att.pitch <= cfg.pitch_range[1]
            assert cfg.height_range[0] <= att.height <= cfg.height_range[1]

    def test_box2d_contains_bottom_center_projection(self):
        for f in synthesize_scene(self.CFG):
            u, v = project_points(bottom_centers(f.objects.box3d, f.ground),
                                  f.rig.intrinsics).T
            left, top, right, bottom = f.objects.box2d.T
            assert ((left - 1e-6 <= u) & (u <= right + 1e-6)).all()
            assert ((top - 1e-6 <= v) & (v <= bottom + 1e-6)).all()

    def test_child_seeds_make_frames_order_independent(self):
        # A fleet with more frames reproduces the shorter fleet's prefix.
        short = synthesize_scene(SceneConfig(seed=42, n_frames=2,
                                             objects_per_frame=8))
        long = synthesize_scene(SceneConfig(seed=42, n_frames=4,
                                            objects_per_frame=8))
        for fs, fl in zip(short, long):
            assert serialize_labels(fs.objects) == serialize_labels(fl.objects)


# The per-object rejection sampler that synthesis used before it drew each
# frame's objects from one block of draws; the array sampler must reproduce
# its random stream, its boxes and its errors exactly.
_REF_CORNER_SIGNS = np.array(list(itertools.product((-0.5, 0.5), repeat=3)))


def _reference_sample_box(rng, cfg, k, g, rejected):
    h_img, w_img = cfg.image_height, cfg.image_width
    m = cfg.edge_margin
    for _ in range(1000):
        z = rng.uniform(*cfg.depth_range)
        u = rng.uniform(m, w_img - m)
        x = (u - k.cx) * z / k.fx
        if abs(g.beta) < 1e-9:
            raise ConfigError("vertical ground plane in synthetic scene")
        y = -(g.alpha * x + g.gamma * z + g.d) / g.beta
        v = k.fy * y / z + k.cy
        if not (m <= v <= h_img - m):
            continue
        bottom = np.array([x, y, z])
        length = rng.uniform(3.8, 4.6)
        width = rng.uniform(1.6, 2.0)
        height = rng.uniform(1.4, 1.7)
        theta = rng.uniform(-math.pi, math.pi)
        center = bottom + 0.5 * height * g.normal
        box = BBox3D(
            x=center[0], y=center[1], z=center[2],
            l=length, w=width, h=height, theta=theta,
        )
        box2d = _reference_project_box2d(box, g, k, h_img, w_img)
        if box2d is None:
            rejected.append(box)
            continue
        return box, box2d
    raise ConfigError("could not place an object inside the image")


def _reference_project_box2d(box, g, k, h_img, w_img):
    up = g.normal
    fwd = np.array([0.0, 0.0, 1.0]) - up[2] * up
    fwd /= np.linalg.norm(fwd)
    right = np.cross(up, fwd)
    heading = math.cos(box.theta) * fwd + math.sin(box.theta) * right
    side = np.cross(up, heading)
    sl, sw, sh = _REF_CORNER_SIGNS.T[:, :, None]
    corners = (box.center() + (sl * box.l) * heading + (sw * box.w) * side
               + (sh * box.h) * up)
    if (corners[:, 2] <= 0).any():
        return None
    us, vs = project_points(corners, k).T
    left = max(us.min(), 0.0)
    right2d = min(us.max(), float(w_img))
    top = max(vs.min(), 0.0)
    bottom2d = min(vs.max(), float(h_img))
    if left >= right2d or top >= bottom2d:
        return None
    return (left, top, right2d, bottom2d)


def reference_fleet(cfg, rejected):
    """(ground plane, [(BBox3D, box2d)]) per frame, one object at a time;
    every box whose 2D box was empty is appended to `rejected`."""
    k = cfg.intrinsics()
    fleet = []
    for i in range(cfg.n_frames):
        rng = np.random.default_rng([cfg.seed, i])
        att = CameraAttitude(
            roll=rng.uniform(*cfg.roll_range),
            pitch=rng.uniform(*cfg.pitch_range),
            height=rng.uniform(*cfg.height_range),
        )
        g = attitude_to_plane(att)
        fleet.append((g, [_reference_sample_box(rng, cfg, k, g, rejected)
                          for _ in range(cfg.objects_per_frame)]))
    return fleet


def assert_sampler_equals_reference(cfg):
    """synthesize_scene(cfg) equals the reference fleet, or both raise the
    same ConfigError. Returns the number of empty 2D boxes the reference
    retried."""
    rejected, expected, got = [], None, None
    try:
        expected = reference_fleet(cfg, rejected)
    except ConfigError as exc:
        expected = str(exc)
    try:
        got = synthesize_scene(cfg)
    except ConfigError as exc:
        got = str(exc)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return len(rejected)
    assert len(got) == len(expected)
    for frame, (g, objects) in zip(got, expected):
        assert frame.ground == g
        assert_table_equals_reference(frame.objects, [
            LabeledObject("Car", 0.0, 0, 0.0, b2, b) for b, b2 in objects])
    return len(rejected)


class TestArraySamplerEqualsReference:
    @pytest.mark.parametrize("seed", [0, 3, 7, 11, 1009])
    @pytest.mark.parametrize("shape", [{}, {"n_frames": 4, "objects_per_frame": 400}],
                             ids=["default", "4x400"])
    def test_fleet(self, seed, shape):
        assert_sampler_equals_reference(SceneConfig(seed=seed, **shape))

    def test_near_boxes(self):
        # Boxes this close can reach behind the camera, so some attempts
        # that pass the row test are retried.
        rejected = sum(assert_sampler_equals_reference(
            SceneConfig(seed=3, n_frames=3, **cfg)) for cfg in (
                {"focal": 100.0, "depth_range": (0.5, 4.0)},
                {"focal": 150.0, "depth_range": (0.5, 30.0),
                 "objects_per_frame": 100}))
        assert rejected >= 1

    @pytest.mark.parametrize("pitch,message", [
        (-0.25, "could not place an object"),
        (math.pi / 2 - 1e-11, "vertical ground plane"),
    ], ids=["camera-looks-up", "vertical-plane"])
    def test_same_config_error(self, pitch, message):
        cfg = SceneConfig(seed=1, n_frames=2, pitch_range=(pitch, pitch))
        with pytest.raises(ConfigError, match=message):
            synthesize_scene(cfg)
        assert_sampler_equals_reference(cfg)

    @given(st.builds(
        SceneConfig,
        n_frames=st.integers(1, 2),
        objects_per_frame=st.integers(1, 60),
        image_height=st.integers(40, 600),
        image_width=st.integers(40, 1000),
        focal=st.floats(50.0, 2000.0),
        depth_range=st.tuples(st.floats(0.5, 60.0), st.floats(0.0, 200.0))
        .map(lambda t: (t[0], t[0] + t[1])),
        seed=st.integers(0, 2**32),
    ))
    def test_small_random_configs(self, cfg):
        assert_sampler_equals_reference(cfg)
