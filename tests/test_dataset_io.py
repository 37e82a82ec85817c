"""Label/calibration/ground-plane file round-trips and the synthetic
scene generator's geometric guarantees."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gpk.dataio import (
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
from gpk.geometry import bottom_center, plane_to_attitude, project_point

LABEL_LINE = (
    "Car 0.0 0 -1.57 300.5 200.25 420.0 260.75 "
    "1.5 1.8 4.2 2.0 4.5 55.0 0.25\n"
)


class TestLabels:
    def test_parse_fields(self):
        (obj,) = parse_labels(LABEL_LINE)
        assert obj.category == "Car"
        assert obj.occluded == 0
        assert obj.box2d == (300.5, 200.25, 420.0, 260.75)
        b = obj.box3d
        assert (b.h, b.w, b.l) == (1.5, 1.8, 4.2)
        assert (b.x, b.y, b.z, b.theta) == (2.0, 4.5, 55.0, 0.25)

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
        assert parse_labels("") == []
        assert serialize_labels([]) == ""


class TestCalibration:
    def test_round_trip(self):
        frames = synthesize_scene(SceneConfig(seed=1, n_frames=1,
                                              objects_per_frame=4))
        text = serialize_calibration(frames[0].rig)
        rig = parse_calibration(text)
        assert serialize_calibration(rig) == text
        assert rig.intrinsics == frames[0].rig.intrinsics
        assert np.array_equal(rig.extrinsics.rotation,
                              frames[0].rig.extrinsics.rotation)

    def test_missing_row(self):
        with pytest.raises(ParseError):
            parse_calibration("P2: " + " ".join(["1"] * 12))

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

    @pytest.mark.parametrize("text", ["0 0 0 5", "0 -1 0 0", "nan -1 0 6"])
    def test_degenerate_plane_is_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_ground_plane(text)


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
    lines = []
    for key, base in (("P2", pinhole), ("Tr_world_to_cam", identity),
                      ("P0", pinhole)):
        if draw(st.booleans()) and key == "P0":
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
            k = f.rig.intrinsics
            for o in f.objects:
                px = project_point(bottom_center(o.box3d, f.ground), k)
                assert 0 <= px.u <= cfg.image_width
                assert 0 <= px.v <= cfg.image_height

    def test_attitudes_within_config_ranges(self):
        cfg = SceneConfig(seed=7, n_frames=10, objects_per_frame=3)
        for f in synthesize_scene(cfg):
            att = plane_to_attitude(f.ground)
            assert cfg.roll_range[0] <= att.roll <= cfg.roll_range[1]
            assert cfg.pitch_range[0] <= att.pitch <= cfg.pitch_range[1]
            assert cfg.height_range[0] <= att.height <= cfg.height_range[1]

    def test_extrinsics_reproduce_ground_plane(self):
        # The stored world-to-camera transform must map the world plane
        # y_w = 0 (level ground) onto the frame's camera-space plane.
        for f in synthesize_scene(self.CFG):
            r, t = f.rig.extrinsics.rotation, f.rig.extrinsics.translation
            n_cam = r @ np.array([0.0, -1.0, 0.0])  # world up is -y
            assert np.allclose(n_cam, f.ground.normal, atol=1e-12)
            # Camera origin in world coords sits `height` above the plane.
            cam_in_world = -r.T @ t
            assert -cam_in_world[1] == pytest.approx(f.ground.d, abs=1e-9)

    def test_box2d_contains_bottom_center_projection(self):
        for f in synthesize_scene(self.CFG):
            k = f.rig.intrinsics
            for o in f.objects:
                px = project_point(bottom_center(o.box3d, f.ground), k)
                left, top, right, bottom = o.box2d
                assert left - 1e-6 <= px.u <= right + 1e-6
                assert top - 1e-6 <= px.v <= bottom + 1e-6

    def test_child_seeds_make_frames_order_independent(self):
        # A fleet with more frames reproduces the shorter fleet's prefix.
        short = synthesize_scene(SceneConfig(seed=42, n_frames=2,
                                             objects_per_frame=8))
        long = synthesize_scene(SceneConfig(seed=42, n_frames=4,
                                            objects_per_frame=8))
        for fs, fl in zip(short, long):
            assert serialize_labels(fs.objects) == serialize_labels(fl.objects)
