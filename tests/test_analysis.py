"""Histogram, scatter-series, and overlap-coefficient tests, including the
depth-vs-attitude robustness ordering on the synthetic fleet."""

import numpy as np
import pytest

from gpk.analysis import (
    QUANTITIES,
    Histogram,
    ScatterSeries,
    attitude_histograms,
    depth_histogram,
    map_attitudes,
    overlap_coefficient,
    v_correlation_series,
)
from gpk.dataio import (
    CameraRig,
    FrameRecord,
    SceneConfig,
    label_table,
    synthesize_scene,
)
from gpk.errors import EmptyInput, QuantityMismatch
from gpk.geometry import (
    CameraAttitude,
    CameraIntrinsics,
    GroundPlane,
    attitude_to_plane,
    bottom_center,
    perturbation_rotation,
    plane_to_attitude,
)
from gpk.maps import build_global_denorm_map, refine_map
from reference import ground_depth, project


def perturbation_pairs(n, sigma, seed):
    rng = np.random.default_rng(seed)
    draws = np.clip(rng.normal(0, sigma, (n, 2)), -3 * sigma, 3 * sigma)
    return [tuple(row) for row in draws]


def dense_attitude_histograms(frames, bins, stride):
    """One unweighted sample per pixel of each frame's dense refined map."""
    samples = ([], [], [])
    for f in frames:
        k = f.rig.intrinsics
        h = max(int(round(2 * k.cy)) // stride, 1)
        w = max(int(round(2 * k.cx)) // stride, 1)
        refined, _ = refine_map(f.ground, f.objects.box3d, k.scaled(stride), h, w)
        for out, q in zip(samples, map_attitudes(refined.dense())):
            out.append(q.reshape(-1))
    return [Histogram.from_values(np.concatenate(s), bins) for s in samples]


def reference_ground_depths(frame):
    """Per-object reference: analytic ground depth at each projected
    bottom-center pixel, one scalar call at a time."""
    k = frame.rig.intrinsics
    out = []
    for obj in frame.objects:
        px = project(bottom_center(obj.box3d, frame.ground), k)
        z = None if px is None else ground_depth(*px, k, frame.ground)
        if z is not None:
            out.append(z)
    return out


def reference_v_correlation(frames, quantity, perturb=None):
    """Per-object reference for v_correlation_series: (frame_ids, v, values)."""
    fids, vs, vals = [], [], []
    for i, f in enumerate(frames):
        k = f.rig.intrinsics
        img_h = f.image_size[0]
        rot = None
        if perturb is not None:
            droll, dpitch = perturb[i]
            rot = perturbation_rotation(droll, dpitch)
        att = plane_to_attitude(f.ground)
        for obj in f.objects:
            p = bottom_center(obj.box3d, f.ground)
            if rot is not None:
                p = rot @ p
            px = project(p, k)
            if px is None or not (0.0 <= px[1] < img_h):
                continue
            if quantity == "depth":
                value = float(p[2])
            elif quantity == "roll":
                value = att.roll
            else:
                value = att.pitch
            fids.append(f.frame_id)
            vs.append(px[1])
            vals.append(value)
    return fids, np.array(vs), np.array(vals)


def edge_case_frame():
    """Level ground 6 m below the camera, with one box of each kind the
    analyses drop: behind the camera (projecting into the image rows),
    within 1e-12 of the horizon, meeting the ground behind the camera, and
    below the image rows."""
    k = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=464.0, cy=256.0)
    boxes = [  # h w l x y z rotation_y
        (1.5, 2.0, 4.0, 1.0, 5.25, 40.0, 0.0),
        (1.6, 2.0, 4.0, -3.0, 5.2, 25.0, 0.5),
        (1.5, 2.0, 4.0, 1.0, -1.75, -10.0, 0.0),
        (1.5, 2.0, 4.0, 2.0, 6e-12 - 0.75, 60.0, 0.0),
        (1.5, 2.0, 4.0, 0.0, -3.0, 30.0, 0.0),
        (1.5, 2.0, 4.0, 0.0, 5.25, 5.0, 0.0),
    ]
    objects = label_table(["Car"] * len(boxes),
                          [(0, 0, 0, 0, 0, 1, 1) + b for b in boxes])
    rig = CameraRig(k)
    return FrameRecord("000000", objects, rig, GroundPlane(0.0, -1.0, 0.0, 6.0),
                       (512, 928))


def assert_same_histogram(got, want):
    assert np.array_equal(got.edges, want.edges)
    assert np.array_equal(got.counts, want.counts)
    assert got.mean == want.mean


class TestArrayAnalysesEqualPerObjectReference:
    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_depth_histogram(self, seed):
        frames = synthesize_scene(SceneConfig(seed=seed))
        want = [d for f in frames for d in reference_ground_depths(f)]
        assert_same_histogram(depth_histogram(frames, 64),
                              Histogram.from_values(want, 64))

    @pytest.mark.parametrize("quantity", ["depth", "roll", "pitch"])
    @pytest.mark.parametrize("sigma", [None, 0.05, 0.3], ids=["clean", "0.05", "0.3"])
    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_v_correlation_series(self, seed, sigma, quantity):
        frames = synthesize_scene(SceneConfig(seed=seed))
        pairs = (None if sigma is None
                 else perturbation_pairs(len(frames), sigma, seed))
        got = v_correlation_series(frames, perturb=pairs)[quantity]
        fids, v, values = reference_v_correlation(frames, quantity, pairs)
        assert got.frame_ids == fids
        assert np.array_equal(got.v, v)
        assert np.array_equal(got.values, values)

    def test_dropped_objects(self):
        frame = edge_case_frame()
        depths = reference_ground_depths(frame)
        assert len(depths) == 3  # behind, horizon and sky boxes dropped
        assert_same_histogram(depth_histogram([frame], 8),
                              Histogram.from_values(depths, 8))
        for quantity in ("depth", "pitch"):
            got = v_correlation_series([frame])[quantity]
            fids, v, values = reference_v_correlation([frame], quantity)
            assert len(fids) == 4  # behind-camera and below-image boxes dropped
            assert got.frame_ids == fids
            assert np.array_equal(got.v, v)
            assert np.array_equal(got.values, values)


class TestHistogram:
    def test_counts_conserved(self):
        # The range is the samples' [min, max]: the extremes land in the
        # end bins, the maximum on the closed right edge.
        h = Histogram.from_values([1, 2, 3, 50, -10], bins=4)
        assert (h.edges[0], h.edges[-1]) == (-10.0, 50.0)
        assert h.counts.tolist() == [4, 0, 0, 1]

    def test_single_box_single_bin(self):
        h = Histogram.from_values([50.0], bins=10)
        assert h.counts[0] == 1 and h.counts.sum() == 1

    def test_degenerate_all_equal(self):
        h = Histogram.from_values([3.0, 3.0, 3.0], bins=8)
        assert h.counts.sum() == 3
        lo, hi = h.occupied_support()
        assert lo <= 3.0 <= hi

    def test_relative_support(self):
        h = Histogram.from_values(np.linspace(90, 110, 50), bins=10)
        assert h.relative_support() == pytest.approx(20.0 / 100.0, rel=1e-2)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            Histogram.from_values([], bins=4)

    def test_weights_count_repeated_values(self):
        rng = np.random.default_rng(3)
        v, n = rng.normal(size=40), rng.integers(1, 50, size=40)
        got = Histogram.from_values(v, 8, weights=n)
        want = Histogram.from_values(np.repeat(v, n), 8)
        assert np.array_equal(got.edges, want.edges)
        assert np.array_equal(got.counts, want.counts)
        assert got.mean == pytest.approx(want.mean, rel=1e-12)

    def test_csv_schema(self):
        h = Histogram.from_values([1.0, 2.0], bins=2)
        lines = h.to_csv().strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 3


class TestDepthHistogram:
    def test_depths_cover_configured_range(self):
        frames = synthesize_scene(SceneConfig(seed=0))
        h = depth_histogram(frames, bins=64)
        lo, hi = h.occupied_support()
        assert lo >= 0.0 and hi <= 210.0
        assert h.counts.sum() == sum(len(f.objects) for f in frames)

    def test_no_frames_raises(self):
        with pytest.raises(EmptyInput):
            depth_histogram([], bins=8)


class TestAttitudeHistograms:
    def test_jittered_fleet_support_bounded(self):
        # Attitude jitter of +-0.05 rad must give occupied pitch support
        # no wider than 0.1 rad plus two bin widths.
        cfg = SceneConfig(
            seed=3, n_frames=8, objects_per_frame=6,
            pitch_range=(0.125, 0.225), roll_range=(-0.05, 0.05),
        )
        _, pitch_hist, _ = attitude_histograms(synthesize_scene(cfg), bins=32)
        lo, hi = pitch_hist.occupied_support()
        bin_w = pitch_hist.edges[1] - pitch_hist.edges[0]
        assert hi - lo <= 0.1 + 2 * bin_w

    @pytest.mark.parametrize("stride", [1, 16])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_dense_per_pixel_reference(self, seed, stride):
        frames = synthesize_scene(SceneConfig(seed=seed, n_frames=3))
        got = attitude_histograms(frames, bins=64, stride=stride)
        want = dense_attitude_histograms(frames, 64, stride)
        for g, w in zip(got, want):
            assert np.array_equal(g.edges, w.edges)
            assert np.array_equal(g.counts, w.counts)
            assert g.mean == pytest.approx(w.mean, rel=1e-12)

    def test_map_attitudes_inverts_plane(self):
        att = CameraAttitude(roll=0.04, pitch=0.19, height=6.5)
        m = build_global_denorm_map(attitude_to_plane(att), 4, 5)
        roll, pitch, height = map_attitudes(m.data)
        assert np.allclose(roll, att.roll, atol=1e-12)
        assert np.allclose(pitch, att.pitch, atol=1e-12)
        assert np.allclose(height, att.height, atol=1e-12)

    def test_relative_support_ratio(self):
        frames = synthesize_scene(SceneConfig(seed=0))
        dh = depth_histogram(frames, bins=64)
        _, ph, _ = attitude_histograms(frames, bins=64)
        assert dh.relative_support() / ph.relative_support() >= 10.0


class TestScatterSeries:
    FRAMES = synthesize_scene(SceneConfig(seed=5, n_frames=6,
                                          objects_per_frame=12))

    def test_clean_depth_monotone_in_v(self):
        # One pitched camera over flat ground: sorting by row sorts by depth.
        frames = synthesize_scene(
            SceneConfig(seed=2, n_frames=1, objects_per_frame=25,
                        roll_range=(0.0, 0.0))
        )
        s = v_correlation_series(frames)["depth"]
        order = np.argsort(s.v)
        depths = s.values[order]
        assert all(a > b for a, b in zip(depths, depths[1:]))

    def test_zero_perturbation_identical(self):
        clean = v_correlation_series(self.FRAMES)
        pert = v_correlation_series(
            self.FRAMES, perturb=[(0.0, 0.0)] * len(self.FRAMES)
        )
        for q in QUANTITIES:
            assert np.array_equal(clean[q].v, pert[q].v)
            assert np.array_equal(clean[q].values, pert[q].values)
            assert (clean[q].condition, pert[q].condition) == (
                "clean", "perturbed")

    @pytest.mark.parametrize("sigma", [None, 0.3], ids=["clean", "0.3"])
    def test_one_call_gives_every_quantity_on_shared_rows(self, sigma):
        pairs = (None if sigma is None
                 else perturbation_pairs(len(self.FRAMES), sigma, 5))
        series = v_correlation_series(self.FRAMES, perturb=pairs)
        assert list(series) == list(QUANTITIES)
        depth = series["depth"]
        for q, s in series.items():
            assert (s.quantity, s.condition) == (q, depth.condition)
            assert s.frame_ids == depth.frame_ids
            assert np.array_equal(s.v, depth.v)
            assert s.values.shape == depth.v.shape

    def test_attitude_constant_per_frame(self):
        series = v_correlation_series(self.FRAMES)
        for quantity in ("roll", "pitch"):
            s = series[quantity]
            by_frame = {}
            for fid, val in zip(s.frame_ids, s.values):
                by_frame.setdefault(fid, set()).add(val)
            assert all(len(vals) == 1 for vals in by_frame.values())
            expected = {
                f.frame_id: getattr(plane_to_attitude(f.ground), quantity)
                for f in self.FRAMES
            }
            for fid, vals in by_frame.items():
                assert vals == {expected[fid]}

    def test_perturb_length_mismatch(self):
        with pytest.raises(ValueError):
            v_correlation_series(self.FRAMES, perturb=[(0.0, 0.0)])

    def test_csv_schema(self):
        s = v_correlation_series(self.FRAMES)["depth"]
        lines = s.to_csv().strip().split("\n")
        assert lines[0] == "frame_id,v,value,condition"
        assert lines[1].endswith(",clean")


class TestOverlap:
    def make_series(self, v, values, quantity="depth"):
        return ScatterSeries(quantity, "x", ["f"] * len(v),
                             np.asarray(v, float), np.asarray(values, float))

    def test_identical_series_is_one(self):
        s = self.make_series([1, 2, 3, 4], [10, 20, 30, 40])
        assert overlap_coefficient(s, s) == pytest.approx(1.0)

    def test_disjoint_support_is_zero(self):
        a = self.make_series([0, 1], [0.0, 1.0])
        b = self.make_series([100, 101], [50.0, 51.0])
        assert overlap_coefficient(a, b) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = self.make_series(rng.random(50), rng.random(50))
        b = self.make_series(rng.random(50) + 0.2, rng.random(50))
        assert overlap_coefficient(a, b) == pytest.approx(
            overlap_coefficient(b, a), abs=1e-15
        )

    def test_bounded(self):
        rng = np.random.default_rng(1)
        a = self.make_series(rng.random(30), rng.random(30))
        b = self.make_series(rng.random(40), rng.random(40))
        assert 0.0 <= overlap_coefficient(a, b) <= 1.0

    def test_quantity_mismatch(self):
        a = self.make_series([1], [1], "depth")
        b = self.make_series([1], [1], "pitch")
        with pytest.raises(QuantityMismatch):
            overlap_coefficient(a, b)

    def test_attitude_over_depth_ordering(self):
        # The per-pixel depth representation degrades much faster than the
        # plane-equation representation under pose error: 5 seeds here,
        # the full 20-seed sweep runs in the acceptance suite.
        for seed in range(5):
            frames = synthesize_scene(SceneConfig(seed=seed))
            pairs = perturbation_pairs(len(frames), 0.3, seed + 10**6)
            clean = v_correlation_series(frames)
            pert = v_correlation_series(frames, perturb=pairs)
            overlaps = {q: overlap_coefficient(clean[q], pert[q])
                        for q in ("depth", "roll", "pitch")}
            assert overlaps["pitch"] > overlaps["depth"]
            assert overlaps["roll"] > overlaps["depth"]
