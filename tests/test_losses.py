"""Loss-function tests: hand-computed values, a brute-force integer-grid
area oracle for GIoU, and central-finite-difference gradient checks."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from gpk.dataio import SceneConfig, label_table, synthesize_scene
from gpk.errors import DomainError
from gpk.losses import (
    COMPONENT_NAMES,
    WEIGHTS,
    angle_loss,
    denorm_l1,
    focal_loss,
    frame_loss_components,
    giou_loss_2d,
    l1_loss,
    laplace_depth_loss,
    total_loss,
)


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def grid_area_oracle(boxes, lo=-20, hi=20):
    """Pixel-count areas of intersection/union/hull for integer boxes."""
    grids = []
    for left, top, right, bottom in boxes:
        g = np.zeros((hi - lo, hi - lo), dtype=bool)
        g[top - lo : bottom - lo, left - lo : right - lo] = True
        grids.append(g)
    a, b = grids
    inter = (a & b).sum()
    union = (a | b).sum()
    hull_l = min(boxes[0][0], boxes[1][0])
    hull_t = min(boxes[0][1], boxes[1][1])
    hull_r = max(boxes[0][2], boxes[1][2])
    hull_b = max(boxes[0][3], boxes[1][3])
    hull = (hull_r - hull_l) * (hull_b - hull_t)
    return inter, union, hull


class TestDenormL1:
    def test_mean_over_plane_params(self):
        got = denorm_l1([0.0, -1.0, 0.0, 6.0], [0.0, -0.6, 0.8, 5.0])
        assert got == pytest.approx((0.4 + 0.8 + 1.0) / 4)


class TestFocal:
    def test_probability_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                focal_loss(bad, 1)

    def test_target_domain(self):
        with pytest.raises(DomainError):
            focal_loss(0.5, 2)

    def test_reduces_to_weighted_ce_at_gamma_zero(self):
        loss, _ = focal_loss(0.7, 1, gamma=0.0, alpha=0.25)
        assert loss == pytest.approx(-0.25 * math.log(0.7), abs=1e-15)

    def test_confident_correct_prediction_downweighted(self):
        easy, _ = focal_loss(0.99, 1)
        hard, _ = focal_loss(0.5, 1)
        assert easy < hard

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            p = rng.uniform(0.02, 0.98)
            target = int(rng.integers(0, 2))
            _, grad = focal_loss(p, target)
            num = central_diff(lambda x: focal_loss(x, target)[0], p)
            assert rel_err(grad, num) < 1e-4


class TestL1AndAngle:
    def test_l1_values_and_gradient(self):
        loss, grad = l1_loss(3.0, 5.5)
        assert (loss, grad) == (2.5, -1.0)
        assert l1_loss(5.5, 5.5) == (0.0, 0.0)

    def test_l1_gradient_finite_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pred, target = rng.uniform(-10, 10, 2)
            if abs(pred - target) < 1e-3:
                continue
            _, grad = l1_loss(pred, target)
            num = central_diff(lambda x: l1_loss(x, target)[0], pred)
            assert rel_err(grad, num) < 1e-4

    def test_angle_wraps(self):
        loss, _ = angle_loss(math.pi - 0.1, -math.pi + 0.1)
        assert loss == pytest.approx(0.2, abs=1e-12)
        assert angle_loss(0.3, 0.3)[0] == 0.0

    def test_angle_bounded_by_pi(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a, b = rng.uniform(-10, 10, 2)
            assert angle_loss(a, b)[0] <= math.pi + 1e-12


# Multiples of pi, where the wrap changes, and their float neighbours; signed
# zeros; and a difference far past any wrap.
WRAP_EXAMPLES = [
    x for k in range(-4, 5)
    for x in (math.nextafter(k * math.pi, -math.inf), k * math.pi,
              math.nextafter(k * math.pi, math.inf))
] + [-0.0, 1e300]
ANGLES = st.floats(-1e300, 1e300)


class TestArrayForms:
    """Each loss over arrays equals its calls on one element at a time, and
    those equal the Python-float oracles in reference.py."""

    @given(st.lists(st.tuples(ANGLES, ANGLES), min_size=1, max_size=30))
    @example([(x, 0.0) for x in WRAP_EXAMPLES])
    @example([(0.0, x) for x in WRAP_EXAMPLES])
    def test_angle_equals_remainder_oracle(self, pairs):
        pred, target = np.array(pairs).T
        loss, grad = angle_loss(pred, target)
        got = [(a.hex(), b.hex()) for a, b in zip(loss.tolist(), grad.tolist())]
        want = [(a.hex(), b.hex())
                for a, b in (reference.angle(p, t) for p, t in pairs)]
        assert got == want

    def test_l1_bitwise(self):
        rng = np.random.default_rng(5)
        pred, target = rng.uniform(-50, 50, (2, 500))
        target[::10] = pred[::10]  # the kink
        pairs = list(zip(pred.tolist(), target.tolist()))
        got = np.column_stack(l1_loss(pred, target))
        per_element = np.array([l1_loss(a, b) for a, b in pairs])
        oracle = np.array([reference.l1(a, b) for a, b in pairs])
        assert got.tobytes() == per_element.tobytes() == oracle.tobytes()

    def test_laplace_within_one_ulp(self):
        # np.log and math.log may differ in the last bit; the gradients
        # take no log.
        rng = np.random.default_rng(6)
        d_gt = rng.uniform(5, 200, 500)
        d_pre = d_gt + rng.uniform(-25, 25, 500)
        d_pre[::10] = d_gt[::10]
        sigma = rng.uniform(0.2, 12, 500)
        rows = list(zip(d_pre.tolist(), d_gt.tolist(), sigma.tolist()))
        got = np.column_stack(laplace_depth_loss(d_pre, d_gt, sigma))
        per_element = np.array([laplace_depth_loss(*row) for row in rows])
        oracle = np.array([reference.laplace(*row) for row in rows])
        for want in (per_element, oracle):
            np.testing.assert_array_max_ulp(got[:, 0], want[:, 0], maxulp=1)
            assert got[:, 1:].tobytes() == want[:, 1:].tobytes()

    def test_broadcasts(self):
        loss, grad = l1_loss(np.arange(3.0)[:, None], np.arange(2.0))
        assert loss.shape == grad.shape == (3, 2)
        loss, grad_d, grad_s = laplace_depth_loss(5.0, np.arange(4.0), [[1.0], [2.0]])
        assert loss.shape == grad_d.shape == grad_s.shape == (2, 4)


class TestGiou:
    def test_identical_boxes_zero(self):
        assert giou_loss_2d((0, 0, 4, 4), (0, 0, 4, 4)) == 0.0

    def test_matches_integer_grid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            boxes = []
            for _ in range(2):
                left, top = rng.integers(-15, 10, 2)
                boxes.append(
                    (int(left), int(top),
                     int(left + rng.integers(1, 10)),
                     int(top + rng.integers(1, 10)))
                )
            inter, union, hull = grid_area_oracle(boxes)
            want = 1.0 - (inter / union - (hull - union) / hull)
            assert giou_loss_2d(*boxes) == pytest.approx(want, abs=1e-12)

    def test_far_apart_approaches_two(self):
        loss = giou_loss_2d((0, 0, 1, 1), (999, 999, 1000, 1000))
        assert 1.9 < loss < 2.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(DomainError):
            giou_loss_2d((0, 0, 0, 4), (0, 0, 4, 4))


class TestLaplaceDepth:
    def test_exact_prediction_unit_sigma(self):
        loss, grad_d, grad_s = laplace_depth_loss(50.0, 50.0, 1.0)
        assert (loss, grad_d) == (0.0, 0.0)
        assert grad_s == 1.0  # d/ds log(s) at s=1

    def test_unit_error_unit_sigma(self):
        loss, _, grad_s = laplace_depth_loss(51.0, 50.0, 1.0)
        assert loss == 2.0
        assert grad_s == -1.0  # -2 + 1

    def test_sigma_domain(self):
        with pytest.raises(DomainError):
            laplace_depth_loss(1.0, 1.0, 0.0)
        with pytest.raises(DomainError, match=r"got -2\.0$"):  # the first bad one
            laplace_depth_loss(1.0, 1.0, [1.0, -2.0, 0.0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            d_gt = rng.uniform(5, 200)
            d_pre = d_gt + rng.uniform(0.1, 20) * rng.choice([-1, 1])
            sigma = rng.uniform(0.2, 10)
            _, grad_d, grad_s = laplace_depth_loss(d_pre, d_gt, sigma)
            num_d = central_diff(
                lambda x: laplace_depth_loss(x, d_gt, sigma)[0], d_pre
            )
            num_s = central_diff(
                lambda s: laplace_depth_loss(d_pre, d_gt, s)[0], sigma
            )
            assert rel_err(grad_d, num_d) < 1e-4
            assert rel_err(grad_s, num_s) < 1e-4

    def test_sigma_minimum_at_twice_abs_error(self):
        # Stationarity: for fixed error, loss is minimized at sigma = 2|delta|.
        delta = 3.0
        best = 2.0 * delta
        sigmas = np.linspace(0.5, 20, 400)
        vals = [laplace_depth_loss(delta, 0.0, s)[0] for s in sigmas]
        assert abs(sigmas[int(np.argmin(vals))] - best) < 0.1
        assert laplace_depth_loss(delta, 0.0, best)[2] == pytest.approx(
            0.0, abs=1e-12
        )


def unit_components(**values):
    return {**dict.fromkeys(COMPONENT_NAMES, 1.0), **values}


MIXED = dict(zip(COMPONENT_NAMES, (0.5, 1.0, 0.25, 2.0, 1.5, 0.1, 3.0, 0.7)))


class TestTotal:
    def test_weights_table(self):
        assert tuple(WEIGHTS) == COMPONENT_NAMES
        assert tuple(WEIGHTS.values()) == (2, 10, 5, 2, 1, 1, 1, 1)

    def test_all_zero(self):
        assert total_loss(dict.fromkeys(COMPONENT_NAMES, 0.0)) == 0.0

    def test_unit_components_default_weights(self):
        assert total_loss(unit_components()) == 23.0

    def test_dict_components(self):
        # 2(0.5) + 10(1.0) + 5(0.25) + 2(2.0) + 1.5 + 0.1 + 3.0 + 0.7
        assert total_loss(MIXED) == pytest.approx(21.55, abs=1e-12)

    def test_linearity(self):
        bumped = {**MIXED, "center3d": 2.0 * MIXED["center3d"]}
        assert total_loss(bumped) - total_loss(MIXED) == pytest.approx(
            5.0 * MIXED["center3d"], abs=1e-12
        )

    def test_missing_component_named(self):
        comps = unit_components()
        del comps["angle"]
        with pytest.raises(DomainError, match=r"missing loss components: \['angle'\]"):
            total_loss(comps)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_components_named(self, bad):
        with pytest.raises(DomainError,
                           match="loss components must be finite: giou, depth$"):
            total_loss(unit_components(giou=bad, depth=bad))


def reference_frame_loss_components(pred, gt, plane_l1):
    """A per-object loop over the scalar oracles: running sums over the
    rows, then the mean."""
    comps = dict.fromkeys(COMPONENT_NAMES, 0.0)
    for p, g in zip(pred, gt):
        comps["classification"] += 0.0 if p.category == g.category else 1.0
        comps["size2d"] += sum(reference.l1(a, b)[0]
                               for a, b in zip(p.box2d, g.box2d))
        comps["center3d"] += sum(
            reference.l1(a, b)[0]
            for a, b in zip((p.box3d.x, p.box3d.y, p.box3d.z),
                            (g.box3d.x, g.box3d.y, g.box3d.z)))
        comps["giou"] += giou_loss_2d(p.box2d, g.box2d)
        comps["size3d"] += sum(
            reference.l1(a, b)[0]
            for a, b in zip((p.box3d.l, p.box3d.w, p.box3d.h),
                            (g.box3d.l, g.box3d.w, g.box3d.h)))
        comps["angle"] += reference.angle(p.box3d.theta, g.box3d.theta)[0]
        comps["depth"] += reference.laplace(p.box3d.z, g.box3d.z, 1.0)[0]
    for key in comps:
        comps[key] /= max(len(pred), 1)
    comps["denorm"] = plane_l1
    return comps


class TestFrameLossComponents:
    def test_equals_per_object_reference(self):
        # Means of up to 200 float64 terms, summed pairwise instead of in
        # row order: equal to within a few hundred ulps.
        frames = synthesize_scene(SceneConfig(seed=3, n_frames=3,
                                              objects_per_frame=200))
        frames[1].objects.category[::7] = "Van"
        for pred in frames:
            for gt in frames:
                got = frame_loss_components(pred.objects, gt.objects, 0.25)
                want = reference_frame_loss_components(pred.objects, gt.objects,
                                                       0.25)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_empty_tables(self):
        empty = label_table([], [])
        assert frame_loss_components(empty, empty, 0.5) == {
            **dict.fromkeys(COMPONENT_NAMES, 0.0), "denorm": 0.5}

    def test_pinned_components_and_total(self):
        # SHA-256 over float.hex of every component and of the total, frame
        # pair after frame pair. Every 7th category differs in frame 1, and
        # 300 of the pairs' theta differences wrap past +-pi.
        frames = synthesize_scene(SceneConfig(seed=71, n_frames=3,
                                              objects_per_frame=200))
        frames[1].objects.category[::7] = "Van"
        digest, wrapped = hashlib.sha256(), 0
        for pred in frames:
            for gt in frames:
                dtheta = pred.objects.box3d.theta - gt.objects.box3d.theta
                wrapped += int((np.abs(dtheta) > math.pi).sum())
                comps = frame_loss_components(
                    pred.objects, gt.objects,
                    denorm_l1(pred.ground.params(), gt.ground.params()))
                values = [comps[n] for n in COMPONENT_NAMES] + [total_loss(comps)]
                digest.update(" ".join(map(float.hex, values)).encode() + b"\n")
        assert wrapped == 300
        assert digest.hexdigest() == (
            "890beca6a5ea6161680c15c04613d28443ac02dfaa283e1303af7360e23a0ba3")

    def test_first_degenerate_box_is_named(self):
        # Row 1's label box is degenerate, and so is row 2's prediction.
        rows = [(0, 0, 0, 10, 20, 30, 40, 1.5, 1.8, 4.2, 2, 4.5, 55, 0.25)] * 3
        pred, gt = (label_table(["Car"] * 3, rows) for _ in range(2))
        gt.box2d[1] = (10, 20, 10, 40)
        pred.box2d[2] = (10, 20, 30, 5)
        for got in (frame_loss_components, reference_frame_loss_components):
            with pytest.raises(DomainError, match=r"degenerate box \(10.0, 20.0, "
                               r"10.0, 40.0\)"):
                got(pred, gt, 0.0)
