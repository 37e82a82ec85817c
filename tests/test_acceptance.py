"""Acceptance suite: eleven end-to-end criteria, each printing a single
pass/fail line with its measured figure of merit.

Every criterion checks the implementation against an independent oracle
(linear solve, cross product, vectorized edge functions, finite
differences) or a stated quantitative property, at the stated tolerance
and within the stated runtime budget.
"""

import math
import os
import time

import numpy as np

from gpk.analysis import (
    attitude_histograms,
    depth_histogram,
    overlap_coefficient,
    v_correlation_series,
)
from gpk.attention import (
    ROLE_GROUND,
    ROLE_QUERY,
    ROLE_VISUAL,
    DecoderWeights,
    FeatureSequence,
    decoder_stack,
    self_attention,
)
from gpk.cli import main as cli_main
from gpk.dataio import (
    BOX3D_DTYPE,
    SceneConfig,
    parse_calibration,
    parse_ground_plane,
    parse_labels,
    serialize_calibration,
    serialize_ground_plane,
    serialize_labels,
    synthesize_scene,
)
from gpk.errors import AllDegenerate, CollinearPoints
from gpk.geometry import (
    CameraAttitude,
    CameraIntrinsics,
    GroundPlane,
    attitude_to_plane,
    ground_depths,
    ground_homography,
    perturbation_rotation,
    plane_to_attitude,
    project_points,
)
from gpk.losses import (COMPONENT_NAMES, denorm_l1, focal_loss, l1_loss,
                        laplace_depth_loss, total_loss)
from gpk.mapfile import load_denorm_map, load_depth_map, pack_map
from gpk.maps import (
    DenormMap,
    GroundDepthMap,
    TriangleRegion,
    _fit_sub_planes,
    _rasterize,
    build_global_denorm_map,
    refine_map,
)


REPORT_LINES: list[str] = []


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {criterion:02d}] {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    REPORT_LINES.append(line)
    assert ok, line


def random_plane(rng) -> GroundPlane:
    return attitude_to_plane(
        CameraAttitude(
            roll=rng.uniform(-0.4, 0.4),
            pitch=rng.uniform(0.02, 0.8),
            height=rng.uniform(1.0, 15.0),
        )
    )


def test_01_ground_depth_vs_linear_solver():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    checked, worst = 0, 0.0
    while checked < 10_000:
        k = CameraIntrinsics(
            fx=rng.uniform(300, 2500),
            fy=rng.uniform(300, 2500),
            cx=rng.uniform(200, 1200),
            cy=rng.uniform(100, 700),
        )
        g = random_plane(rng)
        u, v = rng.uniform(0, 2 * k.cx), rng.uniform(0, 2 * k.cy)
        z, valid = ground_depths(u, v, k, g)
        if not valid:
            continue
        # Oracle: find the intersection point by solving a 3x3 linear
        # system - two ray-collinearity constraints (p.x = x/z * p.z,
        # p.y = y/z * p.z for the unprojected pixel direction) plus the
        # plane equation - instead of using the closed form.
        ray = np.linalg.solve(k.matrix(), np.array([u, v, 1.0]))
        system = np.array(
            [
                [1.0, 0.0, -ray[0] / ray[2]],
                [0.0, 1.0, -ray[1] / ray[2]],
                list(g.normal),
            ]
        )
        p = np.linalg.solve(system, np.array([0.0, 0.0, -g.d]))
        worst = max(worst, abs(z - p[2]) / abs(p[2]))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    report(1, "ground depth matches linear-system ray-plane oracle", ok,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s / 10^4 cases")


def test_02_plane_fit_residual_and_cross_product_oracle():
    rng = np.random.default_rng(102)
    k = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=464.0, cy=256.0)
    worst_resid, worst_dir = 0.0, 0.0
    fitted, skipped = 0, 0
    for _ in range(1_000):
        pts = rng.uniform(-10, 10, size=(3, 3)) + np.array([0.0, 6.0, 40.0])
        # The refined map's sub-plane fit, on one triangle's points and pixels.
        try:
            _, _, planes, _ = _fit_sub_planes(pts, project_points(pts, k))
        except AllDegenerate:
            skipped += 1
            continue
        g = GroundPlane(*planes[0].tolist())
        for p in pts:
            worst_resid = max(worst_resid, abs(g.signed_distance(p)))
        n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        n /= np.linalg.norm(n)
        if n @ pts[0] > 0:
            n = -n
        worst_dir = max(worst_dir, float(np.max(np.abs(g.normal - n))))
        fitted += 1
    ok = worst_resid < 1e-9 and worst_dir < 1e-9 and skipped == 0
    report(2, "plane fit residuals and cross-product oracle", ok,
           f"max |G.p| {worst_resid:.2e}, max normal dev {worst_dir:.2e}, "
           f"{fitted} fits, {skipped} triples skipped")


def test_03_attitude_round_trip():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1_000):
        att = CameraAttitude(
            roll=rng.uniform(-1.4, 1.4),
            pitch=rng.uniform(-1.4, 1.4),
            height=rng.uniform(0.2, 30.0),
        )
        back = plane_to_attitude(attitude_to_plane(att))
        worst = max(
            worst,
            abs(back.roll - att.roll),
            abs(back.pitch - att.pitch),
            abs(back.height - att.height),
        )
    report(3, "attitude/plane round-trip identity", worst < 1e-9,
           f"max abs dev {worst:.2e}")


def edge_oracle(verts: np.ndarray, h: int, w: int) -> np.ndarray:
    """Vectorized brute-force coverage test of every pixel center."""
    v = verts
    area2 = (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - (
        v[1, 1] - v[0, 1]
    ) * (v[2, 0] - v[0, 0])
    if area2 < 0:
        v = v[[0, 2, 1]]
    px, py = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    inside = np.ones((h, w), dtype=bool)
    for i in range(3):
        ax, ay = v[i]
        bx, by = v[(i + 1) % 3]
        e = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        inclusive = (by == ay and bx > ax) or by < ay
        inside &= (e >= 0) if inclusive else (e > 0)
    return inside


def test_04_rasterization_oracle():
    rng = np.random.default_rng(104)
    pts3d = np.array([[-5.0, 6.0, 30.0], [5.0, 6.0, 35.0], [0.0, 6.0, 60.0]])
    tri_plane = GroundPlane(0.0, -1.0, 0.0, 6.0)  # y = 6, through pts3d
    discrepancies, tested = 0, 0
    while tested < 1_000:
        verts = rng.uniform(-20.0, 148.0, size=(3, 2))
        try:
            tri = TriangleRegion(pixels=verts, plane=tri_plane, points3d=pts3d)
        except CollinearPoints:
            continue
        lengths, ids = _rasterize(tri.pixels[None], 128, 128)
        got = np.repeat(ids, lengths).reshape(128, 128) == 0
        want = edge_oracle(verts, 128, 128)
        discrepancies += int(np.count_nonzero(got != want))
        tested += 1
    report(4, "rasterized pixel sets equal brute-force edge tests",
           discrepancies == 0, f"{discrepancies} discrepancies / 10^3 triangles")


def test_05_refinement_fixed_point():
    g = attitude_to_plane(CameraAttitude(roll=0.008, pitch=0.18, height=6.2))
    rng = np.random.default_rng(105)
    boxes = []
    for _ in range(20):
        x, z = rng.uniform(-15, 15), rng.uniform(20, 150)
        y = -(g.alpha * x + g.gamma * z + g.d) / g.beta
        h = rng.uniform(1.4, 1.7)
        c = np.array([x, y, z]) + 0.5 * h * g.normal
        boxes.append((c[0], c[1], c[2], 4.3, 1.8, h, 0.2))  # x y z l w h theta
    k = CameraIntrinsics(fx=62.5, fy=62.5, cx=29.0, cy=16.0)  # stride 16
    plane_map, _ = refine_map(g, np.array(boxes, BOX3D_DTYPE), k, 32, 58)
    refined = DenormMap(plane_map.dense())
    loss = denorm_l1(refined.data, build_global_denorm_map(g, 32, 58).data)
    report(5, "refinement is a fixed point on flat ground", loss < 1e-9,
           f"L1 {loss:.2e}")


def test_06_depth_vs_pitch_support_ratio():
    worst = math.inf
    for seed in range(20):
        frames = synthesize_scene(SceneConfig(seed=seed))
        dh = depth_histogram(frames, bins=64)
        _, ph, _ = attitude_histograms(frames, bins=64, stride=16)
        worst = min(worst, dh.relative_support() / ph.relative_support())
    report(6, "depth support dominates pitch support 10x on 20 seeds",
           worst >= 10.0, f"min ratio {worst:.1f}")


def test_07_robustness_ordering():
    t0 = time.monotonic()
    sigma = 0.3
    min_margin, holds = math.inf, True
    for seed in range(20):
        frames = synthesize_scene(SceneConfig(seed=seed))
        rng = np.random.default_rng([seed, 0xA5])
        pairs = [
            tuple(np.clip(rng.normal(0.0, sigma, 2), -3 * sigma, 3 * sigma))
            for _ in frames
        ]
        clean = v_correlation_series(frames)
        pert = v_correlation_series(frames, perturb=pairs)
        overlaps = {q: overlap_coefficient(clean[q], pert[q])
                    for q in ("depth", "roll", "pitch")}
        margin = min(
            overlaps["pitch"] - overlaps["depth"],
            overlaps["roll"] - overlaps["depth"],
        )
        min_margin = min(min_margin, margin)
        holds &= margin > 0
    elapsed = time.monotonic() - t0
    ok = holds and elapsed < 60.0
    report(7, "attitude overlap exceeds depth overlap on 20 seeds", ok,
           f"min margin {min_margin:.4f}, {elapsed:.1f}s")


def test_08_homography_consistency():
    rng = np.random.default_rng(108)
    k = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=464.0, cy=256.0)
    g = attitude_to_plane(CameraAttitude(roll=0.01, pitch=0.175, height=6.0))
    worst, checked = 0.0, 0
    for _ in range(100):
        droll = rng.uniform(-0.25, 0.25)
        dpitch = rng.uniform(-0.25, 0.25)
        h = ground_homography(k, droll, dpitch)
        r = perturbation_rotation(droll, dpitch)
        n = 0
        while n < 10:
            u, v = rng.uniform(0, 928), rng.uniform(0, 512)
            z, valid = ground_depths(u, v, k, g)
            if not valid:
                continue
            # Back-project to the ground point, rotate it with the camera,
            # and project it again; the homography maps the pixel directly.
            ground = np.array([(u - k.cx) / k.fx * z, (v - k.cy) / k.fy * z, z])
            p = r @ ground
            if p[2] <= 0:
                continue
            (direct,) = project_points(p, k)
            x, y, w = h @ np.array([u, v, 1.0])
            worst = max(worst, float(np.max(np.abs(direct - (x / w, y / w)))))
            n += 1
            checked += 1
    ok = worst < 1e-6 and checked == 1_000
    report(8, "homography equals perturbed projection", ok,
           f"worst |dpx| {worst:.2e} over {checked} points")


def test_09_attention_invariants():
    rng = np.random.default_rng(109)
    n, tg, tv, c, h = 10, 16, 24, 32, 4
    q = FeatureSequence(rng.standard_normal((n, c)), ROLE_QUERY)
    fg = FeatureSequence(rng.standard_normal((tg, c)), ROLE_GROUND)
    fv = FeatureSequence(rng.standard_normal((tv, c)), ROLE_VISUAL)
    blocks = [DecoderWeights.create(c, h, seed=200 + i) for i in range(3)]
    out1, amap1 = decoder_stack(q, fg, fv, blocks)
    out2, amap2 = decoder_stack(q, fg, fv, blocks)
    row_dev = float(np.max(np.abs(amap1.weights.sum(axis=1) - 1.0)))
    perm = rng.permutation(n)
    out_p, amap_p = decoder_stack(FeatureSequence(q.tokens[perm], ROLE_QUERY),
                                  fg, fv, blocks)
    query_equiv = max(
        float(np.max(np.abs(out_p.tokens - out1.tokens[perm]))),
        float(np.max(np.abs(amap_p.weights - amap1.weights[perm]))),
    )
    tperm = rng.permutation(tv)
    sa = self_attention(fv, blocks[0].self_attn).tokens
    sa_p = self_attention(
        FeatureSequence(fv.tokens[tperm], ROLE_VISUAL), blocks[0].self_attn
    ).tokens
    token_equiv = float(np.max(np.abs(sa_p - sa[tperm])))
    ok = (
        row_dev <= 1e-9
        and query_equiv <= 1e-9
        and token_equiv <= 1e-9
        and out1.tokens.shape == (n, c)
        and bool(np.all(np.isfinite(out1.tokens)))
        and np.array_equal(out1.tokens, out2.tokens)
        and np.array_equal(amap1.weights, amap2.weights)
    )
    report(9, "attention invariant suite", ok,
           f"row dev {row_dev:.1e}, equivariance dev "
           f"{max(query_equiv, token_equiv):.1e}")


def test_10_loss_gradients_and_total():
    rng = np.random.default_rng(110)
    step = 1e-5
    worst = 0.0
    for _ in range(1_000):
        # Laplace depth loss, both gradients.
        d_gt = rng.uniform(5, 200)
        d_pre = d_gt + rng.uniform(0.05, 25) * rng.choice([-1, 1])
        sigma = rng.uniform(0.2, 12)
        _, gd, gs = laplace_depth_loss(d_pre, d_gt, sigma)
        num_d = (
            laplace_depth_loss(d_pre + step, d_gt, sigma)[0]
            - laplace_depth_loss(d_pre - step, d_gt, sigma)[0]
        ) / (2 * step)
        num_s = (
            laplace_depth_loss(d_pre, d_gt, sigma + step)[0]
            - laplace_depth_loss(d_pre, d_gt, sigma - step)[0]
        ) / (2 * step)
        worst = max(worst, abs(gd - num_d) / max(abs(num_d), 1e-12),
                    abs(gs - num_s) / max(abs(num_s), 1e-12))
        # L1 away from the kink.
        a = rng.uniform(-50, 50)
        b = a + rng.uniform(0.1, 10) * rng.choice([-1, 1])
        _, gl = l1_loss(a, b)
        num_l = (l1_loss(a + step, b)[0] - l1_loss(a - step, b)[0]) / (2 * step)
        worst = max(worst, abs(gl - num_l) / max(abs(num_l), 1e-12))
        # Focal loss on the open probability interval.
        p = rng.uniform(0.02, 0.98)
        target = int(rng.integers(0, 2))
        _, gf = focal_loss(p, target)
        num_f = (
            focal_loss(p + step, target)[0] - focal_loss(p - step, target)[0]
        ) / (2 * step)
        worst = max(worst, abs(gf - num_f) / max(abs(num_f), 1e-12))
    exact = total_loss(dict.fromkeys(COMPONENT_NAMES, 1.0))
    ok = worst < 1e-4 and exact == 23.0
    report(10, "loss gradients match finite differences; unit total = 23",
           ok, f"worst rel err {worst:.2e}, total {exact}")


def test_11_format_and_cli_reproducibility(tmp_path):
    rng = np.random.default_rng(111)
    # GPKM round-trips.
    depth = GroundDepthMap(
        depth=rng.uniform(0, 250, (41, 67)).astype(np.float32).astype(float),
        valid=rng.random((41, 67)) > 0.4,
    )
    (tmp_path / "d.gpkm").write_bytes(pack_map(depth.depth, depth.valid))
    d2 = load_depth_map(tmp_path / "d.gpkm")
    (tmp_path / "d2.gpkm").write_bytes(pack_map(d2.depth, d2.valid))
    gpkm_ok = (tmp_path / "d.gpkm").read_bytes() == (
        tmp_path / "d2.gpkm"
    ).read_bytes()
    denorm = DenormMap(
        data=rng.standard_normal((17, 23, 4)).astype(np.float32).astype(float)
    )
    (tmp_path / "m.gpkm").write_bytes(pack_map(denorm.data))
    gpkm_ok &= np.array_equal(load_denorm_map(tmp_path / "m.gpkm").data,
                              denorm.data)
    # Text round-trips on generated frames.
    text_ok = True
    for f in synthesize_scene(SceneConfig(seed=11, n_frames=2,
                                          objects_per_frame=6)):
        lt = serialize_labels(f.objects)
        ct = serialize_calibration(f.rig)
        gt = serialize_ground_plane(f.ground)
        text_ok &= serialize_labels(parse_labels(lt)) == lt
        text_ok &= serialize_calibration(parse_calibration(ct)) == ct
        text_ok &= serialize_ground_plane(parse_ground_plane(gt)) == gt
    # CLI byte-reproducibility across --jobs.
    cli_ok = True
    for cmd in (["gen-maps"], ["synth"], ["perturb"]):
        # perturb needs the full default image so objects stay visible
        # under the sigma = 0.3 offsets.
        args = ["--seed", "6", "--frames", "3"]
        if cmd[0] != "perturb":
            args += ["--resolution", "64x116"]
        outs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"{cmd[0]}_{jobs}"
            extra = [] if cmd[0] == "perturb" else ["--jobs", jobs]
            code = cli_main(cmd + ["--out", str(out)] + args + extra)
            cli_ok &= code == 0
            # The manifest embeds its own directory path and wall time;
            # the reproducibility contract covers the data files.
            blob = {
                name: (out / name).read_bytes()
                for name in sorted(os.listdir(out))
                if name != "manifest.json"
            }
            outs.append(blob)
        cli_ok &= outs[0] == outs[1]
    ok = gpkm_ok and text_ok and cli_ok
    report(11, "bit-exact round-trips and jobs-independent CLI output", ok,
           f"gpkm={gpkm_ok} text={text_ok} cli={cli_ok}")
