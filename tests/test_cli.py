"""End-to-end CLI tests: exit codes, file outputs, manifests, and
byte-reproducibility across seeds and job counts."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy

import gpk
from gpk import analysis, cli
from gpk.cli import (_frames_from_args, _load_real_frame, _map_blobs,
                     _perturbation_pairs, build_parser, main)
from gpk.dataio import (
    CameraRig,
    SceneConfig,
    parse_ground_plane,
    parse_labels,
    serialize_calibration,
    serialize_labels,
    synthesize_scene,
)
from gpk.geometry import CameraIntrinsics
from gpk.losses import COMPONENT_NAMES, WEIGHTS, denorm_l1
from gpk.mapfile import load_denorm_map, unpack_map
from gpk.maps import refine_map

SMALL = ["--frames", "3", "--resolution", "64x116"]


def run(args):
    return main(args)


def usage_exit_code(args, capsys):
    """Exit code of an argparse usage error, which ends the run."""
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert "usage: gpk" in capsys.readouterr().err
    return exc.value.code


def real_inputs(synth_dir, fid="000000"):
    """--calib/--labels/--denorm flags for one frame `synth` wrote."""
    return ["--calib", str(synth_dir / f"calib_{fid}.txt"),
            "--labels", str(synth_dir / f"label_{fid}.txt"),
            "--denorm", str(synth_dir / f"denorm_{fid}.txt")]


def synth_off_plane(tmp_path, seed, frames=1):
    """`synth` frames of 400 objects whose labels are moved off the plane:
    each box's y gains N(0, 0.3) m, drawn frame after frame from one RNG."""
    cfg = tmp_path / "dense.cfg"
    cfg.write_text("objects_per_frame = 400\n")
    synth = tmp_path / "synth"
    assert run(["synth", "--out", str(synth), "--seed", str(seed),
                "--frames", str(frames), "--config", str(cfg)]) == 0
    rng = np.random.default_rng(seed)
    for i in range(frames):
        labels = synth / f"label_{i:06d}.txt"
        objects = parse_labels(labels.read_text())
        objects.box3d.y += rng.normal(0.0, 0.3, len(objects))
        labels.write_text(serialize_labels(objects))
    return synth


def dir_bytes(path, skip=("manifest.json",)):
    out = {}
    for name in sorted(os.listdir(path)):
        if name in skip:
            continue
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


class TestGenMaps:
    def test_writes_maps_and_manifest(self, tmp_path):
        out = tmp_path / "maps"
        assert run(["gen-maps", "--out", str(out), "--seed", "1"] + SMALL) == 0
        names = os.listdir(out)
        for tag in ("depth", "global", "refined"):
            assert sum(n.startswith(tag) for n in names) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-maps"
        assert manifest["counters"]["frames"] == 3
        versions = manifest["versions"]
        assert sorted(versions) == ["gpk", "numpy", "python", "scipy"]
        assert versions["gpk"] == gpk.__version__
        assert versions["numpy"] == np.__version__
        assert versions["python"] == "%d.%d.%d" % sys.version_info[:3]
        assert versions["scipy"] == scipy.__version__
        assert all(isinstance(v, str) and v for v in versions.values())

    def test_flat_scene_refinement_is_noop(self, tmp_path):
        out = tmp_path / "maps"
        run(["gen-maps", "--out", str(out), "--seed", "1"] + SMALL)
        rows = (out / "report.csv").read_text().strip().split("\n")[1:]
        assert all(float(r.split(",")[1]) < 1e-9 for r in rows)

    def test_byte_reproducible_across_jobs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["gen-maps", "--out", str(a), "--seed", "9", "--jobs", "1"] + SMALL)
        run(["gen-maps", "--out", str(b), "--seed", "9", "--jobs", "4"] + SMALL)
        assert dir_bytes(a) == dir_bytes(b)

    def test_real_frame_inputs(self, tmp_path):
        synth = tmp_path / "synth"
        run(["synth", "--out", str(synth), "--seed", "2", "--frames", "1"])
        out = tmp_path / "maps"
        code = run([
            "gen-maps", "--out", str(out),
            "--calib", str(synth / "calib_000000.txt"),
            "--labels", str(synth / "label_000000.txt"),
            "--denorm", str(synth / "denorm_000000.txt"),
            "--resolution", "32x58", "--stride", "1",
        ])
        assert code == 0
        assert (out / "depth_000000.gpkm").exists()

    @pytest.mark.parametrize("name,text", [
        ("denorm_000000.txt", "0 0 0 5\n"),
        ("label_000000.txt",
         "Car 0 0 0 300 200 420 260 1.5 1.8 4.2 nan 4.5 55.0 0.25\n"),
        ("label_000000.txt",
         "Car 0 0 0 300 200 420 260 inf 1.8 4.2 2.0 4.5 55.0 0.25\n"),
    ], ids=["zero-normal-denorm", "nan-location", "inf-height"])
    def test_malformed_input_value_exit_1(self, tmp_path, name, text):
        synth = tmp_path / "synth"
        run(["synth", "--out", str(synth), "--seed", "2", "--frames", "1"])
        (synth / name).write_text(text)
        code = run([
            "gen-maps", "--out", str(tmp_path / "maps"),
            "--calib", str(synth / "calib_000000.txt"),
            "--labels", str(synth / "label_000000.txt"),
            "--denorm", str(synth / "denorm_000000.txt"),
            "--resolution", "32x58",
        ])
        assert code == 1

    def test_manifest_sums_refinement_counters(self, tmp_path):
        out = tmp_path / "maps"
        assert run(["gen-maps", "--out", str(out), "--seed", "1",
                    "--stride", "16"] + SMALL) == 0
        want = dict.fromkeys(("dropped_points", "insufficient_points",
                              "degenerate_skipped", "triangles",
                              "covered_pixels"), 0)
        cfg = SceneConfig(seed=1, n_frames=3, image_height=64, image_width=116)
        for frame in synthesize_scene(cfg):
            _, stats = refine_map(frame.ground, frame.objects.box3d,
                                  frame.rig.intrinsics.scaled(16), 4, 7)
            for key in want:
                want[key] += stats[key]
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        assert counters == {"frames": 3, **want}
        assert want["triangles"] > 0 and want["covered_pixels"] > 0
        header = (out / "report.csv").read_text().split("\n")[0]
        assert header == ("frame_id,refined_vs_global_l1,insufficient_points,"
                          "degenerate_skipped")

    def test_full_resolution_maps_build_no_full_resolution_temporary(self):
        # One 512x928 frame's maps, traced after a warm-up call. The float32
        # depth map, its mask and its packed file are ~9 bytes a pixel;
        # float64 or int32 (h, w) temporaries took the peak to ~25.
        frame = synthesize_scene(SceneConfig(seed=5))[0]
        _, h, w = frame.map_grid(1)
        assert (h, w) == (512, 928)
        _map_blobs(frame, 1)
        tracemalloc.start()
        try:
            _map_blobs(frame, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * h * w

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        out = tmp_path / "maps"
        assert run(["gen-maps", "--out", str(out), "--jobs", jobs] + SMALL) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size,flags", [
        ("9000x9000", ["--frames", "1", "--resolution", "9000x9000"]),
        # The image is twice the principal point: 512 x 9.28e9 pixels.
        ("512x9280000000", "P2: 1000 0 4.64e9 0 0 1000 256 0 0 0 1 0\n"),
    ], ids=["resolution", "principal-point"])
    def test_oversize_map_grid_exit_1(self, tmp_path, capsys, size, flags):
        # Refused before any map is built: building one would take the
        # whole map's memory, 17.3 TiB for the second, before the writer
        # refused it.
        if isinstance(flags, str):
            synth = tmp_path / "synth"
            assert run(["synth", "--out", str(synth), "--frames", "1"]) == 0
            (synth / "calib_000000.txt").write_text(flags)
            flags = real_inputs(synth)
        out = tmp_path / "maps"
        assert run(["gen-maps", "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert f"error: a {size} map exceeds 268435456 values" in err
        assert not out.exists()

    def test_image_below_edge_margins_exit_1(self, tmp_path, capsys):
        assert run(["gen-maps", "--out", str(tmp_path / "maps"),
                    "--frames", "1", "--resolution", "8x8"]) == 1
        assert "2 * edge_margin = 32" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--stride", "4"], ["--resolution", "abc"]],
                             ids=["stride-4", "resolution-abc"])
    def test_usage_error_exit_1(self, tmp_path, capsys, flags):
        out = tmp_path / "maps"
        assert usage_exit_code(["gen-maps", "--out", str(out)] + flags,
                               capsys) == 1
        assert not out.exists()

    def test_unknown_subcommand_exit_1(self, capsys):
        assert usage_exit_code(["no-such-command"], capsys) == 1

    def test_missing_input_file_exit_1(self, tmp_path):
        code = run([
            "gen-maps", "--out", str(tmp_path / "x"),
            "--calib", str(tmp_path / "nope.txt"),
            "--labels", str(tmp_path / "nope.txt"),
            "--denorm", str(tmp_path / "nope.txt"),
        ])
        assert code == 1


class TestGenMapsFailure:
    """A gen-maps run of four frames that fails at frame 2 leaves frames
    0-1 on disk, complete and as a clean run writes them, and nothing of
    frame 3: no map, no report.csv, no manifest.json."""

    FLAGS = ["--seed", "4", "--frames", "4", "--stride", "16"]

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("clean")
        assert run(["gen-maps", "--out", str(out)] + self.FLAGS) == 0
        return dir_bytes(out)

    @staticmethod
    def check_left_on_disk(out, clean):
        names = os.listdir(out)
        assert "manifest.json" not in names and "report.csv" not in names
        assert not [n for n in names if "_000003" in n]
        for name in (f"{tag}_{fid}.gpkm" for fid in ("000000", "000001")
                     for tag in ("depth", "global", "refined")):
            assert (out / name).read_bytes() == clean[name], name

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_compute_failure_exit_2(self, tmp_path, capsys, monkeypatch, clean,
                                    jobs):
        map_blobs = cli._map_blobs

        def fail_frame_2(frame, stride):
            if frame.frame_id == "000002":
                raise ValueError("frame 2 cannot be mapped")
            return map_blobs(frame, stride)

        monkeypatch.setattr(cli, "_map_blobs", fail_frame_2)
        out = tmp_path / "maps"
        assert run(["gen-maps", "--out", str(out), "--jobs", jobs]
                   + self.FLAGS) == 2
        assert capsys.readouterr().err == "error: frame 2 cannot be mapped\n"
        self.check_left_on_disk(out, clean)
        assert not [n for n in os.listdir(out) if "_000002" in n]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_write_failure_exit_1(self, tmp_path, capsys, clean, jobs):
        out = tmp_path / "maps"
        (out / "depth_000002.gpkm").mkdir(parents=True)
        assert run(["gen-maps", "--out", str(out), "--jobs", jobs]
                   + self.FLAGS) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "depth_000002.gpkm" in err
        self.check_left_on_disk(out, clean)
        # No temp file is left: of frame 2 there is only the directory.
        assert [n for n in os.listdir(out) if "_000002" in n] == [
            "depth_000002.gpkm"]
        assert (out / "depth_000002.gpkm").is_dir()


@pytest.mark.parametrize("frames,threads", [("1", 0), ("2", 1), ("4", 1)])
def test_gen_maps_writer_thread(tmp_path, monkeypatch, frames, threads):
    # Frames before the last are written on one writer thread, each
    # frame's writes ending before the next frame's begin; the last frame,
    # report.csv and manifest.json are written on the calling thread.
    started, writes = [], []
    start, write = threading.Thread.start, cli.atomic_write

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    def recording_write(path, data):
        on_main = threading.current_thread() is threading.main_thread()
        writes.append(("begin", os.path.basename(path), on_main))
        write(path, data)
        writes.append(("end", os.path.basename(path), on_main))

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    monkeypatch.setattr(cli, "atomic_write", recording_write)
    out = tmp_path / "maps"
    assert run(["gen-maps", "--out", str(out), "--seed", "4", "--frames",
                frames, "--stride", "16"]) == 0
    assert len(started) == threads
    n = int(frames)
    names = [f"{tag}_{i:06d}.gpkm" for i in range(n)
             for tag in ("depth", "global", "refined")]
    names += ["report.csv", "manifest.json"]
    assert writes == [(event, name, i >= 3 * (n - 1))
                      for i, name in enumerate(names)
                      for event in ("begin", "end")]


@pytest.mark.parametrize("data,error", [([b"map"], IsADirectoryError),
                                        ([17], TypeError)],
                         ids=["rename-fails", "write-fails"])
def test_atomic_write_failure_removes_its_temp_file(tmp_path, data, error):
    (tmp_path / "out").mkdir()
    target = tmp_path / "out" / "depth_000000.gpkm"
    if error is IsADirectoryError:
        target.mkdir()
    with pytest.raises(error):
        cli.atomic_write(target, data)
    assert os.listdir(tmp_path / "out") == (
        ["depth_000000.gpkm"] if error is IsADirectoryError else [])


@pytest.mark.parametrize("flag", ["labels", "calib", "denorm", "config", "pred"])
def test_non_utf8_input_exit_1(tmp_path, capsys, flag):
    synth = tmp_path / "synth"
    assert run(["synth", "--out", str(synth), "--frames", "1"]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00")
    out = ["--out", str(tmp_path / "o")]
    if flag == "config":
        argv = ["synth", "--config", str(bad)] + out
    elif flag == "pred":
        argv = ["losses", "--pred", str(bad),
                "--labels", str(synth / "label_000000.txt")]
    else:
        argv = ["gen-maps", "--stride", "16"] + out + real_inputs(synth)
        argv[argv.index(f"--{flag}") + 1] = str(bad)
    capsys.readouterr()
    assert run(argv) == 1
    assert f"error: {flag} file is not UTF-8 text: {bad}" in capsys.readouterr().err


class TestRealFrames:
    @pytest.fixture
    def synth(self, tmp_path):
        out = tmp_path / "synth"
        assert run(["synth", "--out", str(out), "--seed", "2", "--frames", "1"]) == 0
        return out

    def test_full_hd_map_covers_the_image(self, tmp_path):
        # A 1920x1080 roadside camera: the stride-16 map spans the whole
        # image, on the same grid (FrameRecord.map_grid) that `stats` refines.
        cfg = tmp_path / "hd.cfg"
        cfg.write_text("focal = 2000\n")
        synth = tmp_path / "synth"
        assert run(["synth", "--out", str(synth), "--seed", "3", "--frames", "1",
                    "--resolution", "1080x1920", "--config", str(cfg)]) == 0
        out = tmp_path / "maps"
        assert run(["gen-maps", "--out", str(out), "--stride", "16"]
                   + real_inputs(synth)) == 0
        refined = load_denorm_map(out / "refined_000000.gpkm").data
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        assert refined.shape == (67, 120, 4)
        assert counters["covered_pixels"] == 1464
        (frame,) = synthesize_scene(SceneConfig(
            seed=3, n_frames=1, image_height=1080, image_width=1920, focal=2000.0))
        want, _ = refine_map(frame.ground, frame.objects.box3d, *frame.map_grid(16))
        assert np.array_equal(refined, want.dense().astype(np.float32))

    def test_calib_with_tr_world_to_cam_gives_the_same_maps(self, tmp_path, synth):
        # Calibration files written before they became the P2 row alone
        # carry this frame's Tr_world_to_cam row, which is skipped.
        calib = synth / "calib_000000.txt"
        p2_only = calib.read_text()
        assert p2_only == "P2: 1000 0 464 0 0 1000 256 0 0 0 1 0\n"
        gen_maps = ["gen-maps", "--stride", "16"] + real_inputs(synth)
        assert run(gen_maps + ["--out", str(tmp_path / "new")]) == 0
        calib.write_text(p2_only + (
            "Tr_world_to_cam: 0.99998863426662266 0.0046982266936999749 "
            "-0.00081117415484013313 0.029665663924507542 "
            "-0.0047677392519805024 0.98540902650169526 -0.17013617825555613 "
            "6.2220950401509558 0 0.17013811199997445 0.98542022652525463 "
            "1.0742904462463514\n"))
        assert run(gen_maps + ["--out", str(tmp_path / "old")]) == 0
        for tag in ("depth", "global", "refined"):
            name = f"{tag}_000000.gpkm"
            assert ((tmp_path / "new" / name).read_bytes()
                    == (tmp_path / "old" / name).read_bytes()), tag

    def test_residual_matches_dense_reference(self, tmp_path):
        # Labels moved off the plane give a residual well above rounding;
        # the report's reduction over the plane table equals the dense mean.
        synth = synth_off_plane(tmp_path, 4)
        out = tmp_path / "maps"
        args = ["--stride", "16"] + real_inputs(synth)
        assert run(["gen-maps", "--out", str(out)] + args) == 0
        row = (out / "report.csv").read_text().split("\n")[1]
        frame = _load_real_frame(build_parser().parse_args(
            ["gen-maps", "--out", str(out)] + args))
        refined, _ = refine_map(frame.ground, frame.objects.box3d,
                                *frame.map_grid(16))
        want = np.mean(np.abs(refined.dense() - refined.planes[-1]))
        assert want > 0.01
        assert float(row.split(",")[1]) == pytest.approx(want, rel=1e-12)

    def test_image_size_is_resolution_else_twice_principal_point(
            self, tmp_path, synth):
        calib = synth / "calib_000000.txt"
        k = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=640.3, cy=359.8)
        calib.write_text(serialize_calibration(CameraRig(k)))
        argv = ["stats", "--out", str(tmp_path / "s")] + real_inputs(synth)
        parse = build_parser().parse_args
        assert _load_real_frame(parse(argv)).image_size == (720, 1281)
        sized = parse(argv + ["--resolution", "1080x1920"])
        assert _load_real_frame(sized).image_size == (1080, 1920)

    def test_stats_honours_resolution(self, tmp_path, synth):
        for name, flags in (("full", []), ("half", ["--resolution", "256x464"])):
            assert run(["stats", "--out", str(tmp_path / name)]
                       + real_inputs(synth) + flags) == 0
        for name in ("roll", "pitch", "height"):
            full = (tmp_path / "full" / f"hist_{name}.csv").read_text()
            half = (tmp_path / "half" / f"hist_{name}.csv").read_text()
            assert full != half, name

    @pytest.mark.parametrize("command", ["gen-maps", "perturb", "stats"])
    def test_non_positive_principal_point_needs_resolution(
            self, tmp_path, capsys, synth, command):
        calib = synth / "calib_000000.txt"
        k = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=-464.0, cy=-256.0)
        calib.write_text(serialize_calibration(CameraRig(k)))
        out = tmp_path / "o"
        assert run([command, "--out", str(out)] + real_inputs(synth)) == 1
        assert "give --resolution" in capsys.readouterr().err
        assert not out.exists()
        code = run([command, "--out", str(out), "--resolution", "512x928"]
                   + real_inputs(synth))
        if command == "perturb":
            # Past the size check, every bottom center projects above row 0.
            assert code == 2
            assert "no visible objects" in capsys.readouterr().err
        else:
            assert code == 0

    @pytest.mark.parametrize("command", ["gen-maps", "perturb", "stats"])
    @pytest.mark.parametrize("cx,cy", [(1e308, 256.0), (464.0, 1e308)])
    def test_principal_point_too_large_to_double_exit_1(
            self, tmp_path, capsys, synth, command, cx, cy):
        # 2 * 1e308 overflows: refused with one line, not an OverflowError.
        calib = synth / "calib_000000.txt"
        k = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=cx, cy=cy)
        calib.write_text(serialize_calibration(CameraRig(k)))
        out = tmp_path / "o"
        assert run([command, "--out", str(out)] + real_inputs(synth)) == 1
        assert capsys.readouterr().err == (
            f"error: twice the principal point ({cx!r}, {cy!r}) is not finite; "
            "give --resolution\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-maps", "perturb", "stats"])
    def test_labels_without_calib_exit_1(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert run([command, "--out", str(out),
                    "--labels", str(tmp_path / "nope.txt")]) == 1
        assert "--calib is required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--frames", "2"],
                                       ["--config", "nonexistent.cfg"]],
                             ids=["frames", "config"])
    def test_synthetic_flags_with_real_inputs_exit_1(self, tmp_path, capsys,
                                                     synth, flags):
        out = tmp_path / "maps"
        assert run(["gen-maps", "--out", str(out)] + real_inputs(synth)
                   + flags) == 1
        err = capsys.readouterr().err
        assert f"{flags[0]} applies to synthetic frames only" in err
        assert not out.exists()


class TestPerturb:
    def test_config_file_seed_reaches_the_whole_command(self, tmp_path):
        # The pose offsets, not only the fleet, come from the file's seed,
        # and the manifest records it.
        cfg = tmp_path / "s.cfg"
        cfg.write_text("seed = 5\nn_frames = 4\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["perturb", "--out", str(a), "--config", str(cfg)]) == 0
        assert run(["perturb", "--out", str(b), "--seed", "5",
                    "--frames", "4"]) == 0
        assert dir_bytes(a) == dir_bytes(b)
        for out in (a, b):
            assert json.loads((out / "manifest.json").read_text())["seed"] == 5

    def test_sigma_zero_full_overlap(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run(["perturb", "--out", str(out), "--seed", "0",
                    "--sigma", "0"] + SMALL) == 0
        text = (out / "overlap.csv").read_text()
        for line in text.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == 1.0

    def test_default_config_ordering_reported(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run(["perturb", "--out", str(out), "--seed", "0"]) == 0
        captured = capsys.readouterr().out
        assert "attitude-over-depth ordering holds: True" in captured
        names = os.listdir(out)
        assert "scatter_depth_clean.csv" in names
        assert "scatter_pitch_perturbed.csv" in names
        assert "scatter_roll.svg" in names

    # Past pi/6 the 3-sigma clip would let an offset reach pi/2.
    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "1", "0.53"])
    def test_sigma_out_of_range_exit_1(self, tmp_path, capsys, sigma):
        assert run(["perturb", "--out", str(tmp_path / "p"),
                    "--sigma", sigma] + SMALL) == 1
        err = capsys.readouterr().err
        assert "error: --sigma must be finite and in [0, pi/6)" in err

    def test_single_quantity(self, tmp_path):
        # One quantity's files are the bytes a run over all of them writes.
        out, full = tmp_path / "p", tmp_path / "full"
        assert run(["perturb", "--out", str(out), "--quantity", "depth"]
                   + SMALL) == 0
        assert run(["perturb", "--out", str(full)] + SMALL) == 0
        one, every = dir_bytes(out), dir_bytes(full)
        depth = ["scatter_depth.svg", "scatter_depth_clean.csv",
                 "scatter_depth_perturbed.csv"]
        assert sorted(one) == ["overlap.csv"] + depth
        assert [one[n] for n in depth] == [every[n] for n in depth]
        assert every["overlap.csv"].startswith(one["overlap.csv"])


class TestStats:
    def test_histograms_written(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run(["stats", "--out", str(out), "--seed", "4"] + SMALL) == 0
        for name in ("depth", "roll", "pitch", "height"):
            text = (out / f"hist_{name}.csv").read_text()
            assert text.startswith("bin_lo,bin_hi,count\n")
        assert "relative-support ratio" in capsys.readouterr().out

    def test_stride_changes_attitude_histograms(self, tmp_path):
        fleet = ["--seed", "4", "--frames", "2", "--resolution", "64x116"]
        for stride in ("1", "16"):
            assert run(["stats", "--out", str(tmp_path / stride),
                        "--stride", stride] + fleet) == 0
        for name in ("roll", "pitch", "height"):
            fine = (tmp_path / "1" / f"hist_{name}.csv").read_text()
            coarse = (tmp_path / "16" / f"hist_{name}.csv").read_text()
            assert fine != coarse, name


    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bins_below_one_exit_1(self, tmp_path, capsys, bins):
        out = tmp_path / "s"
        assert run(["stats", "--out", str(out), "--bins", bins] + SMALL) == 1
        assert "--bins must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_stride_1_memory_does_not_grow_with_pixels(self, tmp_path):
        # Each used plane is one weighted sample; holding every pixel's
        # roll/pitch/height took ~364 MB here. A child's ru_maxrss includes
        # the RSS of the process it was forked from, so the CLI is started
        # from a small intermediate interpreter, not from the test process.
        script = (
            "import os, subprocess, sys\n"
            "proc = subprocess.Popen([sys.executable, '-m', 'gpk.cli']"
            " + sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        src = os.path.dirname(os.path.dirname(gpk.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script, "stats", "--out", str(tmp_path / "s"),
             "--frames", "6", "--stride", "1"],
            env=env, capture_output=True, text=True, timeout=300)
        code, maxrss_kib = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
        assert maxrss_kib < 200 * 1024


def csv_columns(path):
    """Header and the columns of a CSV file, the numeric ones as float arrays."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    cols = list(zip(*rows))
    return header, [np.array([float(x) for x in c]) if name not in
                    ("frame_id", "condition") else list(c)
                    for name, c in zip(header, cols)]


class TestCsvNumbers:
    """Every numeric CSV field is a plain number equal to the array value."""

    FLEET = ["--seed", "3", "--frames", "3"]

    def test_stats_histograms(self, tmp_path):
        out = tmp_path / "s"
        assert run(["stats", "--out", str(out)] + self.FLEET) == 0
        frames = synthesize_scene(SceneConfig(seed=3, n_frames=3))
        hists = (analysis.depth_histogram(frames, 64),
                 *analysis.attitude_histograms(frames, 64, stride=16))
        for name, hist in zip(("depth", "roll", "pitch", "height"), hists):
            header, (lo, hi, count) = csv_columns(out / f"hist_{name}.csv")
            assert header == ["bin_lo", "bin_hi", "count"]
            assert np.array_equal(lo, hist.edges[:-1])
            assert np.array_equal(hi, hist.edges[1:])
            assert np.array_equal(count, hist.counts)

    def test_perturb_scatter_series(self, tmp_path):
        out = tmp_path / "p"
        assert run(["perturb", "--out", str(out), "--sigma", "0.05"]
                   + self.FLEET) == 0
        frames = synthesize_scene(SceneConfig(seed=3, n_frames=3))
        pairs = _perturbation_pairs(len(frames), 0.05, 3)
        for pert in (None, pairs):
            for q, series in analysis.v_correlation_series(
                    frames, perturb=pert).items():
                _, (fids, v, values, cond) = csv_columns(
                    out / f"scatter_{q}_{series.condition}.csv")
                assert fids == series.frame_ids
                assert np.array_equal(v, series.v)
                assert np.array_equal(values, series.values)
                assert set(cond) == {series.condition}


@pytest.mark.parametrize("command", ["perturb", "stats"])
def test_jobs_only_where_a_pool_runs(tmp_path, capsys, command):
    assert usage_exit_code([command, "--out", str(tmp_path / "o"),
                            "--jobs", "2"] + SMALL, capsys) == 1


# SHA-256 over the names and SHA-256s of the data files whose names start
# with one of the prefixes (manifest.json is excluded: it records wall time).
# A refactor that keeps the outputs must keep these. The gen-maps depth maps
# and report.csv keep the digests of the dense-only GPKM writer; the global
# and refined maps are pinned in the piecewise layout.
GEN_MAPS = "gen-maps --seed 5 --frames 2 --resolution 64x116 --stride "
DEPTH_AND_REPORT, PLANE_MAPS, ALL = ("depth_", "report.csv"), ("global_", "refined_"), ("",)
PINNED_OUTPUTS = {
    "gen-maps-s1": (
        GEN_MAPS + "1", DEPTH_AND_REPORT,
        "5fe3fa34b7c4cc7f372920c2943f364bb0d686b559a5aa4ee1a2a1d3b9f98c7f"),
    "gen-maps-s1-planes": (
        GEN_MAPS + "1", PLANE_MAPS,
        "c68d12cd713756e9425321d4703006567d2bdb4c46501b93f18f2e0e058352de"),
    "gen-maps-s16": (
        GEN_MAPS + "16", DEPTH_AND_REPORT,
        "8e4208062f6ffee6fbaa24fcf03e8faa321e49bdd05db37872956644cb49eddd"),
    "gen-maps-s16-planes": (
        GEN_MAPS + "16", PLANE_MAPS,
        "28ca5a5591fbc8517c53bad06911b4926f586519f734db68aa15ac17abeb3a7d"),
    "stats": (
        "stats --seed 0 --frames 4", ALL,
        "b0606778c1000655ce8b8502f317bdd787e472d604e9f53dae78349fe9a59c40"),
    "perturb": (
        "perturb --seed 0 --frames 4", ALL,
        "102ce604c609d56bc955445ad10bd0921c00f335a42d79a1018d3879d7f4167c"),
    "synth": (
        "synth --seed 5 --frames 3", ALL,
        "457117b5e02100bb45b4ce035eb4df85551a3e197dae0f361272a6fd28953f4a"),
}


@pytest.mark.parametrize("name", PINNED_OUTPUTS)
def test_pinned_output_digests(tmp_path, name):
    command, prefixes, want = PINNED_OUTPUTS[name]
    assert run(command.split() + ["--out", str(tmp_path / name)]) == 0
    digest = hashlib.sha256()
    for file, blob in dir_bytes(tmp_path / name).items():
        if file.startswith(prefixes):
            digest.update(f"{file} {hashlib.sha256(blob).hexdigest()}\n".encode())
    assert digest.hexdigest() == want


def test_off_plane_reports_pinned(tmp_path):
    # On the fleets above every |refined - global| is at most 6.5e-16, so
    # their report.csv would not show a residual summed in another order.
    # These labels leave the plane: twelve real frames, at both strides.
    synth = synth_off_plane(tmp_path, 4, frames=12)
    digest = hashlib.sha256()
    for stride in ("1", "16"):
        for i in range(12):
            out = tmp_path / f"maps_{stride}_{i}"
            assert run(["gen-maps", "--out", str(out), "--stride", stride]
                       + real_inputs(synth, f"{i:06d}")) == 0
            digest.update((out / "report.csv").read_bytes())
    assert digest.hexdigest() == (
        "e7aa7d44ea6f3c783f9b5ab0255f62177e6ac2939eae9faae4cad36e4a683195")


class TestPlaneMapFiles:
    """gen-maps writes global and refined maps as refine_map's PlaneMap:
    every file decodes to its float32 plane table indexed per pixel, bit
    for bit."""

    @staticmethod
    def gen_maps_frames(argv):
        assert run(argv) == 0
        frames, _ = _frames_from_args(build_parser().parse_args(argv))
        return frames

    @staticmethod
    def assert_files_hold_plane_table(out, frame, stride):
        refined, _ = refine_map(frame.ground, frame.objects.box3d,
                                *frame.map_grid(stride))
        table = refined.planes.astype("<f4")
        ids = np.repeat(refined.ids, refined.lengths).reshape(refined.h, refined.w)
        fid = frame.frame_id
        assert (out / f"global_{fid}.gpkm").stat().st_size <= 64
        for tag, want in (("global", table[np.full_like(ids, -1)]),
                          ("refined", table[ids])):
            path = out / f"{tag}_{fid}.gpkm"
            data, mask = unpack_map(path.read_bytes())
            assert mask is None and data.dtype == np.float32, tag
            assert np.array_equal(data.view(np.uint32), want.view(np.uint32)), tag
            loaded = load_denorm_map(path).data
            assert np.array_equal(loaded.view(np.uint64),
                                  want.astype(np.float64).view(np.uint64)), tag
        return ids, len(table) - 1  # the per-pixel plane ids, and the global's

    @pytest.mark.parametrize("stride", ["1", "16"])
    def test_synthetic_fleet(self, tmp_path, stride):
        out = tmp_path / "maps"
        argv = ["gen-maps", "--out", str(out), "--stride", stride,
                "--seed", "5", "--frames", "2", "--resolution", "64x116"]
        for frame in self.gen_maps_frames(argv):
            self.assert_files_hold_plane_table(out, frame, int(stride))

    def test_labels_off_the_plane(self, tmp_path):
        # 400 boxes moved off the frame's plane: many sub-planes, many runs.
        synth = synth_off_plane(tmp_path, 6)
        out = tmp_path / "maps"
        (frame,) = self.gen_maps_frames(["gen-maps", "--out", str(out)]
                                        + real_inputs(synth))
        ids, global_id = self.assert_files_hold_plane_table(out, frame, 1)
        sub_plane = ids != global_id
        assert ids[sub_plane].max() > 10 and np.count_nonzero(sub_plane) > ids.size // 4


class TestSynth:
    def test_writes_frame_triples(self, tmp_path):
        out = tmp_path / "d"
        assert run(["synth", "--out", str(out), "--seed", "7",
                    "--frames", "10"]) == 0
        names = os.listdir(out)
        for tag in ("label", "calib", "denorm"):
            assert sum(n.startswith(tag) for n in names) == 10

    def test_manifest_digest_stable(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["synth", "--out", str(a), "--seed", "7", "--frames", "4"])
        run(["synth", "--out", str(b), "--seed", "7", "--frames", "4",
             "--jobs", "3"])
        assert dir_bytes(a) == dir_bytes(b)
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["outputs"] != []  # same set of files, different dirs
        assert len(ma["outputs"]) == len(mb["outputs"])

    def test_config_file_flags_win(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(
            "n_frames = 2  # overridden by --frames\n"
            "objects_per_frame = 5\n"
            "pitch_lo = 0.170\n"
            "pitch_hi = 0.180\n"
        )
        out = tmp_path / "d"
        assert run(["synth", "--out", str(out), "--seed", "1",
                    "--config", str(cfg), "--frames", "3"]) == 0
        labels = [n for n in os.listdir(out) if n.startswith("label")]
        assert len(labels) == 3
        text = (out / "label_000000.txt").read_text()
        assert len(text.strip().split("\n")) == 5

    def test_unknown_config_key_exit_1(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("bogus_key = 3\n")
        assert run(["synth", "--out", str(tmp_path / "d"), "--config",
                    str(cfg)]) == 1

    @pytest.mark.parametrize("command,text,field", [
        ("synth", "objects_per_frame = 4.5", "objects_per_frame"),
        ("synth", "n_frames = 2.5", "n_frames"),
        ("gen-maps", "image_height = 300.5", "image_height"),
        ("synth", "edge_margin = abc", "edge_margin"),
        ("synth", "depth_lo = 0\ndepth_hi = 0", "depth_range"),
        ("synth", "focal = nan", "focal"),
        ("synth", "pitch_lo = abc", "pitch_range"),
        ("synth", "pitch_range = 0.2", "pitch_range"),
    ])
    def test_invalid_config_value_exit_1(self, tmp_path, capsys, command, text,
                                         field):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "d"
        extra = ["--stride", "16"] if command == "gen-maps" else []
        assert run([command, "--out", str(out), "--config", str(cfg)]
                   + extra) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "stats", "check-attn"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        out = ["--out", str(tmp_path / "d")] if command != "check-attn" else []
        assert usage_exit_code([command, "--seed", "-3"] + out, capsys) == 1


class TestLosses:
    def test_identical_files_zero_total(self, tmp_path, capsys):
        out = tmp_path / "d"
        run(["synth", "--out", str(out), "--seed", "3", "--frames", "1"])
        label = str(out / "label_000000.txt")
        assert run(["losses", "--pred", label, "--labels", label]) == 0
        assert "total: 0.000000" in capsys.readouterr().out

    def test_differing_files_positive_total(self, tmp_path, capsys):
        out = tmp_path / "d"
        run(["synth", "--out", str(out), "--seed", "3", "--frames", "2"])
        assert run([
            "losses",
            "--pred", str(out / "label_000000.txt"),
            "--labels", str(out / "label_000001.txt"),
        ]) == 0
        total = float(capsys.readouterr().out.strip().split("total: ")[1])
        assert total > 0

    def test_pinned_stdout(self, tmp_path, capsys):
        out = tmp_path / "d"
        run(["synth", "--out", str(out), "--seed", "3", "--frames", "2"])
        argv = ["losses", "--pred", str(out / "label_000000.txt"),
                "--labels", str(out / "label_000001.txt")]
        planes = ["--pred-denorm", str(out / "denorm_000000.txt"),
                  "--denorm", str(out / "denorm_000001.txt")]
        capsys.readouterr()
        head = ("classification: 0.000000\nsize2d: 637.678323\n"
                "center3d: 110.700903\ngiou: 1.791715\nsize3d: 0.464235\n"
                "angle: 1.651708\ndepth: 142.599391\n")
        assert run(argv) == 0
        assert capsys.readouterr().out == (
            head + "denorm: 0.000000\ntotal: 7078.586512\n")
        assert run(argv + planes) == 0
        assert capsys.readouterr().out == (
            head + "denorm: 0.116783\ntotal: 7078.703295\n")

    def test_plane_l1_enters_total_at_weight_one(self, tmp_path, capsys):
        out = tmp_path / "d"
        run(["synth", "--out", str(out), "--seed", "3", "--frames", "2"])
        argv = ["losses", "--pred", str(out / "label_000000.txt"),
                "--labels", str(out / "label_000001.txt")]
        capsys.readouterr()
        printed = []
        for extra in ([], ["--pred-denorm", str(out / "denorm_000000.txt"),
                           "--denorm", str(out / "denorm_000001.txt")]):
            assert run(argv + extra) == 0
            printed.append(dict(line.split(": ") for line in
                                capsys.readouterr().out.splitlines()))
        without, with_planes = printed
        want = denorm_l1(*(parse_ground_plane((out / f).read_text()).params()
                           for f in ("denorm_000000.txt", "denorm_000001.txt")))
        assert want > 0 and WEIGHTS["denorm"] == 1.0
        assert with_planes["denorm"] == f"{want:.6f}"
        assert float(with_planes["total"]) - float(without["total"]) == (
            pytest.approx(want, abs=1.5e-6))
        assert all(with_planes[n] == without[n] for n in COMPONENT_NAMES[:-1])

    @pytest.mark.parametrize("flag", ["--pred-denorm", "--denorm"])
    def test_one_plane_flag_alone_exit_1(self, tmp_path, capsys, flag):
        out = tmp_path / "d"
        run(["synth", "--out", str(out), "--seed", "3", "--frames", "1"])
        label = str(out / "label_000000.txt")
        capsys.readouterr()
        assert run(["losses", "--pred", label, "--labels", label,
                    flag, str(out / "denorm_000000.txt")]) == 1
        assert capsys.readouterr().err == (
            "error: need both --pred-denorm and --denorm\n")

    @pytest.mark.parametrize("field, pred, labels, bad", [
        ("10 20 30 40", "0 0 1e200 1e200", "10 20 30 40", "giou"),  # areas overflow
        ("2 4.5", "1e308 4.5", "-1e308 4.5", "center3d"),  # x - x overflows
    ])
    def test_non_finite_component_named(self, tmp_path, capsys, field, pred,
                                        labels, bad):
        line = "Car 0 0 0 10 20 30 40 1.5 1.8 4.2 2 4.5 55 0.25\n"
        (tmp_path / "pred.txt").write_text(line.replace(field, pred))
        (tmp_path / "labels.txt").write_text(line.replace(field, labels))
        assert run(["losses", "--pred", str(tmp_path / "pred.txt"),
                    "--labels", str(tmp_path / "labels.txt")]) == 2
        assert capsys.readouterr().err == (
            f"error: loss components must be finite: {bad}\n")

    def test_missing_file_exit_1(self, tmp_path):
        assert run(["losses", "--pred", str(tmp_path / "a.txt"),
                    "--labels", str(tmp_path / "b.txt")]) == 1

    def test_object_count_mismatch_exit_1(self, tmp_path, capsys):
        out = tmp_path / "d"
        run(["synth", "--out", str(out), "--seed", "3", "--frames", "1"])
        label = out / "label_000000.txt"
        one = tmp_path / "one.txt"
        one.write_text(label.read_text().splitlines()[0] + "\n")
        assert run(["losses", "--pred", str(one), "--labels", str(label)]) == 1
        assert "object counts differ: 1 vs 40" in capsys.readouterr().err

    @pytest.mark.parametrize("box", ["30 20 10 40", "10 40 30 20", "10 20 10 40"])
    @pytest.mark.parametrize("bad", ["pred", "labels"])
    def test_bad_2d_box_names_file_and_line(self, tmp_path, capsys, box, bad):
        good = "Car 0 0 0 10 20 30 40 1.5 1.8 4.2 2 4.5 55 0.25\n"
        files = {name: tmp_path / f"{name}.txt" for name in ("pred", "labels")}
        for name, path in files.items():
            path.write_text(good)
        files[bad].write_text("\n" + good + good.replace("10 20 30 40", box))
        assert run(["losses", "--pred", str(files["pred"]),
                    "--labels", str(files["labels"])]) == 1
        assert capsys.readouterr().err == (
            f"error: line 3: 2D box needs right > left, bottom > top "
            f"in {files[bad]}\n")


def test_every_option_has_help():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    missing = [f"{command} {action.option_strings[0]}"
               for command, sub in subparsers.choices.items()
               for action in sub._actions
               if action.option_strings and "-h" not in action.option_strings
               and not action.help]
    assert missing == []


class TestCheckAttn:
    def test_all_invariants_pass(self, capsys):
        assert run(["check-attn", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 6

    def test_fixture_written(self, tmp_path):
        out = tmp_path / "fx"
        assert run(["check-attn", "--seed", "5", "--out", str(out)]) == 0
        fixture = json.loads((out / "attention_fixture.json").read_text())
        assert set(fixture["digests"]) == {"queries_out", "ground_attention"}

    def test_out_writes_manifest(self, tmp_path):
        out = tmp_path / "fx"
        assert run(["check-attn", "--seed", "5", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "check-attn"
        assert manifest["outputs"] == [str(out / "attention_fixture.json")]


class TestImportCost:
    def test_scipy_spatial_not_loaded_by_import_or_synth(self, tmp_path):
        # scipy.spatial is most of `import gpk`'s time; only triangulation
        # should load it.
        script = (
            "import sys, gpk\n"
            "from gpk.cli import main\n"
            "assert 'scipy.spatial' not in sys.modules, 'import gpk'\n"
            f"assert main(['synth', '--out', {str(tmp_path)!r}, '--frames', '2']) == 0\n"
            "assert 'scipy.spatial' not in sys.modules, 'gpk synth'\n"
        )
        src = os.path.dirname(os.path.dirname(gpk.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
