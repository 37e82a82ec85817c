"""End-to-end CLI tests: exit codes, file outputs, manifests, and
byte-reproducibility across seeds and job counts."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gpk
from gpk import analysis
from gpk.cli import _load_real_frame, _perturbation_pairs, build_parser, main
from gpk.dataio import (
    CameraRig,
    SceneConfig,
    serialize_calibration,
    synthesize_scene,
)
from gpk.geometry import CameraIntrinsics
from gpk.mapfile import load_denorm_map
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
            _, _, stats = refine_map(frame.ground, frame.objects.box3d,
                                     frame.rig.intrinsics.scaled(16), 4, 7)
            for key in want:
                want[key] += stats[key]
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        assert counters == {"frames": 3, **want}
        assert want["triangles"] > 0 and want["covered_pixels"] > 0
        header = (out / "report.csv").read_text().split("\n")[0]
        assert header == ("frame_id,refined_vs_global_l1,insufficient_points,"
                          "degenerate_skipped")

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        out = tmp_path / "maps"
        assert run(["gen-maps", "--out", str(out), "--jobs", jobs] + SMALL) == 1
        assert "--jobs" in capsys.readouterr().err
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
        planes, tri_id, _ = refine_map(frame.ground, frame.objects.box3d,
                                       *frame.map_grid(16))
        assert np.array_equal(refined, planes[tri_id].astype(np.float32))

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

    def test_negative_sigma_exit_1(self, tmp_path):
        assert run(["perturb", "--out", str(tmp_path / "p"),
                    "--sigma", "-1"] + SMALL) == 1

    def test_single_quantity(self, tmp_path):
        out = tmp_path / "p"
        assert run(["perturb", "--out", str(out), "--quantity", "depth"]
                   + SMALL) == 0
        assert "scatter_pitch_clean.csv" not in os.listdir(out)


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
        for q in analysis.QUANTITIES:
            for pert in (None, pairs):
                series = analysis.v_correlation_series(frames, q, perturb=pert)
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
