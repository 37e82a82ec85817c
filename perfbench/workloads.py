"""The benchmark's workloads: untimed set-up, one timed call, output checks.

Each workload drives gpk through its public entry points only:
``gpk.cli.main`` for commands and ``gpk.mapfile.load_*`` for reads.  Inputs
come from the seed alone.  Call ``i`` of a workload is deterministic, so a
repeated call must reproduce the digest of its first run.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import zlib

import numpy as np

from gpk import cli, mapfile
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

import counts

H, W = 512, 928  # gen-maps default resolution
STRIDE = 16
DENSE_FRAMES, DENSE_OBJECTS = 48, 400
KINDS = ("depth", "global", "refined")
DENORM_ATOL = 1e-14  # a few ulp of plane parameters of order 1-10


class CheckFailed(Exception):
    pass


def run_cli(argv) -> str:
    """One in-process gpk command; returns its stdout, raises on a non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise CheckFailed(f"gpk {argv[0]} exited {rc}")
    return out.getvalue()


def data_files(directory):
    """Output files of a command, minus manifest.json, which records wall time."""
    return sorted(n for n in os.listdir(directory) if n != "manifest.json")


def data_bytes(directory) -> int:
    return sum(os.path.getsize(os.path.join(directory, n)) for n in data_files(directory))


def check_gpkm(kind, blob, h, w, plane=None) -> None:
    data, mask = mapfile.unpack_map(blob)
    channels, has_mask = (1, True) if kind == "depth" else (4, False)
    if data.shape != (h, w, channels) or (mask is not None) != has_mask:
        raise CheckFailed(f"{kind} map decodes to {data.shape}, mask={mask is not None}")
    if mask is not None and mask.shape != (h, w):
        raise CheckFailed(f"depth mask shape {mask.shape}")
    if kind == "global" and not np.all(data == plane.params().astype(np.float32)):
        raise CheckFailed("global map differs from the frame's plane in float32")


def crc(chunks, value=0) -> int:
    """CRC-32 over byte chunks: cheap enough to digest every call's outputs."""
    for chunk in chunks:
        value = zlib.crc32(chunk, value)
    return value


def check_maps_dir(directory, planes, h, w) -> int:
    """Check one gen-maps output directory; return the digest of its data files."""
    digest = 0
    names = data_files(directory)
    for name in names:
        with open(os.path.join(directory, name), "rb") as f:
            blob = f.read()
        digest = crc((name.encode(), blob), digest)
        if name.endswith(".gpkm"):
            kind, fid = name[:-5].split("_")
            check_gpkm(kind, blob, h, w, planes[int(fid)])
    with open(os.path.join(directory, "report.csv")) as f:
        rows = [line.split(",") for line in f.read().splitlines()[1:]]
    if len(rows) != len(planes) or any(r[2] != "0" for r in rows):
        raise CheckFailed("report.csv: missing frames or insufficient_points != 0")
    if len(names) != 3 * len(planes) + 1:
        raise CheckFailed(f"unexpected gen-maps outputs {names}")
    return digest


def mb_packed(directory, frames) -> dict:
    """GPKM megabytes per frame, per map kind, from the files on disk."""
    sizes = dict.fromkeys(KINDS, 0)
    for name in os.listdir(directory):
        if name.endswith(".gpkm"):
            sizes[name.split("_")[0]] += os.path.getsize(os.path.join(directory, name))
    return {f"mapfile.mb_packed.{k}": sizes[k] / frames / 1e6 for k in KINDS}


class Workload:
    name = ""
    # call_ms_tail: the highest of p50/p75/p90/p95/p99 with >= 10 calls beyond
    # it in a run of the length BENCHMARK.json sets, fixed per workload so
    # that runs of different speed report the same percentile.
    tail_pct = 100.0
    frames_per_call = 1

    def __init__(self, work, seed, env):
        self.work, self.seed, self.env = work, seed, env
        self.digests = {}
        # Defects of gpk that the checks see but that leave this workload's
        # outputs correct: name -> files affected in the last checked call.
        self.known_defects = {}

    def subprocess_cli(self, *argv) -> None:
        """Run gpk in a fresh interpreter (set-up work that must not touch
        this process's peak RSS)."""
        subprocess.run([sys.executable, "-m", "gpk.cli", *map(str, argv)],
                       env=self.env, check=True, stdout=subprocess.DEVNULL,
                       timeout=150)

    def expect_digest(self, key, digest) -> None:
        first = self.digests.setdefault(key, digest)
        if first != digest:
            raise CheckFailed(f"output digest of {key!r} changed between repetitions")

    def setup(self) -> None:
        """Untimed: write the calls' inputs; compute what the checks expect."""
        raise NotImplementedError

    def call(self, i) -> str:
        """Timed: call i; returns gpk's stdout."""
        raise NotImplementedError

    def check(self, i, stdout) -> None:
        """Untimed: raise CheckFailed unless call i's outputs are correct."""
        raise NotImplementedError

    def io_bytes(self) -> int:
        """Bytes one call writes (read, for a read-only workload)."""
        raise NotImplementedError

    def cold(self) -> dict:
        """What a fresh interpreter does to produce the workload's first result."""
        raise NotImplementedError

    def counts(self) -> dict:
        """Untimed exact counts over this workload's inputs (traced runs)."""
        raise NotImplementedError


class FleetFullres(Workload):
    name = "fleet-fullres"
    tail_pct = 100.0  # ~7 calls per run, too few for any percentile: the slowest

    def setup(self):
        self.frames = synthesize_scene(SceneConfig(seed=self.seed))
        self.frames_per_call = len(self.frames)
        self.planes = [f.ground for f in self.frames]
        self.out = self.work / "maps"

    def call(self, i):
        return run_cli(["gen-maps", "--out", self.out, "--seed", self.seed,
                        "--jobs", 1])

    def check(self, i, stdout):
        self.expect_digest("maps", check_maps_dir(self.out, self.planes, H, W))

    def io_bytes(self):
        return data_bytes(self.out)

    def cold(self):
        return {"cli": [["gen-maps", "--out", str(self.work / "cold"), "--seed",
                         str(self.seed), "--frames", "1", "--jobs", "1"]]}

    def counts(self):
        jobs = [(f.ground, [o.box3d for o in f.objects], f.rig.intrinsics, H, W)
                for f in self.frames]
        return {**counts.triangle_counts(jobs),
                **mb_packed(self.out, self.frames_per_call),
                "dataio.objects_parsed": 0}


class FramesDenseS16(Workload):
    name = "frames-dense-s16"
    tail_pct = 90.0  # ~115 calls per run: p90 is the highest with >= 10 beyond

    def setup(self):
        self.data = self.work / "data"
        os.makedirs(self.data)
        cfg = self.work / "dense.cfg"
        cfg.write_text(f"objects_per_frame = {DENSE_OBJECTS}\n")
        self.subprocess_cli("synth", "--out", self.data, "--seed", self.seed,
                            "--frames", DENSE_FRAMES, "--config", cfg)
        self.planes = [parse_ground_plane(self.path("denorm", f).read_text())
                       for f in range(DENSE_FRAMES)]
        self.out = self.work / "maps"

    def path(self, tag, frame):
        return self.data / f"{tag}_{frame:06d}.txt"

    def argv(self, frame, out):
        return ["gen-maps", "--out", out, "--calib", self.path("calib", frame),
                "--labels", self.path("label", frame), "--denorm",
                self.path("denorm", frame), "--stride", STRIDE, "--jobs", 1]

    def call(self, i):
        return run_cli(self.argv(i % DENSE_FRAMES, self.out))

    def check(self, i, stdout):
        frame = i % DENSE_FRAMES
        digest = check_maps_dir(self.out, [self.planes[frame]], H // STRIDE,
                                W // STRIDE)
        self.expect_digest(frame, digest)

    def io_bytes(self):
        return data_bytes(self.out)

    def cold(self):
        return {"cli": [[str(a) for a in self.argv(0, self.work / "cold")]]}

    def counts(self):
        jobs, parsed = [], 0
        for f in range(DENSE_FRAMES):
            objects = parse_labels(self.path("label", f).read_text())
            rig = parse_calibration(self.path("calib", f).read_text())
            parsed += len(objects)
            jobs.append((self.planes[f], [o.box3d for o in objects],
                         counts.scaled(rig.intrinsics, STRIDE),
                         H // STRIDE, W // STRIDE))
        return {**counts.triangle_counts(jobs), **mb_packed(self.out, 1),
                "dataio.objects_parsed": parsed}


class Study(Workload):
    """synth -> perturb -> stats on the default fleet: one call is one session."""

    name = "study"
    tail_pct = 100.0  # ~15 sessions per run, too few for any percentile: the slowest
    steps = ("synth", "perturb", "stats")

    def setup(self):
        self.frames = synthesize_scene(SceneConfig(seed=self.seed))
        self.frames_per_call = len(self.frames)
        self.texts = {}
        for f in self.frames:
            self.texts["label", f.frame_id] = serialize_labels(f.objects)
            self.texts["calib", f.frame_id] = serialize_calibration(f.rig)
            self.texts["denorm", f.frame_id] = serialize_ground_plane(f.ground)

    def call(self, i):
        return "".join(run_cli([step, "--out", self.work / "study" / step,
                                "--seed", self.seed])
                       for step in self.steps)

    def check(self, i, stdout):
        if "attitude-over-depth ordering holds: True" not in stdout:
            raise CheckFailed("perturb: attitude-over-depth ordering does not hold")
        ratio = [line for line in stdout.splitlines()
                 if line.startswith("depth/pitch relative-support ratio:")]
        if len(ratio) != 1 or not float(ratio[0].rsplit(":", 1)[1]) > 1:
            raise CheckFailed(f"stats: depth/pitch ratio not > 1: {ratio}")
        synth_dir = self.work / "study" / "synth"
        parsers = {"label": (parse_labels, serialize_labels),
                   "calib": (parse_calibration, serialize_calibration)}
        bad, drift = [], []
        for (tag, fid), expected in self.texts.items():
            name = f"{tag}_{fid}.txt"
            text = (synth_dir / name).read_text()
            if text != expected:
                bad.append(name)
            elif tag in parsers:
                parse, serialize = parsers[tag]
                if serialize(parse(text)) != text:
                    bad.append(name)
            else:
                # The session never parses its own synth output, so a drift
                # is a parser defect, not a wrong output: parse_ground_plane
                # renormalises an already unit normal and moves the last
                # digits.  Counted and reported; a larger error still fails.
                parsed = parse_ground_plane(text)
                if serialize_ground_plane(parsed) != text:
                    written = [float(v) for v in text.split()]
                    if not np.allclose(parsed.params(), written, rtol=0,
                                       atol=DENORM_ATOL):
                        bad.append(name)
                    drift.append(name)
        if bad:
            raise CheckFailed(f"synth text is wrong or does not parse back: {bad}")
        self.known_defects["denorm_parse_drift"] = drift
        digest = 0
        for step in self.steps:
            d = self.work / "study" / step
            for name in data_files(d):
                digest = crc((f"{step}/{name}".encode(), (d / name).read_bytes()), digest)
        self.expect_digest("session", digest)

    def io_bytes(self):
        return sum(data_bytes(self.work / "study" / step) for step in self.steps)

    def cold(self):
        # The session's first command.  A one-frame session would be cheaper,
        # but perturbing a single frame can legitimately leave no object in
        # view, and perturb then exits 2.
        return {"cli": [["synth", "--out", str(self.work / "cold"), "--seed",
                         str(self.seed)]]}

    def counts(self):
        jobs = []
        for f in self.frames:
            k = f.rig.intrinsics
            # The map size analysis.attitude_histograms uses for `stats`.
            h = max(int(round(2 * k.cy)) // STRIDE, 1)
            w = max(int(round(2 * k.cx)) // STRIDE, 1)
            jobs.append((f.ground, [o.box3d for o in f.objects],
                         counts.scaled(k, STRIDE), h, w))
        return {**counts.triangle_counts(jobs),
                **{f"mapfile.mb_packed.{k}": 0.0 for k in KINDS},
                "dataio.objects_parsed": 0}


class MapsReadback(Workload):
    """A detector's data loader: decode one frame's three GPKM maps per call."""

    name = "maps-readback"
    tail_pct = 95.0  # ~520 calls per run: p95 is the highest with >= 10 beyond

    def setup(self):
        self.maps = self.work / "maps"
        self.subprocess_cli("gen-maps", "--out", self.maps, "--seed", self.seed,
                            "--jobs", 1)
        self.planes = [f.ground for f in synthesize_scene(SceneConfig(seed=self.seed))]
        self.n = len(self.planes)
        self.loaded = None

    def paths(self, frame):
        return [self.maps / f"{kind}_{frame:06d}.gpkm" for kind in KINDS]

    def call(self, i):
        depth, glob, refined = self.paths(i % self.n)
        self.loaded = (mapfile.load_depth_map(depth), mapfile.load_denorm_map(glob),
                       mapfile.load_denorm_map(refined))
        return ""

    def check(self, i, stdout):
        frame = i % self.n
        depth, glob, refined = self.loaded
        self.loaded = None
        if depth.depth.shape != (H, W) or depth.valid.shape != (H, W):
            raise CheckFailed(f"depth map {depth.depth.shape}/{depth.valid.shape}")
        if glob.data.shape != (H, W, 4) or refined.data.shape != (H, W, 4):
            raise CheckFailed("denorm maps have the wrong shape")
        if not np.all(glob.data == self.planes[frame].params().astype(np.float32)):
            raise CheckFailed("global map differs from the frame's plane in float32")
        self.expect_digest(frame, crc(np.ascontiguousarray(a).data for a in (
            depth.depth, depth.valid, refined.data)))

    def io_bytes(self):
        return sum(os.path.getsize(p) for p in self.paths(0))

    def cold(self):
        return {"load": [str(p) for p in self.paths(0)]}

    def counts(self):
        return {"maps.triangles": 0, "maps.empty_triangle_frac": 0.0,
                "maps.covered_px_frac": 0.0, "maps.degenerate_skipped": 0,
                **mb_packed(self.maps, self.n), "dataio.objects_parsed": 0}


WORKLOADS = {w.name: w for w in (FleetFullres, FramesDenseS16, Study, MapsReadback)}
