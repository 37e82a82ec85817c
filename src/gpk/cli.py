"""Command-line front end: map generation, perturbation studies, fleet
statistics, synthetic data, loss evaluation, and attention self-checks.

Frames come from one place: a synthetic fleet, or one real frame when any
of --calib/--labels/--denorm is given. A frame carries its image size:
--resolution if given, else the scene config's (synthetic) or twice the
principal point (real).

Every command that takes --out writes through one `_Output`: it creates
the directory, writes each file atomically (temp + rename; a failed write
leaves no temp file) and records it, and writes manifest.json last. Data
files are byte-reproducible for a fixed seed regardless of --jobs.

gen-maps writes frame i's files on one writer thread while it computes
frame i + 1, with at most one frame in flight. The last frame, report.csv
and manifest.json are written on the calling thread, so a one-frame run
starts no thread. synth writes each frame's files as soon as that frame
is done. A gen-maps run that fails at frame i (exit 2 if it cannot be
computed, 1 if a file cannot be written) leaves the frames before i
complete, nothing of the frames after it, and no report.csv or
manifest.json.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import analysis, attention, svg
from .dataio import (
    FrameRecord,
    SceneConfig,
    parse_calibration,
    parse_ground_plane,
    parse_labels,
    serialize_calibration,
    serialize_ground_plane,
    serialize_labels,
    synthesize_scene,
)
from .errors import ConfigError, GpkError, ParseError
from .losses import COMPONENT_NAMES, denorm_l1, frame_loss_components, total_loss
from .mapfile import MAX_PIECEWISE_VALUES, pack_parts
from .maps import PlaneMap, build_ground_depth_map, refine_map

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GEOMETRY = 2

log = logging.getLogger("gpk")


def _setup_logging():
    level = os.environ.get("GPK_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def atomic_write(path, data) -> None:
    """Write text, or a sequence of byte buffers (in order, never joined),
    via a temp file and rename. If the write or the rename fails, the temp
    file is removed and the error re-raised."""
    mode, parts = ("w", [data]) if isinstance(data, str) else ("wb", data)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode) as f:
            f.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:  # never created, or already gone
            pass
        raise


def _config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@functools.cache
def _versions() -> dict:
    """Versions of gpk and what it runs on. scipy's is its `__version__`:
    once numpy is loaded, `import scipy` (submodules stay unloaded) is
    cheaper than a package-metadata lookup, and gen-maps and stats have
    imported it already."""
    import scipy

    from . import __version__

    return {"gpk": __version__, "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__, "scipy": scipy.__version__}


def write_manifest(args, inputs, outputs, counters, t0) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    cfg["seed"] = getattr(args, "seed", None) or 0
    manifest = {
        "command": args.command,
        "config_digest": _config_digest(cfg),
        "config": cfg,
        "seed": cfg["seed"],
        "inputs": sorted(str(p) for p in inputs),
        "outputs": sorted(str(p) for p in outputs),
        "counters": counters,
        "versions": _versions(),
        "wall_time_s": round(time.monotonic() - t0, 6),
    }
    atomic_write(
        os.path.join(args.out, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


class _Output:
    """A command's --out directory: made at the first write; every file
    is written atomically and recorded, and close() writes the manifest."""

    def __init__(self, args):
        self.args, self.paths, self.t0 = args, [], time.monotonic()

    def write(self, name: str, data) -> None:
        if not self.paths:
            os.makedirs(self.args.out, exist_ok=True)
        path = os.path.join(self.args.out, name)
        atomic_write(path, data)
        self.paths.append(path)

    def write_all(self, files) -> None:
        """write() each (name, data) pair, in order."""
        for name, data in files:
            self.write(name, data)

    def close(self, inputs, counters) -> None:
        write_manifest(self.args, inputs, self.paths, counters, self.t0)


def _parse_resolution(text: str):
    try:
        h, w = text.lower().split("x")
        h, w = int(h), int(w)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}") from None
    if h <= 0 or w <= 0:
        raise argparse.ArgumentTypeError("resolution must be positive")
    return h, w


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def _read_input(name: str, path) -> str:
    if not os.path.exists(path):
        raise ParseError(f"missing {name} file: {path}")
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name} file is not UTF-8 text: {path} ({exc})") from None


def _load_config_file(path) -> dict:
    """key=value lines; '#' comments; values parsed as int/float/str."""
    cfg, text = {}, _read_input("config", path)
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        for cast in (int, float):
            try:
                val = cast(val)
                break
            except ValueError:
                continue
        cfg[key] = val
    return cfg


def _scene_config(args) -> SceneConfig:
    """SceneConfig from defaults, then config file, then explicit flags."""
    values = {}
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        known = set(SceneConfig.__dataclass_fields__)
        for key, val in file_cfg.items():
            # Ranges are spelled as e.g. pitch_lo = 0.165 / pitch_hi = 0.185.
            base, _, which = key.rpartition("_")
            if key in known and which != "range":
                values[key] = val
            elif which in ("lo", "hi") and f"{base}_range" in known:
                name = f"{base}_range"
                lo_hi = values.setdefault(
                    name, list(getattr(SceneConfig, name))
                )
                lo_hi[0 if which == "lo" else 1] = val
            else:
                raise ParseError(f"unknown config key {key!r}")
    for name in ("roll_range", "pitch_range", "height_range", "depth_range"):
        if name in values:
            values[name] = tuple(values[name])
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    if getattr(args, "frames", None) is not None:
        values["n_frames"] = args.frames
    if getattr(args, "resolution", None) is not None:
        values["image_height"], values["image_width"] = args.resolution
    return SceneConfig(**values)


_REAL_INPUTS = ("calib", "labels", "denorm")


def _load_real_frame(args) -> FrameRecord:
    """The frame in --calib/--labels/--denorm. Its image size is
    --resolution, else twice the principal point."""
    for name in _REAL_INPUTS:
        if getattr(args, name) is None:
            raise ParseError(f"--{name} is required when reading real frames")
    rig = parse_calibration(_read_input("calib", args.calib))
    objects = parse_labels(_read_input("labels", args.labels))
    ground = parse_ground_plane(_read_input("denorm", args.denorm))
    cx, cy = float(rig.intrinsics.cx), float(rig.intrinsics.cy)
    if args.resolution is None and not np.isfinite([2 * cy, 2 * cx]).all():
        raise ParseError(f"twice the principal point ({cx!r}, {cy!r}) is not "
                         "finite; give --resolution")
    size = args.resolution or (int(round(2 * cy)), int(round(2 * cx)))
    if min(size) < 1:
        raise ParseError(f"image size {size[0]}x{size[1]} from twice the "
                         "principal point is not positive; give --resolution")
    return FrameRecord(frame_id="000000", objects=objects, rig=rig,
                       ground=ground, image_size=size)


def _frames_from_args(args):
    """(frames, input paths): the real frame if any of --calib/--labels/
    --denorm is given, else the synthetic fleet. For a fleet, args.seed
    becomes its seed (--seed, else the config file's), which the rest of
    the command and the manifest use."""
    paths = [getattr(args, name, None) for name in _REAL_INPUTS]
    if all(p is None for p in paths):
        cfg = _scene_config(args)
        args.seed = cfg.seed
        return synthesize_scene(cfg), []
    for flag in ("frames", "config"):
        if getattr(args, flag) is not None:
            raise ParseError(f"--{flag} applies to synthetic frames only, "
                             "not with --calib/--labels/--denorm")
    return [_load_real_frame(args)], paths


def _per_frame(frames, jobs: int, work):
    """Yield work(frame) for each frame in input order, on `jobs` threads."""
    if jobs <= 1:
        for frame in frames:
            yield work(frame)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(work, frames)


def _map_blobs(frame: FrameRecord, stride: int):
    """The frame's (file name, pack_parts of the map) pairs, plus its
    refinement counters and residual."""
    k, h, w = frame.map_grid(stride)
    # Refine first, so the rasterizer's temporaries are gone before the
    # depth map exists. The plane maps are written as their plane tables.
    refined, stats = refine_map(frame.ground, frame.objects.box3d, k, h, w)
    # mean |refined - global|, each used plane weighted by its pixel count
    planes, (ids, n) = refined.planes, refined.pixel_counts()
    dev = np.abs(planes[ids] - planes[-1]) * n[:, None]
    residual = float(dev.sum()) / (4 * h * w)
    depth = build_ground_depth_map(k, frame.ground, h, w)
    fid = frame.frame_id
    files = [
        (f"depth_{fid}.gpkm", pack_parts(depth.depth, depth.valid)),
        (f"global_{fid}.gpkm", pack_parts(PlaneMap(planes[-1:], [h * w], [0], h, w))),
        (f"refined_{fid}.gpkm", pack_parts(refined)),
    ]
    return files, stats, residual


def cmd_gen_maps(args) -> int:
    out = _Output(args)
    frames, inputs = _frames_from_args(args)
    for _, h, w in (f.map_grid(args.stride) for f in frames):
        if h * w * 4 > MAX_PIECEWISE_VALUES:  # refuse before building the maps
            raise ParseError(f"a {h}x{w} map exceeds {MAX_PIECEWISE_VALUES} "
                             "values of a piecewise map; lower --resolution")
    report, counters = [], {"frames": len(frames)}
    results = _per_frame(frames, args.jobs, lambda f: _map_blobs(f, args.stride))
    # Frame i's files go to one writer thread while frame i + 1 is computed.
    # Its writes end before frame i + 1's are handed over, so at most one
    # frame is in flight; the last frame is written here, so a one-frame
    # run starts no thread.
    writing = None
    with ThreadPoolExecutor(max_workers=1) as writer:
        try:
            for i, frame in enumerate(frames):
                files, stats, residual = next(results)
                done, writing = writing, None
                if done is not None:
                    done.result()
                if i + 1 < len(frames):
                    writing = writer.submit(out.write_all, files)
                else:
                    out.write_all(files)
                # The writer holds the last reference to the maps, so each
                # is freed once written, not after the next frame.
                del files
                for key, value in stats.items():
                    counters[key] = counters.get(key, 0) + value
                report.append(f"{frame.frame_id},{residual!r},"
                              f"{stats['insufficient_points']},"
                              f"{stats['degenerate_skipped']}")
                log.info("frame %s: refinement residual %.3g", frame.frame_id,
                         residual)
        finally:
            # Join the --jobs threads now, not when this frame is freed: a
            # write error held by its future keeps the frame in a cycle.
            results.close()
            # The loop failed while frame i's writes were in flight: a write
            # error there comes first in frame order, so it is the one raised.
            if writing is not None:
                writing.result()
    out.write(
        "report.csv",
        "frame_id,refined_vs_global_l1,insufficient_points,degenerate_skipped\n"
        + "\n".join(report) + "\n",
    )
    out.close(inputs, counters)
    return EXIT_OK


def _perturbation_pairs(n: int, sigma: float, seed: int):
    rng = np.random.default_rng([seed, 0x9E3779B9])
    draws = rng.normal(0.0, sigma, size=(n, 2)) if sigma > 0 else np.zeros((n, 2))
    draws = np.clip(draws, -3.0 * sigma, 3.0 * sigma)
    return [tuple(row) for row in draws]


def cmd_perturb(args) -> int:
    out = _Output(args)
    if not 0 <= args.sigma < np.pi / 6:  # 3 sigma stays inside (-pi/2, pi/2)
        raise ParseError("--sigma must be finite and in [0, pi/6)")
    frames, inputs = _frames_from_args(args)
    pairs = _perturbation_pairs(len(frames), args.sigma, args.seed or 0)
    clean = analysis.v_correlation_series(frames)
    pert = analysis.v_correlation_series(frames, perturb=pairs)
    quantities = [args.quantity] if args.quantity else analysis.QUANTITIES
    overlaps = {}
    for q in quantities:
        pair = (clean[q], pert[q])
        overlaps[q] = analysis.overlap_coefficient(*pair)
        for s in pair:
            out.write(f"scatter_{q}_{s.condition}.csv", s.to_csv())
        plot = svg.scatter_svg([(s.condition, s.v, s.values) for s in pair],
                               title=f"{q} vs image row")
        out.write(f"scatter_{q}.svg", plot)
    out.write("overlap.csv", "quantity,overlap\n"
              + "".join(f"{q},{overlaps[q]!r}\n" for q in quantities))
    for q in quantities:
        print(f"overlap({q}) = {overlaps[q]:.6f}")
    if not args.quantity:
        ordering = (overlaps["pitch"] > overlaps["depth"]
                    and overlaps["roll"] > overlaps["depth"])
        print(f"attitude-over-depth ordering holds: {ordering}")
    out.close(inputs, {"frames": len(frames)})
    return EXIT_OK


def cmd_stats(args) -> int:
    out = _Output(args)
    if args.bins < 1:
        raise ParseError("--bins must be >= 1")
    frames, inputs = _frames_from_args(args)
    depth_hist = analysis.depth_histogram(frames, args.bins)
    roll_hist, pitch_hist, height_hist = analysis.attitude_histograms(
        frames, args.bins, stride=args.stride
    )
    for name, hist in (("depth", depth_hist), ("roll", roll_hist),
                       ("pitch", pitch_hist), ("height", height_hist)):
        out.write(f"hist_{name}.csv", hist.to_csv())
        print(f"{name}: relative support {hist.relative_support():.6f}")
    ratio = depth_hist.relative_support() / pitch_hist.relative_support()
    print(f"depth/pitch relative-support ratio: {ratio:.3f}")
    out.close(inputs, {"frames": len(frames)})
    return EXIT_OK


def _frame_texts(frame: FrameRecord):
    """(tag, text) pairs of one frame's label/calib/denorm files."""
    return (
        ("label", serialize_labels(frame.objects)),
        ("calib", serialize_calibration(frame.rig)),
        ("denorm", serialize_ground_plane(frame.ground)),
    )


def cmd_synth(args) -> int:
    out = _Output(args)
    frames, inputs = _frames_from_args(args)
    for frame, texts in zip(frames, _per_frame(frames, args.jobs, _frame_texts)):
        for tag, text in texts:
            out.write(f"{tag}_{frame.frame_id}.txt", text)
    out.close(inputs, {"frames": len(frames)})
    print(f"wrote {len(frames)} frames to {args.out}")
    return EXIT_OK


def _labels_with_boxes(name: str, path):
    """A label file's table. The losses read its 2D boxes, which parse_labels
    does not check: each needs right > left and bottom > top."""
    text = _read_input(name, path)
    objects = parse_labels(text)
    left, top, right, bottom = objects.box2d.T
    bad = np.flatnonzero((right <= left) | (bottom <= top))
    if bad.size:
        line = [n for n, s in enumerate(text.splitlines(), 1) if s.split()][bad[0]]
        raise ParseError(f"2D box needs right > left, bottom > top in {path}", line)
    return objects


def cmd_losses(args) -> int:
    pred = _labels_with_boxes("pred", args.pred)
    gt = _labels_with_boxes("labels", args.labels)
    plane_l1 = 0.0
    if args.pred_denorm or args.denorm:
        if not (args.pred_denorm and args.denorm):
            raise ParseError("need both --pred-denorm and --denorm")
        gp = parse_ground_plane(_read_input("pred-denorm", args.pred_denorm))
        gg = parse_ground_plane(_read_input("denorm", args.denorm))
        plane_l1 = denorm_l1(gp.params(), gg.params())
    comps = frame_loss_components(pred, gt, plane_l1)
    total = total_loss(comps)
    for name in COMPONENT_NAMES:
        print(f"{name}: {comps[name]:.6f}")
    print(f"total: {total:.6f}")
    return EXIT_OK


def _attention_checks(seed: int):
    """(name, passed) pairs for the attention invariant suite."""
    rng = np.random.default_rng(seed)
    n, tg, tv, c, h = 8, 12, 20, 16, 4
    q, fg, fv, blocks = attention.decoder_inputs(rng, n, tg, tv, c, h, seed)
    out1, amap1 = attention.decoder_stack(q, fg, fv, blocks)
    out2, amap2 = attention.decoder_stack(q, fg, fv, blocks)
    row_sums = amap1.weights.sum(axis=1)
    perm = rng.permutation(n)
    out_p, amap_p = attention.decoder_stack(
        attention.FeatureSequence(q.tokens[perm], attention.ROLE_QUERY),
        fg, fv, blocks,
    )
    sa = attention.self_attention(fv, blocks[0].self_attn)
    tperm = rng.permutation(tv)
    sa_p = attention.self_attention(
        attention.FeatureSequence(fv.tokens[tperm], attention.ROLE_VISUAL),
        blocks[0].self_attn,
    )
    return [
        ("attention rows sum to 1", bool(np.max(np.abs(row_sums - 1.0)) <= 1e-9)),
        ("entries in [0, 1]",
         bool(np.all(amap1.weights >= 0) and np.all(amap1.weights <= 1))),
        ("query permutation equivariance",
         bool(np.max(np.abs(out_p.tokens - out1.tokens[perm])) <= 1e-9
              and np.max(np.abs(amap_p.weights - amap1.weights[perm])) <= 1e-9)),
        ("token permutation equivariance",
         bool(np.max(np.abs(sa_p.tokens - sa.tokens[tperm])) <= 1e-9)),
        ("3-block stack finite N x C",
         bool(out1.tokens.shape == (n, c)
              and np.all(np.isfinite(out1.tokens)))),
        ("bit-identical repeated runs",
         bool(np.array_equal(out1.tokens, out2.tokens)
              and np.array_equal(amap1.weights, amap2.weights))),
    ]


def cmd_check_attn(args) -> int:
    out = _Output(args)
    seed = args.seed if args.seed is not None else 0
    checks = _attention_checks(seed)
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failed += not ok
    fixture = attention.decoder_fixture(8, 12, 20, 16, 4, seed)
    print(f"fixture digests: {fixture['digests']}")
    if args.out:
        out.write("attention_fixture.json", attention.fixture_json(fixture))
        out.close([], {"checks": len(checks), "failed": failed})
    return EXIT_OK if failed == 0 else EXIT_GEOMETRY


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error: exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _add_common(p, with_inputs=True):
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_parse_seed, default=None,
                   help="master RNG seed (>= 0)")
    p.add_argument("--config", default=None,
                   help="key=value config file (flags win)")
    p.add_argument("--frames", type=int, default=None,
                   help="synthetic frame count")
    p.add_argument("--resolution", type=_parse_resolution, default=None,
                   help="image size HxW (default: the scene config's, or "
                   "twice a real frame's principal point)")
    if with_inputs:
        p.add_argument("--calib", default=None, help="calibration file")
        p.add_argument("--labels", default=None, help="label file")
        p.add_argument("--denorm", default=None, help="ground-plane file")


@functools.cache  # built once per process; parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpk",
        description="Ground-plane prior toolkit for roadside monocular "
        "3D detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-maps", help="write depth/global/refined maps")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="frame worker threads")
    p.add_argument("--stride", type=int, choices=(1, 16), default=1,
                   help="map size as a fraction of the image: 1 (full "
                   "resolution, the default) or 16")
    p.set_defaults(func=cmd_gen_maps)

    p = sub.add_parser("perturb", help="pose-perturbation overlap study")
    _add_common(p)
    p.add_argument("--sigma", type=float, default=0.3,
                   help="roll/pitch offset std dev, radians, in [0, pi/6)")
    p.add_argument("--quantity", choices=analysis.QUANTITIES, default=None,
                   help="study this quantity only (default: all three, and "
                   "report the attitude-over-depth ordering)")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("stats", help="fleet depth/attitude histograms")
    _add_common(p)
    p.add_argument("--bins", type=int, default=64,
                   help="bins per histogram (>= 1)")
    p.add_argument("--stride", type=int, choices=(1, 16), default=16,
                   help="refined-map size as a fraction of the image for the "
                   "attitude histograms: 16 (the feature stride, the "
                   "default) or 1")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="write synthetic label/calib/denorm files")
    _add_common(p, with_inputs=False)
    p.add_argument("--jobs", type=int, default=1, help="frame worker threads")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("losses", help="evaluate losses between two label files")
    p.add_argument("--pred", required=True, help="predicted label file")
    p.add_argument("--labels", required=True, help="ground-truth label file")
    p.add_argument("--pred-denorm", default=None,
                   help="predicted ground-plane file; with --denorm, the "
                   "denorm term is the L1 between the two planes (else 0)")
    p.add_argument("--denorm", default=None,
                   help="ground-truth ground-plane file (needs --pred-denorm)")
    p.set_defaults(func=cmd_losses)

    p = sub.add_parser("check-attn", help="run attention invariant suite")
    p.add_argument("--seed", type=_parse_seed, default=None,
                   help="seed of the random inputs and fixture (>= 0, "
                   "default 0)")
    p.add_argument("--out", default=None,
                   help="optional directory for the JSON fixture")
    p.set_defaults(func=cmd_check_attn)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ParseError("--jobs must be >= 1")
        return args.func(args)
    except (ParseError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GpkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY


if __name__ == "__main__":
    sys.exit(main())
