"""KITTI-style label/calibration/denorm files and synthetic roadside scenes."""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneratePlane, ParseError, SingularIntrinsics
from .geometry import (
    CameraAttitude,
    CameraIntrinsics,
    GroundPlane,
    attitude_to_plane,
    project_points,
)

_N_LABEL_FIELDS = 15
# A label row's box: its fields x y z l w h theta sit in the file's
# h w l x y z ry order, so the last 7 numbers of a line view as one box.
BOX3D_DTYPE = np.dtype((np.record, {
    "names": ["x", "y", "z", "l", "w", "h", "theta"],
    "formats": ["f8"] * 7,
    "offsets": [24, 32, 40, 16, 8, 0, 48],
}))
# A frame's objects are one table of these rows, in label-file order.
LABEL_DTYPE = np.dtype((np.record, [
    ("category", object),
    ("truncated", "f8"),
    ("occluded", "f8"),  # an integer; a float, so any integer label reads back
    ("alpha", "f8"),
    ("box2d", "f8", (4,)),  # (left, top, right, bottom) pixels
    ("box3d", BOX3D_DTYPE),
]))
# Why a label line's numbers are rejected, in the order they are checked.
_LABEL_FAULTS = ("numeric fields must be finite", "occluded must be an integer",
                 "box dimensions must be positive", "theta must lie in [-pi, pi)")
# A label line that parses back bit-exactly; occluded is written as an integer.
_LABEL_FORMAT = "%s %.17g %d" + " %.17g" * (_N_LABEL_FIELDS - 3)
# (length, width, height) signs of a box's 8 corners, height varying fastest.
_CORNER_SIGNS = np.array(list(itertools.product((-0.5, 0.5), repeat=3)))
# Ranges of a synthetic box's shape draws, in stream order: length, width,
# height, yaw.
_SHAPE_LO = np.array([3.8, 1.6, 1.4, -math.pi])
_SHAPE_HI = np.array([4.6, 2.0, 1.7, math.pi])
_MAX_ATTEMPTS = 1000  # per object, before a scene counts as unplaceable


@dataclass(frozen=True)
class CameraRig:
    """A frame's camera: its P2 intrinsics. The pose relative to the road
    is the frame's ground plane."""

    intrinsics: CameraIntrinsics


@dataclass(frozen=True)
class FrameRecord:
    frame_id: str
    objects: np.recarray  # the label table (LABEL_DTYPE rows)
    rig: CameraRig
    ground: GroundPlane
    image_size: tuple  # (h, w) pixels

    def map_grid(self, stride: int):
        """(intrinsics, h, w) of a map at 1/stride of the image."""
        h, w = self.image_size
        return (self.rig.intrinsics.scaled(stride), max(h // stride, 1),
                max(w // stride, 1))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def label_table(categories, numbers) -> np.recarray:
    """The label table of `categories` and their (n, 14) numbers in
    label-file order: truncated occluded alpha left top right bottom
    h w l x y z rotation_y. Unvalidated; parse_labels validates."""
    numbers = np.asarray(numbers, dtype=float).reshape(-1, _N_LABEL_FIELDS - 1)
    table = np.empty(len(numbers), LABEL_DTYPE).view(np.recarray)
    table.category = categories
    table.truncated, table.occluded, table.alpha = numbers[:, :3].T
    table.box2d = numbers[:, 3:7]
    table.box3d = np.ascontiguousarray(numbers[:, 7:]).view(BOX3D_DTYPE)[:, 0]
    return table


def parse_labels(text: str) -> np.recarray:
    """Parse KITTI 15-field label lines into a label table.

    Fields: category truncated occluded alpha l t r b h w l x y z rotation_y.
    The location is interpreted as the 3D box center. Strict: exactly 15
    fields per non-empty line, every numeric field a finite number (read
    as float() reads it), occluded an integer, l, w > 0, h >= 0 and
    rotation_y in [-pi, pi). The ParseError names the first bad line, and
    within a line the first failed check in that order.
    """
    rows = [line.split() for line in text.splitlines()]
    linenos = [n for n, fields in enumerate(rows, start=1) if fields]
    rows = [fields for fields in rows if fields]
    # Numbers are read up to the first line with the wrong field count or
    # a field that is not a number; a check failed before it comes first.
    error = None
    for i, fields in enumerate(rows):
        if len(fields) != _N_LABEL_FIELDS:
            error = ParseError(
                f"expected {_N_LABEL_FIELDS} fields, got {len(fields)}", linenos[i]
            )
            rows = rows[:i]
            break
    try:
        numbers = np.array([fields[1:] for fields in rows], dtype=float)
    except ValueError:  # find the first field float() rejects, and its message
        for i, fields in enumerate(rows):
            try:
                [float(v) for v in fields[1:]]
            except ValueError as exc:
                error = ParseError(str(exc), linenos[i])
                rows = rows[:i]
                break
        numbers = np.array([fields[1:] for fields in rows], dtype=float)
    numbers = numbers.reshape(-1, _N_LABEL_FIELDS - 1)
    occluded, theta = numbers[:, 1], numbers[:, 13]
    h, w, l = numbers[:, 7:10].T
    faults = np.column_stack([
        ~np.isfinite(numbers).all(axis=1),
        occluded != np.trunc(occluded),
        (l <= 0) | (w <= 0) | (h < 0),
        ~((-math.pi <= theta) & (theta < math.pi)),
    ])
    bad = np.flatnonzero(faults.any(axis=1))
    if bad.size:
        raise ParseError(_LABEL_FAULTS[int(faults[bad[0]].argmax())],
                         linenos[bad[0]])
    if error is not None:
        raise error
    return label_table([fields[0] for fields in rows], numbers)


def _file_numbers(table) -> np.ndarray:
    """(n, 14) numbers of a label table in label-file order."""
    box = np.ascontiguousarray(table.box3d).view(np.float64).reshape(-1, 7)
    return np.column_stack([table.truncated, table.occluded, table.alpha,
                            table.box2d, box])


def serialize_labels(objects) -> str:
    """A label table as KITTI label lines that parse back to it bit-exactly."""
    return "".join(_LABEL_FORMAT % (category, *numbers) + "\n"
                   for category, numbers in zip(objects.category.tolist(),
                                                _file_numbers(objects).tolist()))


def parse_calibration(text: str) -> CameraRig:
    """Parse the 'P2:' row (3x4 projection) of a KITTI-format calibration file.

    Every non-empty line must be 'key: values'. Other rows (P0, P1, P3,
    R0_rect, Tr_velo_to_cam, Tr_imu_to_velo, ...) are skipped unread, and
    so is P2's 4th column (a stereo baseline offset).
    """
    p = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, colon, rest = line.partition(":")
        if not colon:
            raise ParseError("expected 'key: values' line", lineno)
        if key.strip() != "P2":
            continue
        vals = rest.split()
        if len(vals) != 12:
            raise ParseError(f"expected 12 values for P2, got {len(vals)}", lineno)
        try:
            p = np.array([float(v) for v in vals]).reshape(3, 4)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    if p is None:
        raise ParseError("missing P2 row")
    if p[0, 1] != 0 or p[1, 0] != 0 or not np.allclose(p[2, :3], [0, 0, 1]):
        raise ParseError("P2 must be a zero-skew pinhole projection")
    try:
        k = CameraIntrinsics(fx=p[0, 0], fy=p[1, 1], cx=p[0, 2], cy=p[1, 2])
    except (ValueError, SingularIntrinsics) as exc:
        raise ParseError(f"bad intrinsics: {exc}") from None
    return CameraRig(intrinsics=k)


def serialize_calibration(rig: CameraRig) -> str:
    k = rig.intrinsics
    p2 = (k.fx, 0.0, k.cx, 0.0, 0.0, k.fy, k.cy, 0.0, 0.0, 0.0, 1.0, 0.0)
    return "P2: " + " ".join(_fmt(v) for v in p2) + "\n"


def parse_ground_plane(text: str) -> GroundPlane:
    """Parse a denorm file: four whitespace-separated reals.

    A plane that already has a unit normal and d > 0 is kept as written,
    so serialized planes parse back bit-exactly; any other plane is
    normalized.
    """
    vals = text.split()
    if len(vals) != 4:
        raise ParseError(f"expected 4 values, got {len(vals)}")
    try:
        a, b, c, d = (float(v) for v in vals)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    try:
        return GroundPlane(a, b, c, d)
    except (ValueError, DegeneratePlane):
        pass
    # from_raw squares the normal, which overflows past ~1e154 and rounds
    # to subnormals below ~1e-154. Scaling all four by a power of two first
    # is exact, so every plane between those keeps its bits.
    _, e = math.frexp(max(abs(a), abs(b), abs(c)))
    try:
        return GroundPlane.from_raw(*(math.ldexp(v, -e) for v in (a, b, c, d)))
    except OverflowError:  # only d can overflow: the scaled normal is below 1
        raise ParseError("bad ground plane: d is too large for its normal") from None
    except (ValueError, DegeneratePlane) as exc:
        raise ParseError(f"bad ground plane: {exc}") from None


def serialize_ground_plane(g: GroundPlane) -> str:
    return " ".join(_fmt(v) for v in g.params()) + "\n"


def _is_finite(v) -> bool:
    try:
        return math.isfinite(v)
    except (TypeError, OverflowError):  # not a number, or an int past float
        return False


@dataclass(frozen=True)
class SceneConfig:
    """Deterministic synthetic roadside fleet (DAIR-like defaults)."""

    n_frames: int = 24
    objects_per_frame: int = 40
    image_height: int = 512
    image_width: int = 928
    focal: float = 1000.0
    roll_range: tuple = (-0.01, 0.01)
    pitch_range: tuple = (0.165, 0.185)
    height_range: tuple = (5.5, 6.5)
    depth_range: tuple = (10.0, 200.0)
    seed: int = 0
    edge_margin: float = 16.0

    def __post_init__(self):
        for name in ("n_frames", "objects_per_frame", "image_height",
                     "image_width"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, "
                                  f"got {value!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer, "
                              f"got {self.seed!r}")
        for name in ("focal", "edge_margin"):
            if not _is_finite(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, "
                                  f"got {getattr(self, name)!r}")
        if self.focal <= 0:
            raise ConfigError(f"focal must be positive, got {self.focal!r}")
        for name in ("roll_range", "pitch_range", "height_range", "depth_range"):
            lo, hi = getattr(self, name)
            if not (_is_finite(lo) and _is_finite(hi)):
                raise ConfigError(f"{name} must be two finite numbers, "
                                  f"got ({lo!r}, {hi!r})")
            if not (lo <= hi):
                raise ConfigError(f"{name} is empty: ({lo}, {hi})")
        if self.depth_range[0] <= 0:
            raise ConfigError("depth_range must lie in front of the camera, "
                              f"got lo = {self.depth_range[0]}")
        if min(self.image_height, self.image_width) <= 2 * self.edge_margin:
            # Objects are placed at least edge_margin pixels from every border.
            raise ConfigError(
                f"image size {self.image_height}x{self.image_width} must exceed "
                f"2 * edge_margin = {2 * self.edge_margin:g} pixels per side"
            )

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(
            fx=self.focal,
            fy=self.focal,
            cx=self.image_width / 2.0,
            cy=self.image_height / 2.0,
        )


def _ground_points(r, cfg: SceneConfig, k: CameraIntrinsics, g: GroundPlane):
    """Each (depth, column) pair of draws in `r` as a bottom center (x, y, z)
    on the plane, and whether its image row lies inside the margins."""
    m = float(cfg.edge_margin)
    lo, hi = (float(v) for v in cfg.depth_range)
    z = lo + (hi - lo) * r[0::2]
    u = m + (float(cfg.image_width - cfg.edge_margin) - m) * r[1::2]
    x = (u - k.cx) * z / k.fx
    y = -(g.alpha * x + g.gamma * z + g.d) / g.beta
    v = k.fy * y / z + k.cy
    in_rows = (m <= v) & (v <= cfg.image_height - m)
    return np.stack([x, y, z], axis=1), in_rows.tolist()


def _place_boxes(r, starts, bottoms, cfg: SceneConfig, k, g: GroundPlane):
    """(numbers, empty) of the attempts whose (depth, column) pair is at
    each of `starts`: their (n, 14) label numbers in file order, and
    whether their 2D box is empty. Their shape draws are the next two
    pairs: (length, width) and (height, yaw)."""
    up = g.normal
    fwd = np.array([0.0, 0.0, 1.0]) - up[2] * up
    fwd /= np.linalg.norm(fwd)
    right = np.cross(up, fwd)
    s = np.array(starts)
    l, w, h, theta = (_SHAPE_LO + (_SHAPE_HI - _SHAPE_LO)
                      * r[2 * s[:, None] + 2 + np.arange(4)]).T
    # The box center sits h/2 up the normal from its bottom center.
    center = bottoms[s] + (0.5 * h)[:, None] * up
    cos = np.array([math.cos(t) for t in theta.tolist()])[:, None]
    sin = np.array([math.sin(t) for t in theta.tolist()])[:, None]
    heading = cos * fwd + sin * right
    side = np.cross(up, heading)
    half = _CORNER_SIGNS * np.stack([l, w, h], axis=1)[:, None]  # (n, 8, 3)
    corners = (center[:, None] + half[..., :1] * heading[:, None]
               + half[..., 1:2] * side[:, None] + half[..., 2:] * up)
    px = project_points(corners, k).reshape(len(starts), 8, 2)
    lo, hi = px.min(axis=1), px.max(axis=1)
    size = np.array([cfg.image_width, cfg.image_height], float)
    left_top = np.where(0.0 > lo, 0.0, lo)
    right_bottom = np.where(size < hi, size, hi)
    empty = ((corners[..., 2] <= 0).any(axis=1)
             | (left_top >= right_bottom).any(axis=1))
    numbers = np.zeros((len(starts), _N_LABEL_FIELDS - 1))  # alpha etc. are 0
    numbers[:, 3:] = np.column_stack([left_top, right_bottom, h, w, l, center,
                                      theta])
    return numbers, empty


def _sample_boxes(rng, cfg: SceneConfig, k: CameraIntrinsics, g: GroundPlane):
    """A frame's label table of "Car" boxes, by rejection sampling.

    An attempt draws a depth and a pixel column, puts the bottom center on
    the plane there, and is rejected if its row falls outside the margins;
    an accepted attempt draws (length, width) and (height, yaw), and is
    retried if its 2D box is empty. A draw `rng.uniform(lo, hi)` is
    `lo + (hi - lo)·u` with u the stream's next double, so the frame draws
    its doubles in one block, tests every pair's row at once, and walks
    the block: one pair on a rejection, three on an acceptance. Nothing
    draws from `rng` after the objects, so the unused end of the block
    changes nothing.
    """
    if abs(g.beta) < 1e-9:
        raise ConfigError("vertical ground plane in synthetic scene")
    n = cfg.objects_per_frame
    r = np.empty(0)
    placed, starts, failures = [], [], []
    count = j = failed = 0  # objects placed; the next pair; failed attempts
    with np.errstate(over="ignore", invalid="ignore"):
        while count < n:
            if failed == _MAX_ATTEMPTS:
                raise ConfigError("could not place an object inside the image")
            if 2 * j + 6 > r.size:
                r = np.concatenate([r, rng.random(max(r.size, 8 * n + 64))])
                bottoms, in_rows = _ground_points(r, cfg, k, g)
            if in_rows[j]:
                starts.append(j)
                failures.append(failed)
                j, failed = j + 3, 0
            else:
                j, failed = j + 1, failed + 1
            if count + len(starts) < n:
                continue
            numbers, empty = _place_boxes(r, starts, bottoms, cfg, k, g)
            kept = int(empty.argmax()) if empty.any() else len(starts)
            placed.append(numbers[:kept])
            count += kept
            if kept < len(starts):  # retry that object from the pair after it
                j, failed = starts[kept] + 3, failures[kept] + 1
            starts, failures = [], []
    return label_table(["Car"] * n, np.concatenate(placed))


def synthesize_scene(cfg: SceneConfig):
    """Generate a deterministic fleet of frames.

    Every box's bottom center lies exactly on its frame's ground plane and
    projects inside the image; object depths are uniform over the
    configured range (edge rejection aside). Per-frame child seeds keep
    generation order-independent.
    """
    k = cfg.intrinsics()
    frames = []
    for i in range(cfg.n_frames):
        rng = np.random.default_rng([cfg.seed, i])
        att = CameraAttitude(
            roll=rng.uniform(*cfg.roll_range),
            pitch=rng.uniform(*cfg.pitch_range),
            height=rng.uniform(*cfg.height_range),
        )
        g = attitude_to_plane(att)
        frames.append(
            FrameRecord(
                frame_id=f"{i:06d}",
                objects=_sample_boxes(rng, cfg, k, g),
                rig=CameraRig(intrinsics=k),
                ground=g,
                image_size=(cfg.image_height, cfg.image_width),
            )
        )
    return frames
