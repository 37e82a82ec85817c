"""KITTI-style label/calibration/denorm files and synthetic roadside scenes."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneratePlane, ParseError, SingularIntrinsics
from .geometry import (
    BBox3D,
    CameraAttitude,
    CameraIntrinsics,
    GroundPlane,
    attitude_to_plane,
    project_points,
)

_N_LABEL_FIELDS = 15
# (length, width, height) signs of a box's 8 corners, height varying fastest.
_CORNER_SIGNS = np.array(list(itertools.product((-0.5, 0.5), repeat=3)))


@dataclass(frozen=True)
class LabeledObject:
    category: str
    truncated: float
    occluded: int
    alpha: float
    box2d: tuple  # (left, top, right, bottom) pixels
    box3d: BBox3D


@dataclass(frozen=True)
class CameraRig:
    """A frame's camera: its P2 intrinsics. The pose relative to the road
    is the frame's ground plane."""

    intrinsics: CameraIntrinsics


@dataclass(frozen=True)
class FrameRecord:
    frame_id: str
    objects: tuple  # of LabeledObject
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


def parse_labels(text: str):
    """Parse KITTI 15-field label lines.

    Fields: category truncated occluded alpha l t r b h w l x y z rotation_y.
    The location is interpreted as the 3D box center. Strict: exactly 15
    fields per non-empty line, every numeric field finite.
    """
    objects = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != _N_LABEL_FIELDS:
            raise ParseError(
                f"expected {_N_LABEL_FIELDS} fields, got {len(fields)}", lineno
            )
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
        objects.append(
            LabeledObject(
                category=category,
                truncated=trunc,
                occluded=int(occ),
                alpha=alpha,
                box2d=(l2d, t2d, r2d, b2d),
                box3d=box3d,
            )
        )
    return objects


def serialize_labels(objects) -> str:
    lines = []
    for o in objects:
        b = o.box3d
        fields = (
            [o.category, _fmt(o.truncated), str(o.occluded), _fmt(o.alpha)]
            + [_fmt(v) for v in o.box2d]
            + [_fmt(b.h), _fmt(b.w), _fmt(b.l)]
            + [_fmt(b.x), _fmt(b.y), _fmt(b.z), _fmt(b.theta)]
        )
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


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
    try:
        return GroundPlane.from_raw(a, b, c, d)
    except (ValueError, DegeneratePlane) as exc:
        raise ParseError(f"bad ground plane: {exc}") from None


def serialize_ground_plane(g: GroundPlane) -> str:
    return " ".join(_fmt(v) for v in g.params()) + "\n"


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
        for name in ("roll_range", "pitch_range", "height_range", "depth_range"):
            lo, hi = getattr(self, name)
            if not (lo <= hi):
                raise ConfigError(f"{name} is empty: ({lo}, {hi})")
        if self.n_frames <= 0 or self.objects_per_frame <= 0:
            raise ConfigError("frame and object counts must be positive")
        if self.image_height <= 0 or self.image_width <= 0:
            raise ConfigError("image size must be positive")
        if min(self.image_height, self.image_width) <= 2 * self.edge_margin:
            # Objects are placed at least edge_margin pixels from every border.
            raise ConfigError(
                f"image size {self.image_height}x{self.image_width} must exceed "
                f"2 * edge_margin = {2 * self.edge_margin:g} pixels per side"
            )
        if self.focal <= 0:
            raise ConfigError("focal length must be positive")

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(
            fx=self.focal,
            fy=self.focal,
            cx=self.image_width / 2.0,
            cy=self.image_height / 2.0,
        )


def _sample_box(rng, cfg: SceneConfig, k: CameraIntrinsics, g: GroundPlane):
    # The inverse of geometry.bottom_centers and project_points: a pixel
    # column and depth give the bottom center on the plane, the row test
    # reprojects it, and the box center sits h/2 up the normal from it.
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
        box2d = _project_box2d(box, g, k, h_img, w_img)
        if box2d is None:
            continue
        return box, box2d
    raise ConfigError("could not place an object inside the image")


def _project_box2d(box: BBox3D, g: GroundPlane, k: CameraIntrinsics, h_img, w_img):
    up = g.normal
    fwd = np.array([0.0, 0.0, 1.0]) - up[2] * up
    fwd /= np.linalg.norm(fwd)
    right = np.cross(up, fwd)
    heading = math.cos(box.theta) * fwd + math.sin(box.theta) * right
    side = np.cross(up, heading)
    sl, sw, sh = _CORNER_SIGNS.T[:, :, None]
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
        objects = []
        for _ in range(cfg.objects_per_frame):
            box, box2d = _sample_box(rng, cfg, k, g)
            objects.append(
                LabeledObject(
                    category="Car",
                    truncated=0.0,
                    occluded=0,
                    alpha=0.0,
                    box2d=box2d,
                    box3d=box,
                )
            )
        frames.append(
            FrameRecord(
                frame_id=f"{i:06d}",
                objects=tuple(objects),
                rig=CameraRig(intrinsics=k),
                ground=g,
                image_size=(cfg.image_height, cfg.image_width),
            )
        )
    return frames
