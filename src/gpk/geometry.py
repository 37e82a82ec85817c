"""Closed-form projective and plane geometry for a roadside pinhole camera.

Coordinate conventions (used everywhere in this package):
  camera frame: x right, y down, z forward (optical axis)
  image frame:  u right (column), v down (row), pixels

A ground plane is stored as (alpha, beta, gamma, d) with unit normal and
d > 0, so d equals the camera's perpendicular height above the plane and
the normal points from the plane toward the camera (upward for a mounted
camera).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane, SingularIntrinsics

_HORIZON_TOL = 1e-12


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with zero skew."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        vals = (self.fx, self.fy, self.cx, self.cy)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise SingularIntrinsics("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def scaled(self, stride: int) -> "CameraIntrinsics":
        """Intrinsics of a map built at 1/stride of the image resolution."""
        return CameraIntrinsics(fx=self.fx / stride, fy=self.fy / stride,
                                cx=self.cx / stride, cy=self.cy / stride)

    def inverse_matrix(self) -> np.ndarray:
        return np.array(
            [
                [1.0 / self.fx, 0.0, -self.cx / self.fx],
                [0.0, 1.0 / self.fy, -self.cy / self.fy],
                [0.0, 0.0, 1.0],
            ]
        )


def unit_planes(raw):
    """(planes, ok) of (n, 4) rows (alpha, beta, gamma, d) scaled to unit
    normals with d > 0. Each row is first scaled by the power of two that
    brings its largest normal component into [0.5, 1), which is exact, so
    squaring the normal neither overflows nor underflows. A row is not ok
    if its normal is zero or not finite (it then comes out not finite) or
    its normalized d is not finite or below 1e-12 (origin on the plane)."""
    raw = np.asarray(raw, dtype=float).reshape(-1, 4)
    with np.errstate(all="ignore"):
        _, e = np.frexp(np.max(np.abs(raw[:, :3]), axis=1, initial=0.0))
        a, b, c, d = np.ldexp(raw, -e[:, None]).T
        norm = np.sqrt(a * a + b * b + c * c)
        s = 1.0 / norm
        s = np.where(d * s < 0, -s, s)
        planes = np.stack([a * s, b * s, c * s, d * s], axis=1)
    return planes, np.isfinite(planes).all(axis=1) & (planes[:, 3] >= 1e-12)


@dataclass(frozen=True)
class GroundPlane:
    """Plane {p : alpha*x + beta*y + gamma*z + d = 0} in camera coordinates."""

    alpha: float
    beta: float
    gamma: float
    d: float

    def __post_init__(self):
        vals = (self.alpha, self.beta, self.gamma, self.d)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("plane parameters must be finite")
        n = math.hypot(self.alpha, self.beta, self.gamma)
        if abs(n - 1.0) > 1e-12:
            raise ValueError("normal must have unit norm (use GroundPlane.from_raw)")
        if self.d <= 0:
            raise DegeneratePlane("d must be positive (camera above the plane)")

    @classmethod
    def from_raw(cls, alpha, beta, gamma, d) -> "GroundPlane":
        """Normalize arbitrary (alpha, beta, gamma, d) to unit normal, d > 0."""
        planes, ok = unit_planes([alpha, beta, gamma, d])
        a, b, c, dn = planes[0].tolist()
        if not ok[0]:
            if not math.isfinite(a + b + c):
                raise DegeneratePlane("zero or non-finite normal")
            if not math.isfinite(dn):
                raise DegeneratePlane("normalized d is not finite")
            raise DegeneratePlane("camera origin lies on the plane (d = 0)")
        return cls(a, b, c, dn)

    @property
    def normal(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma])

    def params(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.d])

    def signed_distance(self, p) -> float:
        p = np.asarray(p, dtype=float)
        return float(self.normal @ p + self.d)


@dataclass(frozen=True)
class CameraAttitude:
    """Roll/pitch of the camera relative to the ground, plus its height."""

    roll: float
    pitch: float
    height: float

    def __post_init__(self):
        if self.height <= 0:
            raise ValueError("height must be positive")
        half_pi = math.pi / 2
        if not (-half_pi < self.roll < half_pi and -half_pi < self.pitch < half_pi):
            raise ValueError("roll and pitch must lie in (-pi/2, pi/2)")


def project_points(points, k: CameraIntrinsics) -> np.ndarray:
    """(n, 2) pixels (u, v) of (n, 3) camera-frame points; no depth check."""
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    with np.errstate(all="ignore"):
        return np.stack([k.fx * p[:, 0] / p[:, 2] + k.cx,
                         k.fy * p[:, 1] / p[:, 2] + k.cy], axis=1)


def ray_ground_denominator(u, v, k: CameraIntrinsics, g: GroundPlane):
    """alpha*(u-cx)/fx + beta*(v-cy)/fy + gamma; the ray meets g at z = -d / it."""
    return g.alpha * (u - k.cx) / k.fx + g.beta * (v - k.cy) / k.fy + g.gamma


def ground_depths(u, v, k: CameraIntrinsics, g: GroundPlane):
    """(depth, valid) at broadcastable pixel coordinates: the depth z of the
    ray-ground intersection, valid where the ray is not parallel to the
    plane (|denominator| > 1e-12) and meets it in front of the camera
    (z > 0). Elsewhere the depth is 0, also where the arithmetic overflows
    or a pixel is not finite. Python floats are taken as 0-d arrays."""
    with np.errstate(all="ignore"):
        denom = np.asarray(ray_ground_denominator(u, v, k, g), dtype=float)
        z = -g.d / denom
    valid = (np.abs(denom) > _HORIZON_TOL) & (z > 0)
    return np.where(valid, z, 0.0), valid


def plane_to_attitude(g: GroundPlane) -> CameraAttitude:
    """Roll, pitch and height of the camera relative to the plane.

    Pitch rotates about camera x, roll about camera z; both are read off
    the upward-oriented unit normal. Yaw about the normal is unobservable
    from a plane equation and is defined as zero.
    """
    # d > 0, which every GroundPlane holds, orients the normal toward the
    # camera; flip only if it points below the horizontal (physically
    # impossible for a mounted camera).
    s = -1.0 if g.beta > 0 else 1.0
    pitch = math.asin(max(-1.0, min(1.0, -g.gamma * s)))
    roll = math.atan2(g.alpha * s, -g.beta * s)
    return CameraAttitude(roll=roll, pitch=pitch, height=g.d)


def attitude_to_plane(a: CameraAttitude) -> GroundPlane:
    """Inverse of plane_to_attitude: n = R_roll(roll) R_pitch(pitch) (0,-1,0)."""
    cp, sp = math.cos(a.pitch), math.sin(a.pitch)
    cr, sr = math.cos(a.roll), math.sin(a.roll)
    return GroundPlane.from_raw(cp * sr, -cp * cr, -sp, a.height)


def bottom_centers(boxes, g: GroundPlane) -> np.ndarray:
    """(n, 3) centers of the boxes' bottom faces, assuming gravity alignment.

    `boxes` is a label table's box3d column (any array with x, y, z and h
    fields). Roadside cameras are pitched, so "down" is the negated ground
    normal rather than camera +y. This is the one place that reads a box's
    location as its center; dataio._sample_boxes places boxes by the inverse.
    """
    centers = np.column_stack([boxes["x"], boxes["y"], boxes["z"]])
    return centers - (0.5 * boxes["h"])[:, None] * g.normal


def bottom_center(b, g: GroundPlane) -> np.ndarray:
    """Center of one box's bottom face: a row of a box3d column."""
    return bottom_centers(np.array([b]), g)[0]


def rotation_roll(angle: float) -> np.ndarray:
    """Rotation about the camera z axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_pitch(angle: float) -> np.ndarray:
    """Rotation about the camera x axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def perturbation_rotation(droll: float, dpitch: float) -> np.ndarray:
    """Camera-frame rotation offset: R_pitch(dpitch) @ R_roll(droll)."""
    return rotation_pitch(dpitch) @ rotation_roll(droll)


def ground_homography(
    k: CameraIntrinsics, droll: float, dpitch: float
) -> np.ndarray:
    """Homography mapping clean pixels to perturbed-camera pixels.

    A rotation about the camera center induces the exact full-image
    homography H = K R K^-1, whatever the ground plane.
    """
    r = perturbation_rotation(droll, dpitch)
    return k.matrix() @ r @ k.inverse_matrix()

