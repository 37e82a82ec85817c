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

from .errors import (
    BehindCamera,
    DegeneratePlane,
    CollinearPoints,
    HorizonRay,
    NonPositiveDepth,
    SingularIntrinsics,
)

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


@dataclass(frozen=True)
class Pixel:
    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("pixel coordinates must be finite")


def project_points(points, k: CameraIntrinsics) -> np.ndarray:
    """(n, 2) pixels (u, v) of (n, 3) camera-frame points; no depth check."""
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    with np.errstate(all="ignore"):
        return np.stack([k.fx * p[:, 0] / p[:, 2] + k.cx,
                         k.fy * p[:, 1] / p[:, 2] + k.cy], axis=1)


def project_point(p, k: CameraIntrinsics) -> Pixel:
    """Project a camera-frame point to the image. Requires z > 0."""
    p = np.asarray(p, dtype=float)
    if p[2] <= 0:
        raise NonPositiveDepth(f"z = {p[2]}")
    return Pixel(*project_points(p, k)[0])


def ray_ground_denominator(u, v, k: CameraIntrinsics, g: GroundPlane):
    """alpha*(u-cx)/fx + beta*(v-cy)/fy + gamma; the ray meets g at z = -d / it."""
    return g.alpha * (u - k.cx) / k.fx + g.beta * (v - k.cy) / k.fy + g.gamma


def ground_depth_at_pixel(px: Pixel, k: CameraIntrinsics, g: GroundPlane) -> float:
    """Depth of the ray-ground intersection for one pixel.

    Closed form of the joint pinhole + plane constraint:
    z = -d / (alpha*(u-cx)/fx + beta*(v-cy)/fy + gamma).
    """
    denom = ray_ground_denominator(px.u, px.v, k, g)
    if abs(denom) <= _HORIZON_TOL:
        raise HorizonRay(f"ray at ({px.u}, {px.v}) is parallel to the plane")
    z = -g.d / denom
    if z <= 0:
        raise BehindCamera(f"intersection at z = {z}")
    return z


def back_project(px: Pixel, k: CameraIntrinsics, z: float) -> np.ndarray:
    """Camera-frame point at depth z along the pixel ray."""
    return np.array(
        [(px.u - k.cx) / k.fx * z, (px.v - k.cy) / k.fy * z, z]
    )


def plane_from_three_points(p1, p2, p3) -> GroundPlane:
    """Plane through three non-collinear points (expanded cross-product form)."""
    x1, y1, z1 = (float(v) for v in p1)
    x2, y2, z2 = (float(v) for v in p2)
    x3, y3, z3 = (float(v) for v in p3)
    a = (y2 - y1) * (z3 - z1) - (y3 - y1) * (z2 - z1)
    b = (z2 - z1) * (x3 - x1) - (z3 - z1) * (x2 - x1)
    c = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    d = -a * x1 - b * y1 - c * z1
    # Past ~1e154 `**` raises where maps._fit_sub_planes' float_power gives
    # an infinite edge, and that triple is skipped there as collinear.
    try:
        e1 = math.sqrt((x2 - x1) ** 2 + (y2 - y1) ** 2 + (z2 - z1) ** 2)
        e2 = math.sqrt((x3 - x1) ** 2 + (y3 - y1) ** 2 + (z3 - z1) ** 2)
    except OverflowError:
        raise CollinearPoints("edge length overflows") from None
    scale = max(e1 * e2, 1e-300)
    if math.sqrt(a * a + b * b + c * c) <= 1e-9 * scale:
        raise CollinearPoints("points do not span a plane")
    return GroundPlane.from_raw(a, b, c, d)


def plane_to_attitude(g: GroundPlane) -> CameraAttitude:
    """Roll, pitch and height of the camera relative to the plane.

    Pitch rotates about camera x, roll about camera z; both are read off
    the upward-oriented unit normal. Yaw about the normal is unobservable
    from a plane equation and is defined as zero.
    """
    if g.d <= 0:
        raise DegeneratePlane("d must be positive")
    # d > 0 orients the normal toward the camera; flip only if it points
    # below the horizontal (physically impossible for a mounted camera).
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


def rotate_plane(g: GroundPlane, droll: float, dpitch: float) -> GroundPlane:
    """Plane as seen by the camera after a pure rotation about its center.

    A rotation about the origin maps n -> R n and preserves d.
    """
    n = perturbation_rotation(droll, dpitch) @ g.normal
    return GroundPlane.from_raw(n[0], n[1], n[2], g.d)


def ground_homography(
    k: CameraIntrinsics, droll: float, dpitch: float
) -> np.ndarray:
    """Homography mapping clean pixels to perturbed-camera pixels.

    A rotation about the camera center induces the exact full-image
    homography H = K R K^-1, whatever the ground plane.
    """
    r = perturbation_rotation(droll, dpitch)
    return k.matrix() @ r @ k.inverse_matrix()


def apply_homography(h: np.ndarray, px: Pixel) -> Pixel:
    v = h @ np.array([px.u, px.v, 1.0])
    return Pixel(v[0] / v[2], v[1] / v[2])
