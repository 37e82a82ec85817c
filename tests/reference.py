"""Scalar reference forms of the geometry kernels and the losses, written out
for one point, pixel, triple or object at a time with Python floats, in the
operation order of the array paths, so that tests can compare those paths
with them bit for bit; and expand_runs, the raster that the rasterizer's
runs stand for, which the pixel oracles compare with."""

import math

import numpy as np

from gpk.errors import DegeneratePlane
from gpk.geometry import GroundPlane


def expand_runs(runs, h, w) -> np.ndarray:
    """The (h, w) raster of row-major runs (lengths, ids), after checking
    that they are maximal and cover the grid."""
    lengths, ids = runs
    assert (lengths > 0).all() and (ids[1:] != ids[:-1]).all()
    assert lengths.sum() == h * w
    return np.repeat(ids, lengths).reshape(h, w)


def project(p, k):
    """(u, v) of one camera-frame point, or None if it lies at or behind
    the camera or its pixel is not finite."""
    x, y, z = (float(c) for c in p)
    if z <= 0:
        return None
    u, v = k.fx * x / z + k.cx, k.fy * y / z + k.cy
    return (u, v) if math.isfinite(u) and math.isfinite(v) else None


def ground_depth(u, v, k, g):
    """Depth z = -d / denominator at which the ray through pixel (u, v)
    meets g, or None where the ray is parallel to it (|denominator| <=
    1e-12, the horizon row) or meets it behind the camera (z <= 0)."""
    denom = g.alpha * (u - k.cx) / k.fx + g.beta * (v - k.cy) / k.fy + g.gamma
    if abs(denom) <= 1e-12:
        return None
    z = -g.d / denom
    return z if z > 0 else None


def back_project(u, v, k, z) -> np.ndarray:
    """Camera-frame point at depth z on the ray through pixel (u, v)."""
    return np.array([(u - k.cx) / k.fx * z, (v - k.cy) / k.fy * z, z])


def plane_through(p1, p2, p3):
    """The GroundPlane through three points from the expanded cross product
    of the edges from p1, or None where they do not span one: a cross
    product at most 1e-9 times the product of the edge lengths (collinear
    points), edges whose squares overflow, or a plane through the origin."""
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = (map(float, p) for p in (p1, p2, p3))
    a = (y2 - y1) * (z3 - z1) - (y3 - y1) * (z2 - z1)
    b = (z2 - z1) * (x3 - x1) - (z3 - z1) * (x2 - x1)
    c = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    d = -a * x1 - b * y1 - c * z1
    try:
        e1 = math.sqrt((x2 - x1) ** 2 + (y2 - y1) ** 2 + (z2 - z1) ** 2)
        e2 = math.sqrt((x3 - x1) ** 2 + (y3 - y1) ** 2 + (z3 - z1) ** 2)
    except OverflowError:
        return None
    if math.sqrt(a * a + b * b + c * c) <= 1e-9 * max(e1 * e2, 1e-300):
        return None
    try:
        return GroundPlane.from_raw(a, b, c, d)
    except DegeneratePlane:
        return None


def _sign(x):
    """-1.0, 0.0 or 1.0: np.sign of a float, which gives 0.0 for -0.0."""
    return float((x > 0) - (x < 0))


def l1(pred, target):
    """(|pred - target|, its gradient w.r.t. pred) for one pair."""
    diff = float(pred) - float(target)
    return abs(diff), _sign(diff)


def laplace(d_pre, d_gt, sigma):
    """(loss, d/d d_pre, d/d sigma) of (2/sigma)|d_pre - d_gt| + log(sigma)
    for one object."""
    diff, sigma = float(d_pre) - float(d_gt), float(sigma)
    return ((2.0 / sigma) * abs(diff) + math.log(sigma),
            (2.0 / sigma) * _sign(diff),
            -(2.0 / sigma**2) * abs(diff) + 1.0 / sigma)


def angle(pred, target):
    """(|wrapped difference|, its sign) for one pair of angles, wrapped to
    [-pi, pi] by math.remainder."""
    wrapped = math.remainder(float(pred) - float(target), 2.0 * math.pi)
    return abs(wrapped), _sign(wrapped)
