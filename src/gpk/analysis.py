"""Distribution analyses: depth/attitude histograms, v-correlation scatter
series under camera-pose perturbation, and histogram-intersection overlap."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, QuantityMismatch
from .geometry import (bottom_centers, ground_depths, perturbation_rotation,
                       plane_to_attitude, project_points)
from .maps import refine_map

QUANTITIES = ("depth", "roll", "pitch")


@dataclass
class Histogram:
    """Uniform-bin histogram spanning its samples' [min, max]."""

    edges: np.ndarray  # (bins + 1,) strictly increasing
    counts: np.ndarray  # (bins,) int
    mean: float  # sample mean of the histogrammed values

    @classmethod
    def from_values(cls, values, bins: int, weights=None) -> "Histogram":
        """`weights`: positive integer counts, each value counted that often."""
        values = np.asarray(list(values), dtype=float)
        n = np.ones(values.size, int) if weights is None else np.asarray(weights)
        if values.size == 0:
            raise EmptyInput("no values to histogram")
        lo, hi = float(values.min()), float(values.max())
        if hi <= lo:
            hi = lo + 1.0  # all-equal samples: one occupied bin
        edges = np.linspace(lo, hi, bins + 1)
        counts, _ = np.histogram(values, bins=edges, weights=n)
        return cls(edges=edges, counts=counts,
                   mean=float(np.average(values, weights=n)))

    def occupied_support(self):
        """(lo, hi) spanned by the occupied bins, or None if empty."""
        idx = np.nonzero(self.counts)[0]
        if idx.size == 0:
            return None
        return float(self.edges[idx[0]]), float(self.edges[idx[-1] + 1])

    def relative_support(self) -> float:
        """Occupied support width divided by |mean| of the samples."""
        sup = self.occupied_support()
        if sup is None or self.mean == 0:
            return math.inf if sup is not None else 0.0
        return (sup[1] - sup[0]) / abs(self.mean)

    def to_csv(self) -> str:
        lines = ["bin_lo,bin_hi,count"]
        edges = self.edges.tolist()  # Python floats: repr is a plain number
        for lo, hi, c in zip(edges, edges[1:], self.counts.tolist()):
            lines.append(f"{lo!r},{hi!r},{c}")
        return "\n".join(lines) + "\n"


@dataclass
class ScatterSeries:
    """Per-object (v, value) samples for one quantity and condition."""

    quantity: str  # depth | roll | pitch
    condition: str  # clean | perturbed
    frame_ids: list
    v: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if not (np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.values))):
            raise ValueError("scatter series must be finite")

    def to_csv(self) -> str:
        lines = ["frame_id,v,value,condition"]
        for fid, v, val in zip(self.frame_ids, self.v.tolist(),
                               self.values.tolist()):
            lines.append(f"{fid},{v!r},{val!r},{self.condition}")
        return "\n".join(lines) + "\n"


def depth_histogram(frames, bins: int) -> Histogram:
    """Histogram of per-object ground depths at annotated bottom centers:
    the ray through each projected center meets the plane, unless parallel
    to it or behind the camera."""
    depths = []
    for f in frames:
        k, g = f.rig.intrinsics, f.ground
        p = bottom_centers(f.objects.box3d, g)
        z, valid = ground_depths(*project_points(p[p[:, 2] > 0], k).T, k, g)
        depths.append(z[valid])
    depths = np.concatenate(depths) if depths else np.empty(0)
    if not depths.size:
        raise EmptyInput("no annotated boxes")
    return Histogram.from_values(depths, bins)


def map_attitudes(planes):
    """Vectorized (roll, pitch, height) of a (..., 4) plane array."""
    a, b, c, d = np.moveaxis(np.asarray(planes), -1, 0)
    s = np.where(b > 0, -1.0, 1.0)
    pitch = np.arcsin(np.clip(-c * s, -1.0, 1.0))
    roll = np.arctan2(a * s, -b * s)
    return roll, pitch, d


def attitude_histograms(frames, bins: int, stride: int = 16):
    """(roll, pitch, height) histograms with one sample per refined-map pixel.

    Maps are built at 1/stride resolution of each frame's image, matching
    the predictor's feature stride. Each plane a map uses is one sample
    weighted by its pixel count, so memory does not grow with the pixels.
    """
    frames = list(frames)
    if not frames:
        raise EmptyInput("no frames")
    used, counts = [], []
    for f in frames:
        refined, _ = refine_map(f.ground, f.objects.box3d, *f.map_grid(stride))
        ids, n = refined.pixel_counts()
        used.append(refined.planes[ids])
        counts.append(n)
    n = np.concatenate(counts)
    return tuple(Histogram.from_values(q, bins, weights=n)
                 for q in map_attitudes(np.concatenate(used)))


def v_correlation_series(frames, perturb=None) -> dict:
    """{quantity: ScatterSeries} of (projected bottom-center v, value) per
    annotated object, for every quantity in QUANTITIES from one pass.

    Values come from the frame record: the object's camera-frame depth,
    or the stored ground prior's roll/pitch (constant per frame on flat
    ground). With `perturb`, a per-frame (droll, dpitch) rotation about
    the camera center is applied to the projection — bottom centers are
    rotated before projecting and depth is read in the rotated frame —
    while the stored prior is left untouched. Comparing clean and
    perturbed series therefore shows how far each per-pixel
    representation drifts when the mount shifts. Objects that move
    behind the camera or outside the image rows are dropped, so the
    series share their frame ids and rows.
    """
    frames = list(frames)
    if not frames:
        raise EmptyInput("no frames")
    if perturb is not None:
        perturb = list(perturb)
        if len(perturb) != len(frames):
            raise ValueError("need one (droll, dpitch) pair per frame")

    fids, vs, vals = [], [], {q: [] for q in QUANTITIES}
    for i, f in enumerate(frames):
        p = bottom_centers(f.objects.box3d, f.ground)
        if perturb is not None:
            rot = perturbation_rotation(*perturb[i])
            # matmul of stacked 3x3 @ 3x1 rounds as rot @ p does per point.
            p = np.matmul(rot[None], p[:, :, None])[:, :, 0]
        p = p[p[:, 2] > 0]
        v = project_points(p, f.rig.intrinsics)[:, 1]
        seen = (0.0 <= v) & (v < f.image_size[0])
        n = int(seen.sum())
        att = plane_to_attitude(f.ground)
        fids.extend([f.frame_id] * n)
        vs.append(v[seen])
        vals["depth"].append(p[seen, 2])
        vals["roll"].append(np.full(n, att.roll))
        vals["pitch"].append(np.full(n, att.pitch))
    v = np.concatenate(vs)
    if not v.size:
        raise EmptyInput("no visible objects")
    condition = "clean" if perturb is None else "perturbed"
    return {q: ScatterSeries(q, condition, fids, v, np.concatenate(vals[q]))
            for q in QUANTITIES}


def overlap_coefficient(a: ScatterSeries, b: ScatterSeries) -> float:
    """Normalized 32 x 32 histogram intersection over (v, value) joint support."""
    if a.quantity != b.quantity:
        raise QuantityMismatch(f"{a.quantity} vs {b.quantity}")
    if a.v.size == 0 or b.v.size == 0:
        raise EmptyInput("empty scatter series")
    v_lo = min(a.v.min(), b.v.min())
    v_hi = max(a.v.max(), b.v.max())
    x_lo = min(a.values.min(), b.values.min())
    x_hi = max(a.values.max(), b.values.max())
    if v_hi <= v_lo:
        v_hi = v_lo + 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    v_edges = np.linspace(v_lo, v_hi, 33)
    x_edges = np.linspace(x_lo, x_hi, 33)
    ha, _, _ = np.histogram2d(a.v, a.values, bins=[v_edges, x_edges])
    hb, _, _ = np.histogram2d(b.v, b.values, bins=[v_edges, x_edges])
    ha /= ha.sum()
    hb /= hb.sum()
    return float(np.minimum(ha, hb).sum())
