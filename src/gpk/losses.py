"""Detection losses with analytic gradients: focal, L1, GIoU, angle,
Laplace-uncertainty depth, the weighted total, and the per-frame
components between two label files; plus the denorm L1 between two
plane-equation arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, ParseError

COMPONENT_NAMES = (
    "classification",
    "size2d",
    "center3d",
    "giou",
    "size3d",
    "angle",
    "depth",
    "denorm",
)


def focal_loss(
    pred: float, target: int, gamma: float = 2.0, alpha: float = 0.25
) -> tuple[float, float]:
    """Binary focal loss and its gradient w.r.t. the predicted probability.

    -alpha (1-p)^gamma log p for positives, -(1-alpha) p^gamma log(1-p)
    for negatives; pred must lie strictly inside (0, 1).
    """
    pred = float(pred)
    if not 0.0 < pred < 1.0:
        raise DomainError(f"probability must lie in (0, 1), got {pred}")
    if target not in (0, 1):
        raise DomainError(f"target must be 0 or 1, got {target}")
    if gamma < 0 or not 0.0 <= alpha <= 1.0:
        raise DomainError("need gamma >= 0 and alpha in [0, 1]")
    if target == 1:
        p, w = pred, alpha
    else:
        p, w = 1.0 - pred, 1.0 - alpha
    loss = -w * (1.0 - p) ** gamma * math.log(p)
    # d/dp of -w (1-p)^g log p, then chain through p = 1 - pred for negatives.
    dp = w * ((1.0 - p) ** gamma * (-1.0 / p))
    if gamma > 0:
        dp += w * gamma * (1.0 - p) ** (gamma - 1.0) * math.log(p)
    if target == 0:
        dp = -dp
    return loss, dp


def l1_loss(pred: float, target: float) -> tuple[float, float]:
    """|pred - target| and its (sub)gradient w.r.t. pred (0 at the kink)."""
    diff = float(pred) - float(target)
    return abs(diff), float(np.sign(diff))


def denorm_l1(pred, label) -> float:
    """Mean |pred - label| over every entry of two equal-shape arrays of
    (alpha, beta, gamma, d): one plane's params() or a map's data."""
    pred, label = np.asarray(pred, dtype=float), np.asarray(label, dtype=float)
    if pred.shape != label.shape:
        raise DimensionMismatch(f"{pred.shape} vs {label.shape}")
    return float(np.mean(np.abs(pred - label)))


def angle_loss(pred: float, target: float) -> tuple[float, float]:
    """L1 on the wrapped angular difference, representative in (-pi, pi].

    The gradient w.r.t. pred is the sign of the wrapped difference
    (0 at coincidence).
    """
    diff = float(pred) - float(target)
    wrapped = math.remainder(diff, 2.0 * math.pi)  # (-pi, pi]
    return abs(wrapped), float(np.sign(wrapped))


def giou_loss_2d(box_a, box_b):
    """1 - GIoU for axis-aligned (left, top, right, bottom) boxes, or for
    each row of two (n, 4) arrays of them.

    0 for identical boxes; approaches 2 for far-apart boxes (the
    enclosing-box penalty tends to 1 while IoU tends to 0).
    """
    a, b = np.broadcast_arrays(np.asarray(box_a, dtype=float),
                               np.asarray(box_b, dtype=float))
    pairs = np.stack([a, b], axis=-2).reshape(-1, 4)  # box_a's before box_b's
    degenerate = (pairs[:, 2] <= pairs[:, 0]) | (pairs[:, 3] <= pairs[:, 1])
    if degenerate.any():
        box = tuple(pairs[degenerate.argmax()].tolist())
        raise DomainError(f"degenerate box {box}")
    (la, ta, ra, ba), (lb, tb, rb, bb) = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    ix = np.maximum(0.0, np.minimum(ra, rb) - np.maximum(la, lb))
    iy = np.maximum(0.0, np.minimum(ba, bb) - np.maximum(ta, tb))
    inter = ix * iy
    union = (ra - la) * (ba - ta) + (rb - lb) * (bb - tb) - inter
    hull = ((np.maximum(ra, rb) - np.minimum(la, lb))
            * (np.maximum(ba, bb) - np.minimum(ta, tb)))
    giou = inter / union - (hull - union) / hull
    return 1.0 - giou


def laplace_depth_loss(
    d_pre: float, d_gt: float, sigma: float
) -> tuple[float, float, float]:
    """(2/sigma)|d_gt - d_pre| + log(sigma) with analytic gradients.

    Returns (loss, d loss / d d_pre, d loss / d sigma). For fixed nonzero
    error the loss is minimized in sigma at sigma = 2|d_gt - d_pre|.
    """
    sigma = float(sigma)
    if sigma <= 0 or not math.isfinite(sigma):
        raise DomainError(f"sigma must be positive, got {sigma}")
    diff = float(d_pre) - float(d_gt)
    loss = (2.0 / sigma) * abs(diff) + math.log(sigma)
    grad_d = (2.0 / sigma) * float(np.sign(diff))
    grad_sigma = -(2.0 / sigma**2) * abs(diff) + 1.0 / sigma
    return loss, grad_d, grad_sigma


@dataclass(frozen=True)
class LossWeights:
    """Weights for (classification, 2D size, 3D center, GIoU, 3D size,
    angle, depth, denorm) in that order."""

    w1: float = 2.0
    w2: float = 10.0
    w3: float = 5.0
    w4: float = 2.0
    w5: float = 1.0
    w6: float = 1.0
    w7: float = 1.0
    w8: float = 1.0

    def __post_init__(self):
        for w in self.as_tuple():
            if not (math.isfinite(w) and w >= 0):
                raise DomainError(f"weights must be finite and >= 0, got {w}")

    def as_tuple(self) -> tuple:
        return (self.w1, self.w2, self.w3, self.w4,
                self.w5, self.w6, self.w7, self.w8)


def total_loss(components, weights: LossWeights = LossWeights()) -> float:
    """Weighted sum over the eight loss components.

    `components` is a sequence of eight scalars ordered as in LossWeights,
    or a mapping keyed by COMPONENT_NAMES.
    """
    if isinstance(components, dict):
        missing = [n for n in COMPONENT_NAMES if n not in components]
        if missing:
            raise DomainError(f"missing loss components: {missing}")
        values = [float(components[n]) for n in COMPONENT_NAMES]
    else:
        values = [float(v) for v in components]
        if len(values) != len(COMPONENT_NAMES):
            raise DomainError(
                f"expected {len(COMPONENT_NAMES)} components, got {len(values)}"
            )
    if not all(math.isfinite(v) for v in values):
        raise DomainError("loss components must be finite")
    return float(sum(w * v for w, v in zip(weights.as_tuple(), values)))


def frame_loss_components(pred, gt, denorm_l1: float) -> dict:
    """Per-object mean of each loss component between two label tables
    (objects matched by row), plus the given denorm L1."""
    if len(pred) != len(gt):
        raise ParseError(
            f"prediction/label object counts differ: {len(pred)} vs {len(gt)}"
        )
    p, g = pred.box3d, gt.box3d
    per_object = {
        "classification": pred.category != gt.category,
        "size2d": sum(np.abs(pred.box2d - gt.box2d).T),
        "center3d": abs(p.x - g.x) + abs(p.y - g.y) + abs(p.z - g.z),
        "giou": giou_loss_2d(pred.box2d, gt.box2d),
        "size3d": abs(p.l - g.l) + abs(p.w - g.w) + abs(p.h - g.h),
        "angle": [angle_loss(a, b)[0] for a, b in zip(p.theta.tolist(),
                                                      g.theta.tolist())],
        "depth": 2.0 * abs(p.z - g.z),  # laplace_depth_loss at sigma = 1
    }
    comps = {key: float(np.mean(values)) if len(pred) else 0.0
             for key, values in per_object.items()}
    comps["denorm"] = denorm_l1
    return comps
