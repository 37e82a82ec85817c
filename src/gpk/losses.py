"""Detection losses with analytic gradients: focal, L1, GIoU, angle,
Laplace-uncertainty depth, the weighted total, and the per-frame
components between two label files; plus the denorm L1 between two
plane-equation arrays."""

from __future__ import annotations

import math

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


def l1_loss(pred, target):
    """|pred - target| and its (sub)gradient w.r.t. pred (0 at the kink),
    elementwise over broadcastable arrays or scalars."""
    diff = np.subtract(pred, target, dtype=float)
    return np.abs(diff), np.sign(diff)


def denorm_l1(pred, label) -> float:
    """Mean |pred - label| over every entry of two equal-shape arrays of
    (alpha, beta, gamma, d): one plane's params() or a map's data."""
    pred, label = np.asarray(pred, dtype=float), np.asarray(label, dtype=float)
    if pred.shape != label.shape:
        raise DimensionMismatch(f"{pred.shape} vs {label.shape}")
    return float(np.mean(np.abs(pred - label)))


def angle_loss(pred, target):
    """L1 on the wrapped angular difference, representative in [-pi, pi],
    elementwise over broadcastable arrays or scalars.

    The wrap is math.remainder(diff, 2 pi) exactly: fmod is exact, and so
    is taking 2 pi off a remainder past +-pi; a tie at +-pi goes to the
    even multiple of 2 pi, so it wraps where fmod(diff, 2 pi) truncated
    an odd one. The gradient w.r.t. pred
    is the sign of the wrapped difference (0 at coincidence).
    """
    diff = np.subtract(pred, target, dtype=float)
    r = np.fmod(diff, 2.0 * math.pi)
    odd = np.abs(np.fmod(diff, 4.0 * math.pi)) >= 2.0 * math.pi
    past = (np.abs(r) > math.pi) | ((np.abs(r) == math.pi) & odd)
    wrapped = np.where(past, r - np.copysign(2.0 * math.pi, r), r)
    return np.abs(wrapped), np.sign(wrapped)


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


def laplace_depth_loss(d_pre, d_gt, sigma):
    """(2/sigma)|d_gt - d_pre| + log(sigma) with analytic gradients,
    elementwise over broadcastable arrays or scalars.

    Returns (loss, d loss / d d_pre, d loss / d sigma). For fixed nonzero
    error the loss is minimized in sigma at sigma = 2|d_gt - d_pre|.
    """
    sigma = np.asarray(sigma, dtype=float)
    bad = ~(np.isfinite(sigma) & (sigma > 0))
    if bad.any():
        raise DomainError(f"sigma must be positive, got {sigma[bad].flat[0]}")
    diff = np.subtract(d_pre, d_gt, dtype=float)
    loss = (2.0 / sigma) * np.abs(diff) + np.log(sigma)
    grad_d = (2.0 / sigma) * np.sign(diff)
    grad_sigma = -(2.0 / sigma**2) * np.abs(diff) + 1.0 / sigma
    return loss, grad_d, grad_sigma


# The weight of each component in total_loss.
WEIGHTS = dict(zip(COMPONENT_NAMES, (2.0, 10.0, 5.0, 2.0, 1.0, 1.0, 1.0, 1.0)))


def total_loss(components) -> float:
    """WEIGHTS-weighted sum of a {name: value} mapping of the components,
    as frame_loss_components returns it. A non-finite component is an
    error that names it."""
    missing = [n for n in COMPONENT_NAMES if n not in components]
    if missing:
        raise DomainError(f"missing loss components: {missing}")
    values = {n: float(components[n]) for n in COMPONENT_NAMES}
    bad = [n for n, v in values.items() if not math.isfinite(v)]
    if bad:
        raise DomainError(f"loss components must be finite: {', '.join(bad)}")
    return float(sum(WEIGHTS[n] * v for n, v in values.items()))


def frame_loss_components(pred, gt, plane_l1: float) -> dict:
    """Per-object mean of each loss component between two label tables
    (objects matched by row), plus the given plane L1 as "denorm". A
    component that overflows comes out inf or nan, without a numpy
    warning, for total_loss to name."""
    if len(pred) != len(gt):
        raise ParseError(
            f"prediction/label object counts differ: {len(pred)} vs {len(gt)}"
        )
    p, g = pred.box3d, gt.box3d
    with np.errstate(over="ignore", invalid="ignore"):
        per_object = {
            # Label files carry no class score: the category-mismatch rate.
            "classification": pred.category != gt.category,
            "size2d": sum(l1_loss(pred.box2d, gt.box2d)[0].T),
            "center3d": sum(l1_loss(p[f], g[f])[0] for f in ("x", "y", "z")),
            "giou": giou_loss_2d(pred.box2d, gt.box2d),
            "size3d": sum(l1_loss(p[f], g[f])[0] for f in ("l", "w", "h")),
            "angle": angle_loss(p.theta, g.theta)[0],
            "depth": laplace_depth_loss(p.z, g.z, 1.0)[0],
        }
        comps = {key: float(np.mean(values)) if len(pred) else 0.0
                 for key, values in per_object.items()}
    comps["denorm"] = plane_l1
    return comps
