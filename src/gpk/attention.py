"""Forward-only reference attention blocks for the ground-guided decoder.

Deterministic, numpy-only implementations of multi-head self-attention,
cross-attention of one token sequence over another, the feed-forward
sublayer, and the decoder block that chains them. Object queries, ground
embeddings and visual features are all `FeatureSequence`s, told apart by
their role. Intended for invariant and fixture testing, not training:
weights are seeded-random and there is no backward pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

ROLE_VISUAL = "visual"
ROLE_GROUND = "ground"
ROLE_QUERY = "query"


def _as_finite_matrix(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ShapeMismatch(f"{name} must be a non-empty 2-D matrix, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


@dataclass
class FeatureSequence:
    """T x C token matrix with a role tag (visual, ground or query)."""

    tokens: np.ndarray
    role: str = ROLE_VISUAL

    def __post_init__(self):
        self.tokens = _as_finite_matrix(self.tokens, "tokens")


@dataclass
class AttentionMap:
    """N x T nonnegative weights; every row sums to 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_finite_matrix(self.weights, "attention weights")
        if np.any(w < 0) or np.any(w > 1):
            raise ValueError("attention weights must lie in [0, 1]")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("attention rows must sum to 1")
        self.weights = w


def _init(rng, rows: int, cols: int, c: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(c)
    return rng.uniform(-bound, bound, size=(rows, cols))


@dataclass
class BlockWeights:
    """Seeded projection and FFN weights for one block.

    Per-head query/key/value projections are C x (C/h) slices stacked in
    wq/wk/wv (C x C); wo merges the concatenated heads. Linear layers
    carry biases (bq, bk, bv, bo, b1, b2).
    """

    c: int
    heads: int
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray
    w1: np.ndarray  # C x C_ff
    b1: np.ndarray
    w2: np.ndarray  # C_ff x C
    b2: np.ndarray

    def __post_init__(self):
        if self.c < 1 or self.heads < 1 or self.c % self.heads:
            raise ShapeMismatch(
                f"channels ({self.c}) must be divisible by heads ({self.heads})"
            )
        c = self.c
        for name in ("wq", "wk", "wv", "wo"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (c, c):
                raise ShapeMismatch(f"{name} must be {c}x{c}, got {m.shape}")
            setattr(self, name, m)
        for name in ("bq", "bk", "bv", "bo"):
            b = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if b.shape != (c,):
                raise ShapeMismatch(f"{name} must have {c} entries")
            setattr(self, name, b)
        self.w1 = np.asarray(self.w1, dtype=float)
        self.w2 = np.asarray(self.w2, dtype=float)
        if self.w1.ndim != 2 or self.w1.shape[0] != c:
            raise ShapeMismatch("w1 must map C channels")
        cff = self.w1.shape[1]
        if self.w2.shape != (cff, c):
            raise ShapeMismatch("w2 must map the FFN width back to C channels")
        self.b1 = np.asarray(self.b1, dtype=float).reshape(-1)
        self.b2 = np.asarray(self.b2, dtype=float).reshape(-1)
        if self.b1.shape != (cff,) or self.b2.shape != (c,):
            raise ShapeMismatch("FFN bias widths are inconsistent")

    @classmethod
    def create(cls, c: int, heads: int, seed: int = 0) -> "BlockWeights":
        """Seeded uniform(-1/sqrt(C), 1/sqrt(C)) initialization; FFN width 4C."""
        if c < 1 or heads < 1 or c % heads:
            raise ShapeMismatch(
                f"channels ({c}) must be divisible by heads ({heads})"
            )
        cff = 4 * c
        rng = np.random.default_rng(seed)
        return cls(
            c=c,
            heads=heads,
            wq=_init(rng, c, c, c),
            wk=_init(rng, c, c, c),
            wv=_init(rng, c, c, c),
            wo=_init(rng, c, c, c),
            bq=_init(rng, 1, c, c)[0],
            bk=_init(rng, 1, c, c)[0],
            bv=_init(rng, 1, c, c)[0],
            bo=_init(rng, 1, c, c)[0],
            w1=_init(rng, c, cff, c),
            b1=_init(rng, 1, cff, c)[0],
            w2=_init(rng, cff, c, c),
            b2=_init(rng, 1, c, c)[0],
        )


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _multi_head(
    x: np.ndarray, mem: np.ndarray, w: BlockWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention of x over mem.

    Returns (output N x C, head-averaged attention map N x T). The logits
    use the 1/sqrt(C) temperature on full-width channel count.
    """
    if x.shape[1] != w.c or mem.shape[1] != w.c:
        raise ShapeMismatch(
            f"channel mismatch: x {x.shape}, memory {mem.shape}, weights C={w.c}"
        )
    q = x @ w.wq + w.bq
    k = mem @ w.wk + w.bk
    v = mem @ w.wv + w.bv
    dh = w.c // w.heads
    scale = 1.0 / np.sqrt(w.c)
    outs, maps = [], []
    for hidx in range(w.heads):
        sl = slice(hidx * dh, (hidx + 1) * dh)
        a = _softmax_rows(q[:, sl] @ k[:, sl].T * scale)
        outs.append(a @ v[:, sl])
        maps.append(a)
    out = np.concatenate(outs, axis=1) @ w.wo + w.bo
    return out, np.mean(maps, axis=0)


def self_attention(x: FeatureSequence, w: BlockWeights) -> FeatureSequence:
    """Multi-head self-attention over one token sequence (no residual)."""
    out, _ = _multi_head(x.tokens, x.tokens, w)
    return FeatureSequence(tokens=out, role=x.role)


def _ffn(x: np.ndarray, w: BlockWeights) -> np.ndarray:
    if x.shape[1] != w.c:
        raise ShapeMismatch(f"channel mismatch: {x.shape[1]} vs {w.c}")
    return np.maximum(x @ w.w1 + w.b1, 0.0) @ w.w2 + w.b2


def ffn(x: FeatureSequence, w: BlockWeights) -> FeatureSequence:
    """Tokenwise Linear -> ReLU -> Linear."""
    return FeatureSequence(tokens=_ffn(x.tokens, w), role=x.role)


def cross_attention(
    q: FeatureSequence, memory: FeatureSequence, w: BlockWeights
) -> tuple[FeatureSequence, AttentionMap]:
    """q's tokens attend over memory's; also returns the N x T map."""
    out, amap = _multi_head(q.tokens, memory.tokens, w)
    return FeatureSequence(tokens=out, role=q.role), AttentionMap(weights=amap)


@dataclass
class DecoderWeights:
    """Sublayer weights of one decoder block."""

    ground: BlockWeights
    self_attn: BlockWeights
    visual: BlockWeights
    feed_forward: BlockWeights

    @classmethod
    def create(cls, c: int, heads: int, seed: int = 0) -> "DecoderWeights":
        child = np.random.default_rng(seed).integers(0, 2**63, size=4)
        return cls(
            ground=BlockWeights.create(c, heads, int(child[0])),
            self_attn=BlockWeights.create(c, heads, int(child[1])),
            visual=BlockWeights.create(c, heads, int(child[2])),
            feed_forward=BlockWeights.create(c, heads, int(child[3])),
        )


def decoder_block(
    q: FeatureSequence,
    fg: FeatureSequence,
    fv: FeatureSequence,
    w: DecoderWeights,
) -> tuple[FeatureSequence, AttentionMap]:
    """Ground cross-attn -> query self-attn -> visual cross-attn -> FFN.

    q, fg and fv must carry the query, ground and visual roles. Every
    sublayer adds a residual connection so stacked blocks stay
    well-conditioned; returns the updated queries and the ground
    attention map of this block.
    """
    for seq, role in ((q, ROLE_QUERY), (fg, ROLE_GROUND), (fv, ROLE_VISUAL)):
        if seq.role != role:
            raise ShapeMismatch(f"expected {role} tokens, got role {seq.role!r}")
    qg, amap = _multi_head(q.tokens, fg.tokens, w.ground)
    x = q.tokens + qg
    x = x + _multi_head(x, x, w.self_attn)[0]
    x = x + _multi_head(x, fv.tokens, w.visual)[0]
    x = x + _ffn(x, w.feed_forward)
    return FeatureSequence(tokens=x, role=ROLE_QUERY), AttentionMap(weights=amap)


def decoder_stack(
    q: FeatureSequence,
    fg: FeatureSequence,
    fv: FeatureSequence,
    blocks,
) -> tuple[FeatureSequence, AttentionMap]:
    """Apply decoder blocks in sequence; returns the last block's map."""
    blocks = list(blocks)
    if not blocks:
        raise ShapeMismatch("need at least one decoder block")
    amap = None
    for w in blocks:
        q, amap = decoder_block(q, fg, fv, w)
    return q, amap


def positional_encoding(t: int, c: int, base: float = 10000.0) -> np.ndarray:
    """Interleaved sine/cosine positional table, T x C (C even)."""
    if t < 1 or c < 2 or c % 2:
        raise ShapeMismatch("need T >= 1 and even C >= 2")
    pos = np.arange(t)[:, None]
    idx = np.arange(c // 2)[None, :]
    angle = pos / base ** (2.0 * idx / c)
    enc = np.empty((t, c))
    enc[:, 0::2] = np.sin(angle)
    enc[:, 1::2] = np.cos(angle)
    return enc


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def matrix_digest(m: np.ndarray) -> str:
    """FNV-1a 64 over canonical little-endian float64 bytes, row-major."""
    canon = np.ascontiguousarray(np.asarray(m, dtype="<f8"))
    return f"{fnv1a64(canon.tobytes(order='C')):016x}"


def decoder_inputs(rng, n: int, t_ground: int, t_visual: int, c: int,
                   heads: int, seed: int):
    """(queries, ground, visual, blocks) of a seeded 3-block decoder run:
    standard-normal tokens drawn from rng in that order, and block i's
    weights seeded with seed + 1 + i."""
    q = FeatureSequence(rng.standard_normal((n, c)), ROLE_QUERY)
    fg = FeatureSequence(rng.standard_normal((t_ground, c)), ROLE_GROUND)
    fv = FeatureSequence(rng.standard_normal((t_visual, c)), ROLE_VISUAL)
    blocks = [DecoderWeights.create(c, heads, seed + 1 + i) for i in range(3)]
    return q, fg, fv, blocks


def decoder_fixture(
    n: int, t_ground: int, t_visual: int, c: int, heads: int, seed: int
) -> dict:
    """Deterministic regression fixture for a 3-block decoder stack run."""
    q, fg, fv, blocks = decoder_inputs(np.random.default_rng(seed), n,
                                       t_ground, t_visual, c, heads, seed)
    out, amap = decoder_stack(q, fg, fv, blocks)
    return {
        "shapes": {
            "queries": [n, c],
            "ground": [t_ground, c],
            "visual": [t_visual, c],
        },
        "heads": heads,
        "blocks": len(blocks),
        "seed": seed,
        "digests": {
            "queries_out": matrix_digest(out.tokens),
            "ground_attention": matrix_digest(amap.weights),
        },
    }


def fixture_json(fixture: dict) -> str:
    return json.dumps(fixture, indent=2, sort_keys=True) + "\n"
