"""Attention block tests against naive loop-based oracles, plus
permutation equivariance, determinism, and fixture digests."""

import math

import numpy as np
import pytest

from gpk.attention import (
    ROLE_GROUND,
    ROLE_QUERY,
    ROLE_VISUAL,
    AttentionMap,
    BlockWeights,
    DecoderWeights,
    FeatureSequence,
    cross_attention,
    decoder_block,
    decoder_fixture,
    decoder_stack,
    ffn,
    fnv1a64,
    matrix_digest,
    positional_encoding,
    self_attention,
)
from gpk.errors import ShapeMismatch


def naive_attention(x, mem, w):
    """Triple-loop scaled dot-product attention oracle."""
    n, t = x.shape[0], mem.shape[0]
    q = x @ w.wq + w.bq
    k = mem @ w.wk + w.bk
    v = mem @ w.wv + w.bv
    dh = w.c // w.heads
    head_outs = []
    maps = np.zeros((w.heads, n, t))
    for h in range(w.heads):
        out = np.zeros((n, dh))
        for i in range(n):
            logits = np.empty(t)
            for j in range(t):
                dot = 0.0
                for a in range(dh):
                    dot += q[i, h * dh + a] * k[j, h * dh + a]
                logits[j] = dot / math.sqrt(w.c)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            maps[h, i] = weights
            for j in range(t):
                out[i] += weights[j] * v[j, h * dh : (h + 1) * dh]
        head_outs.append(out)
    return np.concatenate(head_outs, axis=1) @ w.wo + w.bo, maps.mean(axis=0)


class TestTypes:
    def test_channel_head_divisibility(self):
        with pytest.raises(ShapeMismatch):
            BlockWeights.create(c=6, heads=4)

    @pytest.mark.parametrize("c", [0, -4])
    def test_create_rejects_non_positive_channels(self, c):
        # create draws weights scaled by 1/sqrt(c) before the constructor
        # checks shapes; its own check keeps c < 1 a ShapeMismatch.
        with pytest.raises(ShapeMismatch, match="divisible by heads"):
            BlockWeights.create(c=c, heads=1)

    def test_attention_map_row_sum_enforced(self):
        with pytest.raises(ValueError):
            AttentionMap(np.array([[0.5, 0.4]]))

    def test_non_finite_tokens_rejected(self):
        with pytest.raises(ValueError):
            FeatureSequence(np.array([[np.nan, 1.0]]))

    def test_weight_shapes_validated(self):
        w = BlockWeights.create(c=8, heads=2, seed=0)
        with pytest.raises(ShapeMismatch):
            BlockWeights(
                c=8, heads=2, wq=w.wq[:, :4], wk=w.wk, wv=w.wv, wo=w.wo,
                bq=w.bq, bk=w.bk, bv=w.bv, bo=w.bo,
                w1=w.w1, b1=w.b1, w2=w.w2, b2=w.b2,
            )


class TestSelfAttention:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        w = BlockWeights.create(c=8, heads=2, seed=1)
        x = rng.standard_normal((4, 8))
        got = self_attention(FeatureSequence(x), w).tokens
        want, _ = naive_attention(x, x, w)
        assert np.allclose(got, want, atol=1e-9)

    def test_single_token(self):
        w = BlockWeights.create(c=4, heads=1, seed=2)
        x = np.array([[0.3, -1.2, 0.7, 0.1]])
        got = self_attention(FeatureSequence(x), w).tokens
        want = (x @ w.wv + w.bv) @ w.wo + w.bo  # softmax over one key is 1
        assert np.allclose(got, want, atol=1e-12)

    def test_token_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        w = BlockWeights.create(c=8, heads=4, seed=4)
        x = rng.standard_normal((7, 8))
        perm = rng.permutation(7)
        base = self_attention(FeatureSequence(x), w).tokens
        permuted = self_attention(FeatureSequence(x[perm]), w).tokens
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_channel_mismatch(self):
        w = BlockWeights.create(c=8, heads=2)
        with pytest.raises(ShapeMismatch):
            self_attention(FeatureSequence(np.zeros((3, 4))), w)


class TestFfn:
    def test_matches_two_matmul_oracle(self):
        rng = np.random.default_rng(5)
        w = BlockWeights.create(c=4, heads=1, seed=6)
        x = rng.standard_normal((2, 4))
        got = ffn(FeatureSequence(x), w).tokens
        want = np.maximum(x @ w.w1 + w.b1, 0.0) @ w.w2 + w.b2
        assert np.allclose(got, want, atol=1e-12)

    def test_zero_weights_zero_output(self):
        w = BlockWeights.create(c=4, heads=1, seed=0)
        zeroed = BlockWeights(
            c=4, heads=1, wq=w.wq, wk=w.wk, wv=w.wv, wo=w.wo,
            bq=w.bq, bk=w.bk, bv=w.bv, bo=w.bo,
            w1=np.zeros_like(w.w1), b1=np.zeros_like(w.b1),
            w2=np.zeros_like(w.w2), b2=np.zeros_like(w.b2),
        )
        out = ffn(FeatureSequence(np.ones((3, 4))), zeroed).tokens
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_tokenwise(self):
        rng = np.random.default_rng(7)
        w = BlockWeights.create(c=4, heads=1, seed=8)
        x = rng.standard_normal((5, 4))
        perm = rng.permutation(5)
        assert np.array_equal(
            ffn(FeatureSequence(x[perm]), w).tokens,
            ffn(FeatureSequence(x), w).tokens[perm],
        )


class TestCrossAttention:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(9)
        w = BlockWeights.create(c=4, heads=1, seed=10)
        q = rng.standard_normal((2, 4))
        fg = rng.standard_normal((3, 4))
        out, amap = cross_attention(
            FeatureSequence(q, ROLE_QUERY), FeatureSequence(fg, ROLE_GROUND), w
        )
        want_out, want_map = naive_attention(q, fg, w)
        assert out.role == ROLE_QUERY
        assert np.allclose(out.tokens, want_out, atol=1e-9)
        assert np.allclose(amap.weights, want_map, atol=1e-9)

    def test_single_ground_token_all_ones(self):
        w = BlockWeights.create(c=4, heads=2, seed=11)
        _, amap = cross_attention(
            FeatureSequence(np.random.default_rng(0).standard_normal((5, 4)),
                            ROLE_QUERY),
            FeatureSequence(np.array([[1.0, 2.0, 3.0, 4.0]]), ROLE_GROUND),
            w,
        )
        assert np.array_equal(amap.weights, np.ones((5, 1)))

    def test_duplicate_keys_get_equal_weight(self):
        w = BlockWeights.create(c=4, heads=1, seed=12)
        token = np.array([0.4, -0.2, 1.0, 0.3])
        fg = np.stack([token, token, token])
        _, amap = cross_attention(
            FeatureSequence(np.random.default_rng(1).standard_normal((2, 4)),
                            ROLE_QUERY),
            FeatureSequence(fg, ROLE_GROUND),
            w,
        )
        assert np.allclose(amap.weights, 1.0 / 3.0, atol=1e-12)


class TestDecoder:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.q = FeatureSequence(rng.standard_normal((6, 8)), ROLE_QUERY)
        self.fg = FeatureSequence(rng.standard_normal((10, 8)), ROLE_GROUND)
        self.fv = FeatureSequence(rng.standard_normal((14, 8)), ROLE_VISUAL)
        self.blocks = [DecoderWeights.create(8, 2, seed=20 + i)
                       for i in range(3)]

    def test_output_shape_and_finiteness(self):
        out, amap = decoder_stack(self.q, self.fg, self.fv, self.blocks)
        assert out.role == ROLE_QUERY
        assert out.tokens.shape == (6, 8)
        assert np.all(np.isfinite(out.tokens))
        assert amap.weights.shape == (6, 10)

    def test_single_block_map_rows_sum_to_one(self):
        _, amap = decoder_block(self.q, self.fg, self.fv, self.blocks[0])
        assert np.max(np.abs(amap.weights.sum(axis=1) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("slot, wrong", [
        ("q", ROLE_VISUAL), ("fg", ROLE_VISUAL), ("fv", ROLE_GROUND),
    ], ids=["query", "ground", "visual"])
    def test_role_enforced(self, slot, wrong):
        seqs = {"q": self.q, "fg": self.fg, "fv": self.fv}
        seqs[slot] = FeatureSequence(seqs[slot].tokens, wrong)
        with pytest.raises(ShapeMismatch, match=f"got role {wrong!r}"):
            decoder_block(**seqs, w=self.blocks[0])

    def test_query_permutation_equivariance(self):
        perm = np.random.default_rng(14).permutation(6)
        out, amap = decoder_stack(self.q, self.fg, self.fv, self.blocks)
        out_p, amap_p = decoder_stack(
            FeatureSequence(self.q.tokens[perm], ROLE_QUERY),
            self.fg, self.fv, self.blocks,
        )
        assert np.allclose(out_p.tokens, out.tokens[perm], atol=1e-9)
        assert np.allclose(amap_p.weights, amap.weights[perm], atol=1e-9)

    def test_deterministic_bit_identical(self):
        a, amap_a = decoder_stack(self.q, self.fg, self.fv, self.blocks)
        b, amap_b = decoder_stack(self.q, self.fg, self.fv, self.blocks)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(amap_a.weights, amap_b.weights)

    def test_empty_stack_rejected(self):
        with pytest.raises(ShapeMismatch):
            decoder_stack(self.q, self.fg, self.fv, [])


class TestPositionalEncoding:
    def test_first_position_is_sin0_cos0(self):
        enc = positional_encoding(4, 6)
        assert np.array_equal(enc[0, 0::2], np.zeros(3))
        assert np.array_equal(enc[0, 1::2], np.ones(3))

    def test_values_bounded(self):
        enc = positional_encoding(50, 16)
        assert np.all(np.abs(enc) <= 1.0)

    def test_known_entry(self):
        enc = positional_encoding(3, 4)
        assert enc[2, 0] == pytest.approx(math.sin(2.0), abs=1e-15)
        assert enc[2, 3] == pytest.approx(math.cos(2.0 / 10000.0 ** 0.5),
                                          abs=1e-15)

    def test_odd_channels_rejected(self):
        with pytest.raises(ShapeMismatch):
            positional_encoding(4, 5)


class TestFixtures:
    def test_fnv1a64_reference_vectors(self):
        # Published FNV-1a test vectors.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_matrix_digest_canonical(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert matrix_digest(m) == matrix_digest(np.asfortranarray(m))
        assert matrix_digest(m) != matrix_digest(m.T)

    def test_fixture_stable_across_runs(self):
        a = decoder_fixture(4, 6, 8, 8, 2, seed=99)
        b = decoder_fixture(4, 6, 8, 8, 2, seed=99)
        assert a == b

    @pytest.mark.parametrize("args, queries_out, ground_attention", [
        ((8, 12, 20, 16, 4, 0), "5aa7334baf365d7e", "c9861c49af1d2737"),
        ((4, 6, 8, 8, 2, 99), "006a3aa0ffa65a20", "029a8cf51d2c6280"),
    ])
    def test_fixture_digests_pinned(self, args, queries_out, ground_attention):
        assert decoder_fixture(*args)["digests"] == {
            "queries_out": queries_out,
            "ground_attention": ground_attention,
        }

    def test_fixture_sensitive_to_seed(self):
        a = decoder_fixture(4, 6, 8, 8, 2, seed=99)
        b = decoder_fixture(4, 6, 8, 8, 2, seed=100)
        assert a["digests"] != b["digests"]
