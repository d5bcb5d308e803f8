import contextlib
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shotrope import engine as E
from shotrope import model as M
from shotrope import rope
from shotrope import synthetic as S
from shotrope import tensor as T
from shotrope.attention import (
    AttentionWeights,
    Conditioning,
    ContextTokens,
    multishot_cross_attention,
    multishot_self_attention,
    pair_tables,
    project,
    scaled_dot_attention,
    segment_attention,
    segment_blocks,
)
from shotrope.shots import PackedLayout, ShotLayout
from shotrope.tensor import ConfigError, ShapeError, Tensor


def _collected(attend, nk):
    """attend(probs_out) under a fresh AttentionCollector's sink, its nk keys
    taken as one shot's; returns the output and each head's [nq, nk]
    probability matrix as the collector builds it."""
    collector = M.AttentionCollector()
    out = attend(collector.sink(np.zeros(nk, dtype=np.int64)))
    return out, [probs for probs, _ in collector.cross_probs]


def _rand_weights(rng, d):
    return AttentionWeights(
        *(Tensor(rng.standard_normal((d, d)).astype(np.float32) * 0.05) for _ in range(4))
    )


def _cond(tokens, layout, scales, basis, heads=2, use_ref=False, ctx=None, weights=None):
    """The Conditioning model.conditioning builds under a tape, at the
    rotary scales j and k of scales (a DenoiserConfig), for tokens' layout
    and one hand-made caption context whose one block of keys and values
    weights project."""

    def tables(shots):
        return pair_tables(rope.phase_tables_1d(basis, shots * scales.k), tokens.dtype)

    token_ends = layout.segment_ends if use_ref else (layout.total_tokens,)
    contexts, kv, cross_blocks = (), None, ()
    if ctx is not None:
        contexts = (ctx,)
        kv = (project(ctx.embeddings, weights.wk, heads, tables(ctx.shot_index)),
              project(ctx.embeddings, weights.wv, heads))
        caption_ends = ctx.segment_ends if use_ref else (len(ctx.shot_index),)
        cross_blocks = tuple(segment_blocks(token_ends, caption_ends))
    positions = layout.token_positions(j=scales.j)
    return Conditioning(
        (),
        contexts,
        layout,
        pair_tables(rope.phase_tables_3d(basis, *positions), tokens.dtype),
        tables(layout.token_shot_index()),
        tuple(segment_blocks(token_ends, token_ends)),
        cross_blocks,
        (kv,),
        None,
    )


def _self(tokens, layout, scales, basis, w, heads=2, use_ref=False, probs_out=None):
    cond = _cond(tokens, layout, scales, basis, heads, use_ref)
    return multishot_self_attention(tokens, cond, w, heads=heads, probs_out=probs_out)


def _cross(tokens, ctx, layout, scales, basis, w, heads=2, use_ref=False):
    cond = _cond(tokens, layout, scales, basis, heads, use_ref, ctx, w)
    return multishot_cross_attention(tokens, cond, 0, w, heads=heads)


class TestScaledDotAttention:
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((5, 8)).astype(np.float32)
        k = rng.standard_normal((7, 8)).astype(np.float32)
        v = rng.standard_normal((7, 8)).astype(np.float32)
        logits = (q.astype(np.float64) @ k.astype(np.float64).T) / np.sqrt(8)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        oracle = probs @ v.astype(np.float64)
        got = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert np.max(np.abs(got - oracle)) <= 1e-5

    def test_probs_out_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        k = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
        v = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
        _, probs = _collected(lambda sink: scaled_dot_attention(q, k, v, probs_out=sink), 3)
        assert len(probs) == 1
        assert probs[0].shape == (4, 3)
        assert np.allclose(probs[0].sum(axis=1), 1.0, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            scaled_dot_attention(
                Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 5))), Tensor(np.zeros((3, 4)))
            )


class TestRefAttention:
    def test_shot0_rows_use_only_shot0_keys(self):
        rng = np.random.default_rng(2)
        layout = ShotLayout((2, 3), 2, 2)
        n = layout.total_tokens
        n0 = layout.token_spans()[0][1]
        q = Tensor(rng.standard_normal((n, 8)).astype(np.float32))
        k = Tensor(rng.standard_normal((n, 8)).astype(np.float32))
        v = Tensor(rng.standard_normal((n, 8)).astype(np.float32))
        out = segment_attention(q, k, v, layout.segment_ends, layout.segment_ends).data
        import shotrope.tensor as T

        restricted = scaled_dot_attention(
            T.slice_rows(q, 0, n0), T.slice_rows(k, 0, n0), T.slice_rows(v, 0, n0)
        ).data
        assert np.array_equal(out[:n0], restricted)

    def test_later_rows_attend_everything(self):
        rng = np.random.default_rng(3)
        layout = ShotLayout((1, 2), 1, 2)
        n = layout.total_tokens
        q = Tensor(rng.standard_normal((n, 4)).astype(np.float32))
        k = Tensor(rng.standard_normal((n, 4)).astype(np.float32))
        v = Tensor(rng.standard_normal((n, 4)).astype(np.float32))
        n0 = layout.token_spans()[0][1]
        full = scaled_dot_attention(q, k, v).data
        out = segment_attention(q, k, v, layout.segment_ends, layout.segment_ends).data
        assert np.array_equal(out[n0:], full[n0:])

    def test_shot0_bit_identical_under_late_perturbation(self):
        rng = np.random.default_rng(4)
        layout = ShotLayout((2, 2, 2), 2, 2)
        n = layout.total_tokens
        n0 = layout.token_spans()[0][1]
        q = rng.standard_normal((n, 8)).astype(np.float32)
        k = rng.standard_normal((n, 8)).astype(np.float32)
        v = rng.standard_normal((n, 8)).astype(np.float32)
        ends = layout.segment_ends
        base = segment_attention(Tensor(q), Tensor(k), Tensor(v), ends, ends).data
        q2, k2, v2 = q.copy(), k.copy(), v.copy()
        q2[n0:] += 5.0
        k2[n0:] -= 3.0
        v2[n0:] *= -2.0
        out = segment_attention(Tensor(q2), Tensor(k2), Tensor(v2), ends, ends).data
        assert np.array_equal(out[:n0], base[:n0])

    def test_token_count_mismatch(self):
        layout = ShotLayout((2, 2), 2, 2)
        bad = Tensor(np.zeros((3, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            segment_attention(bad, bad, bad, layout.segment_ends, layout.segment_ends)


class TestSelfAttention:
    def test_output_shape_and_determinism(self):
        rng = np.random.default_rng(5)
        layout = ShotLayout((2, 2), 2, 2)
        d = 24
        tokens = Tensor(rng.standard_normal((layout.total_tokens, d)).astype(np.float32))
        w = _rand_weights(rng, d)
        basis = rope.RotaryBasis(12)
        scales = M.DenoiserConfig()
        o1 = _self(tokens, layout, scales, basis, w, heads=2).data
        o2 = _self(tokens, layout, scales, basis, w, heads=2).data
        assert o1.shape == (layout.total_tokens, d)
        assert np.array_equal(o1, o2)

    def test_zero_rates_reduce_to_global_time_rotary(self):
        # with j=0 the time index is just the global frame counter, so a
        # single-shot layout and a two-shot split of the same frames agree
        rng = np.random.default_rng(6)
        d = 24
        w = _rand_weights(rng, d)
        basis = rope.RotaryBasis(12)
        scales = M.DenoiserConfig(j=0.0, k=0.0)
        merged = ShotLayout((4,), 2, 2)
        split = ShotLayout((2, 2), 2, 2)
        tokens = Tensor(rng.standard_normal((merged.total_tokens, d)).astype(np.float32))
        a = _self(tokens, merged, scales, basis, w, heads=2).data
        b = _self(tokens, split, scales, basis, w, heads=2).data
        assert np.array_equal(a, b)

    def test_phase_jump_changes_cross_shot_interaction(self):
        rng = np.random.default_rng(7)
        d = 24
        w = _rand_weights(rng, d)
        basis = rope.RotaryBasis(12)
        layout = ShotLayout((2, 2), 2, 2)
        tokens = Tensor(rng.standard_normal((layout.total_tokens, d)).astype(np.float32))
        a = _self(tokens, layout, M.DenoiserConfig(j=0.0), basis, w, heads=2).data
        b = _self(tokens, layout, M.DenoiserConfig(j=4.0), basis, w, heads=2).data
        assert not np.array_equal(a, b)

    def test_head_dim_basis_mismatch(self):
        layout = ShotLayout((1,), 2, 2)
        tokens = Tensor(np.zeros((4, 24), dtype=np.float32))
        w = _rand_weights(np.random.default_rng(8), 24)
        with pytest.raises(ShapeError):
            _self(tokens, layout, M.DenoiserConfig(), rope.RotaryBasis(18), w, heads=2)

    def test_ref_mode_isolates_shot0(self):
        rng = np.random.default_rng(9)
        d = 24
        layout = ShotLayout((2, 2), 2, 2)
        n0 = layout.token_spans()[0][1]
        w = _rand_weights(rng, d)
        basis = rope.RotaryBasis(12)
        scales = M.DenoiserConfig()
        tok = rng.standard_normal((layout.total_tokens, d)).astype(np.float32)
        base = _self(Tensor(tok), layout, scales, basis, w, heads=2, use_ref=True).data
        tok2 = tok.copy()
        tok2[n0:] += 7.0
        out = _self(Tensor(tok2), layout, scales, basis, w, heads=2, use_ref=True).data
        assert np.array_equal(out[:n0], base[:n0])


class TestCrossAttention:
    def _setup(self, rng, layout, d=24, rows_per_shot=2):
        n_ctx = layout.shot_count * rows_per_shot
        ctx = ContextTokens(
            Tensor(rng.standard_normal((n_ctx, d)).astype(np.float32)),
            np.repeat(np.arange(layout.shot_count), rows_per_shot),
            (rows_per_shot, n_ctx),
        )
        tokens = Tensor(rng.standard_normal((layout.total_tokens, d)).astype(np.float32))
        return tokens, ctx, _rand_weights(rng, d)

    def test_output_shape(self):
        rng = np.random.default_rng(10)
        layout = ShotLayout((2, 2), 2, 2)
        tokens, ctx, w = self._setup(rng, layout)
        out = _cross(tokens, ctx, layout, M.DenoiserConfig(), rope.RotaryBasis(12), w, heads=2)
        assert out.shape == (layout.total_tokens, 24)

    def test_zero_suppression_rate_ignores_shot_indices(self):
        # with k=0 no rotation happens, so permuting which context row is
        # tagged with which shot cannot change the output
        rng = np.random.default_rng(12)
        layout = ShotLayout((2, 2), 2, 2)
        tokens, ctx, w = self._setup(rng, layout, rows_per_shot=1)
        scales = M.DenoiserConfig(j=0.0, k=0.0)
        basis = rope.RotaryBasis(12)
        a = _cross(tokens, ctx, layout, scales, basis, w, heads=2).data
        flipped = ContextTokens(ctx.embeddings, ctx.shot_index[::-1].copy(), ctx.segment_ends)
        b = _cross(tokens, flipped, layout, scales, basis, w, heads=2).data
        assert np.array_equal(a, b)

    def test_suppression_rate_breaks_that_symmetry(self):
        rng = np.random.default_rng(13)
        layout = ShotLayout((2, 2), 2, 2)
        tokens, ctx, w = self._setup(rng, layout, rows_per_shot=1)
        scales = M.DenoiserConfig(j=0.0, k=6.0)
        basis = rope.RotaryBasis(12)
        a = _cross(tokens, ctx, layout, scales, basis, w, heads=2).data
        flipped = ContextTokens(ctx.embeddings, ctx.shot_index[::-1].copy(), ctx.segment_ends)
        b = _cross(tokens, flipped, layout, scales, basis, w, heads=2).data
        assert not np.array_equal(a, b)

    def test_context_row_order_is_irrelevant(self):
        # each key rotates by its own caption's shot index, so permuting the
        # context rows only permutes the columns each softmax sums over
        rng = np.random.default_rng(16)
        layout = ShotLayout((2, 1, 2), 2, 2)
        tokens, ctx, w = self._setup(rng, layout, rows_per_shot=2)
        scales, basis = M.DenoiserConfig(), rope.RotaryBasis(12)
        base = _cross(tokens, ctx, layout, scales, basis, w, heads=2).data
        perm = rng.permutation(ctx.shot_index.size)
        assert not np.array_equal(ctx.shot_index[perm], ctx.shot_index)
        permuted = ContextTokens(
            Tensor(ctx.embeddings.data[perm]), ctx.shot_index[perm], ctx.segment_ends
        )
        out = _cross(tokens, permuted, layout, scales, basis, w, heads=2).data
        assert np.max(np.abs(out - base)) <= 1e-5

    def test_ref_mode_isolates_shot0_from_later_captions(self):
        rng = np.random.default_rng(15)
        layout = ShotLayout((2, 2), 2, 2)
        n0 = layout.token_spans()[0][1]
        tokens, ctx, w = self._setup(rng, layout, rows_per_shot=2)
        scales = M.DenoiserConfig()
        basis = rope.RotaryBasis(12)
        base = _cross(tokens, ctx, layout, scales, basis, w, heads=2, use_ref=True).data
        emb = ctx.embeddings.data.copy()
        emb[2:] += 9.0  # later-shot caption rows only
        ctx2 = ContextTokens(Tensor(emb), ctx.shot_index, ctx.segment_ends)
        out = _cross(tokens, ctx2, layout, scales, basis, w, heads=2, use_ref=True).data
        assert np.array_equal(out[:n0], base[:n0])


def test_context_tokens_length_mismatch():
    with pytest.raises(ShapeError):
        ContextTokens(Tensor(np.zeros((3, 4), dtype=np.float32)), np.array([0, 1]), (1, 3))
    with pytest.raises(ShapeError):
        ContextTokens(Tensor(np.zeros((3, 4), dtype=np.float32)), np.array([0, 1, 1]), (1, 2))


# -- head-batched kernels against a per-head reference ----------------------

def _per_head_reference(x_q, x_kv, weights, heads, qtabs, ktabs, nq0=None, nk0=None):
    """Attention built head by head from numpy column slices, rope_pairs and
    scaled_dot_attention; with nq0/nk0 shot-0 rows see only shot-0 keys."""
    import shotrope.tensor as T

    q = T.matmul(x_q, weights.wq).data
    k = T.matmul(x_kv, weights.wk).data
    v = T.matmul(x_kv, weights.wv).data
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        qh = T.rope_pairs(Tensor(q[:, cols].copy()), *qtabs)
        kh = T.rope_pairs(Tensor(k[:, cols].copy()), *ktabs)
        vh = Tensor(v[:, cols].copy())
        if nq0 is None:
            outs.append(scaled_dot_attention(qh, kh, vh).data)
            continue
        top = scaled_dot_attention(
            Tensor(qh.data[:nq0].copy()), Tensor(kh.data[:nk0].copy()),
            Tensor(vh.data[:nk0].copy()),
        ).data
        rest = scaled_dot_attention(Tensor(qh.data[nq0:].copy()), kh, vh).data
        outs.append(np.concatenate([top, rest], axis=0))
    return T.matmul(Tensor(np.concatenate(outs, axis=1)), weights.wo).data


def _pair_tables(cos, sin):
    return (np.repeat(cos, 2, axis=1).astype(np.float32),
            np.repeat(sin, 2, axis=1).astype(np.float32))


@pytest.mark.parametrize("heads", [2, 4])
@pytest.mark.parametrize("use_ref", [False, True])
def test_self_attention_equals_per_head_reference(heads, use_ref):
    rng = np.random.default_rng(20 + heads)
    layout = ShotLayout((2, 1, 3), 2, 2)
    d = 24 * heads // 2
    basis = rope.RotaryBasis(d // heads)
    scales = M.DenoiserConfig(j=4.0)
    w = _rand_weights(rng, d)
    tokens = Tensor(rng.standard_normal((layout.total_tokens, d)).astype(np.float32))
    tabs = _pair_tables(*rope.phase_tables_3d(basis, *layout.token_positions(j=scales.j)))
    n0 = layout.token_spans()[0][1] if use_ref else None
    expect = _per_head_reference(tokens, tokens, w, heads, tabs, tabs, n0, n0)
    got = _self(tokens, layout, scales, basis, w, heads=heads, use_ref=use_ref)
    assert np.array_equal(got.data, expect)


@pytest.mark.parametrize("heads", [2, 4])
@pytest.mark.parametrize("use_ref", [False, True])
def test_cross_attention_equals_per_head_reference(heads, use_ref):
    rng = np.random.default_rng(30 + heads)
    layout = ShotLayout((2, 1, 3), 2, 2)
    d = 24 * heads // 2
    basis = rope.RotaryBasis(d // heads)
    scales = M.DenoiserConfig(k=6.0)
    w = _rand_weights(rng, d)
    shots = np.array([0, 0, 0, 1, 1, 2, 2])
    ctx = ContextTokens(Tensor(rng.standard_normal((7, d)).astype(np.float32)), shots, (3, 7))
    tokens = Tensor(rng.standard_normal((layout.total_tokens, d)).astype(np.float32))
    qtabs = _pair_tables(*rope.phase_tables_1d(basis, layout.token_shot_index() * scales.k))
    ktabs = _pair_tables(*rope.phase_tables_1d(basis, shots * scales.k))
    nq0 = layout.token_spans()[0][1] if use_ref else None
    expect = _per_head_reference(tokens, ctx.embeddings, w, heads, qtabs, ktabs, nq0, 3)
    got = _cross(tokens, ctx, layout, scales, basis, w, heads=heads, use_ref=use_ref)
    assert np.array_equal(got.data, expect)


@pytest.mark.parametrize("use_ref", [False, True])
def test_probs_out_gives_one_full_matrix_per_head(use_ref):
    rng = np.random.default_rng(40)
    layout = ShotLayout((2, 2), 2, 2)
    n, n0 = layout.total_tokens, layout.token_spans()[0][1]
    w = _rand_weights(rng, 24)
    tokens = Tensor(rng.standard_normal((n, 24)).astype(np.float32))
    collector = M.AttentionCollector()
    _self(tokens, layout, M.DenoiserConfig(), rope.RotaryBasis(12), w, heads=2,
          use_ref=use_ref, probs_out=collector.sink())
    assert len(collector.self_probs) == 2
    for probs in collector.self_probs:
        assert probs.shape == (n, n)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        if use_ref:
            assert not probs[:n0, n0:].any()


def _spy_rope_pairs(monkeypatch):
    import shotrope.tensor as T

    calls = []
    real = T.rope_pairs

    def spy(x, cos, sin):
        out = real(x, cos, sin)
        calls.append((x.data.copy(), out.data.copy()))
        return out

    monkeypatch.setattr(T, "rope_pairs", spy)
    return calls


def test_self_attention_rotations_are_tcrope(monkeypatch):
    """Every per-token, per-head Q/K rotation of the kernel equals the scalar
    TcRoPE oracle at that token's (shot, local frame, h, w)."""
    from shotrope.shots import tcrope

    rng = np.random.default_rng(41)
    layout = ShotLayout((2, 1, 3), 2, 3)
    heads, d = 2, 64
    basis = rope.RotaryBasis(32)  # the model's head basis
    scales = M.DenoiserConfig(j=4.0)
    tokens = Tensor(rng.standard_normal((layout.total_tokens, d)), dtype=np.float64)
    w = AttentionWeights(
        *(Tensor(rng.standard_normal((d, d)) * 0.1, dtype=np.float64) for _ in range(4))
    )
    calls = _spy_rope_pairs(monkeypatch)
    _self(tokens, layout, scales, basis, w, heads=heads)
    assert len(calls) == 2  # Q and K, all heads at once
    coords = [
        (s, tl, hh, ww)
        for s, n in enumerate(layout.frame_counts)
        for tl in range(n)
        for hh in range(layout.height)
        for ww in range(layout.width)
    ]
    for x, out in calls:
        for h in range(heads):
            for i, (s, tl, hh, ww) in enumerate(coords):
                oracle = tcrope(x[h, i], tl, hh, ww, s, layout, scales.j, basis)
                assert np.array_equal(out[h, i], oracle)


def test_cross_attention_rotations_are_tarope(monkeypatch):
    """Queries rotate by their token's shot index and keys by their
    caption's, exactly as the scalar TaRoPE oracle does."""
    from shotrope.shots import tarope

    rng = np.random.default_rng(42)
    layout = ShotLayout((2, 1, 2), 1, 2)
    heads, d = 2, 24
    basis = rope.RotaryBasis(12)
    scales = M.DenoiserConfig(k=6.0)
    shots = np.array([0, 0, 1, 2, 2])
    ctx = ContextTokens(Tensor(rng.standard_normal((5, d)), dtype=np.float64), shots, (2, 5))
    tokens = Tensor(rng.standard_normal((layout.total_tokens, d)), dtype=np.float64)
    w = AttentionWeights(
        *(Tensor(rng.standard_normal((d, d)) * 0.1, dtype=np.float64) for _ in range(4))
    )
    calls = _spy_rope_pairs(monkeypatch)
    _cross(tokens, ctx, layout, scales, basis, w, heads=heads)
    assert len(calls) == 2  # the keys when the conditioning is built, then the queries
    for (x, out), row_shots in zip(calls, (shots, layout.token_shot_index())):
        for h in range(heads):
            for i, s in enumerate(row_shots):
                oracle = tarope(x[h, i], int(s), scales.k, basis)
                assert np.array_equal(out[h, i], oracle)


def test_rope_sign_fault_reaches_oracles_and_model(monkeypatch):
    """A sign fault in the one pair swap the rotation kernel uses, a*cos -
    swap(a)*sin, changes the scalar oracle and both attention kernels alike."""
    from shotrope.shots import tarope

    rng = np.random.default_rng(43)
    layout = ShotLayout((2, 1), 2, 2)
    d = 24
    basis = rope.RotaryBasis(12)
    scales = M.DenoiserConfig(j=4.0, k=6.0)
    w = _rand_weights(rng, d)
    tokens = Tensor(rng.standard_normal((layout.total_tokens, d)).astype(np.float32))
    ctx = ContextTokens(
        Tensor(rng.standard_normal((4, d)).astype(np.float32)), np.array([0, 0, 1, 1]), (2, 4)
    )
    v = rng.standard_normal(12)

    def run():
        return (
            tarope(v, 1, scales.k, basis),
            _self(tokens, layout, scales, basis, w, heads=2).data,
            _cross(tokens, ctx, layout, scales, basis, w, heads=2).data,
        )

    clean = run()
    swap = T._pair_swap
    monkeypatch.setattr(T, "_pair_swap", lambda a: -swap(a))
    for got, expect in zip(run(), clean):
        assert not np.array_equal(got, expect)
    monkeypatch.undo()
    for got, expect in zip(run(), clean):
        assert np.array_equal(got, expect)


def _two_part_split(Q, K, V, nq0, nk0):
    """The reference split as two blocks: rows :nq0 over keys :nk0, later
    rows over all keys; segment_attention with one later segment.  Returns
    the output and each head's full probability matrix."""
    nq, nk = Q.shape[-2], K.shape[-2]
    Q0, K0, V0 = T.slice_rows(Q, 0, nq0), T.slice_rows(K, 0, nk0), T.slice_rows(V, 0, nk0)
    out, p0 = _collected(lambda sink: scaled_dot_attention(Q0, K0, V0, probs_out=sink), nk0)
    full = np.zeros((len(p0), nq, nk), dtype=p0[0].dtype)
    full[:, :nq0, :nk0] = p0
    if nq0 < nq:
        Q1 = T.slice_rows(Q, nq0, nq)
        rest, p1 = _collected(lambda sink: scaled_dot_attention(Q1, K, V, probs_out=sink), nk)
        full[:, nq0:] = p1
        out = T.concat_rows([out, rest])
    return out, list(full)


@pytest.mark.parametrize("nq0, nq, nk0, nk", [(8, 20, 3, 7), (8, 8, 3, 3), (4, 12, 4, 12)])
def test_one_segment_split_equals_two_part_split(nq0, nq, nk0, nk):
    rng = np.random.default_rng(50)
    Q, K, V = (
        Tensor(rng.standard_normal((2, n, 6)).astype(np.float32)) for n in (nq, nk, nk)
    )
    want, want_probs = _two_part_split(Q, K, V, nq0, nk0)
    got, got_probs = _collected(
        lambda sink: segment_attention(Q, K, V, (nq0, nq), (nk0, nk), probs_out=sink), nk
    )
    assert np.array_equal(got.data, want.data)
    assert len(got_probs) == len(want_probs) == 2
    for g, w in zip(got_probs, want_probs):
        assert np.array_equal(g, w)


def test_packed_segments_equal_each_layout_alone():
    """Segment i of a packed split equals the later rows of layout i run
    alone over [shot-0 keys | its keys]; shot-0 rows equal every layout's."""
    rng = np.random.default_rng(51)
    packed = PackedLayout(
        (ShotLayout((2, 1), 2, 2), ShotLayout((2, 3, 1), 2, 2), ShotLayout((2, 2), 2, 2))
    )
    n = packed.total_tokens
    Q, K, V = (Tensor(rng.standard_normal((2, n, 6)).astype(np.float32)) for _ in range(3))
    ends = packed.segment_ends
    got, probs = _collected(lambda sink: segment_attention(Q, K, V, ends, ends, probs_out=sink), n)
    assert ends == (8, 12, 28, 36)
    for layout, rows in zip(packed.layouts, packed.unpack(np.arange(n))):
        parts = [Tensor(np.ascontiguousarray(X.data[:, rows])) for X in (Q, K, V)]
        lay_ends = layout.segment_ends
        alone, alone_probs = _collected(
            lambda sink: segment_attention(*parts, lay_ends, lay_ends, probs_out=sink), len(rows)
        )
        assert np.array_equal(got.data[:, rows], alone.data)
        for p, a in zip(probs, alone_probs):
            assert np.array_equal(p[np.ix_(rows, rows)], a)
            # a row puts no weight on another layout's later shots
            assert not p[np.ix_(rows, np.setdiff1d(np.arange(n), rows))].any()


def test_packed_tables_are_each_layouts_tables():
    cfg = M.DenoiserConfig(**{**_TABLE_MODEL.to_dict(), "variant": "full+refattn"})
    params = M.init_params(cfg, seed=0)
    packed = PackedLayout((ShotLayout((2, 1), 2, 2), ShotLayout((2, 3), 2, 2)))

    def tables(layout):
        captions = tuple(S.CaptionBundle(tuple(S.ShotPrompt(n, 0) for n in lay.frame_counts))
                         for lay in layout.layouts)
        cond = M.conditioning(captions, layout, cfg, params)
        return cond.token_tables + cond.query_tables

    per_layout = [tables(lay) for lay in packed.layouts]
    for g, tabs in zip(tables(packed), zip(*per_layout)):
        for lay_tab, lay_rows in zip(tabs, packed.unpack(np.arange(packed.total_tokens))):
            assert np.array_equal(g[lay_rows], lay_tab)
        assert not g.flags.writeable


_TABLE_WORLD = S.SyntheticWorld(seed=2, d_token=32, d_id=8, v_scene=4, v_mot=2, height=2, width=2)
_TABLE_MODEL = M.DenoiserConfig(d_model=24, blocks=2, heads=2, ffn_mult=2, d_token=32, d_id=8)


def test_no_table_a_forward_read_outlives_its_call(monkeypatch):
    """Once engine.train, and then one engine.sample, returns, no rotary
    table that any of its forwards read and no folded cross-attention
    matrix is alive: each forward, or sampling call, builds its own
    conditioning and drops it."""
    read, folded = [], []
    rope_pairs, conditioning = T.rope_pairs, M.conditioning

    def spy(x, cos, sin):
        read.extend(weakref.ref(tab) for tab in (cos, sin))
        return rope_pairs(x, cos, sin)

    def spy_conditioning(*args, **kwargs):
        cond = conditioning(*args, **kwargs)
        read.extend(weakref.ref(tab) for tab in cond.token_tables + cond.query_tables)
        for runs in cond.cross_folds or ():
            folded.extend(weakref.ref(m) for run in runs for m in run[2:] if m is not None)
        return cond

    monkeypatch.setattr(T, "rope_pairs", spy)
    monkeypatch.setattr(M, "conditioning", spy_conditioning)
    tcfg = E.TrainConfig(steps=6, batch_size=1, seed=4, shot_count_range=(1, 4),
                         shot_len_range=(1, 3))
    params, _ = E.train(_TABLE_MODEL, tcfg, _TABLE_WORLD)
    gc.collect()
    assert read and all(ref() is None for ref in read)
    assert folded == []  # training forwards keep gradients: none is folded
    del read[:]
    E.sample(params, _TABLE_MODEL, _TABLE_WORLD, [E.ShotPrompt(1, 0), E.ShotPrompt(2, 1)], steps=2)
    gc.collect()
    assert read and all(ref() is None for ref in read)
    assert folded and all(ref() is None for ref in folded)


_FOLD_WORLD = S.SyntheticWorld(seed=3, d_token=32, d_id=4, v_scene=5, v_mot=2)
_FOLD_SPECS = {  # shots, dropped captions
    "1-shot": ([E.ShotPrompt(1, 0)], ()),
    "2-shots-dropped": ([E.ShotPrompt(2, 1, 1), E.ShotPrompt(1, 2)], (1,)),
    "3-shots": ([E.ShotPrompt(1, 3), E.ShotPrompt(3, 0, 1), E.ShotPrompt(2, 2)], ()),
    "4-shots-dropped": ([E.ShotPrompt(1, 0), E.ShotPrompt(2, 1), E.ShotPrompt(1, 4, 1),
                         E.ShotPrompt(2, 3)], (0, 2)),
    "packing-of-3": ([E.ShotPrompt(2, 4)],
                     ([E.ShotPrompt(1, 0)], [], [E.ShotPrompt(2, 1), E.ShotPrompt(1, 3, 1)])),
    "5-shots": ([E.ShotPrompt(1, s % 5, s % 2) for s in range(5)], ()),
}


def _fold_inputs(variant, dtype, case, identity):
    """A model of seeded normal weights in dtype, and the captions and
    layout of one _FOLD_SPECS case: a lone layout, or for the packing its
    reference shot and three attempts, each bundle with the identity row
    when identity is set."""
    cfg = M.DenoiserConfig(d_model=32, blocks=2, heads=4, d_token=32, d_id=4, v_scene=5,
                           v_mot=2, variant=variant)
    rng = np.random.default_rng(31)
    params = {name: Tensor(rng.standard_normal(p.shape) * 0.3, dtype=dtype)
              for name, p in M.init_params(cfg, seed=0).items()}
    spec, extra = _FOLD_SPECS[case]
    specs, dropped = ([spec + more for more in extra], ()) if case == "packing-of-3" else (
        [spec], extra)
    id_row = E.identity_embedding(params, _FOLD_WORLD, 1) if identity else None
    captions = tuple(S.CaptionBundle(tuple(s), frozenset(dropped), id_row) for s in specs)
    layout = PackedLayout(tuple(E.build_layout(s, _FOLD_WORLD) for s in specs))
    return cfg, params, captions, layout


@pytest.mark.parametrize("guidance", [1.0, 5.0])
@pytest.mark.parametrize("identity", [False, True], ids=["plain", "identity"])
@pytest.mark.parametrize("variant, case", [
    (variant, case) for variant in M.VARIANTS for case in _FOLD_SPECS
    if case != "packing-of-3" or variant == "full+refattn"  # the one variant that packs
])
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
def test_folded_cross_attention_equals_the_taped_kernel(dtype, tol, variant, case, identity,
                                                        guidance):
    """Every block's cross-attention built and run with no tape, folded
    where an attention block has heads * keys <= d_model and the kernel on
    its own rows elsewhere, gives the taped kernel's output and collected
    probabilities to within tol of their largest magnitude."""
    cfg, params, captions, layout = _fold_inputs(variant, dtype, case, identity)
    copies = 1 if guidance == 1.0 else 2
    x = np.random.default_rng(32).standard_normal((copies * layout.total_tokens, cfg.d_model))
    results = []
    for taped in (True, False):
        with T.GradTape() if taped else contextlib.nullcontext():
            cond = M.conditioning(captions, layout, cfg, params, guidance)
            assert (cond.cross_folds is None) == taped
            nk = sum(len(ctx.shot_index) for ctx in cond.contexts)
            for runs in cond.cross_folds or ():
                for _, k_rows, logit_w, _ in runs:
                    assert (logit_w is None) == (cfg.heads * np.arange(nk)[k_rows].size > cfg.d_model)
            for b in range(cfg.blocks):
                weights = AttentionWeights(*(params[f"block{b}/ca/{w}"]
                                             for w in ("wq", "wk", "wv", "wo")))
                collector = M.AttentionCollector()
                out = multishot_cross_attention(Tensor(x, dtype=dtype), cond, b, weights,
                                                cfg.heads, collector.sink(np.zeros(nk)))
                results.append((out.data, [p for p, _ in collector.cross_probs]))
    assert len(results) == 2 * cfg.blocks
    for (want, want_probs), (got, got_probs) in zip(results, results[cfg.blocks:]):
        assert got.dtype == want.dtype == dtype
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        assert len(got_probs) == len(want_probs) == cfg.heads
        for p, q in zip(got_probs, want_probs):
            assert np.abs(p - q).max() <= tol * np.abs(q).max()


def test_only_attention_blocks_with_few_caption_keys_fold():
    """An attention block folds when heads * its keys <= d_model, so no
    folded matrix is larger than W_q: under full+refattn at guidance 5, of
    five shots with their identity rows, the conditional branch's shot-0
    block (3 keys) folds and its later shots' block (15 keys) does not,
    while the unconditional branch's null captions (1 and 5 keys) fold."""
    cfg, params, captions, layout = _fold_inputs("full+refattn", np.float32, "5-shots", True)
    cond = M.conditioning(captions, layout, cfg, params, 5.0)
    for runs in cond.cross_folds:
        assert [(r[0].stop - r[0].start, r[2] is None) for r in runs] == [
            (16, False), (64, True), (16, False)] + [(16, False)] * 4
        assert all(m.size <= cfg.d_model ** 2 for r in runs if r[2] is not None for m in r[2:])


def test_folded_conditioning_is_refused_under_a_tape():
    """A conditioning built with no tape recording folds W_q and W_o away,
    so a forward that keeps gradients refuses it."""
    cfg, params, captions, layout = _fold_inputs("full", np.float32, "2-shots-dropped", False)
    cond = M.conditioning(captions, layout, cfg, params, 5.0)
    assert cond.cross_folds is not None
    z = np.zeros((layout.total_tokens, cfg.d_token), dtype=np.float32)
    M.denoiser_forward(z, 0.5, captions, layout, cfg, params, guidance=5.0, cond=cond)
    with T.GradTape(), pytest.raises(ConfigError, match="folded conditioning"):
        M.denoiser_forward(z, 0.5, captions, layout, cfg, params, guidance=5.0, cond=cond)


@pytest.mark.parametrize("variant", ["full", "full+refattn"])
def test_guided_and_unguided_forwards_read_the_same_tables(variant):
    """A guided conditioning's read-only tables have one row for each of the
    2n stacked rows, and each branch's half holds the unguided table."""
    cfg = M.DenoiserConfig(**{**_TABLE_MODEL.to_dict(), "variant": variant})
    params = M.init_params(cfg, seed=0)
    sample = S.make_batch(_TABLE_WORLD, 1, shot_count_range=(3, 3), shot_len_range=(1, 2),
                          seed=8)[0]
    n = sample.layout.total_tokens
    unguided, guided = (
        M.conditioning(sample.captions, sample.layout, cfg, params, guidance)
        for guidance in (1.0, 5.0)
    )
    for one, both in zip(unguided.token_tables + unguided.query_tables,
                         guided.token_tables + guided.query_tables):
        assert one.shape[0] == n and both.shape[0] == 2 * n
        assert not one.flags.writeable and not both.flags.writeable
        assert np.array_equal(both[:n], one) and np.array_equal(both[n:], one)


def test_one_segment_is_plain_attention():
    """With one segment every row sees every key: the whole Q/K/V go to
    scaled_dot_attention, with no extra tape nodes."""
    rng = np.random.default_rng(52)
    Q, K, V = (
        Tensor(rng.standard_normal((2, n, 6)).astype(np.float32), requires_grad=True)
        for n in (9, 5, 5)
    )
    results = []
    for attend in (
        lambda probs: scaled_dot_attention(Q, K, V, probs_out=probs),
        lambda probs: segment_attention(Q, K, V, (9,), (5,), probs_out=probs),
    ):
        with T.GradTape() as tape:
            out, probs = _collected(attend, 5)
        results.append((out.data, probs, len(tape._nodes)))
    (want, want_probs, want_nodes), (got, got_probs, got_nodes) = results
    assert np.array_equal(got, want)
    assert got_nodes == want_nodes
    assert len(got_probs) == len(want_probs) == 2
    for g, w in zip(got_probs, want_probs):
        assert np.array_equal(g, w)


def test_empty_later_segment_is_skipped():
    rng = np.random.default_rng(53)
    Q, K, V = (Tensor(rng.standard_normal((2, 12, 6)).astype(np.float32)) for _ in range(3))
    want, want_probs = _collected(
        lambda sink: segment_attention(Q, K, V, (4, 12), (4, 12), probs_out=sink), 12
    )
    ends = (4, 4, 12, 12)
    got, got_probs = _collected(
        lambda sink: segment_attention(Q, K, V, ends, ends, probs_out=sink), 12
    )
    assert np.array_equal(got.data, want.data) and len(got_probs) == 2
    for g, w in zip(got_probs, want_probs):
        assert np.array_equal(g, w)


def test_reference_segments_keep_one_block_of_probabilities_at_a_time(monkeypatch):
    """Without probs_out, no block's probability array outlives its product
    with the values: when a block's softmax runs, no earlier block's array is
    alive, and none is after the call, which returns one Tensor."""
    rng = np.random.default_rng(54)
    Q, K, V = (Tensor(rng.standard_normal((2, 24, 6)).astype(np.float32)) for _ in range(3))
    ends = (6, 12, 18, 24)  # shot 0 and three later segments
    refs, alive = [], []
    softmax = T._softmax_forward

    def spy(x, out=None):
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(x))
        return softmax(x, out)

    monkeypatch.setattr(T, "_softmax_forward", spy)
    out = segment_attention(Q, K, V, ends, ends)
    assert type(out) is Tensor and out.shape == (2, 24, 6)
    assert alive == [0, 0, 0, 0]
    assert all(ref() is None for ref in refs)


def test_segment_ends_must_end_at_row_counts():
    x = Tensor(np.zeros((2, 6, 4), dtype=np.float32))
    for q_ends, k_ends in (((5,), (6,)), ((6,), (7,)), ((2, 5), (2, 6))):
        with pytest.raises(ShapeError):
            segment_attention(x, x, x, q_ends, k_ends)
    with pytest.raises(ConfigError):
        segment_attention(x, x, x, (2, 6), (6,))


# -- one kernel call against the per-segment chain it replaced ----------------

def _per_segment_chain(Q, K, V, q_ends, k_ends):
    """Attention as segment_attention ran it before it was one kernel call:
    branch by branch, one attention_core per segment, with slice_rows and
    concat_rows around it.  q_ends/k_ends hold each branch's segment ends,
    counted from the branch's first row.  Returns the output and each head's
    full probability matrix, zero where a row may not look."""
    c = 1.0 / np.sqrt(Q.shape[-1])
    probs = np.zeros(Q.shape[:-1] + K.shape[-2:-1], dtype=Q.dtype)
    outs, q_top, k_top = [], 0, 0
    for qe, ke in zip(q_ends, k_ends):
        if len(q_ends) == 1:
            Qb, Kb, Vb = Q, K, V
        else:
            Qb = T.slice_rows(Q, q_top, q_top + qe[-1])
            Kb, Vb = (T.slice_rows(X, k_top, k_top + ke[-1]) for X in (K, V))
        later = [b for b in zip(qe, qe[1:], ke, ke[1:]) if b[0] < b[1]]
        blocks = []  # each part's one (slice(None), slice(None), probabilities)
        if not later and len(qe) == 1:
            parts = [T.attention_core(Qb, Kb, Vb, c, probs_out=blocks)]
        else:
            K0, V0 = T.slice_rows(Kb, 0, ke[0]), T.slice_rows(Vb, 0, ke[0])
            parts = [T.attention_core(T.slice_rows(Qb, 0, qe[0]), K0, V0, c, probs_out=blocks)]
            for q_lo, q_hi, k_lo, k_hi in later:
                keys, values = (T.concat_rows([X0, T.slice_rows(X, k_lo, k_hi)])
                                for X0, X in ((K0, Kb), (V0, Vb)))
                Qs = T.slice_rows(Qb, q_lo, q_hi)
                parts.append(T.attention_core(Qs, keys, values, c, probs_out=blocks))
        shot0 = np.arange(k_top, k_top + ke[0])
        for (q_lo, q_hi, k_lo, k_hi), (_, _, p) in zip([(0, qe[0], 0, 0)] + later, blocks):
            probs[..., q_top + q_lo:q_top + q_hi, np.r_[shot0, k_top + k_lo:k_top + k_hi]] = p
        outs.append(parts[0] if len(parts) == 1 else T.concat_rows(parts))
        q_top, k_top = q_top + qe[-1], k_top + ke[-1]
    return outs[0] if len(outs) == 1 else T.concat_rows(outs), probs


def _stacked_blocks(q_ends, k_ends):
    """The segment_blocks of branches stacked row after row: q_ends/k_ends
    hold each branch's segment ends, counted from the branch's first row."""
    blocks, q_top, k_top = [], 0, 0
    for qe, ke in zip(q_ends, k_ends):
        blocks += segment_blocks(qe, ke, q_top, k_top)
        q_top, k_top = q_top + qe[-1], k_top + ke[-1]
    return blocks


# (per-branch query ends, per-branch key ends)
KERNEL_CASES = {
    "plain": (((9,),), ((5,),)),
    "reference, three later segments, one empty": (((4, 7, 7, 12),), ((4, 7, 7, 12),)),
    "two branches, cross-attention keys": (((4, 7, 7, 12),) * 2, ((3, 5, 5, 8), (1, 2, 2, 3))),
}


def _kernel_inputs(q_ends, k_ends, dtype):
    rng = np.random.default_rng(60)
    nq, nk = sum(e[-1] for e in q_ends), sum(e[-1] for e in k_ends)
    Q, K, V = (Tensor(rng.standard_normal((2, n, 6)), dtype=dtype) for n in (nq, nk, nk))
    return Q, K, V, Tensor(rng.standard_normal((2, nq, 6)), dtype=dtype)


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_one_kernel_call_equals_the_per_segment_chain(case):
    """Output, per-head probabilities and the float32 gradients of Q, K and V
    are the per-segment chain's bits, from one scaled_dot_attention call over
    the stacked segment_blocks and one tape node; the shared shot-0 keys sum their gradients in the
    chain's order, last segment first."""
    q_ends, k_ends = KERNEL_CASES[case]
    results = []
    for chain in (True, False):
        Q, K, V, probe = _kernel_inputs(q_ends, k_ends, np.float32)
        for X in (Q, K, V):
            X.requires_grad = True
        with T.GradTape() as tape:
            if chain:
                out, full = _per_segment_chain(Q, K, V, q_ends, k_ends)
                probs = list(full)
            else:
                blocks = _stacked_blocks(q_ends, k_ends)
                out, probs = _collected(
                    lambda sink: scaled_dot_attention(Q, K, V, sink, blocks), K.shape[-2]
                )
                nodes = len(tape._nodes)
            tape.backward(T.tmean(T.mul(out, probe)))
        results.append((out.data, probs, [X.grad for X in (Q, K, V)]))
    (want, want_probs, want_grads), (got, got_probs, got_grads) = results
    assert nodes == 1
    assert np.array_equal(got, want)
    assert len(got_probs) == len(want_probs) == 2
    for g, w in zip(got_probs + got_grads, want_probs + want_grads):
        assert g.dtype == np.float32 and np.array_equal(g, w)


@pytest.mark.parametrize("which", [0, 1, 2], ids=["q", "k", "v"])
def test_reference_segments_gradients_match_finite_differences(which):
    q_ends, k_ends = KERNEL_CASES["reference, three later segments, one empty"]
    *inputs, probe = _kernel_inputs(q_ends, k_ends, np.float64)

    def f(t):
        args = list(inputs)
        args[which] = t
        return T.tmean(T.mul(segment_attention(*args, q_ends[0], k_ends[0]), probe))

    assert T.grad_check(f, inputs[which], h=1e-5) <= 1e-5


@st.composite
def _branch_ends(draw):
    """Segment ends of one branch's query and key rows: shot 0 of at least
    one row each, then 0-3 later segments, any of them empty."""
    later = draw(st.integers(0, 3))
    q_sizes = [draw(st.integers(1, 4))] + [draw(st.integers(0, 4)) for _ in range(later)]
    k_sizes = [draw(st.integers(1, 4))] + [draw(st.integers(0, 4)) for _ in range(later)]
    return tuple(np.cumsum(q_sizes).tolist()), tuple(np.cumsum(k_sizes).tolist())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(branches=st.lists(_branch_ends(), min_size=1, max_size=3), seed=st.integers(0, 2**16))
def test_segment_blocks_equal_a_masked_dense_softmax(branches, seed):
    """float64 attention_core over the stacked segment_blocks of 1-3 branches,
    each with its own key count, equals a dense softmax whose entries are -inf
    where a row may not look: a segment's rows see their branch's shot-0 keys
    and their own segment's keys, and no other branch's."""
    q_ends, k_ends = zip(*branches)
    nq, nk = sum(e[-1] for e in q_ends), sum(e[-1] for e in k_ends)
    rng = np.random.default_rng(seed)
    Q, K, V = (rng.standard_normal((2, n, 4)) for n in (nq, nk, nk))
    seen = np.zeros((nq, nk), dtype=bool)
    q_top = k_top = 0
    for qe, ke in zip(q_ends, k_ends):
        for q_lo, q_hi, k_lo, k_hi in zip((0,) + qe, qe, (0,) + ke, ke):
            rows = slice(q_top + q_lo, q_top + q_hi)
            seen[rows, k_top:k_top + ke[0]] = True
            seen[rows, k_top + k_lo:k_top + k_hi] = True
        q_top, k_top = q_top + qe[-1], k_top + ke[-1]
    logits = np.where(seen, 0.5 * Q @ np.swapaxes(K, -1, -2), -np.inf)
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    want = weights / weights.sum(axis=-1, keepdims=True) @ V
    got = T.attention_core(*(Tensor(X, dtype=np.float64) for X in (Q, K, V)), 0.5,
                           _stacked_blocks(q_ends, k_ends))
    assert np.allclose(got.data, want, rtol=0, atol=1e-12)
