import gc
import weakref

import numpy as np
import pytest

from shotrope import engine as E
from shotrope import model as M
from shotrope import rope
from shotrope import synthetic as S
from shotrope import tensor as T
from shotrope.attention import (
    AttentionWeights,
    ContextTokens,
    _caption_shot_tables,
    _token_shot_tables,
    _token_tables,
    multishot_cross_attention,
    multishot_self_attention,
    scaled_dot_attention,
    segment_attention,
)
from shotrope.shots import PackedLayout, ShotLayout, ShotRopeParams
from shotrope.tensor import ConfigError, ShapeError, Tensor


def _rand_weights(rng, d):
    return AttentionWeights(
        *(Tensor(rng.standard_normal((d, d)).astype(np.float32) * 0.05) for _ in range(4))
    )


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
        sink = []
        scaled_dot_attention(q, k, v, probs_out=sink)
        assert len(sink) == 1
        assert sink[0].shape == (4, 3)
        assert np.allclose(sink[0].sum(axis=1), 1.0, atol=1e-6)

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
        params = ShotRopeParams()
        o1 = multishot_self_attention(tokens, layout, params, basis, w, heads=2).data
        o2 = multishot_self_attention(tokens, layout, params, basis, w, heads=2).data
        assert o1.shape == (layout.total_tokens, d)
        assert np.array_equal(o1, o2)

    def test_zero_rates_reduce_to_global_time_rotary(self):
        # with j=0 the time index is just the global frame counter, so a
        # single-shot layout and a two-shot split of the same frames agree
        rng = np.random.default_rng(6)
        d = 24
        w = _rand_weights(rng, d)
        basis = rope.RotaryBasis(12)
        params = ShotRopeParams(j=0.0, k=0.0)
        merged = ShotLayout((4,), 2, 2)
        split = ShotLayout((2, 2), 2, 2)
        tokens = Tensor(rng.standard_normal((merged.total_tokens, d)).astype(np.float32))
        a = multishot_self_attention(tokens, merged, params, basis, w, heads=2).data
        b = multishot_self_attention(tokens, split, params, basis, w, heads=2).data
        assert np.array_equal(a, b)

    def test_phase_jump_changes_cross_shot_interaction(self):
        rng = np.random.default_rng(7)
        d = 24
        w = _rand_weights(rng, d)
        basis = rope.RotaryBasis(12)
        layout = ShotLayout((2, 2), 2, 2)
        tokens = Tensor(rng.standard_normal((layout.total_tokens, d)).astype(np.float32))
        a = multishot_self_attention(tokens, layout, ShotRopeParams(j=0.0), basis, w, heads=2).data
        b = multishot_self_attention(tokens, layout, ShotRopeParams(j=4.0), basis, w, heads=2).data
        assert not np.array_equal(a, b)

    def test_head_dim_basis_mismatch(self):
        layout = ShotLayout((1,), 2, 2)
        tokens = Tensor(np.zeros((4, 24), dtype=np.float32))
        w = _rand_weights(np.random.default_rng(8), 24)
        with pytest.raises(ShapeError):
            multishot_self_attention(
                tokens, layout, ShotRopeParams(), rope.RotaryBasis(18), w, heads=2
            )

    def test_ref_mode_isolates_shot0(self):
        rng = np.random.default_rng(9)
        d = 24
        layout = ShotLayout((2, 2), 2, 2)
        n0 = layout.token_spans()[0][1]
        w = _rand_weights(rng, d)
        basis = rope.RotaryBasis(12)
        params = ShotRopeParams()
        tok = rng.standard_normal((layout.total_tokens, d)).astype(np.float32)
        base = multishot_self_attention(
            Tensor(tok), layout, params, basis, w, heads=2, use_ref=True
        ).data
        tok2 = tok.copy()
        tok2[n0:] += 7.0
        out = multishot_self_attention(
            Tensor(tok2), layout, params, basis, w, heads=2, use_ref=True
        ).data
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
        out = multishot_cross_attention(
            tokens, (ctx,), layout, ShotRopeParams(), rope.RotaryBasis(12), w, heads=2
        )
        assert out.shape == (layout.total_tokens, 24)

    def test_missing_shot_in_context_rejected(self):
        rng = np.random.default_rng(11)
        layout = ShotLayout((2, 2), 2, 2)
        tokens, _, w = self._setup(rng, layout)
        bad_ctx = ContextTokens(
            Tensor(rng.standard_normal((2, 24)).astype(np.float32)), np.array([0, 0]), (2, 2)
        )
        with pytest.raises(ConfigError):
            multishot_cross_attention(
                tokens, (bad_ctx,), layout, ShotRopeParams(), rope.RotaryBasis(12), w, heads=2
            )

    def test_zero_suppression_rate_ignores_shot_indices(self):
        # with k=0 no rotation happens, so permuting which context row is
        # tagged with which shot cannot change the output
        rng = np.random.default_rng(12)
        layout = ShotLayout((2, 2), 2, 2)
        tokens, ctx, w = self._setup(rng, layout, rows_per_shot=1)
        params = ShotRopeParams(j=0.0, k=0.0)
        basis = rope.RotaryBasis(12)
        a = multishot_cross_attention(tokens, (ctx,), layout, params, basis, w, heads=2).data
        flipped = ContextTokens(ctx.embeddings, ctx.shot_index[::-1].copy(), ctx.segment_ends)
        b = multishot_cross_attention(tokens, (flipped,), layout, params, basis, w, heads=2).data
        assert np.array_equal(a, b)

    def test_suppression_rate_breaks_that_symmetry(self):
        rng = np.random.default_rng(13)
        layout = ShotLayout((2, 2), 2, 2)
        tokens, ctx, w = self._setup(rng, layout, rows_per_shot=1)
        params = ShotRopeParams(j=0.0, k=6.0)
        basis = rope.RotaryBasis(12)
        a = multishot_cross_attention(tokens, (ctx,), layout, params, basis, w, heads=2).data
        flipped = ContextTokens(ctx.embeddings, ctx.shot_index[::-1].copy(), ctx.segment_ends)
        b = multishot_cross_attention(tokens, (flipped,), layout, params, basis, w, heads=2).data
        assert not np.array_equal(a, b)

    def test_context_row_order_is_irrelevant(self):
        # each key rotates by its own caption's shot index, so permuting the
        # context rows only permutes the columns each softmax sums over
        rng = np.random.default_rng(16)
        layout = ShotLayout((2, 1, 2), 2, 2)
        tokens, ctx, w = self._setup(rng, layout, rows_per_shot=2)
        params, basis = ShotRopeParams(), rope.RotaryBasis(12)
        base = multishot_cross_attention(tokens, (ctx,), layout, params, basis, w, heads=2).data
        perm = rng.permutation(ctx.shot_index.size)
        assert not np.array_equal(ctx.shot_index[perm], ctx.shot_index)
        permuted = ContextTokens(
            Tensor(ctx.embeddings.data[perm]), ctx.shot_index[perm], ctx.segment_ends
        )
        out = multishot_cross_attention(tokens, (permuted,), layout, params, basis, w, heads=2).data
        assert np.max(np.abs(out - base)) <= 1e-5

    def test_ref_mode_requires_sorted_context(self):
        rng = np.random.default_rng(14)
        layout = ShotLayout((2, 2), 2, 2)
        tokens, ctx, w = self._setup(rng, layout, rows_per_shot=1)
        unsorted = ContextTokens(ctx.embeddings, np.array([1, 0]), ctx.segment_ends)
        with pytest.raises(ConfigError):
            multishot_cross_attention(
                tokens, (unsorted,), layout, ShotRopeParams(), rope.RotaryBasis(12), w,
                heads=2, use_ref=True,
            )

    def test_ref_mode_isolates_shot0_from_later_captions(self):
        rng = np.random.default_rng(15)
        layout = ShotLayout((2, 2), 2, 2)
        n0 = layout.token_spans()[0][1]
        tokens, ctx, w = self._setup(rng, layout, rows_per_shot=2)
        params = ShotRopeParams()
        basis = rope.RotaryBasis(12)
        base = multishot_cross_attention(
            tokens, (ctx,), layout, params, basis, w, heads=2, use_ref=True
        ).data
        emb = ctx.embeddings.data.copy()
        emb[2:] += 9.0  # later-shot caption rows only
        ctx2 = ContextTokens(Tensor(emb), ctx.shot_index, ctx.segment_ends)
        out = multishot_cross_attention(
            tokens, (ctx2,), layout, params, basis, w, heads=2, use_ref=True
        ).data
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
    params = ShotRopeParams(j=4.0)
    w = _rand_weights(rng, d)
    tokens = Tensor(rng.standard_normal((layout.total_tokens, d)).astype(np.float32))
    tabs = _pair_tables(*rope.phase_tables_3d(basis, *layout.token_positions(j=params.j)))
    n0 = layout.token_spans()[0][1] if use_ref else None
    expect = _per_head_reference(tokens, tokens, w, heads, tabs, tabs, n0, n0)
    got = multishot_self_attention(tokens, layout, params, basis, w, heads=heads, use_ref=use_ref)
    assert np.array_equal(got.data, expect)


@pytest.mark.parametrize("heads", [2, 4])
@pytest.mark.parametrize("use_ref", [False, True])
def test_cross_attention_equals_per_head_reference(heads, use_ref):
    rng = np.random.default_rng(30 + heads)
    layout = ShotLayout((2, 1, 3), 2, 2)
    d = 24 * heads // 2
    basis = rope.RotaryBasis(d // heads)
    params = ShotRopeParams(k=6.0)
    w = _rand_weights(rng, d)
    shots = np.array([0, 0, 0, 1, 1, 2, 2])
    ctx = ContextTokens(Tensor(rng.standard_normal((7, d)).astype(np.float32)), shots, (3, 7))
    tokens = Tensor(rng.standard_normal((layout.total_tokens, d)).astype(np.float32))
    qtabs = _pair_tables(*rope.phase_tables_1d(basis, layout.token_shot_index() * params.k))
    ktabs = _pair_tables(*rope.phase_tables_1d(basis, shots * params.k))
    nq0 = layout.token_spans()[0][1] if use_ref else None
    expect = _per_head_reference(tokens, ctx.embeddings, w, heads, qtabs, ktabs, nq0, 3)
    got = multishot_cross_attention(
        tokens, (ctx,), layout, params, basis, w, heads=heads, use_ref=use_ref
    )
    assert np.array_equal(got.data, expect)


@pytest.mark.parametrize("use_ref", [False, True])
def test_probs_out_gives_one_full_matrix_per_head(use_ref):
    rng = np.random.default_rng(40)
    layout = ShotLayout((2, 2), 2, 2)
    n, n0 = layout.total_tokens, layout.token_spans()[0][1]
    w = _rand_weights(rng, 24)
    tokens = Tensor(rng.standard_normal((n, 24)).astype(np.float32))
    sink = []
    multishot_self_attention(
        tokens, layout, ShotRopeParams(), rope.RotaryBasis(12), w, heads=2,
        use_ref=use_ref, probs_out=sink,
    )
    assert len(sink) == 2
    for probs in sink:
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
    params = ShotRopeParams(j=4.0)
    tokens = Tensor(rng.standard_normal((layout.total_tokens, d)), dtype=np.float64)
    w = AttentionWeights(
        *(Tensor(rng.standard_normal((d, d)) * 0.1, dtype=np.float64) for _ in range(4))
    )
    calls = _spy_rope_pairs(monkeypatch)
    multishot_self_attention(tokens, layout, params, basis, w, heads=heads)
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
                oracle = tcrope(x[h, i], tl, hh, ww, s, layout, params, basis)
                assert np.array_equal(out[h, i], oracle)


def test_cross_attention_rotations_are_tarope(monkeypatch):
    """Queries rotate by their token's shot index and keys by their
    caption's, exactly as the scalar TaRoPE oracle does."""
    from shotrope.shots import tarope

    rng = np.random.default_rng(42)
    layout = ShotLayout((2, 1, 2), 1, 2)
    heads, d = 2, 24
    basis = rope.RotaryBasis(12)
    params = ShotRopeParams(k=6.0)
    shots = np.array([0, 0, 1, 2, 2])
    ctx = ContextTokens(Tensor(rng.standard_normal((5, d)), dtype=np.float64), shots, (2, 5))
    tokens = Tensor(rng.standard_normal((layout.total_tokens, d)), dtype=np.float64)
    w = AttentionWeights(
        *(Tensor(rng.standard_normal((d, d)) * 0.1, dtype=np.float64) for _ in range(4))
    )
    calls = _spy_rope_pairs(monkeypatch)
    multishot_cross_attention(tokens, (ctx,), layout, params, basis, w, heads=heads)
    assert len(calls) == 2
    for (x, out), row_shots in zip(calls, (layout.token_shot_index(), shots)):
        for h in range(heads):
            for i, s in enumerate(row_shots):
                oracle = tarope(x[h, i], int(s), params, basis)
                assert np.array_equal(out[h, i], oracle)


def test_rope_sign_fault_reaches_oracles_and_model(monkeypatch):
    """A sign fault in the one pair swap the rotation kernel uses, a*cos -
    swap(a)*sin, changes the scalar oracle and both attention kernels alike."""
    from shotrope.shots import tarope

    rng = np.random.default_rng(43)
    layout = ShotLayout((2, 1), 2, 2)
    d = 24
    basis = rope.RotaryBasis(12)
    params = ShotRopeParams(j=4.0, k=6.0)
    w = _rand_weights(rng, d)
    tokens = Tensor(rng.standard_normal((layout.total_tokens, d)).astype(np.float32))
    ctx = ContextTokens(
        Tensor(rng.standard_normal((4, d)).astype(np.float32)), np.array([0, 0, 1, 1]), (2, 4)
    )
    v = rng.standard_normal(12)

    def run():
        return (
            tarope(v, 1, params, basis),
            multishot_self_attention(tokens, layout, params, basis, w, heads=2).data,
            multishot_cross_attention(tokens, (ctx,), layout, params, basis, w, heads=2).data,
        )

    clean = run()
    swap = T._pair_swap
    monkeypatch.setattr(T, "_pair_swap", lambda a: -swap(a))
    for got, expect in zip(run(), clean):
        assert not np.array_equal(got, expect)
    monkeypatch.undo()
    for got, expect in zip(run(), clean):
        assert np.array_equal(got, expect)


def _two_part_split(Q, K, V, nq0, nk0, probs_out=None):
    """The reference split as two blocks: rows :nq0 over keys :nk0, later
    rows over all keys; segment_attention with one later segment."""
    nq, nk = Q.shape[-2], K.shape[-2]
    p0, p_rest = [], []
    out = scaled_dot_attention(
        T.slice_rows(Q, 0, nq0), T.slice_rows(K, 0, nk0), T.slice_rows(V, 0, nk0), probs_out=p0
    )
    if nq0 < nq:
        rest = scaled_dot_attention(T.slice_rows(Q, nq0, nq), K, V, probs_out=p_rest)
        out = T.concat_rows([out, rest])
    if probs_out is not None:
        full = np.zeros((len(p0), nq, nk), dtype=p0[0].dtype)
        full[:, :nq0, :nk0] = p0
        if p_rest:
            full[:, nq0:] = p_rest
        probs_out.extend(full)
    return out


@pytest.mark.parametrize("nq0, nq, nk0, nk", [(8, 20, 3, 7), (8, 8, 3, 3), (4, 12, 4, 12)])
def test_one_segment_split_equals_two_part_split(nq0, nq, nk0, nk):
    rng = np.random.default_rng(50)
    Q, K, V = (
        Tensor(rng.standard_normal((2, n, 6)).astype(np.float32)) for n in (nq, nk, nk)
    )
    want_probs, got_probs = [], []
    want = _two_part_split(Q, K, V, nq0, nk0, probs_out=want_probs)
    got = segment_attention(Q, K, V, (nq0, nq), (nk0, nk), probs_out=got_probs)
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
    probs = []
    ends = packed.segment_ends
    got = segment_attention(Q, K, V, ends, ends, probs_out=probs).data
    assert ends == (8, 12, 28, 36)
    for layout, rows in zip(packed.layouts, packed.unpack(np.arange(n))):
        alone_probs = []
        parts = [Tensor(np.ascontiguousarray(X.data[:, rows])) for X in (Q, K, V)]
        lay_ends = layout.segment_ends
        alone = segment_attention(*parts, lay_ends, lay_ends, probs_out=alone_probs).data
        assert np.array_equal(got[:, rows], alone)
        for p, a in zip(probs, alone_probs):
            assert np.array_equal(p[np.ix_(rows, rows)], a)
            # a row puts no weight on another layout's later shots
            assert not p[np.ix_(rows, np.setdiff1d(np.arange(n), rows))].any()


def test_packed_tables_are_each_layouts_tables():
    basis = rope.RotaryBasis(8)
    packed = PackedLayout((ShotLayout((2, 1), 2, 2), ShotLayout((2, 3), 2, 2)))
    for tables in (_token_tables, _token_shot_tables):
        got = tables(basis, packed, 4.0, np.float32)
        per_layout = [tables(basis, lay, 4.0, np.float32) for lay in packed.layouts]
        for g, tabs in zip(got, zip(*per_layout)):
            for lay_tab, lay_rows in zip(tabs, packed.unpack(np.arange(packed.total_tokens))):
                assert np.array_equal(g[lay_rows], lay_tab)
            assert not g.flags.writeable


def _spy_rope_tables(monkeypatch):
    """Record (rows rotated, cos, sin) of every rope_pairs call."""
    calls = []
    rope_pairs = T.rope_pairs

    def spy(x, cos, sin):
        calls.append((x.shape[-2], cos, sin))
        return rope_pairs(x, cos, sin)

    monkeypatch.setattr(T, "rope_pairs", spy)
    return calls


_TABLE_WORLD = S.SyntheticWorld(seed=2, d_token=32, d_id=8, v_scene=4, v_mot=2, height=2, width=2)
_TABLE_MODEL = M.DenoiserConfig(d_model=24, blocks=2, heads=2, ffn_mult=2, d_token=32, d_id=8)


def test_training_keeps_no_stale_layouts_tables(monkeypatch):
    """After training on distinct layouts, each token-table cache holds one
    entry, and of the tables the forwards read, only the last layout's and
    at most two caption contexts' are still alive."""
    calls = _spy_rope_tables(monkeypatch)
    layouts = []
    make_batch = S.make_batch

    def recording_make_batch(*args, **kwargs):
        batch = make_batch(*args, **kwargs)
        layouts.extend(sample.layout for sample in batch)
        return batch

    monkeypatch.setattr(S, "make_batch", recording_make_batch)
    tcfg = E.TrainConfig(steps=6, batch_size=1, seed=4, shot_count_range=(1, 4),
                         shot_len_range=(1, 3))
    E.train(_TABLE_MODEL, tcfg, _TABLE_WORLD)
    assert len(set(layouts)) == 6
    read = [weakref.ref(tab) for _, cos, sin in calls for tab in (cos, sin)]
    del calls[:]
    gc.collect()
    alive = {id(tab): tab for tab in (ref() for ref in read) if tab is not None}
    for cache in (_token_tables, _token_shot_tables):
        assert cache.cache_info().currsize == 1
    assert _caption_shot_tables.cache_info().currsize <= 2
    basis = rope.RotaryBasis(_TABLE_MODEL.head_dim, _TABLE_MODEL.rope_base)
    last = [
        *_token_tables(basis, layouts[-1], _TABLE_MODEL.j_eff, np.dtype(np.float32)),
        *_token_shot_tables(basis, layouts[-1], _TABLE_MODEL.k_eff, np.dtype(np.float32)),
    ]
    # the last layout's four token tables are the ones kept, not rebuilt
    assert all(id(tab) in alive for tab in last)
    assert len(alive) <= len(last) + 4


@pytest.mark.parametrize("variant", ["full", "full+refattn"])
def test_guided_and_unguided_forwards_read_the_same_tables(monkeypatch, variant):
    """A guided forward rotates both stacked branches by the one [n, d_head]
    table its unguided forward reads: the same read-only arrays."""
    cfg = M.DenoiserConfig(**{**_TABLE_MODEL.to_dict(), "variant": variant})
    params = M.init_params(cfg, seed=0)
    sample = S.make_batch(_TABLE_WORLD, 1, shot_count_range=(3, 3), shot_len_range=(1, 2),
                          seed=8)[0]
    n = sample.layout.total_tokens
    calls = _spy_rope_tables(monkeypatch)
    read = []
    for guidance in (1.0, 5.0):
        M.denoiser_forward(sample.tokens, 0.5, sample.captions, sample.layout, cfg, params,
                           guidance=guidance)
        read.append(calls[:])
        del calls[:]
    unguided, guided = ({id(tab): tab for _, cos, sin in c for tab in (cos, sin)} for c in read)
    assert unguided.keys() <= guided.keys()
    assert not any(tab.flags.writeable for tab in guided.values())
    token_tables = {key for key, tab in unguided.items() if tab.shape[0] == n}
    assert len(token_tables) == 4
    # from block 0's cross-attention on, the 2n stacked rows rotate by those n-row tables
    stacked = {id(tab) for rows, cos, sin in read[1] if rows == 2 * n for tab in (cos, sin)}
    assert stacked == token_tables


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
        probs = []
        with T.GradTape() as tape:
            out = attend(probs)
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
    want_probs, got_probs = [], []
    want = segment_attention(Q, K, V, (4, 12), (4, 12), probs_out=want_probs).data
    got = segment_attention(Q, K, V, (4, 4, 12, 12), (4, 4, 12, 12), probs_out=got_probs).data
    assert np.array_equal(got, want)
    for g, w in zip(got_probs, want_probs):
        assert np.array_equal(g, w)


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
        if not later and len(qe) == 1:
            parts = [T.attention_core(Qb, Kb, Vb, c)]
        else:
            K0, V0 = T.slice_rows(Kb, 0, ke[0]), T.slice_rows(Vb, 0, ke[0])
            parts = [T.attention_core(T.slice_rows(Qb, 0, qe[0]), K0, V0, c)]
            for q_lo, q_hi, k_lo, k_hi in later:
                keys, values = (T.concat_rows([X0, T.slice_rows(X, k_lo, k_hi)])
                                for X0, X in ((K0, Kb), (V0, Vb)))
                parts.append(T.attention_core(T.slice_rows(Qb, q_lo, q_hi), keys, values, c))
        shot0 = np.arange(k_top, k_top + ke[0])
        for (q_lo, q_hi, k_lo, k_hi), (_, p) in zip([(0, qe[0], 0, 0)] + later, parts):
            probs[..., q_top + q_lo:q_top + q_hi, np.r_[shot0, k_top + k_lo:k_top + k_hi]] = p
        outs.append(parts[0][0] if len(parts) == 1 else T.concat_rows([o for o, _ in parts]))
        q_top, k_top = q_top + qe[-1], k_top + ke[-1]
    return outs[0] if len(outs) == 1 else T.concat_rows(outs), probs


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
    are the per-segment chain's bits, from one scaled_dot_attention call and
    one tape node; the shared shot-0 keys sum their gradients in the
    chain's order, last segment first."""
    q_ends, k_ends = KERNEL_CASES[case]
    results = []
    for chain in (True, False):
        Q, K, V, probe = _kernel_inputs(q_ends, k_ends, np.float32)
        for X in (Q, K, V):
            X.requires_grad = True
        probs, calls = [], []
        with T.GradTape() as tape:
            if chain:
                out, full = _per_segment_chain(Q, K, V, q_ends, k_ends)
                probs = list(full)
            else:
                ends = (q_ends, k_ends) if len(q_ends) > 1 else (q_ends[0], k_ends[0])
                out = segment_attention(Q, K, V, *ends, probs_out=probs)
                nodes = len(tape._nodes)
            tape.backward(T.tsum(T.mul(out, probe)))
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
        return T.tsum(T.mul(segment_attention(*args, q_ends[0], k_ends[0]), probe))

    assert T.grad_check(f, inputs[which], h=1e-5) <= 1e-5
