"""Multi-shot attention kernels.

Self-attention modulates Q/K with the boundary-shifted 3D rotary
embedding; cross-attention aligns visual queries with per-shot caption
keys via the 1D shot-index rotation.  Both run one body, and one segment
kernel decides which keys a row sees.  The plain multi-shot mode is its
one-segment case: nothing is masked, and inter-shot interaction is
suppressed by rotary distance only.  The reference mode splits the rows
into segments so shot-0 rows depend on shot-0 inputs alone.  There is one
packing path: a lone layout is the packing of itself, and a layout and its
caption context give the row ends of their segments, [shot 0 | each
layout's later shots].  The query rows may stack one block per branch of
a layout: row products then run once on the stack, attention per branch.

All heads run at once on [heads, n, d_head] tensors.  The rotary tables
of a layout depend only on the layout, the rotary scales and the basis,
so they are built once and shared read-only by every block, head and
forward that uses them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rope, tensor as T
from .tensor import ConfigError, ShapeError, Tensor


@dataclass
class AttentionWeights:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


# small bounded caches: sampling reuses a handful of layouts for every
# step, while training draws a new layout almost every step
_TABLE_CACHE_SIZE = 16


def _duplicated(tables, dtype, copies=1):
    """[n, d/2] cos/sin -> read-only [copies * n, d] tables, each pair's entry twice."""
    out = []
    for tab in tables:
        tab = np.tile(np.repeat(tab, 2, axis=1).astype(dtype), (copies, 1))
        tab.flags.writeable = False
        out.append(tab)
    return tuple(out)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _token_tables(basis, layout, j, dtype, copies=1):
    """TcRoPE tables of every token of a layout, for copies branches."""
    t, h, w = layout.token_positions(j=j)
    return _duplicated(rope.phase_tables_3d(basis, t, h, w), dtype, copies)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _token_shot_tables(basis, layout, k, dtype, copies=1):
    """TaRoPE tables of every token of a layout by its shot index, for copies branches."""
    return _duplicated(rope.phase_tables_1d(basis, layout.token_shot_index() * k), dtype, copies)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _caption_shot_tables(basis, shots, k, dtype):
    """TaRoPE tables of caption rows tagged with the shot indices `shots`."""
    positions = np.asarray(shots, dtype=np.int64) * k
    return _duplicated(rope.phase_tables_1d(basis, positions), dtype)


def scaled_dot_attention(Q, K, V, probs_out=None):
    """softmax(Q K^T / sqrt(d_head)) V with deterministic reductions.

    Works on [n, d_head] tensors or on [heads, n, d_head] ones, head by
    head; probs_out receives one [nq, nk] probability array per head.
    """
    out, probs = T.attention_core(Q, K, V, 1.0 / np.sqrt(Q.shape[-1]))
    if probs_out is not None:
        probs_out.extend(probs.reshape(-1, *probs.shape[-2:]))
    return out


def segment_attention(Q, K, V, q_ends, k_ends, probs_out=None):
    """Attention over segments of query and key rows.

    q_ends/k_ends are the row ends of segment 0 and of each later segment,
    one entry per segment in both, ending at the row counts.  Segment-0
    rows attend to segment-0 keys only; segment i attends to the segment-0
    keys followed by its own keys, so each segment runs the products it
    would run on its own.  One segment is plain attention: every row over
    every key.  An empty later segment is skipped.

    probs_out receives each head's full [nq, nk] probability matrix, with
    zeros where a row may not look.
    """
    if len(q_ends) != len(k_ends):
        raise ConfigError("segment attention: query and key segments differ in number")
    nq, nk = Q.shape[-2], K.shape[-2]
    if q_ends[-1] != nq or k_ends[-1] != nk:
        raise ShapeError("segment attention: segment ends do not match the row counts")
    if len(q_ends) == 1:
        return scaled_dot_attention(Q, K, V, probs_out=probs_out)
    nq0, nk0 = q_ends[0], k_ends[0]
    K0, V0 = T.slice_rows(K, 0, nk0), T.slice_rows(V, 0, nk0)
    probs = [] if probs_out is not None else None
    outs = [scaled_dot_attention(T.slice_rows(Q, 0, nq0), K0, V0, probs_out=probs)]
    blocks = [(0, nq0, nk0, nk0)]
    for q_lo, q_hi, k_lo, k_hi in zip(q_ends[:-1], q_ends[1:], k_ends[:-1], k_ends[1:]):
        if q_lo == q_hi:
            continue
        keys = T.concat_rows([K0, T.slice_rows(K, k_lo, k_hi)])
        values = T.concat_rows([V0, T.slice_rows(V, k_lo, k_hi)])
        queries = T.slice_rows(Q, q_lo, q_hi)
        outs.append(scaled_dot_attention(queries, keys, values, probs_out=probs))
        blocks.append((q_lo, q_hi, k_lo, k_hi))
    if probs_out is not None:
        heads = len(probs) // len(blocks)
        full = np.zeros((heads, nq, nk), dtype=probs[0].dtype)
        for b, (q_lo, q_hi, k_lo, k_hi) in enumerate(blocks):
            full[:, q_lo:q_hi][..., np.r_[0:nk0, k_lo:k_hi]] = probs[b * heads : (b + 1) * heads]
        probs_out.extend(full)
    return T.concat_rows(outs) if len(outs) > 1 else outs[0]


@dataclass
class ContextTokens:
    """Embedded caption tokens plus the shot index of every token row.

    segment_ends are the row ends of the caption segments, one for each of
    the layout's segment_ends: [shot 0 | each packed layout's later shots].
    """

    embeddings: Tensor
    shot_index: np.ndarray
    segment_ends: tuple

    def __post_init__(self):
        self.shot_index = np.asarray(self.shot_index, dtype=np.int64)
        n = self.embeddings.shape[0]
        if self.shot_index.shape[0] != n or self.segment_ends[-1] != n:
            raise ShapeError("ContextTokens: shot index or segment ends do not match the rows")


def _branches(x, n, heads, basis):
    """How many blocks of a layout's n rows x stacks, one per branch."""
    if x.shape[0] % n or not x.shape[0]:
        raise ShapeError(f"token count {x.shape[0]} is not a whole number of {n}-token layouts")
    if basis.dim != x.shape[1] // heads:
        raise ShapeError(f"basis dim {basis.dim} != head dim {x.shape[1] // heads}")
    return x.shape[0] // n


def _project(x, w, heads, tables=None):
    h = T.split_heads(T.matmul(x, w), heads)
    return h if tables is None else T.rope_pairs(h, *tables)


def _block(x, b, branches):
    """Branch b's block of the rows (axis -2) of x, which stacks branches blocks."""
    n = x.shape[-2] // branches
    return x if branches == 1 else T.slice_rows(x, b * n, (b + 1) * n)


def _attend(q, keys, q_ends, wo, probs_out):
    """Each branch's block of q attends over its (K, V, key ends) in keys; the
    heads merge, and the output projection runs once on the stacked rows."""
    outs = [segment_attention(_block(q, b, len(keys)), k, v, q_ends, k_ends, probs_out)
            for b, (k, v, k_ends) in enumerate(keys)]
    return T.matmul(T.merge_heads(outs[0] if len(outs) == 1 else T.concat_rows(outs)), wo)


def multishot_self_attention(
    tokens, layout, params, basis, weights, heads=4, use_ref=False, probs_out=None
):
    """Full unmasked attention across all shots with TcRoPE-indexed Q/K;
    with use_ref, over the layout's reference segments.  tokens may stack
    branches of the layout; each attends over its own rows."""
    branches = _branches(tokens, layout.total_tokens, heads, basis)
    tables = _token_tables(basis, layout, params.j, tokens.dtype, branches)
    ends = layout.segment_ends if use_ref else (layout.total_tokens,)
    q, k = (_project(tokens, w, heads, tables) for w in (weights.wq, weights.wk))
    v = _project(tokens, weights.wv, heads)
    keys = [(_block(k, b, branches), _block(v, b, branches), ends) for b in range(branches)]
    return _attend(q, keys, ends, weights.wo, probs_out)


def multishot_cross_attention(
    tokens,
    contexts,
    layout,
    params,
    basis,
    weights,
    heads=4,
    use_ref=False,
    probs_out=None,
):
    """Visual queries over concatenated per-shot caption tokens.

    Queries rotate by their token's shot index times k; keys by their
    caption's shot index times k.  Values are left unrotated.  With
    use_ref, the layout's segments attend over the context's.  contexts
    holds one ContextTokens per branch that tokens stacks.
    """
    if _branches(tokens, layout.total_tokens, heads, basis) != len(contexts):
        raise ShapeError(f"{tokens.shape[0]} token rows for {len(contexts)} caption contexts")
    q_tables = _token_shot_tables(basis, layout, params.k, tokens.dtype, len(contexts))
    q = _project(tokens, weights.wq, heads, q_tables)
    keys = []
    for ctx in contexts:
        shots_present = set(int(s) for s in ctx.shot_index)
        if shots_present != set(range(layout.shot_count)):
            raise ConfigError(
                f"caption bundle covers shots {sorted(shots_present)}, "
                f"layout has {layout.shot_count} shots"
            )
        k_ends = ctx.segment_ends if use_ref else (len(ctx.shot_index),)
        nk0 = k_ends[0]
        if len(k_ends) > 1 and not (
            np.all(ctx.shot_index[:nk0] == 0) and np.all(ctx.shot_index[nk0:] != 0)
        ):
            raise ConfigError("reference mode requires the shot-0 captions first")
        k_tables = _caption_shot_tables(
            basis, tuple(ctx.shot_index.tolist()), params.k, tokens.dtype
        )
        k = _project(ctx.embeddings, weights.wk, heads, k_tables)
        keys.append((k, _project(ctx.embeddings, weights.wv, heads), k_ends))
    q_ends = layout.segment_ends if use_ref else (layout.total_tokens,)
    return _attend(q, keys, q_ends, weights.wo, probs_out)
