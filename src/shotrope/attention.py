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
layout's later shots].

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


def _duplicated(tables, dtype):
    """[n, d/2] cos/sin -> read-only [n, d] tables, each pair's entry twice."""
    out = []
    for tab in tables:
        tab = np.repeat(tab, 2, axis=1).astype(dtype)
        tab.flags.writeable = False
        out.append(tab)
    return tuple(out)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _token_tables(basis3d, layout, j, dtype):
    """TcRoPE tables of every token of a layout."""
    t, h, w = layout.token_positions(j=j)
    return _duplicated(rope.phase_tables_3d(basis3d, t, h, w), dtype)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _token_shot_tables(basis1d, layout, k, dtype):
    """TaRoPE tables of every token of a layout, by its shot index."""
    return _duplicated(rope.phase_tables_1d(basis1d, layout.token_shot_index() * k), dtype)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _caption_shot_tables(basis1d, shots, k, dtype):
    """TaRoPE tables of caption rows tagged with the shot indices `shots`."""
    positions = np.asarray(shots, dtype=np.int64) * k
    return _duplicated(rope.phase_tables_1d(basis1d, positions), dtype)


def scaled_dot_attention(Q, K, V, probs_out=None):
    """softmax(Q K^T / sqrt(d_head)) V with deterministic reductions.

    Works on [n, d_head] tensors or on [heads, n, d_head] ones, head by
    head; probs_out receives one [nq, nk] probability array per head.
    """
    if (
        Q.shape[-1] != K.shape[-1]
        or K.shape[-2] != V.shape[-2]
        or not Q.shape[:-2] == K.shape[:-2] == V.shape[:-2]
    ):
        raise ShapeError(
            f"scaled_dot_attention: incompatible shapes {Q.shape} {K.shape} {V.shape}"
        )
    inv = 1.0 / np.sqrt(Q.shape[-1])
    logits = T.scale(T.batched_matmul(Q, T.transpose(K)), inv)
    probs = T.softmax_rows(logits)
    if probs_out is not None:
        probs_out.extend(probs.data.reshape(-1, *probs.shape[-2:]))
    return T.batched_matmul(probs, V)


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


def _attention(x, x_kv, weights, heads, basis, q_tables, k_tables, q_ends, k_ends, probs_out):
    """Project, rotate Q/K by their tables, attend over segments, merge heads."""
    if x.shape[0] != q_ends[-1]:
        raise ShapeError(f"token count {x.shape[0]} != layout tokens {q_ends[-1]}")
    dh = x.shape[1] // heads
    if basis.dim != dh:
        raise ShapeError(f"basis dim {basis.dim} != head dim {dh}")
    q = T.rope_pairs(T.split_heads(T.matmul(x, weights.wq), heads), *q_tables)
    k = T.rope_pairs(T.split_heads(T.matmul(x_kv, weights.wk), heads), *k_tables)
    v = T.split_heads(T.matmul(x_kv, weights.wv), heads)
    out = segment_attention(q, k, v, q_ends, k_ends, probs_out=probs_out)
    return T.matmul(T.merge_heads(out), weights.wo)


def multishot_self_attention(
    tokens, layout, params, basis3d, weights, heads=4, use_ref=False, probs_out=None
):
    """Full unmasked attention across all shots with TcRoPE-indexed Q/K;
    with use_ref, over the layout's reference segments."""
    tables = _token_tables(basis3d, layout, params.j, tokens.dtype)
    ends = layout.segment_ends if use_ref else (layout.total_tokens,)
    return _attention(
        tokens, tokens, weights, heads, basis3d, tables, tables, ends, ends, probs_out
    )


def multishot_cross_attention(
    tokens,
    context,
    layout,
    params,
    basis1d,
    weights,
    heads=4,
    use_ref=False,
    probs_out=None,
):
    """Visual queries over concatenated per-shot caption tokens.

    Queries rotate by their token's shot index times k; keys by their
    caption's shot index times k.  Values are left unrotated.  With
    use_ref, the layout's segments attend over the context's.
    """
    shots_present = set(int(s) for s in context.shot_index)
    if shots_present != set(range(layout.shot_count)):
        raise ConfigError(
            f"caption bundle covers shots {sorted(shots_present)}, "
            f"layout has {layout.shot_count} shots"
        )
    q_ends = layout.segment_ends if use_ref else (layout.total_tokens,)
    k_ends = context.segment_ends if use_ref else (len(context.shot_index),)
    nk0 = k_ends[0]
    if len(k_ends) > 1 and not (
        np.all(context.shot_index[:nk0] == 0) and np.all(context.shot_index[nk0:] != 0)
    ):
        raise ConfigError("reference mode requires the shot-0 captions first")
    q_tables = _token_shot_tables(basis1d, layout, params.k, tokens.dtype)
    k_tables = _caption_shot_tables(
        basis1d, tuple(context.shot_index.tolist()), params.k, tokens.dtype
    )
    return _attention(
        tokens, context.embeddings, weights, heads, basis1d, q_tables, k_tables, q_ends, k_ends,
        probs_out,
    )
