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
a layout.  Row products run once on the stack, and each attention is one
kernel call over every branch and segment.  A caption context keeps each
block's projected keys, so a sampling call, which builds its contexts
once, projects them once.

All heads run at once on [heads, n, d_head] tensors.  The rotary tables
of a layout depend only on the layout, the rotary scales and the basis,
so they are built once and shared read-only by every block, head, step
and branch that reads them: one [n, d_head] table rotates each branch's
block of stacked rows.  Only the last layout's tables are kept, and the
last two caption contexts' (a guided step's two branches): a sampling
call reads one layout at every step, while training draws a new layout
almost every forward.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import rope, tensor as T
from .tensor import ConfigError, ShapeError, Tensor


@dataclass
class AttentionWeights:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    name: str = ""  # the block's; contexts keep projected keys only under a name


def _duplicated(tables, dtype):
    """[n, d/2] cos/sin -> read-only [n, d] tables, each pair's entry twice."""
    out = []
    for tab in tables:
        tab = np.repeat(tab, 2, axis=1).astype(dtype)
        tab.flags.writeable = False
        out.append(tab)
    return tuple(out)


@functools.lru_cache(maxsize=1)
def _token_tables(basis, layout, j, dtype):
    """TcRoPE tables of every token of a layout."""
    t, h, w = layout.token_positions(j=j)
    return _duplicated(rope.phase_tables_3d(basis, t, h, w), dtype)


@functools.lru_cache(maxsize=1)
def _token_shot_tables(basis, layout, k, dtype):
    """TaRoPE tables of every token of a layout by its shot index."""
    return _duplicated(rope.phase_tables_1d(basis, layout.token_shot_index() * k), dtype)


# one caption context per guidance branch: conditional and unconditional
@functools.lru_cache(maxsize=2)
def _caption_shot_tables(basis, shots, k, dtype):
    """TaRoPE tables of caption rows tagged with the shot indices `shots`."""
    positions = np.asarray(shots, dtype=np.int64) * k
    return _duplicated(rope.phase_tables_1d(basis, positions), dtype)


def scaled_dot_attention(Q, K, V, probs_out=None, blocks=None):
    """softmax(Q K^T / sqrt(d_head)) V with deterministic reductions, as one
    attention_core call.

    Works on [n, d_head] tensors or on [heads, n, d_head] ones, head by
    head; probs_out receives one [nq, nk] probability array per head.
    blocks, as attention_core takes them, say which keys each query row
    sees; probs_out's arrays are then zero where a row may not look.
    """
    out, probs = T.attention_core(Q, K, V, 1.0 / np.sqrt(Q.shape[-1]), blocks)
    if probs_out is not None:
        if blocks is not None:
            full = np.zeros(out.shape[:-1] + K.shape[-2:-1], dtype=probs[0].dtype)
            for (q_rows, k_rows), p in zip(blocks, probs):
                full[..., q_rows, k_rows] = p
            probs = full
        probs_out.extend(probs.reshape(-1, *probs.shape[-2:]))
    return out


def segment_attention(Q, K, V, q_ends, k_ends, probs_out=None):
    """Attention over segments of query and key rows, as one kernel call.

    q_ends/k_ends are the row ends of segment 0 and of each later segment,
    one entry per segment in both, ending at the row counts.  Segment-0
    rows attend to segment-0 keys only; segment i attends to the segment-0
    keys followed by its own keys, so each segment runs the products it
    would run on its own.  One segment is plain attention: every row over
    every key.  An empty later segment is skipped.  The rows may stack
    branches: q_ends/k_ends then hold one tuple of ends per branch, each
    counted from the branch's first row, and no row sees another branch's keys.

    probs_out receives each head's full [nq, nk] probability matrix, with
    zeros where a row may not look.
    """
    q_br, k_br = (q_ends, k_ends) if isinstance(q_ends[0], tuple) else ((q_ends,), (k_ends,))
    if len(q_br) != len(k_br) or any(len(qe) != len(ke) for qe, ke in zip(q_br, k_br)):
        raise ConfigError("segment attention: query and key segments differ in number")
    if sum(e[-1] for e in q_br) != Q.shape[-2] or sum(e[-1] for e in k_br) != K.shape[-2]:
        raise ShapeError("segment attention: segment ends do not match the row counts")
    blocks, q_top, k_top = [], 0, 0
    for qe, ke in zip(q_br, k_br):
        shot0 = np.arange(k_top, k_top + ke[0])
        blocks.append((slice(q_top, q_top + qe[0]), slice(k_top, k_top + ke[0])))
        blocks += [(slice(q_top + q_lo, q_top + q_hi), np.r_[shot0, k_top + k_lo:k_top + k_hi])
                   for q_lo, q_hi, k_lo, k_hi in zip(qe, qe[1:], ke, ke[1:]) if q_lo < q_hi]
        q_top, k_top = q_top + qe[-1], k_top + ke[-1]
    return scaled_dot_attention(Q, K, V, probs_out=probs_out, blocks=blocks)


@dataclass
class ContextTokens:
    """Embedded caption tokens plus the shot index of every token row.

    segment_ends are the row ends of the caption segments, one for each of
    the layout's segment_ends: [shot 0 | each packed layout's later shots].
    projected keeps, by weights name, each block's keys and values of these
    rows (stacked with the other branches' it ran with) for its lifetime.
    """

    embeddings: Tensor
    shot_index: np.ndarray
    segment_ends: tuple
    projected: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def multishot_self_attention(
    tokens, layout, params, basis, weights, heads=4, use_ref=False, probs_out=None
):
    """Full unmasked attention across all shots with TcRoPE-indexed Q/K;
    with use_ref, over the layout's reference segments.  tokens may stack
    branches of the layout; each attends over its own rows."""
    n = layout.total_tokens
    ends = (layout.segment_ends if use_ref else (n,),) * _branches(tokens, n, heads, basis)
    tables = _token_tables(basis, layout, params.j, tokens.dtype)
    q, k = (_project(tokens, w, heads, tables) for w in (weights.wq, weights.wk))
    v = _project(tokens, weights.wv, heads)
    out = segment_attention(q, k, v, ends, ends, probs_out)
    return T.matmul(T.merge_heads(out), weights.wo)


def _caption_keys(contexts, weights, basis, k, heads, dtype):
    """The rotated keys and the values of every context's rows, stacked in
    branch order.  Under named weights the first context keeps them, with
    the other contexts, so a sampling call projects them once per block."""
    key = (weights.name, *map(id, contexts[1:]))
    if not weights.name or key not in contexts[0].projected:
        keys, values = [], []
        for ctx in contexts:
            tables = _caption_shot_tables(basis, tuple(ctx.shot_index.tolist()), k, dtype)
            keys.append(_project(ctx.embeddings, weights.wk, heads, tables))
            values.append(_project(ctx.embeddings, weights.wv, heads))
        stacks = [x[0] if len(x) == 1 else T.concat_rows(x) for x in (keys, values)]
        contexts[0].projected[key] = (contexts[1:], *stacks)
    return contexts[0].projected[key][1:]


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
    n = layout.total_tokens
    if _branches(tokens, n, heads, basis) != len(contexts):
        raise ShapeError(f"{tokens.shape[0]} token rows for {len(contexts)} caption contexts")
    for ctx in contexts:
        shots_present = set(int(s) for s in ctx.shot_index)
        if shots_present != set(range(layout.shot_count)):
            raise ConfigError(
                f"caption bundle covers shots {sorted(shots_present)}, "
                f"layout has {layout.shot_count} shots"
            )
        nk0 = ctx.segment_ends[0]
        if use_ref and len(ctx.segment_ends) > 1 and not (
            np.all(ctx.shot_index[:nk0] == 0) and np.all(ctx.shot_index[nk0:] != 0)
        ):
            raise ConfigError("reference mode requires the shot-0 captions first")
    q_ends = (layout.segment_ends if use_ref else (n,),) * len(contexts)
    k_ends = tuple(ctx.segment_ends if use_ref else (len(ctx.shot_index),) for ctx in contexts)
    q_tables = _token_shot_tables(basis, layout, params.k, tokens.dtype)
    q = _project(tokens, weights.wq, heads, q_tables)
    k, v = _caption_keys(contexts, weights, basis, params.k, heads, tokens.dtype)
    out = segment_attention(q, k, v, q_ends, k_ends, probs_out)
    return T.matmul(T.merge_heads(out), weights.wo)
