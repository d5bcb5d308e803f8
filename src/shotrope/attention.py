"""Multi-shot attention kernels.

Self-attention modulates Q/K with the boundary-shifted 3D rotary
embedding; cross-attention aligns visual queries with per-shot caption
keys via the 1D shot-index rotation.  Both run one body, and segment
blocks decide which keys a row sees.  The plain multi-shot mode is the
one-segment case: nothing is masked, and inter-shot interaction is
suppressed by rotary distance only.  The reference mode splits the rows
into segments so shot-0 rows depend on shot-0 inputs alone.  There is one
packing path: a lone layout is the packing of itself, and a layout and its
caption context give the row ends of their segments, [shot 0 | each
layout's later shots], which `segment_blocks` turns into blocks.

All heads run at once on [heads, n, d_head] tensors.  What depends only
on the layout and the captions, the rotary tables, each attention's blocks
and each block's rotated caption keys and values, is built once per forward,
or once per sampling call, into a Conditioning (model.conditioning), which
also stacks the guidance branches' rows: each kernel reads its row-aligned
tables and blocks, makes one kernel call, keeps no state and counts no branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ConfigError, ShapeError, Tensor


@dataclass
class AttentionWeights:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


def pair_tables(tables, dtype, copies=1):
    """[n, d/2] cos/sin -> read-only [copies * n, d] tables: each pair's
    entry twice, the n rows once per copy."""
    out = []
    for tab in tables:
        tab = np.repeat(tab, 2, axis=1).astype(dtype)
        tab = np.concatenate([tab] * copies) if copies > 1 else tab
        tab.flags.writeable = False
        out.append(tab)
    return tuple(out)


def scaled_dot_attention(Q, K, V, probs_out=None, blocks=None):
    """softmax(Q K^T / sqrt(d_head)) V with deterministic reductions, as one
    attention_core call, on [n, d_head] tensors or on [heads, n, d_head] ones.

    blocks and probs_out go to attention_core: blocks say which keys each
    query row sees, and a list probs_out gets each block's probabilities.
    """
    return T.attention_core(Q, K, V, 1.0 / np.sqrt(Q.shape[-1]), blocks, probs_out)


def segment_blocks(q_ends, k_ends, q_top=0, k_top=0):
    """The attention_core (query rows, key rows) blocks of segmented rows.

    q_ends/k_ends are the row ends of segment 0 and of each later segment,
    one entry per segment in both, counted from rows q_top and k_top.
    Segment-0 rows attend to segment-0 keys only; segment i attends to the
    segment-0 keys followed by its own keys, so each segment runs the
    products it would run on its own.  One segment is plain attention: every
    row over every key.  An empty later segment gets no block.
    """
    if len(q_ends) != len(k_ends):
        raise ConfigError("segment attention: query and key segments differ in number")
    shot0 = np.arange(k_top, k_top + k_ends[0])
    return [(slice(q_top, q_top + q_ends[0]), slice(k_top, k_top + k_ends[0]))] + [
        (slice(q_top + q_lo, q_top + q_hi), np.r_[shot0, k_top + k_lo:k_top + k_hi])
        for q_lo, q_hi, k_lo, k_hi in zip(q_ends, q_ends[1:], k_ends, k_ends[1:]) if q_lo < q_hi
    ]


def segment_attention(Q, K, V, q_ends, k_ends, probs_out=None):
    """Attention over segment_blocks(q_ends, k_ends), whose ends end at the
    row counts, as one kernel call; probs_out goes to scaled_dot_attention."""
    if q_ends[-1] != Q.shape[-2] or k_ends[-1] != K.shape[-2]:
        raise ShapeError("segment attention: segment ends do not match the row counts")
    return scaled_dot_attention(Q, K, V, probs_out, segment_blocks(q_ends, k_ends))


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


@dataclass(frozen=True)
class Conditioning:
    """What the attention calls of one forward read besides their rows and
    weights, built by model.conditioning from the bundles in captions.

    contexts holds each guidance branch's ContextTokens, [conditional |
    unconditional]; the first one's shot index tags the cross-attention keys
    an AttentionCollector reads.  The rows stack layout's n tokens once per
    context: token_tables and query_tables, the read-only (cos, sin) TcRoPE
    and TaRoPE tables, have one row per stacked row, and self_blocks and
    cross_blocks are the attention_core blocks of each attention, branch by
    branch.  caption_kv holds each block's rotated caption keys and values,
    stacked over the branches.  An attention over the first `rows` stacked
    rows only (block 0's self-attention, before the branches stack) reads
    the tables' first `rows` rows and the self blocks ending by `rows`.
    """

    captions: tuple
    contexts: tuple
    layout: object
    token_tables: tuple
    query_tables: tuple
    self_blocks: tuple
    cross_blocks: tuple
    caption_kv: tuple


def project(x, w, heads, tables=None):
    """x w split into heads, rotated by (cos, sin) tables when given."""
    h = T.split_heads(T.matmul(x, w), heads)
    return h if tables is None else T.rope_pairs(h, *tables)


def multishot_self_attention(tokens, cond, weights, heads=4, probs_out=None):
    """TcRoPE-indexed self-attention over cond's self blocks: all shots, or
    under full+refattn shot 0 alone and later shots with shot 0.  tokens
    are the first rows of cond's stack, one branch's or every branch's."""
    rows = tokens.shape[0]
    tables = [tab[:rows] for tab in cond.token_tables]
    q, k = (project(tokens, w, heads, tables) for w in (weights.wq, weights.wk))
    v = project(tokens, weights.wv, heads)
    blocks = [b for b in cond.self_blocks if b[0].stop <= rows]
    out = scaled_dot_attention(q, k, v, probs_out, blocks)
    return T.matmul(T.merge_heads(out), weights.wo)


def multishot_cross_attention(tokens, cond, block, weights, heads=4, probs_out=None):
    """Visual queries over concatenated per-shot caption tokens.

    Queries rotate by their token's shot index times k; the keys, block
    `block` of cond.caption_kv, by their caption's shot index times k.
    Values are left unrotated.  tokens are cond's stacked rows, and each
    branch's segments attend over its context's by cond.cross_blocks.  Of
    weights, wq and wo are read here; wk and wv made the keys.
    """
    q = project(tokens, weights.wq, heads, cond.query_tables)
    k, v = cond.caption_kv[block]
    out = scaled_dot_attention(q, k, v, probs_out, cond.cross_blocks)
    return T.matmul(T.merge_heads(out), weights.wo)
