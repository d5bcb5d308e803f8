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
kernel call over every branch and segment.

All heads run at once on [heads, n, d_head] tensors.  What depends only
on the layout and the captions, the rotary tables, the segment ends and
each block's rotated caption keys and values, is built once per forward,
or once per sampling call, into a Conditioning (model.conditioning), and
both kernels read it and keep no state.  Every block, head, step and
branch reads the same read-only tables: one [n, d_head] table rotates
each branch's block of stacked rows.
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


def pair_tables(tables, dtype):
    """[n, d/2] cos/sin -> read-only [n, d] tables, each pair's entry twice."""
    out = []
    for tab in tables:
        tab = np.repeat(tab, 2, axis=1).astype(dtype)
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
    probs_out goes to scaled_dot_attention.
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
    weights, built by model.conditioning.

    contexts holds each guidance branch's ContextTokens, [conditional |
    unconditional]; the first one's shot index tags the cross-attention
    keys an AttentionCollector reads.  token_tables and query_tables are the
    read-only (cos, sin) [n, d_head] TcRoPE and TaRoPE tables of the n
    tokens of layout; token_ends and caption_ends (one per context) the row
    ends of their segments.  caption_kv holds each block's rotated caption
    keys and its values, stacked over the branches.
    """

    contexts: tuple
    layout: object
    token_tables: tuple
    query_tables: tuple
    token_ends: tuple
    caption_ends: tuple
    caption_kv: tuple


def project(x, w, heads, tables=None):
    """x w split into heads, rotated by (cos, sin) tables when given."""
    h = T.split_heads(T.matmul(x, w), heads)
    return h if tables is None else T.rope_pairs(h, *tables)


def multishot_self_attention(tokens, cond, weights, heads=4, probs_out=None):
    """Full unmasked attention across all shots with TcRoPE-indexed Q/K,
    over cond's token segments.  tokens may stack branches of the layout;
    each attends over its own rows."""
    ends = (cond.token_ends,) * (tokens.shape[0] // cond.token_ends[-1])
    q, k = (project(tokens, w, heads, cond.token_tables) for w in (weights.wq, weights.wk))
    v = project(tokens, weights.wv, heads)
    out = segment_attention(q, k, v, ends, ends, probs_out)
    return T.matmul(T.merge_heads(out), weights.wo)


def multishot_cross_attention(tokens, cond, block, weights, heads=4, probs_out=None):
    """Visual queries over concatenated per-shot caption tokens.

    Queries rotate by their token's shot index times k; the keys, block
    `block` of cond.caption_kv, by their caption's shot index times k.
    Values are left unrotated.  tokens stacks one block of the layout's
    rows per branch of cond, and each branch's segments attend over its
    context's.  Of weights, wq and wo are read here; wk and wv made the keys.
    """
    q = project(tokens, weights.wq, heads, cond.query_tables)
    k, v = cond.caption_kv[block]
    q_ends = (cond.token_ends,) * len(cond.contexts)
    out = segment_attention(q, k, v, q_ends, cond.caption_ends, probs_out)
    return T.matmul(T.merge_heads(out), weights.wo)
