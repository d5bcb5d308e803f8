"""Multi-shot attention kernels.

Self-attention modulates Q/K with the boundary-shifted 3D rotary
embedding; cross-attention aligns visual queries with per-shot caption
keys via the 1D shot-index rotation.  In both, segment blocks decide
which keys a row sees.  The plain multi-shot mode is the one-segment
case: nothing is masked, and inter-shot interaction is suppressed by
rotary distance only.  The reference mode splits the rows into segments
so shot-0 rows depend on shot-0 inputs alone.  There is one packing path:
a lone layout is the packing of itself, and a layout and its caption
context give the row ends of their segments, [shot 0 | each layout's
later shots], which `segment_blocks` turns into blocks.

All heads run at once on [heads, n, d_head] tensors.  What depends only
on the layout and the captions, the rotary tables, each attention's blocks
and each block's rotated caption keys and values, is built once per forward,
or once per sampling call and guidance branch, into a Conditioning
(model.conditioning): each kernel reads its row-aligned tables and blocks
and keeps no state.  Self-attention and
taped cross-attention make one attention_core call.  With no tape recording,
the caption keys and values are fixed for the call and each shot's queries
turn by one angle, so the conditioning folds, in each block with few caption
keys (heads * keys <= d_model), W_q, that rotation and the keys into one
matrix per run of one shot's rows, and the values and W_o into one per block
(fold_cross_attention): such a block's cross-attention is then two thin
products and a softmax per run, and a block with more keys runs the kernel
on its own rows.
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
    """[n, d/2] cos/sin -> read-only [n, d] tables: each pair's entry twice."""
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


def segment_blocks(q_ends, k_ends):
    """The attention_core (query rows, key rows) blocks of segmented rows.

    q_ends/k_ends are the row ends of segment 0 and of each later segment,
    one entry per segment in both.  Segment-0 rows attend to segment-0 keys
    only; segment i attends to the segment-0 keys followed by its own keys,
    so each segment runs the products it would run on its own.  One segment
    is plain attention: every row over every key.  An empty later segment
    gets no block.
    """
    if len(q_ends) != len(k_ends):
        raise ConfigError("segment attention: query and key segments differ in number")
    shot0 = np.arange(k_ends[0])
    return [(slice(0, q_ends[0]), slice(0, k_ends[0]))] + [
        (slice(q_lo, q_hi), np.r_[shot0, k_lo:k_hi])
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

    context holds the captions' ContextTokens; its shot index tags the
    cross-attention keys an AttentionCollector reads.  token_tables and
    query_tables, the read-only (cos, sin) TcRoPE and TaRoPE tables, have
    one row per token of layout, and self_blocks and cross_blocks are the
    attention_core blocks of each attention.

    caption_kv holds each block's rotated caption keys and values.  Built
    with no tape recording, cross_folds holds each
    block's fold_cross_attention runs: in the attention blocks with few
    caption keys, the keys, values, query rotations and W_q and W_o folded
    into two matrices per run, which carry no gradient.  Built under a
    GradTape, cross_folds is None and cross-attention runs the taped kernel.
    """

    captions: tuple
    context: ContextTokens
    layout: object
    token_tables: tuple
    query_tables: tuple
    self_blocks: tuple
    cross_blocks: tuple
    caption_kv: tuple
    cross_folds: tuple | None


def project(x, w, heads, tables=None):
    """x w split into heads, rotated by (cos, sin) tables when given."""
    h = T.split_heads(T.matmul(x, w), heads)
    return h if tables is None else T.rope_pairs(h, *tables)


def multishot_self_attention(tokens, cond, weights, heads=4, probs_out=None):
    """TcRoPE-indexed self-attention over cond's self blocks: all shots, or
    under full+refattn shot 0 alone and later shots with shot 0."""
    q, k = (project(tokens, w, heads, cond.token_tables) for w in (weights.wq, weights.wk))
    v = project(tokens, weights.wv, heads)
    out = scaled_dot_attention(q, k, v, probs_out, cond.self_blocks)
    return T.matmul(T.merge_heads(out), weights.wo)


def fold_cross_attention(kv, wq, wo, query_tables, blocks):
    """One block's cross-attention folded into two matrices per run, for
    forwards that keep no gradient.

    kv are the block's rotated caption keys and values, [heads, nk, dh]
    Tensors; blocks are the cross blocks.  A run is a stretch of a block's
    query rows whose query_tables rows are equal, one shot's rows (a whole
    block when k is 0).  Its rotation R turns x W_q,h, so with K_h and V_h
    head h's keys and values of the block's key rows, the run's logits are
    x A and its output after W_o is P VWo, P the probabilities side by side:
    A = [R(W_q,h) K_h^T]_h / sqrt(dh), [d, heads * nk'], and
    VWo = [V_h W_o,h]_h, [heads * nk', d].  Returns the runs' (query rows,
    key rows, A, VWo), in row order; a block's runs share its VWo.

    Only a block with heads * nk' <= d folds.  Its A and VWo are then no
    larger than W_q, and a row's two products cost no more than the Q and
    O projections they replace; a block with more keys (many shots in one
    block) would hold a d x heads * nk' matrix per shot and run slower, so
    it is returned as one run (query rows, key rows, None, None) for the
    kernel.
    """
    k, v = (t.data for t in kv)
    heads, _, dh = k.shape
    d = wq.shape[0]
    wq_heads = np.ascontiguousarray(wq.reshape(d, heads, dh).transpose(1, 0, 2))
    wo_heads = wo.reshape(heads, dh, d)
    cos, sin = query_tables
    turns = np.flatnonzero((cos[1:] != cos[:-1]).any(axis=1) | (sin[1:] != sin[:-1]).any(axis=1))
    turns += 1
    scale = k.dtype.type(1.0 / np.sqrt(dh))
    runs = []
    for q_rows, k_rows in blocks:
        keys = k[:, k_rows]
        nk = keys.shape[1]
        if heads * nk > d:
            runs.append((q_rows, k_rows, None, None))
            continue
        kt = np.ascontiguousarray(np.swapaxes(keys, 1, 2))  # [heads, dh, nk']
        out_w = (np.ascontiguousarray(v[:, k_rows]) @ wo_heads).reshape(heads * nk, d)
        inner = turns[(turns > q_rows.start) & (turns < q_rows.stop)]
        cuts = [q_rows.start, *inner.tolist(), q_rows.stop]
        for lo, hi in zip(cuts, cuts[1:]):
            a = T.rotate_pairs(wq_heads, cos[lo], sin[lo]) @ kt  # [heads, d, nk']
            a *= scale
            logit_w = np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(d, heads * nk)
            runs.append((slice(lo, hi), k_rows, logit_w, out_w))
    return tuple(runs)


def multishot_cross_attention(tokens, cond, block, weights, heads=4, probs_out=None):
    """Visual queries over concatenated per-shot caption tokens.

    Queries rotate by their token's shot index times k; the keys by their
    caption's shot index times k.  Values are left unrotated.  The token
    segments attend over the context's by cond.cross_blocks.

    Under a tape (cond.cross_folds None) the queries are projected by
    weights.wq and rotated, attend over block `block` of cond.caption_kv
    in one attention_core call, and the heads' outputs are projected by
    weights.wo.  Otherwise each run of cond.cross_folds[block] that folds
    is three steps: logits x A, a softmax over each head's keys, and P VWo,
    with no Q or O projection; a run that does not, a whole attention
    block, runs those projections and the kernel on its own rows.  A folded
    cond under a recording tape is refused, as it would drop W_q's and
    W_o's gradients.  probs_out gets (query rows, key rows, [heads, rows,
    keys]) blocks either way.
    """
    k, v = cond.caption_kv[block]
    if cond.cross_folds is None:
        q = project(tokens, weights.wq, heads, cond.query_tables)
        out = scaled_dot_attention(q, k, v, probs_out, cond.cross_blocks)
        return T.matmul(T.merge_heads(out), weights.wo)
    if T.recording():
        raise ConfigError("a folded conditioning keeps no gradient: build it under the tape")
    x = tokens.data
    out = np.empty(x.shape, np.result_type(x, weights.wq.data, weights.wo.data, k.data, v.data))
    for q_rows, k_rows, logit_w, out_w in cond.cross_folds[block]:
        rows = Tensor(x[q_rows])
        if logit_w is None:
            part = None if probs_out is None else []
            q = project(rows, weights.wq, heads, [tab[q_rows] for tab in cond.query_tables])
            o = scaled_dot_attention(q, k, v, part, [(slice(0, rows.shape[0]), k_rows)])
            out[q_rows] = T.matmul(T.merge_heads(o), weights.wo).data
            probs = None if part is None else part[0][2]
        else:
            logits = T.matmul(rows, Tensor(logit_w)).data
            probs = T.softmax_rows(Tensor(logits.reshape(len(logits), heads, -1))).data
            out[q_rows] = T.matmul(Tensor(probs.reshape(len(logits), -1)), Tensor(out_w)).data
            probs = probs.transpose(1, 0, 2)
        if probs_out is not None:
            probs_out.append((q_rows, k_rows, probs))
    return Tensor(out)
