"""Miniature multi-shot diffusion transformer denoiser.

Four pre-norm blocks of shot-aware self-attention, shot-aligned
cross-attention over per-shot caption tokens, and an FFN, trained to
regress the rectified-flow velocity.  The variant picks which rotary
mechanisms are active; none of them add parameters, so the tensor
census is identical across variants.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import rope, tensor as T
from .attention import (
    AttentionWeights,
    Conditioning,
    ContextTokens,
    multishot_cross_attention,
    multishot_self_attention,
    pair_tables,
    project,
    segment_blocks,
)
from .tensor import ConfigError, NumericError, ShapeError, Tensor, config_from_dict

VARIANTS = ("vanilla", "tcrope", "full", "full+refattn")


@dataclass
class DenoiserConfig:
    d_model: int = 128
    blocks: int = 4
    heads: int = 4
    ffn_mult: int = 4
    j: float = 4.0
    k: float = 6.0
    variant: str = "full"
    caption_dropout: float = 0.1
    d_token: int = 128
    d_id: int = 16
    v_scene: int = 8
    v_mot: int = 4
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        sizes = (self.d_model, self.blocks, self.heads, self.ffn_mult, self.d_token, self.d_id)
        if min(*sizes, self.v_scene, self.v_mot) < 1 or min(self.j, self.k) < 0:
            raise ConfigError("model sizes must be >= 1, and j and k >= 0")
        if self.rope_base <= 1 or not 0 <= self.caption_dropout <= 1:
            raise ConfigError("model rope_base must exceed 1 and caption_dropout lie in [0, 1]")
        if self.d_model % self.heads != 0:
            raise ConfigError("d_model must be divisible by heads")
        if (self.d_model // self.heads) % 2 != 0:
            raise ConfigError("head dim must be even for rotary pairs")

    @property
    def head_dim(self):
        return self.d_model // self.heads

    @property
    def j_eff(self):
        return self.j if self.variant in ("tcrope", "full", "full+refattn") else 0.0

    @property
    def k_eff(self):
        return self.k if self.variant in ("full", "full+refattn") else 0.0

    @property
    def use_ref(self):
        return self.variant == "full+refattn"

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return config_from_dict(cls, "model", d)


def _trunc_normal(rng, shape, std=0.02):
    return np.clip(rng.standard_normal(shape) * std, -2 * std, 2 * std).astype(np.float32)


def param_shapes(cfg):
    """(name, shape) of every weight tensor, in init_params' draw order;
    the variant never changes it."""
    d, dt, hidden = cfg.d_model, cfg.d_token, cfg.d_model * cfg.ffn_mult
    yield from (("in_proj/w", (dt, d)), ("in_proj/b", (d,)))
    yield from (("time_proj/w", (d, d)), ("time_proj/b", (d,)))
    yield from (("caption/scene", (cfg.v_scene, d)), ("caption/motion", (cfg.v_mot, d)))
    yield from (("caption/null", (1, d)), ("caption/null_id", (1, d)))
    yield from (("id_proj/w", (cfg.d_id, d)), ("id_proj/b", (d,)))
    for b in range(cfg.blocks):
        for attn in ("sa", "ca"):
            for w in ("wq", "wk", "wv", "wo"):
                yield f"block{b}/{attn}/{w}", (d, d)
        yield from ((f"block{b}/ffn/w1", (d, hidden)), (f"block{b}/ffn/b1", (hidden,)))
        yield from ((f"block{b}/ffn/w2", (hidden, d)), (f"block{b}/ffn/b2", (d,)))
    yield from (("head/w", (d, dt)), ("head/b", (dt,)))


def init_params(cfg, seed):
    """Weight tensors: biases and the output head start at zero (a zero head
    keeps the velocity field null at init), the rest truncated normal."""
    rng = T.seeded_rng(seed)
    p = OrderedDict()
    for name, shape in param_shapes(cfg):
        zero = name.startswith("head/") or name.rsplit("/", 1)[1] in ("b", "b1", "b2")
        arr = np.zeros(shape, dtype=np.float32) if zero else _trunc_normal(rng, shape)
        p[name] = Tensor(arr, requires_grad=True)
    return p


def params_census(params):
    return {name: tuple(t.shape) for name, t in params.items()}


def timestep_features(tau, d_model):
    """Sinusoidal embedding of the denoising time, scaled to 1000 steps."""
    half = d_model // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    ang = 1000.0 * float(tau) * freqs
    return np.concatenate([np.cos(ang), np.sin(ang)]).astype(np.float32)[None, :]


class AttentionCollector:
    """Gathers a forward's attention probabilities for heatmap analysis.

    Each attention call appends its kernel's (query rows, key rows,
    probabilities) blocks to a list from sink.  From them, and nowhere else,
    self_probs builds each self-attention head's [n, n] matrix and cross_probs
    each cross-attention head's (matrix, key shot index), zero where a row may
    not look, in call order.
    """

    def __init__(self):
        self.calls = []  # (blocks, key shot index, or None for a self-attention)

    def sink(self, key_shots=None):
        """The block list of one attention call: a cross-attention's over keys
        of shot indices key_shots, else a self-attention's, whose keys are its queries."""
        self.calls.append(([], key_shots))
        return self.calls[-1][0]

    def _matrices(self, cross):
        for blocks, shots in self.calls:
            if (shots is not None) == cross:
                nq = sum(p.shape[-2] for _, _, p in blocks)  # the blocks tile the query rows
                nk = nq if shots is None else len(shots)
                full = np.zeros(blocks[0][2].shape[:-2] + (nq, nk), dtype=blocks[0][2].dtype)
                for q_rows, k_rows, p in blocks:
                    full[..., q_rows, k_rows] = p
                yield from ((m, shots) for m in full.reshape(-1, nq, nk))

    @property
    def self_probs(self):
        return [m for m, _ in self._matrices(cross=False)]

    @property
    def cross_probs(self):
        return list(self._matrices(cross=True))


def caption_context(bundles, cfg, params):
    """Embed caption bundles into context token rows with shot indices.

    bundles holds one bundle per packed layout, and rows are grouped by shot
    as [shot 0 | bundle 1's later shots | ...], shot 0 from the first
    bundle; the context records where each segment ends.  Every shot, kept
    or dropped, gives at least one row, so the shot-0 rows come first, every
    later row carries a nonzero shot, and every shot below the largest
    bundle's shot count appears.
    """
    groups = [(bundles[0], range(1))] + [(c, range(1, c.shot_count)) for c in bundles]
    rows, shot_idx, ends = [], [], []
    for bundle, shots in groups:
        id_rows = [] if bundle.id_row is None else [bundle.id_row]
        for row in id_rows:
            if not isinstance(row, Tensor) or row.shape != (1, cfg.d_model):
                got = f"{type(row).__name__} {getattr(row, 'shape', '')}"
                raise ShapeError(f"identity row must be a (1, {cfg.d_model}) Tensor, not {got}")
        for s in shots:
            p = bundle.shots[s]
            if s in bundle.dropped:
                shot_rows = [params["caption/null"]]
            elif not 0 <= p.scene < cfg.v_scene or not 0 <= p.motion < cfg.v_mot:
                raise ConfigError(f"caption ids out of vocabulary: {p}")
            else:
                scene = T.gather_rows(params["caption/scene"], [p.scene])
                shot_rows = id_rows + [scene, T.gather_rows(params["caption/motion"], [p.motion])]
            rows += shot_rows
            shot_idx += [s] * len(shot_rows)
        ends.append(len(shot_idx))
    return ContextTokens(T.concat_rows(rows), np.asarray(shot_idx), tuple(ends))


def conditioning(captions, layout, cfg, params, guidance=1.0):
    """What every attention call of a forward at this guidance reads besides
    its rows and weights: an attention.Conditioning.

    captions holds one bundle per packed layout, or is the one bundle.  The
    branches are the captions and, at guidance != 1, their null_captions;
    their rows stack [c | u], and the tables and blocks cover the stack.
    Each block's caption keys and values are projected here, from the
    weights as they are now: a sampling call builds the conditioning once
    for all its steps, and a training forward builds its own, so none
    outlives an AdamW update.
    """
    captions = captions if isinstance(captions, tuple) else (captions,)
    if len(layout.layouts) > 1 and not cfg.use_ref:
        raise ConfigError("a packing of several layouts requires the full+refattn variant")
    if len(captions) != len(layout.layouts):
        raise ConfigError("a packed layout needs a tuple of caption bundles, one per layout")
    for bundle, lay in zip(captions, layout.layouts):
        if bundle.shot_count != lay.shot_count:
            raise ConfigError(
                f"caption bundle has {bundle.shot_count} shots, layout {lay.shot_count}"
            )
    branches = (captions,) if guidance == 1.0 else (captions, tuple(map(null_captions, captions)))
    contexts = tuple(caption_context(bundles, cfg, params) for bundles in branches)

    basis = rope.RotaryBasis(cfg.head_dim, cfg.rope_base)
    dtype, n, copies = params["in_proj/w"].dtype, layout.total_tokens, len(contexts)
    t, h, w = layout.token_positions(j=cfg.j_eff)
    token_tables = pair_tables(rope.phase_tables_3d(basis, t, h, w), dtype, copies)
    query_tables, *key_tables = (
        pair_tables(rope.phase_tables_1d(basis, shots * cfg.k_eff), dtype, c) for shots, c in
        [(layout.token_shot_index(), copies)] + [(ctx.shot_index, 1) for ctx in contexts]
    )
    caption_kv, self_blocks, cross_blocks, k_top = [], [], [], 0
    for b in range(cfg.blocks):
        keys, values = [], []
        for ctx, tables in zip(contexts, key_tables):
            keys.append(project(ctx.embeddings, params[f"block{b}/ca/wk"], cfg.heads, tables))
            values.append(project(ctx.embeddings, params[f"block{b}/ca/wv"], cfg.heads))
        caption_kv.append(tuple(x[0] if len(x) == 1 else T.concat_rows(x) for x in (keys, values)))
    token_ends = layout.segment_ends if cfg.use_ref else (n,)
    for i, ctx in enumerate(contexts):
        caption_ends = ctx.segment_ends if cfg.use_ref else (len(ctx.shot_index),)
        self_blocks += segment_blocks(token_ends, token_ends, i * n, i * n)
        cross_blocks += segment_blocks(token_ends, caption_ends, i * n, k_top)
        k_top += caption_ends[-1]
    return Conditioning(captions, contexts, layout, token_tables, query_tables,
                        tuple(self_blocks), tuple(cross_blocks), tuple(caption_kv))


def denoiser_forward(
    z_tau, tau, captions, layout, cfg, params, collect=None, guidance=1.0, cond=None
):
    """Predicted velocity field for one sample.

    layout packs layouts that share shot 0 (a lone ShotLayout packs itself)
    and captions holds one bundle per layout, or is the one bundle; the
    field holds every layout's sample.  Several layouts need full+refattn.

    At guidance g != 1 the field is the guided u + g (c - u), c under the
    captions and u under their null_captions, in one forward: the ops before
    block 0's cross-attention read no caption and run once; there the rows
    stack [c | u], and every row op and each block's self- and cross-attention
    run once on the stack, with the bits of each branch's own forward
    (README, Determinism).  cond, what every attention call reads, is
    conditioning(captions, layout, cfg, params, guidance), built when None;
    a sampling call passes the one it built for all its steps, and one built
    for other captions, another layout or another branch count is refused.
    collect needs guidance 1.
    """
    z = z_tau if isinstance(z_tau, Tensor) else Tensor(np.asarray(z_tau, dtype=np.float32))
    n = layout.total_tokens
    if z.shape != (n, cfg.d_token):
        raise ShapeError(f"latent shape {z.shape} != ({n}, {cfg.d_token})")
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must lie in [0, 1], got {tau}")
    if collect is not None and guidance != 1.0:
        raise ConfigError("collect needs guidance 1")
    captions = captions if isinstance(captions, tuple) else (captions,)
    if cond is None:
        cond = conditioning(captions, layout, cfg, params, guidance)
    branches = len(cond.contexts)
    if (branches, cond.layout, cond.captions) != (1 if guidance == 1.0 else 2, layout, captions):
        raise ConfigError(f"a conditioning of {branches} branches for layout {cond.layout} does "
                          f"not fit a forward at guidance {guidance} on {layout} or these captions")

    temb = T.matmul(Tensor(timestep_features(tau, cfg.d_model)), params["time_proj/w"])
    temb = T.add(temb, params["time_proj/b"])
    x = T.add(T.matmul(z, params["in_proj/w"]), params["in_proj/b"])
    x = T.add(x, temb)

    for b in range(cfg.blocks):
        sa_w, ca_w = (
            AttentionWeights(*(params[f"block{b}/{m}/{w}"] for w in ("wq", "wk", "wv", "wo")))
            for m in ("sa", "ca")
        )
        sa = multishot_self_attention(
            T.layernorm(x), cond, sa_w, heads=cfg.heads,
            probs_out=None if collect is None else collect.sink(),
        )
        x = T.add(x, sa)
        if b == 0 and branches > 1:
            x = T.concat_rows([x] * branches)
        ca = multishot_cross_attention(
            T.layernorm(x), cond, b, ca_w, heads=cfg.heads,
            probs_out=None if collect is None else collect.sink(cond.contexts[0].shot_index),
        )
        x = T.add(x, ca)
        ffn_w = (params[f"block{b}/ffn/{w}"] for w in ("w1", "b1", "w2", "b2"))
        x = T.add(x, T.ffn(T.layernorm(x), *ffn_w))

    out = T.add(T.matmul(T.layernorm(x), params["head/w"]), params["head/b"])
    if guidance == 1.0:
        return out
    c, u = T.slice_rows(out, 0, n), T.slice_rows(out, n, 2 * n)
    return T.add(u, T.scale(T.sub(c, u), guidance))


def rf_loss(pred, z, eps):
    """Mean squared error to the rectified-flow velocity target eps - z."""
    target = np.asarray(eps, dtype=pred.data.dtype) - np.asarray(z, dtype=pred.data.dtype)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target {target.shape}")
    diff = T.sub(pred, Tensor(target, dtype=pred.data.dtype))
    loss = T.tmean(T.mul(diff, diff))
    if not np.isfinite(loss.data):
        raise NumericError("rf_loss: non-finite loss")
    return loss


def make_noisy(z, eps, tau):
    """z_tau = (1 - tau) z + tau eps."""
    return ((1.0 - tau) * np.asarray(z, dtype=np.float64) + tau * np.asarray(eps, dtype=np.float64)).astype(
        np.float32
    )


def apply_caption_dropout(captions, p, rng):
    """Independently null out each shot's caption with probability p, one
    uniform per shot in order; a shot already dropped stays so and draws none."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("dropout probability must lie in [0, 1]")
    shots = range(captions.shot_count)
    dropped = frozenset(s for s in shots if s in captions.dropped or rng.uniform() < p)
    return replace(captions, dropped=dropped)


def null_captions(captions):
    """The bundle with every shot's caption dropped and no identity row:
    guidance's unconditional branch."""
    return replace(captions, dropped=frozenset(range(captions.shot_count)), id_row=None)
