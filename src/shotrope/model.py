"""Miniature multi-shot diffusion transformer denoiser.

Four pre-norm blocks of shot-aware self-attention, shot-aligned
cross-attention over per-shot caption tokens, and an FFN, trained to
regress the rectified-flow velocity.  The variant picks which rotary
mechanisms are active; none of them add parameters, so the tensor
census is identical across variants.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass

import numpy as np

from . import rope, tensor as T
from .attention import (
    AttentionWeights,
    ContextTokens,
    multishot_cross_attention,
    multishot_self_attention,
)
from .shots import ShotRopeParams
from .tensor import ConfigError, NumericError, ShapeError, Tensor

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
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


def _trunc_normal(rng, shape, std=0.02):
    return np.clip(rng.standard_normal(shape) * std, -2 * std, 2 * std).astype(np.float32)


def init_params(cfg, seed):
    """Weight tensors; the variant never changes the census."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d, dt = cfg.d_model, cfg.d_token
    p = OrderedDict()

    def param(name, arr):
        p[name] = Tensor(arr, requires_grad=True)

    param("in_proj/w", _trunc_normal(rng, (dt, d)))
    param("in_proj/b", np.zeros(d, dtype=np.float32))
    param("time_proj/w", _trunc_normal(rng, (d, d)))
    param("time_proj/b", np.zeros(d, dtype=np.float32))
    param("caption/scene", _trunc_normal(rng, (cfg.v_scene, d)))
    param("caption/motion", _trunc_normal(rng, (cfg.v_mot, d)))
    param("caption/null", _trunc_normal(rng, (1, d)))
    param("caption/null_id", _trunc_normal(rng, (1, d)))
    param("id_proj/w", _trunc_normal(rng, (cfg.d_id, d)))
    param("id_proj/b", np.zeros(d, dtype=np.float32))
    for b in range(cfg.blocks):
        for attn in ("sa", "ca"):
            for w in ("wq", "wk", "wv", "wo"):
                param(f"block{b}/{attn}/{w}", _trunc_normal(rng, (d, d)))
        hidden = d * cfg.ffn_mult
        param(f"block{b}/ffn/w1", _trunc_normal(rng, (d, hidden)))
        param(f"block{b}/ffn/b1", np.zeros(hidden, dtype=np.float32))
        param(f"block{b}/ffn/w2", _trunc_normal(rng, (hidden, d)))
        param(f"block{b}/ffn/b2", np.zeros(d, dtype=np.float32))
    # zero output head keeps the velocity field null at init
    param("head/w", np.zeros((d, dt), dtype=np.float32))
    param("head/b", np.zeros(dt, dtype=np.float32))
    return p


def params_census(params):
    return {name: tuple(t.data.shape if hasattr(t, "data") else np.shape(t)) for name, t in params.items()}


def timestep_features(tau, d_model):
    """Sinusoidal embedding of the denoising time, scaled to 1000 steps."""
    half = d_model // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    ang = 1000.0 * float(tau) * freqs
    return np.concatenate([np.cos(ang), np.sin(ang)]).astype(np.float32)[None, :]


class AttentionCollector:
    """Gathers per-head attention probabilities for heatmap analysis."""

    def __init__(self):
        self.self_probs = []
        self.cross_probs = []  # (probs, key shot index)


_BASIS_CACHE = {}


def _bases(cfg):
    key = (cfg.head_dim, cfg.rope_base)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = (
            rope.make_basis_3d(cfg.head_dim, base=cfg.rope_base, strict=False),
            rope.make_basis_1d(cfg.head_dim, base=cfg.rope_base),
        )
    return _BASIS_CACHE[key]


def caption_context(captions, cfg, params, sort_by_shot=False):
    """Embed a caption bundle into context token rows with shot indices."""
    entries = captions.by_shot() if sort_by_shot else list(captions.entries)
    rows = []
    shot_idx = []
    for e in entries:
        if e.dropped:
            rows.append(params["caption/null"])
            shot_idx.append(e.shot)
            continue
        if e.id_vector is not None:
            if isinstance(e.id_vector, Tensor):
                idrow = e.id_vector
            else:
                vec = np.asarray(e.id_vector, dtype=np.float32)
                if vec.shape != (cfg.d_model,):
                    raise ShapeError(
                        f"identity embedding dim {vec.shape} != caption dim {cfg.d_model}"
                    )
                if np.any(vec):
                    idrow = Tensor(vec[None, :])
                else:
                    idrow = params["caption/null_id"]
            rows.append(idrow)
            shot_idx.append(e.shot)
        if not 0 <= e.scene_id < cfg.v_scene or not 0 <= e.motion_id < cfg.v_mot:
            raise ConfigError(f"caption ids out of vocabulary: {e}")
        rows.append(T.gather_rows(params["caption/scene"], [e.scene_id]))
        rows.append(T.gather_rows(params["caption/motion"], [e.motion_id]))
        shot_idx.extend([e.shot, e.shot])
    return ContextTokens(T.concat_rows(rows), np.asarray(shot_idx))


def denoiser_forward(z_tau, tau, captions, layout, cfg, params, collect=None):
    """Predicted velocity field for one sample."""
    z = z_tau if isinstance(z_tau, Tensor) else Tensor(np.asarray(z_tau, dtype=np.float32))
    if z.shape != (layout.total_tokens, cfg.d_token):
        raise ShapeError(
            f"latent shape {z.shape} != ({layout.total_tokens}, {cfg.d_token})"
        )
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must lie in [0, 1], got {tau}")
    if captions.shot_count != layout.shot_count:
        raise ConfigError(
            f"caption bundle has {captions.shot_count} entries, layout {layout.shot_count} shots"
        )
    basis3d, basis1d = _bases(cfg)
    sp = ShotRopeParams(j=cfg.j_eff, k=cfg.k_eff)
    context = caption_context(captions, cfg, params, sort_by_shot=cfg.use_ref)

    temb = T.matmul(Tensor(timestep_features(tau, cfg.d_model)), params["time_proj/w"])
    temb = T.add(temb, params["time_proj/b"])
    x = T.add(T.matmul(z, params["in_proj/w"]), params["in_proj/b"])
    x = T.add(x, temb)

    for b in range(cfg.blocks):
        sa_probs = [] if collect is not None else None
        sa_w = AttentionWeights(*(params[f"block{b}/sa/{w}"] for w in ("wq", "wk", "wv", "wo")))
        sa = multishot_self_attention(
            T.layernorm(x), layout, sp, basis3d, sa_w, heads=cfg.heads,
            use_ref=cfg.use_ref, probs_out=sa_probs,
        )
        x = T.add(x, sa)
        ca_probs = [] if collect is not None else None
        ca_w = AttentionWeights(*(params[f"block{b}/ca/{w}"] for w in ("wq", "wk", "wv", "wo")))
        ca = multishot_cross_attention(
            T.layernorm(x), context, layout, sp, basis1d, ca_w, heads=cfg.heads,
            use_ref=cfg.use_ref, probs_out=ca_probs,
        )
        x = T.add(x, ca)
        h = T.layernorm(x)
        h = T.add(T.matmul(h, params[f"block{b}/ffn/w1"]), params[f"block{b}/ffn/b1"])
        h = T.gelu(h)
        h = T.add(T.matmul(h, params[f"block{b}/ffn/w2"]), params[f"block{b}/ffn/b2"])
        x = T.add(x, h)
        if collect is not None:
            collect.self_probs.extend(sa_probs)
            collect.cross_probs.extend((pr, context.shot_index) for pr in ca_probs)

    out = T.matmul(T.layernorm(x), params["head/w"])
    return T.add(out, params["head/b"])


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
    """Independently null out each shot's caption with probability p."""
    from .synthetic import CaptionBundle, CaptionEntry

    if not 0.0 <= p <= 1.0:
        raise ConfigError("dropout probability must lie in [0, 1]")
    entries = [
        CaptionEntry(
            shot=e.shot,
            scene_id=e.scene_id,
            motion_id=e.motion_id,
            id_vector=e.id_vector,
            dropped=e.dropped or bool(rng.uniform() < p),
        )
        for e in captions.entries
    ]
    return CaptionBundle(entries)
